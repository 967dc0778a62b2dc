#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "contact/penalty.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "par/par.hpp"
#include "plan/plan.hpp"
#include "precond/djds_bic.hpp"
#include "precond/sb_bic0.hpp"
#include "reorder/coloring.hpp"
#include "reorder/djds.hpp"
#include "simd/simd.hpp"
#include "solver/cg.hpp"
#include "util/rng.hpp"

namespace gc = geofem::contact;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace gp = geofem::precond;
namespace gplan = geofem::plan;
namespace gr = geofem::reorder;
namespace gs = geofem::sparse;

namespace {

struct Fixture {
  gm::HexMesh mesh;
  gf::System sys;
  gc::Supernodes sn;
  gr::Coloring coloring;

  explicit Fixture(double lambda, int colors = 8) {
    mesh = gm::simple_block({3, 3, 2, 3, 3});
    sys = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
    gc::add_penalty(sys.a, mesh.contact_groups, lambda);
    gf::BoundaryConditions bc;
    bc.fix_nodes(mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
    const double zmax = mesh.bounding_box().hi[2];
    bc.surface_load(
        mesh, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);
    gf::apply_boundary_conditions(sys, bc);
    sn = gc::build_supernodes(mesh.num_nodes(), mesh.contact_groups);
    const auto g = gs::graph_of(sys.a);
    auto q = gr::quotient_graph(g, sn.node_to_super, sn.count());
    coloring = gr::lift_coloring(gr::multicolor(q, colors), sn.node_to_super, sys.a.n);
  }
};

/// Solve in DJDS ordering, return (iterations, true relative residual).
std::pair<int, double> solve_djds(const Fixture& f, const gr::DJDSMatrix& dj,
                                  const gp::DJDSBIC& m) {
  const std::size_t n = f.sys.a.ndof();
  std::vector<double> pb(n), px(n, 0.0);
  for (int i = 0; i < f.sys.a.n; ++i)
    for (int c = 0; c < 3; ++c)
      pb[static_cast<std::size_t>(dj.perm()[static_cast<std::size_t>(i)] * 3 + c)] =
          f.sys.b[static_cast<std::size_t>(i * 3 + c)];
  geofem::solver::CGOptions opt;
  auto res = geofem::solver::pcg(
      [&dj](std::span<const double> in, std::span<double> out, geofem::util::FlopCounter* fc,
            geofem::util::LoopStats* ls) { dj.spmv(in, out, fc, ls); },
      m, pb, px, opt);
  // true residual in original ordering
  std::vector<double> x(n), r(n);
  for (int i = 0; i < f.sys.a.n; ++i)
    for (int c = 0; c < 3; ++c)
      x[static_cast<std::size_t>(i * 3 + c)] =
          px[static_cast<std::size_t>(dj.perm()[static_cast<std::size_t>(i)] * 3 + c)];
  f.sys.a.spmv(x, r, nullptr, nullptr);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n; ++i) {
    num += (r[i] - f.sys.b[i]) * (r[i] - f.sys.b[i]);
    den += f.sys.b[i] * f.sys.b[i];
  }
  return {res.iterations, std::sqrt(num / den)};
}

/// Test-local reference of the original PDJDS SB-BIC(0) algorithm: unit
/// factors from sb_factor_diagonals on the matrix permuted into the DJDS
/// ordering, jagged sweeps one diagonal at a time, and one generic
/// DenseLU::solve per ordering unit — serially, chunk by chunk.
struct PermutedReference {
  struct Unit {
    int start;
    int size;
  };
  std::vector<std::vector<Unit>> chunk_units;
  std::vector<gs::DenseLU> lu;  ///< by unit, ascending new row

  PermutedReference(const gs::BlockCSR& a, const gr::DJDSMatrix& dj) {
    const int nchunks = dj.num_colors() * dj.npe();
    chunk_units.resize(static_cast<std::size_t>(nchunks));
    gc::Supernodes units;
    units.node_to_super.assign(static_cast<std::size_t>(dj.n()), -1);
    for (int ch = 0; ch < nchunks; ++ch) {
      for (int i = dj.chunk_begin()[static_cast<std::size_t>(ch)];
           i < dj.chunk_begin()[static_cast<std::size_t>(ch) + 1];) {
        const int r = dj.range_of_row(i);
        const int size = r >= 0 ? dj.super_ranges()[static_cast<std::size_t>(r)].size : 1;
        chunk_units[static_cast<std::size_t>(ch)].push_back({i, size});
        std::vector<int> mem;
        for (int t = 0; t < size; ++t) {
          mem.push_back(i + t);
          units.node_to_super[static_cast<std::size_t>(i + t)] = units.count();
        }
        units.members.push_back(std::move(mem));
        i += size;
      }
    }
    lu = gp::sb_factor_diagonals(gs::permute(a, dj.perm()), units);
  }

  void apply(const gr::DJDSMatrix& dj, const std::vector<double>& r,
             std::vector<double>& z) const {
    constexpr int kB = gs::kB, kBB = gs::kBB;
    std::size_t id = 0;
    std::vector<std::size_t> first_id;
    for (const auto& cu : chunk_units) {
      first_id.push_back(id);
      id += cu.size();
    }
    for (int c = 0; c < dj.num_colors(); ++c) {
      for (int p = 0; p < dj.npe(); ++p) {
        const int ch = dj.chunk_index(c, p);
        const int b = dj.chunk_begin()[static_cast<std::size_t>(ch)];
        const int e = dj.chunk_begin()[static_cast<std::size_t>(ch) + 1];
        for (int i = b * kB; i < e * kB; ++i)
          z[static_cast<std::size_t>(i)] = r[static_cast<std::size_t>(i)];
        const auto& part = dj.lower(ch);
        for (int j = 0; j < part.num_jd(); ++j) {
          const int s = part.jd_ptr[static_cast<std::size_t>(j)];
          for (int t = s; t < part.jd_ptr[static_cast<std::size_t>(j) + 1]; ++t)
            gs::b3_gemv_sub(
                part.val.data() + static_cast<std::size_t>(t) * kBB,
                z.data() + static_cast<std::size_t>(part.item[static_cast<std::size_t>(t)]) * kB,
                z.data() + static_cast<std::size_t>(b + (t - s)) * kB);
        }
        std::size_t u = first_id[static_cast<std::size_t>(ch)];
        for (const Unit& unit : chunk_units[static_cast<std::size_t>(ch)])
          lu[u++].solve(z.data() + static_cast<std::size_t>(unit.start) * kB);
      }
    }
    std::vector<double> w(z.size(), 0.0);
    for (int c = dj.num_colors() - 1; c >= 0; --c) {
      for (int p = 0; p < dj.npe(); ++p) {
        const int ch = dj.chunk_index(c, p);
        const int b = dj.chunk_begin()[static_cast<std::size_t>(ch)];
        const auto& part = dj.upper(ch);
        for (int j = 0; j < part.num_jd(); ++j) {
          const int s = part.jd_ptr[static_cast<std::size_t>(j)];
          for (int t = s; t < part.jd_ptr[static_cast<std::size_t>(j) + 1]; ++t)
            gs::b3_gemv(
                part.val.data() + static_cast<std::size_t>(t) * kBB,
                z.data() + static_cast<std::size_t>(part.item[static_cast<std::size_t>(t)]) * kB,
                w.data() + static_cast<std::size_t>(b + (t - s)) * kB);
        }
        std::size_t u = first_id[static_cast<std::size_t>(ch)];
        for (const Unit& unit : chunk_units[static_cast<std::size_t>(ch)]) {
          double* wu = w.data() + static_cast<std::size_t>(unit.start) * kB;
          lu[u++].solve(wu);
          double* zu = z.data() + static_cast<std::size_t>(unit.start) * kB;
          for (int t = 0; t < unit.size * kB; ++t) zu[t] -= wu[t];
        }
      }
    }
  }
};

bool same_factor(const gs::DenseLU& x, const gs::DenseLU& y) {
  const std::size_t nn = static_cast<std::size_t>(x.size()) * static_cast<std::size_t>(x.size());
  return x.size() == y.size() && x.pivots() == y.pivots() &&
         std::memcmp(x.factor(), y.factor(), nn * sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

TEST(DJDSBIC, PlanBuiltFactorsAndApplyBitIdenticalToPermutedReference) {
  // npe 8 gives more chunks per color than threads at every team size below.
  Fixture f(1e4);
  gplan::PlanConfig cfg;
  cfg.precond = gplan::PrecondKind::kSBBIC0;
  cfg.ordering = gplan::OrderingKind::kPDJDSMC;
  cfg.colors = 8;
  cfg.npe = 8;
  const gplan::SolvePlan plan(f.sys.a, f.sn, cfg);
  const gr::DJDSMatrix& dj = *plan.djds();
  const PermutedReference ref(f.sys.a, dj);
  const auto prec = plan.numeric(f.sys.a);
  const auto& planned = dynamic_cast<const gp::DJDSBIC&>(*prec);
  const gp::DJDSBIC direct(f.sys.a, dj);
  EXPECT_EQ(planned.name(), "SB-BIC(0) PDJDS");

  for (const gp::DJDSBIC* m : {&planned, &direct}) {
    ASSERT_EQ(m->unit_factors().size(), ref.lu.size());
    for (std::size_t u = 0; u < ref.lu.size(); ++u)
      ASSERT_TRUE(same_factor(m->unit_factors()[u], ref.lu[u])) << "unit " << u;
  }

  const geofem::simd::IsaScope isa(geofem::simd::Isa::kOmpSimd);
  const std::size_t n = f.sys.a.ndof();
  geofem::util::Rng rng(11);
  std::vector<double> r(n), zref(n);
  for (double& v : r) v = rng.uniform(-1, 1);
  ref.apply(dj, r, zref);
  for (int team = 1; team <= 4; ++team) {
    const geofem::par::TeamScope ts(team);
    for (const gp::DJDSBIC* m : {&planned, &direct}) {
      std::vector<double> z(n, -1.0);
      m->apply(r, z, nullptr, nullptr);
      EXPECT_TRUE(same_bits(z, zref)) << "team " << team;
    }
  }
}

TEST(DJDSBIC, SolvesContactProblem) {
  Fixture f(1e4);
  gr::DJDSMatrix dj(f.sys.a, f.coloring, &f.sn, {});
  gp::DJDSBIC m(f.sys.a, dj);
  EXPECT_EQ(m.name(), "SB-BIC(0) PDJDS");
  auto [iters, resid] = solve_djds(f, dj, m);
  EXPECT_LT(resid, 1e-6);
  EXPECT_LT(iters, 400);
}

TEST(DJDSBIC, RobustInLambda) {
  int it_low = 0, it_high = 0;
  {
    Fixture f(1e2);
    gr::DJDSMatrix dj(f.sys.a, f.coloring, &f.sn, {});
    gp::DJDSBIC m(f.sys.a, dj);
    auto [iters, resid] = solve_djds(f, dj, m);
    EXPECT_LT(resid, 1e-6);
    it_low = iters;
  }
  {
    Fixture f(1e8);
    gr::DJDSMatrix dj(f.sys.a, f.coloring, &f.sn, {});
    gp::DJDSBIC m(f.sys.a, dj);
    auto [iters, resid] = solve_djds(f, dj, m);
    EXPECT_LT(resid, 1e-4);
    it_high = iters;
  }
  EXPECT_LE(std::abs(it_high - it_low), 5) << it_low << " vs " << it_high;
}

TEST(DJDSBIC, ApplyEquivalentToCSRPathWithSameOrder) {
  // With ONE color... impossible (adjacent rows). Instead check linearity and
  // SPD-consistency: z = M^-1 r must satisfy symmetry <M^-1 r1, r2> = <r1, M^-1 r2>.
  Fixture f(1e4);
  gr::DJDSMatrix dj(f.sys.a, f.coloring, &f.sn, {});
  gp::DJDSBIC m(f.sys.a, dj);
  const std::size_t n = f.sys.a.ndof();
  geofem::util::Rng rng(3);
  std::vector<double> r1(n), r2(n), z1(n), z2(n);
  for (std::size_t i = 0; i < n; ++i) {
    r1[i] = rng.uniform(-1, 1);
    r2[i] = rng.uniform(-1, 1);
  }
  m.apply(r1, z1, nullptr, nullptr);
  m.apply(r2, z2, nullptr, nullptr);
  double s12 = 0, s21 = 0, scale = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s12 += z1[i] * r2[i];
    s21 += z2[i] * r1[i];
    scale += std::abs(z1[i] * r2[i]);
  }
  EXPECT_NEAR(s12, s21, 1e-9 * scale);
}

TEST(DJDSBIC, PlainBIC0WhenNoSupernodes) {
  Fixture f(1e2);
  const auto g = gs::graph_of(f.sys.a);
  auto col = gr::multicolor(g, 8);
  gr::DJDSMatrix dj(f.sys.a, col, nullptr, {});
  gp::DJDSBIC m(f.sys.a, dj);
  EXPECT_EQ(m.name(), "BIC(0) PDJDS");
  auto [iters, resid] = solve_djds(f, dj, m);
  EXPECT_LT(resid, 1e-6);
  (void)iters;
}

TEST(DJDSBIC, StructuralLoopsRecorded) {
  Fixture f(1e4);
  gr::DJDSMatrix dj(f.sys.a, f.coloring, &f.sn, {});
  gp::DJDSBIC m(f.sys.a, dj);
  EXPECT_GT(m.structural_loops().count(), 0);
  EXPECT_GT(m.structural_loops().average(), 0.0);
}

TEST(DJDSBIC, FewerColorsLongerPrecondLoops) {
  Fixture f5(1e4, 5), f40(1e4, 40);
  gr::DJDSMatrix dj5(f5.sys.a, f5.coloring, &f5.sn, {});
  gr::DJDSMatrix dj40(f40.sys.a, f40.coloring, &f40.sn, {});
  gp::DJDSBIC m5(f5.sys.a, dj5);
  gp::DJDSBIC m40(f40.sys.a, dj40);
  EXPECT_GT(m5.structural_loops().average(), m40.structural_loops().average());
}
