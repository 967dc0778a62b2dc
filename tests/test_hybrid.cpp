// Determinism tier of the hybrid execution layer (DESIGN.md §5e): residual
// histories and solutions must be bit-identical for any OpenMP team size and
// with halo overlap on or off. These are strict EXPECT_EQ comparisons on
// doubles — any reduction-order change in the threaded kernels fails here.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "contact/penalty.hpp"
#include "core/geofem.hpp"
#include "dist/dist_solver.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "par/par.hpp"
#include "part/local_system.hpp"
#include "part/partition.hpp"
#include "plan/plan.hpp"

namespace gc = geofem::contact;
namespace gcore = geofem::core;
namespace gd = geofem::dist;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace gpar = geofem::par;
namespace gpart = geofem::part;
namespace gplan = geofem::plan;

namespace {

struct Problem {
  gm::HexMesh mesh;
  gf::System sys;

  explicit Problem(double lambda = 1e6, gm::SimpleBlockParams bp = {3, 3, 2, 3, 3}) {
    mesh = gm::simple_block(bp);
    sys = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
    gc::add_penalty(sys.a, mesh.contact_groups, lambda);
    gf::BoundaryConditions bc;
    bc.fix_nodes(mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
    const double zmax = mesh.bounding_box().hi[2];
    bc.surface_load(
        mesh, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);
    gf::apply_boundary_conditions(sys, bc);
  }
};

void expect_same_report(const gcore::SolveReport& a, const gcore::SolveReport& b,
                        const char* what) {
  EXPECT_EQ(a.cg.iterations, b.cg.iterations) << what;
  ASSERT_EQ(a.cg.residual_history.size(), b.cg.residual_history.size()) << what;
  for (std::size_t k = 0; k < a.cg.residual_history.size(); ++k)
    ASSERT_EQ(a.cg.residual_history[k], b.cg.residual_history[k])
        << what << ": residual " << k << " differs";
  ASSERT_EQ(a.solution.size(), b.solution.size()) << what;
  for (std::size_t i = 0; i < a.solution.size(); ++i)
    ASSERT_EQ(a.solution[i], b.solution[i]) << what << ": solution component " << i;
}

}  // namespace

// ---------------------------------------------------------------------------
// Serial solver: threads = 1, 2, 4 bit-identical for every preconditioner
// ---------------------------------------------------------------------------

class HybridSerial : public ::testing::TestWithParam<gcore::PrecondKind> {};

TEST_P(HybridSerial, ResidualHistoryBitIdenticalAcrossTeamSizes) {
  Problem pb;
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gcore::SolveConfig cfg;
  cfg.precond = GetParam();
  cfg.cg.tolerance = 1e-8;
  cfg.cg.record_residuals = true;
  cfg.use_plan_cache = false;  // isolate the kernels, not the cache

  cfg.threads = 1;
  const auto base = gcore::solve_system(pb.sys, sn, cfg);
  EXPECT_TRUE(base.converged());
  for (int t : {2, 4}) {
    cfg.threads = t;
    const auto rep = gcore::solve_system(pb.sys, sn, cfg);
    expect_same_report(base, rep, t == 2 ? "threads=2" : "threads=4");
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, HybridSerial,
                         ::testing::Values(gcore::PrecondKind::kBIC0, gcore::PrecondKind::kBIC1,
                                           gcore::PrecondKind::kSBBIC0,
                                           gcore::PrecondKind::kBlockDiagonal),
                         [](const auto& info) {
                           switch (info.param) {
                             case gcore::PrecondKind::kBIC0: return "BIC0";
                             case gcore::PrecondKind::kBIC1: return "BIC1";
                             case gcore::PrecondKind::kSBBIC0: return "SBBIC0";
                             case gcore::PrecondKind::kBlockDiagonal: return "BlockDiagonal";
                             default: return "other";
                           }
                         });

TEST(HybridSerial, PDJDSOrderingBitIdenticalAcrossTeamSizes) {
  Problem pb;
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kSBBIC0;
  cfg.ordering = gcore::OrderingKind::kPDJDSMC;
  cfg.colors = 4;
  cfg.npe = 2;
  cfg.cg.tolerance = 1e-8;
  cfg.cg.record_residuals = true;
  cfg.use_plan_cache = false;

  // kSingle pins the fp32-staged single-region sweeps alongside the fp64 ones.
  using geofem::precond::Precision;
  for (auto precision : {Precision::kDouble, Precision::kSingle}) {
    cfg.precision = precision;
    cfg.threads = 1;
    const auto base = gcore::solve_system(pb.sys, sn, cfg);
    EXPECT_TRUE(base.converged());
    EXPECT_EQ(base.precond.precision, precision);
    EXPECT_EQ(base.precision_fallbacks, 0);
    for (int t : {2, 4}) {
      cfg.threads = t;
      const auto rep = gcore::solve_system(pb.sys, sn, cfg);
      expect_same_report(base, rep,
                         precision == Precision::kSingle ? "PDJDS fp32" : "PDJDS");
    }
  }
}

// ---------------------------------------------------------------------------
// Distributed solver: 4 ranks × team sizes × overlap on/off, all bit-identical
// ---------------------------------------------------------------------------

TEST(HybridDist, FourRanksBitIdenticalAcrossTeamsAndOverlap) {
  Problem pb;
  auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  ASSERT_EQ(systems.size(), 4u);

  gplan::PlanConfig pcfg;
  pcfg.precond = gplan::PrecondKind::kSBBIC0;
  gplan::PlanCache cache(8);
  const auto factory = gd::make_plan_factory(cache, pcfg, pb.mesh.contact_groups);

  gd::DistOptions opt;
  opt.cg.tolerance = 1e-8;
  opt.cg.record_residuals = true;
  opt.telemetry = false;

  opt.threads = 1;
  opt.overlap = false;
  std::vector<double> x_base;
  const auto base = gd::solve_distributed(systems, factory, opt, &x_base);
  EXPECT_TRUE(base.converged());

  for (int t : {1, 2, 4}) {
    for (bool overlap : {false, true}) {
      if (t == 1 && !overlap) continue;  // the baseline itself
      opt.threads = t;
      opt.overlap = overlap;
      std::vector<double> x;
      const auto rep = gd::solve_distributed(systems, factory, opt, &x);
      SCOPED_TRACE(::testing::Message() << "threads=" << t << " overlap=" << overlap);
      EXPECT_EQ(rep.iterations, base.iterations);
      ASSERT_EQ(rep.residual_history.size(), base.residual_history.size());
      for (std::size_t k = 0; k < base.residual_history.size(); ++k)
        ASSERT_EQ(rep.residual_history[k], base.residual_history[k]) << "residual " << k;
      ASSERT_EQ(x.size(), x_base.size());
      for (std::size_t i = 0; i < x.size(); ++i)
        ASSERT_EQ(x[i], x_base[i]) << "solution component " << i;
    }
  }
}

TEST(HybridDist, MatchesSerialSolutionWithOverlap) {
  // The overlapped distributed solve must still agree with the serial solver
  // on the assembled solution to solver tolerance (not bitwise — different
  // preconditioner: localized per-rank vs global).
  Problem pb;
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gcore::SolveConfig scfg;
  scfg.precond = gcore::PrecondKind::kSBBIC0;
  scfg.cg.tolerance = 1e-10;
  scfg.use_plan_cache = false;
  const auto serial = gcore::solve_system(pb.sys, sn, scfg);
  ASSERT_TRUE(serial.converged());

  auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  gplan::PlanConfig pcfg;
  pcfg.precond = gplan::PrecondKind::kSBBIC0;
  gplan::PlanCache cache(8);
  const auto factory = gd::make_plan_factory(cache, pcfg, pb.mesh.contact_groups);
  gd::DistOptions opt;
  opt.cg.tolerance = 1e-10;
  opt.threads = 2;
  opt.overlap = true;
  std::vector<double> x;
  const auto rep = gd::solve_distributed(systems, factory, opt, &x);
  ASSERT_TRUE(rep.converged());
  ASSERT_EQ(x.size(), serial.solution.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    num += (x[i] - serial.solution[i]) * (x[i] - serial.solution[i]);
    den += serial.solution[i] * serial.solution[i];
  }
  EXPECT_LT(std::sqrt(num / den), 1e-6);
}

// ---------------------------------------------------------------------------
// par primitives
// ---------------------------------------------------------------------------

TEST(ParPrimitives, StaticRangeCoversOnce) {
  for (std::size_t n : {0u, 1u, 7u, 100u, 1001u}) {
    for (int parts : {1, 2, 3, 8}) {
      std::vector<int> hit(n, 0);
      for (int p = 0; p < parts; ++p) {
        const auto r = gpar::static_range(n, parts, p);
        ASSERT_LE(r.begin, r.end);
        for (std::size_t i = r.begin; i < r.end; ++i) ++hit[i];
      }
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hit[i], 1) << "n=" << n << " parts=" << parts;
    }
  }
}

TEST(ParPrimitives, CombineShapeDependsOnlyOnLength) {
  // Summing the same partials must give the same bits regardless of how many
  // threads produced them — combine's tree shape is a function of the count.
  std::vector<double> partials;
  for (int i = 0; i < 37; ++i) partials.push_back(std::sin(0.1 * i) * 1e3);
  const double once = gpar::combine(partials.data(), partials.size());
  for (int rep = 0; rep < 4; ++rep)
    EXPECT_EQ(gpar::combine(partials.data(), partials.size()), once);
  // and differs from a plain left-to-right sum in general (sanity that the
  // tree is actually pairwise, not accidentally sequential)
  double seq = 0.0;
  for (double v : partials) seq += v;
  EXPECT_NEAR(seq, once, 1e-9 * std::abs(seq));
}

TEST(ParPrimitives, TeamScopeNestsAndRestores) {
  const int outer = gpar::threads();
  {
    gpar::TeamScope a(3);
    EXPECT_EQ(gpar::threads(), 3);
    {
      gpar::TeamScope b(1);
      EXPECT_EQ(gpar::threads(), 1);
    }
    EXPECT_EQ(gpar::threads(), 3);
  }
  EXPECT_EQ(gpar::threads(), outer);
}

TEST(ParPrimitives, RowSplitPartitionsInternalRows) {
  Problem pb;
  auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  for (const auto& ls : systems) {
    const auto split = ls.row_split();
    std::vector<int> seen(static_cast<std::size_t>(ls.num_internal), 0);
    for (int i : split.interior) ++seen[static_cast<std::size_t>(i)];
    for (int i : split.boundary) ++seen[static_cast<std::size_t>(i)];
    for (int i = 0; i < ls.num_internal; ++i)
      ASSERT_EQ(seen[static_cast<std::size_t>(i)], 1) << "row " << i << " rank " << ls.domain;
    for (int i : split.interior)
      for (int e = ls.a.rowptr[i]; e < ls.a.rowptr[i + 1]; ++e)
        ASSERT_LT(ls.a.colind[e], ls.num_internal) << "interior row reads an external column";
    for (int i : split.boundary) {
      bool external = false;
      for (int e = ls.a.rowptr[i]; e < ls.a.rowptr[i + 1]; ++e)
        external = external || ls.a.colind[e] >= ls.num_internal;
      ASSERT_TRUE(external) << "boundary row " << i << " has no external column";
    }
  }
}
