// Batched multi-RHS path suite (ctest label `batch`, DESIGN.md §5k):
// SpMM/multi-vector kernels vs their single-RHS references, multi-column
// preconditioner application, the batched CG driver (batch-of-1 bitwise
// identity, per-column convergence masking, compaction), the batched
// core/dist entry points, and service-level request coalescing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <optional>
#include <string>
#include <stdexcept>
#include <vector>

#include "contact/penalty.hpp"
#include "core/geofem.hpp"
#include "dist/dist_solver.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "obs/registry.hpp"
#include "par/par.hpp"
#include "part/local_system.hpp"
#include "part/partition.hpp"
#include "plan/cache.hpp"
#include "precond/bic.hpp"
#include "precond/diagonal.hpp"
#include "precond/sb_bic0.hpp"
#include "reorder/coloring.hpp"
#include "reorder/djds.hpp"
#include "solver/batch.hpp"
#include "solver/cg.hpp"
#include "sparse/multivec.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace gc = geofem::contact;
namespace gcore = geofem::core;
namespace gd = geofem::dist;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace gpar = geofem::par;
namespace gpart = geofem::part;
namespace gp = geofem::precond;
namespace gr = geofem::reorder;
namespace gso = geofem::solver;
namespace gsp = geofem::sparse;
namespace gsvc = geofem::svc;
namespace gutil = geofem::util;

namespace {

/// Tiny contact problem (penalty-tied groups, fixed bottom, loaded top) —
/// same shape the precond/solver suites use.
struct ContactProblem {
  gm::HexMesh mesh;
  gf::System sys;
  gc::Supernodes supers;

  explicit ContactProblem(double lambda = 1e4, gm::SimpleBlockParams p = {3, 3, 2, 3, 3}) {
    mesh = gm::simple_block(p);
    sys = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
    gc::add_penalty(sys.a, mesh.contact_groups, lambda);
    gf::apply_boundary_conditions(sys, make_bc(mesh));
    supers = gc::build_supernodes(mesh.num_nodes(), mesh.contact_groups);
  }

  static gf::BoundaryConditions make_bc(const gm::HexMesh& m) {
    gf::BoundaryConditions bc;
    bc.fix_nodes(m.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
    const double zmax = m.bounding_box().hi[2];
    bc.surface_load(
        m, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);
    return bc;
  }
};

/// value(dof i, col c) = out[i*k + c]
std::vector<double> interleave(const std::vector<std::vector<double>>& cols) {
  const std::size_t k = cols.size();
  const std::size_t n = cols[0].size();
  std::vector<double> out(n * k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < k; ++c) out[i * k + c] = cols[c][i];
  return out;
}

std::vector<double> column(const std::vector<double>& x, std::size_t n, int k, int c) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i * static_cast<std::size_t>(k) + c];
  return out;
}

std::vector<double> random_vector(std::size_t n, gutil::Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

double max_abs(const std::vector<double>& a) {
  double m = 0.0;
  for (double x : a) m = std::max(m, std::abs(x));
  return m;
}

/// ||b - A x||_2 / ||b||_2 on the CSR matrix (true residual, not recurrence).
double true_residual(const gsp::BlockCSR& a, const std::vector<double>& b,
                     const std::vector<double>& x) {
  std::vector<double> ax(x.size());
  a.spmv(x, ax, nullptr, nullptr);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    num += (b[i] - ax[i]) * (b[i] - ax[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num / den);
}

gsvc::ServiceOptions batch_service(int workers, int max_batch, double window) {
  gsvc::ServiceOptions opt;
  opt.workers = workers;
  opt.queue_capacity = 256;
  opt.solve.precond = gcore::PrecondKind::kSBBIC0;
  opt.solve.cg.tolerance = 1e-8;
  opt.max_batch = max_batch;
  opt.batch_window = window;
  return opt;
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernels: SpMM and the multi-vector BLAS-1 grid
// ---------------------------------------------------------------------------

TEST(BatchKernels, CsrSpmmMatchesSequentialSpmv) {
  ContactProblem pb;
  const std::size_t n = pb.sys.a.ndof();
  gutil::Rng rng(42);
  for (int k : {1, 2, 3, 4, 8}) {
    std::vector<std::vector<double>> cols;
    for (int c = 0; c < k; ++c) cols.push_back(random_vector(n, rng));
    const std::vector<double> xi = interleave(cols);
    std::vector<double> yi(n * static_cast<std::size_t>(k));
    pb.sys.a.spmm(xi, yi, k, nullptr, nullptr);
    for (int c = 0; c < k; ++c) {
      std::vector<double> y(n);
      pb.sys.a.spmv(cols[static_cast<std::size_t>(c)], y, nullptr, nullptr);
      const std::vector<double> ym = column(yi, n, k, c);
      // same per-column sums, possibly different rounding (AVX2 lane tier)
      EXPECT_LT(max_abs_diff(ym, y), 1e-12 * std::max(1.0, max_abs(y)))
          << "k=" << k << " col=" << c;
    }
  }
}

TEST(BatchKernels, DjdsSpmmMatchesSequentialSpmv) {
  ContactProblem pb;
  const auto g = gsp::graph_of(pb.sys.a);
  const auto q = gr::quotient_graph(g, pb.supers.node_to_super, pb.supers.count());
  const gr::Coloring coloring =
      gr::lift_coloring(gr::multicolor(q, 10), pb.supers.node_to_super, pb.sys.a.n);
  gr::DJDSMatrix dj(pb.sys.a, coloring, &pb.supers, {});
  const std::size_t n = pb.sys.a.ndof();
  gutil::Rng rng(43);
  for (int k : {2, 4, 8}) {
    std::vector<std::vector<double>> cols;  // permuted (DJDS) vector space
    for (int c = 0; c < k; ++c) cols.push_back(random_vector(n, rng));
    const std::vector<double> xi = interleave(cols);
    std::vector<double> yi(n * static_cast<std::size_t>(k));
    dj.spmm(xi, yi, k, nullptr, nullptr);
    for (int c = 0; c < k; ++c) {
      std::vector<double> y(n);
      dj.spmv(cols[static_cast<std::size_t>(c)], y, nullptr, nullptr);
      const std::vector<double> ym = column(yi, n, k, c);
      EXPECT_LT(max_abs_diff(ym, y), 1e-12 * std::max(1.0, max_abs(y)))
          << "k=" << k << " col=" << c;
    }
  }
}

TEST(BatchKernels, DotMultiBitIdenticalAcrossTeamsAndWidth) {
  // n deliberately not a multiple of the reduction chunk
  const std::size_t n = 3001;
  const int k = 3;
  gutil::Rng rng(7);
  std::vector<std::vector<double>> xc, yc;
  for (int c = 0; c < k; ++c) {
    xc.push_back(random_vector(n, rng));
    yc.push_back(random_vector(n, rng));
  }
  const std::vector<double> xi = interleave(xc), yi = interleave(yc);
  double ref[3];
  {
    gpar::TeamScope scope(1);
    gsp::dot_multi(xi.data(), yi.data(), n, k, ref);
  }
  for (int team : {2, 4}) {
    gpar::TeamScope scope(team);
    double out[3];
    gsp::dot_multi(xi.data(), yi.data(), n, k, out);
    for (int c = 0; c < k; ++c) EXPECT_EQ(out[c], ref[c]) << "team=" << team << " col=" << c;
  }
  // per-column result is independent of the batch width: a k=1 dot of the
  // gathered column lands on the same chunk grid and combine tree
  for (int c = 0; c < k; ++c) {
    double one;
    gsp::dot_multi(xc[static_cast<std::size_t>(c)].data(), yc[static_cast<std::size_t>(c)].data(),
                   n, 1, &one);
    EXPECT_EQ(one, ref[c]) << "col=" << c;
  }
}

TEST(BatchKernels, CompactColumnsAndGatherScatterRoundTrip) {
  const std::size_t n = 5;
  const int k_old = 4;
  std::vector<double> x(n * k_old);
  for (std::size_t i = 0; i < n; ++i)
    for (int c = 0; c < k_old; ++c) x[i * k_old + c] = 10.0 * static_cast<double>(i) + c;
  // gather/scatter round trip
  std::vector<double> col(n);
  gsp::gather_column(x.data(), n, k_old, 2, col.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(col[i], 10.0 * static_cast<double>(i) + 2.0);
  gsp::scatter_column(col.data(), n, k_old, 2, x.data());
  // in-place compaction keeps the surviving columns exactly
  const std::vector<int> keep = {0, 2, 3};
  gsp::compact_columns(x.data(), n, k_old, keep.data(), static_cast<int>(keep.size()));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < keep.size(); ++j)
      EXPECT_EQ(x[i * keep.size() + j],
                10.0 * static_cast<double>(i) + static_cast<double>(keep[j]));
}

// ---------------------------------------------------------------------------
// Preconditioners: apply_multi vs per-column apply
// ---------------------------------------------------------------------------

TEST(BatchPrecond, ApplyMultiMatchesApplyPerColumn) {
  ContactProblem pb;
  const std::size_t n = pb.sys.a.ndof();
  const int k = 3;
  gutil::Rng rng(11);
  std::vector<std::vector<double>> rc;
  for (int c = 0; c < k; ++c) rc.push_back(random_vector(n, rng));
  const std::vector<double> ri = interleave(rc);
  const gcore::PrecondKind kinds[] = {
      gcore::PrecondKind::kDiagonal, gcore::PrecondKind::kBlockDiagonal,
      gcore::PrecondKind::kScalarIC0, gcore::PrecondKind::kBIC0,
      gcore::PrecondKind::kBIC1,     gcore::PrecondKind::kSBBIC0};
  for (const auto kind : kinds) {
    const auto m = gcore::make_preconditioner(kind, pb.sys.a, pb.supers);
    std::vector<double> zi(n * static_cast<std::size_t>(k));
    m->apply_multi(ri, zi, k);
    for (int c = 0; c < k; ++c) {
      std::vector<double> z(n);
      m->apply(rc[static_cast<std::size_t>(c)], z);
      const std::vector<double> zm = column(zi, n, k, c);
      // columns stay independent; overrides may round per the multi kernels
      EXPECT_LT(max_abs_diff(zm, z), 1e-12 * std::max(1.0, max_abs(z)))
          << gcore::to_string(kind) << " col=" << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Batched CG driver
// ---------------------------------------------------------------------------

TEST(BatchSolver, BatchOfOneBitIdenticalToPcg) {
  ContactProblem pb;
  const std::size_t n = pb.sys.a.ndof();
  const gcore::PrecondKind kinds[] = {gcore::PrecondKind::kDiagonal,
                                      gcore::PrecondKind::kBlockDiagonal,
                                      gcore::PrecondKind::kBIC0, gcore::PrecondKind::kSBBIC0};
  for (const auto kind : kinds) {
    const auto m = gcore::make_preconditioner(kind, pb.sys.a, pb.supers);
    for (int threads : {1, 2, 4}) {
      gpar::TeamScope scope(threads);
      gso::CGOptions copt;
      copt.tolerance = 1e-8;
      copt.record_residuals = true;
      std::vector<double> x_ref(n, 0.0);
      const gso::CGResult ref = gso::pcg(pb.sys.a, *m, pb.sys.b, x_ref, copt);

      gso::BatchedCGOptions bopt;
      bopt.cg = copt;
      std::vector<double> x(n, 0.0);
      const gso::BatchedCGResult res = gso::pcg_batched(pb.sys.a, *m, pb.sys.b, x, 1, bopt);
      ASSERT_EQ(res.columns.size(), 1u);
      const gso::CGResult& c0 = res.columns[0];
      EXPECT_EQ(c0.status, ref.status) << gcore::to_string(kind) << " t=" << threads;
      EXPECT_EQ(c0.iterations, ref.iterations);
      EXPECT_EQ(c0.relative_residual, ref.relative_residual);
      ASSERT_EQ(c0.residual_history.size(), ref.residual_history.size());
      for (std::size_t i = 0; i < ref.residual_history.size(); ++i)
        ASSERT_EQ(c0.residual_history[i], ref.residual_history[i]) << "it " << i;
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(x[i], x_ref[i]) << gcore::to_string(kind) << " t=" << threads << " dof " << i;
    }
  }
}

TEST(BatchSolver, MultiColumnMatchesIndividualSolvesToTolerance) {
  ContactProblem pb;
  const std::size_t n = pb.sys.a.ndof();
  const auto m = gcore::make_preconditioner(gcore::PrecondKind::kSBBIC0, pb.sys.a, pb.supers);
  const double scales[] = {1.0, 2.0, 0.5};
  std::vector<std::vector<double>> cols;
  for (double s : scales) {
    cols.push_back(pb.sys.b);
    for (auto& v : cols.back()) v *= s;
  }
  const int k = static_cast<int>(cols.size());
  gso::BatchedCGOptions bopt;
  bopt.cg.tolerance = 1e-8;
  bopt.cg.record_residuals = true;
  const std::vector<double> bi = interleave(cols);
  std::vector<double> xi(n * static_cast<std::size_t>(k), 0.0);
  const gso::BatchedCGResult res = gso::pcg_batched(pb.sys.a, *m, bi, xi, k, bopt);
  ASSERT_EQ(res.columns.size(), static_cast<std::size_t>(k));
  EXPECT_TRUE(res.all_converged());
  for (int c = 0; c < k; ++c) {
    const std::vector<double> xc = column(xi, n, k, c);
    EXPECT_LE(res.columns[static_cast<std::size_t>(c)].relative_residual, 1e-8);
    EXPECT_LT(true_residual(pb.sys.a, cols[static_cast<std::size_t>(c)], xc), 5e-7);
    // cross-check against the plain single-RHS solve
    std::vector<double> x_ref(n, 0.0);
    gso::pcg(pb.sys.a, *m, cols[static_cast<std::size_t>(c)], x_ref, bopt.cg);
    EXPECT_LT(max_abs_diff(xc, x_ref), 1e-6 * std::max(1.0, max_abs(x_ref))) << "col " << c;
  }
  EXPECT_GT(res.iterations, 0);
  EXPECT_GT(res.flops.total(), 0u);
}

TEST(BatchSolver, MixedOutcomesPerColumn) {
  ContactProblem pb;
  const std::size_t n = pb.sys.a.ndof();
  const auto m = gcore::make_preconditioner(gcore::PrecondKind::kSBBIC0, pb.sys.a, pb.supers);
  // probe: iterations a loose solve needs
  gso::CGOptions probe;
  probe.tolerance = 1e-2;
  std::vector<double> xp(n, 0.0);
  const int loose_iters = gso::pcg(pb.sys.a, *m, pb.sys.b, xp, probe).iterations;

  gso::BatchedCGOptions bopt;
  bopt.cg.max_iterations = loose_iters + 2;  // enough for 1e-2, hopeless for 1e-13
  bopt.tolerances = {1e-2, 1e-13};
  const std::vector<double> bi = interleave({pb.sys.b, pb.sys.b});
  std::vector<double> xi(n * 2, 0.0);
  const gso::BatchedCGResult res = gso::pcg_batched(pb.sys.a, *m, bi, xi, 2, bopt);
  EXPECT_EQ(res.columns[0].status, geofem::SolveStatus::kConverged);
  EXPECT_LE(res.columns[0].relative_residual, 1e-2);
  EXPECT_LT(res.columns[0].iterations, bopt.cg.max_iterations);
  EXPECT_EQ(res.columns[1].status, geofem::SolveStatus::kMaxIterations);
  EXPECT_EQ(res.columns[1].iterations, bopt.cg.max_iterations);
  EXPECT_EQ(res.iterations, bopt.cg.max_iterations);
  EXPECT_FALSE(res.all_converged());
  // the frozen loose column still carries its solution at freeze time
  EXPECT_LT(true_residual(pb.sys.a, pb.sys.b, column(xi, n, 2, 0)), 1e-1);
}

TEST(BatchSolver, CompactionTriggersAndPreservesResults) {
  ContactProblem pb;
  const std::size_t n = pb.sys.a.ndof();
  const auto m = gcore::make_preconditioner(gcore::PrecondKind::kSBBIC0, pb.sys.a, pb.supers);
  const int k = 6;
  std::vector<std::vector<double>> cols(static_cast<std::size_t>(k), pb.sys.b);
  gso::BatchedCGOptions bopt;
  // spread freeze points so the working batch shrinks in steps
  bopt.tolerances = {1e-2, 1e-3, 1e-5, 1e-7, 1e-8, 1e-9};
  const std::vector<double> bi = interleave(cols);
  std::vector<double> xi(n * static_cast<std::size_t>(k), 0.0);
  const gso::BatchedCGResult res = gso::pcg_batched(pb.sys.a, *m, bi, xi, k, bopt);
  EXPECT_TRUE(res.all_converged());
  EXPECT_GE(res.compactions, 1);
  for (int c = 0; c < k; ++c) {
    EXPECT_LE(res.columns[static_cast<std::size_t>(c)].relative_residual,
              bopt.tolerances[static_cast<std::size_t>(c)]);
    EXPECT_LT(true_residual(pb.sys.a, pb.sys.b, column(xi, n, k, c)),
              50.0 * bopt.tolerances[static_cast<std::size_t>(c)]);
  }
  // earlier-freezing columns must not have burnt the full budget
  EXPECT_LT(res.columns[0].iterations, res.columns[5].iterations);
}

TEST(BatchSolver, ContractViolationsThrow) {
  ContactProblem pb;
  const std::size_t n = pb.sys.a.ndof();
  const auto m = gcore::make_preconditioner(gcore::PrecondKind::kDiagonal, pb.sys.a, pb.supers);
  // zero RHS column
  {
    const std::vector<double> bi = interleave({pb.sys.b, std::vector<double>(n, 0.0)});
    std::vector<double> xi(n * 2, 0.0);
    EXPECT_THROW(gso::pcg_batched(pb.sys.a, *m, bi, xi, 2, {}), std::logic_error);
  }
}

TEST(BatchSolver, GroppAndPipelinedColumnsMatchSoloSolves) {
  ContactProblem pb;
  const std::size_t n = pb.sys.a.ndof();
  const auto m = gcore::make_preconditioner(gcore::PrecondKind::kSBBIC0, pb.sys.a, pb.supers);
  // three distinct loads: b, 2b and b with a one-dof perturbation
  std::vector<std::vector<double>> cols{pb.sys.b, pb.sys.b, pb.sys.b};
  for (auto& v : cols[1]) v *= 2.0;
  cols[2][n / 2] += 0.5 * max_abs(pb.sys.b);
  const int k = 3;
  for (const auto variant : {gso::CGVariant::kGropp, gso::CGVariant::kPipelined}) {
    gso::BatchedCGOptions bopt;
    bopt.cg.tolerance = 1e-8;
    bopt.cg.variant = variant;
    const std::vector<double> bi = interleave(cols);
    std::vector<double> xi(n * k, 0.0);
    const gso::BatchedCGResult res = gso::pcg_batched(pb.sys.a, *m, bi, xi, k, bopt);
    ASSERT_EQ(res.columns.size(), 3u);
    for (int c = 0; c < k; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      const std::vector<double> xc = column(xi, n, k, c);
      EXPECT_TRUE(res.columns[cc].converged()) << gso::to_string(variant) << " col " << c;
      EXPECT_LE(true_residual(pb.sys.a, cols[cc], xc), 1e-8) << gso::to_string(variant);
      std::vector<double> x_ref(n, 0.0);
      const gso::CGResult ref = gso::pcg(pb.sys.a, *m, cols[cc], x_ref, bopt.cg);
      EXPECT_EQ(res.columns[cc].status, ref.status) << gso::to_string(variant) << " col " << c;
      EXPECT_LT(max_abs_diff(xc, x_ref), 1e-6 * std::max(1.0, max_abs(x_ref)))
          << gso::to_string(variant) << " col " << c;
    }
  }
}

TEST(BatchSolver, StagnatingColumnFreezesWithoutDisturbingSiblings) {
  // BIC(0) at lambda 1e4 reaches 1e-2 in ~110 iterations, then stalls around
  // 1e-6: with a window of 100 a 1e-8 column stagnates while 1e-2 columns
  // converge. Every variant's stalled column must end as its solo solve does
  // (for Gropp/pipelined: after its own kClassic retry).
  ContactProblem pb(1e4, {4, 4, 3, 4, 4});
  const std::size_t n = pb.sys.a.ndof();
  const auto m = gcore::make_preconditioner(gcore::PrecondKind::kBIC0, pb.sys.a, pb.supers);
  std::vector<double> b2 = pb.sys.b;
  for (auto& v : b2) v *= 2.0;
  const std::vector<double> bi = interleave({pb.sys.b, b2, pb.sys.b});
  const int k = 3;
  for (const auto variant : {gso::CGVariant::kClassic, gso::CGVariant::kGropp,
                             gso::CGVariant::kPipelined}) {
    gso::BatchedCGOptions bopt;
    bopt.cg.variant = variant;
    bopt.cg.stagnation_window = 100;
    bopt.cg.max_iterations = 3000;
    bopt.cg.record_residuals = true;
    // the reference batch: the same three columns, all at the loose tolerance
    bopt.tolerances = {1e-2, 1e-2, 1e-2};
    std::vector<double> xr(n * k, 0.0);
    const gso::BatchedCGResult ref = gso::pcg_batched(pb.sys.a, *m, bi, xr, k, bopt);
    bopt.tolerances = {1e-2, 1e-2, 1e-8};
    std::vector<double> xi(n * k, 0.0);
    const gso::BatchedCGResult res = gso::pcg_batched(pb.sys.a, *m, bi, xi, k, bopt);

    gso::CGOptions solo = bopt.cg;
    solo.tolerance = 1e-8;
    std::vector<double> xs(n, 0.0);
    const gso::CGResult stalled = gso::pcg(pb.sys.a, *m, pb.sys.b, xs, solo);
    ASSERT_EQ(stalled.status, variant == gso::CGVariant::kClassic
                                  ? geofem::SolveStatus::kStagnated
                                  : stalled.status);
    ASSERT_FALSE(stalled.converged()) << gso::to_string(variant);
    EXPECT_EQ(res.columns[2].status, stalled.status) << gso::to_string(variant);
    EXPECT_EQ(res.columns[2].variant_fallbacks, stalled.variant_fallbacks);
    EXPECT_EQ(res.columns[2].variant_fallbacks, variant == gso::CGVariant::kClassic ? 0 : 1);
    // the siblings ran the same interleaved width either way: bitwise equal
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(res.columns[c].status, geofem::SolveStatus::kConverged);
      EXPECT_EQ(res.columns[c].variant_fallbacks, 0);
      EXPECT_EQ(res.columns[c].residual_history, ref.columns[c].residual_history)
          << gso::to_string(variant) << " col " << c;
      EXPECT_EQ(column(xi, n, k, static_cast<int>(c)), column(xr, n, k, static_cast<int>(c)));
    }
  }
}

// ---------------------------------------------------------------------------
// core::solve_system_batched
// ---------------------------------------------------------------------------

TEST(BatchCore, BatchOfOneBitIdenticalToSolveSystem) {
  ContactProblem pb;
  struct Case {
    gcore::OrderingKind ordering;
    gp::Precision precision;
  };
  const Case cases[] = {{gcore::OrderingKind::kNatural, gp::Precision::kDouble},
                        {gcore::OrderingKind::kNatural, gp::Precision::kSingle},
                        {gcore::OrderingKind::kPDJDSMC, gp::Precision::kDouble}};
  for (const Case& c : cases) {
    gcore::SolveConfig cfg;
    cfg.precond = gcore::PrecondKind::kSBBIC0;
    cfg.ordering = c.ordering;
    cfg.precision = c.precision;
    cfg.cg.tolerance = 1e-8;
    cfg.cg.record_residuals = true;
    cfg.use_plan_cache = false;
    const gcore::SolveReport ref = gcore::solve_system(pb.sys, pb.supers, cfg);
    const auto reports = gcore::solve_system_batched(pb.sys, pb.supers, cfg, {pb.sys.b});
    ASSERT_EQ(reports.size(), 1u);
    const gcore::SolveReport& r = reports[0];
    EXPECT_EQ(r.status, ref.status);
    EXPECT_EQ(r.cg.iterations, ref.cg.iterations);
    EXPECT_EQ(r.cg.relative_residual, ref.cg.relative_residual);
    ASSERT_EQ(r.cg.residual_history.size(), ref.cg.residual_history.size());
    for (std::size_t i = 0; i < ref.cg.residual_history.size(); ++i)
      ASSERT_EQ(r.cg.residual_history[i], ref.cg.residual_history[i]);
    ASSERT_EQ(r.solution.size(), ref.solution.size());
    for (std::size_t i = 0; i < ref.solution.size(); ++i)
      ASSERT_EQ(r.solution[i], ref.solution[i]) << "dof " << i;
  }
}

TEST(BatchCore, MultiColumnSharesSetupAndMatchesSeparateSolves) {
  ContactProblem pb;
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kSBBIC0;
  cfg.cg.tolerance = 1e-8;
  cfg.use_plan_cache = false;
  std::vector<double> b2 = pb.sys.b;
  for (auto& v : b2) v *= 2.0;
  const auto reports = gcore::solve_system_batched(pb.sys, pb.supers, cfg, {pb.sys.b, b2});
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& r : reports) ASSERT_TRUE(ok(r.status));
  // shared set-up bookkeeping replicated into every column's report
  EXPECT_EQ(reports[0].plan_reused, reports[1].plan_reused);
  EXPECT_EQ(reports[0].setup_seconds, reports[1].setup_seconds);
  EXPECT_EQ(reports[0].precond_name, reports[1].precond_name);
  EXPECT_EQ(reports[0].cg.solve_seconds, reports[1].cg.solve_seconds);  // batch wall time
  // scaling a RHS by a power of two scales the whole trajectory exactly
  EXPECT_EQ(reports[0].cg.iterations, reports[1].cg.iterations);
  double err = 0.0;
  for (std::size_t i = 0; i < reports[0].solution.size(); ++i)
    err = std::max(err, std::abs(reports[1].solution[i] - 2.0 * reports[0].solution[i]));
  EXPECT_LT(err, 1e-12 * std::max(1.0, max_abs(reports[0].solution)));
  // ... and each column matches its own single solve to solver tolerance
  for (int c = 0; c < 2; ++c) {
    const gf::System one{pb.sys.a, c == 0 ? pb.sys.b : b2};
    const gcore::SolveReport ref = gcore::solve_system(one, pb.supers, cfg);
    EXPECT_LT(max_abs_diff(reports[static_cast<std::size_t>(c)].solution, ref.solution),
              1e-6 * std::max(1.0, max_abs(ref.solution)))
        << "col " << c;
  }
}

TEST(BatchCore, ResilientColumnsMatchSoloLadders) {
  // The Fallback.StagnatedBIC0RecoversViaSBBIC0 fixture: BIC(0) stagnates at
  // lambda 1e12 and SB-BIC(0) recovers. Both columns walk the ladder in one
  // batch, each ending where its solo resilient solve ends.
  ContactProblem pb(1e12, {4, 4, 3, 4, 4});
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC0;
  cfg.cg.max_iterations = 2000;
  cfg.resilience.enabled = true;
  cfg.resilience.stagnation_window = 100;
  std::vector<double> b2 = pb.sys.b;
  for (auto& v : b2) v *= 2.0;
  const auto reports = gcore::solve_system_batched(pb.sys, pb.supers, cfg, {pb.sys.b, b2});
  ASSERT_EQ(reports.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    const gf::System one{pb.sys.a, c == 0 ? pb.sys.b : b2};
    const gcore::SolveReport solo = gcore::solve_system(one, pb.supers, cfg);
    ASSERT_EQ(solo.status, geofem::SolveStatus::kFellBack);
    EXPECT_EQ(reports[c].status, solo.status) << "col " << c;
    EXPECT_EQ(reports[c].attempts, solo.attempts) << "col " << c;
    EXPECT_EQ(reports[c].precision_fallbacks, solo.precision_fallbacks) << "col " << c;
    EXPECT_GT(reports[c].fallback_iterations, 0);
    EXPECT_LE(reports[c].cg.relative_residual, cfg.cg.tolerance);
    // lambda 1e12 leaves ||b - Ax|| far above the recurrence residual for
    // any trajectory; the batch's must be as small as the solo solve's
    EXPECT_LT(true_residual(pb.sys.a, one.b, reports[c].solution),
              2.0 * true_residual(pb.sys.a, one.b, solo.solution))
        << "col " << c;
  }
}

TEST(BatchCore, OnlyTheFailingColumnWalksTheNextRung) {
  // BIC(0) reaches 1e-2 within a tight budget but not 1e-13: the tight
  // column alone falls back to SB-BIC(0); the loose one keeps its primary.
  ContactProblem pb(1e4, {4, 4, 3, 4, 4});
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC0;
  cfg.cg.max_iterations = 150;
  cfg.resilience.enabled = true;
  geofem::obs::Registry reg;
  cfg.registry = &reg;
  const auto reports =
      gcore::solve_system_batched(pb.sys, pb.supers, cfg, {pb.sys.b, pb.sys.b}, {1e-2, 1e-13});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].status, geofem::SolveStatus::kConverged);
  EXPECT_EQ(reports[0].attempts, std::vector<gcore::PrecondKind>{gcore::PrecondKind::kBIC0});
  EXPECT_EQ(reports[0].fallback_iterations, 0);
  EXPECT_LE(reports[0].cg.relative_residual, 1e-2);
  EXPECT_EQ(reports[1].status, geofem::SolveStatus::kFellBack);
  EXPECT_EQ(reports[1].attempts, (std::vector<gcore::PrecondKind>{gcore::PrecondKind::kBIC0,
                                                                  gcore::PrecondKind::kSBBIC0}));
  EXPECT_EQ(reports[1].fallback_iterations, cfg.cg.max_iterations);
  EXPECT_LE(reports[1].cg.relative_residual, 1e-13);
  // one failed attempt, one recovery: the rung ran for the tight column only
  const auto snap = reg.snapshot();
  ASSERT_NE(snap.counter("core.fallback.attempts"), nullptr);
  EXPECT_EQ(*snap.counter("core.fallback.attempts"), 1u);
  ASSERT_NE(snap.counter("core.fallback.recovered"), nullptr);
  EXPECT_EQ(*snap.counter("core.fallback.recovered"), 1u);
}

TEST(BatchCore, Fp32BatchTakesOneFp64Resetup) {
  // The PrecisionSolve.Fp32StagnationTriggersExactlyOneFp64Resetup fixture
  // with two columns: both fp32 columns stagnate, and ONE fp64 re-set-up
  // serves them both, reproducing the direct fp64 batch bit for bit.
  ContactProblem pb(1e12, {4, 4, 3, 4, 4});
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC0;
  cfg.cg.max_iterations = 400;
  cfg.cg.record_residuals = true;
  cfg.resilience.stagnation_window = 100;  // arms only the fp32 attempt
  std::vector<double> b2 = pb.sys.b;
  for (auto& v : b2) v *= 2.0;
  geofem::plan::PlanCache cache(8, 1);
  cfg.plan_cache = &cache;
  const auto r64 = gcore::solve_system_batched(pb.sys, pb.supers, cfg, {pb.sys.b, b2});
  cfg.precision = gp::Precision::kSingle;
  geofem::plan::PlanCache cache32(8, 1);
  cfg.plan_cache = &cache32;
  const auto r32 = gcore::solve_system_batched(pb.sys, pb.supers, cfg, {pb.sys.b, b2});
  ASSERT_EQ(r32.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(r32[c].precision_fallbacks, 1) << "col " << c;
    EXPECT_GT(r32[c].fallback_iterations, 0);
    EXPECT_LT(r32[c].fallback_iterations, cfg.cg.max_iterations);
    EXPECT_EQ(r32[c].attempts.size(), 1u);
    EXPECT_EQ(r32[c].status, r64[c].status);
    EXPECT_EQ(r32[c].cg.residual_history, r64[c].cg.residual_history) << "col " << c;
    EXPECT_EQ(r32[c].solution, r64[c].solution) << "col " << c;
  }
  // two set-ups in all: the fp32 primary and one fp64 re-set-up
  const geofem::plan::CacheStats st = cache32.stats();
  EXPECT_EQ(st.hits + st.misses, 2u);
}

TEST(BatchCore, MultiBcColumnsBitwiseMatchScaledSinglePath) {
  gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  const gf::BoundaryConditions bc = ContactProblem::make_bc(mesh);
  auto assembled = [&] {
    gf::System s = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
    gc::add_penalty(s.a, mesh.contact_groups, 1e4);
    return s;
  };
  gf::System multi = assembled();
  const std::vector<double> b_before = multi.b;
  const std::vector<double> scales = {1.0, 2.0, 0.5};
  const auto cols = gf::apply_boundary_conditions_multi(multi, bc, scales);
  ASSERT_EQ(cols.size(), scales.size());
  EXPECT_EQ(multi.b, b_before);  // per-column RHS live in the return value
  for (std::size_t c = 0; c < scales.size(); ++c) {
    gf::System single = assembled();
    gf::BoundaryConditions scaled = bc;
    for (auto& l : scaled.loads) l.value *= scales[c];
    gf::apply_boundary_conditions(single, scaled);
    ASSERT_EQ(cols[c].size(), single.b.size());
    for (std::size_t i = 0; i < single.b.size(); ++i)
      ASSERT_EQ(cols[c][i], single.b[i]) << "col " << c << " dof " << i;
    // the one shared elimination sweep leaves the matrix exactly as the
    // single path would (scales only touch b)
    ASSERT_EQ(multi.a.val.size(), single.a.val.size());
    for (std::size_t v = 0; v < single.a.val.size(); ++v)
      ASSERT_EQ(multi.a.val[v], single.a.val[v]);
  }
}

// ---------------------------------------------------------------------------
// dist::solve_distributed_batched
// ---------------------------------------------------------------------------

TEST(BatchDist, BatchOfOneBitIdenticalAcrossFourRanks) {
  ContactProblem pb;
  const auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  gd::DistOptions dopt;
  dopt.cg.tolerance = 1e-8;
  dopt.cg.record_residuals = true;

  std::vector<double> x_ref;
  const gd::DistResult ref = gd::solve_distributed(systems, [](const gpart::LocalSystem&,
                                                               const gsp::BlockCSR& aii,
                                                               gp::Precision) {
    return std::make_unique<gp::BIC0>(aii);
  }, dopt, &x_ref);
  ASSERT_TRUE(ref.converged());

  std::vector<std::vector<std::vector<double>>> rhs(1);
  for (const auto& s : systems) rhs[0].push_back(s.b);
  std::vector<std::vector<double>> xg;
  const auto res = gd::solve_distributed_batched(
      systems,
      [](const gpart::LocalSystem&, const gsp::BlockCSR& aii, gp::Precision) {
        return std::make_unique<gp::BIC0>(aii);
      },
      rhs, dopt, &xg);
  ASSERT_EQ(res.size(), 1u);
  ASSERT_EQ(xg.size(), 1u);
  EXPECT_EQ(res[0].status, ref.status);
  EXPECT_EQ(res[0].iterations, ref.iterations);
  ASSERT_EQ(res[0].residual_history.size(), ref.residual_history.size());
  for (std::size_t i = 0; i < ref.residual_history.size(); ++i)
    ASSERT_EQ(res[0].residual_history[i], ref.residual_history[i]);
  ASSERT_EQ(xg[0].size(), x_ref.size());
  for (std::size_t i = 0; i < x_ref.size(); ++i) ASSERT_EQ(xg[0][i], x_ref[i]);
}

TEST(BatchDist, ColumnsMatchSequentialDriverAndRestoreRhs) {
  ContactProblem pb;
  const auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  const auto factory = [](const gpart::LocalSystem&, const gsp::BlockCSR& aii, gp::Precision) {
    return std::make_unique<gp::BIC0>(aii);
  };
  gd::DistOptions dopt;
  dopt.cg.tolerance = 1e-8;

  std::vector<std::vector<double>> saved_b;
  for (const auto& s : systems) saved_b.push_back(s.b);
  std::vector<std::vector<std::vector<double>>> rhs(2);
  for (const auto& s : systems) {
    rhs[0].push_back(s.b);
    rhs[1].push_back(s.b);
    for (auto& v : rhs[1].back()) v *= 2.0;
  }
  std::vector<std::vector<double>> xg;
  const auto res = gd::solve_distributed_batched(systems, factory, rhs, dopt, &xg);
  ASSERT_EQ(res.size(), 2u);
  // the systems' own b vectors come back untouched
  for (std::size_t r = 0; r < systems.size(); ++r) EXPECT_EQ(systems[r].b, saved_b[r]);
  // each column equals the single-RHS driver run on that column's b
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t r = 0; r < systems.size(); ++r) systems[r].b = rhs[c][r];
    std::vector<double> x_one;
    const gd::DistResult one = gd::solve_distributed(systems, factory, dopt, &x_one);
    EXPECT_EQ(res[c].status, one.status);
    EXPECT_EQ(res[c].iterations, one.iterations);
    ASSERT_EQ(xg[c].size(), x_one.size());
    for (std::size_t i = 0; i < x_one.size(); ++i) ASSERT_EQ(xg[c][i], x_one[i]);
  }
  for (std::size_t r = 0; r < systems.size(); ++r) systems[r].b = saved_b[r];
}

// ---------------------------------------------------------------------------
// Service-level request coalescing
// ---------------------------------------------------------------------------

TEST(BatchSvc, CoalescingFormsFullBatchDeterministically) {
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  // one worker + a long window: the worker's leader holds the dispatch open
  // until all four same-key requests have been harvested (deterministic)
  gsvc::SolverService svc(batch_service(1, 4, 5.0));
  const gsvc::ModelId model =
      svc.register_model(mesh, {{1.0, 0.3}}, ContactProblem::make_bc(mesh));
  const double scales[] = {1.0, 2.0, 0.5, 1.5};
  std::vector<std::future<gsvc::SolveResponse>> futures;
  for (double s : scales) {
    gsvc::SolveRequest req;
    req.model = model;
    req.priority = gsvc::Priority::kBatch;
    req.lambda = 1e4;
    req.load_scale = s;
    futures.push_back(svc.submit(req));
  }
  std::vector<gsvc::SolveResponse> resp;
  for (auto& f : futures) resp.push_back(f.get());
  for (const auto& r : resp) ASSERT_TRUE(ok(r.status));
  // linear elasticity: each column is its leader's solution scaled (compared
  // against the solution norm — pointwise ratios are meaningless on the
  // near-zero dofs whose values sit at the CG-tolerance noise floor)
  const double norm0 = max_abs(resp[0].report.solution);
  for (std::size_t i = 1; i < resp.size(); ++i) {
    double err = 0.0;
    for (std::size_t d = 0; d < resp[0].report.solution.size(); ++d)
      err = std::max(err, std::abs(resp[i].report.solution[d] -
                                   scales[i] * resp[0].report.solution[d]));
    EXPECT_LT(err, 1e-6 * scales[i] * norm0) << "request " << i;
  }
  const auto snap = svc.registry().snapshot();
  const auto* hit = snap.counter("svc.coalesce.hit");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 3u);  // three followers rode the leader's dispatch
  const geofem::obs::HistogramData* hist = snap.histogram("svc.batch_size");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1u);
  EXPECT_EQ(hist->max, 4.0);
  const auto* to = snap.counter("svc.coalesce.window_timeout");
  if (to != nullptr) {
    EXPECT_EQ(*to, 0u);
  }
  const gsvc::SolverService::Counts c = svc.counts();
  EXPECT_EQ(c.completed, 4u);
  EXPECT_EQ(c.failed, 0u);
}

TEST(BatchSvc, SoloDispatchBitIdenticalWithCoalescingOn) {
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gsvc::SolveRequest req;
  req.lambda = 1e4;
  req.priority = gsvc::Priority::kInteractive;

  gsvc::SolverService off(batch_service(1, 1, 0.0));
  req.model = off.register_model(mesh, {{1.0, 0.3}}, ContactProblem::make_bc(mesh));
  const gsvc::SolveResponse a = off.submit(req).get();

  gsvc::SolverService on(batch_service(1, 4, 0.0));
  req.model = on.register_model(mesh, {{1.0, 0.3}}, ContactProblem::make_bc(mesh));
  const gsvc::SolveResponse b = on.submit(req).get();

  ASSERT_TRUE(ok(a.status));
  ASSERT_TRUE(ok(b.status));
  EXPECT_EQ(a.report.cg.iterations, b.report.cg.iterations);
  ASSERT_EQ(a.report.solution.size(), b.report.solution.size());
  for (std::size_t i = 0; i < a.report.solution.size(); ++i)
    ASSERT_EQ(a.report.solution[i], b.report.solution[i]) << "dof " << i;
}

TEST(BatchSvc, WindowTimeoutIsCounted) {
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gsvc::SolverService svc(batch_service(1, 4, 0.05));
  const gsvc::ModelId model =
      svc.register_model(mesh, {{1.0, 0.3}}, ContactProblem::make_bc(mesh));
  gsvc::SolveRequest req;
  req.model = model;
  req.priority = gsvc::Priority::kBatch;
  req.lambda = 1e4;
  const gsvc::SolveResponse r = svc.submit(req).get();
  ASSERT_TRUE(ok(r.status));
  const auto snap = svc.registry().snapshot();
  const auto* to = snap.counter("svc.coalesce.window_timeout");
  ASSERT_NE(to, nullptr);
  EXPECT_EQ(*to, 1u);  // the lone batch leader waited the window out
  const geofem::obs::HistogramData* hist = snap.histogram("svc.batch_size");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->max, 1.0);
}

TEST(BatchSvc, CoalescingKeySeparatesPrecisionAndVariant) {
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  // one worker + a long window: the first leader harvests every same-key
  // request before dispatching
  gsvc::SolverService svc(batch_service(1, 4, 0.5));
  const gsvc::ModelId model =
      svc.register_model(mesh, {{1.0, 0.3}}, ContactProblem::make_bc(mesh));
  struct Kind {
    std::optional<gso::CGVariant> variant;
    std::optional<gp::Precision> precision;
  };
  // two Gropp pairs, then one request differing only in precision and one
  // differing only in variant: four keys in all
  const Kind kinds[] = {{gso::CGVariant::kGropp, {}},
                        {gso::CGVariant::kGropp, {}},
                        {gso::CGVariant::kGropp, gp::Precision::kSingle},
                        {gso::CGVariant::kPipelined, {}},
                        {gso::CGVariant::kGropp, {}},
                        {{}, {}}};
  std::vector<std::future<gsvc::SolveResponse>> futures;
  for (const Kind& kd : kinds) {
    gsvc::SolveRequest req;
    req.model = model;
    req.priority = gsvc::Priority::kBatch;
    req.lambda = 1e4;
    req.variant = kd.variant;
    req.precision = kd.precision;
    futures.push_back(svc.submit(req));
  }
  for (auto& f : futures) {
    const gsvc::SolveResponse r = f.get();
    ASSERT_TRUE(ok(r.status));
    EXPECT_LE(r.report.cg.relative_residual, 1e-8);
  }
  const auto snap = svc.registry().snapshot();
  // dispatches: {Gropp x3}, {Gropp fp32}, {pipelined}, {classic}
  const auto* hit = snap.counter("svc.coalesce.hit");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 2u);
  const geofem::obs::HistogramData* hist = snap.histogram("svc.batch_size");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 4u);
  EXPECT_EQ(hist->max, 3.0);
}

TEST(BatchSvc, ZeroRhsColumnFailsOnlyItsOwnRequest) {
  // Three coalesced requests, the middle one with no load: it gets the error
  // its solo dispatch raises; its siblings get the responses they get when
  // it is never submitted.
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  const auto submit = [&](gsvc::SolverService& svc, double scale) {
    gsvc::SolveRequest req;
    req.priority = gsvc::Priority::kBatch;
    req.lambda = 1e4;
    req.load_scale = scale;
    return svc.submit(req);
  };
  gsvc::SolverService solo(batch_service(1, 1, 0.0));
  solo.register_model(mesh, {{1.0, 0.3}}, ContactProblem::make_bc(mesh));
  std::string solo_error;
  try {
    submit(solo, 0.0).get();
  } catch (const std::logic_error& e) {
    solo_error = e.what();
  }
  ASSERT_FALSE(solo_error.empty());

  gsvc::SolverService clean(batch_service(1, 4, 0.5));
  clean.register_model(mesh, {{1.0, 0.3}}, ContactProblem::make_bc(mesh));
  auto c1 = submit(clean, 1.0);
  auto c2 = submit(clean, 2.0);
  const gsvc::SolveResponse ref1 = c1.get(), ref2 = c2.get();

  gsvc::SolverService svc(batch_service(1, 4, 0.5));
  svc.register_model(mesh, {{1.0, 0.3}}, ContactProblem::make_bc(mesh));
  auto f1 = submit(svc, 1.0);
  auto f0 = submit(svc, 0.0);
  auto f2 = submit(svc, 2.0);
  std::string error;
  try {
    f0.get();
  } catch (const std::logic_error& e) {
    error = e.what();
  }
  EXPECT_EQ(error, solo_error);
  const gsvc::SolveResponse r1 = f1.get(), r2 = f2.get();
  ASSERT_TRUE(ok(r1.status));
  ASSERT_TRUE(ok(r2.status));
  EXPECT_EQ(r1.report.cg.iterations, ref1.report.cg.iterations);
  EXPECT_EQ(r2.report.cg.iterations, ref2.report.cg.iterations);
  EXPECT_EQ(r1.report.solution, ref1.report.solution);
  EXPECT_EQ(r2.report.solution, ref2.report.solution);
  const auto snap = svc.registry().snapshot();
  const auto* hit = snap.counter("svc.coalesce.hit");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 2u);  // all three rode one dispatch
  const gsvc::SolverService::Counts c = svc.counts();
  EXPECT_EQ(c.completed, 3u);
  EXPECT_EQ(c.failed, 1u);
}

TEST(BatchSvc, PerRequestToleranceHonoredWithinBatch) {
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gsvc::SolverService svc(batch_service(1, 3, 5.0));
  const gsvc::ModelId model =
      svc.register_model(mesh, {{1.0, 0.3}}, ContactProblem::make_bc(mesh));
  std::vector<std::future<gsvc::SolveResponse>> futures;
  const double tols[] = {0.0, 1e-2, 0.0};  // 0 = service default (1e-8)
  for (double t : tols) {
    gsvc::SolveRequest req;
    req.model = model;
    req.priority = gsvc::Priority::kBatch;
    req.lambda = 1e4;
    req.tolerance = t;
    futures.push_back(svc.submit(req));
  }
  std::vector<gsvc::SolveResponse> resp;
  for (auto& f : futures) resp.push_back(f.get());
  for (const auto& r : resp) ASSERT_TRUE(ok(r.status));
  const auto snap = svc.registry().snapshot();
  const auto* hit = snap.counter("svc.coalesce.hit");
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(*hit, 2u);  // all three rode one dispatch
  // the loose column froze earlier than the tight ones
  EXPECT_LT(resp[1].report.cg.iterations, resp[0].report.cg.iterations);
  EXPECT_LE(resp[1].report.cg.relative_residual, 1e-2);
  EXPECT_LE(resp[0].report.cg.relative_residual, 1e-8);
  EXPECT_LE(resp[2].report.cg.relative_residual, 1e-8);
}
