// Failure-path tests of the resilient solve pipeline (ISSUE: typed
// SolveStatus, preconditioner fallback chain, comm fault injection). These
// exercise exactly the paths the happy-path suites never reach: CG breakdown
// on an indefinite operator, stagnation under an extreme contact penalty,
// factorization failure on a deliberately broken matrix, and injected message
// loss in the simulated MPI runtime. Built as a separate binary labelled
// `resilience` in ctest (ctest -L resilience).

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "contact/penalty.hpp"
#include "core/geofem.hpp"
#include "core/resilience.hpp"
#include "core/status.hpp"
#include "dist/dist_solver.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "nonlin/alm.hpp"
#include "obs/registry.hpp"
#include "part/partition.hpp"
#include "precond/bic.hpp"
#include "precond/diagonal.hpp"
#include "precond/sb_bic0.hpp"
#include "solver/cg.hpp"
#include "sparse/block_csr.hpp"

namespace gc = geofem::contact;
namespace gcore = geofem::core;
namespace gd = geofem::dist;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace gpart = geofem::part;
namespace gp = geofem::precond;
namespace gs = geofem::sparse;

using geofem::Error;
using geofem::SolveStatus;
using geofem::StatusCode;

namespace {

/// The appendix simple-block contact problem; lambda is the contact penalty
/// that drives the BIC(0) conditioning cliff (paper Fig 23 / Table 2).
struct Problem {
  gm::HexMesh mesh;
  gf::System sys;

  explicit Problem(double lambda, gm::SimpleBlockParams bp = {4, 4, 3, 4, 4}) {
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

/// Block-diagonal matrix with d on every diagonal entry (n block rows).
gs::BlockCSR scaled_identity(int n, double d) {
  gs::BlockCSRBuilder bld(n);
  for (int i = 0; i < n; ++i) bld.add_pattern(i, i);
  bld.finalize_pattern();
  for (int i = 0; i < n; ++i)
    for (int c = 0; c < 3; ++c) bld.add_scalar(i, i, c, c, d);
  return bld.take();
}

constexpr int kHaloTag = 7;  // dist_solver's halo-exchange message tag

}  // namespace

// ---------------------------------------------------------------------------
// Status vocabulary
// ---------------------------------------------------------------------------

TEST(Status, OkAcceptsConvergedAndFellBackOnly) {
  EXPECT_TRUE(geofem::ok(SolveStatus::kConverged));
  EXPECT_TRUE(geofem::ok(SolveStatus::kFellBack));
  EXPECT_FALSE(geofem::ok(SolveStatus::kMaxIterations));
  EXPECT_FALSE(geofem::ok(SolveStatus::kStagnated));
  EXPECT_FALSE(geofem::ok(SolveStatus::kBreakdown));
  EXPECT_FALSE(geofem::ok(SolveStatus::kFactorizationFailed));
  EXPECT_FALSE(geofem::ok(SolveStatus::kCommTimeout));
}

TEST(Status, ToStringIsTotal) {
  for (SolveStatus s :
       {SolveStatus::kConverged, SolveStatus::kFellBack, SolveStatus::kMaxIterations,
        SolveStatus::kStagnated, SolveStatus::kBreakdown, SolveStatus::kFactorizationFailed,
        SolveStatus::kCommTimeout})
    EXPECT_FALSE(geofem::to_string(s).empty());
  for (StatusCode c : {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kIoError,
                       StatusCode::kStalePlan, StatusCode::kFactorizationFailed,
                       StatusCode::kCommTimeout})
    EXPECT_FALSE(geofem::to_string(c).empty());
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Error e(StatusCode::kIoError, "boom");
  EXPECT_EQ(e.code(), StatusCode::kIoError);
  EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CG breakdown and stagnation
// ---------------------------------------------------------------------------

TEST(Breakdown, IndefiniteOperatorReturnsBreakdownNotNaN) {
  // A = -I is negative definite: rho = r.(M^-1 r) < 0 on the first iteration.
  // The old solver kept iterating on garbage; now it reports kBreakdown.
  const auto a = scaled_identity(4, -1.0);
  const gp::DiagonalScaling prec(a);
  std::vector<double> b(a.ndof(), 1.0), x(a.ndof(), 0.0);
  const auto res = geofem::solver::pcg(a, prec, b, x, {.max_iterations = 50});
  EXPECT_EQ(res.status, SolveStatus::kBreakdown);
  EXPECT_FALSE(res.converged());
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
}

TEST(Stagnation, ExtremePenaltyBIC0Stagnates) {
  // Table 2's "did not converge" regime: at lambda = 1e12 localized IC-family
  // preconditioning stalls. With a stagnation window the solver says so
  // instead of burning the whole iteration budget.
  Problem pb(1e12);
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC0;
  cfg.cg.max_iterations = 2000;
  cfg.cg.stagnation_window = 100;
  const auto rep = gcore::solve_system(pb.sys, sn, cfg);
  EXPECT_EQ(rep.status, SolveStatus::kStagnated);
  EXPECT_FALSE(rep.converged());
  EXPECT_LT(rep.cg.iterations, cfg.cg.max_iterations);  // detected early
}

TEST(Stagnation, WindowZeroKeepsLegacyMaxIterations) {
  Problem pb(1e12);
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC0;
  cfg.cg.max_iterations = 300;  // small budget; detector off
  const auto rep = gcore::solve_system(pb.sys, sn, cfg);
  EXPECT_EQ(rep.status, SolveStatus::kMaxIterations);
  EXPECT_EQ(rep.cg.iterations, 300);
}

// ---------------------------------------------------------------------------
// Fallback chain (core)
// ---------------------------------------------------------------------------

TEST(Fallback, StagnatedBIC0RecoversViaSBBIC0) {
  Problem pb(1e12);
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC0;
  cfg.cg.max_iterations = 2000;
  cfg.resilience.enabled = true;
  cfg.resilience.stagnation_window = 100;
  const auto rep = gcore::solve_system(pb.sys, sn, cfg);
  EXPECT_EQ(rep.status, SolveStatus::kFellBack);
  EXPECT_TRUE(rep.converged());
  ASSERT_EQ(rep.attempts.size(), 2u);
  EXPECT_EQ(rep.attempts[0], gcore::PrecondKind::kBIC0);
  EXPECT_EQ(rep.attempts[1], gcore::PrecondKind::kSBBIC0);
  EXPECT_GT(rep.fallback_iterations, 0);
  EXPECT_LE(rep.cg.relative_residual, cfg.cg.tolerance);
}

TEST(Fallback, HealthySolveIsUntouchedByResilienceFlag) {
  // With a benign penalty the primary preconditioner converges directly:
  // enabling resilience must not change a single residual.
  Problem pb(1e4);
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC0;
  cfg.cg.record_residuals = true;
  const auto off = gcore::solve_system(pb.sys, sn, cfg);
  cfg.resilience.enabled = true;
  const auto on = gcore::solve_system(pb.sys, sn, cfg);
  EXPECT_EQ(off.status, SolveStatus::kConverged);
  EXPECT_EQ(on.status, SolveStatus::kConverged);
  ASSERT_EQ(on.attempts.size(), 1u);
  EXPECT_EQ(on.fallback_iterations, 0);
  ASSERT_EQ(off.cg.residual_history.size(), on.cg.residual_history.size());
  for (std::size_t i = 0; i < off.cg.residual_history.size(); ++i)
    EXPECT_EQ(off.cg.residual_history[i], on.cg.residual_history[i]);
}

TEST(Fallback, PDJDSChainRunsUnvectorizedRungsInNaturalOrdering) {
  // The PDJDS path only vectorizes BIC(0)/SB-BIC(0); a chain rung with any
  // other kind (here the last-resort block diagonal) must run in the natural
  // ordering instead of escaping solve_system as the plan's logic_error.
  Problem pb(1e12);
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC0;
  cfg.ordering = gcore::OrderingKind::kPDJDSCMRCM;
  cfg.cg.max_iterations = 500;
  cfg.resilience.enabled = true;
  cfg.resilience.stagnation_window = 100;
  cfg.resilience.chain = {gcore::PrecondKind::kBlockDiagonal};
  gcore::SolveReport rep;
  ASSERT_NO_THROW(rep = gcore::solve_system(pb.sys, sn, cfg));
  ASSERT_EQ(rep.attempts.size(), 2u);
  EXPECT_EQ(rep.attempts[1], gcore::PrecondKind::kBlockDiagonal);
  // The outcome is a typed status either way (block Jacobi may or may not
  // converge at this penalty) — the point is it never crashes the caller.
  EXPECT_FALSE(geofem::to_string(rep.status).empty());
}

TEST(Fallback, DefaultChainEndsInBlockDiagonal) {
  using geofem::plan::PrecondKind;
  for (PrecondKind k :
       {PrecondKind::kScalarIC0, PrecondKind::kBIC0, PrecondKind::kBIC1, PrecondKind::kBIC2}) {
    const auto chain = geofem::default_fallback_chain(k);
    ASSERT_EQ(chain.size(), 2u) << geofem::plan::to_string(k);
    EXPECT_EQ(chain[0], PrecondKind::kSBBIC0);
    EXPECT_EQ(chain[1], PrecondKind::kBlockDiagonal);
  }
  EXPECT_EQ(geofem::default_fallback_chain(PrecondKind::kSBBIC0).size(), 1u);
  EXPECT_TRUE(geofem::default_fallback_chain(PrecondKind::kBlockDiagonal).empty());
}

// ---------------------------------------------------------------------------
// Factorization failure
// ---------------------------------------------------------------------------

TEST(Factorization, ZeroDiagonalBlockThrowsTypedError) {
  // A zeroed diagonal block used to be silently "repaired" (unit pivot) or
  // produced NaNs downstream; every factorization now throws a typed error.
  const auto a = scaled_identity(3, 0.0);
  try {
    gp::BIC0 prec(a);
    FAIL() << "BIC0 accepted a zero diagonal block";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kFactorizationFailed);
  }
  try {
    gp::DiagonalScaling prec(a);
    FAIL() << "DiagonalScaling accepted a zero diagonal";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kFactorizationFailed);
  }
}

TEST(Factorization, BlockDiagonalLastResortNeverThrows) {
  // The end of every fallback chain must be buildable on anything, including
  // the matrix that just broke the real preconditioners.
  const auto a = scaled_identity(3, 0.0);
  const gp::BlockDiagonal prec(a);
  std::vector<double> r(a.ndof(), 1.0), z(a.ndof(), 0.0);
  prec.apply(r, z, nullptr, nullptr);
  for (double v : z) EXPECT_TRUE(std::isfinite(v));
}

TEST(Factorization, ALMSurfacesFactorizationFailure) {
  const auto m = gm::simple_block({3, 3, 2, 3, 3});
  gf::BoundaryConditions bc;
  bc.fix_nodes(m.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
  bc.surface_load(m, [](double, double, double z) { return z > 4.9; }, 2, -1.0);
  geofem::nonlin::ALMOptions opt;
  opt.max_cycles = 3;
  const auto res = geofem::nonlin::solve_tied_contact_alm(
      m, {{1.0, 0.3}}, bc,
      [](const gs::BlockCSR&) -> gp::PreconditionerPtr {
        throw Error(StatusCode::kFactorizationFailed, "injected");
      },
      opt);
  EXPECT_EQ(res.status, SolveStatus::kFactorizationFailed);
  EXPECT_FALSE(res.converged());
  EXPECT_EQ(res.cycles, 0);
}

// ---------------------------------------------------------------------------
// Fallback chain (distributed)
// ---------------------------------------------------------------------------

TEST(DistFallback, StagnatedRanksFallBackInLockstep) {
  Problem pb(1e12);
  const auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  const auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  gd::DistOptions opt;
  opt.cg.max_iterations = 2000;
  opt.resilience.enabled = true;
  opt.resilience.stagnation_window = 100;
  const auto& groups = pb.mesh.contact_groups;
  opt.fallback_factory = [&groups](const gpart::LocalSystem& ls, const gs::BlockCSR& aii, geofem::precond::Precision) {
    auto sn = gc::build_supernodes(aii.n, ls.local_contact_groups(groups));
    return std::make_unique<gp::SBBIC0>(aii, std::move(sn));
  };
  const auto res = gd::solve_distributed(
      systems,
      [](const gpart::LocalSystem&, const gs::BlockCSR& aii, geofem::precond::Precision) {
        return std::make_unique<gp::BIC0>(aii);
      },
      opt);
  EXPECT_EQ(res.status, SolveStatus::kFellBack);
  EXPECT_TRUE(res.converged());
  for (SolveStatus s : res.status_per_rank) EXPECT_EQ(s, SolveStatus::kFellBack);
  EXPECT_GT(res.fallback_iterations, 0);
  EXPECT_LE(res.relative_residual, opt.cg.tolerance);
}

TEST(DistFallback, WalksMultipleRungsUpToMaxFallbacks) {
  Problem pb(1e4, {3, 3, 2, 3, 3});
  const auto p = gpart::rcb_contact_aware(pb.mesh, 2);
  const auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  gd::DistOptions opt;
  opt.cg.max_iterations = 2000;
  opt.resilience.enabled = true;
  const auto broken = [](const gpart::LocalSystem&, const gs::BlockCSR&,
                         geofem::precond::Precision) -> gp::PreconditionerPtr {
    throw Error(StatusCode::kFactorizationFailed, "injected");
  };
  opt.fallback_factory = broken;
  // Primary build fails, rung 1 (the broken fallback factory) fails, rung 2
  // (the built-in block diagonal) recovers — within the default budget of 2.
  auto res = gd::solve_distributed(systems, broken, opt);
  EXPECT_EQ(res.status, SolveStatus::kFellBack);
  EXPECT_TRUE(res.converged());
  // A budget of 1 stops after the broken factory, as documented.
  opt.resilience.max_fallbacks = 1;
  res = gd::solve_distributed(systems, broken, opt);
  EXPECT_EQ(res.status, SolveStatus::kFactorizationFailed);
  EXPECT_FALSE(res.converged());
}

TEST(DistFallback, HealthySolvePastWindowIsNotSpuriouslyStagnated) {
  // Regression: the distributed stagnation ring buffer used a post-increment
  // index, so slot 0 was never written and any resilience-enabled solve
  // running at least `stagnation_window` iterations was declared stagnated at
  // exactly iteration == window (comparing against the ring's initial 0.0) no
  // matter how well it was converging.
  Problem pb(1e2);
  const auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  const auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  gd::DistOptions opt;
  opt.cg.max_iterations = 2000;
  opt.resilience.enabled = true;
  // Diagonal scaling takes ~300 iterations here and its genuine plateaus stay
  // under a 80-iteration window (worst trailing ratio ~0.11 vs the 0.99
  // trigger), so any stagnation report is the ring-buffer bug, not physics.
  opt.resilience.stagnation_window = 80;
  const auto res = gd::solve_distributed(
      systems,
      [](const gpart::LocalSystem&, const gs::BlockCSR& aii, geofem::precond::Precision) {
        return std::make_unique<gp::DiagonalScaling>(aii);
      },
      opt);
  EXPECT_EQ(res.status, SolveStatus::kConverged);  // not kFellBack
  for (SolveStatus s : res.status_per_rank) EXPECT_EQ(s, SolveStatus::kConverged);
  EXPECT_EQ(res.fallback_iterations, 0);
  EXPECT_GT(res.iterations, 80);  // the window was actually crossed
}

// ---------------------------------------------------------------------------
// Chain exhaustion: every rung fails
// ---------------------------------------------------------------------------

namespace {

std::uint64_t counter_or_zero(const geofem::obs::Snapshot& snap, const std::string& name) {
  const std::uint64_t* c = snap.counter(name);
  return c ? *c : 0;
}

}  // namespace

TEST(Fallback, ExhaustedChainReportsLastAttemptAndCounts) {
  // Five iterations per attempt cannot converge at lambda = 1e12: BIC(0),
  // SB-BIC(0) and the block diagonal each spend their fresh budget and fail.
  // The report is the last attempt's; the two before it are burnt.
  Problem pb(1e12);
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  geofem::obs::Registry reg;
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC0;
  cfg.cg.max_iterations = 5;
  cfg.resilience.enabled = true;
  cfg.use_plan_cache = false;
  cfg.registry = &reg;
  const auto rep = gcore::solve_system(pb.sys, sn, cfg);
  EXPECT_EQ(rep.status, SolveStatus::kMaxIterations);
  ASSERT_EQ(rep.attempts.size(), 3u);
  EXPECT_EQ(rep.attempts[0], gcore::PrecondKind::kBIC0);
  EXPECT_EQ(rep.attempts[1], gcore::PrecondKind::kSBBIC0);
  EXPECT_EQ(rep.attempts[2], gcore::PrecondKind::kBlockDiagonal);
  EXPECT_EQ(rep.cg.iterations, 5);
  EXPECT_EQ(rep.fallback_iterations, 10);
  const auto snap = reg.snapshot();
  EXPECT_EQ(counter_or_zero(snap, "core.fallback.exhausted"), 1u);
  EXPECT_EQ(counter_or_zero(snap, "core.fallback.attempts"), 3u);
  EXPECT_EQ(counter_or_zero(snap, "core.fallback.recovered"), 0u);
}

TEST(DistFallback, ExhaustedChainReportsSharedBudgetAndCounts) {
  // The same exhaustion on 2 ranks: BIC(0) spends the shared five-iteration
  // budget, and the SB-BIC(0) and block-diagonal rungs restart warm with
  // nothing left, so the burnt iterations are the primary's five.
  Problem pb(1e12);
  const auto p = gpart::rcb_contact_aware(pb.mesh, 2);
  const auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  gd::DistOptions opt;
  opt.cg.max_iterations = 5;
  opt.resilience.enabled = true;
  const auto& groups = pb.mesh.contact_groups;
  opt.fallback_factory = [&groups](const gpart::LocalSystem& ls, const gs::BlockCSR& aii,
                                   geofem::precond::Precision) {
    return std::make_unique<gp::SBBIC0>(aii,
                                        gc::build_supernodes(aii.n, ls.local_contact_groups(groups)));
  };
  const auto res = gd::solve_distributed(
      systems,
      [](const gpart::LocalSystem&, const gs::BlockCSR& aii, geofem::precond::Precision) {
        return std::make_unique<gp::BIC0>(aii);
      },
      opt);
  EXPECT_EQ(res.status, SolveStatus::kMaxIterations);
  for (SolveStatus s : res.status_per_rank) EXPECT_EQ(s, SolveStatus::kMaxIterations);
  EXPECT_EQ(res.iterations, 5);
  EXPECT_EQ(res.fallback_iterations, 5);
  ASSERT_EQ(res.obs_per_rank.size(), 2u);
  for (const auto& snap : res.obs_per_rank) {
    EXPECT_EQ(counter_or_zero(snap, "dist.fallback.exhausted"), 1u);
    EXPECT_EQ(counter_or_zero(snap, "dist.fallback.attempts"), 3u);
    EXPECT_EQ(counter_or_zero(snap, "dist.fallback.recovered"), 0u);
  }
}

// ---------------------------------------------------------------------------
// Comm fault injection
// ---------------------------------------------------------------------------

TEST(CommFault, DroppedHaloMessageTimesOutEveryRankWithinDeadline) {
  Problem pb(1e4);
  const auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  const auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  gd::DistOptions opt;
  opt.cg.max_iterations = 2000;
  opt.cg.record_residuals = true;
  opt.faults.timeout_seconds = 0.5;
  // Lose one halo message mid-solve; without timeouts the receiver (and then,
  // via the allreduce, the whole job) would hang forever.
  opt.faults.faults.push_back(
      {.from = 0, .to = 1, .tag = kHaloTag, .after_messages = 3, .delay_seconds = 0.0});

  const auto t0 = std::chrono::steady_clock::now();
  const auto res = gd::solve_distributed(
      systems,
      [](const gpart::LocalSystem&, const gs::BlockCSR& aii, geofem::precond::Precision) {
        return std::make_unique<gp::BIC0>(aii);
      },
      opt);
  const double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  EXPECT_EQ(res.status, SolveStatus::kCommTimeout);
  EXPECT_FALSE(res.converged());
  ASSERT_EQ(res.status_per_rank.size(), 4u);
  for (SolveStatus s : res.status_per_rank) EXPECT_EQ(s, SolveStatus::kCommTimeout);
  EXPECT_GE(res.traffic_per_rank[0].messages_dropped, 1u);
  // Progress up to the deadline is preserved, not reported as 0 iterations /
  // residual 0.0: the fault fires a few halo exchanges in, so rank 0 has
  // completed iterations, a finite last residual, and a recorded history.
  EXPECT_GT(res.iterations, 0);
  EXPECT_TRUE(std::isfinite(res.relative_residual));
  EXPECT_GT(res.relative_residual, 0.0);
  EXPECT_FALSE(res.residual_history.empty());
  // Deadline guard: the cascade must resolve in a few timeout periods, not
  // hang until the test runner kills us (sanitizer builds run ~10x slower).
  EXPECT_LT(elapsed, 30.0);
}

TEST(CommFault, DelayedLinkStillConverges) {
  // A slow link is not a lost link: with the deadline comfortably above the
  // injected delay the solve completes normally, just later.
  Problem pb(1e4, {3, 3, 2, 3, 3});
  const auto p = gpart::rcb_contact_aware(pb.mesh, 2);
  const auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  gd::DistOptions opt;
  opt.cg.max_iterations = 2000;
  opt.faults.timeout_seconds = 20.0;
  opt.faults.faults.push_back(
      {.from = 0, .to = 1, .tag = kHaloTag, .after_messages = 0, .delay_seconds = 0.002});
  const auto res = gd::solve_distributed(
      systems,
      [](const gpart::LocalSystem&, const gs::BlockCSR& aii, geofem::precond::Precision) {
        return std::make_unique<gp::BIC0>(aii);
      },
      opt);
  EXPECT_EQ(res.status, SolveStatus::kConverged);
  EXPECT_EQ(res.traffic_per_rank[0].messages_dropped, 0u);
}

TEST(CommFault, RecvTimeoutThrowsTypedErrorDirectly) {
  gd::FaultPlan plan;
  plan.timeout_seconds = 0.05;
  gd::Runtime::run(2, plan, [](gd::Comm& c) {
    if (c.rank() == 0) {
      try {
        (void)c.recv(1, 42);  // rank 1 never sends
        ADD_FAILURE() << "recv returned without a message";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), StatusCode::kCommTimeout);
      }
    }
  });
}
