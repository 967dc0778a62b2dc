// Mixed-precision preconditioning (DESIGN.md §5i): fp32-stored factors under
// fp64 CG, the structured preconditioner identity (precond::Desc) that
// carries the precision tag, plan-key separation of the two precisions, and
// the automatic fp64 re-set-up when an fp32 attempt stagnates or its
// narrowing overflows. The recovery contract checked throughout: the fp64
// retry restarts COLD with the caller's own CG options, so its residual
// history is bit-identical to a solve that had asked for fp64 up front.
// Built as a separate binary labelled `precision` in ctest.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "contact/penalty.hpp"
#include "core/geofem.hpp"
#include "dist/dist_solver.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "obs/registry.hpp"
#include "part/partition.hpp"
#include "plan/fingerprint.hpp"
#include "precond/bic.hpp"
#include "precond/desc.hpp"
#include "precond/sb_bic0.hpp"
#include "sparse/block_csr.hpp"

namespace gc = geofem::contact;
namespace gcore = geofem::core;
namespace gd = geofem::dist;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace go = geofem::obs;
namespace gpart = geofem::part;
namespace gp = geofem::precond;
namespace gplan = geofem::plan;
namespace gs = geofem::sparse;

using geofem::Error;
using geofem::SolveStatus;
using geofem::StatusCode;
using gp::Precision;

namespace {

/// The appendix simple-block contact problem at penalty `lambda` (same
/// construction as the resilience suite; lambda drives both the BIC(0)
/// conditioning cliff and — past fp32 range, ~3.4e38 — the deterministic
/// narrowing overflow).
struct Problem {
  gm::HexMesh mesh;
  gf::System sys;
  gc::Supernodes sn;

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
    sn = gc::build_supernodes(sys.a.n, mesh.contact_groups);
  }
};

void expect_bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "residual " << i;
}

}  // namespace

// ---------------------------------------------------------------------------
// Structured identity: Desc rendering and the precision tag
// ---------------------------------------------------------------------------

TEST(Desc, Fp64RendersHistoricalNames) {
  gp::Desc d;
  d.kind = gp::PrecondKind::kSBBIC0;
  EXPECT_EQ(d.display_name(), "SB-BIC(0)");
  d.pdjds = true;
  EXPECT_EQ(d.display_name(), "SB-BIC(0) PDJDS");
  d.coarse = gp::CoarseKind::kDeflated;
  d.coarse_dim = 840;
  EXPECT_EQ(d.display_name(), "SB-BIC(0) PDJDS+coarse(deflated,840)");
}

TEST(Desc, Fp32TagIsAlwaysTheSuffix) {
  gp::Desc d;
  d.kind = gp::PrecondKind::kBIC0;
  d.precision = Precision::kSingle;
  EXPECT_EQ(d.display_name(), "BIC(0) [fp32]");
  d.coarse = gp::CoarseKind::kAdditive;
  d.coarse_dim = 12;
  EXPECT_EQ(d.display_name(), "BIC(0)+coarse(additive,12) [fp32]");
  d.coarse = gp::CoarseKind::kNone;
  d.custom = "fault-wrapper";  // verbatim, but still precision-tagged
  EXPECT_EQ(d.display_name(), "fault-wrapper [fp32]");
}

TEST(Desc, PreconditionersReportTypedIdentity) {
  const Problem pb(1e6);
  for (Precision p : {Precision::kDouble, Precision::kSingle}) {
    const gp::SBBIC0 sb(pb.sys.a, pb.sn, /*modified=*/false, p);
    EXPECT_EQ(sb.desc().kind, gp::PrecondKind::kSBBIC0);
    EXPECT_EQ(sb.desc().precision, p);
    EXPECT_EQ(sb.name(), sb.desc().display_name());
    const gp::BIC0 b(pb.sys.a, p);
    EXPECT_EQ(b.desc().kind, gp::PrecondKind::kBIC0);
    EXPECT_EQ(b.desc().precision, p);
  }
  const gp::SBBIC0 sb32(pb.sys.a, pb.sn, false, Precision::kSingle);
  EXPECT_EQ(sb32.name(), "SB-BIC(0) [fp32]");
}

TEST(Desc, NarrowOrThrowRejectsFp32Overflow) {
  geofem::simd::aligned_vector<float> dst;
  const std::vector<double> fits{1.0, -3.0e38, 1e-300};  // 1e-300 underflows to 0: allowed
  ASSERT_NO_THROW(gp::narrow_or_throw(fits, dst));
  EXPECT_EQ(dst[2], 0.0f);
  const std::vector<double> blows{1.0, 1e39};
  try {
    gp::narrow_or_throw(blows, dst);
    FAIL() << "1e39 narrowed without complaint";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kFactorizationFailed);
  }
}

// ---------------------------------------------------------------------------
// Plan keys: precision separates fp32 plans, fp64 keys are unchanged
// ---------------------------------------------------------------------------

TEST(PlanKey, PrecisionSeparatesPlansAndDefaultIsUnperturbed) {
  const Problem pb(1e6);
  gplan::PlanConfig cfg;
  const auto k64 = gplan::make_key(pb.sys.a, pb.sn, cfg);
  cfg.precision = Precision::kSingle;
  const auto k32 = gplan::make_key(pb.sys.a, pb.sn, cfg);
  EXPECT_FALSE(k64 == k32);
  // kDouble must hash exactly like a config predating the precision field,
  // so caches survive the API change warm.
  cfg.precision = Precision::kDouble;
  EXPECT_TRUE(gplan::make_key(pb.sys.a, pb.sn, cfg) == k64);
}

// ---------------------------------------------------------------------------
// Serial solves: fp32 convergence band and the fp64 safety net
// ---------------------------------------------------------------------------

TEST(PrecisionSolve, Fp32ConvergesWithinIterationBandOfFp64) {
  // A healthy penalty: the fp32-stored factors are an inexact but fixed M, so
  // CG still converges to the fp64 tolerance — the issue's acceptance band is
  // <= +10% iterations over the fp64 run.
  const Problem pb(1e6);
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kSBBIC0;
  cfg.use_plan_cache = false;
  const auto r64 = gcore::solve_system(pb.sys, pb.sn, cfg);
  ASSERT_EQ(r64.status, SolveStatus::kConverged);
  EXPECT_EQ(r64.precond.precision, Precision::kDouble);

  cfg.precision = Precision::kSingle;
  const auto r32 = gcore::solve_system(pb.sys, pb.sn, cfg);
  ASSERT_EQ(r32.status, SolveStatus::kConverged);
  EXPECT_EQ(r32.precision_fallbacks, 0);
  EXPECT_EQ(r32.precond.precision, Precision::kSingle);
  EXPECT_NE(r32.precond_name.find("[fp32]"), std::string::npos);
  EXPECT_LE(r32.cg.relative_residual, cfg.cg.tolerance);
  EXPECT_LE(r32.cg.iterations,
            r64.cg.iterations + (r64.cg.iterations + 9) / 10);  // ceil(1.1x)
}

TEST(PrecisionSolve, NarrowingOverflowFallsBackBitIdenticallyToFp64) {
  // lambda = 1e39 > FLT_MAX: the fp32 narrowing throws during set-up, before
  // a single fp32 iteration, and the fp64 re-set-up restarts cold with the
  // caller's CG options — so the whole solve must replay a direct fp64 run
  // residual for residual. BIC(0), not SB-BIC(0): past fp64's 16 digits the
  // elasticity vanishes from the penalty-coupled supernode blocks, which are
  // singular on their own, while BIC(0)'s ~lambda*I diagonal blocks stay
  // factorable — the overflow must be the ONLY failure in play.
  const Problem pb(1e39);
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC0;
  cfg.cg.max_iterations = 200;  // neither precision converges; keep it cheap
  cfg.cg.record_residuals = true;
  cfg.use_plan_cache = false;
  const auto r64 = gcore::solve_system(pb.sys, pb.sn, cfg);

  go::Registry reg;
  cfg.precision = Precision::kSingle;
  cfg.registry = &reg;
  const auto r32 = gcore::solve_system(pb.sys, pb.sn, cfg);
  EXPECT_EQ(r32.precision_fallbacks, 1);
  EXPECT_EQ(r32.fallback_iterations, 0);  // fp32 never iterated
  if (r64.status == SolveStatus::kConverged) {
    EXPECT_EQ(r32.status, SolveStatus::kFellBack);
    EXPECT_TRUE(r32.converged());
  } else {
    EXPECT_EQ(r32.status, r64.status);
  }
  expect_bitwise_equal(r64.cg.residual_history, r32.cg.residual_history);
  // The fallback is visible in telemetry, once.
  const auto snap = reg.snapshot();
  ASSERT_NE(snap.counter("core.fallback.precision"), nullptr);
  EXPECT_EQ(*snap.counter("core.fallback.precision"), 1u);
}

TEST(PrecisionSolve, Fp32StagnationTriggersExactlyOneFp64Resetup) {
  // Table 2's conditioning cliff: at lambda = 1e12 the fp32 BIC(0) attempt
  // stagnates (the safety-net window is armed from resilience.stagnation_
  // window even with resilience off). The fp64 re-set-up then runs with the
  // caller's own options — window 0, so it burns the full budget exactly like
  // the direct fp64 run it must reproduce bit for bit.
  const Problem pb(1e12);
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC0;
  cfg.cg.max_iterations = 400;
  cfg.cg.record_residuals = true;
  cfg.use_plan_cache = false;
  cfg.resilience.stagnation_window = 100;  // arms only the fp32 attempt
  const auto r64 = gcore::solve_system(pb.sys, pb.sn, cfg);
  EXPECT_EQ(r64.status, SolveStatus::kMaxIterations);
  EXPECT_EQ(r64.precision_fallbacks, 0);

  cfg.precision = Precision::kSingle;
  const auto r32 = gcore::solve_system(pb.sys, pb.sn, cfg);
  EXPECT_EQ(r32.precision_fallbacks, 1);
  EXPECT_GT(r32.fallback_iterations, 0);              // fp32 iterated, then stalled
  EXPECT_LT(r32.fallback_iterations, cfg.cg.max_iterations);  // ... detected early
  ASSERT_EQ(r32.attempts.size(), 1u);                 // one kind, re-set-up once
  expect_bitwise_equal(r64.cg.residual_history, r32.cg.residual_history);
}

TEST(PrecisionSolve, Fp64DefaultIsUntouchedByTheApiChange) {
  // The precision knob must be invisible at its default: same status, same
  // residuals, no fallback bookkeeping.
  const Problem pb(1e6);
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC0;
  cfg.cg.record_residuals = true;
  cfg.use_plan_cache = false;
  const auto rep = gcore::solve_system(pb.sys, pb.sn, cfg);
  EXPECT_EQ(rep.status, SolveStatus::kConverged);
  EXPECT_EQ(rep.precision_fallbacks, 0);
  EXPECT_EQ(rep.precond.precision, Precision::kDouble);
  EXPECT_EQ(rep.precond_name.find("[fp32]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Distributed solves: lockstep fp64 re-set-up across ranks
// ---------------------------------------------------------------------------

TEST(PrecisionDist, OverflowFallsBackInLockstepBitIdenticallyToFp64) {
  // Same BIC(0)-not-SB-BIC(0) reasoning as the serial overflow test: at
  // lambda = 1e39 only the fp32 narrowing may fail, on every rank.
  const Problem pb(1e39);
  const auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  const auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  gd::DistOptions opt;
  opt.cg.max_iterations = 200;  // neither precision converges; keep it cheap
  opt.cg.record_residuals = true;
  const gd::PrecondFactory factory = [](const gpart::LocalSystem&, const gs::BlockCSR& aii,
                                        Precision precision) -> gp::PreconditionerPtr {
    return std::make_unique<gp::BIC0>(aii, precision);
  };
  const auto r64 = gd::solve_distributed(systems, factory, opt);

  opt.precision = Precision::kSingle;
  const auto r32 = gd::solve_distributed(systems, factory, opt);
  EXPECT_EQ(r32.precision_fallbacks, 1);
  EXPECT_EQ(r32.fallback_iterations, 0);  // every rank failed at set-up
  if (r64.status == SolveStatus::kConverged) {
    EXPECT_EQ(r32.status, SolveStatus::kFellBack);
    for (SolveStatus s : r32.status_per_rank) EXPECT_EQ(s, SolveStatus::kFellBack);
  }
  // The all-attempts history carries one extra initial residual from the
  // cold restart; past it, the retry replays the direct fp64 run exactly.
  ASSERT_EQ(r32.residual_history.size(), r64.residual_history.size() + 1);
  const std::vector<double> tail(r32.residual_history.begin() + 1, r32.residual_history.end());
  expect_bitwise_equal(r64.residual_history, tail);
}

TEST(PrecisionDist, StagnatedFp32FallsBackInLockstepAndReplaysFp64Tail) {
  // The stagnation decision is allreduced, so every rank rebuilds at fp64
  // together; the retry restarts cold, so the post-fallback part of the
  // (all-attempts) history replays the direct fp64 run bit for bit.
  const Problem pb(1e12);
  const auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  const auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  gd::DistOptions opt;
  opt.cg.max_iterations = 400;
  opt.cg.record_residuals = true;
  opt.resilience.stagnation_window = 100;  // arms only the fp32 attempt
  const gd::PrecondFactory bic = [](const gpart::LocalSystem&, const gs::BlockCSR& aii,
                                    Precision precision) -> gp::PreconditionerPtr {
    return std::make_unique<gp::BIC0>(aii, precision);
  };
  const auto r64 = gd::solve_distributed(systems, bic, opt);
  EXPECT_EQ(r64.precision_fallbacks, 0);

  opt.precision = Precision::kSingle;
  const auto r32 = gd::solve_distributed(systems, bic, opt);
  EXPECT_EQ(r32.precision_fallbacks, 1);
  const int burnt = r32.fallback_iterations;
  EXPECT_GT(burnt, 0);                         // fp32 iterated, then stalled
  EXPECT_LT(burnt, opt.cg.max_iterations);     // ... detected early
  // All-attempts history: [1.0, fp32 residuals x burnt, 1.0, fp64 retry].
  // The retry draws on the SHARED iteration budget, so it replays the first
  // max_iterations - burnt residuals of the direct fp64 run bit for bit.
  ASSERT_EQ(r32.residual_history.size(),
            static_cast<std::size_t>(opt.cg.max_iterations) + 2);
  const std::vector<double> replay(r32.residual_history.begin() + burnt + 1,
                                   r32.residual_history.end());
  const std::vector<double> direct(r64.residual_history.begin(),
                                   r64.residual_history.begin() +
                                       static_cast<std::ptrdiff_t>(replay.size()));
  expect_bitwise_equal(direct, replay);
}

// ---------------------------------------------------------------------------
// One ladder: a failed fp64 re-set-up is a typed status in both solvers
// ---------------------------------------------------------------------------

TEST(PrecisionFallback, FailedFp64ResetupIsTypedStatusSerialAndDistributed) {
  // Every diagonal block is zero, so BIC(0) fails at set-up at either
  // precision. With resilience off, kSingle still arms the fp64 re-set-up;
  // when that fails too, both solvers report kFactorizationFailed after one
  // precision fallback instead of throwing.
  constexpr int kBlocks = 4;
  gs::BlockCSRBuilder bld(kBlocks);
  for (int i = 0; i < kBlocks; ++i) bld.add_pattern(i, i);
  bld.finalize_pattern();
  gf::System sys;
  sys.a = bld.take();
  sys.b.assign(sys.a.ndof(), 1.0);

  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC0;
  cfg.precision = Precision::kSingle;
  cfg.use_plan_cache = false;
  gcore::SolveReport rep;
  ASSERT_NO_THROW(rep = gcore::solve_system(sys, gc::build_supernodes(kBlocks, {}), cfg));
  EXPECT_EQ(rep.status, SolveStatus::kFactorizationFailed);
  EXPECT_EQ(rep.precision_fallbacks, 1);
  EXPECT_EQ(rep.fallback_iterations, 0);
  EXPECT_EQ(rep.cg.iterations, 0);
  ASSERT_EQ(rep.attempts.size(), 1u);
  EXPECT_EQ(rep.attempts[0], gcore::PrecondKind::kBIC0);

  const auto systems = gpart::distribute(sys.a, sys.b, gpart::by_node_blocks(kBlocks, 2));
  gd::DistOptions opt;
  opt.precision = Precision::kSingle;
  const auto res = gd::solve_distributed(
      systems,
      [](const gpart::LocalSystem&, const gs::BlockCSR& aii,
         Precision precision) -> gp::PreconditionerPtr {
        return std::make_unique<gp::BIC0>(aii, precision);
      },
      opt);
  EXPECT_EQ(res.status, SolveStatus::kFactorizationFailed);
  for (SolveStatus s : res.status_per_rank) EXPECT_EQ(s, SolveStatus::kFactorizationFailed);
  EXPECT_EQ(res.precision_fallbacks, 1);
  EXPECT_EQ(res.fallback_iterations, 0);
  EXPECT_EQ(res.iterations, 0);
}
