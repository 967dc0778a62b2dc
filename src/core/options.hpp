#pragma once

#include "coarse/coarse.hpp"
#include "core/resilience.hpp"
#include "precond/desc.hpp"
#include "solver/cg.hpp"

namespace geofem::plan {
class PlanCache;
}

namespace geofem::core {

/// Knobs shared verbatim by the serial (core::SolveConfig) and distributed
/// (dist::DistOptions) solver entry points. Both embed this base by
/// inheritance, so callers keep the flat spelling (cfg.threads, opt.coarse)
/// while the two option structs can no longer drift apart field by field —
/// the duplication that had crept in between PR 3 and PR 7.
struct SolveOptionsBase {
  /// Inner CG controls (tolerance, max_iterations, record_residuals,
  /// stagnation_window) — one vocabulary for both solvers.
  solver::CGOptions cg;

  /// OpenMP team size of the hybrid kernels (SpMV, BLAS-1, substitution
  /// sweeps) and of the set-up inside the call (assembly, boundary
  /// conditions, PDJDS layout, SB-BIC(0) factorization); 0 = all hardware
  /// threads — the paper's "PEs per SMP node". Residual histories and every
  /// set-up array are bit-identical for any value (DESIGN.md §5e, §5l).
  int threads = 0;

  /// Overlap each matvec's interior-row SpMV with halo message delivery.
  /// Distributed solver only — the serial path has no halo exchange, so the
  /// flag is accepted and ignored there. Bit-identical on or off.
  bool overlap = true;

  /// Cache consulted for the structure-dependent set-up (coloring, DJDS
  /// layout, symbolic factorization). Semantics differ slightly per solver:
  /// the serial path substitutes plan::default_cache() when null (see
  /// SolveConfig::use_plan_cache), the distributed path only snapshots the
  /// stats of the cache passed to make_plan_factory.
  plan::PlanCache* plan_cache = nullptr;

  /// Automatic preconditioner fallback on stagnation / breakdown /
  /// factorization failure. Off by default: residual histories with the
  /// default options are bit-identical to a build without the resilience
  /// layer. All distributed fallback decisions are allreduced (lockstep).
  geofem::ResilienceOptions resilience;

  /// Two-level coarse-space correction (DESIGN.md §5h) wrapped around the
  /// preconditioner. A singular coarse operator degrades the solve to one
  /// level (coarse_status == kDegraded) — on every rank together — rather
  /// than failing it.
  coarse::Options coarse;

  /// Stored precision of the preconditioner factors (DESIGN.md §5i). CG
  /// always iterates in fp64; kSingle stores/applies the factors in fp32 —
  /// halving factor bandwidth and doubling AVX2 lane width — and arms an
  /// automatic fp64 re-setup: an fp32 attempt that stagnates or breaks down
  /// is rebuilt at full precision (cold restart, so the recovery's residual
  /// history is bit-identical to a direct fp64 solve) and reported as
  /// SolveStatus::kFellBack. The fp64 safety net is always on under kSingle,
  /// independent of resilience.enabled.
  precond::Precision precision = precond::Precision::kDouble;
};

}  // namespace geofem::core
