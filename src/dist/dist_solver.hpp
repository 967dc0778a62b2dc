#pragma once

#include <functional>

#include "coarse/coarse.hpp"
#include "core/options.hpp"
#include "core/resilience.hpp"
#include "core/status.hpp"
#include "dist/comm.hpp"
#include "obs/registry.hpp"
#include "part/local_system.hpp"
#include "plan/cache.hpp"
#include "precond/preconditioner.hpp"
#include "solver/cg.hpp"

namespace geofem::dist {

/// Builds the localized preconditioner of one domain at the requested stored
/// precision. Receives the local system and its internal-by-internal
/// submatrix (external couplings zeroed — the "localized" part); closes over
/// whatever else it needs (e.g. global contact groups for SB-BIC(0)). The
/// precision argument is how the solver re-requests an fp64 build after an
/// fp32 attempt stagnates or breaks down — factories that only support fp64
/// may ignore it.
using PrecondFactory = std::function<precond::PreconditionerPtr(
    const part::LocalSystem&, const sparse::BlockCSR&, precond::Precision)>;

/// Shared solver knobs (cg, threads, overlap, plan_cache, resilience, coarse,
/// precision) come from core::SolveOptionsBase — the same base
/// core::SolveConfig embeds — so the serial and distributed entry points
/// cannot drift apart. Distributed-specific notes on the inherited fields:
///   * resilience — the serial solver's ladder (geofem::run_fallback_ladder)
///     with factories for rungs: `fallback_factory` (when set), then the
///     built-in localized block diagonal, up to resilience.max_fallbacks
///     rebuilds, CG restarting warm after each. resilience.chain (a
///     PrecondKind list) is not consulted: this solver builds
///     preconditioners through factories, not kinds. All fallback decisions
///     derive from allreduced quantities (lockstep); with telemetry on, the
///     `dist.fallback.*` counters land in each rank's registry.
///   * cg — CG runs on solver::CGEngine, the engine serial pcg() uses, bound
///     to this rank's halo-overlapped matvec, coarse-aware preconditioner and
///     Comm's allreduces; a 1-domain run is bit-identical to pcg(). kClassic
///     keeps the three blocking allreduces per iteration; kGropp/kPipelined
///     post split-phase reductions (Comm::iallreduce_sum) that complete
///     behind the preconditioner application and SpMV. Breakdown/stagnation
///     in a non-classic variant retries with kClassic on the same
///     preconditioner (warm restart, lockstep) before any
///     precision/preconditioner fallback. Every attempt and rung draws on one
///     shared cg.max_iterations budget.
///   * plan_cache — only snapshotted into DistResult::plan_cache; pass the
///     cache given to make_plan_factory (one plan per rank).
///   * precision — forwarded to the PrecondFactory; an fp32 attempt that
///     stagnates/breaks down is rebuilt at fp64 on every rank together
///     (allreduced decision), restarting cold so the recovery replays a
///     direct fp64 run's residuals on the remaining budget. A failed fp64
///     build ends the solve kFactorizationFailed, as in the serial solver.
struct DistOptions : core::SolveOptionsBase {
  /// Collect per-rank telemetry registries and gather them to rank 0
  /// (DistResult::obs_per_rank / obs_merged). Spans wrap set-up and the
  /// whole solve, and inside it the CG engine's per-phase pcg.spmv /
  /// pcg.precond / pcg.blas1 / pcg.overlap spans of every iteration.
  bool telemetry = true;
  PrecondFactory fallback_factory;
  /// Injected communication faults plus the blocking-operation deadline that
  /// turns a lost message into geofem::Error(kCommTimeout) — surfaced as
  /// SolveStatus::kCommTimeout on every rank — instead of a hang.
  FaultPlan faults;
  /// Contact groups in GLOBAL node ids, consulted when
  /// coarse.aggregates == kPerContactGroup (groups of >= 2 nodes each get
  /// their own aggregate on top of the per-domain base).
  std::vector<std::vector<int>> coarse_groups;
};

struct DistResult {
  /// Outcome of the run: rank 0's status, except that any rank timing out
  /// makes the whole result kCommTimeout. On kCommTimeout, `iterations`,
  /// `relative_residual` and `residual_history` reflect rank 0's progress up
  /// to the deadline (relative_residual is NaN when the timeout struck before
  /// the first residual norm).
  SolveStatus status = SolveStatus::kMaxIterations;
  std::vector<SolveStatus> status_per_rank;
  /// CG iterations of every attempt before the last one that ran CG (zero
  /// for a direct solve); `iterations` counts all attempts.
  int fallback_iterations = 0;
  /// fp32 attempts re-set-up at fp64 after stagnation/breakdown (0 or 1;
  /// identical on every rank — the decision is allreduced).
  int precision_fallbacks = 0;
  /// Gropp/pipelined attempts that broke down or stagnated and were retried
  /// with the classic loop on the same preconditioner (warm restart; identical
  /// on every rank — the decision derives from allreduced scalars). This rung
  /// sits BEFORE the precision and preconditioner fallbacks: a delicate
  /// reordered-arithmetic variant must not trigger an expensive rebuild when
  /// the reference arithmetic would have converged.
  int variant_fallbacks = 0;
  int iterations = 0;
  double relative_residual = 0.0;
  /// Relative residual per iteration across all attempts (identical on every
  /// rank — recorded when DistOptions::cg.record_residuals).
  std::vector<double> residual_history;
  double solve_seconds = 0.0;       ///< wall clock of the whole parallel solve
  double setup_seconds_max = 0.0;   ///< slowest rank's preconditioner set-up
  std::vector<util::FlopCounter> flops_per_rank;
  std::vector<util::LoopStats> loops_per_rank;
  /// The solve's communication per rank; the telemetry gather is excluded.
  std::vector<TrafficStats> traffic_per_rank;
  std::vector<std::size_t> precond_bytes_per_rank;
  /// Telemetry (empty when DistOptions::telemetry is off): every rank's
  /// registry snapshot, serialized through Comm::gather to rank 0, and the
  /// min/max/mean merge — the paper's per-PE load-imbalance view (Fig 29).
  std::vector<obs::Snapshot> obs_per_rank;
  obs::MergedReport obs_merged;
  /// Snapshot of DistOptions::plan_cache after the run (zero when unset).
  plan::CacheStats plan_cache;
  /// Two-level coarse correction outcome (kOff unless DistOptions::coarse
  /// .enabled; identical on every rank — the degrade decision is allreduced).
  coarse::SetupStatus coarse_status = coarse::SetupStatus::kOff;
  int coarse_dim = 0;  ///< coarse DOFs (3 per aggregate) when active

  [[nodiscard]] bool converged() const { return ok(status); }

  [[nodiscard]] util::FlopCounter total_flops() const {
    util::FlopCounter t;
    for (const auto& f : flops_per_rank) t += f;
    return t;
  }
};

/// Parallel preconditioned CG over GeoFEM local systems: halo exchange on the
/// communication tables before each matvec, purely local preconditioning,
/// allreduce dot products (paper §2) — the serial CG engine with those three
/// operations bound. One simulated-MPI rank per domain.
/// If `x_global` is non-null it receives the assembled solution (size = total
/// DOF) on exit.
DistResult solve_distributed(const std::vector<part::LocalSystem>& systems,
                             const PrecondFactory& factory, const DistOptions& opt = {},
                             std::vector<double>* x_global = nullptr);

/// Batched distributed entry (DESIGN.md §5k): k right-hand-side columns on
/// one partition, one DistResult per column. `rhs[c][r]` replaces
/// systems[r].b for column c (same size, num_internal * 3); the systems'
/// own b vectors are restored before returning. If `x_global` is non-null it
/// receives one assembled global solution per column.
///
/// Column 0 runs exactly as solve_distributed on the same inputs —
/// batch-of-1 is bit-identical by construction. k > 1 currently solves the
/// columns sequentially through the single-RHS driver (each column keeps the
/// full resilience/variant/precision ladder); a multi-vector halo exchange
/// that shares one communication round across columns is the natural
/// follow-up behind this same API.
std::vector<DistResult> solve_distributed_batched(
    std::vector<part::LocalSystem>& systems, const PrecondFactory& factory,
    const std::vector<std::vector<std::vector<double>>>& rhs, const DistOptions& opt = {},
    std::vector<std::vector<double>>* x_global = nullptr);

/// Plan-cached localized preconditioner factory: restricts `global_groups` to
/// the rank's internal nodes, fetches the rank's plan from `cache` (distinct
/// local graphs hash to distinct keys, so ranks never share a plan), and
/// refactors numerically. Repeated solve_distributed() calls on the same
/// partition hit the cache on every rank. Natural ordering only.
[[nodiscard]] PrecondFactory make_plan_factory(plan::PlanCache& cache, plan::PlanConfig cfg,
                                               std::vector<std::vector<int>> global_groups);

}  // namespace geofem::dist
