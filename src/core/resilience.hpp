#pragma once

#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "core/status.hpp"
#include "plan/fingerprint.hpp"
#include "precond/desc.hpp"
#include "solver/cg.hpp"

namespace geofem::core {
struct SolveOptionsBase;
}

namespace geofem {

/// Automatic preconditioner fallback with a retry budget (DESIGN.md §5d).
///
/// Off by default: with enabled = false a solve behaves exactly as before the
/// resilience layer existed — bit-identical residual histories, failures
/// surface as their raw SolveStatus. With enabled = true, a failed attempt
/// (stagnation, breakdown, exhausted iterations, factorization failure)
/// rebuilds the preconditioner with the next kind in the chain — through the
/// plan cache, so a fallback to a kind whose plan is already resident pays
/// only the numeric phase — and restarts CG warm from the best iterate so
/// far. A solve that converges this way reports SolveStatus::kFellBack.
struct ResilienceOptions {
  bool enabled = false;

  /// Maximum preconditioner rebuilds after the primary attempt.
  int max_fallbacks = 2;

  /// Stagnation window handed to the inner CG when the caller's CGOptions
  /// leave stagnation detection off (stagnation_window == 0). Without a
  /// window a stalled BIC(0) at high lambda burns the whole iteration budget
  /// before the chain can react. Healthy contact CG can plateau — even rise —
  /// for ~100 iterations before recovering, so the default window is well
  /// above that; a genuinely stagnant solve (Table 2's "did not converge"
  /// regime) makes no progress over any window.
  int stagnation_window = 200;

  /// Preconditioners tried in order after the primary kind fails. Empty
  /// selects default_fallback_chain(primary). Entries equal to the primary
  /// kind are skipped.
  std::vector<plan::PrecondKind> chain;
};

/// Default chain for a failing primary kind, ordered strongest-first:
/// everything falls back to SB-BIC(0) (robust for any penalty number, the
/// paper's Table 2), then to the unconditionally-applicable block diagonal;
/// SB-BIC(0) itself falls back straight to the block diagonal; the diagonal
/// kinds have nowhere further to go.
[[nodiscard]] std::vector<plan::PrecondKind> default_fallback_chain(plan::PrecondKind primary);

/// The fallback rungs of `primary` in order: `res.chain` (or the default
/// chain when it is empty) without the entries equal to `primary`.
[[nodiscard]] std::vector<plan::PrecondKind> fallback_chain(const ResilienceOptions& res,
                                                            plan::PrecondKind primary);

/// Whether a failed attempt has a next rung (resilience on, or fp32 factors
/// and their fp64 re-set-up): an armed solve turns a factorization failure
/// into kFactorizationFailed, a disarmed one lets the geofem::Error escape.
[[nodiscard]] bool fallback_armed(const core::SolveOptionsBase& opt);

/// What one attempt of the fallback ladder did for one column: its status,
/// the CG iterations it spent and its set-up seconds. The default is a
/// failed build.
struct AttemptOutcome {
  SolveStatus status = SolveStatus::kFactorizationFailed;
  int iterations = 0;
  double setup_seconds = 0.0;
};

/// One attempt: build the preconditioner of `rung` (0 = the primary; i >= 1
/// = the caller's i-th fallback rung) at `precision`, start CG from `start`
/// and run it with `cg` on `columns` (ascending indices of the caller's
/// right-hand sides). Returns one outcome per listed column. A failed build
/// throws Error(kFactorizationFailed) or returns that status; a distributed
/// caller returns it once every rank agrees the build failed.
using AttemptFn = std::function<std::vector<AttemptOutcome>(
    int rung, precond::Precision precision, solver::CGStart start, const solver::CGOptions& cg,
    std::span<const int> columns)>;

/// One column's way down the ladder.
struct LadderResult {
  /// The last attempt's status; kFellBack when it is ok after a detour.
  SolveStatus status = SolveStatus::kFactorizationFailed;
  int rungs = 0;  ///< resilience rungs attempted after the primary
  /// Iterations / set-up seconds of every attempt that ran CG, except the
  /// last one (whose result the caller reports).
  int fallback_iterations = 0;
  double fallback_setup_seconds = 0.0;
  int precision_fallbacks = 0;  ///< fp64 re-set-ups of an fp32 primary (0 or 1)
};

/// The fallback ladder of serial and distributed solves over `columns`
/// right-hand sides, in the paper's robustness order (Table 2):
///   1. the primary at opt.precision, cold start, on every column;
///   2. when that is fp32: one fp64 re-set-up of the primary, cold start,
///      with the user's CG options, on the columns that failed (counted as a
///      precision fallback);
///   3. with resilience on: rungs 1..min(rungs, max_fallbacks) at fp64, each
///      restarting warm on the columns not yet ok, until every column is ok.
/// Each step is one attempt call: one set-up shared by the columns it lists.
/// Resilience defaults the CG stagnation window from
/// opt.resilience.stagnation_window when the caller set none; an fp32 primary
/// gets that window even with resilience off. Factorization failures are
/// caught when fallback_armed(opt) and propagate otherwise. Events are
/// counted per column as `<prefix>.fallback.{precision,factorization_failed,
/// attempts,recovered,exhausted}` in obs::current(). Returns one result per
/// column.
[[nodiscard]] std::vector<LadderResult> run_fallback_ladder(const core::SolveOptionsBase& opt,
                                                            int rungs, int columns,
                                                            std::string_view prefix,
                                                            const AttemptFn& attempt);

}  // namespace geofem
