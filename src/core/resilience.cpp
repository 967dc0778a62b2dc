#include "core/resilience.hpp"

#include <algorithm>
#include <string>

#include "core/options.hpp"
#include "obs/registry.hpp"

namespace geofem {

std::vector<plan::PrecondKind> default_fallback_chain(plan::PrecondKind primary) {
  using K = plan::PrecondKind;
  switch (primary) {
    case K::kScalarIC0:
    case K::kBIC0:
    case K::kBIC1:
    case K::kBIC2:
      return {K::kSBBIC0, K::kBlockDiagonal};
    case K::kSBBIC0:
      return {K::kBlockDiagonal};
    case K::kDiagonal:
    case K::kBlockDiagonal:
      return {};
  }
  return {};
}

std::vector<plan::PrecondKind> fallback_chain(const ResilienceOptions& res,
                                              plan::PrecondKind primary) {
  std::vector<plan::PrecondKind> chain =
      res.chain.empty() ? default_fallback_chain(primary) : res.chain;
  std::erase(chain, primary);
  return chain;
}

bool fallback_armed(const core::SolveOptionsBase& opt) {
  return opt.resilience.enabled || opt.precision == precond::Precision::kSingle;
}

std::vector<LadderResult> run_fallback_ladder(const core::SolveOptionsBase& opt, int rungs,
                                              int columns, std::string_view prefix,
                                              const AttemptFn& attempt) {
  using precond::Precision;
  const ResilienceOptions& res = opt.resilience;
  const bool armed = fallback_armed(opt);
  obs::Registry* reg = obs::current();
  const auto count = [&](const char* event) {
    if (reg) reg->counter(std::string(prefix) + ".fallback." + event)->add(1);
  };

  // Resilience gives CG a stagnation window (unless the caller set one) so a
  // stalled attempt fails fast enough to leave budget for the fallback rungs;
  // an fp32 primary gets one regardless, so a stalled inexact M fails fast
  // instead of burning the budget the fp64 re-set-up needs.
  solver::CGOptions cg = opt.cg;
  if (res.enabled && cg.stagnation_window == 0) cg.stagnation_window = res.stagnation_window;
  const bool fp32 = opt.precision == Precision::kSingle;
  solver::CGOptions primary = cg;
  if (fp32 && primary.stagnation_window == 0) primary.stagnation_window = res.stagnation_window;

  const auto k = static_cast<std::size_t>(columns);
  std::vector<LadderResult> out(k);
  std::vector<AttemptOutcome> last(k);  // the last attempt that ran CG, per column
  // Every column starts not ok: the primary runs on all of them.
  std::vector<SolveStatus> st(k, SolveStatus::kFactorizationFailed);
  const auto run = [&](int rung, Precision precision, solver::CGStart start,
                       const solver::CGOptions& o, const std::vector<int>& cols) {
    if (cols.empty()) return;
    std::vector<AttemptOutcome> a;
    try {
      a = attempt(rung, precision, start, o, cols);
    } catch (const Error& e) {
      if (e.code() != StatusCode::kFactorizationFailed || !armed) throw;
      a.assign(cols.size(), AttemptOutcome{});
    }
    for (std::size_t j = 0; j < cols.size(); ++j) {
      const auto c = static_cast<std::size_t>(cols[j]);
      if (a[j].status != SolveStatus::kFactorizationFailed) {
        out[c].fallback_iterations += last[c].iterations;
        out[c].fallback_setup_seconds += last[c].setup_seconds;
        last[c] = a[j];
      }
      st[c] = a[j].status;
      // The resilience counters cover the fp64 attempts; the fp32 primary's
      // failure is counted as the precision fallback it triggers.
      if (res.enabled && precision == Precision::kDouble) {
        if (a[j].status == SolveStatus::kFactorizationFailed) {
          count("factorization_failed");
        } else if (!ok(a[j].status)) {
          count("attempts");
        } else if (rung > 0) {
          count("recovered");
        }
      }
    }
  };
  const auto failing = [&] {
    std::vector<int> cols;
    for (std::size_t c = 0; c < k; ++c)
      if (!ok(st[c])) cols.push_back(static_cast<int>(c));
    return cols;
  };

  run(0, opt.precision, solver::CGStart::kCold, primary, failing());
  if (fp32) {
    // The cold restart with the user's options is what makes the recovery's
    // residual history bit-identical to a direct fp64 solve (DESIGN.md §5i).
    const std::vector<int> cols = failing();
    for (int c : cols) {
      out[static_cast<std::size_t>(c)].precision_fallbacks = 1;
      count("precision");
    }
    run(0, Precision::kDouble, solver::CGStart::kCold, cg, cols);
  }
  if (res.enabled) {
    // The rungs rebuild at fp64: a fallback exists to restore convergence,
    // not to preserve the precision experiment.
    const int n = std::min(rungs, std::max(res.max_fallbacks, 0));
    for (int i = 1; i <= n; ++i) {
      const std::vector<int> cols = failing();
      for (int c : cols) out[static_cast<std::size_t>(c)].rungs = i;
      run(i, Precision::kDouble, solver::CGStart::kWarm, cg, cols);
    }
    for (SolveStatus s : st)
      if (!ok(s)) count("exhausted");
  }
  for (std::size_t c = 0; c < k; ++c) {
    const bool detour = out[c].precision_fallbacks > 0 || out[c].rungs > 0;
    out[c].status = detour && ok(st[c]) ? SolveStatus::kFellBack : st[c];
  }
  return out;
}

}  // namespace geofem
