#pragma once

#include <span>
#include <vector>

#include "solver/cg.hpp"

namespace geofem::solver {

struct BatchedCGOptions {
  /// Shared solver controls: variant, stagnation window, residual recording
  /// and the iteration budget of every column. `cg.tolerance` is the default
  /// for every column (see `tolerances`).
  CGOptions cg;
  /// Optional per-column tolerance overrides; empty (all columns use
  /// cg.tolerance) or exactly k entries.
  std::vector<double> tolerances;
};

struct BatchedCGResult {
  /// Per-column outcome in the caller's column order. `status`, `iterations`,
  /// `relative_residual`, `variant_fallbacks` and (if requested)
  /// `residual_history` are per column; `flops` / `loops` / `solve_seconds`
  /// of each column are left empty — shared work is reported once in the
  /// fields below.
  std::vector<CGResult> columns;
  int iterations = 0;        ///< shared outer iterations executed
  int compactions = 0;       ///< number of batch repacks
  double solve_seconds = 0.0;
  util::FlopCounter flops;
  util::LoopStats loops;

  [[nodiscard]] bool all_converged() const {
    for (const auto& c : columns)
      if (!c.converged()) return false;
    return true;
  }
};

/// Batched preconditioned CG (DESIGN.md §5k): solves A x_c = b_c for k
/// right-hand sides on the one CG engine (solver::CGEngine) with k columns —
/// ONE SpMM and ONE multi-column preconditioner application per iteration,
/// per-column recurrences, per-column freezing at convergence, breakdown,
/// stagnation or the budget (the column's solution is emitted at freeze
/// time), and compaction of the live columns once at most half are live.
/// Every CGVariant and its kClassic retry run per column. `b` and `x` hold k
/// interleaved columns (dof-major, value(i, c) = b[i*k+c]); `x` holds initial
/// guesses on entry and solutions on return.
///
/// Contract: k == 1 delegates wholesale to solver::pcg through `amul`
/// (bit-identical solution AND residual history to a plain single-RHS
/// solve); k > 1 matches the per-column single solves to solver tolerance
/// but not bitwise (interleaved kernels fix a different lane shape). Once
/// compaction leaves one live column, iterations run the single-RHS kernels.
BatchedCGResult pcg_batched(const MatVec& amul, const MatVecMulti& amul_multi,
                            const precond::Preconditioner& m, std::span<const double> b,
                            std::span<double> x, int k, const BatchedCGOptions& opt = {});

/// Convenience overload for a serial BlockCSR system (spmv + spmm hooks).
BatchedCGResult pcg_batched(const sparse::BlockCSR& a, const precond::Preconditioner& m,
                            std::span<const double> b, std::span<double> x, int k,
                            const BatchedCGOptions& opt = {});

}  // namespace geofem::solver
