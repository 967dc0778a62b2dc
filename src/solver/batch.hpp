#pragma once

#include <functional>
#include <span>
#include <vector>

#include "solver/cg.hpp"

namespace geofem::solver {

/// Y = A X multi-vector hook for the batched solve path (DESIGN.md §5k):
/// X and Y hold k interleaved RHS columns (value(dof i, column c) = X[i*k+c]).
/// Implementations forward to BlockCSR::spmm / DJDSMatrix::spmm.
using MatVecMulti = std::function<void(std::span<const double>, std::span<double>, int,
                                       util::FlopCounter*, util::LoopStats*)>;

struct BatchedCGOptions {
  /// Shared solver controls. `cg.tolerance` is the default for every column
  /// (see `tolerances`); `cg.max_iterations` bounds the shared outer loop.
  /// Restrictions for k > 1: only CGVariant::kClassic is supported (checked)
  /// and `stagnation_window` is ignored — frozen-column masking has no analog
  /// of the single-RHS stagnation ring. Batch-of-1 delegates to solver::pcg
  /// and honors every option bit-identically.
  CGOptions cg;
  /// Optional per-column tolerance overrides; empty (all columns use
  /// cg.tolerance) or exactly k entries.
  std::vector<double> tolerances;
  /// Compact the working batch (repack live columns, shrink the interleaved
  /// stride) once active columns <= compact_threshold * current width. <= 0
  /// disables compaction. Compaction never changes which columns converge,
  /// but it MAY perturb a live column's trajectory in the last bits (a column
  /// can move between an AVX2 lane group and the scalar tail); results stay
  /// deterministic because freeze points — and therefore compaction points —
  /// are themselves deterministic.
  double compact_threshold = 0.5;
};

struct BatchedCGResult {
  /// Per-column outcome in the caller's column order. `status`, `iterations`,
  /// `relative_residual` and (if requested) `residual_history` are per
  /// column; `flops` / `loops` / `solve_seconds` of each column are left
  /// empty — shared work is reported once in the fields below.
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

/// Batched preconditioned CG: solves A x_c = b_c for k right-hand sides with
/// ONE SpMM and ONE multi-column preconditioner application per iteration,
/// per-column alpha/beta/rho recurrences, and per-column convergence masking
/// (a converged or broken-down column freezes: its solution is emitted at
/// freeze time and the masked updates never touch it again). `b` and `x`
/// hold k interleaved columns (dof-major, value(i, c) = b[i*k+c]); `x` holds
/// initial guesses on entry and solutions on return.
///
/// Contract: k == 1 delegates wholesale to solver::pcg through `amul`
/// (bit-identical solution AND residual history to a plain single-RHS
/// solve); k > 1 matches the per-column single solves to solver tolerance
/// but not bitwise (interleaved kernels fix a different lane shape). Once
/// compaction leaves one live column, iterations run `amul` and
/// Preconditioner::apply instead of their k = 1 multi-RHS forms.
BatchedCGResult pcg_batched(const MatVec& amul, const MatVecMulti& amul_multi,
                            const precond::Preconditioner& m, std::span<const double> b,
                            std::span<double> x, int k, const BatchedCGOptions& opt = {});

/// Convenience overload for a serial BlockCSR system (spmv + spmm hooks).
BatchedCGResult pcg_batched(const sparse::BlockCSR& a, const precond::Preconditioner& m,
                            std::span<const double> b, std::span<double> x, int k,
                            const BatchedCGOptions& opt = {});

}  // namespace geofem::solver
