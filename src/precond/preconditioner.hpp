#pragma once

#include <memory>
#include <span>
#include <string>

#include "precond/desc.hpp"
#include "util/flops.hpp"
#include "util/loop_stats.hpp"

namespace geofem::precond {

/// Interface of all preconditioners M: apply() computes z = M^-1 r.
/// Implementations count FLOPs and record innermost-loop lengths so the
/// benchmark harness can report paper-style rates.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  virtual void apply(std::span<const double> r, std::span<double> z,
                     util::FlopCounter* flops = nullptr,
                     util::LoopStats* loops = nullptr) const = 0;

  /// Z = M^-1 R for k interleaved RHS columns (value(dof i, col c) =
  /// R[i*k + c]; DESIGN.md §5k). The default de-interleaves each column and
  /// forwards to apply() — correct for any implementation, no bandwidth
  /// amortization. The substitution-sweep preconditioners (SB-BIC(0),
  /// BIC(k), block diagonal) override it with one schedule walk carrying k
  /// columns per node, so factors are streamed once per batched iteration.
  /// Column c of a k-column apply_multi equals a one-column apply_multi of
  /// that column bit-for-bit only for the default; overrides keep columns
  /// independent but round per the multi-RHS kernels — the batched solver
  /// never mixes per-column arithmetic, and the batch-of-1 solve path
  /// bypasses apply_multi entirely.
  virtual void apply_multi(std::span<const double> r, std::span<double> z, int k,
                           util::FlopCounter* flops = nullptr,
                           util::LoopStats* loops = nullptr) const;

  /// Bytes held by the preconditioner itself (factors, indices), excluding
  /// the system matrix.
  [[nodiscard]] virtual std::size_t memory_bytes() const = 0;

  /// Wall-clock set-up cost is measured by the caller; this reports the name
  /// used in tables ("BIC(1)", "SB-BIC(0)", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Structured identity (kind, stored precision, PDJDS, coarse level) —
  /// what reports/telemetry/plan keys carry instead of parsing name(). The
  /// library's preconditioners override this and derive name() from it
  /// (Desc::display_name renders in one place); external implementations
  /// (test doubles, fault wrappers) fall back to a custom-named Desc.
  [[nodiscard]] virtual Desc desc() const {
    Desc d;
    d.custom = name();
    return d;
  }
};

using PreconditionerPtr = std::unique_ptr<Preconditioner>;

/// Loop lengths of one forward + backward substitution over a strict lower
/// (`lptr`) and strict upper (`uptr`) CSR pattern: each row contributes one
/// loop per sweep over its off-diagonal entries plus the diagonal. Structure
/// only, so the symbolic phase builds it once and every apply merges it.
[[nodiscard]] util::LoopStats substitution_loops(std::span<const int> lptr,
                                                 std::span<const int> uptr);

}  // namespace geofem::precond
