#pragma once

#include <cstdint>
#include <memory>

#include "par/par.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/block_csr.hpp"

namespace geofem::precond {

/// Structure-only half of the scalar IC(0): the scalar lower/upper CSR
/// expansion of the block matrix plus, per scalar entry, the flat index of
/// its source value in the block value array. The expansion drops exact-zero
/// off-diagonals, so the pattern is *value-dependent*: plan reuse assumes the
/// scalar zero pattern is stable across refactorizations (true for penalty
/// rescaling, where contact couplings scale but never vanish).
struct ScalarIC0Symbolic {
  int n = 0;  ///< scalar dimension (kB * block rows)
  std::vector<int> lptr, lcol;
  std::vector<int> uptr, ucol;
  // flat indices into BlockCSR::val (entry * kBB + r * kB + c)
  std::vector<std::int64_t> lsrc, usrc;
  std::vector<std::int64_t> dsrc;  ///< per scalar row: source of a_ii
  /// Substitution dependency levels over the scalar rows (hybrid apply).
  par::LevelSchedule fwd, bwd;
  util::LoopStats apply_loops;  ///< loop lengths of one apply, both sweeps

  [[nodiscard]] std::size_t memory_bytes() const;
};

/// Symbolic phase of ScalarIC0 (scalar expansion of the current zero pattern).
[[nodiscard]] std::shared_ptr<const ScalarIC0Symbolic> scalar_ic0_symbolic(
    const sparse::BlockCSR& a);

/// Point-wise (scalar) IC(0) of Table 2's "IC(0) (Scalar Type)" row:
/// M = (L + D) D^-1 (D + L^T) with L the strict scalar lower triangle of A
/// (unmodified) and the modified diagonal
///   d_i = a_ii - sum_{k < i, (i,k) in A} a_ik^2 / d_k.
/// Non-positive modified diagonals are reset to the original a_ii (classic
/// breakdown remedy) — the preconditioner stays usable but weak, which is
/// exactly the paper-observed behaviour on large-penalty matrices.
class ScalarIC0 final : public Preconditioner {
 public:
  explicit ScalarIC0(const sparse::BlockCSR& a, Precision precision = Precision::kDouble);

  /// Numeric-only set-up on a previously computed (plan-cached) scalar
  /// pattern. `a` must have the same scalar zero pattern `sym` was built
  /// from; produces bit-identical factors to the cold constructor.
  ScalarIC0(const sparse::BlockCSR& a, std::shared_ptr<const ScalarIC0Symbolic> sym,
            Precision precision = Precision::kDouble);

  void apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
             util::LoopStats* loops) const override;

  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] std::string name() const override { return desc().display_name(); }
  [[nodiscard]] Desc desc() const override {
    Desc d;
    d.kind = PrecondKind::kScalarIC0;
    d.precision = precision_;
    return d;
  }

  /// Number of diagonal entries that hit the breakdown reset.
  [[nodiscard]] int breakdowns() const { return breakdowns_; }

 private:
  void numeric(const sparse::BlockCSR& a);
  template <class T>
  void apply_impl(const T* lval, const T* uval, const T* inv_d, const double* r, double* z,
                  int team) const;

  std::shared_ptr<const ScalarIC0Symbolic> sym_;
  Precision precision_ = Precision::kDouble;
  std::vector<double> lval_, uval_;
  std::vector<double> inv_d_;
  /// fp32-stored factors (kSingle only; the substitution accumulates in fp64)
  simd::aligned_vector<float> lval32_, uval32_, inv32_;
  int breakdowns_ = 0;
};

}  // namespace geofem::precond
