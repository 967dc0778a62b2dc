#pragma once

#include <memory>

#include "par/par.hpp"
#include "precond/preconditioner.hpp"
#include "simd/simd.hpp"
#include "sparse/block_csr.hpp"

namespace geofem::precond {

/// GeoFEM-style Block IC(0): M = (D~ + L) D~^-1 (D~ + L^T) where L is the
/// *unmodified* strict block lower triangle of A and the 3x3 block diagonals
/// are modified by the no-fill incomplete factorization
///   D~_i = A_ii - sum_{k < i, (i,k) in A} A_ik D~_k^-1 A_ik^T.
/// Set-up touches each lower block once (the paper's near-zero BIC(0) set-up
/// time); robustness collapses for large penalty because the +-lambda
/// off-diagonal blocks stay in L while D~ of contact rows becomes tiny.
class BIC0 final : public Preconditioner {
 public:
  /// `modified`: apply the classic IC(0) diagonal-correction recurrence.
  /// The default (false) keeps the plain block-SSOR diagonals D~ = A_ii:
  /// on non-M hexahedral elasticity matrices the corrections can cascade
  /// into near-singular blocks (kappa(M^-1 A) explodes on distorted meshes),
  /// while the plain form guarantees an SPD M with spectrum in (0, 1] —
  /// see bench_ablation_modified_diag for the measured comparison.
  /// `precision` selects the STORED form the substitution streams (the
  /// factorization itself always runs in fp64): kSingle keeps fp32 mirrors
  /// of D~^-1 and of the off-diagonal blocks of `a`, widening each block on
  /// load and accumulating in fp64; narrowing overflow throws
  /// Error(kFactorizationFailed).
  explicit BIC0(const sparse::BlockCSR& a, Precision precision = Precision::kDouble,
                bool modified = false);

  void apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
             util::LoopStats* loops) const override;

  /// Batched substitution (DESIGN.md §5k): one forward+backward schedule
  /// walk carrying k interleaved RHS columns per row, streaming the matrix
  /// values and D~^-1 once for all columns.
  void apply_multi(std::span<const double> r, std::span<double> z, int k,
                   util::FlopCounter* flops, util::LoopStats* loops) const override;

  [[nodiscard]] std::size_t memory_bytes() const override {
    return inv_d_.size() * sizeof(double) + (inv32_.size() + aval32_.size()) * sizeof(float);
  }
  [[nodiscard]] std::string name() const override { return desc().display_name(); }
  [[nodiscard]] Desc desc() const override {
    Desc d;
    d.kind = PrecondKind::kBIC0;
    d.precision = precision_;
    return d;
  }

 private:
  const sparse::BlockCSR& a_;
  Precision precision_ = Precision::kDouble;
  simd::aligned_vector<double> inv_d_;  ///< kBB per row: D~_i^-1 (kDouble only)
  /// fp32 storage (kSingle only): narrowed D~^-1 and a full narrowed mirror
  /// of the matrix values (the substitution reads a's off-diagonals in place).
  simd::aligned_vector<float> inv32_, aval32_;
  util::LoopStats apply_loops_;  ///< loop lengths of one apply, both sweeps
  par::LevelSchedule fwd_, bwd_;  ///< substitution dependency levels
};

/// Structure-only half of the block ILU(k) factorization: the level-of-fill
/// pattern plus a fully precomputed elimination schedule, so the numeric
/// phase runs with zero pattern searching. Built once per matrix graph and
/// shared (plan cache) across numeric refactorizations.
struct ILUkSymbolic {
  int n = 0;
  int fill_level = 0;
  // strict lower / strict upper patterns, columns ascending per row
  std::vector<int> lptr, lcol;
  std::vector<int> uptr, ucol;
  /// Per matrix entry (aligned with a.colind): slot of its column in the
  /// owning row's work table. Slot layout per row i: [0, nl) = L entries in
  /// lcol order, [nl, nl+nu) = U entries in ucol order, nl+nu = diagonal.
  std::vector<int> aslot;
  /// Per L entry e = (i,k): updates w_j -= L_ik * U_kj for every U entry of
  /// row k whose column j lies in row i's pattern. elim_src is the U entry
  /// index of U_kj; elim_dst the slot of j in row i's work table.
  std::vector<std::int64_t> elim_ptr;  ///< size lcol.size() + 1
  std::vector<int> elim_src, elim_dst;
  /// Substitution dependency levels of the L (forward) and U (backward)
  /// patterns, for the hybrid apply.
  par::LevelSchedule fwd, bwd;
  util::LoopStats apply_loops;  ///< loop lengths of one apply, both sweeps

  [[nodiscard]] std::size_t memory_bytes() const;
};

/// Symbolic phase of BlockILUk. Fill entry (i,j) is kept iff its level
/// min_k(lev_ik + lev_kj + 1) <= fill_level.
[[nodiscard]] std::shared_ptr<const ILUkSymbolic> iluk_symbolic(const sparse::BlockCSR& a,
                                                                int fill_level);

/// Block ILU(k) with level-of-fill symbolic factorization and full block LDU
/// numeric factorization — the paper's BIC(1)/BIC(2) (deep fill-in remedy).
class BlockILUk final : public Preconditioner {
 public:
  /// Cold set-up: symbolic + numeric. The numeric factorization always runs
  /// in fp64; `precision` = kSingle narrows the stored L/U/D~^-1 factors to
  /// fp32 (throwing Error(kFactorizationFailed) on overflow), with the
  /// substitution widening each block on load and accumulating in fp64.
  BlockILUk(const sparse::BlockCSR& a, int fill_level,
            Precision precision = Precision::kDouble);

  /// Numeric-only set-up on a previously computed (plan-cached) pattern.
  /// `a` must have the graph `sym` was built from; produces bit-identical
  /// factors to the cold constructor.
  BlockILUk(const sparse::BlockCSR& a, std::shared_ptr<const ILUkSymbolic> sym,
            Precision precision = Precision::kDouble);

  void apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
             util::LoopStats* loops) const override;

  /// Batched substitution (DESIGN.md §5k): one forward+backward walk of the
  /// fill pattern carrying k interleaved RHS columns per row, streaming the
  /// L/U/D~^-1 factors once for all columns.
  void apply_multi(std::span<const double> r, std::span<double> z, int k,
                   util::FlopCounter* flops, util::LoopStats* loops) const override;

  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] std::string name() const override { return desc().display_name(); }
  [[nodiscard]] Desc desc() const override {
    Desc d;
    if (sym_->fill_level == 1) {
      d.kind = PrecondKind::kBIC1;
    } else if (sym_->fill_level == 2) {
      d.kind = PrecondKind::kBIC2;
    } else {
      d.custom = "BIC(" + std::to_string(sym_->fill_level) + ")";
    }
    d.precision = precision_;
    return d;
  }

  /// Stored blocks in L + U (fill-in growth diagnostic).
  [[nodiscard]] std::size_t factor_blocks() const {
    return sym_->lcol.size() + sym_->ucol.size();
  }

 private:
  void numeric(const sparse::BlockCSR& a);

  std::shared_ptr<const ILUkSymbolic> sym_;
  Precision precision_ = Precision::kDouble;
  simd::aligned_vector<double> lval_;   ///< kBB per L pattern entry
  simd::aligned_vector<double> uval_;   ///< kBB per U pattern entry
  simd::aligned_vector<double> inv_d_;  ///< kBB per row: U_ii^-1
  /// fp32-stored factors (kSingle only; the fp64 arrays above stay empty)
  simd::aligned_vector<float> lval32_, uval32_, inv32_;
};

}  // namespace geofem::precond
