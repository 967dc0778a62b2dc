#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "contact/penalty.hpp"
#include "par/par.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/block_csr.hpp"
#include "sparse/dense.hpp"
#include "util/loop_stats.hpp"

namespace geofem::precond {

/// Structure-only half of the selective-blocking preconditioner, built once
/// per (graph, supernode map) and shared across numeric refactorizations:
/// per-supernode dense dimensions plus flattened scatter schedules mapping
/// matrix entries into the dense intra-block and coupling work arrays.
struct SBSymbolic {
  int n = 0;             ///< block rows of the source matrix
  bool modified = false; ///< whether inter-supernode corrections are applied
  std::vector<int> dims; ///< per supernode: kB * member count (kB = singleton)

  /// Intra-supernode scatter: A entries with both endpoints in supernode s
  /// land at dwork[off + r*dim + c] for block element (r, c).
  std::vector<std::int64_t> intra_ptr;  ///< size ns + 1
  std::vector<int> intra_entry;         ///< A entry index
  std::vector<std::int64_t> intra_off;  ///< (kB*t)*dim + kB*tj

  /// Earlier-neighbour couplings (modified path only; empty otherwise),
  /// K ascending per supernode — the elimination order of the corrections.
  std::vector<int> coup_ptr;             ///< size ns + 1, into coup_k
  std::vector<int> coup_k;               ///< earlier supernode id K
  std::vector<std::int64_t> gather_ptr;  ///< size coup_k.size() + 1
  std::vector<int> gather_entry;         ///< A entry index of an A_SK block
  std::vector<std::int64_t> gather_off;  ///< (kB*t)*dimk + kB*tj

  [[nodiscard]] std::size_t memory_bytes() const;
};

/// Symbolic phase of the selective-blocking factorization.
[[nodiscard]] std::shared_ptr<const SBSymbolic> sb_symbolic(const sparse::BlockCSR& a,
                                                            const contact::Supernodes& sn,
                                                            bool modified = false);

/// Numeric phase: factor the selective-block diagonals on a precomputed
/// schedule. Produces bit-identical factors to sb_factor_diagonals. Without
/// the modified corrections every block is factored on its own, on the
/// caller's team (par::threads()), to the same bits for every team size; a
/// singular block throws Error(kFactorizationFailed) from the calling thread.
[[nodiscard]] std::vector<sparse::DenseLU> sb_factor_numeric(const sparse::BlockCSR& a,
                                                             const SBSymbolic& sym);

/// Selective blocking preconditioner SB-BIC(0) (paper §3): strongly coupled
/// nodes of each contact group form one selective block (supernode); the
/// supernode diagonal blocks (3*NB x 3*NB) are factored by *full* dense LU —
/// a direct solve inside each contact group — while couplings between
/// supernodes keep the original values with no inter-block fill-in:
///
///   M = (D~ + L)  D~^-1  (D~ + L^T),
///   D~_S = A_SS - sum_{K < S, (S,K) in A} A_SK D~_K^-1 A_SK^T  (dense in S).
///
/// Memory stays at BIC(0) level (only intra-block fill), but the penalty
/// couplings, which live entirely inside supernodes, are eliminated exactly,
/// making convergence independent of the penalty number lambda.
/// Factor the selective-block diagonals D~_S (ascending supernode id =
/// elimination order) with BIC(0)-style corrections restricted to the
/// original inter-supernode pattern. Shared by the CSR-path SBBIC0 and the
/// PDJDS/MC vectorized preconditioner.
std::vector<sparse::DenseLU> sb_factor_diagonals(const sparse::BlockCSR& a,
                                                 const contact::Supernodes& sn,
                                                 bool modified = false);

/// Structure-only half of the natural-ordering SBBIC0 (DESIGN.md §5c), built
/// once per (graph, supernode map) and shared by every numeric
/// refactorization: the factor schedule plus everything the substitution
/// walks — supernode level schedules, each member row's split coupling
/// lists and the loop pattern of one apply.
struct SBBIC0Symbolic {
  std::shared_ptr<const SBSymbolic> sb;  ///< selective-block factor schedule

  /// One off-supernode block of a member row: A entry index and column node.
  struct Coupling {
    int entry;
    int col;
  };
  par::LevelSchedule fwd, bwd;  ///< supernode dependency levels per sweep
  /// Member rows of supernode s are rows row_ptr[s] .. row_ptr[s+1] of
  /// row_node (member order), so a supernode's rows — and their coupling
  /// lists — are contiguous.
  std::vector<int> row_ptr;   ///< size ns + 1
  std::vector<int> row_node;  ///< member node of each row
  /// Per member row q: couplings to earlier supernodes (forward sweep) at
  /// lower[lower_ptr[q] ..), to later ones (backward sweep) at
  /// upper[upper_ptr[q] ..), each in the row's own entry order.
  std::vector<int> lower_ptr, upper_ptr;  ///< size row_node.size() + 1
  std::vector<Coupling> lower, upper;
  util::LoopStats apply_loops;  ///< loop lengths of one apply, both sweeps

  [[nodiscard]] std::size_t memory_bytes() const;
};

/// Symbolic phase of SBBIC0 for matrix `a`'s graph and supernode map `sn`.
[[nodiscard]] std::shared_ptr<const SBBIC0Symbolic> sbbic0_symbolic(
    const sparse::BlockCSR& a, const contact::Supernodes& sn, bool modified = false);

class SBBIC0 final : public Preconditioner {
 public:
  /// `a` must outlive this preconditioner (the substitution reads its
  /// off-diagonal blocks in place). Builds its own symbolic (factor schedule
  /// and sweep structure) from `a`'s graph and `sn`.
  /// `precision` selects the STORED form the substitution streams — the
  /// factorization always runs in fp64; kSingle keeps narrowed dense LU
  /// factors and a narrowed mirror of the matrix values, widening on load
  /// and accumulating in fp64, and throws Error(kFactorizationFailed) on
  /// narrowing overflow.
  SBBIC0(const sparse::BlockCSR& a, const contact::Supernodes& sn, bool modified = false,
         Precision precision = Precision::kDouble);

  /// Numeric-only set-up on a previously computed (plan-held) symbolic:
  /// factor + pack, no structure work. `sym` must have been built from
  /// `a`'s graph and `sn`.
  SBBIC0(const sparse::BlockCSR& a, const contact::Supernodes& sn,
         std::shared_ptr<const SBBIC0Symbolic> sym, Precision precision = Precision::kDouble);

  void apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
             util::LoopStats* loops) const override;

  /// Batched substitution (DESIGN.md §5k): ONE forward+backward schedule walk
  /// carrying k interleaved RHS columns per supernode, so the matrix values
  /// and dense factors are streamed once for all k columns. In the scalar
  /// tier k = 2..4 (the service's batch widths) run kernels compiled for
  /// that width (simd::with_fixed_width); other widths take the runtime-k
  /// loop. Per column the arithmetic is the same either way.
  void apply_multi(std::span<const double> r, std::span<double> z, int k,
                   util::FlopCounter* flops, util::LoopStats* loops) const override;

  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] std::string name() const override { return desc().display_name(); }
  [[nodiscard]] Desc desc() const override {
    Desc d;
    d.kind = PrecondKind::kSBBIC0;
    d.precision = precision_;
    return d;
  }

  /// Largest selective block (FEM nodes).
  [[nodiscard]] int max_block_nodes() const {
    return *std::max_element(sym_->sb->dims.begin(), sym_->sb->dims.end()) / sparse::kB;
  }

  /// Supernode dependency levels the hybrid forward / backward sweeps walk
  /// (held by the symbolic, so shared by every numeric factorization of it).
  [[nodiscard]] const par::LevelSchedule& forward_schedule() const { return sym_->fwd; }
  [[nodiscard]] const par::LevelSchedule& backward_schedule() const { return sym_->bwd; }

 private:
  /// Pack the singleton factors (releasing their DenseLU objects) and, for
  /// kSingle, narrow the rest and the matrix value mirror.
  void store_factors();

  /// Level-scheduled substitution, 3x3 accumulator chosen once per apply
  /// (simd::ScalarAcc3 reproduces the historical arithmetic bit-for-bit).
  /// `aval` is the block value array streamed by the sweeps (a_.val or its
  /// fp32 mirror); `lus` the per-supernode solvers and `lu3` the packed
  /// singleton factors of the matching storage.
  template <class Acc, class T, class LuVec>
  void apply_impl(const T* aval, const LuVec& lus, const T* lu3, const double* r, double* z,
                  int team) const;

  /// Multi-RHS twin of apply_impl: same schedules, simd::b3k_* kernels with
  /// the lane axis over RHS columns (UseAvx selected once per apply). KC > 0
  /// fixes the column count at compile time (k must equal it); KC = 0 reads k.
  template <int KC, bool UseAvx, class T, class LuVec>
  void apply_multi_impl(const T* aval, const LuVec& lus, const T* lu3, const double* r,
                        double* z, int k, int team) const;

  const sparse::BlockCSR& a_;
  std::shared_ptr<const SBBIC0Symbolic> sym_;
  Precision precision_ = Precision::kDouble;
  /// Generic solvers of the multi-node supernodes (kDouble only; singleton
  /// slots are empty).
  std::vector<sparse::DenseLU> lu_;
  /// Singleton factors packed simd::kLu3Coefs a supernode (slots of
  /// multi-node supernodes unused), solved by a replay bit-identical to
  /// DenseLU::solve / DenseSolveT<float>::solve: lu3_ for kDouble, lu3f_
  /// narrowed for kSingle.
  simd::aligned_vector<double> lu3_;
  simd::aligned_vector<float> lu3f_;
  /// fp32 storage (kSingle only): narrowed multi-node solvers (singleton
  /// slots empty) plus the narrowed matrix value mirror the sweeps read in
  /// place.
  std::vector<sparse::DenseSolveT<float>> lu32_;
  simd::aligned_vector<float> aval32_;
  double lu_solve_flops_ = 0.0;  ///< sum of per-supernode solve FLOPs
};

}  // namespace geofem::precond
