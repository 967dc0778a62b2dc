#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "contact/penalty.hpp"
#include "precond/preconditioner.hpp"
#include "precond/sb_bic0.hpp"
#include "reorder/djds.hpp"
#include "simd/lu3.hpp"
#include "sparse/block_csr.hpp"

namespace geofem::precond {

/// Structure-only half of the PDJDS/MC SB-BIC(0) set-up (DESIGN.md §5c),
/// built once per DJDS layout and shared by every numeric refactorization:
/// the ordering units of each (color, PE) chunk, split into runs of
/// singleton units (packed lane-parallel 3x3 solves) and multi-node
/// supernodes (generic dense LU); the selective-block gather schedule; and
/// the structural loop and FLOP statistics of one apply.
struct DJDSSymbolic {
  /// An ordering unit (or, in `runs`, a run of consecutive singleton units):
  /// first new row, node count, and unit id (= elimination order = index of
  /// its factor). Units of a chunk occupy consecutive rows and ids.
  struct Unit {
    int start;
    int size;
    int id;
  };
  struct Chunk {
    std::vector<Unit> runs;  ///< maximal runs of singleton units (size = run length)
    std::vector<Unit> rest;  ///< multi-node supernodes
  };
  std::vector<Chunk> chunks;
  /// Selective-block schedule over the ORIGINAL matrix, with supernode u =
  /// ordering unit u and its members in new-row order (mapped through
  /// DJDSMatrix::iperm), so the factorization needs no permuted copy.
  std::shared_ptr<const SBSymbolic> sb;
  bool has_blocks = false;  ///< any multi-node unit
  util::LoopStats jagged_loops;  ///< jagged-diagonal loops of one apply sweep
  util::LoopStats batch_loops;   ///< same-size unit solve batches of one sweep
  util::LoopStats struct_loops;  ///< both of the above
  double block_solve_flops = 0.0;  ///< unit solves, forward + backward
  std::uint64_t apply_flops = 0;   ///< everything one apply() executes

  [[nodiscard]] std::size_t memory_bytes() const;
};

/// Symbolic phase of DJDSBIC for matrix `a` (original ordering) and the
/// layout `dj` built from it.
[[nodiscard]] std::shared_ptr<const DJDSSymbolic> djds_symbolic(const sparse::BlockCSR& a,
                                                                const reorder::DJDSMatrix& dj);

/// PDJDS/MC vectorized form of BIC(0) / SB-BIC(0) (paper Fig 13 + §4.7):
/// forward/backward substitution sweeps colors sequentially, distributes the
/// (color, PE) chunks over OpenMP threads, and runs the long jagged-diagonal
/// loops innermost. Selective-block diagonals are solved by dense LU, batched
/// by block size (Fig 22). Works entirely in the DJDS (new) ordering: the
/// r/z vectors passed to apply() must be permuted with DJDSMatrix::perm().
///
/// Whether this is "BIC(0)" or "SB-BIC(0)" is decided by the supernodes the
/// DJDSMatrix was built with: singleton supernodes give plain BIC(0).
///
/// apply() keeps per-instance staging vectors, so one instance must not be
/// applied from two threads at once.
class DJDSBIC final : public Preconditioner {
 public:
  /// `a` is the matrix in the ORIGINAL ordering (the same one `dj` was built
  /// from); factorization runs in the DJDS elimination order — always in
  /// fp64. `precision` selects the STORED form the sweeps stream: kSingle
  /// narrows the jagged values, the packed 3x3 solves and the unit LU
  /// factors to fp32 (8-lane AVX2 sweeps, half the factor bandwidth) and
  /// throws Error(kFactorizationFailed) if any factor overflows fp32 range.
  DJDSBIC(const sparse::BlockCSR& a, const reorder::DJDSMatrix& dj,
          Precision precision = Precision::kDouble);

  /// Numeric-only set-up on a previously computed (plan-held) symbolic;
  /// `sym` must come from djds_symbolic on `a`'s graph and `dj`.
  DJDSBIC(const sparse::BlockCSR& a, const reorder::DJDSMatrix& dj,
          std::shared_ptr<const DJDSSymbolic> sym, Precision precision = Precision::kDouble);

  void apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
             util::LoopStats* loops) const override;

  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] std::string name() const override { return desc().display_name(); }
  [[nodiscard]] Desc desc() const override {
    Desc d;
    d.kind = sym_->has_blocks ? PrecondKind::kSBBIC0 : PrecondKind::kBIC0;
    d.pdjds = true;
    d.precision = precision_;
    return d;
  }

  [[nodiscard]] Precision precision() const { return precision_; }

  /// fp64 LU factor of every ordering unit, by unit id (ascending new row).
  [[nodiscard]] const std::vector<sparse::DenseLU>& unit_factors() const { return lu_; }
  /// Packed singleton solves per chunk (kDouble; empty for kSingle).
  [[nodiscard]] const std::vector<simd::PackedLU3>& singleton_packs() const { return chunk_lu3_; }

  /// Innermost vector-loop lengths of one apply() sweep (jagged loops plus
  /// same-size selective-block solve batches); structural, data-independent.
  [[nodiscard]] const util::LoopStats& structural_loops() const { return sym_->struct_loops; }

  /// Jagged-diagonal loops only (one apply sweep).
  [[nodiscard]] const util::LoopStats& jagged_loops() const { return sym_->jagged_loops; }
  /// Same-size selective-block solve batches only (one apply sweep). On the
  /// Earth Simulator these are the loops the Fig 22 size sort exists for:
  /// a batch of equal-size dense solves vectorizes across the batch; ragged
  /// batches fall back to scalar execution.
  [[nodiscard]] const util::LoopStats& batch_loops() const { return sym_->batch_loops; }
  /// FLOPs of all selective-block dense solves in one apply sweep.
  [[nodiscard]] double block_solve_flops() const { return sym_->block_solve_flops; }

 private:
  /// Forward then backward sweep at stored precision T, staged in `z`/`w`
  /// (T = double: `z` is the caller's output).
  template <class T>
  void substitute(const double* r, T* z, T* w) const;

  const reorder::DJDSMatrix& dj_;
  std::shared_ptr<const DJDSSymbolic> sym_;
  Precision precision_ = Precision::kDouble;
  std::vector<sparse::DenseLU> lu_;  ///< per ordering unit, by unit id
  /// Runs of singleton (3x3) units packed one SIMD register wide per chunk —
  /// the Fig 22 same-size batch at lane width (4 fp64 / 8 fp32 lanes) —
  /// solved by the AVX2 kernels or their portable lane-by-lane replay.
  std::vector<simd::PackedLU3> chunk_lu3_;
  /// fp32 storage (kSingle only): narrowed jagged values per chunk with
  /// their 8-lane packed mirrors, narrowed unit LU factors, and the 8-wide
  /// singleton solve packs. The substitution runs entirely in fp32 staging
  /// and widens back into the fp64 z at the end of apply().
  struct ChunkF32 {
    simd::aligned_vector<float> lower_val, upper_val;
    simd::PackedJaggedT<float> lower_packed, upper_packed;
  };
  std::vector<ChunkF32> f32_;
  std::vector<sparse::DenseSolveT<float>> lu32_;
  std::vector<simd::PackedLU3T<float>> chunk_lu3f_;
  /// Staging reused across applies: w (fp64 backward products) or zf/wf
  /// (fp32 forward/backward vectors).
  mutable simd::aligned_vector<double> w_;
  mutable simd::aligned_vector<float> zf_, wf_;
};

/// Self-contained PDJDS/MC preconditioner that presents the ORIGINAL row
/// ordering at its interface (permuting r/z internally), so it can drop into
/// any solver — in particular as the per-domain localized preconditioner of
/// the distributed hybrid runs. Owns the matrix copy, the ordering, and the
/// factorization.
class OwnedDJDSBIC final : public Preconditioner {
 public:
  /// Builds MC coloring (quotient-graph based when `sn` has multi-node
  /// supernodes), the DJDS ordering, and the factorization from `a` (copied).
  OwnedDJDSBIC(const sparse::BlockCSR& a, contact::Supernodes sn, int colors, int npe,
               bool sort_supernodes = true, Precision precision = Precision::kDouble);

  void apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
             util::LoopStats* loops) const override;

  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] Desc desc() const override { return inner_->desc(); }

  [[nodiscard]] const reorder::DJDSMatrix& djds() const { return *dj_; }
  [[nodiscard]] const DJDSBIC& inner() const { return *inner_; }

 private:
  sparse::BlockCSR a_;
  contact::Supernodes sn_;
  std::unique_ptr<reorder::DJDSMatrix> dj_;
  std::unique_ptr<DJDSBIC> inner_;
  mutable simd::aligned_vector<double> pr_, pz_;
};

}  // namespace geofem::precond
