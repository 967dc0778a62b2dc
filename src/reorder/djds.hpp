#pragma once

#include <cstdint>
#include <vector>

#include "contact/penalty.hpp"
#include "reorder/coloring.hpp"
#include "simd/jagged.hpp"
#include "sparse/block_csr.hpp"
#include "util/flops.hpp"
#include "util/loop_stats.hpp"

namespace geofem::reorder {

/// Options of the PDJDS/MC construction (paper §4.3-4.7).
struct DJDSOptions {
  int npe = 8;  ///< PEs per SMP node; rows are cyclically distributed over them
  /// Fig 22: reorder selective blocks by size within each (color, PE) chunk so
  /// the dense-LU substitution loops need no per-row size branch and dummy
  /// padding stays small. Disabling this is the Fig 28 ablation.
  bool sort_supernodes_by_size = true;
};

/// One jagged-diagonal set covering the rows of a (color, PE) chunk: entries
/// of jagged diagonal j live at [jd_ptr[j], jd_ptr[j+1]) and belong to the
/// first (jd_ptr[j+1]-jd_ptr[j]) rows of the chunk. `item` holds block-column
/// indices in the *new* ordering; dummy (padding) entries carry a zero block
/// and point at the row itself, so executing them is harmless.
struct Jagged {
  std::vector<int> jd_ptr;
  std::vector<int> item;
  std::vector<int> src;     ///< source entry in the original BlockCSR, -1 for dummies
  simd::aligned_vector<double> val;  ///< sparse::kBB doubles per entry
  int dummies = 0;
  /// Lane-transposed mirror for the AVX2 sweeps; only populated in AVX2
  /// builds. The jagged structure itself (and hence every paper statistic —
  /// dummy %, vector length) is identical across SIMD configurations.
  simd::PackedJagged packed;

  [[nodiscard]] int num_jd() const { return static_cast<int>(jd_ptr.size()) - 1; }
  [[nodiscard]] int entries() const { return static_cast<int>(item.size()); }
};

/// Descending-order jagged diagonal storage with multicolor + cyclic-PE
/// distribution (PDJDS/MC), optionally constrained so that selective blocks
/// (supernodes) stay contiguous. Holds a full permuted copy of the matrix:
/// diagonal blocks plus strictly-lower and strictly-upper jagged parts per
/// (color, PE) chunk.
class DJDSMatrix {
 public:
  /// Build from a symmetric BlockCSR and a coloring of its rows. If
  /// `supernodes` is non-null, members of each supernode must share a color
  /// (use quotient_graph + lift_coloring) and are kept consecutive. The
  /// value gathers and the per-chunk jagged build run on the caller's team
  /// (par::threads()); the result is the same for every team size.
  DJDSMatrix(const sparse::BlockCSR& a, const Coloring& coloring,
             const contact::Supernodes* supernodes, const DJDSOptions& opt);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int npe() const { return opt_.npe; }
  [[nodiscard]] int num_colors() const { return ncolors_; }

  /// perm[old] = new, iperm[new] = old.
  [[nodiscard]] const std::vector<int>& perm() const { return perm_; }
  [[nodiscard]] const std::vector<int>& iperm() const { return iperm_; }

  /// First new-row index of each (color, pe) chunk; size ncolors*npe + 1.
  [[nodiscard]] const std::vector<int>& chunk_begin() const { return chunk_begin_; }
  [[nodiscard]] int chunk_index(int color, int pe) const { return color * opt_.npe + pe; }

  [[nodiscard]] const Jagged& lower(int chunk) const { return lower_[static_cast<std::size_t>(chunk)]; }
  [[nodiscard]] const Jagged& upper(int chunk) const { return upper_[static_cast<std::size_t>(chunk)]; }

  /// Diagonal block of new row i (kBB doubles).
  [[nodiscard]] const double* diag(int i) const {
    return diag_.data() + static_cast<std::size_t>(i) * sparse::kBB;
  }

  /// Supernode ranges in the new ordering, ascending by start row; each is
  /// [start, start+size) and never crosses a chunk boundary. All couplings
  /// *inside* a range (the selective block) are excluded from the jagged
  /// lower/upper parts — they live in the dense block returned by
  /// super_dense() — so the jagged parts stay color-independent and the
  /// substitution can solve each block with one dense LU (paper §3.1, §4.7).
  struct SuperRange {
    int start;
    int size;  ///< FEM nodes in the block (3*size scalar rows)
  };
  [[nodiscard]] const std::vector<SuperRange>& super_ranges() const { return super_ranges_; }

  /// Dense (3*size)^2 row-major matrix of supernode range `r` (index into
  /// super_ranges()), gathered from the assembled matrix.
  [[nodiscard]] const std::vector<double>& super_dense(int r) const {
    return super_dense_[static_cast<std::size_t>(r)];
  }

  /// Index into super_ranges() of the range containing new row i, or -1.
  [[nodiscard]] int range_of_row(int i) const { return range_of_row_[static_cast<std::size_t>(i)]; }

  /// Re-gather all numeric values (diagonals, dense supernode blocks, jagged
  /// entries) from `a`, which must have the graph this layout was built from.
  /// The permutation, chunk layout, and jagged structure are untouched — this
  /// is the numeric half of the PDJDS set-up, used for plan reuse. Runs on
  /// the caller's team, like the constructor's gathers.
  void refill(const sparse::BlockCSR& a);

  /// y = A x in the new ordering (x, y indexed by new ids). Adds the
  /// sweep's innermost vector loops to `loops` and its FLOPs to `flops`
  /// (dummy padding entries are executed and therefore counted); both come
  /// from structure held since construction, in O(distinct loop lengths).
  void spmv(std::span<const double> x, std::span<double> y, util::FlopCounter* flops = nullptr,
            util::LoopStats* loops = nullptr) const;

  /// Y = A X for k interleaved RHS columns in the new ordering (DESIGN.md
  /// §5k): the same three phases as spmv — diagonal assign, dense supernode
  /// couplings, jagged lower/upper — with the innermost dimension over RHS
  /// columns, so diagonals, dense blocks and jagged values are each streamed
  /// once for all k columns. Bit-identical across team sizes; k = 1 matches
  /// spmv's scalar tier exactly.
  void spmm(std::span<const double> x, std::span<double> y, int k,
            util::FlopCounter* flops = nullptr, util::LoopStats* loops = nullptr) const;

  // --- reordering statistics (Figs 26(d), 29) ---
  /// Average jagged-diagonal loop length of one matvec sweep.
  [[nodiscard]] double average_vector_length() const;
  /// 100 * (max-min)/avg of rows per PE (aggregated over colors), Fig 29.
  [[nodiscard]] double load_imbalance_percent() const;
  /// Dummy entries as a fraction (%) of all stored off-diagonal entries.
  [[nodiscard]] double dummy_percent() const;
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// Copy the diagonal blocks and the dense supernode blocks (zeroed first)
  /// from `a`, one row / range per iteration on `team` threads.
  void gather_blocks(const sparse::BlockCSR& a, int team);

  /// (Re)build the packed SIMD mirrors after structure or values change,
  /// one chunk per iteration on `team` threads. No-op outside AVX2 builds.
  void pack_simd(int team);

  int n_ = 0;
  int ncolors_ = 0;
  DJDSOptions opt_;
  std::vector<int> perm_, iperm_;
  std::vector<int> chunk_begin_;
  std::vector<Jagged> lower_, upper_;
  simd::aligned_vector<double> diag_;
  simd::PackedJagged packed_diag_;  ///< diag_ packed for the kAssign sweep (AVX2)
  std::vector<SuperRange> super_ranges_;
  std::vector<std::vector<double>> super_dense_;
  std::vector<int> range_of_row_;
  util::LoopStats jagged_loops_;     ///< jagged-diagonal loops of one sweep
  std::uint64_t sweep_entries_ = 0;  ///< blocks one sweep multiplies (flops / 2·kBB)
};

}  // namespace geofem::reorder
