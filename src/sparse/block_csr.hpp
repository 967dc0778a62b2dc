#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simd/simd.hpp"
#include "sparse/dense.hpp"
#include "util/flops.hpp"
#include "util/loop_stats.hpp"

namespace geofem::sparse {

/// Sparse matrix of 3x3 blocks in compressed-row-storage form ("CRS" in the
/// paper). One block row per finite-element node; the diagonal block is stored
/// in-line with the off-diagonals, column indices sorted ascending per row.
struct BlockCSR {
  int n = 0;                   ///< number of block rows (= FEM nodes)
  std::vector<int> rowptr;     ///< size n+1
  std::vector<int> colind;     ///< block column index per entry
  simd::aligned_vector<double> val;  ///< kBB doubles per entry (row-major 3x3)

  [[nodiscard]] int nnz_blocks() const { return static_cast<int>(colind.size()); }
  [[nodiscard]] std::size_t ndof() const { return static_cast<std::size_t>(n) * kB; }

  [[nodiscard]] double* block(int e) { return val.data() + static_cast<std::size_t>(e) * kBB; }
  [[nodiscard]] const double* block(int e) const {
    return val.data() + static_cast<std::size_t>(e) * kBB;
  }

  /// Entry index of block (i,j), or -1 if not present. Binary search on the
  /// sorted column indices of row i.
  [[nodiscard]] int find(int i, int j) const;

  /// Entry index of the diagonal block of row i (must exist).
  [[nodiscard]] int diag_entry(int i) const;

  /// y = A x. Counts FLOPs and (optionally) records the innermost loop length
  /// of each block row, which is what limits vector performance for plain CRS.
  void spmv(std::span<const double> x, std::span<double> y, util::FlopCounter* flops = nullptr,
            util::LoopStats* loops = nullptr) const;

  /// Y = A X for k interleaved RHS columns (value(dof i, col c) = X[i*k+c],
  /// DESIGN.md §5k): the matrix is streamed from memory once for all k
  /// columns, multiplying arithmetic per byte by k. Per column the scalar
  /// tier keeps the ScalarAcc3 block-row association; the avx2 tier puts the
  /// SIMD lanes over the column axis (simd::b3k_madd). Bit-identical across
  /// team sizes for any k; k = 1 matches spmv's scalar tier exactly.
  void spmm(std::span<const double> x, std::span<double> y, int k,
            util::FlopCounter* flops = nullptr, util::LoopStats* loops = nullptr) const;

  /// Max |A_ij - A_ji^T| over all stored blocks (0 for symmetric matrices).
  [[nodiscard]] double symmetry_error() const;

  /// Bytes of the value + index arrays.
  [[nodiscard]] std::size_t memory_bytes() const {
    return val.size() * sizeof(double) + colind.size() * sizeof(int) +
           rowptr.size() * sizeof(int);
  }
};

/// Incremental builder: declare the block sparsity pattern via add_entry /
/// element scatter, then assemble values. Duplicate (i,j) contributions sum.
class BlockCSRBuilder {
 public:
  explicit BlockCSRBuilder(int n);

  /// Declare that block (i,j) exists (values added later). Idempotent.
  void add_pattern(int i, int j);

  /// Finalize the pattern: sort/unique columns, allocate values to zero.
  /// After this call use add_block()/matrix().
  void finalize_pattern();

  /// A(i,j) += b (3x3 row-major). Pattern must contain (i,j).
  void add_block(int i, int j, const double* b);

  /// A(i,j)(r,c) += v
  void add_scalar(int i, int j, int r, int c, double v);

  /// Move the finished matrix out. The builder is spent afterwards: every
  /// further call throws (its rows were consumed by finalize_pattern()).
  BlockCSR take();

 private:
  void check_live() const;

  int n_;
  bool finalized_ = false;
  bool taken_ = false;
  std::vector<std::vector<int>> cols_;  // pre-finalize adjacency
  BlockCSR m_;
};

/// Node-adjacency graph of the matrix (excluding the diagonal), as CSR index
/// arrays. Used by the reordering and partitioning modules.
struct Graph {
  int n = 0;
  std::vector<int> xadj;   ///< size n+1
  std::vector<int> adjncy;
};

/// Extract the adjacency graph (off-diagonal pattern) of a BlockCSR.
Graph graph_of(const BlockCSR& a);

/// Apply a symmetric permutation: B = P A P^T where new index = perm[old].
BlockCSR permute(const BlockCSR& a, std::span<const int> perm);

}  // namespace geofem::sparse
