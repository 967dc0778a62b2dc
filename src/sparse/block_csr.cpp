#include "sparse/block_csr.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "par/par.hpp"
#include "simd/block3.hpp"
#include "simd/multirhs.hpp"
#include "util/check.hpp"

namespace geofem::sparse {

namespace {

/// Row-parallel SpMV body, accumulator type chosen once per call. ScalarAcc3
/// reproduces the historical b3_gemv arithmetic bit-for-bit; AvxAcc3 keeps
/// three FMA accumulators per row with a fixed-tree reduce.
template <class Acc>
void spmv_impl(const BlockCSR& a, const double* x, double* y, int t) {
#pragma omp parallel for schedule(static) num_threads(t) if (t > 1)
  for (int i = 0; i < a.n; ++i) {
    Acc acc;
    acc.init_zero();
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
      acc.madd(a.block(e), x + static_cast<std::size_t>(a.colind[e]) * kB);
    }
    acc.reduce(y + static_cast<std::size_t>(i) * kB);
  }
}

#if GEOFEM_SIMD_HAS_AVX2
/// k = 4*KV fast path: the whole 3*k accumulator lives in ymm registers for
/// the duration of a block row (simd::AvxAccK), so the only memory traffic
/// per block is the matrix stream plus the operand row. Bit-identical to
/// spmm_impl<0, true> — AvxAccK applies the same per-lane FMA sequence.
template <int KV>
void spmm_impl_avxk(const BlockCSR& a, const double* x, double* y, int t) {
  constexpr std::size_t rk = static_cast<std::size_t>(kB) * 4 * KV;
#pragma omp parallel for schedule(static) num_threads(t) if (t > 1)
  for (int i = 0; i < a.n; ++i) {
    simd::AvxAccK<double, KV> acc;
    acc.init_zero();
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e)
      acc.madd(a.block(e), x + static_cast<std::size_t>(a.colind[e]) * rk);
    acc.reduce(y + static_cast<std::size_t>(i) * rk);
  }
}
#endif  // GEOFEM_SIMD_HAS_AVX2

/// Row-parallel SpMM body: one 3*k stack accumulator per block row, the
/// matrix block stream identical to spmv_impl. Rows write disjoint Y slices
/// and each row's block order is the serial one, so the result is
/// bit-identical for any team size. KC > 0 fixes k at compile time
/// (simd::with_fixed_width); KC = 0 reads the runtime k.
template <int KC, bool UseAvx>
void spmm_impl(const BlockCSR& a, const double* x, double* y, int k_rt, int t) {
  const int k = KC > 0 ? KC : k_rt;
  const std::size_t rk = static_cast<std::size_t>(kB) * static_cast<std::size_t>(k);
#pragma omp parallel for schedule(static) num_threads(t) if (t > 1)
  for (int i = 0; i < a.n; ++i) {
    double acc[static_cast<std::size_t>(kB) * simd::kMaxMultiRhs];
    for (std::size_t c = 0; c < rk; ++c) acc[c] = 0.0;
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e)
      simd::b3k_madd<double, UseAvx>(a.block(e), x + static_cast<std::size_t>(a.colind[e]) * rk,
                                     acc, k);
    double* yi = y + static_cast<std::size_t>(i) * rk;
    for (std::size_t c = 0; c < rk; ++c) yi[c] = acc[c];
  }
}

/// Tally each block row's length (the CRS innermost loop) into `loops`: short
/// lengths are counted in a stack array first, so the histogram sees one
/// record per distinct length.
void record_row_loops(const BlockCSR& a, util::LoopStats& loops) {
  constexpr int kShort = 64;
  std::array<std::int64_t, kShort> tally{};
  for (int i = 0; i < a.n; ++i) {
    const int len = a.rowptr[i + 1] - a.rowptr[i];
    if (len < kShort)
      ++tally[static_cast<std::size_t>(len)];
    else
      loops.record(len);
  }
  for (std::size_t len = 1; len < tally.size(); ++len)
    if (tally[len] > 0) loops.record(static_cast<std::int64_t>(len), tally[len]);
}

}  // namespace

int BlockCSR::find(int i, int j) const {
  const int* first = colind.data() + rowptr[i];
  const int* last = colind.data() + rowptr[i + 1];
  const int* it = std::lower_bound(first, last, j);
  if (it == last || *it != j) return -1;
  return static_cast<int>(it - colind.data());
}

int BlockCSR::diag_entry(int i) const {
  const int e = find(i, i);
  GEOFEM_CHECK(e >= 0, "missing diagonal block");
  return e;
}

void BlockCSR::spmv(std::span<const double> x, std::span<double> y, util::FlopCounter* flops,
                    util::LoopStats* loops) const {
  GEOFEM_CHECK(x.size() == ndof() && y.size() == ndof(), "spmv size mismatch");
  // Rows write disjoint y blocks and each row's accumulation order is the
  // serial one (per accumulator type), so the result is bit-identical for
  // any team size.
  const int t = par::threads();
#if GEOFEM_SIMD_HAS_AVX2
  if (simd::active() == simd::Isa::kAvx2) {
    spmv_impl<simd::AvxAcc3>(*this, x.data(), y.data(), t);
  } else
#endif
  {
    spmv_impl<simd::ScalarAcc3>(*this, x.data(), y.data(), t);
  }
  if (loops) record_row_loops(*this, *loops);
  if (flops) flops->spmv += 2ULL * kBB * static_cast<std::uint64_t>(nnz_blocks());
}

void BlockCSR::spmm(std::span<const double> x, std::span<double> y, int k,
                    util::FlopCounter* flops, util::LoopStats* loops) const {
  GEOFEM_CHECK(k >= 1 && k <= simd::kMaxMultiRhs, "spmm: bad column count");
  GEOFEM_CHECK(x.size() == ndof() * static_cast<std::size_t>(k) &&
                   y.size() == ndof() * static_cast<std::size_t>(k),
               "spmm size mismatch");
  const int t = par::threads();
#if GEOFEM_SIMD_HAS_AVX2
  if (simd::active() == simd::Isa::kAvx2) {
    // Register-resident fast path for the common batch widths (dispatch
    // depends only on k, so results stay deterministic within a build).
    if (k == 4)
      spmm_impl_avxk<1>(*this, x.data(), y.data(), t);
    else if (k == 8)
      spmm_impl_avxk<2>(*this, x.data(), y.data(), t);
    else
      spmm_impl<0, true>(*this, x.data(), y.data(), k, t);
  } else
#endif
  {
    simd::with_fixed_width(k, [&](auto kc) {
      spmm_impl<decltype(kc)::value, false>(*this, x.data(), y.data(), k, t);
    });
  }
  if (loops) record_row_loops(*this, *loops);
  if (flops)
    flops->spmv +=
        2ULL * kBB * static_cast<std::uint64_t>(nnz_blocks()) * static_cast<std::uint64_t>(k);
}

double BlockCSR::symmetry_error() const {
  double err = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int e = rowptr[i]; e < rowptr[i + 1]; ++e) {
      const int j = colind[e];
      if (j < i) continue;
      const int et = find(j, i);
      const double* a = block(e);
      if (et < 0) {
        for (int k = 0; k < kBB; ++k) err = std::max(err, std::fabs(a[k]));
        continue;
      }
      const double* b = block(et);
      for (int r = 0; r < kB; ++r)
        for (int c = 0; c < kB; ++c)
          err = std::max(err, std::fabs(a[kB * r + c] - b[kB * c + r]));
    }
  }
  return err;
}

BlockCSRBuilder::BlockCSRBuilder(int n) : n_(n), cols_(static_cast<std::size_t>(n)) {
  GEOFEM_CHECK(n >= 0, "negative matrix size");
  for (int i = 0; i < n; ++i) cols_[i].push_back(i);  // diagonal always present
}

void BlockCSRBuilder::check_live() const {
  GEOFEM_CHECK(!taken_, "BlockCSRBuilder used after take()");
}

void BlockCSRBuilder::add_pattern(int i, int j) {
  check_live();
  GEOFEM_CHECK(!finalized_, "pattern already finalized");
  GEOFEM_CHECK(i >= 0 && i < n_ && j >= 0 && j < n_, "pattern index out of range");
  cols_[i].push_back(j);
}

void BlockCSRBuilder::finalize_pattern() {
  check_live();
  GEOFEM_CHECK(!finalized_, "pattern already finalized");
  m_.n = n_;
  m_.rowptr.assign(static_cast<std::size_t>(n_) + 1, 0);
  std::size_t total = 0;
  for (int i = 0; i < n_; ++i) {
    auto& c = cols_[i];
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    total += c.size();
    m_.rowptr[i + 1] = static_cast<int>(total);
  }
  m_.colind.reserve(total);
  for (int i = 0; i < n_; ++i) {
    m_.colind.insert(m_.colind.end(), cols_[i].begin(), cols_[i].end());
    cols_[i].clear();
    cols_[i].shrink_to_fit();
  }
  m_.val.assign(total * kBB, 0.0);
  finalized_ = true;
}

void BlockCSRBuilder::add_block(int i, int j, const double* b) {
  check_live();
  GEOFEM_CHECK(finalized_, "pattern not finalized");
  const int e = m_.find(i, j);
  GEOFEM_CHECK(e >= 0, "block not in pattern");
  double* dst = m_.block(e);
  for (int k = 0; k < kBB; ++k) dst[k] += b[k];
}

void BlockCSRBuilder::add_scalar(int i, int j, int r, int c, double v) {
  check_live();
  GEOFEM_CHECK(finalized_, "pattern not finalized");
  const int e = m_.find(i, j);
  GEOFEM_CHECK(e >= 0, "block not in pattern");
  m_.block(e)[kB * r + c] += v;
}

BlockCSR BlockCSRBuilder::take() {
  check_live();
  GEOFEM_CHECK(finalized_, "pattern not finalized");
  taken_ = true;
  return std::move(m_);
}

Graph graph_of(const BlockCSR& a) {
  Graph g;
  g.n = a.n;
  g.xadj.assign(static_cast<std::size_t>(a.n) + 1, 0);
  for (int i = 0; i < a.n; ++i) {
    int deg = 0;
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e)
      if (a.colind[e] != i) ++deg;
    g.xadj[i + 1] = g.xadj[i] + deg;
  }
  g.adjncy.resize(static_cast<std::size_t>(g.xadj[a.n]));
  for (int i = 0, p = 0; i < a.n; ++i) {
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e)
      if (a.colind[e] != i) g.adjncy[p++] = a.colind[e];
  }
  return g;
}

BlockCSR permute(const BlockCSR& a, std::span<const int> perm) {
  GEOFEM_CHECK(static_cast<int>(perm.size()) == a.n, "perm size mismatch");
  BlockCSRBuilder b(a.n);
  for (int i = 0; i < a.n; ++i)
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) b.add_pattern(perm[i], perm[a.colind[e]]);
  b.finalize_pattern();
  for (int i = 0; i < a.n; ++i)
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e)
      b.add_block(perm[i], perm[a.colind[e]], a.block(e));
  return b.take();
}

}  // namespace geofem::sparse
