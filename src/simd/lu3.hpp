#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "simd/jagged.hpp"
#include "simd/simd.hpp"
#include "sparse/dense.hpp"

/// Lane-batched 3x3 LU solves — the Fig 22 trick. The PDJDS substitution
/// sweeps end each chunk with one small dense solve per ordering unit; for
/// singleton units these are 3x3 solves on CONSECUTIVE rows, and the paper's
/// size-sorted batching exists precisely so a batch of equal-size solves can
/// vectorize across the batch instead of running one tiny solve at a time.
///
/// PackedLU3T is the lane mirror, parameterized on the stored scalar like
/// PackedJaggedT (4 double lanes, 8 float lanes): groups of consecutive
/// singleton units, their LU coefficients lane-transposed, and the
/// partial-pivot row swaps pre-lowered to per-lane blend masks (for a 3x3
/// pivoted solve the swap sequence is fully described by piv0 == 1,
/// piv0 == 2 and piv1 == 2). The double batched solve replays the exact
/// per-element pivoted-LU arithmetic of sparse::DenseLU::solve in every
/// lane, so it sits inside the cross-tier tolerance contract (<= 1e-13
/// relative, DESIGN.md 5f) like every other AVX2 kernel; the float form
/// replays the same sequence in fp32 and sits in the fp32 tolerance band.
///
/// The packs are built in every tier: below AVX2, solve_lu3 / solve_lu3_sub
/// walk the same groups lane by lane with DenseLU::solve's exact operation
/// order (fp64) or DenseSolveT<float>::solve's (fp32), so those tiers keep
/// their bits while skipping the generic n x n solve loop for 3x3 units.
namespace geofem::simd {

/// Groups of up to kLanes lane-parallel 3x3 pivoted-LU solves on consecutive
/// rows, stored at precision T.
template <class T>
struct PackedLU3T {
  static_assert(std::is_same_v<T, double> || std::is_same_v<T, float>);
  static constexpr int kLanes = std::is_same_v<T, float> ? 8 : 4;
  /// 12*kLanes scalars per group: 12 lane-vectors (coefficient m of lane l at
  /// [12*kLanes*g + kLanes*m + l]) in the order l10 l20 l21 u00 u01 u02 u11
  /// u12 u22 followed by the three pivot blend masks (all-ones / all-zeros
  /// bits — NaN-patterned when reinterpreted, so never arithmetic operands).
  static constexpr int kGroupCoefs = 12 * kLanes;
  aligned_vector<T> coef;
  std::vector<int> start;  ///< first (block-)row of each group
  std::vector<int> cnt;    ///< real units in each group (1..kLanes)

  [[nodiscard]] bool empty() const { return start.empty(); }
  [[nodiscard]] std::size_t memory_bytes() const {
    return coef.size() * sizeof(T) + (start.size() + cnt.size()) * sizeof(int);
  }
};

using PackedLU3 = PackedLU3T<double>;

namespace detail {
template <class T>
inline T all_ones_bits() {
  if constexpr (std::is_same_v<T, float>)
    return std::bit_cast<float>(~std::uint32_t{0});
  else
    return std::bit_cast<double>(~std::uint64_t{0});
}

/// Write one 3x3 factor's 12 coefficients (l10 l20 l21 u00 u01 u02 u11 u12
/// u22, then the three pivot masks) at c[0], c[stride], ..., c[11*stride],
/// narrowed to T. The masks must already be zero.
template <class T>
inline void pack_lu3_coefs(const sparse::DenseLU& lu, T* c, int stride) {
  const double* f = lu.factor();
  const auto& piv = lu.pivots();
  c[stride * 0] = static_cast<T>(f[3]);  // l10
  c[stride * 1] = static_cast<T>(f[6]);  // l20
  c[stride * 2] = static_cast<T>(f[7]);  // l21
  c[stride * 3] = static_cast<T>(f[0]);  // u00
  c[stride * 4] = static_cast<T>(f[1]);  // u01
  c[stride * 5] = static_cast<T>(f[2]);  // u02
  c[stride * 6] = static_cast<T>(f[4]);  // u11
  c[stride * 7] = static_cast<T>(f[5]);  // u12
  c[stride * 8] = static_cast<T>(f[8]);  // u22
  if (piv[0] == 1) c[stride * 9] = all_ones_bits<T>();
  if (piv[0] == 2) c[stride * 10] = all_ones_bits<T>();
  if (piv[1] == 2) c[stride * 11] = all_ones_bits<T>();
}
}  // namespace detail

/// Append one group of `n` (1..kLanes) consecutive singleton units starting
/// at block-row `row`. `lus[l]` must be 3x3 factors, narrowed to T as they
/// are packed (fp32 callers pre-check the factors fit float —
/// precond::narrow_or_throw — so overflow is a factorization failure, not an
/// inf lane). Unused lanes get the identity factor (divisions by 1, masks
/// off) so they compute harmlessly.
template <class T>
inline void pack_lu3_group(PackedLU3T<T>& p, const sparse::DenseLU* const lus[], int n,
                           int row) {
  constexpr int kL = PackedLU3T<T>::kLanes;
  p.start.push_back(row);
  p.cnt.push_back(n);
  const std::size_t base = p.coef.size();
  p.coef.resize(base + PackedLU3T<T>::kGroupCoefs, T(0));
  T* c = p.coef.data() + base;
  for (int l = 0; l < kL; ++l) {
    if (l >= n) {
      c[kL * 3 + l] = c[kL * 6 + l] = c[kL * 8 + l] = T(1);  // identity U diagonal
      continue;
    }
    detail::pack_lu3_coefs(*lus[l], c + l, kL);
  }
}

/// Coefficients of one 3x3 factor stored contiguously (the layout of one
/// lane of a PackedLU3T group, at stride 1): the natural-ordering SB-BIC(0)
/// solves its singleton supernodes one at a time, so it keeps one record per
/// unit instead of lane-transposed groups.
inline constexpr int kLu3Coefs = 12;

/// Pack `lu` (3x3) into c[0..kLu3Coefs), narrowed to T.
template <class T>
inline void pack_lu3(const sparse::DenseLU& lu, T* c) {
  for (int m = 0; m < kLu3Coefs; ++m) c[m] = T(0);
  detail::pack_lu3_coefs(lu, c, 1);
}

namespace detail {

/// True when a pivot blend-mask lane is set (all-ones bits).
template <class T>
inline bool mask_set(T v) {
  if constexpr (std::is_same_v<T, float>)
    return std::bit_cast<std::uint32_t>(v) != 0;
  else
    return std::bit_cast<std::uint64_t>(v) != 0;
}

/// One 3x3 pivoted solve, x := A^-1 x, with coefficient m at c[Stride*m],
/// in DenseLU::solve's order: swap and eliminate column 0, swap and
/// eliminate column 1, then back-substitute from row 2 up. The arithmetic
/// runs in U: T for the lane packs, double for fp32-stored factors applied
/// to fp64 vectors (DenseSolveT<float>::solve<double>'s promotion).
template <int Stride, class T, class U>
inline void lu3_solve_strided(const T* c, U& x0, U& x1, U& x2) {
  if (mask_set(c[Stride * 9])) std::swap(x0, x1);
  if (mask_set(c[Stride * 10])) std::swap(x0, x2);
  x1 -= c[Stride * 0] * x0;  // l10
  x2 -= c[Stride * 1] * x0;  // l20
  if (mask_set(c[Stride * 11])) std::swap(x1, x2);
  x2 -= c[Stride * 2] * x1;  // l21
  x2 /= c[Stride * 8];       // u22
  x0 -= c[Stride * 5] * x2;  // u02
  x1 -= c[Stride * 7] * x2;  // u12
  x1 /= c[Stride * 6];       // u11
  x0 -= c[Stride * 4] * x1;  // u01
  x0 /= c[Stride * 3];       // u00
}

/// One lane of a packed group.
template <class T>
inline void lu3_solve_lane(const T* c, int l, T& x0, T& x1, T& x2) {
  lu3_solve_strided<PackedLU3T<T>::kLanes>(c + l, x0, x1, x2);
}

}  // namespace detail

/// Portable in-place batched solve: y[3*start[g] ..] := A^-1 y for every
/// packed unit, bit-identical to one DenseLU::solve (fp64) or
/// DenseSolveT<float>::solve (fp32) per unit.
template <class T>
inline void solve_lu3(const PackedLU3T<T>& p, T* y) {
  for (std::size_t g = 0; g < p.start.size(); ++g) {
    T* yd = y + 3 * static_cast<std::size_t>(p.start[g]);
    const T* c = p.coef.data() + PackedLU3T<T>::kGroupCoefs * g;
    for (int l = 0; l < p.cnt[g]; ++l) {
      T* x = yd + 3 * l;
      detail::lu3_solve_lane(c, l, x[0], x[1], x[2]);
    }
  }
}

/// Portable batched solve-and-subtract: z[rows] -= A^-1 w[rows] for every
/// packed unit; `w` is read only.
template <class T>
inline void solve_lu3_sub(const PackedLU3T<T>& p, const T* w, T* z) {
  for (std::size_t g = 0; g < p.start.size(); ++g) {
    const std::size_t off = 3 * static_cast<std::size_t>(p.start[g]);
    const T* c = p.coef.data() + PackedLU3T<T>::kGroupCoefs * g;
    for (int l = 0; l < p.cnt[g]; ++l) {
      const T* wl = w + off + 3 * static_cast<std::size_t>(l);
      T x0 = wl[0], x1 = wl[1], x2 = wl[2];
      detail::lu3_solve_lane(c, l, x0, x1, x2);
      T* zl = z + off + 3 * static_cast<std::size_t>(l);
      zl[0] -= x0;
      zl[1] -= x1;
      zl[2] -= x2;
    }
  }
}

/// x[0..2] := A^-1 x for one pack_lu3 record — bit-identical to
/// DenseLU::solve (T = double) or DenseSolveT<float>::solve<double>
/// (T = float) on the same factor, in every tier.
template <class T>
inline void solve_lu3_unit(const T* c, double* x) {
  detail::lu3_solve_strided<1>(c, x[0], x[1], x[2]);
}

/// The same solve for k interleaved columns (x[r*k + col]), column by
/// column; `k` is a compile-time constant when the caller's is.
template <class T>
inline void solve_lu3_unit_cols(const T* c, double* x, int k) {
  for (int col = 0; col < k; ++col)
    detail::lu3_solve_strided<1>(c, x[col], x[k + col], x[2 * k + col]);
}

#if GEOFEM_SIMD_HAS_AVX2

namespace detail {

/// Inverse of transpose_3x4: three contiguous vectors (12 doubles, 4 rows of
/// 3 components) into per-component lane vectors.
inline void untranspose_3x4(__m256d in0, __m256d in1, __m256d in2, __m256d& x0, __m256d& x1,
                            __m256d& x2) {
  const __m256d pa0 = _mm256_permute4x64_pd(in0, _MM_SHUFFLE(0, 0, 3, 0));
  const __m256d pb0 = _mm256_permute4x64_pd(in1, _MM_SHUFFLE(0, 2, 0, 0));
  const __m256d pc0 = _mm256_permute4x64_pd(in2, _MM_SHUFFLE(1, 0, 0, 0));
  x0 = _mm256_blend_pd(_mm256_blend_pd(pa0, pb0, 0x4), pc0, 0x8);
  const __m256d pa1 = _mm256_permute4x64_pd(in0, _MM_SHUFFLE(0, 0, 0, 1));
  const __m256d pb1 = _mm256_permute4x64_pd(in1, _MM_SHUFFLE(0, 3, 0, 0));
  const __m256d pc1 = _mm256_permute4x64_pd(in2, _MM_SHUFFLE(2, 0, 0, 0));
  x1 = _mm256_blend_pd(_mm256_blend_pd(pa1, pb1, 0x6), pc1, 0x8);
  const __m256d pa2 = _mm256_permute4x64_pd(in0, _MM_SHUFFLE(0, 0, 0, 2));
  const __m256d pb2 = _mm256_permute4x64_pd(in1, _MM_SHUFFLE(0, 0, 1, 0));
  const __m256d pc2 = _mm256_permute4x64_pd(in2, _MM_SHUFFLE(3, 0, 0, 0));
  x2 = _mm256_blend_pd(_mm256_blend_pd(pa2, pb2, 0x2), pc2, 0xC);
}

/// Inverse of transpose_3x8: 24 contiguous floats (8 rows of 3 components)
/// into per-component lane vectors.
inline void untranspose_3x8(__m256 in0, __m256 in1, __m256 in2, __m256& x0, __m256& x1,
                            __m256& x2) {
  // x0 lanes: in0[0] in0[3] in0[6] in1[1] in1[4] in1[7] in2[2] in2[5]
  const __m256i a0 = _mm256_setr_epi32(0, 3, 6, 0, 0, 0, 0, 0);
  const __m256i b0 = _mm256_setr_epi32(0, 0, 0, 1, 4, 7, 0, 0);
  const __m256i c0 = _mm256_setr_epi32(0, 0, 0, 0, 0, 0, 2, 5);
  x0 = _mm256_blend_ps(_mm256_blend_ps(_mm256_permutevar8x32_ps(in0, a0),
                                       _mm256_permutevar8x32_ps(in1, b0), 0x38),
                       _mm256_permutevar8x32_ps(in2, c0), 0xC0);
  // x1 lanes: in0[1] in0[4] in0[7] in1[2] in1[5] in2[0] in2[3] in2[6]
  const __m256i a1 = _mm256_setr_epi32(1, 4, 7, 0, 0, 0, 0, 0);
  const __m256i b1 = _mm256_setr_epi32(0, 0, 0, 2, 5, 0, 0, 0);
  const __m256i c1 = _mm256_setr_epi32(0, 0, 0, 0, 0, 0, 3, 6);
  x1 = _mm256_blend_ps(_mm256_blend_ps(_mm256_permutevar8x32_ps(in0, a1),
                                       _mm256_permutevar8x32_ps(in1, b1), 0x18),
                       _mm256_permutevar8x32_ps(in2, c1), 0xE0);
  // x2 lanes: in0[2] in0[5] in1[0] in1[3] in1[6] in2[1] in2[4] in2[7]
  const __m256i a2 = _mm256_setr_epi32(2, 5, 0, 0, 0, 0, 0, 0);
  const __m256i b2 = _mm256_setr_epi32(0, 0, 0, 3, 6, 0, 0, 0);
  const __m256i c2 = _mm256_setr_epi32(0, 0, 0, 0, 0, 1, 4, 7);
  x2 = _mm256_blend_ps(_mm256_blend_ps(_mm256_permutevar8x32_ps(in0, a2),
                                       _mm256_permutevar8x32_ps(in1, b2), 0x1C),
                       _mm256_permutevar8x32_ps(in2, c2), 0xE0);
}

/// The pivoted 3x3 solve, all four lanes at once. Mirrors DenseLU::solve:
/// swap / eliminate column 0, swap / eliminate column 1, back-substitute.
inline void lu3_solve_lanes(const double* c, __m256d& x0, __m256d& x1, __m256d& x2) {
  const __m256d mA = _mm256_load_pd(c + 4 * 9);   // piv0 == 1
  const __m256d mB = _mm256_load_pd(c + 4 * 10);  // piv0 == 2
  const __m256d mC = _mm256_load_pd(c + 4 * 11);  // piv1 == 2
  __m256d t = _mm256_blendv_pd(_mm256_blendv_pd(x0, x1, mA), x2, mB);
  x1 = _mm256_blendv_pd(x1, x0, mA);
  x2 = _mm256_blendv_pd(x2, x0, mB);
  x0 = t;
  x1 = _mm256_fnmadd_pd(_mm256_load_pd(c + 4 * 0), x0, x1);  // l10
  x2 = _mm256_fnmadd_pd(_mm256_load_pd(c + 4 * 1), x0, x2);  // l20
  t = _mm256_blendv_pd(x1, x2, mC);
  x2 = _mm256_blendv_pd(x2, x1, mC);
  x1 = t;
  x2 = _mm256_fnmadd_pd(_mm256_load_pd(c + 4 * 2), x1, x2);  // l21
  x2 = _mm256_div_pd(x2, _mm256_load_pd(c + 4 * 8));         // /u22
  x0 = _mm256_fnmadd_pd(_mm256_load_pd(c + 4 * 5), x2, x0);  // -u02*x2
  x1 = _mm256_fnmadd_pd(_mm256_load_pd(c + 4 * 7), x2, x1);  // -u12*x2
  x1 = _mm256_div_pd(x1, _mm256_load_pd(c + 4 * 6));         // /u11
  x0 = _mm256_fnmadd_pd(_mm256_load_pd(c + 4 * 4), x1, x0);  // -u01*x1
  x0 = _mm256_div_pd(x0, _mm256_load_pd(c + 4 * 3));         // /u00
}

/// fp32 form: identical swap/eliminate/back-substitute sequence, eight lanes.
inline void lu3_solve_lanes(const float* c, __m256& x0, __m256& x1, __m256& x2) {
  const __m256 mA = _mm256_load_ps(c + 8 * 9);   // piv0 == 1
  const __m256 mB = _mm256_load_ps(c + 8 * 10);  // piv0 == 2
  const __m256 mC = _mm256_load_ps(c + 8 * 11);  // piv1 == 2
  __m256 t = _mm256_blendv_ps(_mm256_blendv_ps(x0, x1, mA), x2, mB);
  x1 = _mm256_blendv_ps(x1, x0, mA);
  x2 = _mm256_blendv_ps(x2, x0, mB);
  x0 = t;
  x1 = _mm256_fnmadd_ps(_mm256_load_ps(c + 8 * 0), x0, x1);  // l10
  x2 = _mm256_fnmadd_ps(_mm256_load_ps(c + 8 * 1), x0, x2);  // l20
  t = _mm256_blendv_ps(x1, x2, mC);
  x2 = _mm256_blendv_ps(x2, x1, mC);
  x1 = t;
  x2 = _mm256_fnmadd_ps(_mm256_load_ps(c + 8 * 2), x1, x2);  // l21
  x2 = _mm256_div_ps(x2, _mm256_load_ps(c + 8 * 8));         // /u22
  x0 = _mm256_fnmadd_ps(_mm256_load_ps(c + 8 * 5), x2, x0);  // -u02*x2
  x1 = _mm256_fnmadd_ps(_mm256_load_ps(c + 8 * 7), x2, x1);  // -u12*x2
  x1 = _mm256_div_ps(x1, _mm256_load_ps(c + 8 * 6));         // /u11
  x0 = _mm256_fnmadd_ps(_mm256_load_ps(c + 8 * 4), x1, x0);  // -u01*x1
  x0 = _mm256_div_ps(x0, _mm256_load_ps(c + 8 * 3));         // /u00
}

}  // namespace detail

/// In-place batched solve: y[3*start[g] ..] := A^-1 y for every packed unit
/// (the forward-substitution tail of a DJDSBIC chunk).
inline void solve_lu3_avx2(const PackedLU3& p, double* y) {
  const int ng = static_cast<int>(p.start.size());
  for (int g = 0; g < ng; ++g) {
    double* yd = y + 3 * static_cast<std::size_t>(p.start[static_cast<std::size_t>(g)]);
    const double* c = p.coef.data() + 48 * static_cast<std::size_t>(g);
    const int n = p.cnt[static_cast<std::size_t>(g)];
    __m256d in0, in1, in2;
    if (n == PackedLU3::kLanes) {
      in0 = _mm256_loadu_pd(yd);
      in1 = _mm256_loadu_pd(yd + 4);
      in2 = _mm256_loadu_pd(yd + 8);
    } else {
      const int nv = 3 * n;
      in0 = _mm256_maskload_pd(yd, detail::tail_mask(std::min(nv, 4)));
      in1 = _mm256_maskload_pd(yd + 4, detail::tail_mask(std::clamp(nv - 4, 0, 4)));
      in2 = _mm256_maskload_pd(yd + 8, detail::tail_mask(std::clamp(nv - 8, 0, 4)));
    }
    __m256d x0, x1, x2;
    detail::untranspose_3x4(in0, in1, in2, x0, x1, x2);
    detail::lu3_solve_lanes(c, x0, x1, x2);
    __m256d o0, o1, o2;
    detail::transpose_3x4(x0, x1, x2, o0, o1, o2);
    if (n == PackedLU3::kLanes) {
      _mm256_storeu_pd(yd, o0);
      _mm256_storeu_pd(yd + 4, o1);
      _mm256_storeu_pd(yd + 8, o2);
    } else {
      const int nv = 3 * n;
      detail::apply_vec_masked<Mode::kAssign>(yd, o0, std::min(nv, 4));
      detail::apply_vec_masked<Mode::kAssign>(yd + 4, o1, std::clamp(nv - 4, 0, 4));
      detail::apply_vec_masked<Mode::kAssign>(yd + 8, o2, std::clamp(nv - 8, 0, 4));
    }
  }
}

/// fp32 in-place batched solve over an fp32 staging vector (8 units a group).
inline void solve_lu3_avx2(const PackedLU3T<float>& p, float* y) {
  constexpr int kL = PackedLU3T<float>::kLanes;
  const int ng = static_cast<int>(p.start.size());
  for (int g = 0; g < ng; ++g) {
    float* yd = y + 3 * static_cast<std::size_t>(p.start[static_cast<std::size_t>(g)]);
    const float* c = p.coef.data() + 96 * static_cast<std::size_t>(g);
    const int n = p.cnt[static_cast<std::size_t>(g)];
    __m256 in0, in1, in2;
    if (n == kL) {
      in0 = _mm256_loadu_ps(yd);
      in1 = _mm256_loadu_ps(yd + 8);
      in2 = _mm256_loadu_ps(yd + 16);
    } else {
      const int nv = 3 * n;
      in0 = _mm256_maskload_ps(yd, detail::tail_mask32(std::min(nv, 8)));
      in1 = _mm256_maskload_ps(yd + 8, detail::tail_mask32(std::clamp(nv - 8, 0, 8)));
      in2 = _mm256_maskload_ps(yd + 16, detail::tail_mask32(std::clamp(nv - 16, 0, 8)));
    }
    __m256 x0, x1, x2;
    detail::untranspose_3x8(in0, in1, in2, x0, x1, x2);
    detail::lu3_solve_lanes(c, x0, x1, x2);
    __m256 o0, o1, o2;
    detail::transpose_3x8(x0, x1, x2, o0, o1, o2);
    if (n == kL) {
      _mm256_storeu_ps(yd, o0);
      _mm256_storeu_ps(yd + 8, o1);
      _mm256_storeu_ps(yd + 16, o2);
    } else {
      const int nv = 3 * n;
      detail::apply_vec_masked<Mode::kAssign>(yd, o0, std::min(nv, 8));
      detail::apply_vec_masked<Mode::kAssign>(yd + 8, o1, std::clamp(nv - 8, 0, 8));
      detail::apply_vec_masked<Mode::kAssign>(yd + 16, o2, std::clamp(nv - 16, 0, 8));
    }
  }
}

/// Batched solve-and-subtract: z[rows] -= A^-1 w[rows] for every packed unit
/// (the backward-substitution tail; `w` is the per-chunk staging vector and
/// is not written back).
inline void solve_lu3_sub_avx2(const PackedLU3& p, const double* w, double* z) {
  const int ng = static_cast<int>(p.start.size());
  for (int g = 0; g < ng; ++g) {
    const std::size_t off = 3 * static_cast<std::size_t>(p.start[static_cast<std::size_t>(g)]);
    const double* wd = w + off;
    double* zd = z + off;
    const double* c = p.coef.data() + 48 * static_cast<std::size_t>(g);
    const int n = p.cnt[static_cast<std::size_t>(g)];
    __m256d in0, in1, in2;
    if (n == PackedLU3::kLanes) {
      in0 = _mm256_loadu_pd(wd);
      in1 = _mm256_loadu_pd(wd + 4);
      in2 = _mm256_loadu_pd(wd + 8);
    } else {
      const int nv = 3 * n;
      in0 = _mm256_maskload_pd(wd, detail::tail_mask(std::min(nv, 4)));
      in1 = _mm256_maskload_pd(wd + 4, detail::tail_mask(std::clamp(nv - 4, 0, 4)));
      in2 = _mm256_maskload_pd(wd + 8, detail::tail_mask(std::clamp(nv - 8, 0, 4)));
    }
    __m256d x0, x1, x2;
    detail::untranspose_3x4(in0, in1, in2, x0, x1, x2);
    detail::lu3_solve_lanes(c, x0, x1, x2);
    __m256d o0, o1, o2;
    detail::transpose_3x4(x0, x1, x2, o0, o1, o2);
    if (n == PackedLU3::kLanes) {
      detail::apply_vec<Mode::kSub>(zd, o0);
      detail::apply_vec<Mode::kSub>(zd + 4, o1);
      detail::apply_vec<Mode::kSub>(zd + 8, o2);
    } else {
      const int nv = 3 * n;
      detail::apply_vec_masked<Mode::kSub>(zd, o0, std::min(nv, 4));
      detail::apply_vec_masked<Mode::kSub>(zd + 4, o1, std::clamp(nv - 4, 0, 4));
      detail::apply_vec_masked<Mode::kSub>(zd + 8, o2, std::clamp(nv - 8, 0, 4));
    }
  }
}

/// fp32 batched solve-and-subtract over fp32 staging vectors.
inline void solve_lu3_sub_avx2(const PackedLU3T<float>& p, const float* w, float* z) {
  constexpr int kL = PackedLU3T<float>::kLanes;
  const int ng = static_cast<int>(p.start.size());
  for (int g = 0; g < ng; ++g) {
    const std::size_t off = 3 * static_cast<std::size_t>(p.start[static_cast<std::size_t>(g)]);
    const float* wd = w + off;
    float* zd = z + off;
    const float* c = p.coef.data() + 96 * static_cast<std::size_t>(g);
    const int n = p.cnt[static_cast<std::size_t>(g)];
    __m256 in0, in1, in2;
    if (n == kL) {
      in0 = _mm256_loadu_ps(wd);
      in1 = _mm256_loadu_ps(wd + 8);
      in2 = _mm256_loadu_ps(wd + 16);
    } else {
      const int nv = 3 * n;
      in0 = _mm256_maskload_ps(wd, detail::tail_mask32(std::min(nv, 8)));
      in1 = _mm256_maskload_ps(wd + 8, detail::tail_mask32(std::clamp(nv - 8, 0, 8)));
      in2 = _mm256_maskload_ps(wd + 16, detail::tail_mask32(std::clamp(nv - 16, 0, 8)));
    }
    __m256 x0, x1, x2;
    detail::untranspose_3x8(in0, in1, in2, x0, x1, x2);
    detail::lu3_solve_lanes(c, x0, x1, x2);
    __m256 o0, o1, o2;
    detail::transpose_3x8(x0, x1, x2, o0, o1, o2);
    if (n == kL) {
      detail::apply_vec<Mode::kSub>(zd, o0);
      detail::apply_vec<Mode::kSub>(zd + 8, o1);
      detail::apply_vec<Mode::kSub>(zd + 16, o2);
    } else {
      const int nv = 3 * n;
      detail::apply_vec_masked<Mode::kSub>(zd, o0, std::min(nv, 8));
      detail::apply_vec_masked<Mode::kSub>(zd + 8, o1, std::clamp(nv - 8, 0, 8));
      detail::apply_vec_masked<Mode::kSub>(zd + 16, o2, std::clamp(nv - 16, 0, 8));
    }
  }
}

#endif  // GEOFEM_SIMD_HAS_AVX2

}  // namespace geofem::simd
