#pragma once

#include <type_traits>

#include "simd/simd.hpp"

#if GEOFEM_SIMD_HAS_AVX2
#include <immintrin.h>
#endif

/// 3x(k) multi-RHS micro-kernels (DESIGN.md §5k). The batched solve path
/// stores k right-hand sides as an interleaved row-major multivector —
/// value(dof i, column c) lives at X[i*k + c] — so the k columns of one DOF
/// are contiguous. That turns every 3x3-block kernel of block3.hpp into a
/// 3x(k) kernel whose innermost loop runs over RHS columns:
///
///   scalar tier — per column the same 3-term single-expression association
///     as ScalarAcc3 (`acc += a0*x0 + a1*x1 + a2*x2`), so a one-column batch
///     reproduces the historical arithmetic per column exactly. The column
///     loop carries GEOFEM_PRAGMA_SIMD: columns are independent, so the omp
///     tier vectorizes across them without reordering any column's sum.
///   avx2 tier — the lane dimension is the RHS column axis: broadcast one
///     matrix scalar (`_mm256_set1_pd`, the AvxAcc3::madd_t shape) and FMA it
///     against 4-column groups of the operand rows, scalar tail in order.
///     Rounds differently from the scalar tier (FMA contraction), covered by
///     the usual <= 1e-13 cross-build equivalence contract; deterministic
///     within a build because group boundaries depend only on k.
///
/// Like block3.hpp the kernels are templated on the *stored* scalar of the
/// matrix blocks (double, or float for fp32-stored factors); the multivector
/// operand and the accumulation always stay double. Callers pick the tier
/// once per kernel call (never per block) via the UseAvx template flag.
namespace geofem::simd {

/// Hard cap on RHS columns per batch. Keeps the per-row 3*k accumulator of
/// every multi-RHS kernel on the stack and bounds service batch memory; the
/// throughput win saturates well below this (bandwidth amortization is ~flat
/// past k ~ 16).
inline constexpr int kMaxMultiRhs = 32;

/// Width dispatch of the scalar/omp-tier multi-RHS sweeps, once per call:
/// f(std::integral_constant<int, K>{}) with K = k for the service's batch
/// widths k = 2..4, so the inlined column loops unroll over exactly k
/// columns (same per-column operations; runtime k lost to k single-column
/// kernels at k <= 2), and K = 0 (read the runtime k) otherwise. The AVX2
/// tier must not use it: under FMA contraction a constant k compiles the
/// scalar column tail of the kernels below to a differently contracted
/// sequence, which changes bits.
template <class F>
inline void with_fixed_width(int k, F&& f) {
  switch (k) {
    case 2: f(std::integral_constant<int, 2>{}); break;
    case 3: f(std::integral_constant<int, 3>{}); break;
    case 4: f(std::integral_constant<int, 4>{}); break;
    default: f(std::integral_constant<int, 0>{}); break;
  }
}

namespace mrhs_detail {

/// One block row of acc (+/-)= A * X: acc[c] op= a0*x0[c] + a1*x1[c] + a2*x2[c].
/// `Sign` is +1 (madd) or -1 (msub); the sum itself keeps the ScalarAcc3
/// association, only the final accumulate flips.
template <class T, int Sign>
inline void row_scalar(const T* a, const double* x, double* acc, int k) {
  const double a0 = static_cast<double>(a[0]);
  const double a1 = static_cast<double>(a[1]);
  const double a2 = static_cast<double>(a[2]);
  const double* x0 = x;
  const double* x1 = x + k;
  const double* x2 = x + 2 * k;
  GEOFEM_PRAGMA_SIMD
  for (int c = 0; c < k; ++c) {
    if constexpr (Sign > 0)
      acc[c] += a0 * x0[c] + a1 * x1[c] + a2 * x2[c];
    else
      acc[c] -= a0 * x0[c] + a1 * x1[c] + a2 * x2[c];
  }
}

#if GEOFEM_SIMD_HAS_AVX2
template <class T, int Sign>
inline void row_avx2(const T* a, const double* x, double* acc, int k) {
  const __m256d a0 = _mm256_set1_pd(static_cast<double>(a[0]));
  const __m256d a1 = _mm256_set1_pd(static_cast<double>(a[1]));
  const __m256d a2 = _mm256_set1_pd(static_cast<double>(a[2]));
  const double* x0 = x;
  const double* x1 = x + k;
  const double* x2 = x + 2 * k;
  int c = 0;
  for (; c + 4 <= k; c += 4) {
    __m256d v = _mm256_loadu_pd(acc + c);
    if constexpr (Sign > 0) {
      v = _mm256_fmadd_pd(a0, _mm256_loadu_pd(x0 + c), v);
      v = _mm256_fmadd_pd(a1, _mm256_loadu_pd(x1 + c), v);
      v = _mm256_fmadd_pd(a2, _mm256_loadu_pd(x2 + c), v);
    } else {
      v = _mm256_fnmadd_pd(a0, _mm256_loadu_pd(x0 + c), v);
      v = _mm256_fnmadd_pd(a1, _mm256_loadu_pd(x1 + c), v);
      v = _mm256_fnmadd_pd(a2, _mm256_loadu_pd(x2 + c), v);
    }
    _mm256_storeu_pd(acc + c, v);
  }
  // Scalar tail (columns k - k%4 .. k-1), in column order.
  const double s0 = static_cast<double>(a[0]);
  const double s1 = static_cast<double>(a[1]);
  const double s2 = static_cast<double>(a[2]);
  for (; c < k; ++c) {
    if constexpr (Sign > 0)
      acc[c] += s0 * x0[c] + s1 * x1[c] + s2 * x2[c];
    else
      acc[c] -= s0 * x0[c] + s1 * x1[c] + s2 * x2[c];
  }
}
#endif  // GEOFEM_SIMD_HAS_AVX2

}  // namespace mrhs_detail

/// One row of 3 matrix scalars against a 3-row x k multivector operand:
/// acc[c] += a[0]*x0[c] + a[1]*x1[c] + a[2]*x2[c]. Shared by the 3x3 block
/// kernels below and the DJDS dense-supernode SpMM phase (where `a` is one
/// row slice of the dense block).
template <class T, bool UseAvx>
inline void row3k_madd(const T* a, const double* x, double* acc, int k) {
#if GEOFEM_SIMD_HAS_AVX2
  if constexpr (UseAvx) {
    mrhs_detail::row_avx2<T, +1>(a, x, acc, k);
    return;
  }
#endif
  mrhs_detail::row_scalar<T, +1>(a, x, acc, k);
}

template <class T, bool UseAvx>
inline void row3k_msub(const T* a, const double* x, double* acc, int k) {
#if GEOFEM_SIMD_HAS_AVX2
  if constexpr (UseAvx) {
    mrhs_detail::row_avx2<T, -1>(a, x, acc, k);
    return;
  }
#endif
  mrhs_detail::row_scalar<T, -1>(a, x, acc, k);
}

#if GEOFEM_SIMD_HAS_AVX2
/// Register-resident 3 x (4*KV) multi-RHS accumulator (k = 4*KV columns,
/// KV <= 2 so acc + operand vectors fit the 16 ymm registers). Applies the
/// exact per-lane FMA sequence of row_avx2 — a0, a1, a2 in order — so the
/// result is bit-identical to the generic kernels; the only change is that
/// the accumulator stays in registers across an entire block stream instead
/// of round-tripping the stack on every 3x3 block, and the three operand
/// row-vectors are loaded once per block instead of once per block row.
template <class T, int KV>
struct AvxAccK {
  static_assert(KV >= 1 && KV <= 2, "register budget: k = 4 or 8 only");
  __m256d v[3][KV];

  inline void init_zero() {
    for (int r = 0; r < 3; ++r)
      for (int g = 0; g < KV; ++g) v[r][g] = _mm256_setzero_pd();
  }
  /// Start from an existing y row (the DJDS jagged phase accumulates into y
  /// already holding the diagonal + dense-supernode contributions).
  inline void init_load(const double* y) {
    for (int r = 0; r < 3; ++r)
      for (int g = 0; g < KV; ++g) v[r][g] = _mm256_loadu_pd(y + (r * KV + g) * 4);
  }
  inline void madd(const T* a, const double* x) {
    __m256d xv[3][KV];
    for (int r = 0; r < 3; ++r)
      for (int g = 0; g < KV; ++g) xv[r][g] = _mm256_loadu_pd(x + (r * KV + g) * 4);
    for (int r = 0; r < 3; ++r) {
      const __m256d a0 = _mm256_set1_pd(static_cast<double>(a[3 * r]));
      const __m256d a1 = _mm256_set1_pd(static_cast<double>(a[3 * r + 1]));
      const __m256d a2 = _mm256_set1_pd(static_cast<double>(a[3 * r + 2]));
      for (int g = 0; g < KV; ++g) {
        v[r][g] = _mm256_fmadd_pd(a0, xv[0][g], v[r][g]);
        v[r][g] = _mm256_fmadd_pd(a1, xv[1][g], v[r][g]);
        v[r][g] = _mm256_fmadd_pd(a2, xv[2][g], v[r][g]);
      }
    }
  }
  inline void reduce(double* y) const {
    for (int r = 0; r < 3; ++r)
      for (int g = 0; g < KV; ++g) _mm256_storeu_pd(y + (r * KV + g) * 4, v[r][g]);
  }
};
#endif  // GEOFEM_SIMD_HAS_AVX2

/// acc[br*k + c] += (A * X)[br][c] for a row-major 3x3 block A and a 3-row
/// interleaved operand X (rows of stride k). The multi-RHS ScalarAcc3::madd.
template <class T, bool UseAvx>
inline void b3k_madd(const T* a, const double* x, double* acc, int k) {
  row3k_madd<T, UseAvx>(a, x, acc, k);
  row3k_madd<T, UseAvx>(a + 3, x, acc + k, k);
  row3k_madd<T, UseAvx>(a + 6, x, acc + 2 * k, k);
}

/// acc -= A * X (the substitution-sweep update).
template <class T, bool UseAvx>
inline void b3k_msub(const T* a, const double* x, double* acc, int k) {
  row3k_msub<T, UseAvx>(a, x, acc, k);
  row3k_msub<T, UseAvx>(a + 3, x, acc + k, k);
  row3k_msub<T, UseAvx>(a + 6, x, acc + 2 * k, k);
}

/// z = A * X (assign): the multi-RHS b3_apply, used for (block-)diagonal
/// scaling and the inverse-diagonal application of the BIC sweeps.
template <class T, bool UseAvx>
inline void b3k_apply(const T* a, const double* x, double* z, int k) {
  for (int c = 0; c < 3 * k; ++c) z[c] = 0.0;
  b3k_madd<T, UseAvx>(a, x, z, k);
}

}  // namespace geofem::simd
