#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

/// geofem::simd — the SIMD kernel layer (DESIGN.md 5f).
///
/// The paper's reordering pipeline (MC/CM-RCM -> DJDS -> PDJDS) exists to
/// hand the Earth Simulator's vector pipes long, stride-regular innermost
/// loops. On modern x86 the direct analog is SIMD lanes: this layer supplies
/// the lane-aware building blocks — a 64-byte-aligned allocator for all hot
/// value/vector storage, 3x3 block micro-kernels, and vectorized jagged-
/// diagonal sweeps — behind a compile-time dispatch selected by the CMake
/// option GEOFEM_SIMD (off | omp | avx2):
///
///   off  (level 0)  plain scalar loops, the historical kernels
///   omp  (level 1)  `#pragma omp simd` on the long innermost loops (default)
///   avx2 (level 2)  hand-tiled AVX2/FMA micro-kernels (-mavx2 -mfma)
///
/// Determinism contract (tested by the `hybrid` ctest label):
///   * Within one build configuration, results are bit-identical across
///     thread counts and halo overlap on/off — lane order is fixed per
///     kernel, and vectorization never reorders accumulation across rows.
///   * Across build configurations (scalar vs omp vs avx2), kernel outputs
///     agree to <= 1e-13 relative — FMA contraction and fixed-tree horizontal
///     sums round differently, so equivalence is tolerance-checked, not
///     bitwise.
namespace geofem::simd {

#ifndef GEOFEM_SIMD_LEVEL
#define GEOFEM_SIMD_LEVEL 1
#endif

/// True when the hand-tiled AVX2/FMA kernels are compiled in (requires both
/// GEOFEM_SIMD=avx2 and a compiler invocation that enables the ISA).
#if GEOFEM_SIMD_LEVEL >= 2 && defined(__AVX2__) && defined(__FMA__)
#define GEOFEM_SIMD_HAS_AVX2 1
#else
#define GEOFEM_SIMD_HAS_AVX2 0
#endif

/// `GEOFEM_PRAGMA_SIMD` marks a loop as safe to vectorize (no loop-carried
/// dependency). Expands to `#pragma omp simd` at level >= 1, nothing at
/// level 0 so the off build keeps the exact historical loop shapes.
#define GEOFEM_SIMD_PRAGMA_(x) _Pragma(#x)
#if GEOFEM_SIMD_LEVEL >= 1 && defined(_OPENMP)
#define GEOFEM_PRAGMA_SIMD GEOFEM_SIMD_PRAGMA_(omp simd)
#define GEOFEM_PRAGMA_SIMD_REDUCTION(expr) GEOFEM_SIMD_PRAGMA_(omp simd reduction(expr))
#else
#define GEOFEM_PRAGMA_SIMD
#define GEOFEM_PRAGMA_SIMD_REDUCTION(expr)
#endif

/// Scalar reference kernels carry these so the in-binary "scalar" baseline
/// (bench_kernels, equivalence tests) is genuinely scalar even at -O3:
/// GEOFEM_NOVEC_FN on the function (GCC), GEOFEM_PRAGMA_NOVEC on the loop
/// (clang).
#if defined(__clang__)
#define GEOFEM_NOVEC_FN __attribute__((noinline))
#define GEOFEM_PRAGMA_NOVEC _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define GEOFEM_NOVEC_FN \
  __attribute__((noinline, optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#define GEOFEM_PRAGMA_NOVEC
#else
#define GEOFEM_NOVEC_FN
#define GEOFEM_PRAGMA_NOVEC
#endif

/// Kernel implementation tiers, ordered: a build can always run every tier at
/// or below its compile-time ceiling (used by benchmarks/tests to time the
/// scalar baseline inside a SIMD build).
enum class Isa : int {
  kScalar = 0,   ///< plain scalar loops (reference kernels)
  kOmpSimd = 1,  ///< `#pragma omp simd` portable vectorization
  kAvx2 = 2,     ///< hand-tiled AVX2/FMA intrinsics
};

/// The build's ceiling — what GEOFEM_SIMD selected at configure time.
constexpr Isa compiled_isa() {
#if GEOFEM_SIMD_HAS_AVX2
  return Isa::kAvx2;
#elif GEOFEM_SIMD_LEVEL >= 1
  return Isa::kOmpSimd;
#else
  return Isa::kScalar;
#endif
}

/// SIMD lanes (doubles per vector op) a tier targets on this build.
constexpr int lane_width(Isa isa) {
  if (isa == Isa::kScalar) return 1;
#if defined(__AVX2__)
  return 4;  // 256-bit registers
#else
  return isa == Isa::kAvx2 ? 4 : 2;  // baseline x86-64: 128-bit SSE2
#endif
}

const char* isa_name(Isa isa);

/// Tier the kernels dispatch on for the calling thread: the compile-time
/// ceiling unless an IsaScope lowered it. Kernels read this once per call
/// (outside their parallel regions), so a scope set on the calling thread
/// governs the whole operation.
Isa active();

/// Name of active() — "scalar", "omp-simd" or "avx2". This is what the obs
/// gauges and every bench JSON record, so every number is tagged with the
/// kernel path that produced it.
const char* active_isa();
inline int lane_width() { return lane_width(active()); }

/// RAII downgrade of the dispatch tier on the calling thread (requests above
/// the compiled ceiling are clamped). Benchmarks use it to time the scalar
/// baseline in the same binary; tests use it for SIMD-vs-scalar equivalence.
class IsaScope {
 public:
  explicit IsaScope(Isa isa);
  ~IsaScope();
  IsaScope(const IsaScope&) = delete;
  IsaScope& operator=(const IsaScope&) = delete;

 private:
  Isa prev_;
};

/// Minimal allocator giving 64-byte alignment — one cache line, and enough
/// for any vector ISA up to AVX-512. All hot value arrays (BlockCSR::val,
/// DJDS values/diagonals, solver vectors) use it so vector loads never split
/// cache lines and aligned intrinsics are always legal on array bases.
///
/// It over-allocates with plain `operator new` and aligns inside the block,
/// keeping the block's address just below the aligned base. The aligned form
/// of `operator new` (glibc memalign) asks for size + alignment + a minimum
/// chunk, so with it an array can never reuse the exact-size hole a freed
/// array of the same size leaves: rebuilding a model of the same size then
/// grows the heap by the whole value array whenever that hole is fenced in
/// by live blocks. A plain request of the same size fits the hole.
template <class T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    constexpr std::size_t kExtra = kAlign + sizeof(void*);
    if (n > (static_cast<std::size_t>(-1) - kExtra) / sizeof(T)) throw std::bad_array_new_length();
    void* block = ::operator new(n * sizeof(T) + kExtra);
    const std::uintptr_t base =
        (reinterpret_cast<std::uintptr_t>(block) + kExtra) & ~std::uintptr_t{kAlign - 1};
    reinterpret_cast<void**>(base)[-1] = block;
    return reinterpret_cast<T*>(base);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }
  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace geofem::simd
