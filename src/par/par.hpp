#pragma once

#include <cstddef>
#include <exception>
#include <limits>
#include <mutex>
#include <span>
#include <vector>

/// geofem::par — the hybrid-execution layer (DESIGN.md §5e).
///
/// The paper's three-level programming model is MPI across SMP nodes, OpenMP
/// across the PEs of a node, and vectorization inside each PE. This layer
/// supplies the middle level: a per-thread team-size setting (so each
/// simulated-MPI rank can run its own OpenMP team), a deterministic
/// fixed-shape reduction for the BLAS-1 kernels, and level schedules that let
/// the substitution sweeps run rows of one dependency level concurrently.
///
/// The contract every kernel built on this layer honours: results are
/// BIT-IDENTICAL for any team size. Reductions always use the same chunk
/// grid and the same pairwise combination tree regardless of how chunks are
/// assigned to threads; parallel sweeps only reorder *row* execution, never
/// the arithmetic inside a row or the order of accumulations into one row.
///
/// Interplay with the SIMD layer (geofem::simd, DESIGN.md 5f): lanes sit
/// *inside* the unit this layer schedules — vectorization changes how one
/// row/chunk is computed, threading changes which thread computes it. A
/// kernel's per-row arithmetic is fixed per build configuration (scalar, omp
/// or avx2), so the team-size bit-identity above holds within every SIMD
/// configuration; only *across* configurations do results differ (tolerance-
/// checked, <= 1e-13 relative).
namespace geofem::par {

/// Threads the host offers (omp_get_max_threads, 1 without OpenMP).
[[nodiscard]] int hardware_threads();

/// Resolve a requested team size: 0 (or negative) means "all hardware
/// threads"; anything else is taken as given (clamped to >= 1).
[[nodiscard]] int resolve_threads(int requested);

/// Team size for hybrid kernels on the calling thread. Defaults to all
/// hardware threads; overridden per thread by TeamScope (which is how
/// SolveConfig::threads / DistOptions::threads reach the kernels).
[[nodiscard]] int threads();

/// RAII override of the calling thread's team size. Nests; the previous
/// setting is restored on destruction. Thread-local by design: each
/// simulated-MPI rank thread carries its own team size.
class TeamScope {
 public:
  explicit TeamScope(int requested);
  ~TeamScope();
  TeamScope(const TeamScope&) = delete;
  TeamScope& operator=(const TeamScope&) = delete;

 private:
  int prev_;
};

// ---------------------------------------------------------------------------
// Deterministic reductions
// ---------------------------------------------------------------------------

/// Fixed chunk length of the deterministic reductions. The chunk grid depends
/// only on the vector length, never on the team size, so per-chunk partial
/// sums are identical no matter which thread computes them.
inline constexpr std::size_t kReduceChunk = 1024;

/// Number of reduction chunks covering a vector of length n.
[[nodiscard]] inline std::size_t reduce_chunks(std::size_t n) {
  return (n + kReduceChunk - 1) / kReduceChunk;
}

/// Combine per-chunk partials with a fixed-shape pairwise tree (split at
/// n/2, recurse). The shape depends only on `n`, which makes the result
/// independent of thread count — and better conditioned than a left-to-right
/// running sum as a bonus. Templated on the partial scalar so fp32-staged
/// kernels can reduce in their stored precision; T = double is the
/// historical (bit-exact) reduction.
template <class T>
[[nodiscard]] T combine(const T* partials, std::size_t n) {
  if (n == 0) return T(0);
  if (n == 1) return partials[0];
  if (n == 2) return partials[0] + partials[1];
  const std::size_t h = n / 2;
  return combine(partials, h) + combine(partials + h, n - h);
}

// ---------------------------------------------------------------------------
// Static range partition
// ---------------------------------------------------------------------------

/// Contiguous element range [begin, end).
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// Deterministic static partition of [0, n) into `parts` contiguous ranges;
/// the first n % parts ranges get one extra element. Used where a kernel
/// wants explicit ranges instead of an `omp for` (e.g. per-thread staging
/// buffers).
[[nodiscard]] Range static_range(std::size_t n, int parts, int part);

// ---------------------------------------------------------------------------
// Loops of independent iterations
// ---------------------------------------------------------------------------

/// The exceptions of a parallel loop's iterations. An exception must not
/// leave an OpenMP region, so each iteration's is caught and recorded, and
/// after the region the lowest iteration's is rethrown: the one the serial
/// loop throws when the iterations are independent.
class LowestError {
 public:
  /// Run f() as iteration i, recording what it throws.
  template <class F>
  void run(std::ptrdiff_t i, F&& f) noexcept {
    try {
      f();
    } catch (...) {
      record(i, std::current_exception());
    }
  }
  /// Rethrow the lowest recorded iteration's exception; no-op if none.
  void rethrow() const;

 private:
  void record(std::ptrdiff_t i, std::exception_ptr e) noexcept;
  std::mutex mtx_;
  std::ptrdiff_t at_ = std::numeric_limits<std::ptrdiff_t>::max();
  std::exception_ptr err_;
};

/// body(state, i) for every i in [0, n) on up to `team` threads. `State` is
/// default-constructed once per thread and handed to each iteration that
/// thread runs (scratch reused across iterations). grain > 0 deals
/// iterations round-robin in chunks of `grain` (uneven iterations); grain <=
/// 0 gives each thread one contiguous range (even per-row work). Either way
/// which thread runs an iteration depends only on n, team and grain, never
/// on timing: an array an iteration allocates comes from that thread's
/// malloc arena, and so lands in the same heap in every run. Iterations must
/// write disjoint data and each run the serial loop's arithmetic; the
/// result is then the serial loop's for every team size. A throwing
/// iteration does not end the loop; the lowest throwing iteration's
/// exception is rethrown after it (LowestError). With team <= 1 the loop
/// runs serially in order and opens no region.
template <class State, class Body>
void parallel_for_with(std::ptrdiff_t n, int team, std::ptrdiff_t grain, Body&& body) {
  if (team <= 1 || n <= 1) {
    State st;
    for (std::ptrdiff_t i = 0; i < n; ++i) body(st, i);
    return;
  }
  LowestError err;
#pragma omp parallel num_threads(team)
  {
    State st;
    if (grain > 0) {
#pragma omp for schedule(static, grain)
      for (std::ptrdiff_t i = 0; i < n; ++i) err.run(i, [&] { body(st, i); });
    } else {
#pragma omp for schedule(static)
      for (std::ptrdiff_t i = 0; i < n; ++i) err.run(i, [&] { body(st, i); });
    }
  }
  err.rethrow();
}

/// parallel_for_with without per-thread state: body(i).
template <class Body>
void parallel_for(std::ptrdiff_t n, int team, std::ptrdiff_t grain, Body&& body) {
  struct None {};
  parallel_for_with<None>(n, team, grain, [&](None&, std::ptrdiff_t i) { body(i); });
}

// ---------------------------------------------------------------------------
// Level schedules for triangular substitution
// ---------------------------------------------------------------------------

/// Rows grouped by dependency level: all rows of one level are mutually
/// independent in the triangular pattern, so they can run concurrently,
/// while levels execute in order. Within a level, rows are kept in their
/// original (ascending) order. Executing a sweep level by level produces
/// bit-identical results to the natural-order serial sweep: each row's
/// arithmetic is unchanged and all of its dependencies are complete when it
/// runs. On MC/CM-RCM-ordered matrices the levels coincide with the colors.
struct LevelSchedule {
  std::vector<int> rows;       ///< all rows, grouped by level
  std::vector<int> level_ptr;  ///< size num_levels() + 1

  [[nodiscard]] int num_levels() const { return static_cast<int>(level_ptr.size()) - 1; }
  [[nodiscard]] std::span<const int> level(int l) const {
    return std::span<const int>(rows).subspan(
        static_cast<std::size_t>(level_ptr[static_cast<std::size_t>(l)]),
        static_cast<std::size_t>(level_ptr[static_cast<std::size_t>(l) + 1] -
                                 level_ptr[static_cast<std::size_t>(l)]));
  }
  /// A schedule with one row per level is fully sequential — parallel
  /// execution would only add fork/join overhead.
  [[nodiscard]] bool sequential() const {
    return num_levels() >= static_cast<int>(rows.size());
  }
};

/// Build a schedule from per-row levels (level_of[i] in [0, max_level]).
/// Stable: rows of equal level keep ascending order.
[[nodiscard]] LevelSchedule schedule_from_levels(std::span<const int> level_of);

/// Execute `row(i)` for every row of the schedule, level by level, with rows
/// of one level spread over `team` threads. With team <= 1 (or a fully
/// sequential schedule) the rows run serially in schedule order — same
/// values either way, since rows within a level are independent. Otherwise
/// the whole sweep is ONE parallel region with an `omp for` per level: the
/// implicit barrier orders the levels at the cost of a barrier, not a
/// fork/join, per level (DESIGN.md §5e).
template <class RowFn>
inline void for_levels(const LevelSchedule& s, int team, RowFn&& row) {
  if (team <= 1 || s.sequential()) {
    for (int r : s.rows) row(r);
    return;
  }
  const int nlev = s.num_levels();
#pragma omp parallel num_threads(team)
  for (int l = 0; l < nlev; ++l) {
    const auto lv = s.level(l);
    const std::ptrdiff_t m = static_cast<std::ptrdiff_t>(lv.size());
#pragma omp for schedule(static)
    for (std::ptrdiff_t t = 0; t < m; ++t) row(lv[static_cast<std::size_t>(t)]);
  }
}

}  // namespace geofem::par
