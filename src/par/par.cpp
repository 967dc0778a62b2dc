#include "par/par.hpp"

#include <algorithm>

#include "util/check.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace geofem::par {

int hardware_threads() {
#ifdef _OPENMP
  return std::max(1, omp_get_max_threads());
#else
  return 1;
#endif
}

int resolve_threads(int requested) {
  return requested <= 0 ? hardware_threads() : requested;
}

namespace {
// 0 = unset: threads() falls back to the hardware default, so library
// entry points that never open a TeamScope still behave like plain OpenMP.
thread_local int tl_team = 0;
}  // namespace

int threads() { return tl_team > 0 ? tl_team : hardware_threads(); }

TeamScope::TeamScope(int requested) : prev_(tl_team) { tl_team = resolve_threads(requested); }

TeamScope::~TeamScope() { tl_team = prev_; }

Range static_range(std::size_t n, int parts, int part) {
  GEOFEM_CHECK(parts >= 1 && part >= 0 && part < parts, "static_range: bad part index");
  const std::size_t p = static_cast<std::size_t>(parts);
  const std::size_t t = static_cast<std::size_t>(part);
  const std::size_t base = n / p;
  const std::size_t extra = n % p;
  const std::size_t begin = t * base + std::min(t, extra);
  return {begin, begin + base + (t < extra ? 1 : 0)};
}

void LowestError::record(std::ptrdiff_t i, std::exception_ptr e) noexcept {
  std::lock_guard lock(mtx_);
  if (i < at_) {
    at_ = i;
    err_ = std::move(e);
  }
}

void LowestError::rethrow() const {
  if (err_) std::rethrow_exception(err_);
}

LevelSchedule schedule_from_levels(std::span<const int> level_of) {
  LevelSchedule s;
  int nlev = 0;
  for (int l : level_of) {
    GEOFEM_CHECK(l >= 0, "schedule_from_levels: negative level");
    nlev = std::max(nlev, l + 1);
  }
  s.level_ptr.assign(static_cast<std::size_t>(nlev) + 1, 0);
  for (int l : level_of) ++s.level_ptr[static_cast<std::size_t>(l) + 1];
  for (int l = 0; l < nlev; ++l)
    s.level_ptr[static_cast<std::size_t>(l) + 1] += s.level_ptr[static_cast<std::size_t>(l)];
  s.rows.resize(level_of.size());
  std::vector<int> pos(s.level_ptr.begin(), s.level_ptr.end() - 1);
  for (std::size_t i = 0; i < level_of.size(); ++i)
    s.rows[static_cast<std::size_t>(pos[static_cast<std::size_t>(level_of[i])]++)] =
        static_cast<int>(i);
  return s;
}

}  // namespace geofem::par
