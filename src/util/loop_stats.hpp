#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace geofem::util {

/// Histogram of innermost-loop trip counts executed by a vectorizable kernel.
///
/// On the Earth Simulator the sustained rate of a vector loop is a strong
/// function of its trip count ("average vector length" in the paper's Figs
/// 26(d)/27(d)/30(d)/31(d)). We count every innermost loop length actually
/// executed so the machine model can integrate rate(n) over the real
/// distribution instead of guessing.
///
/// Storage is one (length, times) entry per DISTINCT length, so its size is
/// bounded by the kernels' structure, not by how many loops ran: a CG solve
/// of any iteration count holds a few dozen entries. record() and merge()
/// update entries in place and allocate only when a new length appears.
class LoopStats {
 public:
  struct Entry {
    std::int64_t length;
    std::int64_t times;
  };

  void record(std::int64_t length, std::int64_t times = 1) {
    if (length <= 0 || times <= 0) return;
    total_length_ += length * times;
    count_ += times;
    if (length > max_) max_ = length;
    if (length < min_ || count_ == times) min_ = length;
    add(entries_.begin(), length, times);
  }

  [[nodiscard]] double average() const {
    return count_ == 0 ? 0.0 : static_cast<double>(total_length_) / static_cast<double>(count_);
  }

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::int64_t total_length() const { return total_length_; }
  [[nodiscard]] std::int64_t max_length() const { return max_; }
  [[nodiscard]] std::int64_t min_length() const { return count_ == 0 ? 0 : min_; }

  /// One entry per distinct length, in ascending length order (not the order
  /// the loops executed in); `times` sums every record of that length.
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Add every entry of `o`: the same state as record()-ing each of its
  /// entries in turn, in O(distinct lengths) once both share their lengths.
  void merge(const LoopStats& o) {
    if (o.count_ == 0) return;
    auto pos = entries_.begin();
    for (const Entry& e : o.entries_) pos = add(pos, e.length, e.times);
    min_ = count_ == 0 ? o.min_ : std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    total_length_ += o.total_length_;
    count_ += o.count_;
  }

  void reset() { *this = LoopStats{}; }

 private:
  /// Add `times` to the entry of `length`, inserting it in order if new; the
  /// search starts at `from`. Returns the position just past that entry.
  std::vector<Entry>::iterator add(std::vector<Entry>::iterator from, std::int64_t length,
                                   std::int64_t times) {
    auto it = std::lower_bound(from, entries_.end(), length,
                               [](const Entry& e, std::int64_t l) { return e.length < l; });
    if (it != entries_.end() && it->length == length)
      it->times += times;
    else
      it = entries_.insert(it, Entry{length, times});
    return it + 1;
  }

  std::vector<Entry> entries_;
  std::int64_t total_length_ = 0;
  std::int64_t count_ = 0;
  std::int64_t max_ = 0;
  std::int64_t min_ = 0;
};

}  // namespace geofem::util
