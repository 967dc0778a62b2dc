#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace geofem::util {

/// Histogram of innermost-loop trip counts executed by a vectorizable kernel.
///
/// On the Earth Simulator the sustained rate of a vector loop is a strong
/// function of its trip count ("average vector length" in the paper's Figs
/// 26(d)/27(d)/30(d)/31(d)). We record every innermost loop length actually
/// executed so the machine model can integrate rate(n) over the real
/// distribution instead of guessing.
class LoopStats {
 public:
  void record(std::int64_t length, std::int64_t times = 1) {
    if (length <= 0 || times <= 0) return;
    total_length_ += length * times;
    count_ += times;
    if (length > max_) max_ = length;
    if (length < min_ || count_ == times) min_ = length;
    lengths_.push_back({length, times});
  }

  [[nodiscard]] double average() const {
    return count_ == 0 ? 0.0 : static_cast<double>(total_length_) / static_cast<double>(count_);
  }

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::int64_t total_length() const { return total_length_; }
  [[nodiscard]] std::int64_t max_length() const { return max_; }
  [[nodiscard]] std::int64_t min_length() const { return count_ == 0 ? 0 : min_; }

  struct Entry {
    std::int64_t length;
    std::int64_t times;
  };
  [[nodiscard]] const std::vector<Entry>& entries() const { return lengths_; }

  /// Append `o`'s entries in order: one bulk insert plus O(1) updates of the
  /// summary fields (the same state as record()-ing each entry in turn).
  void merge(const LoopStats& o) {
    if (o.count_ == 0) return;
    lengths_.insert(lengths_.end(), o.lengths_.begin(), o.lengths_.end());
    min_ = count_ == 0 ? o.min_ : std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    total_length_ += o.total_length_;
    count_ += o.count_;
  }

  void reset() { *this = LoopStats{}; }

 private:
  std::vector<Entry> lengths_;
  std::int64_t total_length_ = 0;
  std::int64_t count_ = 0;
  std::int64_t max_ = 0;
  std::int64_t min_ = 0;
};

}  // namespace geofem::util
