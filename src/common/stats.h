#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace wow {

/// Streaming mean / standard deviation (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stdev() const { return std::sqrt(variance()); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile over uniform-width bucket counts spanning [lo, hi):
/// find the bucket the rank falls in, interpolate linearly inside it.
/// The body of Histogram::percentile, over any vector of bucket counts.
[[nodiscard]] double percentile_of_buckets(
    double lo, double hi, const std::vector<std::size_t>& counts, double p);

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp into the
/// first/last bin so totals are preserved.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const {
    return counts_[bin];
  }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  [[nodiscard]] double bin_hi(std::size_t bin) const;
  [[nodiscard]] double frequency(std::size_t bin) const;

  /// p in [0,100], interpolated linearly inside the bucket that crosses
  /// the rank — accurate to one bucket width (clamped samples report the
  /// edge bucket they landed in).  0 when empty.
  [[nodiscard]] double percentile(double p) const {
    return percentile_of_buckets(lo_, hi_, counts_, p);
  }

  /// Render rows "lo..hi  count  (pct%)  ###" for report output.
  [[nodiscard]] std::string render(int bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// p in [0,100]; linear interpolation between order statistics.
/// `values` is copied and sorted internally.
[[nodiscard]] double percentile(std::vector<double> values, double p);

}  // namespace wow
