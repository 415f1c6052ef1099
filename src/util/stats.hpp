// Summary statistics and empirical distributions used by the evaluation
// harness (CDFs in Figure 2, percentile-based geo-error rules in §3.1).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace eyeball::util {

/// Streaming accumulator for mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile of a sample (linear interpolation between order statistics).
/// `q` in [0, 100].  Throws std::invalid_argument on empty input.
[[nodiscard]] double percentile(std::span<const double> values, double q);

/// Same statistic, but reorders `values` in place instead of copying —
/// the allocation-free variant for hot loops that already own a scratch
/// buffer (the dataset build's per-AS p90 filter).  O(n): it selects the
/// two order statistics instead of sorting, and leaves `values` a
/// permutation of its input in no particular order.  Returns exactly what
/// `percentile` returns on the same sample, bit for bit.
[[nodiscard]] double percentile_in_place(std::span<double> values, double q);

[[nodiscard]] double mean(std::span<const double> values);
[[nodiscard]] double median(std::span<const double> values);

/// Empirical CDF over a finite sample.  Supports evaluation at arbitrary x
/// and extraction of evenly spaced (x, F(x)) points for plotting/printing.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> values);

  /// Fraction of samples <= x.
  [[nodiscard]] double at(double x) const noexcept;
  /// Inverse CDF (quantile), q in [0, 1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::size_t count() const noexcept { return sorted_.size(); }
  [[nodiscard]] const std::vector<double>& sorted() const noexcept { return sorted_; }

  struct Point {
    double x;
    double cumulative_fraction;
  };
  /// Evenly spaced CDF trace over [lo, hi] with `steps` points.
  [[nodiscard]] std::vector<Point> trace(double lo, double hi, std::size_t steps) const;

 private:
  std::vector<double> sorted_;
};

/// Fixed-width histogram over [lo, hi).  Out-of-range samples are counted
/// in dedicated underflow/overflow tallies rather than being folded into
/// the edge bins (which would inflate the tails of the validation CDFs).
/// Used by density diagnostics and the bias ablation.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0) noexcept;
  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] double bin_low(std::size_t bin) const;
  [[nodiscard]] double bin_high(std::size_t bin) const;
  [[nodiscard]] double count(std::size_t bin) const;
  /// Everything ever added, including out-of-range weight.
  [[nodiscard]] double total() const noexcept { return total_; }
  /// Weight of samples below lo (NaN counts here too — it fits no bin).
  [[nodiscard]] double underflow() const noexcept { return underflow_; }
  /// Weight of samples at or above hi.
  [[nodiscard]] double overflow() const noexcept { return overflow_; }
  /// Weight that actually landed in a bin.
  [[nodiscard]] double in_range() const noexcept {
    return total_ - underflow_ - overflow_;
  }

 private:
  double lo_;
  double hi_;
  double width_ = 0.0;
  double total_ = 0.0;
  double underflow_ = 0.0;
  double overflow_ = 0.0;
  std::vector<double> counts_;
};

}  // namespace eyeball::util
