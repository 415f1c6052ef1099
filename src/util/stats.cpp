#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.hpp"

namespace eyeball::util {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double combined = n1 + n2;
  mean_ += delta * n2 / combined;
  m2_ += other.m2_ + delta * delta * n1 * n2 / combined;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::span<const double> values, double q) {
  std::vector<double> copy(values.begin(), values.end());
  return percentile_in_place(copy, q);
}

namespace {

/// Rejects what percentile() refuses and returns the fractional rank of
/// quantile `q` (percent) in a sample of `size` values.
double checked_rank(std::size_t size, double q) {
  if (size == 0) throw std::invalid_argument{"percentile: empty sample"};
  // The negated comparison also rejects NaN: a NaN q would sail through
  // `q < 0 || q > 100`, poison `rank`, and hit the float->int cast below
  // (undefined behaviour for NaN).
  if (!(q >= 0.0 && q <= 100.0)) {
    throw std::invalid_argument{"percentile: q outside [0,100]"};
  }
  return q / 100.0 * static_cast<double>(size - 1);
}

/// Linear interpolation between order statistic `lo` = floor(rank) and the
/// one after it (`vhi == vlo` at the top of the sample).
double interpolate(double rank, std::size_t lo, double vlo, double vhi) {
  const double frac = rank - static_cast<double>(lo);
  return vlo + frac * (vhi - vlo);
}

}  // namespace

double percentile_in_place(std::span<double> values, double q) {
  const double rank = checked_rank(values.size(), q);
  const auto lo = static_cast<std::size_t>(rank);
  EYEBALL_DCHECK(lo < values.size(), "percentile rank landed outside the sample");
  // Selection, not a sort: order statistic `lo` lands in place with
  // everything after it no smaller, so the next one is the least of that
  // tail.  Equal doubles differ in bits only as ±0.0, and interpolating
  // between zeros yields +0.0 whichever sign each one carries, so the
  // result is bit-identical to reading a fully sorted sample.
  const auto at_lo = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), at_lo, values.end());
  const double vlo = *at_lo;
  const double vhi =
      lo + 1 < values.size() ? *std::min_element(at_lo + 1, values.end()) : vlo;
  return interpolate(rank, lo, vlo, vhi);
}

double mean(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument{"mean: empty sample"};
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double median(std::span<const double> values) { return percentile(values, 50.0); }

EmpiricalCdf::EmpiricalCdf(std::vector<double> values) : sorted_(std::move(values)) {
  if (sorted_.empty()) throw std::invalid_argument{"EmpiricalCdf: empty sample"};
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const noexcept {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const {
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument{"EmpiricalCdf::quantile"};
  const double rank = checked_rank(sorted_.size(), q * 100.0);
  const auto lo = static_cast<std::size_t>(rank);
  return interpolate(rank, lo, sorted_[lo], sorted_[std::min(lo + 1, sorted_.size() - 1)]);
}

std::vector<EmpiricalCdf::Point> EmpiricalCdf::trace(double lo, double hi,
                                                     std::size_t steps) const {
  if (steps < 2) throw std::invalid_argument{"EmpiricalCdf::trace: steps < 2"};
  std::vector<Point> points;
  points.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(steps - 1);
    points.push_back({x, at(x)});
  }
  return points;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  // Validate before deriving width_ so the member never holds a 0-division
  // artifact (bins == 0) or a NaN (inverted/NaN bounds), even transiently.
  if (bins == 0) throw std::invalid_argument{"Histogram: bins must be positive"};
  if (!(hi > lo)) throw std::invalid_argument{"Histogram: hi must exceed lo"};
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_.assign(bins, 0.0);
}

void Histogram::add(double x, double weight) noexcept {
  total_ += weight;
  // The negated comparison routes NaN to underflow instead of feeding it to
  // the float->int cast (undefined behaviour for NaN).
  if (!(x >= lo_)) {
    underflow_ += weight;
    return;
  }
  if (x >= hi_) {
    overflow_ += weight;
    return;
  }
  auto bin = static_cast<std::size_t>((x - lo_) / width_);
  // x just below hi_ can round into bin == size() through the division.
  bin = std::min(bin, counts_.size() - 1);
  EYEBALL_DCHECK(bin < counts_.size(), "histogram bin index out of range");
  counts_[bin] += weight;
}

double Histogram::bin_low(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range{"Histogram::bin_low"};
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_high(std::size_t bin) const { return bin_low(bin) + width_; }

double Histogram::count(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range{"Histogram::count"};
  return counts_[bin];
}

}  // namespace eyeball::util
