// The closed-loop reader: it sends its next query when the previous answer is
// back, like an in-process caller waiting on EyeballService.  Every 16 point
// queries it also sends one 16-ASN batch.  A query's latency covers the call,
// reading the answer, and dropping the epoch pin it returned.  Every query's
// latency is recorded, in one histogram per one-second slice.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "serve/service.hpp"
#include "world.hpp"

namespace perfbench {

inline constexpr std::size_t kBatchEvery = 16;
inline constexpr std::size_t kBatchSize = 16;
/// A point query slower than this is a stall.
inline constexpr std::int64_t kStallNs = 100'000;

/// Latency counts: exact below 8192 ns, then 512 buckets per power of two
/// (0.2% wide) up to 2^32 ns.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}

  void record(std::int64_t ns) {
    ++counts_[bucket(ns)];
    ++total_;
  }
  void add(const Histogram& other);
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Nearest-rank q-quantile in ns (a bucket's lower edge); 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr std::size_t kExact = 8192;
  static constexpr std::size_t kSubBits = 9;
  static constexpr std::size_t kBuckets = kExact + (32 - 13) * (std::size_t{1} << kSubBits);

  static std::size_t bucket(std::int64_t ns);

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

struct ReadStats {
  std::uint64_t point_queries = 0;
  std::uint64_t batch_queries = 0;
  std::uint64_t point_failed = 0;
  std::uint64_t batch_failed = 0;
  /// ASNs asked (points plus batch entries), those the generator drew as
  /// misses, and those answered with no analysis.
  std::uint64_t asked = 0;
  std::uint64_t asked_misses = 0;
  std::uint64_t unanswered = 0;
  /// [start, end) of every stalled point query, steady_clock ns.
  std::vector<std::pair<std::int64_t, std::int64_t>> stalls;
  /// Latencies, one histogram per one-second slice.
  std::vector<Histogram> point_slices;
  std::vector<Histogram> batch_slices;
  /// (point + batch queries) / wall seconds, and the wall seconds.
  double queries_per_s = 0.0;
  double seconds = 0.0;

  /// Appends a later run of the same reader.  queries_per_s becomes the
  /// rate over both.
  void append(ReadStats&& later);
};

/// The median over slices of each slice's q-quantile, so a burst of noise
/// moves one slice and not the figure.  Slices with fewer than ten samples
/// beyond the quantile are skipped.
[[nodiscard]] double sliced_quantile(const std::vector<Histogram>& slices, double q);

/// The q-quantile over all slices together.
[[nodiscard]] double pooled_quantile(const std::vector<Histogram>& slices, double q);

/// Runs the reader over `stream` (cyclically, from `offset`; the length
/// must be a power of two) until `stop` is set, or — when `stop` is null —
/// until `max_points` point queries.  A query fails when a served ASN gets
/// no answer or an answer naming another ASN, when a miss gets an answer,
/// or when its epoch is below one this reader already saw.
[[nodiscard]] ReadStats run_reader(const eyeball::serve::EyeballService& service,
                                   std::span<const Query> stream, std::size_t offset,
                                   const std::atomic<bool>* stop, std::uint64_t max_points);

/// Steady-clock nanoseconds, the time base of stall and publish intervals.
[[nodiscard]] std::int64_t now_ns();

}  // namespace perfbench
