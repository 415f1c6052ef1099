#include "reader.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <iterator>

namespace perfbench {

namespace {

constexpr std::int64_t kSliceNs = 1'000'000'000;

/// Checks one answer; returns false when it counts as a failure.
bool check(const Query& query, bool answered, eyeball::net::Asn answered_asn,
           std::uint64_t epoch, std::uint64_t& max_epoch, ReadStats& stats) {
  ++stats.asked;
  if (query.miss) ++stats.asked_misses;
  if (!answered) ++stats.unanswered;
  bool ok = answered ? (!query.miss && answered_asn == query.asn) : query.miss;
  if (epoch == 0 || epoch < max_epoch) ok = false;
  max_epoch = std::max(max_epoch, epoch);
  return ok;
}

}  // namespace

std::size_t Histogram::bucket(std::int64_t ns) {
  const auto value = static_cast<std::uint64_t>(std::clamp<std::int64_t>(ns, 0, 0xFFFFFFFFll));
  if (value < kExact) return static_cast<std::size_t>(value);
  const auto octave = static_cast<std::size_t>(std::bit_width(value) - 1);  // 13..31
  const auto sub = static_cast<std::size_t>(value >> (octave - kSubBits)) -
                   (std::size_t{1} << kSubBits);
  return kExact + (octave - 13) * (std::size_t{1} << kSubBits) + sub;
}

void Histogram::add(const Histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1)) + 1;
  std::uint64_t seen = 0;
  std::size_t i = 0;
  for (; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) break;
  }
  if (i < kExact) return static_cast<double>(i);
  const std::size_t octave = 13 + (i - kExact) / (std::size_t{1} << kSubBits);
  const std::size_t sub = (i - kExact) % (std::size_t{1} << kSubBits);
  return static_cast<double>(((std::size_t{1} << kSubBits) + sub) << (octave - kSubBits));
}

double sliced_quantile(const std::vector<Histogram>& slices, double q) {
  const double min_samples = 10.0 / (1.0 - q);
  std::vector<double> per_slice;
  for (const Histogram& slice : slices) {
    if (static_cast<double>(slice.total()) >= min_samples) {
      per_slice.push_back(slice.quantile(q));
    }
  }
  if (per_slice.empty()) return 0.0;
  const auto mid = per_slice.begin() + static_cast<std::ptrdiff_t>(per_slice.size() / 2);
  std::nth_element(per_slice.begin(), mid, per_slice.end());
  return *mid;
}

double pooled_quantile(const std::vector<Histogram>& slices, double q) {
  Histogram all;
  for (const Histogram& slice : slices) all.add(slice);
  return all.quantile(q);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ReadStats::append(ReadStats&& later) {
  point_queries += later.point_queries;
  batch_queries += later.batch_queries;
  point_failed += later.point_failed;
  batch_failed += later.batch_failed;
  asked += later.asked;
  asked_misses += later.asked_misses;
  unanswered += later.unanswered;
  stalls.insert(stalls.end(), later.stalls.begin(), later.stalls.end());
  std::move(later.point_slices.begin(), later.point_slices.end(),
            std::back_inserter(point_slices));
  std::move(later.batch_slices.begin(), later.batch_slices.end(),
            std::back_inserter(batch_slices));
  seconds += later.seconds;
  queries_per_s = static_cast<double>(point_queries + batch_queries) / seconds;
}

ReadStats run_reader(const eyeball::serve::EyeballService& service,
                     std::span<const Query> stream, std::size_t offset,
                     const std::atomic<bool>* stop, std::uint64_t max_points) {
  ReadStats stats;
  std::uint64_t max_epoch = 0;
  // Streams are a power of two long, so wrapping is a mask.
  const std::size_t mask = stream.size() - 1;
  std::size_t pos = offset;
  const auto next = [&]() -> const Query& { return stream[pos++ & mask]; };
  std::array<Query, kBatchSize> batch_queries{};
  std::array<eyeball::net::Asn, kBatchSize> batch_asns{};
  std::array<eyeball::net::Asn, kBatchSize> batch_answers{};
  std::array<bool, kBatchSize> batch_answered{};
  Histogram point_ns;
  Histogram batch_ns;
  const auto close_slice = [&] {
    stats.point_slices.push_back(std::exchange(point_ns, Histogram{}));
    stats.batch_slices.push_back(std::exchange(batch_ns, Histogram{}));
  };

  const std::int64_t start = now_ns();
  std::int64_t slice_start = start;
  for (;;) {
    if (stats.point_queries % 256 == 0) {
      if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
      const std::int64_t now = now_ns();
      if (now - slice_start >= kSliceNs) {
        close_slice();
        slice_start = now;
      }
    }
    if (stop == nullptr && stats.point_queries >= max_points) break;

    const Query query = next();
    const std::int64_t t0 = now_ns();
    bool answered = false;
    eyeball::net::Asn answered_asn{};
    std::uint64_t epoch = 0;
    {
      const eyeball::serve::AnalysisRef ref = service.query(query.asn);
      epoch = ref.epoch();
      answered = ref.analysis != nullptr;
      if (answered) answered_asn = ref.analysis->asn;
    }
    const std::int64_t t1 = now_ns();
    if (!check(query, answered, answered_asn, epoch, max_epoch, stats)) ++stats.point_failed;
    if (t1 - t0 > kStallNs) stats.stalls.emplace_back(t0, t1);
    point_ns.record(t1 - t0);
    ++stats.point_queries;

    if (stats.point_queries % kBatchEvery != 0) continue;
    for (std::size_t k = 0; k < kBatchSize; ++k) {
      batch_queries[k] = next();
      batch_asns[k] = batch_queries[k].asn;
    }
    const std::int64_t b0 = now_ns();
    {
      const eyeball::serve::BatchResult result = service.query_batch(batch_asns);
      epoch = result.epoch();
      for (std::size_t k = 0; k < kBatchSize; ++k) {
        const eyeball::core::AsAnalysis* analysis = result.analyses[k];
        batch_answered[k] = analysis != nullptr;
        if (analysis != nullptr) batch_answers[k] = analysis->asn;
      }
    }
    const std::int64_t b1 = now_ns();
    bool batch_ok = true;
    for (std::size_t k = 0; k < kBatchSize; ++k) {
      batch_ok &= check(batch_queries[k], batch_answered[k], batch_answers[k], epoch,
                        max_epoch, stats);
    }
    if (!batch_ok) ++stats.batch_failed;
    batch_ns.record(b1 - b0);
    ++stats.batch_queries;
  }
  close_slice();
  stats.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  stats.queries_per_s =
      static_cast<double>(stats.point_queries + stats.batch_queries) / stats.seconds;
  return stats;
}

}  // namespace perfbench
