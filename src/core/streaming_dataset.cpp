#include "core/streaming_dataset.hpp"

#include <algorithm>
#include <utility>

#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace eyeball::core {

namespace {

/// Collision-free dedup key: the app tag in the high bits, the IP below.
[[nodiscard]] constexpr std::uint64_t sample_key(const p2p::PeerSample& sample) noexcept {
  return (static_cast<std::uint64_t>(sample.app) << 32) | sample.ip.value();
}

/// The admission door for hostile windows: a sample is admitted only if its
/// IP is plausibly an eyeball address and its app tag is one of the crawled
/// applications.  Special-use address space can never geolocate to an
/// eyeball ("Lost in the Prefix"'s failure mode), so the door rejects every
/// non-routable range, not just the octet-aligned ones: 0/8, 10/8, 127/8,
/// multicast/reserved (224.0.0.0+), 100.64/10 (CGNAT), 172.16/12 and
/// 192.168/16 (RFC 1918), and 169.254/16 (link-local).  Checked BEFORE the
/// dedup keys, so a rejected sample leaves no trace — a later valid
/// observation of the same (app, ip) is still a first observation.
[[nodiscard]] constexpr bool is_admissible_sample(const p2p::PeerSample& sample) noexcept {
  const std::uint32_t ip = sample.ip.value();
  const std::uint32_t top = ip >> 24;
  if (top == 0 || top == 10 || top == 127 || top >= 224) return false;
  if ((ip >> 22) == 0x191u) return false;   // 100.64.0.0/10 (CGNAT)
  if ((ip >> 20) == 0xac1u) return false;   // 172.16.0.0/12 (RFC 1918)
  if ((ip >> 16) == 0xa9feu) return false;  // 169.254.0.0/16 (link-local)
  if ((ip >> 16) == 0xc0a8u) return false;  // 192.168.0.0/16 (RFC 1918)
  return static_cast<std::uint8_t>(sample.app) < p2p::kAllApps.size();
}

/// The admission door plus first-observation (app, ip) dedup against the
/// ascending key list `seen`: appends each admitted sample to `out` in input
/// order, counts the rest into `stats.rejected` / `stats.duplicates`, and
/// merges the admitted keys into `seen`.  Sorted (key, position) pairs put
/// each key's first observation at the head of its run, admitted unless
/// `seen` holds the key.  ingest() and dedup_first_observation() both run
/// exactly this function, which keeps the streaming and one-shot streams in
/// lockstep by construction, independent of any later shard count.
void admit_first_observations(std::span<const p2p::PeerSample> samples,
                              std::vector<std::uint64_t>& seen,
                              std::vector<p2p::PeerSample>& out, WindowStats& stats) {
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed;
  keyed.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (is_admissible_sample(samples[i])) {
      keyed.emplace_back(sample_key(samples[i]), i);
    } else {
      ++stats.rejected;
    }
  }
  std::sort(keyed.begin(), keyed.end());

  std::vector<std::uint8_t> first(samples.size(), 0);
  std::vector<std::uint64_t> fresh;  // ascending, like `seen`
  auto known = seen.cbegin();
  for (std::size_t run = 0; run < keyed.size();) {
    const auto [key, position] = keyed[run];
    known = std::lower_bound(known, seen.cend(), key);
    if (known == seen.cend() || *known != key) {
      first[position] = 1;
      fresh.push_back(key);
    }
    while (run < keyed.size() && keyed[run].first == key) ++run;
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (first[i] != 0) out.push_back(samples[i]);
  }
  stats.duplicates += keyed.size() - fresh.size();
  const auto merged_from = seen.insert(seen.end(), fresh.begin(), fresh.end());
  std::inplace_merge(seen.begin(), merged_from, seen.end());
}

}  // namespace

std::vector<p2p::PeerSample> dedup_first_observation(
    std::span<const p2p::PeerSample> samples) {
  std::vector<p2p::PeerSample> out;
  out.reserve(samples.size());
  std::vector<std::uint64_t> seen;
  WindowStats ignored;
  admit_first_observations(samples, seen, out, ignored);
  return out;
}

StreamingDatasetBuilder::StreamingDatasetBuilder(const geodb::GeoDatabase& primary,
                                                 const geodb::GeoDatabase& secondary,
                                                 const bgp::IpToAsMapper& mapper,
                                                 DatasetConfig config)
    : primary_(primary), secondary_(secondary), mapper_(mapper), config_(config) {}

void StreamingDatasetBuilder::ingest(std::span<const p2p::PeerSample> window) {
  const util::SerialSection owner{serial_};
  ingest_locked(window, config_.threads);
}

void StreamingDatasetBuilder::ingest(std::span<const p2p::PeerSample> window,
                                     std::size_t threads) {
  const util::SerialSection owner{serial_};
  ingest_locked(window, threads);
}

void StreamingDatasetBuilder::ingest_locked(std::span<const p2p::PeerSample> window,
                                            std::size_t threads) {
  // Cross-window first-observation dedup (longitudinal_crawl's union
  // semantics).
  WindowStats window_stats;
  window_stats.offered = window.size();
  pending_.clear();
  pending_.reserve(window.size());
  admit_first_observations(window, seen_, pending_, window_stats);
  window_stats.admitted = pending_.size();
  window_stats.cumulative_unique = seen_.size();
  stats_.raw_samples += window_stats.admitted;
  stats_.rejected_samples += window_stats.rejected;

  // Stage 1 over the admitted window only, sharded exactly like the
  // one-shot build.  Shard slices are contiguous and folded in shard
  // order, so each AS's bucket extends in stream order — the ordered-merge
  // invariant, applied window by window.
  detail::ConditionCounters dropped;
  const std::span<const p2p::PeerSample> admitted{pending_};
  // Local references for the reduce lambda: the thread-safety analysis
  // checks a lambda body as its own function, so guarded members reached
  // through the captured `this` would need the role re-claimed there.
  // Binding them here keeps the guarded accesses inside this (role-holding)
  // function; the reduce lambda runs on this thread only, in shard order.
  auto& by_as = by_as_;
  auto& touched = touched_;
  util::ThreadPool::shared().parallel_map_reduce(
      0, admitted.size(),
      [&](std::size_t lo, std::size_t hi) {
        return detail::condition_chunk(admitted, lo, hi, primary_, secondary_, mapper_,
                                       config_);
      },
      [&](detail::ConditionShard shard) {
        for (const auto& set : shard.by_as) touched.push_back(set.asn);
        detail::merge_shard_ordered(std::move(shard), by_as, dropped);
      },
      threads);
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
  dropped.add_to(stats_);
  stats_.windows.push_back(window_stats);
}

TargetDataset StreamingDatasetBuilder::finalize() {
  const util::SerialSection owner{serial_};
  return finalize_locked(config_.threads);
}

TargetDataset StreamingDatasetBuilder::finalize(std::size_t threads) {
  const util::SerialSection owner{serial_};
  return finalize_locked(threads);
}

TargetDataset StreamingDatasetBuilder::finalize_locked(std::size_t threads) {
  DatasetStats stats = stats_;  // stage-1 counters + window snapshots
  // Copies kept sets out; the live buckets stay intact for further ingests.
  std::vector<AsPeerSet> kept;
  for (const std::size_t i : detail::filter_ases(by_as_, config_, threads, stats)) {
    kept.push_back(by_as_[i]);
  }
  touched_.clear();
  return TargetDataset{std::move(kept), std::move(stats)};
}

std::vector<net::Asn> StreamingDatasetBuilder::touched_asns() const {
  const util::SerialSection owner{serial_};
  return touched_;
}

void StreamingDatasetBuilder::reset() {
  const util::SerialSection owner{serial_};
  by_as_.clear();
  seen_.clear();
  stats_ = DatasetStats{};
  touched_.clear();
  pending_.clear();
  pending_.shrink_to_fit();
  last_generation_ = 0;
}

}  // namespace eyeball::core
