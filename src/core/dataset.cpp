#include "core/dataset.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/streaming_dataset.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace eyeball::core {

std::size_t AsPeerSet::count_for(p2p::App app) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(peers.begin(), peers.end(),
                    [app](const PeerRecord& p) { return p.app == app; }));
}

std::vector<geo::GeoPoint> AsPeerSet::locations() const {
  std::vector<geo::GeoPoint> out;
  out.reserve(peers.size());
  for (const auto& p : peers) out.push_back(p.location);
  return out;
}

std::vector<double> AsPeerSet::geo_errors() const {
  std::vector<double> out;
  geo_errors(out);
  return out;
}

void AsPeerSet::geo_errors(std::vector<double>& out) const {
  out.clear();
  out.reserve(peers.size());
  for (const auto& p : peers) out.push_back(p.geo_error_km);
}

namespace {

template <typename Visit>
void visit_stats(const DatasetStats& stats, Visit&& visit) {
  visit("raw_samples", stats.raw_samples);
  visit("missing_geo", stats.missing_geo);
  visit("high_error", stats.high_error);
  visit("unmapped_as", stats.unmapped_as);
  visit("peers_in_small_ases", stats.peers_in_small_ases);
  visit("ases_below_min_peers", stats.ases_below_min_peers);
  visit("ases_above_p90_error", stats.ases_above_p90_error);
  visit("final_peers", stats.final_peers);
  visit("final_ases", stats.final_ases);
}

}  // namespace

std::string to_string(const DatasetStats& stats) {
  std::string out;
  visit_stats(stats, [&](const char* name, std::size_t value) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += std::to_string(value);
  });
  // Observability outside the identity counters (see the field comments):
  // window count and validity rejects, so logs show a stream was a stream
  // and a hostile input was a hostile input.
  if (stats.rejected_samples != 0) {
    out += " rejected_samples=";
    out += std::to_string(stats.rejected_samples);
  }
  if (!stats.windows.empty()) {
    out += " windows=";
    out += std::to_string(stats.windows.size());
  }
  return out;
}

std::string diff_stats(const DatasetStats& expected, const DatasetStats& actual) {
  std::string out;
  std::vector<std::pair<const char*, std::size_t>> lhs;
  visit_stats(expected, [&](const char* name, std::size_t value) {
    lhs.emplace_back(name, value);
  });
  std::size_t i = 0;
  visit_stats(actual, [&](const char* name, std::size_t value) {
    if (lhs[i].second != value) {
      if (!out.empty()) out += ' ';
      out += name;
      out += ": expected ";
      out += std::to_string(lhs[i].second);
      out += ", got ";
      out += std::to_string(value);
    }
    ++i;
  });
  return out;
}

std::ostream& operator<<(std::ostream& os, const DatasetStats& stats) {
  return os << to_string(stats);
}

TargetDataset::TargetDataset(std::vector<AsPeerSet> ases, DatasetStats stats)
    : ases_(std::move(ases)), stats_(std::move(stats)) {
  if (std::ranges::adjacent_find(ases_, std::ranges::greater_equal{}, &AsPeerSet::asn) !=
      ases_.end()) {
    throw std::invalid_argument{"TargetDataset: AS numbers not strictly ascending"};
  }
}

const AsPeerSet* TargetDataset::find(net::Asn asn) const noexcept {
  const auto it = std::ranges::lower_bound(ases_, asn, {}, &AsPeerSet::asn);
  return it == ases_.end() || it->asn != asn ? nullptr : &*it;
}

DatasetBuilder::DatasetBuilder(const geodb::GeoDatabase& primary,
                               const geodb::GeoDatabase& secondary,
                               const bgp::IpToAsMapper& mapper, DatasetConfig config)
    : primary_(primary), secondary_(secondary), mapper_(mapper), config_(config) {}

namespace detail {
namespace {

/// The order of every bucket list: ascending ASN.
[[nodiscard]] bool asn_less(const AsPeerSet& a, const AsPeerSet& b) noexcept {
  return a.asn < b.asn;
}

/// Open-addressed ASN -> bucket-index table (linear probing, power-of-two):
/// the per-survivor grouping cost is one hash probe into a table that fits
/// in L1, instead of the old per-sample std::map tree walk.
class AsnBucketIndex {
 public:
  AsnBucketIndex() : table_(kInitialSlots, kEmpty), keys_(kInitialSlots, 0) {}

  [[nodiscard]] std::size_t find_or_add(std::uint32_t asn,
                                        std::vector<AsPeerSet>& buckets) {
    if ((buckets.size() + 1) * 4 > table_.size() * 3) grow();
    std::size_t i = mix(asn) & (table_.size() - 1);
    while (table_[i] != kEmpty) {
      if (keys_[i] == asn) return table_[i];
      i = (i + 1) & (table_.size() - 1);
    }
    table_[i] = static_cast<std::uint32_t>(buckets.size());
    keys_[i] = asn;
    buckets.push_back(AsPeerSet{net::Asn{asn}, {}});
    return buckets.size() - 1;
  }

 private:
  static constexpr std::size_t kInitialSlots = 256;
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  [[nodiscard]] static std::uint32_t mix(std::uint32_t x) noexcept {
    x ^= x >> 16;
    x *= 0x45d9f3bu;
    x ^= x >> 16;
    return x;
  }

  void grow() {
    std::vector<std::uint32_t> old_table = std::move(table_);
    std::vector<std::uint32_t> old_keys = std::move(keys_);
    table_.assign(old_table.size() * 2, kEmpty);
    keys_.assign(old_keys.size() * 2, 0);
    for (std::size_t i = 0; i < old_table.size(); ++i) {
      if (old_table[i] == kEmpty) continue;
      std::size_t j = mix(old_keys[i]) & (table_.size() - 1);
      while (table_[j] != kEmpty) j = (j + 1) & (table_.size() - 1);
      table_[j] = old_table[i];
      keys_[j] = old_keys[i];
    }
  }

  std::vector<std::uint32_t> table_;  // bucket index per slot, kEmpty if free
  std::vector<std::uint32_t> keys_;   // ASN per occupied slot
};

}  // namespace

ConditionShard condition_chunk(std::span<const p2p::PeerSample> samples, std::size_t lo,
                               std::size_t hi, const geodb::GeoDatabase& primary,
                               const geodb::GeoDatabase& secondary,
                               const bgp::IpToAsMapper& mapper,
                               const DatasetConfig& config) {
  ConditionShard shard;
  AsnBucketIndex index;
  for (const p2p::PeerSample& sample : samples.subspan(lo, hi - lo)) {
    // The paper requires city-level records from both databases (missing
    // ones drop ~2.4 M peers); the secondary is not asked once the primary
    // has none.
    const std::optional<geodb::GeoRecord> a = primary.lookup(sample.ip);
    const std::optional<geodb::GeoRecord> b =
        a ? secondary.lookup(sample.ip) : std::nullopt;
    if (!b) {
      ++shard.dropped.missing_geo;
      continue;
    }
    // A corrupt database row (NaN / out-of-range coordinates) must be
    // rejected here: past this point its location feeds the distance
    // computation and, if kept, the KDE — both poisoned by a single NaN.
    if (!geo::is_valid(a->location) || !geo::is_valid(b->location)) {
      ++shard.dropped.rejected;
      continue;
    }
    // The inter-database error proxy, then the threshold verdict.  When both
    // databases report the same zip centroid bit for bit (both drew the
    // "exact" outcome — the majority of samples), the haversine chain
    // evaluates to exactly +0.0 (every difference term is +0, sin(+0) is +0,
    // asin(+0) is +0), so the equality fast path keeps the identical value
    // while skipping four libm calls.
    double error = 0.0;
    if (a->location != b->location) {
      error = geo::distance_km(a->location, b->location);
      if (error > config.max_geo_error_km) {
        ++shard.dropped.high_error;
        continue;
      }
    }
    const auto asn = mapper.map(sample.ip);
    if (!asn) {
      ++shard.dropped.unmapped_as;
      continue;
    }
    shard.by_as[index.find_or_add(net::value_of(*asn), shard.by_as)].peers.push_back(
        PeerRecord{sample.ip, sample.app, a->location, error, a->city_id});
  }

  // First-seen bucket order -> ascending ASN, the order merge_shard_ordered
  // requires.  Peer order inside each bucket is untouched (already sample
  // order).
  std::sort(shard.by_as.begin(), shard.by_as.end(), asn_less);
  return shard;
}

void merge_shard_ordered(ConditionShard shard, std::vector<AsPeerSet>& by_as,
                         ConditionCounters& dropped) {
  dropped.missing_geo += shard.dropped.missing_geo;
  dropped.high_error += shard.dropped.high_error;
  dropped.unmapped_as += shard.dropped.unmapped_as;
  dropped.rejected += shard.dropped.rejected;
  const std::size_t live = by_as.size();
  for (auto& set : shard.by_as) {
    const auto end = by_as.begin() + static_cast<std::ptrdiff_t>(live);
    const auto it = std::lower_bound(by_as.begin(), end, set, asn_less);
    if (it != end && it->asn == set.asn) {
      it->peers.insert(it->peers.end(), std::make_move_iterator(set.peers.begin()),
                       std::make_move_iterator(set.peers.end()));
    } else {
      by_as.push_back(std::move(set));  // new ASNs arrive ascending
    }
  }
  std::inplace_merge(by_as.begin(), by_as.begin() + static_cast<std::ptrdiff_t>(live),
                     by_as.end(), asn_less);
}

std::vector<std::size_t> filter_ases(std::span<const AsPeerSet> buckets,
                                     const DatasetConfig& config, std::size_t threads,
                                     DatasetStats& stats) {
  // The kept list inherits its order from this span; it must be
  // ASN-ascending or the final dataset ceases to be byte-identical to the
  // serial build.
  EYEBALL_DCHECK(std::is_sorted(buckets.begin(), buckets.end(), asn_less),
                 "merged AS buckets must stay in ascending ASN order");

  enum Verdict : std::uint8_t { kKeep, kBelowMinPeers, kAboveP90Error };
  std::vector<std::uint8_t> verdicts(buckets.size(), kKeep);
  std::vector<std::size_t> order(buckets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::for_each_largest_first<std::vector<double>>(
      std::move(order), [&](std::size_t i) { return buckets[i].peers.size(); },
      [&](std::size_t i, std::vector<double>& scratch) {
        const auto& set = buckets[i];
        if (set.peers.size() < config.min_peers_per_as) {
          verdicts[i] = kBelowMinPeers;
          return;
        }
        set.geo_errors(scratch);
        if (util::percentile_in_place(scratch, 90.0) > config.max_p90_geo_error_km) {
          verdicts[i] = kAboveP90Error;
        }
      },
      threads);

  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    switch (verdicts[i]) {
      case kBelowMinPeers:
        ++stats.ases_below_min_peers;
        stats.peers_in_small_ases += buckets[i].peers.size();
        break;
      case kAboveP90Error:
        ++stats.ases_above_p90_error;
        break;
      default:
        stats.final_peers += buckets[i].peers.size();
        kept.push_back(i);
        break;
    }
  }
  stats.final_ases = kept.size();
  return kept;
}

}  // namespace detail

TargetDataset DatasetBuilder::build(std::span<const p2p::PeerSample> samples) const {
  return build(samples, config_.threads);
}

TargetDataset DatasetBuilder::build(std::span<const p2p::PeerSample> samples,
                                    std::size_t threads) const {
  DatasetStats stats;
  stats.raw_samples = samples.size();

  // Stage 1: shard the sample span into contiguous chunks; every worker
  // geo-maps, error-filters and LPM-groups into its own ConditionShard (the
  // trie/table lookups are read-only, so the hot loop takes no locks).
  // The ordered reduction then appends each shard's peers per AS in shard
  // order — shard chunks are contiguous and in sample order, so the merged
  // per-AS peer order is exactly the serial loop's, whatever `threads` is.
  std::vector<AsPeerSet> by_as;
  detail::ConditionCounters dropped;
  util::ThreadPool::shared().parallel_map_reduce(
      0, samples.size(),
      [&](std::size_t lo, std::size_t hi) {
        return detail::condition_chunk(samples, lo, hi, primary_, secondary_, mapper_,
                                       config_);
      },
      [&](detail::ConditionShard shard) {
        detail::merge_shard_ordered(std::move(shard), by_as, dropped);
      },
      threads);
  dropped.add_to(stats);

  // Stage 2: the per-AS filter over the merged buckets, in ASN order.
  std::vector<AsPeerSet> kept;
  for (const std::size_t i : detail::filter_ases(by_as, config_, threads, stats)) {
    kept.push_back(std::move(by_as[i]));
  }
  return TargetDataset{std::move(kept), std::move(stats)};
}

StreamingDatasetBuilder DatasetBuilder::streaming() const {
  return StreamingDatasetBuilder{primary_, secondary_, mapper_, config_};
}

}  // namespace eyeball::core
