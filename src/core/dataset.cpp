#include "core/dataset.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <ostream>
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
    : ases_(std::move(ases)), stats_(stats) {
  by_asn_.resize(ases_.size());
  for (std::uint32_t i = 0; i < by_asn_.size(); ++i) by_asn_[i] = i;
  // Stable so duplicate ASNs keep construction order and find() returns
  // the same entry the old linear scan did.
  std::stable_sort(by_asn_.begin(), by_asn_.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return net::value_of(ases_[a].asn) < net::value_of(ases_[b].asn);
                   });
}

const AsPeerSet* TargetDataset::find(net::Asn asn) const noexcept {
  const std::uint32_t key = net::value_of(asn);
  const auto it = std::lower_bound(
      by_asn_.begin(), by_asn_.end(), key,
      [this](std::uint32_t index, std::uint32_t k) {
        return net::value_of(ases_[index].asn) < k;
      });
  if (it == by_asn_.end() || net::value_of(ases_[*it].asn) != key) return nullptr;
  return &ases_[*it];
}

DatasetBuilder::DatasetBuilder(const geodb::GeoDatabase& primary,
                               const geodb::GeoDatabase& secondary,
                               const bgp::IpToAsMapper& mapper, DatasetConfig config)
    : primary_(primary), secondary_(secondary), mapper_(mapper), config_(config) {}

namespace detail {
namespace {

/// Samples per SoA staging block: big enough to amortize the batched
/// lookup calls, small enough that the arenas (a few doubles + two cached
/// records per lane) stay cache-resident.
constexpr std::size_t kConditionBlock = 4096;

/// Per-lane verdict of the staged conditioning passes, in the exact drop
/// precedence of the scalar pipeline.
enum LaneState : std::uint8_t {
  kEligible = 0,
  kMissingGeo,
  kRejected,
  kHighError,
};

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

/// SoA staging arenas for one conditioning block.  Each pass below streams
/// one or two of these arrays sequentially instead of re-walking an array
/// of fat per-peer structs, so the filter loops are cache-friendly and the
/// non-trig arithmetic vectorizes.
///
/// Concurrency contract: strictly shard-private.  One ConditionArena is a
/// block-scoped local of condition_chunk(), so each shard's arena lives on
/// that shard's stack and can never be observed by another thread — scoped
/// ownership needs no capability annotation (there is no member for a
/// second thread to name).  The shared inputs it reads (mapper, config,
/// the sample span, both databases) are const.
struct ConditionArena {
  std::vector<net::Ipv4Address> ips;
  std::vector<std::optional<geodb::GeoRecord>> primary, secondary;
  std::vector<double> lat_a, lon_a, lat_b, lon_b;
  std::vector<double> err;
  std::vector<gazetteer::CityId> city;
  std::vector<std::uint8_t> state;

  explicit ConditionArena(std::size_t n)
      : ips(n), primary(n), secondary(n), lat_a(n), lon_a(n), lat_b(n), lon_b(n),
        err(n), city(n), state(n) {}
};

}  // namespace

ConditionShard condition_chunk(std::span<const p2p::PeerSample> samples, std::size_t lo,
                               std::size_t hi, const geodb::GeoDatabase& primary,
                               const geodb::GeoDatabase& secondary,
                               const bgp::IpToAsMapper& mapper,
                               const DatasetConfig& config) {
  ConditionShard shard;
  AsnBucketIndex index;
  ConditionArena arena{std::min(kConditionBlock, hi - lo)};

  for (std::size_t base = lo; base < hi; base += kConditionBlock) {
    const std::size_t n = std::min(kConditionBlock, hi - base);

    // Pass 1: gather the block's IPs and geo-map them through both databases
    // in one batched call each (the paper requires city-level records from
    // both databases; missing ones drop ~2.4 M peers).
    for (std::size_t i = 0; i < n; ++i) arena.ips[i] = samples[base + i].ip;
    const std::span<const net::Ipv4Address> ips{arena.ips.data(), n};
    primary.lookup_batch(ips, {arena.primary.data(), n});
    secondary.lookup_batch(ips, {arena.secondary.data(), n});

    // Pass 2: scatter the record coordinates into the SoA lanes and settle
    // presence/validity.  A corrupt database row (NaN / out-of-range
    // coordinates) must be rejected here: past this point its location
    // feeds the distance computation and, if kept, the KDE — both poisoned
    // by a single NaN.
    for (std::size_t i = 0; i < n; ++i) {
      const auto& a = arena.primary[i];
      const auto& b = arena.secondary[i];
      if (!a || !b) {
        arena.state[i] = kMissingGeo;
        continue;
      }
      arena.lat_a[i] = a->location.lat_deg;
      arena.lon_a[i] = a->location.lon_deg;
      arena.lat_b[i] = b->location.lat_deg;
      arena.lon_b[i] = b->location.lon_deg;
      arena.city[i] = a->city_id;
      arena.state[i] =
          geo::is_valid(a->location) && geo::is_valid(b->location) ? kEligible
                                                                   : kRejected;
    }

    // Pass 3: the inter-database error proxy over the coordinate lanes,
    // then the threshold verdict.  Same distance_km call on the same
    // inputs as the scalar loop — error values stay bit-identical.  When
    // both databases report the same zip centroid bit-for-bit (both drew
    // the "exact" outcome — the majority of samples), the haversine chain
    // evaluates to exactly +0.0 (every difference term is +0, sin(+0) is
    // +0, asin(+0) is +0), so the equality fast path returns the identical
    // value while skipping four libm calls.
    for (std::size_t i = 0; i < n; ++i) {
      if (arena.state[i] != kEligible) continue;
      if (arena.lat_a[i] == arena.lat_b[i] && arena.lon_a[i] == arena.lon_b[i]) {
        arena.err[i] = 0.0;
        continue;
      }
      arena.err[i] = geo::distance_km({arena.lat_a[i], arena.lon_a[i]},
                                      {arena.lat_b[i], arena.lon_b[i]});
      if (arena.err[i] > config.max_geo_error_km) arena.state[i] = kHighError;
    }

    // Pass 4: fold verdicts in sample order (exact scalar drop precedence),
    // LPM-map survivors, and append to the flat AS buckets.
    for (std::size_t i = 0; i < n; ++i) {
      switch (arena.state[i]) {
        case kMissingGeo: ++shard.dropped.missing_geo; continue;
        case kRejected: ++shard.dropped.rejected; continue;
        case kHighError: ++shard.dropped.high_error; continue;
        default: break;
      }
      const auto asn = mapper.map(arena.ips[i]);
      if (!asn) {
        ++shard.dropped.unmapped_as;
        continue;
      }
      shard.by_as[index.find_or_add(net::value_of(*asn), shard.by_as)]
          .peers.push_back(PeerRecord{arena.ips[i], samples[base + i].app,
                                      {arena.lat_a[i], arena.lon_a[i]}, arena.err[i],
                                      arena.city[i]});
    }
  }

  // First-seen bucket order -> ascending ASN, the order the old per-shard
  // std::map produced and merge_shard_ordered/filter_ases require.  Peer
  // order inside each bucket is untouched (already sample order).
  std::sort(shard.by_as.begin(), shard.by_as.end(),
            [](const AsPeerSet& a, const AsPeerSet& b) {
              return net::value_of(a.asn) < net::value_of(b.asn);
            });
  return shard;
}

void merge_shard_ordered(ConditionShard shard, std::map<std::uint32_t, AsPeerSet>& by_as,
                         ConditionCounters& dropped) {
  dropped.missing_geo += shard.dropped.missing_geo;
  dropped.high_error += shard.dropped.high_error;
  dropped.unmapped_as += shard.dropped.unmapped_as;
  dropped.rejected += shard.dropped.rejected;
  for (auto& set : shard.by_as) {
    auto& merged = by_as[net::value_of(set.asn)];
    if (merged.peers.empty()) {
      merged = std::move(set);
    } else {
      merged.peers.insert(merged.peers.end(),
                          std::make_move_iterator(set.peers.begin()),
                          std::make_move_iterator(set.peers.end()));
    }
  }
}

std::vector<AsPeerSet> filter_ases(std::span<AsPeerSet* const> buckets,
                                   const DatasetConfig& config, std::size_t threads,
                                   DatasetStats& stats, bool take_ownership) {
  // The kept-AS list below inherits its order from this span; it must be
  // ASN-ascending (the builders' std::map guarantees it today) or the final
  // dataset ceases to be byte-identical to the serial build.
  EYEBALL_DCHECK(std::is_sorted(buckets.begin(), buckets.end(),
                                [](const AsPeerSet* a, const AsPeerSet* b) {
                                  return net::value_of(a->asn) < net::value_of(b->asn);
                                }),
                 "merged AS buckets must stay in ascending ASN order");

  enum Verdict : std::uint8_t { kKeep, kBelowMinPeers, kAboveP90Error };
  std::vector<std::uint8_t> verdicts(buckets.size(), kKeep);
  util::ThreadPool::shared().parallel_for(
      0, buckets.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> scratch;  // one allocation per chunk, not per AS
        for (std::size_t i = lo; i < hi; ++i) {
          const auto& set = *buckets[i];
          if (set.peers.size() < config.min_peers_per_as) {
            verdicts[i] = kBelowMinPeers;
            continue;
          }
          set.geo_errors(scratch);
          if (util::percentile_in_place(scratch, 90.0) > config.max_p90_geo_error_km) {
            verdicts[i] = kAboveP90Error;
          }
        }
      },
      threads);

  std::vector<AsPeerSet> kept;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    AsPeerSet& set = *buckets[i];
    switch (verdicts[i]) {
      case kBelowMinPeers:
        ++stats.ases_below_min_peers;
        stats.peers_in_small_ases += set.peers.size();
        break;
      case kAboveP90Error:
        ++stats.ases_above_p90_error;
        break;
      default:
        stats.final_peers += set.peers.size();
        if (take_ownership) {
          kept.push_back(std::move(set));
        } else {
          kept.push_back(set);
        }
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
  std::map<std::uint32_t, AsPeerSet> by_as;
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

  // Stage 2: the per-AS filter over the merged buckets, in ASN (map) order.
  std::vector<AsPeerSet> owned;
  owned.reserve(by_as.size());
  for (auto& [asn_value, set] : by_as) owned.push_back(std::move(set));
  std::vector<AsPeerSet*> buckets;
  buckets.reserve(owned.size());
  for (auto& set : owned) buckets.push_back(&set);
  auto kept = detail::filter_ases(buckets, config_, threads, stats,
                                  /*take_ownership=*/true);
  return TargetDataset{std::move(kept), std::move(stats)};
}

StreamingDatasetBuilder DatasetBuilder::streaming() const {
  return StreamingDatasetBuilder{primary_, secondary_, mapper_, config_};
}

}  // namespace eyeball::core
