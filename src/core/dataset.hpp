// Target-dataset construction (the paper's §2 pipeline):
//   raw crawl samples
//     -> geo-map each IP with the primary database
//     -> drop IPs lacking a city-level record in either database
//     -> estimate per-IP geo error as the inter-database distance and drop
//        IPs with error above the threshold (~80 km, a metro diameter)
//     -> group by origin AS via BGP longest-prefix match
//     -> drop ASes with fewer than 1000 peers
//     -> drop ASes whose 90th-percentile geo error exceeds the bandwidth
//        floor (the paper's §3.1 rule that legitimizes a fixed 40 km
//        bandwidth).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/rib.hpp"
#include "geo/point.hpp"
#include "geodb/geo_database.hpp"
#include "net/ipv4.hpp"
#include "p2p/crawler.hpp"

namespace eyeball::core {

struct PeerRecord {
  net::Ipv4Address ip;
  p2p::App app = p2p::App::kKad;
  /// Location reported by the primary geo database.
  geo::GeoPoint location;
  /// Inter-database distance for this IP (the error proxy).
  double geo_error_km = 0.0;
  /// City reported by the primary geo database (level classification
  /// aggregates on the databases' city/state/country fields, as in the
  /// paper).
  gazetteer::CityId reported_city = gazetteer::kInvalidCity;
};

/// All conditioned peers of one eyeball AS.
struct AsPeerSet {
  net::Asn asn{};
  std::vector<PeerRecord> peers;

  [[nodiscard]] std::size_t count_for(p2p::App app) const noexcept;
  [[nodiscard]] std::vector<geo::GeoPoint> locations() const;
  [[nodiscard]] std::vector<double> geo_errors() const;
  /// Allocation-free variant: overwrites `out` (clearing first) so hot
  /// loops — the builder's per-AS p90 filter — can reuse one scratch
  /// buffer across ASes.
  void geo_errors(std::vector<double>& out) const;
};

struct DatasetConfig {
  /// Per-IP error threshold; the paper motivates ~100 km (metro diameter)
  /// in §2 and uses 80 km in §3.1 — we default to the operative 80 km.
  double max_geo_error_km = 80.0;
  std::size_t min_peers_per_as = 1000;
  /// Drop ASes whose 90th-percentile geo error exceeds this (§3.1).
  double max_p90_geo_error_km = 80.0;
  /// Shard count for the dataset build: the sample span is split into this
  /// many deterministic contiguous chunks over util::ThreadPool::shared(),
  /// each chunk geo-maps/filters/LPM-groups into private state, and shards
  /// are merged in shard order.  1 = serial, 0 = one shard per hardware
  /// thread.  Results (peer order, stats, kept-AS list) are byte-identical
  /// at any setting.
  std::size_t threads = 1;
};

/// Per-ingest-window observability for streaming builds (the paper's six
/// monthly crawl snapshots).  Prefix-level geolocation drifts across crawl
/// windows, so longitudinal studies need the window-by-window view kept
/// visible rather than folded into the cumulative counters.
struct WindowStats {
  /// Samples handed to ingest() for this window, duplicates included.
  std::size_t offered = 0;
  /// Samples dropped by the cross-window (app, ip) first-observation dedup.
  std::size_t duplicates = 0;
  /// offered - duplicates - rejected: what this window contributed to
  /// conditioning.
  std::size_t admitted = 0;
  /// Running unique (app, ip) count after this window — the streaming
  /// analogue of LongitudinalResult::cumulative_unique.
  std::size_t cumulative_unique = 0;
  /// Samples refused at the admission door: reserved/invalid IP or unknown
  /// app tag (a hostile or corrupted crawl window).  Rejected samples never
  /// enter the dedup set, so offered == duplicates + admitted + rejected.
  std::size_t rejected = 0;

  friend bool operator==(const WindowStats&, const WindowStats&) = default;
};

struct DatasetStats {
  /// For a one-shot build: the input span size.  For a streaming build: the
  /// unique (app, ip) samples admitted to conditioning — i.e. the size of
  /// the deduplicated window concatenation, which is exactly the one-shot
  /// input the stream is equivalent to.
  std::size_t raw_samples = 0;
  std::size_t missing_geo = 0;
  std::size_t high_error = 0;
  std::size_t unmapped_as = 0;
  std::size_t peers_in_small_ases = 0;
  std::size_t ases_below_min_peers = 0;
  std::size_t ases_above_p90_error = 0;
  std::size_t final_peers = 0;
  std::size_t final_ases = 0;
  /// Samples refused by validity checks rather than conditioned away:
  /// streaming admission-door rejects (reserved/invalid IP, unknown app)
  /// plus geo-database rows with non-finite or out-of-range coordinates
  /// caught during stage 1.  EXCLUDED from operator== like `windows`: the
  /// door runs before dedup, so a hostile stream's rejects are visible to
  /// the streaming builder but already filtered out of the equivalent
  /// one-shot input (see dedup_first_observation).
  std::size_t rejected_samples = 0;
  /// One entry per ingest() window in ingest order; empty for one-shot
  /// builds.  Deliberately EXCLUDED from operator== / diff_stats: a
  /// dataset's identity is its conditioning outcome, not how the samples
  /// were batched, and the streaming-vs-one-shot byte-identity contract is
  /// stated over the conditioning counters.
  std::vector<WindowStats> windows;

  /// Compares the conditioning counters only (see `windows`).
  friend bool operator==(const DatasetStats& a, const DatasetStats& b) {
    return a.raw_samples == b.raw_samples && a.missing_geo == b.missing_geo &&
           a.high_error == b.high_error && a.unmapped_as == b.unmapped_as &&
           a.peers_in_small_ases == b.peers_in_small_ases &&
           a.ases_below_min_peers == b.ases_below_min_peers &&
           a.ases_above_p90_error == b.ases_above_p90_error &&
           a.final_peers == b.final_peers && a.final_ases == b.final_ases;
  }
};

/// One-line "counter=value" rendering of every field, e.g. for logging.
[[nodiscard]] std::string to_string(const DatasetStats& stats);
/// Names the counters on which `actual` diverges from `expected`, or ""
/// when equal — the determinism tests use it so a failure says *which*
/// counter moved, not just that two opaque structs differ.
[[nodiscard]] std::string diff_stats(const DatasetStats& expected,
                                     const DatasetStats& actual);
/// Streams to_string (this is what gtest prints on EXPECT_EQ failure).
std::ostream& operator<<(std::ostream& os, const DatasetStats& stats);

/// The conditioned dataset: one AsPeerSet per eligible eyeball AS.
class TargetDataset {
 public:
  TargetDataset(std::vector<AsPeerSet> ases, DatasetStats stats);

  [[nodiscard]] std::span<const AsPeerSet> ases() const noexcept { return ases_; }
  /// O(log n) via the ASN-sorted index built at construction (the repro
  /// benches call this per AS in loops); equivalent to a linear scan,
  /// including returning the *first* entry on duplicate ASNs.
  [[nodiscard]] const AsPeerSet* find(net::Asn asn) const noexcept;
  [[nodiscard]] const DatasetStats& stats() const noexcept { return stats_; }

 private:
  std::vector<AsPeerSet> ases_;
  /// Indices into ases_, stably sorted by ASN.
  std::vector<std::uint32_t> by_asn_;
  DatasetStats stats_;
};

class StreamingDatasetBuilder;

/// Shared internals of the §2 conditioning stages, used by both the one-shot
/// DatasetBuilder and the StreamingDatasetBuilder so the two paths cannot
/// drift apart.  Not a stable API — test code should go through the
/// builders.
namespace detail {

/// Per-sample drop tallies of conditioning stage 1.
struct ConditionCounters {
  std::size_t missing_geo = 0;
  std::size_t high_error = 0;
  std::size_t unmapped_as = 0;
  /// Database rows with non-finite / out-of-range coordinates (the invalid
  /// rows the longitudinal geo-database literature documents in the wild) —
  /// rejected before the distance computation so a NaN can never reach the
  /// error filter or the KDE downstream.
  std::size_t rejected = 0;

  void add_to(DatasetStats& stats) const noexcept {
    stats.missing_geo += missing_geo;
    stats.high_error += high_error;
    stats.unmapped_as += unmapped_as;
    stats.rejected_samples += rejected;
  }
};

/// One shard's private stage-1 output: peer buckets in ascending-ASN order
/// plus the partial drop counters.  No shard ever touches another's state.
/// The buckets are a flat vector (grouped through an open-addressed index
/// during the chunk, sorted once at the end) rather than an ordered map:
/// the per-survivor hot path is one hash probe instead of a tree walk.
struct ConditionShard {
  std::vector<AsPeerSet> by_as;
  ConditionCounters dropped;
};

/// Stage 1 over samples[lo, hi): geo-map each IP through both databases,
/// apply the inter-database error filter, and LPM-group survivors into the
/// shard's private buckets.  Pure function of its inputs (the databases are
/// const and deterministic per IP), so shards parallelize lock-free.
[[nodiscard]] ConditionShard condition_chunk(std::span<const p2p::PeerSample> samples,
                                             std::size_t lo, std::size_t hi,
                                             const geodb::GeoDatabase& primary,
                                             const geodb::GeoDatabase& secondary,
                                             const bgp::IpToAsMapper& mapper,
                                             const DatasetConfig& config);

/// Folds one shard into the live buckets + counters.  MUST be called in
/// shard order over contiguous, in-order sample ranges: each AS's merged
/// peer vector is then the concatenation of its shard slices in sample
/// order — exactly the serial loop's peer order.
void merge_shard_ordered(ConditionShard shard,
                         std::map<std::uint32_t, AsPeerSet>& by_as,
                         ConditionCounters& dropped);

/// Stage 2: the min-peers / p90 geo-error per-AS filter over ASN-ascending
/// `buckets`.  Verdicts parallelize into disjoint slots at `threads`; the
/// filter counters and the kept list then accrue in ASN order, exactly like
/// the serial loop.  `take_ownership` moves kept sets out of the buckets
/// (one-shot build); false copies them, leaving the live buckets intact for
/// further ingestion (streaming finalize).
[[nodiscard]] std::vector<AsPeerSet> filter_ases(std::span<AsPeerSet* const> buckets,
                                                 const DatasetConfig& config,
                                                 std::size_t threads, DatasetStats& stats,
                                                 bool take_ownership);

}  // namespace detail

class DatasetBuilder {
 public:
  DatasetBuilder(const geodb::GeoDatabase& primary, const geodb::GeoDatabase& secondary,
                 const bgp::IpToAsMapper& mapper, DatasetConfig config = {});

  /// Sharded build (§2 conditioning) at the configured
  /// DatasetConfig::threads.  Stage 1 splits the samples into contiguous
  /// shards, each doing both geo lookups, the geo-error filter, and the LPM
  /// grouping into private per-shard buckets + counters (lock-free); shards
  /// merge in shard order, so per-AS peer order keeps the sample order.
  /// Stage 2 applies the min-peers / p90 filter to the merged buckets in
  /// parallel and folds verdicts in ASN order.  Output is byte-identical to
  /// the serial loop at any thread count.
  [[nodiscard]] TargetDataset build(std::span<const p2p::PeerSample> samples) const;
  /// Same with an explicit shard count (benchmark threads axis).
  [[nodiscard]] TargetDataset build(std::span<const p2p::PeerSample> samples,
                                    std::size_t threads) const;

  /// A StreamingDatasetBuilder over the same databases/mapper/config, for
  /// longitudinal crawls that arrive window by window (see
  /// core/streaming_dataset.hpp for the equivalence contract).
  [[nodiscard]] StreamingDatasetBuilder streaming() const;

 private:
  const geodb::GeoDatabase& primary_;
  const geodb::GeoDatabase& secondary_;
  bgp::IpToAsMapper mapper_;
  DatasetConfig config_;
};

}  // namespace eyeball::core
