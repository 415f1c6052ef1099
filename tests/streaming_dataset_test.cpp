// Differential harness for the streaming §2 conditioning path: replays the
// same longitudinal sample stream through (a) a one-shot build over the
// deduplicated window concatenation, (b) per-window ingest, and (c)
// randomly-sized batch splits, and pins the StreamingDatasetBuilder
// equivalence contract — peers, per-AS peer order, stats, and kept-AS list
// byte-identical at any thread count and any window split.  Runs under the
// TSan gate next to ParallelDataset.* (tools/check.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/streaming_dataset.hpp"
#include "geodb/geo_database.hpp"
#include "p2p/churn.hpp"
#include "pipeline_fixture.hpp"
#include "util/rng.hpp"

namespace eyeball {
namespace {

using eyeball::testing::shared_fixture;

/// Longitudinal stream over the shared fixture's world, plus the one-shot
/// reference dataset the streaming path must reproduce.  min_peers_per_as
/// is lowered so single windows sit below the threshold ASes later cross —
/// the interesting streaming regime.
struct StreamWorld {
  const testing::PipelineFixture& f = shared_fixture();
  core::DatasetConfig config = [] {
    auto dataset_config = shared_fixture().pipeline.config().dataset;
    dataset_config.min_peers_per_as = 300;
    return dataset_config;
  }();
  core::DatasetBuilder builder{f.primary, f.secondary, f.mapper, config};
  p2p::LongitudinalResult churn = [this] {
    p2p::CrawlerConfig crawl_config;
    crawl_config.seed = 77;
    crawl_config.coverage = 0.05;
    p2p::ChurnConfig churn_config;
    churn_config.seed = 2009;
    churn_config.windows = 5;
    churn_config.lease_survival = 0.6;
    return p2p::longitudinal_crawl(f.eco, f.gaz, crawl_config, churn_config);
  }();
  /// The raw stream: windows concatenated in window order, duplicates kept.
  std::vector<p2p::PeerSample> concatenated = [this] {
    std::vector<p2p::PeerSample> out;
    for (const auto& window : churn.windows) {
      out.insert(out.end(), window.begin(), window.end());
    }
    return out;
  }();
  /// What a streaming run admits — the one-shot reference input.
  std::vector<p2p::PeerSample> deduped = core::dedup_first_observation(concatenated);
  core::TargetDataset reference = builder.build(deduped, 1);

  [[nodiscard]] core::StreamingDatasetBuilder streaming() const {
    return builder.streaming();
  }
};

const StreamWorld& stream_world() {
  static const StreamWorld instance;
  return instance;
}

void expect_same_dataset(const core::TargetDataset& reference,
                         const core::TargetDataset& candidate, const char* context) {
  EXPECT_EQ(reference.stats(), candidate.stats())
      << context << " diverged: "
      << core::diff_stats(reference.stats(), candidate.stats());
  ASSERT_EQ(reference.ases().size(), candidate.ases().size()) << context;
  for (std::size_t a = 0; a < reference.ases().size(); ++a) {
    const auto& ra = reference.ases()[a];
    const auto& ca = candidate.ases()[a];
    EXPECT_EQ(ra.asn, ca.asn) << context << " as index " << a;
    ASSERT_EQ(ra.peers.size(), ca.peers.size()) << context << " as index " << a;
    for (std::size_t p = 0; p < ra.peers.size(); ++p) {
      const auto& rp = ra.peers[p];
      const auto& cp = ca.peers[p];
      const bool same = rp.ip == cp.ip && rp.app == cp.app &&
                        rp.location == cp.location &&
                        rp.geo_error_km == cp.geo_error_km &&
                        rp.reported_city == cp.reported_city;
      EXPECT_TRUE(same) << context << " as index " << a << " peer " << p;
      if (!same) return;
    }
  }
}

// ---- The differential property, over the three replay shapes ----

TEST(StreamingDataset, DedupFirstObservationMatchesChurnUnion) {
  const auto& w = stream_world();
  // The admitted stream is exactly longitudinal_crawl's union: same size as
  // the cumulative-unique tally and the same (app, ip) set as `samples`.
  ASSERT_EQ(w.deduped.size(), w.churn.cumulative_unique.back());
  auto sorted = w.deduped;
  std::sort(sorted.begin(), sorted.end(),
            [](const p2p::PeerSample& a, const p2p::PeerSample& b) {
              return a.app != b.app ? a.app < b.app : a.ip < b.ip;
            });
  EXPECT_EQ(sorted, w.churn.samples);
}

TEST(StreamingDataset, PerWindowIngestMatchesOneShotAcrossThreadCounts) {
  const auto& w = stream_world();
  const std::size_t hw = 0;  // one shard per hardware thread
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    auto streaming = w.streaming();
    for (const auto& window : w.churn.windows) streaming.ingest(window, threads);
    expect_same_dataset(
        w.reference, streaming.finalize(threads),
        ("per-window ingest, threads=" + std::to_string(threads)).c_str());
  }
}

TEST(StreamingDataset, RandomBatchSplitsMatchOneShot) {
  const auto& w = stream_world();
  const std::span<const p2p::PeerSample> stream{w.concatenated};
  // Property-style replays: batch boundaries ignore window boundaries
  // entirely, so dedup and merge must hold at ANY split, not just the
  // crawler's.  Thread count varies per replay.
  const std::size_t thread_axis[] = {1, 2, 0};
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    util::Rng rng{seed};
    auto streaming = w.streaming();
    const std::size_t threads = thread_axis[seed % 3];
    std::size_t cursor = 0;
    std::size_t batches = 0;
    while (cursor < stream.size()) {
      // Batch sizes from empty to a third of the stream, hitting the
      // empty-batch and tiny-batch edges with real probability.
      const auto batch =
          std::min(stream.size() - cursor, rng.uniform_index(stream.size() / 3 + 2));
      streaming.ingest(stream.subspan(cursor, batch), threads);
      cursor += batch;
      ++batches;
    }
    ASSERT_GT(batches, 3u) << "degenerate split; property has no force";
    expect_same_dataset(w.reference, streaming.finalize(threads),
                        ("random splits, seed=" + std::to_string(seed)).c_str());
  }
}

// ---- Independent dedup oracle ----

/// One drawn stream sample, flagged when it was drawn hostile: the oracle's
/// door is this flag, not the builders' admission predicate.
struct OracleDraw {
  p2p::PeerSample sample;
  bool hostile = false;
};

/// Seeded stream over the world's real samples (so admitted peers condition
/// into real buckets) mixing every dedup case: repeats of earlier draws
/// (within or across windows, depending on the split), the same IP under
/// another app, and interleaved door rejects (a 10/8 IP, or an unknown app
/// tag on a valid IP).
std::vector<OracleDraw> oracle_stream(std::span<const p2p::PeerSample> base,
                                      std::uint64_t seed, std::size_t size) {
  util::Rng rng{seed};
  std::vector<OracleDraw> out;
  out.reserve(size);
  while (out.size() < size) {
    OracleDraw draw{base[rng.uniform_index(base.size())], false};
    const double roll = rng.uniform();
    if (roll < 0.3 && !out.empty()) {
      draw = out[rng.uniform_index(out.size())];
    } else if (roll < 0.45) {
      const std::size_t app = static_cast<std::size_t>(draw.sample.app) + 1;
      draw.sample.app = p2p::kAllApps[app % p2p::kAllApps.size()];
    } else if (roll < 0.5) {
      const std::uint32_t host = draw.sample.ip.value() & 0xffffffu;
      draw.sample.ip = net::Ipv4Address{0x0a000000u | host};
      draw.hostile = true;
    } else if (roll < 0.55) {
      draw.sample.app = static_cast<p2p::App>(200);
      draw.hostile = true;
    }
    out.push_back(draw);
  }
  return out;
}

/// The naive reference: one loop over a std::set of (app, ip) pairs.
struct DedupOracle {
  std::set<std::pair<p2p::App, std::uint32_t>> seen;
  std::vector<p2p::PeerSample> admitted;

  core::WindowStats admit(std::span<const OracleDraw> window) {
    core::WindowStats stats;
    stats.offered = window.size();
    for (const OracleDraw& draw : window) {
      if (draw.hostile) {
        ++stats.rejected;
      } else if (seen.emplace(draw.sample.app, draw.sample.ip.value()).second) {
        admitted.push_back(draw.sample);
        ++stats.admitted;
      } else {
        ++stats.duplicates;
      }
    }
    stats.cumulative_unique = seen.size();
    return stats;
  }
};

TEST(StreamingDataset, DedupMatchesANaiveSetOracleAtRandomSplits) {
  const auto& w = stream_world();
  // Every AS kept, so finalize() exposes each conditioned peer in the
  // order the builder admitted it.
  auto config = w.config;
  config.min_peers_per_as = 1;
  const core::DatasetBuilder one_shot{w.f.primary, w.f.secondary, w.f.mapper, config};
  for (const std::uint64_t seed : {5u, 17u, 101u}) {
    const std::string context = "oracle seed=" + std::to_string(seed);
    const auto draws = oracle_stream(w.concatenated, seed, 40000);
    std::vector<p2p::PeerSample> stream;
    for (const OracleDraw& draw : draws) stream.push_back(draw.sample);

    DedupOracle whole;
    static_cast<void>(whole.admit(draws));
    ASSERT_EQ(core::dedup_first_observation(stream), whole.admitted) << context;

    util::Rng rng{seed * 7919};
    DedupOracle oracle;
    auto streaming = one_shot.streaming();
    std::size_t cursor = 0;
    while (cursor < draws.size()) {
      const auto batch =
          std::min(draws.size() - cursor, rng.uniform_index(draws.size() / 4 + 2));
      const core::WindowStats expected =
          oracle.admit(std::span<const OracleDraw>{draws}.subspan(cursor, batch));
      streaming.ingest(std::span<const p2p::PeerSample>{stream}.subspan(cursor, batch), 2);
      const core::WindowStats& got = streaming.stats().windows.back();
      EXPECT_EQ(got, expected) << context << " at sample " << cursor;
      EXPECT_EQ(got.offered, got.admitted + got.duplicates + got.rejected) << context;
      EXPECT_EQ(got.cumulative_unique, streaming.unique_samples()) << context;
      cursor += batch;
    }
    ASSERT_GT(streaming.stats().windows.size(), 3u) << "degenerate split";
    EXPECT_EQ(oracle.admitted, whole.admitted) << context;
    const auto reference = one_shot.build(oracle.admitted, 1);
    ASSERT_FALSE(reference.ases().empty()) << context;
    expect_same_dataset(reference, streaming.finalize(2), context.c_str());
  }
}

// ---- Streaming edge cases ----

TEST(StreamingDataset, EmptyWindowsAreRecordedAndHarmless) {
  const auto& w = stream_world();
  auto streaming = w.streaming();
  streaming.ingest({});  // empty FIRST window
  streaming.ingest(w.churn.windows[0], 2);
  streaming.ingest({});  // empty mid-stream window
  for (std::size_t i = 1; i < w.churn.windows.size(); ++i) {
    streaming.ingest(w.churn.windows[i], 2);
  }
  const auto& windows = streaming.stats().windows;
  ASSERT_EQ(windows.size(), w.churn.windows.size() + 2);
  EXPECT_EQ(windows.front(), (core::WindowStats{0, 0, 0, 0}));
  EXPECT_EQ(windows[2].offered, 0u);
  EXPECT_EQ(windows[2].cumulative_unique, windows[1].cumulative_unique);
  expect_same_dataset(w.reference, streaming.finalize(2), "empty windows");
}

TEST(StreamingDataset, DuplicateWindowDedupsToFirstObservation) {
  const auto& w = stream_world();
  auto streaming = w.streaming();
  streaming.ingest(w.churn.windows[0], 2);
  // Replaying the same window must be a no-op for the conditioned state...
  streaming.ingest(w.churn.windows[0], 2);
  const auto& windows = streaming.stats().windows;
  ASSERT_EQ(windows.size(), 2u);
  // ...but fully visible in the per-window snapshot counters.  A window can
  // carry intra-window (app, ip) repeats, so the replay's duplicate count
  // equals the first window's ADMITTED count, not its offered count.
  EXPECT_EQ(windows[1].offered, windows[0].offered);
  EXPECT_EQ(windows[1].duplicates, windows[0].admitted + windows[0].duplicates);
  EXPECT_EQ(windows[1].admitted, 0u);
  EXPECT_EQ(windows[1].cumulative_unique, windows[0].cumulative_unique);
  for (std::size_t i = 1; i < w.churn.windows.size(); ++i) {
    streaming.ingest(w.churn.windows[i], 2);
  }
  expect_same_dataset(w.reference, streaming.finalize(2), "duplicate window");
}

TEST(StreamingDataset, FinalizePerWindowMatchesPrefixBuildsAndReFinalizes) {
  const auto& w = stream_world();
  auto streaming = w.streaming();
  std::vector<p2p::PeerSample> prefix;
  std::vector<std::set<std::uint32_t>> kept_per_window;
  for (const auto& window : w.churn.windows) {
    streaming.ingest(window, 2);
    prefix.insert(prefix.end(), window.begin(), window.end());
    // finalize() is non-destructive: this snapshot must equal the one-shot
    // build over the deduplicated prefix, and the NEXT ingest must keep
    // working on the live buckets (re-finalize covered by the next lap).
    const auto snapshot = streaming.finalize(2);
    const auto prefix_reference =
        w.builder.build(core::dedup_first_observation(prefix), 1);
    expect_same_dataset(prefix_reference, snapshot,
                        ("prefix after window " +
                         std::to_string(kept_per_window.size()))
                            .c_str());
    std::set<std::uint32_t> kept;
    for (const auto& as : snapshot.ases()) kept.insert(net::value_of(as.asn));
    kept_per_window.push_back(std::move(kept));
  }
  // An AS that crosses min_peers_per_as only at window k must appear in
  // finalize() exactly from window k on — byte-identity with the prefix
  // builds above already pins "exactly"; here we pin that the stream
  // actually exercises a crossing (the test would otherwise have no force).
  std::size_t crossers = 0;
  for (const auto asn : kept_per_window.back()) {
    if (!kept_per_window.front().contains(asn)) ++crossers;
  }
  EXPECT_GT(crossers, 0u)
      << "no AS crossed the min-peers threshold mid-stream; shrink "
         "min_peers_per_as or the window count in StreamWorld";
}

// ---- Stats, reset, incremental re-analysis ----

TEST(StreamingDataset, StatsAccountForEveryAdmittedSample) {
  const auto& w = stream_world();
  auto streaming = w.streaming();
  std::size_t offered_total = 0;
  for (const auto& window : w.churn.windows) {
    streaming.ingest(window, 2);
    offered_total += window.size();
  }
  const auto& stats = streaming.stats();
  ASSERT_EQ(stats.windows.size(), w.churn.windows.size());
  std::size_t admitted_total = 0;
  std::size_t duplicates_total = 0;
  for (std::size_t i = 0; i < stats.windows.size(); ++i) {
    const auto& window = stats.windows[i];
    EXPECT_EQ(window.offered, w.churn.windows[i].size());
    EXPECT_EQ(window.admitted + window.duplicates, window.offered);
    EXPECT_EQ(window.cumulative_unique, w.churn.cumulative_unique[i]);
    admitted_total += window.admitted;
    duplicates_total += window.duplicates;
  }
  EXPECT_EQ(admitted_total + duplicates_total, offered_total);
  EXPECT_EQ(stats.raw_samples, admitted_total);
  EXPECT_EQ(streaming.unique_samples(), admitted_total);
  EXPECT_EQ(streaming.windows_ingested(), w.churn.windows.size());

  // The finalized snapshot keeps the window trail and the one-shot
  // conservation law: every admitted sample is dropped or kept somewhere.
  const auto dataset = streaming.finalize(2);
  EXPECT_EQ(dataset.stats().windows.size(), w.churn.windows.size());
  EXPECT_EQ(dataset.stats().raw_samples,
            dataset.stats().missing_geo + dataset.stats().high_error +
                dataset.stats().unmapped_as + dataset.stats().peers_in_small_ases +
                dataset.stats().final_peers);
}

TEST(StreamingDataset, ResetMakesTheBuilderFresh) {
  const auto& w = stream_world();
  auto streaming = w.streaming();
  for (const auto& window : w.churn.windows) streaming.ingest(window, 2);
  streaming.reset();
  EXPECT_EQ(streaming.windows_ingested(), 0u);
  EXPECT_EQ(streaming.unique_samples(), 0u);
  EXPECT_TRUE(streaming.touched_asns().empty());
  for (const auto& window : w.churn.windows) streaming.ingest(window, 2);
  expect_same_dataset(w.reference, streaming.finalize(2), "after reset");
}

// ---- Hostile-input hardening ----

/// windows[0] with garbage spliced in: special-use IPs (loopback, RFC 1918,
/// CGNAT, link-local, multicast, 0/8) and out-of-range app tags — the
/// shapes a hostile or corrupted crawl feed produces.
[[nodiscard]] std::vector<p2p::PeerSample> hostile_window(
    std::span<const p2p::PeerSample> clean) {
  std::vector<p2p::PeerSample> out;
  const std::uint32_t bad_ips[] = {
      0x00000001u,              // 0.0.0.1
      (10u << 24) | 0x010203u,  // 10.1.2.3
      (127u << 24) | 1u,        // 127.0.0.1
      (224u << 24) | 5u,        // 224.0.0.5 (multicast)
      0xffffffffu,              // 255.255.255.255
      0xac100001u,              // 172.16.0.1 (RFC 1918)
      0xac1ffffeu,              // 172.31.255.254 (RFC 1918, range end)
      0xc0a80101u,              // 192.168.1.1 (RFC 1918)
      0xa9fe0009u,              // 169.254.0.9 (link-local)
      0x64400007u,              // 100.64.0.7 (CGNAT)
      0x647fffffu,              // 100.127.255.255 (CGNAT, range end)
  };
  constexpr std::size_t kBadIps = std::size(bad_ips);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    out.push_back(clean[i]);
    if (i % 7 == 0) {
      out.push_back(p2p::PeerSample{net::Ipv4Address{bad_ips[i % kBadIps]},
                                    clean[i].app});
    }
    if (i % 11 == 0) {
      // Valid IP, impossible app tag.
      out.push_back(p2p::PeerSample{clean[i].ip, static_cast<p2p::App>(200)});
    }
  }
  return out;
}

TEST(StreamingDataset, HostileSamplesAreRejectedAtTheDoorAndCounted) {
  const auto& w = stream_world();
  auto streaming = w.streaming();
  const auto hostile = hostile_window(w.churn.windows[0]);
  ASSERT_GT(hostile.size(), w.churn.windows[0].size());
  const std::size_t injected = hostile.size() - w.churn.windows[0].size();

  streaming.ingest(hostile, 2);
  const auto& window = streaming.stats().windows.front();
  // Every injected sample was refused, none leaked into the dedup set, and
  // the conservation law gains its third term.
  EXPECT_EQ(window.rejected, injected);
  EXPECT_EQ(window.offered, hostile.size());
  EXPECT_EQ(window.admitted + window.duplicates + window.rejected, window.offered);
  EXPECT_EQ(streaming.stats().rejected_samples, injected);
  EXPECT_EQ(streaming.unique_samples(), streaming.stats().raw_samples);

  // Graceful degradation, not contamination: the remaining windows ingest
  // normally and the conditioned dataset is the clean-stream reference.
  for (std::size_t i = 1; i < w.churn.windows.size(); ++i) {
    streaming.ingest(w.churn.windows[i], 2);
  }
  expect_same_dataset(w.reference, streaming.finalize(2), "hostile window");
}

TEST(StreamingDataset, AdmissionDoorRejectsSpecialUseRangesExactly) {
  // The door must reject every special-use range edge-to-edge and admit the
  // immediately adjacent public space.  dedup_first_observation is the
  // one-shot door, pinned in lockstep with ingest() by the next test, so
  // probing it probes both.
  const std::uint32_t rejected_ips[] = {
      0x00000000u, 0x00ffffffu,  // 0.0.0.0/8
      0x0a000000u, 0x0affffffu,  // 10.0.0.0/8
      0x64400000u, 0x647fffffu,  // 100.64.0.0/10 (CGNAT)
      0x7f000000u, 0x7fffffffu,  // 127.0.0.0/8
      0xa9fe0000u, 0xa9feffffu,  // 169.254.0.0/16 (link-local)
      0xac100000u, 0xac1fffffu,  // 172.16.0.0/12
      0xc0a80000u, 0xc0a8ffffu,  // 192.168.0.0/16
      0xe0000000u, 0xffffffffu,  // 224.0.0.0 and above
  };
  const std::uint32_t admitted_ips[] = {
      0x01000000u,               // 1.0.0.0 (first public address)
      0x09ffffffu, 0x0b000000u,  // around 10/8
      0x643fffffu, 0x64800000u,  // around 100.64/10
      0x7effffffu, 0x80000000u,  // around 127/8
      0xa9fdffffu, 0xa9ff0000u,  // around 169.254/16
      0xac0fffffu, 0xac200000u,  // around 172.16/12
      0xc0a7ffffu, 0xc0a90000u,  // around 192.168/16
      0xdfffffffu,               // 223.255.255.255 (last public address)
  };
  std::vector<p2p::PeerSample> probe;
  for (const auto ip : rejected_ips) {
    probe.push_back(p2p::PeerSample{net::Ipv4Address{ip}, p2p::App::kKad});
  }
  for (const auto ip : admitted_ips) {
    probe.push_back(p2p::PeerSample{net::Ipv4Address{ip}, p2p::App::kKad});
  }
  const auto admitted = core::dedup_first_observation(probe);
  ASSERT_EQ(admitted.size(), std::size(admitted_ips));
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    EXPECT_EQ(admitted[i].ip.value(), admitted_ips[i]) << "probe index " << i;
  }

  // The ingest door agrees IP for IP: everything rejected above is counted
  // as rejected, everything admitted above enters the dedup set.
  const auto& w = stream_world();
  auto streaming = w.streaming();
  streaming.ingest(probe);
  const auto& window = streaming.stats().windows.front();
  EXPECT_EQ(window.rejected, std::size(rejected_ips));
  EXPECT_EQ(window.admitted, std::size(admitted_ips));
  EXPECT_EQ(window.duplicates, 0u);
}

TEST(StreamingDataset, DedupAppliesTheSameDoorAsIngest) {
  const auto& w = stream_world();
  // The one-shot equivalent of a hostile stream must admit exactly what the
  // streaming door admits, or the equivalence contract dies on bad input.
  const auto hostile = hostile_window(w.churn.windows[0]);
  std::vector<p2p::PeerSample> hostile_concat{hostile.begin(), hostile.end()};
  for (std::size_t i = 1; i < w.churn.windows.size(); ++i) {
    hostile_concat.insert(hostile_concat.end(), w.churn.windows[i].begin(),
                          w.churn.windows[i].end());
  }
  EXPECT_EQ(core::dedup_first_observation(hostile_concat), w.deduped);
}

/// Primary-database decorator returning NaN/out-of-range coordinates for a
/// deterministic subset of IPs — the invalid rows Gouel et al. and Shavitt
/// & Zilberman document in real geolocation databases.
class PoisonedDatabase final : public geodb::GeoDatabase {
 public:
  explicit PoisonedDatabase(const geodb::GeoDatabase& base) : base_(base) {}

  [[nodiscard]] std::optional<geodb::GeoRecord> lookup(
      net::Ipv4Address ip) const override {
    auto record = base_.lookup(ip);
    if (record && ip.value() % 5 == 0) {
      record->location = ip.value() % 10 == 0
                             ? geo::GeoPoint{std::numeric_limits<double>::quiet_NaN(),
                                             record->location.lon_deg}
                             : geo::GeoPoint{record->location.lat_deg, 361.0};
    }
    return record;
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "poisoned";
  }

 private:
  const geodb::GeoDatabase& base_;
};

TEST(StreamingDataset, CorruptDatabaseRowsAreRejectedNotPropagated) {
  const auto& w = stream_world();
  const PoisonedDatabase poisoned{w.f.primary};
  core::StreamingDatasetBuilder streaming{poisoned, w.f.secondary, w.f.mapper,
                                          w.config};
  for (const auto& window : w.churn.windows) streaming.ingest(window, 2);
  const auto dataset = streaming.finalize(2);
  const auto& stats = dataset.stats();
  ASSERT_GT(stats.rejected_samples, 0u);

  // Conservation with the rejected term: every admitted sample is rejected,
  // dropped by a conditioning stage, or kept.
  EXPECT_EQ(stats.raw_samples,
            stats.rejected_samples + stats.missing_geo + stats.high_error +
                stats.unmapped_as + stats.peers_in_small_ases + stats.final_peers);

  // No NaN reached the conditioned output (the whole point of the door).
  for (const auto& as : dataset.ases()) {
    for (const auto& peer : as.peers) {
      ASSERT_TRUE(geo::is_valid(peer.location));
      ASSERT_TRUE(std::isfinite(peer.geo_error_km));
    }
  }

  // And the streaming path still equals the one-shot path over the same
  // poisoned databases — the rejects are deterministic conditioning, not
  // streaming-only behaviour.
  const core::DatasetBuilder one_shot{poisoned, w.f.secondary, w.f.mapper, w.config};
  const auto reference = one_shot.build(w.deduped, 1);
  expect_same_dataset(reference, dataset, "poisoned database");
  EXPECT_EQ(reference.stats().rejected_samples, stats.rejected_samples);
}

using testing::same_analysis;

TEST(StreamingDataset, TouchedAsnsDriveIncrementalReanalysis) {
  const auto& w = stream_world();
  auto streaming = w.streaming();
  // Windows 0..k-1, snapshot, full analysis.
  for (std::size_t i = 0; i + 1 < w.churn.windows.size(); ++i) {
    streaming.ingest(w.churn.windows[i], 2);
  }
  const auto before = streaming.finalize(2);
  const auto analyses_before = w.f.pipeline.analyze_all(before.ases(), 2);

  // Window k arrives: touched_asns() (cleared by the finalize above) names
  // exactly the buckets the new window grew.
  streaming.ingest(w.churn.windows.back(), 2);
  const auto touched = streaming.touched_asns();
  ASSERT_FALSE(touched.empty());
  EXPECT_TRUE(std::is_sorted(touched.begin(), touched.end(),
                             [](net::Asn a, net::Asn b) {
                               return net::value_of(a) < net::value_of(b);
                             }));
  const auto after = streaming.finalize(2);

  // Incremental re-analysis over the touched list equals a full re-run.
  const auto refreshed =
      w.f.pipeline.refresh_analyses(after, analyses_before, touched);
  const auto full = w.f.pipeline.analyze_all(after.ases(), 2);
  ASSERT_EQ(refreshed.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_TRUE(same_analysis(refreshed[i], full[i])) << "as index " << i;
  }
}

}  // namespace
}  // namespace eyeball
