// Snapshot/restore coverage for StreamingDatasetBuilder: round-trip
// byte-identity (including finalize() at threads 1/2/hw — this suite runs
// under the TSan gate), restore→ingest→finalize interleavings, the typed
// refusal taxonomy (corruption / version skew / config mismatch, including
// a replay under other geo databases or another RIB), byte-level corruption
// fuzzing, and the generation fallback scheme.
//
// State identity is asserted two ways: SnapshotCodec::encode at generation 0
// is canonical (equal states → equal bytes), and finalize() results are
// compared field-by-field.  The encode comparison catches divergence in
// state finalize() doesn't read: the window trail and admitted stream it
// stores, and the sub-threshold buckets and drop counters its digest
// covers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bgp/rib.hpp"
#include "core/byte_io.hpp"
#include "core/snapshot.hpp"
#include "core/streaming_dataset.hpp"
#include "geodb/synthetic_db.hpp"
#include "p2p/churn.hpp"
#include "pipeline_fixture.hpp"
#include "scratch.hpp"
#include "util/crc32c.hpp"
#include "util/file.hpp"
#include "util/status.hpp"

namespace eyeball {
namespace {

using eyeball::testing::shared_fixture;
using util::Status;
using util::StatusCode;

/// Same longitudinal world as streaming_dataset_test's StreamWorld: lowered
/// min-peers so ASes cross the threshold mid-stream, five churned windows.
struct SnapWorld {
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

  [[nodiscard]] core::StreamingDatasetBuilder streaming() const {
    return builder.streaming();
  }
};

const SnapWorld& snap_world() {
  static const SnapWorld instance;
  return instance;
}

/// Canonical state bytes: generation pinned to 0 so two builders' encodings
/// are comparable regardless of their snapshot history.
[[nodiscard]] std::vector<std::byte> state_bytes(
    const core::StreamingDatasetBuilder& builder) {
  return core::SnapshotCodec::encode(builder, 0);
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

/// Fresh per-test snapshot directory.  Removing it up-front matters: the
/// generation counter continues from whatever is on disk, so leftovers from
/// a previous run would shift every expected generation number.
[[nodiscard]] std::string scratch_dir(const std::string& name) {
  return testing::scratch_path("snapshot_test_" + name);
}

[[nodiscard]] std::vector<std::string> snapshot_files(const std::string& dir) {
  std::vector<std::string> names;
  EXPECT_TRUE(util::local_filesystem().list_dir(dir, names).ok());
  return names;
}

// ---- Round trip and interleavings ----

TEST(Snapshot, MidStreamRoundTripIsByteIdenticalAtEveryThreadCount) {
  const auto& w = snap_world();
  const std::string dir = scratch_dir("round_trip");
  auto& fs = util::local_filesystem();

  // Uninterrupted reference run over all five windows.
  auto uninterrupted = w.streaming();
  for (const auto& window : w.churn.windows) uninterrupted.ingest(window, 2);

  // Crash-restart run: three windows, snapshot, restore into a fresh
  // builder (simulating a new process), remaining two windows.
  auto first_process = w.streaming();
  for (std::size_t i = 0; i < 3; ++i) first_process.ingest(w.churn.windows[i], 2);
  std::uint64_t generation = 0;
  ASSERT_TRUE(first_process.save_snapshot(dir, fs, &generation).ok());
  EXPECT_EQ(generation, 1u);
  EXPECT_EQ(first_process.last_generation(), 1u);

  auto second_process = w.streaming();
  core::SnapshotRestoreInfo info;
  ASSERT_TRUE(second_process.restore_snapshot(dir, fs, &info).ok());
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.generations_skipped, 0u);
  EXPECT_EQ(second_process.last_generation(), 1u);

  // The restored logical state is bit-for-bit the saved one.
  EXPECT_EQ(state_bytes(second_process), state_bytes(first_process));
  EXPECT_EQ(second_process.windows_ingested(), 3u);
  EXPECT_EQ(second_process.unique_samples(), first_process.unique_samples());

  for (std::size_t i = 3; i < w.churn.windows.size(); ++i) {
    second_process.ingest(w.churn.windows[i], 2);
  }
  EXPECT_EQ(state_bytes(second_process), state_bytes(uninterrupted));

  // finalize() byte-identity at threads 1 / 2 / hardware (0 = one shard per
  // hardware thread), the acceptance-criteria axis, under the TSan gate.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    auto reference_copy = uninterrupted;
    auto restored_copy = second_process;
    expect_same_dataset(
        reference_copy.finalize(threads), restored_copy.finalize(threads),
        ("restored run, threads=" + std::to_string(threads)).c_str());
  }
}

TEST(Snapshot, RoundTripPreservesWindowTrailAndTouchedSet) {
  const auto& w = snap_world();
  const std::string dir = scratch_dir("observability");
  auto& fs = util::local_filesystem();

  // A finalize between the windows leaves only the ASNs of a few window-1
  // samples touched.
  const auto second = std::span<const p2p::PeerSample>{w.churn.windows[1]}.first(20);
  auto original = w.streaming();
  original.ingest(w.churn.windows[0], 2);
  static_cast<void>(original.finalize(2));
  original.ingest(second, 2);

  ASSERT_TRUE(original.save_snapshot(dir, fs).ok());
  auto restored = w.streaming();
  ASSERT_TRUE(restored.restore_snapshot(dir, fs).ok());

  ASSERT_EQ(restored.stats().windows.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(restored.stats().windows[i], original.stats().windows[i]) << "window " << i;
  }
  EXPECT_EQ(restored.stats(), original.stats());
  EXPECT_EQ(restored.stats().rejected_samples, original.stats().rejected_samples);
  // Restore replays every window, so every restored bucket is touched: a
  // superset of the saved work list (EyeballService::restore re-analyzes
  // every AS anyway).  A builder that never finalized touched every bucket.
  auto never_finalized = w.streaming();
  never_finalized.ingest(w.churn.windows[0], 2);
  never_finalized.ingest(second, 2);
  const auto touched_original = original.touched_asns();
  const auto touched_restored = restored.touched_asns();
  ASSERT_FALSE(touched_original.empty());
  EXPECT_LT(touched_original.size(), touched_restored.size());
  EXPECT_TRUE(std::ranges::includes(touched_restored, touched_original));
  EXPECT_EQ(touched_restored, never_finalized.touched_asns());
}

TEST(Snapshot, RestoreReplacesExistingStateWholesale) {
  const auto& w = snap_world();
  const std::string dir = scratch_dir("replace");
  auto& fs = util::local_filesystem();

  auto original = w.streaming();
  original.ingest(w.churn.windows[0], 2);
  ASSERT_TRUE(original.save_snapshot(dir, fs).ok());

  // A builder mid-way through a DIFFERENT stream restores: no merging.
  auto diverged = w.streaming();
  diverged.ingest(w.churn.windows[3], 2);
  diverged.ingest(w.churn.windows[4], 2);
  ASSERT_TRUE(diverged.restore_snapshot(dir, fs).ok());
  EXPECT_EQ(state_bytes(diverged), state_bytes(original));
}

TEST(Snapshot, EncodeIsCanonicalAcrossBatchSplits) {
  const auto& w = snap_world();
  // Same admitted stream through the same batching at other thread counts
  // → identical bytes.
  auto by_window = w.streaming();
  for (const auto& window : w.churn.windows) by_window.ingest(window, 2);

  std::vector<p2p::PeerSample> concatenated;
  for (const auto& window : w.churn.windows) {
    concatenated.insert(concatenated.end(), window.begin(), window.end());
  }
  auto one_gulp = w.streaming();
  one_gulp.ingest(concatenated, 1);

  // Window trails differ (5 windows vs 1), so the files differ; the same
  // stream re-batched identically must match byte-for-byte.
  auto by_window_again = w.streaming();
  for (const auto& window : w.churn.windows) by_window_again.ingest(window, 0);
  EXPECT_EQ(state_bytes(by_window), state_bytes(by_window_again));
  // And the coarse invariant against the one-gulp run:
  EXPECT_EQ(one_gulp.unique_samples(), by_window.unique_samples());
}

// ---- Typed refusals ----

TEST(Snapshot, ConfigMismatchIsARefusalNotSilentDrift) {
  const auto& w = snap_world();
  const std::string dir = scratch_dir("config_mismatch");
  auto& fs = util::local_filesystem();

  auto original = w.streaming();
  original.ingest(w.churn.windows[0], 2);
  ASSERT_TRUE(original.save_snapshot(dir, fs).ok());

  auto other_config = w.config;
  other_config.max_geo_error_km = 40.0;  // result-affecting
  core::StreamingDatasetBuilder other{w.f.primary, w.f.secondary, w.f.mapper,
                                      other_config};
  other.ingest(w.churn.windows[1], 2);
  const auto before = state_bytes(other);

  const Status status = other.restore_snapshot(dir, fs);
  EXPECT_EQ(status.code(), StatusCode::kConfigMismatch) << status;
  // Refusal is total: the mismatched builder is untouched.
  EXPECT_EQ(state_bytes(other), before);
}

TEST(Snapshot, ThreadCountDoesNotFingerprint) {
  const auto& w = snap_world();
  // An execution knob with byte-identical results, so snapshots transfer.
  auto knobs = w.config;
  knobs.threads = 7;
  EXPECT_EQ(core::SnapshotCodec::config_fingerprint(knobs),
            core::SnapshotCodec::config_fingerprint(w.config));
  auto results = w.config;
  results.min_peers_per_as += 1;
  EXPECT_NE(core::SnapshotCodec::config_fingerprint(results),
            core::SnapshotCodec::config_fingerprint(w.config));
}

/// `bytes` with the whole-file CRC recomputed, so only the decoder's
/// semantic checks can refuse the result.
[[nodiscard]] std::vector<std::byte> resealed(std::vector<std::byte> bytes) {
  const std::size_t body_size = bytes.size() - 12;
  const std::uint32_t crc = util::crc32c({bytes.data(), body_size});
  for (int i = 0; i < 4; ++i) {
    bytes[body_size + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((crc >> (8 * i)) & 0xffU);
  }
  return bytes;
}

TEST(Snapshot, VersionSkewOnAnIntactFileIsVersionMismatchNotCorruption) {
  const auto& w = snap_world();
  auto builder = w.streaming();
  builder.ingest(std::span<const p2p::PeerSample>{w.churn.windows[0]}.first(64), 1);
  auto target = w.streaming();
  target.ingest(w.churn.windows[1], 1);
  const auto target_state = state_bytes(target);

  // A genuine other-format file: version changed AND the file CRC redone,
  // so every checksum passes and only the version check can refuse it.
  // v1 (the derived-state format) has no decoder any more; a future
  // version is refused the same way.
  for (const std::uint32_t version : {core::SnapshotCodec::kFormatVersion - 1,
                                      core::SnapshotCodec::kFormatVersion + 1}) {
    auto bytes = core::SnapshotCodec::encode(builder, 1);
    bytes[8] = static_cast<std::byte>(version);  // version field, low byte
    EXPECT_EQ(core::SnapshotCodec::decode(resealed(std::move(bytes)), target).code(),
              StatusCode::kVersionMismatch)
        << "v" << version;
    EXPECT_EQ(state_bytes(target), target_state) << "v" << version;
  }

  // The same byte damaged WITHOUT fixing the CRC is indistinguishable from
  // media corruption and must say so.
  auto corrupt_bytes = core::SnapshotCodec::encode(builder, 1);
  corrupt_bytes[8] = static_cast<std::byte>(core::SnapshotCodec::kFormatVersion + 1);
  EXPECT_EQ(core::SnapshotCodec::decode(corrupt_bytes, target).code(),
            StatusCode::kCorruption);
}

// ---- The stored log: its size, and crafted files whose checksums pass ----

using core::byte_io::load_u64;

// The v2 layout, as documented in core/snapshot.hpp: header, config block
// and window count, then one record per window (5 x u64 WindowStats, u64
// sample count, 5 B per sample), then the footer.
constexpr std::size_t kHeaderAndConfigSize = 8 + 4 + 8 + 8 + 8 + 3 * 8;
constexpr std::size_t kEnvelopeSize = kHeaderAndConfigSize + 8 + 4 + 8;
constexpr std::size_t kWindowHeaderSize = 5 * 8 + 8;
constexpr std::size_t kSampleSize = 5;

TEST(Snapshot, EncodedSizeIsTheAdmittedStream) {
  const auto& w = snap_world();
  auto builder = w.streaming();
  EXPECT_EQ(state_bytes(builder).size(), kEnvelopeSize);
  for (const auto& window : w.churn.windows) builder.ingest(window, 2);
  EXPECT_EQ(state_bytes(builder).size(),
            kEnvelopeSize + w.churn.windows.size() * kWindowHeaderSize +
                kSampleSize * builder.unique_samples());
}

/// Little-endian u64 store into a crafted file.
void store_u64(std::vector<std::byte>& bytes, std::size_t at, std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::byte>((value >> (8 * i)) & 0xffU);
  }
}

TEST(Snapshot, CraftedLogsThatReplayDoesNotReproduceAreCorruption) {
  const auto& w = snap_world();
  auto builder = w.streaming();
  const auto first = std::span<const p2p::PeerSample>{w.churn.windows[0]}.first(600);
  builder.ingest(first, 1);
  builder.ingest(std::span<const p2p::PeerSample>{w.churn.windows[1]}.first(400), 1);
  const auto pristine = core::SnapshotCodec::encode(builder, 1);

  // Window 0's record opens right after the window count; window 1's
  // follows its samples.  Field offsets within a record: offered 0,
  // duplicates 8, admitted 16, cumulative_unique 24, rejected 32, count 40.
  const std::size_t window0 = kHeaderAndConfigSize + 8;
  const std::size_t admitted0 = static_cast<std::size_t>(load_u64(pristine, window0 + 16));
  ASSERT_GE(admitted0, 2u);
  const std::size_t samples0 = window0 + kWindowHeaderSize;
  const std::size_t window1 = samples0 + admitted0 * kSampleSize;

  const auto crafted = [&pristine](auto&& edit) {
    auto bytes = pristine;
    edit(bytes);
    return resealed(std::move(bytes));
  };
  std::vector<std::pair<const char*, std::vector<std::byte>>> cases;
  cases.emplace_back("duplicate key inside a window", crafted([&](auto& bytes) {
                       std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(samples0),
                                   kSampleSize,
                                   bytes.begin() +
                                       static_cast<std::ptrdiff_t>(samples0 + kSampleSize));
                     }));
  cases.emplace_back("door-rejected sample in the log", crafted([&](auto& bytes) {
                       // 10.0.0.1: RFC 1918, refused at the admission door.
                       bytes[samples0] = std::byte{0x01};
                       bytes[samples0 + 1] = std::byte{0x00};
                       bytes[samples0 + 2] = std::byte{0x00};
                       bytes[samples0 + 3] = std::byte{0x0a};
                     }));
  cases.emplace_back("offered != duplicates + admitted + rejected",
                     crafted([&](auto& bytes) {
                       store_u64(bytes, window0, load_u64(bytes, window0) + 1);
                     }));
  cases.emplace_back("cumulative_unique disagrees with replay", crafted([&](auto& bytes) {
                       store_u64(bytes, window1 + 24, load_u64(bytes, window1 + 24) + 1);
                     }));
  cases.emplace_back("sample count differs from admitted", crafted([&](auto& bytes) {
                       // offered and admitted both + 1: the counters still add up.
                       store_u64(bytes, window0, load_u64(bytes, window0) + 1);
                       store_u64(bytes, window0 + 16, load_u64(bytes, window0 + 16) + 1);
                     }));

  auto target = w.streaming();
  target.ingest(w.churn.windows[2], 1);
  const auto target_state = state_bytes(target);
  for (const auto& [what, bytes] : cases) {
    EXPECT_EQ(core::SnapshotCodec::decode(bytes, target).code(), StatusCode::kCorruption)
        << what;
    EXPECT_EQ(state_bytes(target), target_state) << what;
  }

  // Control: re-sealing the unchanged file yields the same bytes, which
  // load, so each refusal above is the decoder's verdict on the one edit.
  ASSERT_EQ(resealed(pristine), pristine);
  ASSERT_TRUE(core::SnapshotCodec::decode(pristine, target).ok());
  EXPECT_EQ(state_bytes(target), state_bytes(builder));
}

// ---- Replay under other inputs: refused, never silently re-conditioned ----

/// Saves two generations of `w`'s stream to `dir`: generation 1 holds
/// `first`, generation 2 adds window 1.
void save_two_generations(const SnapWorld& w, std::span<const p2p::PeerSample> first,
                          const std::string& dir) {
  auto& fs = util::local_filesystem();
  auto writer = w.streaming();
  writer.ingest(first, 2);
  ASSERT_TRUE(writer.save_snapshot(dir, fs).ok());
  writer.ingest(w.churn.windows[1], 2);
  ASSERT_TRUE(writer.save_snapshot(dir, fs).ok());
}

/// The refusal contract for a replay under other inputs: kConfigMismatch,
/// the builder untouched, no generation quarantined or removed, and no
/// older generation loaded in the newest one's place.
void expect_replay_refused(core::StreamingDatasetBuilder& builder, const std::string& dir,
                           const std::vector<std::string>& files_before) {
  const auto before = state_bytes(builder);
  const std::uint64_t generation_before = builder.last_generation();
  const Status status = builder.restore_snapshot(dir, util::local_filesystem());
  EXPECT_EQ(status.code(), StatusCode::kConfigMismatch) << status;
  EXPECT_NE(status.message().find("generation 2"), std::string::npos) << status;
  EXPECT_EQ(state_bytes(builder), before);
  EXPECT_EQ(builder.last_generation(), generation_before);
  EXPECT_EQ(snapshot_files(dir), files_before);
}

TEST(Snapshot, ReplayUnderAnotherSecondaryDatabaseIsConfigMismatch) {
  const auto& w = snap_world();
  const std::string dir = scratch_dir("other_secondary");
  save_two_generations(w, w.churn.windows[0], dir);
  const auto files = snapshot_files(dir);
  ASSERT_EQ(files.size(), 2u);

  // Same name and error model, another seed: the same database product at
  // another version, which geolocates some IPs elsewhere.
  const geodb::SyntheticGeoDatabase other_secondary{"ip2location-like", w.f.truth,
                                                    geodb::ErrorModel{}, 0xbbbc};
  core::StreamingDatasetBuilder builder{w.f.primary, other_secondary, w.f.mapper, w.config};
  builder.ingest(w.churn.windows[2], 1);
  expect_replay_refused(builder, dir, files);
}

TEST(Snapshot, ReplayUnderARibMissingOnePrefixIsConfigMismatch) {
  const auto& w = snap_world();
  const std::string dir = scratch_dir("missing_prefix");
  // Generation 1 is small, so a prefix that only window 1's peers use can
  // be withdrawn without touching it.
  const auto first = std::span<const p2p::PeerSample>{w.churn.windows[0]}.first(200);
  save_two_generations(w, first, dir);
  const auto files = snapshot_files(dir);
  ASSERT_EQ(files.size(), 2u);

  // Withdraw the most specific prefix of a peer that window 1 conditioned,
  // choosing one that covers no generation-1 sample and whose withdrawal
  // re-maps that peer.
  auto reference = w.streaming();
  reference.ingest(first, 1);
  reference.ingest(w.churn.windows[1], 1);
  const auto entries = w.f.rib.entries();
  const auto covers_first = [&first](const net::Ipv4Prefix& prefix) {
    return std::ranges::any_of(
        first, [&prefix](const p2p::PeerSample& s) { return prefix.contains(s.ip); });
  };
  const core::TargetDataset conditioned = reference.finalize(1);
  std::optional<bgp::RibSnapshot> withdrawn;
  for (const auto& set : conditioned.ases()) {
    for (const auto& peer : set.peers) {
      std::optional<std::size_t> match;
      for (std::size_t e = 0; e < entries.size(); ++e) {
        if (entries[e].prefix.contains(peer.ip) &&
            (!match || entries[e].prefix.length() > entries[*match].prefix.length())) {
          match = e;
        }
      }
      if (!match || covers_first(entries[*match].prefix)) continue;
      std::vector<bgp::RibEntry> kept{entries.begin(), entries.end()};
      kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(*match));
      bgp::RibSnapshot candidate{std::move(kept)};
      if (candidate.origin(peer.ip) != std::optional<net::Asn>{set.asn}) {
        withdrawn.emplace(std::move(candidate));
        break;
      }
    }
    if (withdrawn) break;
  }
  ASSERT_TRUE(withdrawn.has_value());
  const bgp::IpToAsMapper mapper{*withdrawn};
  core::StreamingDatasetBuilder builder{w.f.primary, w.f.secondary, mapper, w.config};

  // Generation 1 alone replays cleanly under the withdrawn RIB, so a
  // restore that fell back past generation 2 would load it and silently
  // drop window 1.
  std::vector<std::byte> generation1;
  ASSERT_TRUE(util::local_filesystem().read_file(dir + "/" + files[0], generation1).ok());
  auto probe = core::StreamingDatasetBuilder{w.f.primary, w.f.secondary, mapper, w.config};
  ASSERT_TRUE(core::SnapshotCodec::decode(generation1, probe).ok());

  builder.ingest(w.churn.windows[2], 1);
  expect_replay_refused(builder, dir, files);
}

// ---- Byte-level corruption fuzz ----

TEST(Snapshot, EverySingleBitFlipIsDetected) {
  const auto& w = snap_world();
  auto builder = w.streaming();
  // Small state keeps the quadratic sweep (decode per flipped byte) cheap.
  builder.ingest(std::span<const p2p::PeerSample>{w.churn.windows[0]}.first(150), 1);
  const auto pristine = core::SnapshotCodec::encode(builder, 3);

  auto target = w.streaming();
  target.ingest(w.churn.windows[1], 1);
  const auto target_state = state_bytes(target);

  std::size_t failures = 0;
  auto flipped = pristine;
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    // One deterministic bit per byte, varying across offsets.
    const auto bit = static_cast<unsigned>(i % 8);
    flipped[i] = pristine[i] ^ static_cast<std::byte>(1U << bit);
    const Status status = core::SnapshotCodec::decode(flipped, target);
    if (status.ok()) ++failures;
    flipped[i] = pristine[i];
  }
  // Zero silent corruption: every flip is caught (the whole-file CRC covers
  // the body; the footer bytes are the CRC itself and the tail magic)...
  EXPECT_EQ(failures, 0u);
  // ...and the strong guarantee held through every failed decode.
  EXPECT_EQ(state_bytes(target), target_state);

  // Control: the pristine bytes still decode, into the exact saved state.
  ASSERT_TRUE(core::SnapshotCodec::decode(pristine, target).ok());
  EXPECT_EQ(state_bytes(target), state_bytes(builder));
}

TEST(Snapshot, EveryTruncationLengthIsDetected) {
  const auto& w = snap_world();
  auto builder = w.streaming();
  builder.ingest(std::span<const p2p::PeerSample>{w.churn.windows[0]}.first(150), 1);
  const auto pristine = core::SnapshotCodec::encode(builder, 3);

  auto target = w.streaming();
  const auto target_state = state_bytes(target);
  std::size_t failures = 0;
  for (std::size_t keep = 0; keep < pristine.size(); ++keep) {
    const std::span<const std::byte> torn{pristine.data(), keep};
    if (core::SnapshotCodec::decode(torn, target).ok()) ++failures;
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(state_bytes(target), target_state);
}

TEST(Snapshot, EmptyAndGarbageInputsAreCorruptionNotCrashes) {
  const auto& w = snap_world();
  auto target = w.streaming();
  EXPECT_EQ(core::SnapshotCodec::decode({}, target).code(), StatusCode::kCorruption);
  std::vector<std::byte> zeros(4096, std::byte{0});
  EXPECT_EQ(core::SnapshotCodec::decode(zeros, target).code(), StatusCode::kCorruption);
  std::vector<std::byte> noise;
  for (std::size_t i = 0; i < 4096; ++i) {
    noise.push_back(static_cast<std::byte>((i * 2654435761u) >> 13));
  }
  EXPECT_EQ(core::SnapshotCodec::decode(noise, target).code(), StatusCode::kCorruption);
}

// ---- Generations: pruning, fallback, post-fallback numbering ----

TEST(Snapshot, SaveAdvancesGenerationsAndPrunesToTwo) {
  const auto& w = snap_world();
  const std::string dir = scratch_dir("prune");
  auto& fs = util::local_filesystem();

  auto builder = w.streaming();
  for (std::size_t i = 0; i < 3; ++i) {
    builder.ingest(w.churn.windows[i], 2);
    std::uint64_t generation = 0;
    ASSERT_TRUE(builder.save_snapshot(dir, fs, &generation).ok());
    EXPECT_EQ(generation, i + 1);
  }
  // Current + last-good only; generation 1 was pruned.
  EXPECT_EQ(snapshot_files(dir),
            (std::vector<std::string>{"snapshot.00000000000000000002.eyb",
                                      "snapshot.00000000000000000003.eyb"}));
}

TEST(Snapshot, RestoreFallsBackPastACorruptNewestGeneration) {
  const auto& w = snap_world();
  const std::string dir = scratch_dir("fallback");
  auto& fs = util::local_filesystem();

  auto builder = w.streaming();
  builder.ingest(w.churn.windows[0], 2);
  ASSERT_TRUE(builder.save_snapshot(dir, fs).ok());
  const auto state_a = state_bytes(builder);

  builder.ingest(w.churn.windows[1], 2);
  ASSERT_TRUE(builder.save_snapshot(dir, fs).ok());

  // Corrupt generation 2 on disk (one flipped byte mid-file).
  const std::string newest = dir + "/snapshot.00000000000000000002.eyb";
  std::vector<std::byte> bytes;
  ASSERT_TRUE(fs.read_file(newest, bytes).ok());
  bytes[bytes.size() / 2] ^= std::byte{0x10};
  ASSERT_TRUE(util::atomic_write_file(fs, newest, bytes).ok());

  auto restored = w.streaming();
  core::SnapshotRestoreInfo info;
  ASSERT_TRUE(restored.restore_snapshot(dir, fs, &info).ok());
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.generations_skipped, 1u);
  EXPECT_EQ(state_bytes(restored), state_a);

  // A save after the fallback must NOT reuse the dead generation's number:
  // the corrupt gen-2 file is still on disk, so the next save is gen 3.
  std::uint64_t generation = 0;
  ASSERT_TRUE(restored.save_snapshot(dir, fs, &generation).ok());
  EXPECT_EQ(generation, 3u);
}

TEST(Snapshot, AllGenerationsCorruptReportsTheNewestError) {
  const auto& w = snap_world();
  const std::string dir = scratch_dir("all_corrupt");
  auto& fs = util::local_filesystem();

  auto builder = w.streaming();
  builder.ingest(w.churn.windows[0], 2);
  ASSERT_TRUE(builder.save_snapshot(dir, fs).ok());
  builder.ingest(w.churn.windows[1], 2);
  ASSERT_TRUE(builder.save_snapshot(dir, fs).ok());

  for (const std::string& name : snapshot_files(dir)) {
    std::vector<std::byte> bytes;
    ASSERT_TRUE(fs.read_file(dir + "/" + name, bytes).ok());
    bytes[bytes.size() / 3] ^= std::byte{0x01};
    ASSERT_TRUE(util::atomic_write_file(fs, dir + "/" + name, bytes).ok());
  }

  auto restored = w.streaming();
  const auto before = state_bytes(restored);
  const Status status = restored.restore_snapshot(dir, fs);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status;
  // The message names the newest generation (the one an operator should
  // investigate first), and the failed restore changed nothing.
  EXPECT_NE(status.message().find("generation 2"), std::string::npos) << status;
  EXPECT_EQ(state_bytes(restored), before);
}

TEST(Snapshot, CorruptGenerationIsQuarantinedWithItsVerdictNotDeleted) {
  const auto& w = snap_world();
  const std::string dir = scratch_dir("quarantine");
  auto& fs = util::local_filesystem();

  auto builder = w.streaming();
  builder.ingest(w.churn.windows[0], 2);
  ASSERT_TRUE(builder.save_snapshot(dir, fs).ok());
  builder.ingest(w.churn.windows[1], 2);
  ASSERT_TRUE(builder.save_snapshot(dir, fs).ok());

  const std::string newest = dir + "/snapshot.00000000000000000002.eyb";
  std::vector<std::byte> damaged;
  ASSERT_TRUE(fs.read_file(newest, damaged).ok());
  damaged[damaged.size() / 2] ^= std::byte{0x10};
  ASSERT_TRUE(util::atomic_write_file(fs, newest, damaged).ok());

  auto restored = w.streaming();
  core::SnapshotRestoreInfo info;
  ASSERT_TRUE(restored.restore_snapshot(dir, fs, &info).ok());
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.generations_skipped, 1u);

  // The condemned file moved aside intact — evidence, not garbage — with
  // the typed verdict recorded next to it.
  EXPECT_FALSE(std::filesystem::exists(newest));
  const std::string aside = newest + std::string{util::kQuarantineSuffix};
  std::vector<std::byte> preserved;
  ASSERT_TRUE(fs.read_file(aside, preserved).ok());
  EXPECT_EQ(preserved, damaged);
  std::vector<std::byte> reason;
  ASSERT_TRUE(fs.read_file(aside + ".reason", reason).ok());
  EXPECT_FALSE(reason.empty());

  // A second restore never re-trips on the corpse: the quarantined name no
  // longer parses as a live generation, so generation 1 loads first try.
  auto again = w.streaming();
  core::SnapshotRestoreInfo second;
  ASSERT_TRUE(again.restore_snapshot(dir, fs, &second).ok());
  EXPECT_EQ(second.generation, 1u);
  EXPECT_EQ(second.generations_skipped, 0u);
}

TEST(Snapshot, PruneNeverRemovesAQuarantinedGenerationAndNeverReusesItsNumber) {
  const auto& w = snap_world();
  const std::string dir = scratch_dir("quarantine_prune");
  auto& fs = util::local_filesystem();

  auto builder = w.streaming();
  builder.ingest(w.churn.windows[0], 2);
  ASSERT_TRUE(builder.save_snapshot(dir, fs).ok());
  builder.ingest(w.churn.windows[1], 2);
  ASSERT_TRUE(builder.save_snapshot(dir, fs).ok());

  // Damage and quarantine generation 2 via a failed restore.
  const std::string newest = dir + "/snapshot.00000000000000000002.eyb";
  std::vector<std::byte> bytes;
  ASSERT_TRUE(fs.read_file(newest, bytes).ok());
  bytes[bytes.size() / 2] ^= std::byte{0x04};
  ASSERT_TRUE(util::atomic_write_file(fs, newest, bytes).ok());
  auto restored = w.streaming();
  ASSERT_TRUE(restored.restore_snapshot(dir, fs).ok());
  const std::string aside = newest + std::string{util::kQuarantineSuffix};
  ASSERT_TRUE(std::filesystem::exists(aside));

  // The first save after the fallback must skip the quarantined number (a
  // reused generation 2 would collide with the preserved evidence)...
  std::uint64_t generation = 0;
  ASSERT_TRUE(restored.save_snapshot(dir, fs, &generation).ok());
  EXPECT_EQ(generation, 3u);
  // ...and however many saves follow, keep-2 pruning only ever counts LIVE
  // generations: the corpse outlives all of them.
  for (std::uint64_t expected = 4; expected < 8; ++expected) {
    restored.ingest(w.churn.windows[2], 2);
    ASSERT_TRUE(restored.save_snapshot(dir, fs, &generation).ok());
    EXPECT_EQ(generation, expected);
  }
  EXPECT_TRUE(std::filesystem::exists(aside));
  EXPECT_TRUE(std::filesystem::exists(aside + ".reason"));
  const std::vector<std::string> names = snapshot_files(dir);
  // Two live generations + corpse + reason sidecar, nothing else.
  EXPECT_EQ(names.size(), 4u);
  EXPECT_TRUE(std::find(names.begin(), names.end(),
                        "snapshot.00000000000000000006.eyb") != names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(),
                        "snapshot.00000000000000000007.eyb") != names.end());
}

TEST(Snapshot, MissingOrEmptyDirectoryIsNotFound) {
  const auto& w = snap_world();
  auto builder = w.streaming();
  const std::string dir = scratch_dir("missing");
  EXPECT_EQ(builder.restore_snapshot(dir).code(), StatusCode::kNotFound);
  std::filesystem::create_directories(dir);
  EXPECT_EQ(builder.restore_snapshot(dir).code(), StatusCode::kNotFound);
}

TEST(Snapshot, ResetForgetsTheGenerationCounter) {
  const auto& w = snap_world();
  const std::string dir = scratch_dir("reset_gen");
  auto builder = w.streaming();
  builder.ingest(w.churn.windows[0], 2);
  ASSERT_TRUE(builder.save_snapshot(dir).ok());
  EXPECT_EQ(builder.last_generation(), 1u);
  builder.reset();
  EXPECT_EQ(builder.last_generation(), 0u);
}

}  // namespace
}  // namespace eyeball
