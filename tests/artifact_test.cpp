// Differential battery for the serving artifact (core/artifact.hpp): what
// an ArtifactView decodes must EXACTLY equal the in-memory epoch it was
// written from — grid values, contours, peaks, PoP mappings, stats —
// and the encoding must be canonical (byte-identical across finalize thread
// counts; split-invariant outside the window trail, which records batching
// history by design, mirroring DatasetStats::operator==).
//
// This suite also runs under the ASan+UBSan tree (tools/check.sh
// `artifact-faults` stage), so every decode here is also a bounds and
// undefined-behaviour check of the record reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact.hpp"
#include "core/snapshot.hpp"
#include "core/streaming_dataset.hpp"
#include "p2p/churn.hpp"
#include "pipeline_fixture.hpp"
#include "scratch.hpp"
#include "serve/service.hpp"
#include "util/file.hpp"
#include "util/status.hpp"

namespace eyeball {
namespace {

using eyeball::testing::same_analysis;
using eyeball::testing::shared_fixture;
using util::Status;
using util::StatusCode;

/// Longitudinal stream + the finalized epoch the artifact must reproduce.
struct ArtifactWorld {
  const testing::PipelineFixture& f = shared_fixture();
  core::PipelineConfig config = [] {
    core::PipelineConfig pipeline_config = shared_fixture().pipeline.config();
    pipeline_config.dataset.min_peers_per_as = 300;
    pipeline_config.threads = 2;
    return pipeline_config;
  }();
  core::EyeballPipeline pipeline{f.gaz, f.primary, f.secondary, f.mapper, config};
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
  std::uint64_t fingerprint =
      core::SnapshotCodec::config_fingerprint(config.dataset);
  /// The reference epoch: all windows streamed in, finalized at 2 threads,
  /// analyzed by the pipeline.
  core::TargetDataset dataset = [this] {
    auto builder = pipeline.streaming_builder();
    for (const auto& window : churn.windows) builder.ingest(window);
    return builder.finalize(2);
  }();
  std::vector<core::AsAnalysis> analyses =
      pipeline.refresh_analyses(dataset, {}, {});
};

const ArtifactWorld& world() {
  static const ArtifactWorld instance;
  return instance;
}

[[nodiscard]] std::vector<std::byte> encode_or_die(
    const core::TargetDataset& dataset, std::span<const core::AsAnalysis> analyses,
    std::uint64_t epoch, std::uint64_t fingerprint) {
  std::vector<std::byte> bytes;
  const Status status =
      core::ArtifactCodec::encode(dataset, analyses, epoch, fingerprint, bytes);
  EXPECT_TRUE(status.ok()) << status.message();
  return bytes;
}

[[nodiscard]] std::string scratch_path(const std::string& name) {
  return testing::scratch_path("artifact_test_" + name);
}

/// The AS records: every byte after the stats record and before the
/// footer, the batching-independent part of the image.
[[nodiscard]] std::span<const std::byte> record_bytes(std::span<const std::byte> bytes) {
  // Header 28 B, then the stats record: 11 u64 (the window count last),
  // 40 B per window.  The footer is the u32 CRC and the 8 B tail magic.
  const std::size_t window_count_at = 28 + 10 * 8;
  std::uint64_t windows = 0;
  for (int i = 0; i < 8; ++i) {
    windows |= static_cast<std::uint64_t>(
                   bytes[window_count_at + static_cast<std::size_t>(i)])
               << (8 * i);
  }
  const std::size_t begin = window_count_at + 8 + static_cast<std::size_t>(windows) * 40;
  return bytes.subspan(begin, bytes.size() - 12 - begin);
}

/// No cell budget: decode every grid the image holds.
constexpr std::size_t kAnyGrid = std::numeric_limits<std::size_t>::max();

/// Cells in the per-row hulls of `grid`'s bit-nonzero cells: the most a
/// grid decoded from its runs may store.
[[nodiscard]] std::size_t nonzero_hull_cells(const kde::DensityGrid& grid) {
  std::size_t total = 0;
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    kde::DensityGrid::RowSpan hull;
    for (std::size_t c = 0; c < grid.cols(); ++c) {
      if (std::bit_cast<std::uint64_t>(grid.value(r, c)) != 0) hull.cover(c, c + 1);
    }
    total += hull.hi - hull.lo;
  }
  return total;
}

void expect_decodes_to_epoch(const core::ArtifactView& view,
                             const core::TargetDataset& dataset,
                             std::span<const core::AsAnalysis> analyses,
                             const char* context) {
  ASSERT_EQ(view.as_count(), dataset.ases().size()) << context;

  // Stats: conditioning counters via operator==, the excluded fields
  // explicitly — the artifact restores the epoch's stats verbatim.
  EXPECT_EQ(view.stats(), dataset.stats()) << context;
  EXPECT_EQ(view.stats().rejected_samples, dataset.stats().rejected_samples) << context;
  ASSERT_EQ(view.stats().windows.size(), dataset.stats().windows.size()) << context;
  for (std::size_t w = 0; w < dataset.stats().windows.size(); ++w) {
    EXPECT_EQ(view.stats().windows[w], dataset.stats().windows[w])
        << context << " window " << w;
  }

  std::vector<core::AsAnalysis> decoded;
  const Status status = view.materialize(kAnyGrid, decoded);
  ASSERT_TRUE(status.ok()) << context << ": " << status;
  ASSERT_EQ(decoded.size(), analyses.size()) << context;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].asn, dataset.ases()[i].asn) << context << " as index " << i;
    EXPECT_TRUE(same_analysis(decoded[i], analyses[i])) << context << " as index " << i;
    // A replica allocates what the runs span, not the box.
    EXPECT_LE(decoded[i].footprint.grid.stored_cells(),
              nonzero_hull_cells(analyses[i].footprint.grid))
        << context << " as index " << i;
  }
}

// ---- Canonical encode ----

TEST(Artifact, EncodeIsByteIdenticalAcrossFinalizeThreadCounts) {
  const auto& w = world();
  const std::vector<std::byte> reference =
      encode_or_die(w.dataset, w.analyses, 7, w.fingerprint);
  ASSERT_FALSE(reference.empty());

  const std::size_t hw = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    auto builder = w.pipeline.streaming_builder();
    for (const auto& window : w.churn.windows) builder.ingest(window);
    const core::TargetDataset dataset = builder.finalize(threads);
    const std::vector<core::AsAnalysis> analyses =
        w.pipeline.refresh_analyses(dataset, {}, {});
    const std::vector<std::byte> bytes =
        encode_or_die(dataset, analyses, 7, w.fingerprint);
    EXPECT_EQ(bytes, reference) << "threads=" << threads;
  }
}

TEST(Artifact, EncodeOutsideWindowTrailIsSplitInvariant) {
  const auto& w = world();
  // Same samples, different batching: one ingest per window vs one ingest
  // of the concatenation.  The conditioning outcome is identical, so the
  // AS records must be byte-identical; only the stats record (which
  // records the batching history on purpose — see DatasetStats::windows)
  // and the footer CRC over it may differ.
  std::vector<p2p::PeerSample> concatenated;
  for (const auto& window : w.churn.windows) {
    concatenated.insert(concatenated.end(), window.begin(), window.end());
  }
  auto builder = w.pipeline.streaming_builder();
  builder.ingest(concatenated);
  const core::TargetDataset dataset = builder.finalize(2);
  const std::vector<core::AsAnalysis> analyses =
      w.pipeline.refresh_analyses(dataset, {}, {});

  const std::vector<std::byte> split =
      encode_or_die(w.dataset, w.analyses, 7, w.fingerprint);
  const std::vector<std::byte> merged =
      encode_or_die(dataset, analyses, 7, w.fingerprint);

  const std::span<const std::byte> split_records = record_bytes(split);
  const std::span<const std::byte> merged_records = record_bytes(merged);
  ASSERT_EQ(split_records.size(), merged_records.size());
  EXPECT_TRUE(std::equal(split_records.begin(), split_records.end(),
                         merged_records.begin()));
  EXPECT_EQ(dataset.stats(), w.dataset.stats());
}

TEST(Artifact, EncodeIsDeterministicCallToCall) {
  const auto& w = world();
  const auto first = encode_or_die(w.dataset, w.analyses, 3, w.fingerprint);
  const auto second = encode_or_die(w.dataset, w.analyses, 3, w.fingerprint);
  EXPECT_EQ(first, second);
}

// ---- Round trip through the real filesystem (mmap path) ----

TEST(Artifact, MmapRoundTripEqualsInMemoryEpochExactly) {
  const auto& w = world();
  const std::string path = scratch_path("round_trip");
  const Status written =
      core::ArtifactCodec::write(util::local_filesystem(), path, w.dataset,
                                 w.analyses, 42, w.fingerprint);
  ASSERT_TRUE(written.ok()) << written.message();

  core::ArtifactView view;
  const Status opened = core::ArtifactView::open(path, util::local_filesystem(), view);
  ASSERT_TRUE(opened.ok()) << opened.message();
  EXPECT_EQ(view.epoch(), 42u);
  EXPECT_EQ(view.config_fingerprint(), w.fingerprint);

  expect_decodes_to_epoch(view, w.dataset, w.analyses, "mmap round trip");
}

TEST(Artifact, BorrowedRoundTripEqualsInMemoryEpochExactly) {
  const auto& w = world();
  const std::vector<std::byte> bytes =
      encode_or_die(w.dataset, w.analyses, 1, w.fingerprint);
  core::ArtifactView view;
  const Status opened = core::ArtifactView::from_borrowed(bytes, view);
  ASSERT_TRUE(opened.ok()) << opened.message();
  expect_decodes_to_epoch(view, w.dataset, w.analyses, "borrowed round trip");
}

TEST(Artifact, MaterializeReplacesTheOutputOnlyOnSuccess) {
  const auto& w = world();
  const std::vector<std::byte> bytes =
      encode_or_die(w.dataset, w.analyses, 1, w.fingerprint);
  core::ArtifactView view;
  ASSERT_TRUE(core::ArtifactView::from_borrowed(bytes, view).ok());

  std::size_t largest = 0;
  for (const core::AsAnalysis& analysis : w.analyses) {
    largest = std::max(largest, analysis.footprint.grid.cell_count());
  }
  ASSERT_GT(largest, 0u);
  // One cell short of the largest grid: refused as another pipeline's
  // output, and the caller's vector is left exactly as it was.
  std::vector<core::AsAnalysis> out{w.analyses[0]};
  const Status refused = view.materialize(largest - 1, out);
  EXPECT_EQ(refused.code(), StatusCode::kConfigMismatch) << refused;
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(same_analysis(out[0], w.analyses[0]));

  // Exactly the largest grid's cell count is within budget: the output is
  // replaced by the full epoch.
  const Status decoded = view.materialize(largest, out);
  ASSERT_TRUE(decoded.ok()) << decoded;
  ASSERT_EQ(out.size(), w.analyses.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(same_analysis(out[i], w.analyses[i])) << "as index " << i;
  }
}

TEST(Artifact, EmptyEpochRoundTrips) {
  const auto& w = world();
  // A builder that never ingested finalizes to an empty dataset.
  auto builder = w.pipeline.streaming_builder();
  const core::TargetDataset empty = builder.finalize(1);
  ASSERT_EQ(empty.ases().size(), 0u);
  const std::vector<std::byte> bytes = encode_or_die(empty, {}, 9, w.fingerprint);
  core::ArtifactView view;
  const Status opened = core::ArtifactView::from_borrowed(bytes, view);
  ASSERT_TRUE(opened.ok()) << opened.message();
  EXPECT_EQ(view.as_count(), 0u);
  EXPECT_EQ(view.epoch(), 9u);
  expect_decodes_to_epoch(view, empty, {}, "empty epoch");
}

TEST(Artifact, RecordsWithEveryArrayEmptyRoundTrip) {
  // The smallest record an AS can have: an all-zero grid (no runs), no
  // region string, partitions, segments, peaks or PoPs.  open() bounds the
  // AS count by the record bytes over this minimum, so an image whose
  // records are all this small must still open and decode.
  const auto& w = world();
  const geo::BoundingBox box{45.0, 45.5, 9.0, 9.5};
  std::vector<core::AsPeerSet> ases;
  std::vector<core::AsAnalysis> analyses;
  for (const std::uint32_t asn : {7u, 9u, 11u}) {
    ases.push_back({net::Asn{asn}, {}});
    analyses.push_back(core::AsAnalysis{
        net::Asn{asn}, core::Classification{},
        core::AsFootprint{kde::DensityGrid{box, 5.0}, kde::Footprint{}, {}, 0, 40.0},
        core::PopFootprint{}});
  }
  core::DatasetStats stats;
  stats.final_ases = ases.size();
  const core::TargetDataset dataset{std::move(ases), std::move(stats)};
  const std::vector<std::byte> bytes = encode_or_die(dataset, analyses, 3, w.fingerprint);
  core::ArtifactView view;
  const Status opened = core::ArtifactView::from_borrowed(bytes, view);
  ASSERT_TRUE(opened.ok()) << opened;
  expect_decodes_to_epoch(view, dataset, analyses, "minimal records");
}

TEST(Artifact, RunsCrossingARowBoundaryRoundTrip) {
  // A hand-built grid whose nonzero cells run from the end of row 1 into
  // the start of row 2 (one stored run, split across two rows on decode),
  // plus a row whose span holds zeros at both ends and between two nonzero
  // cells, and a -0.0 (bit-nonzero, so stored).
  const auto& w = world();
  const geo::BoundingBox box{45.0, 45.5, 9.0, 10.0};
  kde::DensityGrid grid{box, 5.0};
  const std::size_t cols = grid.cols();
  ASSERT_GE(grid.rows(), 5u);
  ASSERT_GE(cols, 9u);
  std::vector<kde::DensityGrid::RowSpan> support(grid.rows());
  support[1] = {cols - 3, cols};
  support[2] = {0, 2};
  support[4] = {1, 9};
  grid.set_support(support);
  grid.set(1, cols - 3, 1.5);
  grid.set(1, cols - 2, 2.5);
  grid.set(1, cols - 1, 3.5);
  grid.set(2, 0, 4.5);
  grid.set(2, 1, 5.5);
  grid.set(4, 2, -0.0);
  grid.set(4, 7, 6.5);

  std::vector<core::AsPeerSet> ases{{net::Asn{5}, {}}};
  std::vector<core::AsAnalysis> analyses{core::AsAnalysis{
      net::Asn{5}, core::Classification{},
      core::AsFootprint{grid, kde::Footprint{}, {}, 0, 40.0}, core::PopFootprint{}}};
  core::DatasetStats stats;
  stats.final_ases = 1;
  const core::TargetDataset dataset{std::move(ases), std::move(stats)};
  const std::vector<std::byte> bytes = encode_or_die(dataset, analyses, 4, w.fingerprint);
  core::ArtifactView view;
  ASSERT_TRUE(core::ArtifactView::from_borrowed(bytes, view).ok());
  expect_decodes_to_epoch(view, dataset, analyses, "run across a row boundary");

  std::vector<core::AsAnalysis> decoded;
  ASSERT_TRUE(view.materialize(kAnyGrid, decoded).ok());
  const kde::DensityGrid& restored = decoded.at(0).footprint.grid;
  EXPECT_EQ(restored.row_support(1).lo, cols - 3);
  EXPECT_EQ(restored.row_support(1).hi, cols);
  EXPECT_EQ(restored.row_support(2).lo, 0u);
  EXPECT_EQ(restored.row_support(2).hi, 2u);
  // Row 4 shrinks to the hull of its bit-nonzero cells.
  EXPECT_EQ(restored.row_support(4).lo, 2u);
  EXPECT_EQ(restored.row_support(4).hi, 8u);
  EXPECT_EQ(restored.stored_cells(), 3u + 2u + 6u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(restored.value(4, 2)),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(restored.value(2, 0), 4.5);
}

TEST(Artifact, EncodeRefusesMismatchedInputs) {
  const auto& w = world();
  std::vector<std::byte> bytes;
  // analyses not parallel to the dataset.
  std::span<const core::AsAnalysis> short_span{w.analyses.data(),
                                               w.analyses.size() - 1};
  EXPECT_EQ(core::ArtifactCodec::encode(w.dataset, short_span, 1, 0, bytes).code(),
            StatusCode::kInvalidArgument);
  // stats that disagree with the AS count: an image of it would serve one
  // number of ASes while stats() claims another.
  core::DatasetStats stats = w.dataset.stats();
  ++stats.final_ases;
  const core::TargetDataset miscounted{
      {w.dataset.ases().begin(), w.dataset.ases().end()}, std::move(stats)};
  EXPECT_EQ(core::ArtifactCodec::encode(miscounted, w.analyses, 1, 0, bytes).code(),
            StatusCode::kInvalidArgument);
}

// ---- Service integration: publish-time emission + decode-once restore ----

TEST(Artifact, ServiceEmitsArtifactAndRestoresIdenticalAnswers) {
  const auto& w = world();
  const std::string path = scratch_path("service");

  serve::ServiceConfig writer_config;
  writer_config.threads = 2;
  writer_config.artifact_path = path;
  serve::EyeballService writer{w.pipeline, writer_config};
  for (const auto& window : w.churn.windows) writer.ingest(window);
  const std::shared_ptr<const serve::ServingSnapshot> published = writer.publish();
  ASSERT_NE(published, nullptr);
  ASSERT_TRUE(writer.last_artifact_status().ok())
      << writer.last_artifact_status().message();

  // A cold replica restores the serving surface straight from the artifact.
  serve::ServiceConfig reader_config;
  reader_config.threads = 2;
  serve::EyeballService replica{w.pipeline, reader_config};
  const Status restored = replica.restore_from_artifact(path);
  ASSERT_TRUE(restored.ok()) << restored.message();

  const std::shared_ptr<const serve::ServingSnapshot> snap = replica.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), 1u);
  ASSERT_EQ(snap->as_count(), published->as_count());

  // Stats parity.
  const auto stats = replica.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->stats, published->stats());
  EXPECT_EQ(stats->stats.windows.size(), published->stats().windows.size());

  // Every served ASN answers identically; repeated queries return the SAME
  // object (stable addresses: the restore materialized each AS once).
  for (std::size_t i = 0; i < published->as_count(); ++i) {
    const net::Asn asn = published->asn_at(i);
    EXPECT_EQ(snap->asn_at(i), asn);
    const serve::AnalysisRef first = replica.query(asn);
    ASSERT_TRUE(first) << "asn " << net::value_of(asn);
    const serve::AnalysisRef again = replica.query(asn);
    EXPECT_EQ(first.analysis, again.analysis);
    EXPECT_TRUE(same_analysis(*first.analysis, *published->analysis_at(i)))
        << "asn " << net::value_of(asn);
  }
  EXPECT_FALSE(replica.query(net::Asn{0xFFFFFFFFu}));

  // Batch queries pin the restored epoch like any other.
  std::vector<net::Asn> probe;
  for (std::size_t i = 0; i < snap->as_count() && probe.size() < 8; ++i) {
    probe.push_back(snap->asn_at(i));
  }
  const serve::BatchResult batch = replica.query_batch(probe);
  EXPECT_EQ(batch.snapshot, snap);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(batch.analyses[i], snap->find(probe[i]));
  }

  // The replica can resume WRITING after an artifact restore: the next
  // publish re-analyzes from its own builder and swings an epoch above the
  // restored one.
  replica.ingest(w.churn.windows[0]);
  const auto next = replica.publish();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->epoch(), 2u);
  // The old restored epoch stays pinned and answering for holders.
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_NE(snap->find(probe[0]), nullptr);
}

TEST(Artifact, PublishAfterAnArtifactRestoreReusesOnlyItsOwnAnalyses) {
  const auto& w = world();
  const std::string path = scratch_path("reuse");

  // A writer publishes every window and emits the artifact.
  serve::ServiceConfig writer_config;
  writer_config.threads = 2;
  writer_config.artifact_path = path;
  serve::EyeballService writer{w.pipeline, writer_config};
  for (const auto& window : w.churn.windows) writer.ingest(window);
  ASSERT_NE(writer.publish(), nullptr);
  ASSERT_TRUE(writer.last_artifact_status().ok()) << writer.last_artifact_status();

  // A same-config replica publishes from its own builder (window 0 only),
  // then restores the writer's epoch on top.
  serve::ServiceConfig replica_config;
  replica_config.threads = 2;
  serve::EyeballService replica{w.pipeline, replica_config};
  replica.ingest(w.churn.windows[0]);
  const auto own = replica.publish();
  ASSERT_NE(own, nullptr);
  ASSERT_TRUE(replica.restore_from_artifact(path).ok());
  const auto restored = replica.snapshot();
  ASSERT_EQ(restored->epoch(), 2u);

  // The two epochs differ, so reusing the restored analyses is observable.
  bool differ = own->as_count() != restored->as_count();
  for (std::size_t i = 0; !differ && i < own->as_count(); ++i) {
    differ = !same_analysis(*own->analysis_at(i), *restored->analysis_at(i));
  }
  ASSERT_TRUE(differ);

  // Publish with NO new ingest: the builder's touched set is empty, and the
  // current epoch's analyses are another writer's — every AS must be
  // re-analyzed from the replica's own builder.
  const auto next = replica.publish();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->epoch(), 3u);
  const core::TargetDataset one_shot =
      w.pipeline.build_dataset(core::dedup_first_observation(w.churn.windows[0]), 1);
  const std::vector<core::AsAnalysis> reference =
      w.pipeline.analyze_all(one_shot.ases(), 2);
  ASSERT_EQ(next->as_count(), own->as_count());
  ASSERT_EQ(next->as_count(), reference.size());
  for (std::size_t i = 0; i < next->as_count(); ++i) {
    EXPECT_TRUE(same_analysis(*next->analysis_at(i), *own->analysis_at(i)))
        << "as index " << i;
    EXPECT_TRUE(same_analysis(*next->analysis_at(i), reference[i])) << "as index " << i;
  }
  std::filesystem::remove(path);
}

TEST(Artifact, ServiceRefusesForeignConfigArtifact) {
  const auto& w = world();
  const std::string path = scratch_path("foreign");
  // Same bytes, wrong fingerprint: must be refused as kConfigMismatch, and
  // the service must keep serving what it had.
  const Status written =
      core::ArtifactCodec::write(util::local_filesystem(), path, w.dataset,
                                 w.analyses, 1, w.fingerprint + 1);
  ASSERT_TRUE(written.ok()) << written.message();

  serve::EyeballService service{w.pipeline};
  const Status refused = service.restore_from_artifact(path);
  EXPECT_EQ(refused.code(), StatusCode::kConfigMismatch);
  EXPECT_EQ(service.snapshot(), nullptr);

  const Status missing = service.restore_from_artifact(path + ".does-not-exist");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_EQ(service.snapshot(), nullptr);
}

TEST(Artifact, ServiceRefusesAnArtifactAnalyzedAtAnotherBandwidth) {
  // The config fingerprint covers only DatasetConfig, so a replica whose
  // KDE bandwidth differs from the writer's sees a matching fingerprint.
  // Every analysis records the bandwidth it was made at; a replica must
  // refuse to serve analyses made at another one as its own.
  const auto& w = world();
  const std::string path = scratch_path("bandwidth");
  const Status written =
      core::ArtifactCodec::write(util::local_filesystem(), path, w.dataset,
                                 w.analyses, 1, w.fingerprint);
  ASSERT_TRUE(written.ok()) << written.message();
  ASSERT_FALSE(w.analyses.empty());
  ASSERT_EQ(w.analyses[0].footprint.bandwidth_km, w.config.footprint.kde.bandwidth_km);

  core::PipelineConfig replica_config = w.config;
  replica_config.footprint.kde.bandwidth_km = w.config.footprint.kde.bandwidth_km / 2.0;
  ASSERT_EQ(core::SnapshotCodec::config_fingerprint(replica_config.dataset),
            w.fingerprint);
  const core::EyeballPipeline replica_pipeline{w.f.gaz, w.f.primary, w.f.secondary,
                                               w.f.mapper, replica_config};
  serve::EyeballService replica{replica_pipeline};
  const Status refused = replica.restore_from_artifact(path);
  EXPECT_EQ(refused.code(), StatusCode::kConfigMismatch) << refused;
  EXPECT_EQ(replica.snapshot(), nullptr);
  // Intact, just not this pipeline's output: left in place.
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + std::string{util::kQuarantineSuffix}));

  // The same image restores on a replica at the writer's bandwidth.
  serve::EyeballService same{w.pipeline};
  EXPECT_TRUE(same.restore_from_artifact(path).ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace eyeball
