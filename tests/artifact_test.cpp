// Differential battery for the serving artifact (core/artifact.hpp): every
// answer an ArtifactView gives must EXACTLY equal the in-memory epoch it was
// written from — grid values, contours, peaks, PoP mappings, stats —
// and the encoding must be canonical (byte-identical across finalize thread
// counts; split-invariant outside the window trail, which records batching
// history by design, mirroring DatasetStats::operator==).
//
// This suite also runs under the ASan+UBSan tree (tools/check.sh
// `artifact-faults` stage), where the full-accessor sweep doubles as the
// alignment/aliasing gate for the in-place mmap reads.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact.hpp"
#include "core/snapshot.hpp"
#include "core/streaming_dataset.hpp"
#include "p2p/churn.hpp"
#include "pipeline_fixture.hpp"
#include "serve/service.hpp"
#include "util/file.hpp"
#include "util/status.hpp"

namespace eyeball {
namespace {

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
  const std::string path = ::testing::TempDir() + "eyeball_artifact_test_" + name;
  std::filesystem::remove(path);
  return path;
}

/// File offset of section 2 (the AS index), read from the section table:
/// everything from here to the tail is the batching-independent payload.
[[nodiscard]] std::size_t second_section_offset(std::span<const std::byte> bytes) {
  // header 56 B, table entries 40 B each, offset at entry byte 8.
  const std::size_t at = 56 + 40 + 8;
  std::uint64_t offset = 0;
  for (int i = 0; i < 8; ++i) {
    offset |= static_cast<std::uint64_t>(bytes[at + static_cast<std::size_t>(i)])
              << (8 * i);
  }
  return static_cast<std::size_t>(offset);
}

void expect_view_equals_epoch(const core::ArtifactView& view,
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

  for (std::size_t i = 0; i < view.as_count(); ++i) {
    const auto as = view.as_at(i);
    const core::AsAnalysis& analysis = analyses[i];
    SCOPED_TRACE(std::string{context} + " as index " + std::to_string(i));

    EXPECT_EQ(as.asn(), dataset.ases()[i].asn);
    EXPECT_EQ(as.level(), analysis.classification.level);
    EXPECT_EQ(as.continent(), analysis.classification.continent);
    EXPECT_EQ(as.dominant_share(), analysis.classification.dominant_share);
    EXPECT_EQ(as.dominant_region(), analysis.classification.dominant_region);

    const kde::DensityGrid& grid = analysis.footprint.grid;
    EXPECT_EQ(as.grid_rows(), grid.rows());
    EXPECT_EQ(as.grid_cols(), grid.cols());
    EXPECT_EQ(as.grid_box().min_lat(), grid.box().min_lat());
    EXPECT_EQ(as.grid_box().max_lat(), grid.box().max_lat());
    EXPECT_EQ(as.grid_box().min_lon(), grid.box().min_lon());
    EXPECT_EQ(as.grid_box().max_lon(), grid.box().max_lon());
    EXPECT_EQ(as.grid_cell_km(), grid.cell_km());
    // Zero-suppressed grid: reconstruct the dense row-major values from the
    // runs + nonzero arena and compare bit-for-bit (0.0 vs -0.0 matters, so
    // compare the u64 bit patterns, not the doubles).
    {
      const std::span<const double> nonzero = as.grid_nonzero_values();
      ASSERT_EQ(nonzero.size(), as.grid_nonzero_count());
      std::vector<double> dense(grid.values().size(), 0.0);
      std::size_t cursor = 0;
      std::uint64_t prev_end = 0;
      for (std::size_t r = 0; r < as.grid_run_count(); ++r) {
        const core::GridRun run = as.grid_run(r);
        ASSERT_GE(run.count, 1u) << "run " << r;
        if (r > 0) {
          ASSERT_GT(run.start_cell, prev_end) << "run " << r;
        }
        ASSERT_LE(run.start_cell + run.count, dense.size()) << "run " << r;
        for (std::uint64_t c = 0; c < run.count; ++c) {
          dense[static_cast<std::size_t>(run.start_cell + c)] = nonzero[cursor++];
        }
        prev_end = run.start_cell + run.count;
      }
      ASSERT_EQ(cursor, nonzero.size());
      for (std::size_t c = 0; c < dense.size(); ++c) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(dense[c]),
                  std::bit_cast<std::uint64_t>(grid.values()[c]))
            << "grid cell " << c;
      }
    }

    const kde::Footprint& contour = analysis.footprint.contour;
    EXPECT_EQ(as.contour_level(), contour.level);
    ASSERT_EQ(as.partition_count(), contour.partitions.size());
    for (std::size_t p = 0; p < contour.partitions.size(); ++p) {
      const kde::FootprintPartition got = as.partition(p);
      const kde::FootprintPartition& want = contour.partitions[p];
      EXPECT_EQ(got.cell_count, want.cell_count) << "partition " << p;
      EXPECT_EQ(got.area_km2, want.area_km2) << "partition " << p;
      EXPECT_EQ(got.mass, want.mass) << "partition " << p;
      EXPECT_EQ(got.peak_density, want.peak_density) << "partition " << p;
      EXPECT_EQ(got.peak_location, want.peak_location) << "partition " << p;
      EXPECT_EQ(got.min_lat, want.min_lat) << "partition " << p;
      EXPECT_EQ(got.max_lat, want.max_lat) << "partition " << p;
      EXPECT_EQ(got.min_lon, want.min_lon) << "partition " << p;
      EXPECT_EQ(got.max_lon, want.max_lon) << "partition " << p;
    }
    ASSERT_EQ(as.boundary_count(), contour.boundary.size());
    for (std::size_t s = 0; s < contour.boundary.size(); ++s) {
      EXPECT_EQ(as.boundary(s).a, contour.boundary[s].a) << "segment " << s;
      EXPECT_EQ(as.boundary(s).b, contour.boundary[s].b) << "segment " << s;
    }

    ASSERT_EQ(as.peak_count(), analysis.footprint.peaks.size());
    for (std::size_t p = 0; p < analysis.footprint.peaks.size(); ++p) {
      const kde::Peak got = as.peak(p);
      const kde::Peak& want = analysis.footprint.peaks[p];
      EXPECT_EQ(got.location, want.location) << "peak " << p;
      EXPECT_EQ(got.density, want.density) << "peak " << p;
      EXPECT_EQ(got.score, want.score) << "peak " << p;
      EXPECT_EQ(got.row, want.row) << "peak " << p;
      EXPECT_EQ(got.col, want.col) << "peak " << p;
    }

    ASSERT_EQ(as.pop_count(), analysis.pops.pops.size());
    for (std::size_t p = 0; p < analysis.pops.pops.size(); ++p) {
      const core::PopEntry got = as.pop(p);
      const core::PopEntry& want = analysis.pops.pops[p];
      EXPECT_EQ(got.city, want.city) << "pop " << p;
      EXPECT_EQ(got.score, want.score) << "pop " << p;
      EXPECT_EQ(got.peak_density, want.peak_density) << "pop " << p;
      EXPECT_EQ(got.peak_location, want.peak_location) << "pop " << p;
    }
    EXPECT_EQ(as.unmapped_peaks(), analysis.pops.unmapped_peaks);
    EXPECT_EQ(as.sample_count(), analysis.footprint.sample_count);
    EXPECT_EQ(as.bandwidth_km(), analysis.footprint.bandwidth_km);
  }

  // find(): same answer as TargetDataset::find for every served ASN, and
  // the same miss behavior for an ASN outside the epoch.
  for (std::size_t i = 0; i < dataset.ases().size(); ++i) {
    const net::Asn asn = dataset.ases()[i].asn;
    const std::optional<std::size_t> found = view.find_index(asn);
    ASSERT_TRUE(found.has_value()) << context << " asn " << net::value_of(asn);
    const core::AsPeerSet* reference = dataset.find(asn);
    ASSERT_NE(reference, nullptr);
    EXPECT_EQ(*found, static_cast<std::size_t>(reference - dataset.ases().data()))
        << context << " asn " << net::value_of(asn);
  }
  EXPECT_FALSE(view.find(net::Asn{0xFFFFFFFFu}).has_value()) << context;
}

bool same_analysis(const core::AsAnalysis& a, const core::AsAnalysis& b) {
  if (a.asn != b.asn) return false;
  if (a.classification.level != b.classification.level ||
      a.classification.continent != b.classification.continent ||
      a.classification.dominant_region != b.classification.dominant_region ||
      a.classification.dominant_share != b.classification.dominant_share) {
    return false;
  }
  if (a.footprint.grid.rows() != b.footprint.grid.rows() ||
      a.footprint.grid.cols() != b.footprint.grid.cols() ||
      a.footprint.grid.cell_km() != b.footprint.grid.cell_km() ||
      a.footprint.grid.values() != b.footprint.grid.values()) {
    return false;
  }
  if (a.footprint.contour.level != b.footprint.contour.level ||
      a.footprint.contour.partitions.size() != b.footprint.contour.partitions.size() ||
      a.footprint.contour.boundary.size() != b.footprint.contour.boundary.size() ||
      a.footprint.peaks.size() != b.footprint.peaks.size() ||
      a.footprint.sample_count != b.footprint.sample_count ||
      a.footprint.bandwidth_km != b.footprint.bandwidth_km) {
    return false;
  }
  if (a.pops.unmapped_peaks != b.pops.unmapped_peaks ||
      a.pops.pops.size() != b.pops.pops.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.pops.pops.size(); ++i) {
    const auto& pa = a.pops.pops[i];
    const auto& pb = b.pops.pops[i];
    if (pa.city != pb.city || pa.score != pb.score ||
        pa.peak_density != pb.peak_density || pa.peak_location != pb.peak_location) {
      return false;
    }
  }
  return true;
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
  // entire payload from the AS index on must be byte-identical; only the
  // stats section (which records the batching history on purpose — see
  // DatasetStats::windows) and the offsets/CRCs that depend on its size
  // may differ.
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

  const std::span<const std::byte> split_tail =
      std::span{split}.subspan(second_section_offset(split));
  const std::span<const std::byte> merged_tail =
      std::span{merged}.subspan(second_section_offset(merged));
  ASSERT_EQ(split_tail.size(), merged_tail.size());
  EXPECT_TRUE(std::equal(split_tail.begin(), split_tail.end(), merged_tail.begin()));
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
  const Status opened = core::ArtifactView::open(path, view);
  ASSERT_TRUE(opened.ok()) << opened.message();
  EXPECT_TRUE(view.valid());
  EXPECT_EQ(view.epoch(), 42u);
  EXPECT_EQ(view.config_fingerprint(), w.fingerprint);
  EXPECT_EQ(view.image_size(), std::filesystem::file_size(path));

  expect_view_equals_epoch(view, w.dataset, w.analyses, "mmap round trip");
}

TEST(Artifact, FromBytesRoundTripEqualsInMemoryEpochExactly) {
  const auto& w = world();
  std::vector<std::byte> bytes = encode_or_die(w.dataset, w.analyses, 1, w.fingerprint);
  core::ArtifactView view;
  const Status opened = core::ArtifactView::from_bytes(std::move(bytes), view);
  ASSERT_TRUE(opened.ok()) << opened.message();
  expect_view_equals_epoch(view, w.dataset, w.analyses, "owned-bytes round trip");
}

TEST(Artifact, MaterializeReproducesTheExactAnalyses) {
  const auto& w = world();
  std::vector<std::byte> bytes = encode_or_die(w.dataset, w.analyses, 1, w.fingerprint);
  core::ArtifactView view;
  ASSERT_TRUE(core::ArtifactView::from_bytes(std::move(bytes), view).ok());
  for (std::size_t i = 0; i < view.as_count(); ++i) {
    const core::AsAnalysis thawed = view.as_at(i).materialize();
    EXPECT_TRUE(same_analysis(thawed, w.analyses[i])) << "as index " << i;
    // Boundary segments and peaks field-by-field (same_analysis checks
    // counts; the differential sweep above checks the view accessors — this
    // pins the materialized copies too).
    for (std::size_t s = 0; s < thawed.footprint.contour.boundary.size(); ++s) {
      EXPECT_EQ(thawed.footprint.contour.boundary[s].a,
                w.analyses[i].footprint.contour.boundary[s].a);
      EXPECT_EQ(thawed.footprint.contour.boundary[s].b,
                w.analyses[i].footprint.contour.boundary[s].b);
    }
  }
}

TEST(Artifact, EmptyEpochRoundTrips) {
  const auto& w = world();
  // A builder that never ingested finalizes to an empty dataset.
  auto builder = w.pipeline.streaming_builder();
  const core::TargetDataset empty = builder.finalize(1);
  ASSERT_EQ(empty.ases().size(), 0u);
  std::vector<std::byte> bytes = encode_or_die(empty, {}, 9, w.fingerprint);
  core::ArtifactView view;
  const Status opened = core::ArtifactView::from_bytes(std::move(bytes), view);
  ASSERT_TRUE(opened.ok()) << opened.message();
  EXPECT_EQ(view.as_count(), 0u);
  EXPECT_EQ(view.epoch(), 9u);
  EXPECT_FALSE(view.find(net::Asn{1}).has_value());
}

TEST(Artifact, EncodeRefusesMismatchedInputs) {
  const auto& w = world();
  std::vector<std::byte> bytes;
  // analyses not parallel to the dataset.
  std::span<const core::AsAnalysis> short_span{w.analyses.data(),
                                               w.analyses.size() - 1};
  EXPECT_EQ(core::ArtifactCodec::encode(w.dataset, short_span, 1, 0, bytes).code(),
            StatusCode::kInvalidArgument);
}

// ---- Service integration: publish-time emission + zero-copy restore ----

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

}  // namespace
}  // namespace eyeball
