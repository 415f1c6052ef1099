// Concurrency and correctness harness for the serving layer
// (serve/service.hpp): epoch publication semantics, reader pinning across
// publishes, the incremental-republish-equals-from-scratch differential,
// the restore-then-serve round trip, and a readers-vs-writer storm that
// pins "every answer is attributable to exactly one published epoch".
// Runs under the TSan gate (tools/check.sh matches 'Serving|serving').
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/snapshot.hpp"
#include "core/streaming_dataset.hpp"
#include "p2p/churn.hpp"
#include "pipeline_fixture.hpp"
#include "scratch.hpp"
#include "serve/service.hpp"
#include "util/clock.hpp"
#include "util/crc32c.hpp"
#include "util/file.hpp"
#include "util/status.hpp"

namespace eyeball {
namespace {

using eyeball::testing::shared_fixture;

/// Longitudinal stream plus a pipeline configured for the streaming regime
/// (min_peers_per_as lowered so single windows sit below the threshold ASes
/// later cross), and the one-shot reference the served dataset must equal.
struct ServeWorld {
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
  std::vector<p2p::PeerSample> concatenated = [this] {
    std::vector<p2p::PeerSample> out;
    for (const auto& window : churn.windows) {
      out.insert(out.end(), window.begin(), window.end());
    }
    return out;
  }();
  core::TargetDataset reference =
      pipeline.build_dataset(core::dedup_first_observation(concatenated), 1);

  /// The streaming contract's reference for an epoch that has ingested the
  /// first `windows` windows: a one-shot build over their deduplicated
  /// concatenation, analyzed from scratch.
  [[nodiscard]] std::vector<core::AsAnalysis> one_shot_analyses(std::size_t windows) const {
    std::vector<p2p::PeerSample> samples;
    for (std::size_t i = 0; i < windows; ++i) {
      samples.insert(samples.end(), churn.windows[i].begin(), churn.windows[i].end());
    }
    const core::TargetDataset dataset =
        pipeline.build_dataset(core::dedup_first_observation(samples), 1);
    return pipeline.analyze_all(dataset.ases(), 2);
  }
};

const ServeWorld& serve_world() {
  static const ServeWorld instance;
  return instance;
}

/// The serving config every test uses: two writer-path threads, durability
/// off unless a test opts in.
[[nodiscard]] serve::ServiceConfig two_threads() {
  serve::ServiceConfig config;
  config.threads = 2;
  return config;
}

using testing::same_analysis;

/// Every served analysis equals `expected`, in order.
void expect_analyses(const serve::ServingSnapshot& snap,
                     const std::vector<core::AsAnalysis>& expected, const char* context) {
  ASSERT_EQ(snap.as_count(), expected.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(same_analysis(*snap.analysis_at(i), expected[i]))
        << context << " as index " << i;
  }
}

void expect_same_snapshot(const serve::ServingSnapshot& a,
                          const serve::ServingSnapshot& b, const char* context) {
  EXPECT_EQ(a.stats(), b.stats())
      << context << ": " << core::diff_stats(a.stats(), b.stats());
  ASSERT_EQ(a.as_count(), b.as_count()) << context;
  for (std::size_t i = 0; i < a.as_count(); ++i) {
    EXPECT_EQ(a.asn_at(i), b.asn_at(i)) << context << " as index " << i;
    EXPECT_TRUE(same_analysis(*a.analysis_at(i), *b.analysis_at(i)))
        << context << " as index " << i;
  }
}

// ---- Epoch publication semantics ----

TEST(Serving, UnpublishedServiceAnswersEmpty) {
  const auto& w = serve_world();
  const serve::EyeballService service{w.pipeline};
  EXPECT_EQ(service.snapshot(), nullptr);
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_FALSE(service.query(w.reference.ases()[0].asn));
  EXPECT_FALSE(service.stats().has_value());
  const auto batch = service.query_batch(std::vector<net::Asn>{net::Asn{1}});
  EXPECT_EQ(batch.snapshot, nullptr);
  ASSERT_EQ(batch.analyses.size(), 1u);
  EXPECT_EQ(batch.analyses[0], nullptr);
}

TEST(Serving, PublishAdvancesEpochAndAnswersPointQueries) {
  const auto& w = serve_world();
  serve::EyeballService service{w.pipeline, two_threads()};
  for (const auto& window : w.churn.windows) service.ingest(window);
  const auto snap = service.publish();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.snapshot(), snap);

  // The served dataset is the one-shot reference.
  EXPECT_EQ(snap->stats(), w.reference.stats())
      << core::diff_stats(w.reference.stats(), snap->stats());
  ASSERT_EQ(snap->as_count(), w.reference.ases().size());

  // Every served ASN answers, pinned to this epoch, with the right analysis.
  for (std::size_t i = 0; i < snap->as_count(); ++i) {
    const net::Asn asn = snap->asn_at(i);
    EXPECT_EQ(asn, w.reference.ases()[i].asn);
    const auto ref = service.query(asn);
    ASSERT_TRUE(ref);
    EXPECT_EQ(ref.epoch(), 1u);
    EXPECT_EQ(ref.analysis, snap->analysis_at(i));
  }
  // An unserved ASN answers "not served", still attributable to the epoch.
  const auto miss = service.query(net::Asn{0xFFFFFFFFu});
  EXPECT_FALSE(miss);
  EXPECT_EQ(miss.epoch(), 1u);

  const auto stats = service.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->epoch, 1u);
  EXPECT_EQ(stats->stats, snap->stats());
}

TEST(Serving, BatchAnswersComeFromOneEpoch) {
  const auto& w = serve_world();
  serve::EyeballService service{w.pipeline, two_threads()};
  for (const auto& window : w.churn.windows) service.ingest(window);
  (void)service.publish();
  std::vector<net::Asn> asns;
  for (const auto& as : w.reference.ases()) asns.push_back(as.asn);
  asns.push_back(net::Asn{0xFFFFFFFFu});  // one guaranteed miss
  const auto batch = service.query_batch(asns);
  ASSERT_NE(batch.snapshot, nullptr);
  EXPECT_EQ(batch.epoch(), 1u);
  ASSERT_EQ(batch.analyses.size(), asns.size());
  for (std::size_t i = 0; i + 1 < asns.size(); ++i) {
    ASSERT_NE(batch.analyses[i], nullptr) << "asn index " << i;
    EXPECT_EQ(batch.analyses[i]->asn, asns[i]);
  }
  EXPECT_EQ(batch.analyses.back(), nullptr);
}

// ---- Reader pinning: a held snapshot is immutable across publishes ----

TEST(Serving, ReaderHeldEpochUnchangedByLaterPublishes) {
  const auto& w = serve_world();
  serve::EyeballService service{w.pipeline, two_threads()};
  service.ingest(w.churn.windows[0]);
  const auto pinned = service.publish();
  ASSERT_NE(pinned, nullptr);
  // Deep-copy the observable state of epoch 1.
  const auto stats_before = pinned->stats();
  const std::size_t ases_before = pinned->as_count();
  std::vector<core::AsAnalysis> analyses_before{pinned->analyses().begin(),
                                                pinned->analyses().end()};

  // The writer moves on: more windows, another epoch.
  for (std::size_t i = 1; i < w.churn.windows.size(); ++i) {
    service.ingest(w.churn.windows[i]);
  }
  const auto next = service.publish();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->epoch(), 2u);
  EXPECT_EQ(service.epoch(), 2u);

  // The pinned epoch is bit-for-bit what it was at publish time.
  EXPECT_EQ(pinned->epoch(), 1u);
  EXPECT_EQ(pinned->stats(), stats_before);
  ASSERT_EQ(pinned->as_count(), ases_before);
  ASSERT_EQ(pinned->analyses().size(), analyses_before.size());
  for (std::size_t i = 0; i < analyses_before.size(); ++i) {
    EXPECT_TRUE(same_analysis(pinned->analyses()[i], analyses_before[i]))
        << "as index " << i;
  }
  // And it is genuinely a different epoch from the current one.
  EXPECT_NE(service.snapshot(), pinned);
}

// ---- Differential: incremental republish == from-scratch analyze_all ----

TEST(Serving, IncrementalRepublishEqualsFromScratchAnalysis) {
  const auto& w = serve_world();
  serve::EyeballService service{w.pipeline, two_threads()};
  std::shared_ptr<const serve::ServingSnapshot> snap;
  // Publishing after every window maximizes reuse of previous-epoch
  // analyses — the regime where an incremental-refresh bug would show.
  // A refresh error at any epoch propagates into every later epoch's
  // reused entries, so one from-scratch differential at the end covers the
  // whole chain.
  for (const auto& window : w.churn.windows) {
    service.ingest(window);
    snap = service.publish();
    ASSERT_NE(snap, nullptr);
    ASSERT_EQ(snap->analyses().size(), snap->as_count());
  }
  expect_analyses(*snap, w.pipeline.analyze_all(w.reference.ases(), 2),
                  "incremental vs one-shot");
  // After all windows, the served dataset equals the one-shot reference.
  EXPECT_EQ(snap->stats(), w.reference.stats())
      << core::diff_stats(w.reference.stats(), snap->stats());
}

// ---- Durability: publish persists, restore re-serves ----

TEST(Serving, RestoreThenServeRoundTrip) {
  const auto& w = serve_world();
  const std::string dir = testing::scratch_path("serving_test_round_trip");

  serve::ServiceConfig writer_config = two_threads();
  writer_config.snapshot_dir = dir;
  serve::EyeballService writer{w.pipeline, writer_config};
  // Two publish cycles: the durability hook fires per publish, so the
  // directory ends up holding multiple generations and restore must pick
  // the newest.
  writer.ingest(w.churn.windows[0]);
  std::shared_ptr<const serve::ServingSnapshot> published = writer.publish();
  ASSERT_TRUE(writer.last_save_status().ok()) << writer.last_save_status().message();
  for (std::size_t i = 1; i < w.churn.windows.size(); ++i) {
    writer.ingest(w.churn.windows[i]);
  }
  published = writer.publish();
  ASSERT_TRUE(writer.last_save_status().ok()) << writer.last_save_status().message();
  EXPECT_EQ(writer.builder().last_generation(), 2u);

  // A cold service restores from the directory and serves the same answers.
  serve::EyeballService restored{w.pipeline, two_threads()};
  core::SnapshotRestoreInfo info;
  const auto status = restored.restore(dir, &info);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_GT(info.generation, 0u);
  const auto snap = restored.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), 1u);  // fresh service, first published epoch
  expect_same_snapshot(*published, *snap, "restore round trip");

  // A restore from an empty directory refuses and leaves serving intact.
  const std::string empty = testing::scratch_path("serving_test_empty");
  std::filesystem::create_directories(empty);
  const auto refusal = restored.restore(empty);
  EXPECT_EQ(refusal.code(), util::StatusCode::kNotFound);
  EXPECT_EQ(restored.snapshot(), snap);
}

TEST(Serving, RestoreRefusesWhenEveryGenerationIsDeadAndKeepsServing) {
  const auto& w = serve_world();
  const std::string dir = testing::scratch_path("serving_test_dead_generations");
  auto& fs = util::local_filesystem();

  // A writer leaves two generations behind.
  serve::ServiceConfig writer_config = two_threads();
  writer_config.snapshot_dir = dir;
  serve::EyeballService writer{w.pipeline, writer_config};
  writer.ingest(w.churn.windows[0]);
  ASSERT_NE(writer.publish(), nullptr);
  writer.ingest(w.churn.windows[1]);
  ASSERT_NE(writer.publish(), nullptr);
  ASSERT_TRUE(writer.last_save_status().ok());

  // Kill both: generation 2 gets a flipped body byte (media corruption);
  // generation 1 gets its format version bumped AND the file CRC redone —
  // an intact file from a future format (the version-skew recipe from
  // snapshot_test.cpp), which must refuse as kVersionMismatch, not rot.
  const std::string gen2 = dir + "/snapshot.00000000000000000002.eyb";
  const std::string gen1 = dir + "/snapshot.00000000000000000001.eyb";
  std::vector<std::byte> bytes;
  ASSERT_TRUE(fs.read_file(gen2, bytes).ok());
  bytes[bytes.size() / 2] ^= std::byte{0x20};
  ASSERT_TRUE(util::atomic_write_file(fs, gen2, bytes).ok());
  ASSERT_TRUE(fs.read_file(gen1, bytes).ok());
  // Format version field, little-endian low byte: one past this binary's.
  bytes[8] = static_cast<std::byte>(core::SnapshotCodec::kFormatVersion + 1);
  const std::size_t body_size = bytes.size() - 12;
  const std::uint32_t crc = util::crc32c({bytes.data(), body_size});
  for (int i = 0; i < 4; ++i) {
    bytes[body_size + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((crc >> (8 * i)) & 0xffU);
  }
  ASSERT_TRUE(util::atomic_write_file(fs, gen1, bytes).ok());

  // A service already serving epoch 1 attempts the restore.
  serve::EyeballService service{w.pipeline, two_threads()};
  service.ingest(w.churn.windows[0]);
  const auto serving = service.publish();
  ASSERT_NE(serving, nullptr);

  const auto status = service.restore(dir);
  ASSERT_FALSE(status.ok());
  // The newest generation's verdict is the one reported.
  EXPECT_EQ(status.code(), util::StatusCode::kCorruption);

  // Serving untouched: same pinned epoch, health still Healthy (a refused
  // restore changes nothing about the running service).
  EXPECT_EQ(service.snapshot(), serving);
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.health().state, serve::ServiceHealth::kHealthy);

  // The corrupt generation was quarantined with its verdict; the
  // version-skewed file is intact property of another binary and stays.
  EXPECT_FALSE(std::filesystem::exists(gen2));
  EXPECT_TRUE(
      std::filesystem::exists(gen2 + std::string{util::kQuarantineSuffix}));
  EXPECT_TRUE(std::filesystem::exists(gen1));

  // Life goes on: publish-from-scratch still works and advances the epoch.
  service.ingest(w.churn.windows[1]);
  const auto next = service.publish();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->epoch(), 2u);
}

// ---- The health state machine and the publish exception firewall ----

TEST(Serving, PublishFirewallTripsToReadOnlyAndTheNextPublishReanalyzes) {
  const auto& w = serve_world();
  serve::ServiceConfig config = two_threads();
  bool armed = false;
  config.publish_fault_hook = [&armed] {
    if (armed) throw std::runtime_error("injected analysis failure");
  };
  serve::EyeballService service{w.pipeline, config};
  service.ingest(w.churn.windows[0]);
  const auto first = service.publish();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(service.health().state, serve::ServiceHealth::kHealthy);

  // The throw lands after finalize() has cleared the touched set — the
  // worst spot: if the next publish still reused epoch 1's analyses, it
  // would silently serve stale answers for every AS window 1 touched.
  service.ingest(w.churn.windows[1]);
  armed = true;
  const auto tripped = service.publish();
  EXPECT_EQ(tripped, nullptr);
  EXPECT_EQ(service.last_publish_status().code(), util::StatusCode::kInternal);
  EXPECT_NE(
      service.last_publish_status().message().find("injected analysis failure"),
      std::string::npos);
  // The previous epoch keeps serving...
  EXPECT_EQ(service.snapshot(), first);
  EXPECT_EQ(service.epoch(), 1u);
  // ...and health says read-only.
  const auto report = service.health();
  EXPECT_EQ(report.state, serve::ServiceHealth::kReadOnly);
  EXPECT_EQ(report.times_read_only, 1u);
  EXPECT_FALSE(report.last_error.ok());

  // Recovery publish with NO new ingest: the touched set is empty, so only
  // the trip's invalidation of the reuse epoch makes this publish
  // re-analyze what window 1 changed.
  armed = false;
  const auto healed = service.publish();
  ASSERT_NE(healed, nullptr);
  EXPECT_EQ(healed->epoch(), 2u);
  EXPECT_TRUE(service.last_publish_status().ok());
  const auto recovered = service.health();
  EXPECT_EQ(recovered.state, serve::ServiceHealth::kHealthy);
  EXPECT_EQ(recovered.times_read_only, 1u);
  // The error stays on record for post-mortem after recovery.
  EXPECT_FALSE(recovered.last_error.ok());

  // The differential oracle: the healed epoch equals a from-scratch
  // analysis of a one-shot build — no AS is served a stale window-0 answer.
  expect_analyses(*healed, w.one_shot_analyses(2), "healed vs one-shot");
}

TEST(Serving, RestorePublishRunsInsideTheFirewallAndTheNextPublishReanalyzes) {
  const auto& w = serve_world();
  const std::string dir = testing::scratch_path("serving_test_restore_firewall");

  {
    // A writer leaves a generation holding windows 0 and 1.
    serve::ServiceConfig writer_config = two_threads();
    writer_config.snapshot_dir = dir;
    serve::EyeballService writer{w.pipeline, writer_config};
    writer.ingest(w.churn.windows[0]);
    writer.ingest(w.churn.windows[1]);
    ASSERT_NE(writer.publish(), nullptr);
    ASSERT_TRUE(writer.last_save_status().ok()) << writer.last_save_status();
  }

  // A service serving its own window-0 epoch restores that directory with
  // the fault hook armed: the builder is replaced, then the restore's
  // first publish throws between finalize and analysis.
  serve::ServiceConfig config = two_threads();
  bool armed = false;
  config.publish_fault_hook = [&armed] {
    if (armed) throw std::runtime_error("injected restore-publish failure");
  };
  serve::EyeballService service{w.pipeline, config};
  service.ingest(w.churn.windows[0]);
  auto before = service.publish();
  ASSERT_NE(before, nullptr);

  armed = true;
  const util::Status status = service.restore(dir);
  EXPECT_EQ(status.code(), util::StatusCode::kInternal) << status;
  EXPECT_NE(status.message().find("injected restore-publish failure"), std::string::npos);
  EXPECT_EQ(service.last_publish_status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(service.health().state, serve::ServiceHealth::kReadOnly);
  // The pre-restore epoch keeps serving.
  EXPECT_EQ(service.snapshot(), before);
  EXPECT_EQ(service.epoch(), 1u);
  // Unpinned, so the recovery publish retires it (this suite's peak memory
  // bounds the TSan stage).
  before.reset();

  // Recovery publish with NO ingest: the failed publish already cleared the
  // restored touched set, so only a full re-analysis can serve the restored
  // windows — reusing the window-0 epoch would serve it stale.
  armed = false;
  const auto healed = service.publish();
  ASSERT_NE(healed, nullptr);
  EXPECT_EQ(healed->epoch(), 2u);
  EXPECT_EQ(service.health().state, serve::ServiceHealth::kHealthy);
  expect_analyses(*healed, w.one_shot_analyses(2), "post-restore publish vs one-shot");
  std::filesystem::remove_all(dir);
}

TEST(Serving, DurabilityFaultsRetryDeterministicallyAndDegradeUntilRecovery) {
  const auto& w = serve_world();
  const std::string dir = testing::scratch_path("serving_test_degraded");

  util::FaultInjectingFileSystem fs{util::local_filesystem()};
  util::FakeClock clock;
  serve::ServiceConfig config = two_threads();
  config.snapshot_dir = dir;
  config.filesystem = &fs;
  config.clock = &clock;
  serve::EyeballService service{w.pipeline, config};

  // One transient open failure: the supervised save absorbs it — one
  // backoff sleep, then success; health never leaves Healthy.
  service.ingest(w.churn.windows[0]);
  fs.arm_transient_open_failures(1);
  ASSERT_NE(service.publish(), nullptr);
  EXPECT_TRUE(service.last_save_status().ok()) << service.last_save_status();
  EXPECT_EQ(service.last_save_retry().attempts_made(), 2u);
  EXPECT_EQ(service.health().state, serve::ServiceHealth::kHealthy);
  ASSERT_EQ(clock.sleeps().size(), 1u);
  EXPECT_EQ(clock.sleeps()[0], std::chrono::milliseconds{10});

  // Exhaustion: exactly max_attempts armed failures, so every attempt is
  // refused and the injector is clean afterwards.  The epoch still
  // publishes — only durability degrades — and the backoff schedule is a
  // pure function of the fault pattern: 10ms then 20ms.
  clock.clear_sleeps();
  service.ingest(w.churn.windows[1]);
  fs.arm_transient_open_failures(3);
  const auto published = service.publish();
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->epoch(), 2u);
  EXPECT_EQ(service.last_save_status().code(), util::StatusCode::kIoError);
  EXPECT_EQ(service.last_save_retry().attempts_made(), 3u);
  const auto sleeps = clock.sleeps();
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(sleeps[0], std::chrono::milliseconds{10});
  EXPECT_EQ(sleeps[1], std::chrono::milliseconds{20});
  auto report = service.health();
  EXPECT_EQ(report.state, serve::ServiceHealth::kDegradedDurability);
  EXPECT_EQ(report.times_degraded, 1u);
  EXPECT_FALSE(report.last_error.ok());

  // Faults cleared: the next publish re-saves and health returns to
  // Healthy, with the exhaustion verdict kept on record.
  const auto healed = service.publish();
  ASSERT_NE(healed, nullptr);
  EXPECT_TRUE(service.last_save_status().ok()) << service.last_save_status();
  report = service.health();
  EXPECT_EQ(report.state, serve::ServiceHealth::kHealthy);
  EXPECT_EQ(report.times_degraded, 1u);
  EXPECT_FALSE(report.last_error.ok());

  // And what landed on disk despite the storm restores on a cold replica.
  serve::EyeballService replica{w.pipeline, two_threads()};
  ASSERT_TRUE(replica.restore(dir).ok());
  ASSERT_NE(replica.snapshot(), nullptr);
  expect_same_snapshot(*healed, *replica.snapshot(), "post-storm restore");
}

// ---- The TSan storm: readers vs. writer, no torn epochs ----

TEST(Serving, ArtifactRestoredEpochsSurviveConcurrentReaderStorm) {
  // The artifact sibling of the torn-epoch storm below: a replica restores
  // from a serving artifact, readers sweep every AS of whatever epoch is
  // current, while the writer keeps publishing newer epochs (from fresh
  // ingests, and from repeated artifact restores).  Runs under the TSan
  // gate, which is the point: a data race between a restore's publication
  // and the readers is a hard failure here.
  const auto& w = serve_world();
  const std::string path = testing::scratch_path("serving_artifact_storm.eyb");

  // Writer-side service emits the artifact on publish.
  serve::ServiceConfig writer_config = two_threads();
  writer_config.artifact_path = path;
  serve::EyeballService writer{w.pipeline, writer_config};
  writer.ingest(w.churn.windows[0]);
  const auto published = writer.publish();
  ASSERT_NE(published, nullptr);
  ASSERT_TRUE(writer.last_artifact_status().ok()) << writer.last_artifact_status();

  serve::EyeballService replica{w.pipeline, two_threads()};
  ASSERT_TRUE(replica.restore_from_artifact(path).ok());
  const auto restored = replica.snapshot();
  ASSERT_NE(restored, nullptr);
  const std::size_t as_count = restored->as_count();
  ASSERT_EQ(as_count, published->as_count());

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> answered{0};

  const auto reader = [&] {
    std::uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = replica.snapshot();
      if (snap == nullptr) continue;
      if (snap->epoch() < last_epoch) ++violations;
      last_epoch = snap->epoch();
      // Full sweep: every reader walks every AS of its pinned epoch.
      for (std::size_t i = 0; i < snap->as_count(); ++i) {
        const core::AsAnalysis* analysis = snap->analysis_at(i);
        if (analysis == nullptr || analysis->asn != snap->asn_at(i)) {
          ++violations;
          continue;
        }
        // Answers must have stable addresses within a snapshot.
        if (snap->find(analysis->asn) != analysis) ++violations;
      }
      if (snap->find(net::Asn{0xFFFFFFFFu}) != nullptr) ++violations;
      ++answered;
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) readers.emplace_back(reader);

  // The writer alternates epochs published from its builder with epochs
  // restored from the artifact; pinned readers must be unaffected either
  // way.
  for (std::size_t i = 1; i < w.churn.windows.size(); ++i) {
    replica.ingest(w.churn.windows[i]);
    (void)replica.publish();
    ASSERT_TRUE(replica.restore_from_artifact(path).ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(answered.load(), 0u);

  // The snapshot pinned before the storm still answers, identically to the
  // writer's published epoch, after every later publish.
  for (std::size_t i = 0; i < as_count; ++i) {
    const core::AsAnalysis* analysis = restored->analysis_at(i);
    ASSERT_NE(analysis, nullptr);
    EXPECT_TRUE(same_analysis(*analysis, *published->analysis_at(i)))
        << "as index " << i;
  }
  std::filesystem::remove(path);
}

TEST(Serving, ConcurrentReadersNeverObserveTornEpoch) {
  const auto& w = serve_world();
  serve::EyeballService service{w.pipeline, two_threads()};
  const std::size_t total_windows = w.churn.windows.size();

  // A small probe set keeps each reader iteration cheap: the point of the
  // storm is many snapshot acquisitions racing the writer, not lookup
  // volume (the lookups themselves are covered by the epoch tests above).
  std::vector<net::Asn> probe;
  for (const auto& as : w.reference.ases()) {
    probe.push_back(as.asn);
    if (probe.size() == 8) break;
  }
  probe.push_back(net::Asn{0xFFFFFFFFu});  // one guaranteed miss

  std::atomic<bool> done{false};
  // gtest assertions are not thread-safe; readers tally violations and the
  // main thread asserts once after joining.
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> answered{0};

  const auto reader = [&] {
    std::uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      // Point query: the answer must be internally consistent and pinned
      // to exactly one published epoch.
      const auto ref = service.query(probe[answered.load(std::memory_order_relaxed) %
                                           probe.size()]);
      if (ref.snapshot != nullptr) {
        const auto& snap = *ref.snapshot;
        // A snapshot is torn if its parallel arrays disagree or its window
        // tally disagrees with its epoch (the writer publishes once per
        // window, so epoch k serves exactly k windows).
        if (snap.analyses().size() != snap.as_count()) ++violations;
        if (snap.stats().windows.size() != snap.epoch()) ++violations;
        if (snap.epoch() == 0 || snap.epoch() > total_windows) ++violations;
        if (ref.analysis != nullptr &&
            snap.find(ref.analysis->asn) != ref.analysis) {
          ++violations;
        }
        // Epochs only move forward from any single reader's viewpoint.
        if (snap.epoch() < last_epoch) ++violations;
        last_epoch = snap.epoch();
        ++answered;
      }
      // Batch query: one epoch for the whole batch.
      const auto batch = service.query_batch(probe);
      if (batch.snapshot != nullptr) {
        if (batch.epoch() < last_epoch) ++violations;
        last_epoch = batch.epoch();
        for (std::size_t i = 0; i < probe.size(); ++i) {
          if (batch.analyses[i] != nullptr && batch.analyses[i]->asn != probe[i]) {
            ++violations;
          }
          if (batch.analyses[i] != nullptr &&
              batch.snapshot->find(probe[i]) != batch.analyses[i]) {
            ++violations;
          }
        }
        ++answered;
      }
      const auto stats = service.stats();
      if (stats.has_value() &&
          (stats->epoch == 0 || stats->epoch > total_windows ||
           stats->stats.windows.size() != stats->epoch)) {
        ++violations;
      }
      // Cede the core between iterations: on small machines spinning
      // readers would starve the writer's pool threads and turn a
      // seconds-long storm into minutes without adding interleavings.
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) readers.emplace_back(reader);

  // The writer ingests and publishes every window while readers hammer.
  for (const auto& window : w.churn.windows) {
    service.ingest(window);
    (void)service.publish();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(service.epoch(), total_windows);
  // Readers actually raced the writer (saw at least one published epoch).
  EXPECT_GT(answered.load(), 0u);
}

}  // namespace
}  // namespace eyeball
