// The whole-lifecycle chaos storm (this PR's acceptance bar): seeded fault
// schedules drive a full EyeballService lifecycle — ingest, publish,
// supervised snapshot save, artifact emit, crash, restore — through a
// FaultInjectingFileSystem arming a random mix of every fault class the
// repo can inject (short writes, failed fsyncs, silent bit flips, silent
// truncation, ENOSPC, failed renames with and without tmp debris, transient
// open/rename failures, exceptions thrown mid-publish).  The oracle, per
// scenario:
//
//   * zero silent corruptions — a post-crash restore lands bit-for-bit on a
//     state the writer actually had at a publish boundary, never a third
//     thing, and the final restore equals the clean-run reference exactly;
//   * every answer is attributable to exactly one published epoch;
//   * every failure surfaces as a typed util::Status (nothing throws out,
//     nothing is silently dropped) and health() tells the truth about it;
//   * once the faults clear, the service provably returns to Healthy;
//   * the whole schedule — retries, backoffs, outcomes — is a pure function
//     of the seed: identical seeds replay byte-identical FakeClock sleep
//     logs and outcome traces.
//
// Runs as its own `chaos` stage in tools/check.sh (ASan+UBSan build); the
// Chaos.Concurrent* storm additionally runs under the TSan gate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
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
#include "util/file.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace eyeball {
namespace {

using eyeball::testing::shared_fixture;
using util::Status;

/// Deterministic root seed; every scenario's schedule derives from it.
constexpr std::uint64_t kChaosSeed = 0xE7EBA11C4A05ULL;

/// Small longitudinal world: three churned windows, truncated so that one
/// scenario (up to six finalize+analyze cycles) costs well under a second —
/// the storm runs a hundred of them.
struct ChaosWorld {
  const testing::PipelineFixture& f = shared_fixture();
  core::PipelineConfig config = [] {
    core::PipelineConfig pipeline_config = shared_fixture().pipeline.config();
    pipeline_config.dataset.min_peers_per_as = 150;
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
    churn_config.windows = 3;
    churn_config.lease_survival = 0.6;
    return p2p::longitudinal_crawl(f.eco, f.gaz, crawl_config, churn_config);
  }();
  std::vector<std::span<const p2p::PeerSample>> windows = [this] {
    std::vector<std::span<const p2p::PeerSample>> out;
    for (const auto& window : churn.windows) {
      out.push_back(std::span<const p2p::PeerSample>{window}.first(
          std::min<std::size_t>(window.size(), 700)));
    }
    return out;
  }();
  /// Reference builder states after windows 0..k, finalized — exactly what
  /// a publish at that boundary persists.  The chaos oracle compares every
  /// restored state against these; matching none is a silent corruption.
  std::vector<std::vector<std::byte>> ref_states = [this] {
    std::vector<std::vector<std::byte>> out;
    auto reference = pipeline.streaming_builder();
    for (const auto& window : windows) {
      reference.ingest(window);
      (void)reference.finalize(2);
      out.push_back(core::SnapshotCodec::encode(reference, 0));
    }
    return out;
  }();
};

const ChaosWorld& chaos_world() {
  static const ChaosWorld instance;
  return instance;
}

[[nodiscard]] std::vector<std::byte> state_bytes(
    const core::StreamingDatasetBuilder& builder) {
  return core::SnapshotCodec::encode(builder, 0);
}

[[nodiscard]] serve::ServiceConfig two_threads() {
  serve::ServiceConfig config;
  config.threads = 2;
  return config;
}

[[nodiscard]] std::string scratch_dir(const std::string& name) {
  return testing::scratch_path("chaos_" + name);
}

/// Everything a scenario's schedule produced, for the reproducibility
/// differential: identical seeds must yield identical records.
struct ScenarioRecord {
  /// The FakeClock sleep log — the retry/backoff schedule, byte-comparable.
  std::vector<std::chrono::nanoseconds> sleeps;
  /// Compact outcome trace: per publish P/F + retry counts + health, plus
  /// probe/final restore outcomes.
  std::string trace;
};

/// Draws one fault action from the scenario rng and arms it.  Returns a
/// trace tag.  `throw_armed` is the publish-firewall trigger.
[[nodiscard]] std::string arm_random_fault(util::Rng& rng,
                                           util::FaultInjectingFileSystem& fs,
                                           std::size_t probe_size,
                                           bool& throw_armed) {
  switch (rng.uniform_index(8)) {
    case 0: {
      util::FileFault fault;
      const util::FileFault::Kind kinds[] = {
          util::FileFault::Kind::kShortWrite, util::FileFault::Kind::kFailedSync,
          util::FileFault::Kind::kBitFlip, util::FileFault::Kind::kTruncate,
          util::FileFault::Kind::kNoSpace,
      };
      fault.kind = kinds[rng.uniform_index(5)];
      fault.offset = rng.uniform_index(probe_size + probe_size / 4 + 1);
      fault.bit = static_cast<std::uint32_t>(rng.uniform_index(8));
      fs.arm(fault);
      return std::string{util::to_string(fault.kind)} + "@" +
             std::to_string(fault.offset);
    }
    case 1:
      fs.fail_next_rename();
      return "rename";
    case 2:
      fs.fail_next_rename_leaving_tmp();
      return "rename+tmp";
    case 3: {
      const std::size_t count = 1 + rng.uniform_index(4);
      fs.arm_transient_open_failures(count);
      return "open*" + std::to_string(count);
    }
    case 4: {
      const std::size_t count = 1 + rng.uniform_index(4);
      fs.arm_transient_rename_failures(count);
      return "rename*" + std::to_string(count);
    }
    case 5:
      throw_armed = true;
      return "throw";
    default:
      return "calm";  // cases 6,7: publish under clear skies
  }
}

/// One full lifecycle under a seeded fault schedule.  Returns the number of
/// silent-corruption outcomes observed (the storm sums these and demands
/// zero); typed-status, attribution and health violations are reported as
/// test failures inline.
[[nodiscard]] std::size_t run_chaos_scenario(const ChaosWorld& w, std::uint64_t seed,
                                             const std::string& dir_name,
                                             ScenarioRecord* record) {
  util::Rng rng{seed};
  const std::string dir = scratch_dir(dir_name);
  const std::string artifact_path = dir + ".artifact.eyb";
  std::filesystem::remove(artifact_path);
  const std::string label = "seed " + std::to_string(seed);
  std::size_t silent = 0;
  std::string trace;

  util::FaultInjectingFileSystem faulty{util::local_filesystem()};
  util::FakeClock clock;
  bool throw_armed = false;

  serve::ServiceConfig config;
  config.threads = 2;
  config.snapshot_dir = dir;
  const bool with_artifact = rng.bernoulli(0.5);
  if (with_artifact) config.artifact_path = artifact_path;
  config.filesystem = &faulty;
  config.clock = &clock;
  config.publish_fault_hook = [&throw_armed] {
    if (throw_armed) throw std::runtime_error("chaos: injected publish fault");
  };
  serve::EyeballService service{w.pipeline, config};

  const std::size_t probe_size = w.ref_states.back().size();
  std::uint64_t epoch_before = 0;
  for (std::size_t i = 0; i < w.windows.size(); ++i) {
    service.ingest(w.windows[i]);
    trace += "[" + arm_random_fault(rng, faulty, probe_size, throw_armed) + "]";

    const auto snap = service.publish();
    throw_armed = false;
    if (snap == nullptr) {
      // Firewall trip: typed verdict, read-only health, previous epoch
      // (possibly none) untouched.
      trace += "F";
      EXPECT_FALSE(service.last_publish_status().ok()) << label;
      EXPECT_EQ(service.health().state, serve::ServiceHealth::kReadOnly) << label;
      EXPECT_EQ(service.epoch(), epoch_before) << label;
      continue;
    }
    // Published: the epoch advanced by exactly one and every answer is
    // attributable to it.
    trace += "P";
    EXPECT_EQ(snap->epoch(), epoch_before + 1) << label;
    EXPECT_EQ(service.epoch(), snap->epoch()) << label;
    epoch_before = snap->epoch();
    EXPECT_EQ(snap->analyses().size(), snap->as_count()) << label;
    if (snap->as_count() > 0) {
      const auto answer = service.query(snap->asn_at(0));
      EXPECT_EQ(answer.epoch(), snap->epoch()) << label;
      EXPECT_NE(answer.analysis, nullptr) << label;
    }
    // Durability verdicts are typed and health reflects them exactly.
    const bool durable = service.last_save_status().ok() &&
                         service.last_artifact_status().ok();
    trace += std::to_string(service.last_save_retry().attempts_made());
    trace += service.last_save_status().ok() ? 's' : 'S';
    if (with_artifact) {
      trace += std::to_string(service.last_artifact_retry().attempts_made());
      trace += service.last_artifact_status().ok() ? 'a' : 'A';
    }
    EXPECT_EQ(service.health().state,
              durable ? serve::ServiceHealth::kHealthy
                      : serve::ServiceHealth::kDegradedDurability)
        << label;

    // Mid-run crash probe: a cold replica restores from whatever the storm
    // left in the directory, against a CLEAN filesystem.  It must land on a
    // state the writer actually had — or refuse, typed, touching nothing.
    if (i + 1 < w.windows.size() && rng.bernoulli(0.3)) {
      serve::EyeballService probe{w.pipeline, two_threads()};
      core::SnapshotRestoreInfo info;
      if (const Status status = probe.restore(dir, &info); status.ok()) {
        const auto got = state_bytes(probe.builder());
        bool matched = false;
        for (std::size_t k = 0; k <= i; ++k) matched |= (got == w.ref_states[k]);
        if (!matched) {
          ADD_FAILURE() << label << ": mid-run restore (generation "
                        << info.generation
                        << ") matches NO writer state — silent corruption";
          ++silent;
        }
        trace += "r" + std::to_string(info.generation);
        EXPECT_NE(probe.snapshot(), nullptr) << label;
        EXPECT_EQ(probe.health().state, serve::ServiceHealth::kHealthy) << label;
      } else {
        // Typed refusal, replica untouched.
        EXPECT_NE(status.code(), util::StatusCode::kOk) << label;
        EXPECT_EQ(probe.snapshot(), nullptr) << label;
        trace += "rx";
      }
    }
  }

  // The storm passes: with faults cleared, one publish must restore full
  // health — including a successful save over whatever debris (stale tmp,
  // quarantined corpses) the storm left in the directory.
  faulty.disarm_all();
  const auto calm = service.publish();
  if (calm == nullptr) {
    ADD_FAILURE() << label << ": publish still failing after faults cleared: "
                  << service.last_publish_status();
    return silent + 1;
  }
  trace += "|C";
  EXPECT_TRUE(service.last_save_status().ok())
      << label << ": " << service.last_save_status();
  if (with_artifact) {
    EXPECT_TRUE(service.last_artifact_status().ok())
        << label << ": " << service.last_artifact_status();
  }
  EXPECT_EQ(service.health().state, serve::ServiceHealth::kHealthy) << label;

  // Crash for real.  A cold replica must come back with EXACTLY the final
  // clean-run state — the zero-silent-corruption acceptance criterion.
  serve::EyeballService replica{w.pipeline, two_threads()};
  core::SnapshotRestoreInfo info;
  if (const Status status = replica.restore(dir, &info); !status.ok()) {
    ADD_FAILURE() << label << ": final restore refused: " << status;
    return silent + 1;
  }
  if (state_bytes(replica.builder()) != w.ref_states.back()) {
    ADD_FAILURE() << label << ": final restored state differs from the "
                     "clean-run reference — silent corruption";
    ++silent;
  }
  trace += "R" + std::to_string(info.generation);
  const auto served = replica.snapshot();
  EXPECT_NE(served, nullptr) << label;
  if (served != nullptr) {
    EXPECT_EQ(served->epoch(), 1u) << label;
    if (served->as_count() > 0) {
      const auto answer = replica.query(served->asn_at(0));
      EXPECT_EQ(answer.epoch(), served->epoch()) << label;
    }
  }
  EXPECT_EQ(replica.health().state, serve::ServiceHealth::kHealthy) << label;

  // When the artifact survived the storm, a second replica serves from it.
  if (with_artifact && service.last_artifact_status().ok()) {
    serve::EyeballService mirror{w.pipeline, two_threads()};
    const Status status = mirror.restore_from_artifact(artifact_path);
    EXPECT_TRUE(status.ok()) << label << ": " << status;
    if (status.ok() && calm->as_count() > 0) {
      const auto snap = mirror.snapshot();
      EXPECT_NE(snap, nullptr) << label;
      if (snap != nullptr) {
        EXPECT_EQ(snap->as_count(), calm->as_count()) << label;
        EXPECT_NE(snap->find(calm->asn_at(0)), nullptr) << label;
      }
    }
    trace += "M";
  }

  if (record != nullptr) {
    record->sleeps = clock.sleeps();
    record->trace = trace;
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove(artifact_path);
  return silent;
}

TEST(Chaos, StormOfSeededFaultSchedulesNeverCorruptsSilently) {
  const auto& w = chaos_world();
  // The world must be non-trivial, or the oracle proves nothing.
  ASSERT_GT(w.ref_states.back().size(), 64u);

  constexpr std::size_t kScenarios = 100;
  std::size_t silent_corruptions = 0;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    const std::uint64_t seed = kChaosSeed ^ (i * 0x9E3779B97F4A7C15ULL);
    silent_corruptions +=
        run_chaos_scenario(w, seed, "storm_" + std::to_string(i), nullptr);
    if (HasFatalFailure()) break;
  }
  // The acceptance criterion, stated as a number.
  EXPECT_EQ(silent_corruptions, 0u);
}

TEST(Chaos, IdenticalSeedsReplayIdenticalSchedulesAndOutcomes) {
  const auto& w = chaos_world();
  // The retry/backoff schedule and the whole outcome trace must be a pure
  // function of the seed: replay three seeds twice and compare the records
  // byte-for-byte.  (A FakeClock sleep log difference means backoff depends
  // on something other than the injected faults; a trace difference means
  // an outcome does.)
  for (std::uint64_t seed : {kChaosSeed + 1, kChaosSeed + 2, kChaosSeed + 3}) {
    ScenarioRecord first;
    ScenarioRecord second;
    EXPECT_EQ(run_chaos_scenario(w, seed, "replay_a", &first), 0u);
    EXPECT_EQ(run_chaos_scenario(w, seed, "replay_b", &second), 0u);
    EXPECT_EQ(first.sleeps, second.sleeps) << "seed " << seed;
    EXPECT_EQ(first.trace, second.trace) << "seed " << seed;
    EXPECT_FALSE(second.trace.empty()) << "seed " << seed;
  }
}

// ---- The TSan slice: readers polling health and epochs through a storm ----

TEST(Chaos, ConcurrentReadersStayAttributableThroughAFaultStorm) {
  const auto& w = chaos_world();
  const std::string dir = scratch_dir("concurrent");

  util::FaultInjectingFileSystem faulty{util::local_filesystem()};
  util::FakeClock clock;
  serve::ServiceConfig config;
  config.threads = 2;
  config.snapshot_dir = dir;
  config.filesystem = &faulty;
  config.clock = &clock;
  serve::EyeballService service{w.pipeline, config};

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> answered{0};

  // Readers race the writer's publishes AND its health transitions: every
  // observation must be internally consistent and epochs must only move
  // forward.  Under TSan this also proves HealthTracker and FakeClock are
  // soundly synchronized against the retrying writer.
  const auto reader = [&] {
    std::uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = service.snapshot();
      if (snap != nullptr) {
        if (snap->epoch() < last_epoch) ++violations;
        last_epoch = snap->epoch();
        if (snap->analyses().size() != snap->as_count()) ++violations;
        if (snap->as_count() > 0 &&
            snap->find(snap->asn_at(0)) != snap->analysis_at(0)) {
          ++violations;
        }
        ++answered;
      }
      const auto report = service.health();
      if (to_string(report.state).empty()) ++violations;
      if (report.state != serve::ServiceHealth::kHealthy &&
          report.last_error.ok()) {
        ++violations;  // a degraded state must carry its reason
      }
      std::this_thread::yield();
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) readers.emplace_back(reader);

  // The writer storms: every publish runs its supervised save into armed
  // transient failures (some exhausting the retry budget, some recovering).
  util::Rng rng{kChaosSeed ^ 0xC0C0ULL};
  for (const auto& window : w.windows) {
    service.ingest(window);
    faulty.arm_transient_open_failures(rng.uniform_index(4));
    (void)service.publish();
  }
  faulty.disarm_all();
  (void)service.publish();

  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(service.health().state, serve::ServiceHealth::kHealthy);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace eyeball
