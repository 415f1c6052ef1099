// Concurrent query/serving layer over the streaming pipeline.
//
// EyeballService turns the library into a long-lived server: a single
// writer thread feeds crawl windows into an owned StreamingDatasetBuilder
// and publishes immutable ServingSnapshot epochs (dataset stats + per-AS
// analyses), while any number of reader threads answer point and batch
// queries against the snapshot current at their moment of arrival.
//
// Concurrency contract (pinned by tests/serving_test.cpp under the TSan
// gate):
//   - ONE writer.  ingest() / publish() / restore() / restore_from_artifact()
//     and the builder accessors must be called from a single thread (or
//     externally serialized).  The writer never blocks on readers.
//   - ANY number of readers.  snapshot() / query() / query_batch() /
//     stats() / epoch() are safe from any thread concurrently with the
//     writer, never block ingest, and never observe a torn epoch: every
//     answer is derived from exactly one published ServingSnapshot.
//
// The mechanism is epoch publication (RCU-style double buffering): the
// writer builds the next snapshot completely off to the side, then swings
// an atomically-published shared_ptr (see SnapshotCell).  Readers load the
// pointer once per query; the shared_ptr keeps their epoch alive for as
// long as they hold it, so a reader can keep answering from epoch N while
// the writer publishes N+1, N+2, ...  Nothing is ever mutated after
// publication.
//
// Every epoch has the same shape, whichever path built it: publish() and
// restore() analyze the builder's finalized dataset; restore_from_artifact()
// decodes every AS record of a checked EYBART1 image once, then releases
// the mapping.  The finalized TargetDataset (the kept peers) lives only as
// a publish() local, long enough to write the artifact — no query reads it.
//
// Publication is incremental: publish() captures the builder's
// touched_asns() BEFORE finalize() (finalize clears the set) and hands the
// current epoch's analyses to EyeballPipeline::refresh_analyses, so only
// ASes whose buckets actually changed are re-analyzed — the published
// result is nevertheless identical to analyze_all from scratch (pinned by a
// differential test).  The reuse is sound only for analyses this writer
// built from its own builder, so it is keyed on the epoch number of the
// writer's last own publish()/restore(): an epoch restored from an artifact
// (or a failed restore) makes the next publish re-analyze every AS.
//
// Durability: when ServiceConfig::snapshot_dir is non-empty, every
// publish() also persists the builder state there via the crash-safe
// snapshot path (core/snapshot.hpp); restore() rebuilds a service from such
// a directory and publishes a first epoch from scratch.
//
// Operational resilience (pinned by tests/chaos_test.cpp):
//   - Durability writes are supervised: snapshot-save and artifact-emit run
//     under a deterministic retry-with-exponential-backoff policy
//     (ServiceConfig::durability_retry, timed by the injectable Clock seam)
//     and every attempt's typed Status is kept (last_save_retry() /
//     last_artifact_retry()).
//   - Publication is firewalled: an exception escaping finalize/analysis in
//     publish() or restore() is converted into a typed kInternal Status
//     instead of unwinding into the caller; the previous epoch keeps
//     serving and the captured changed-ASN work list carries over so the
//     NEXT publish re-analyzes everything the failed one would have.
//   - The service reports a three-state health summary (health()):
//     Healthy, DegradedDurability (serving + publishing fine, persistence
//     failing), ReadOnly (the last publish itself failed).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "core/snapshot.hpp"
#include "core/streaming_dataset.hpp"
#include "util/annotations.hpp"
#include "util/clock.hpp"
#include "util/file.hpp"
#include "util/mutex.hpp"
#include "util/retry.hpp"
#include "util/status.hpp"

namespace eyeball::serve {

struct ServiceConfig {
  /// Concurrency for finalize() and the analysis refresh on the writer
  /// path; 0 = one chunk per hardware thread.
  std::size_t threads = 0;
  /// When non-empty, publish() persists the builder state to this directory
  /// after each epoch swing (crash-safe generations; see last_save_status()).
  std::string snapshot_dir;
  /// When non-empty, publish() also emits the published epoch as an EYBART1
  /// serving artifact at this path (crash-safe via atomic_write_file; see
  /// last_artifact_status()).  A replica restores from it with
  /// restore_from_artifact() — mmap + decode once, no snapshot replay.
  std::string artifact_path;
  /// Filesystem seam for every durability and restore path; nullptr = the
  /// process-wide real filesystem.  Tests wire a FaultInjectingFileSystem
  /// here to drive the whole service lifecycle through deterministic fault
  /// schedules.
  util::FileSystem* filesystem = nullptr;
  /// Time seam for the durability retry policy; nullptr = the monotonic
  /// real clock (real backoff sleeps).  Tests wire a FakeClock here, making
  /// the retry schedule a pure, byte-reproducible function of the faults.
  util::Clock* clock = nullptr;
  /// Backoff schedule for supervised durability writes (snapshot save and
  /// artifact emit).  The defaults retry transient kIoError failures three
  /// times total; non-retriable verdicts (corruption, config skew) fail
  /// immediately.
  util::RetryOptions durability_retry;
  /// Test-only fault hook, invoked on the writer path between finalize()
  /// and analysis inside the publish exception firewall.  May throw — that
  /// is its purpose: it is the deterministic stand-in for an analysis or
  /// allocation failure mid-publish.  Leave empty in production.
  std::function<void()> publish_fault_hook;
};

/// The service's operational state, coarsened to what an operator acts on.
/// Order matters: higher is worse.
enum class ServiceHealth : std::uint8_t {
  /// Publishing and (if configured) persistence both succeed.
  kHealthy,
  /// Serving and publishing work, but the latest supervised durability
  /// write (snapshot save or artifact emit) failed after retries.  Queries
  /// are fresh; crash-recovery freshness is degraded.
  kDegradedDurability,
  /// The latest publish itself failed (exception firewall tripped).  The
  /// previous epoch keeps serving — reads work, the dataset no longer
  /// advances until a publish succeeds.
  kReadOnly,
};

[[nodiscard]] std::string_view to_string(ServiceHealth health) noexcept;

/// One coherent health observation: the state plus how the service has
/// moved between states and the most recent error that drove a transition
/// out of Healthy (sticky — kept for post-mortem after recovery).
struct HealthReport {
  ServiceHealth state = ServiceHealth::kHealthy;
  /// Total state CHANGES (entering the current state again is not one).
  std::uint64_t transitions = 0;
  /// Times the service ENTERED DegradedDurability / ReadOnly.
  std::uint64_t times_degraded = 0;
  std::uint64_t times_read_only = 0;
  /// The error behind the most recent transition away from Healthy; OK only
  /// if the service has never left Healthy.
  util::Status last_error;
};

class ServingSnapshot;

namespace detail {

/// The publication point: semantically a
/// std::atomic<std::shared_ptr<const ServingSnapshot>>, implemented
/// in-house because libstdc++ 12's _Sp_atomic guards its value pointer
/// with a spinlock whose reader-side unlock is relaxed — ThreadSanitizer
/// (correctly, under the formal memory model) reports the reader's plain
/// pointer read as racing the writer's swap.  A mutex held only for the
/// pointer copy/swap gives the same epoch-publication semantics with
/// sound ordering: the writer builds each epoch entirely outside the
/// lock, and the shared_ptr control block makes reclamation safe without
/// quiescence tracking.
class SnapshotCell {
 public:
  /// Reader side: pins the epoch current at the moment of the call.
  [[nodiscard]] std::shared_ptr<const ServingSnapshot> load() const {
    const util::MutexLock guard{mutex_};
    return snapshot_;
  }

  /// Writer side: swings the published pointer.  The previous epoch's
  /// (potentially large) destructor runs outside the lock, and only if no
  /// reader still pins it.
  void store(std::shared_ptr<const ServingSnapshot> next) {
    {
      const util::MutexLock guard{mutex_};
      snapshot_.swap(next);
    }
  }

 private:
  /// Guards only the pointer copy/swap; never held while an epoch is built
  /// or destroyed.
  mutable util::Mutex mutex_;
  std::shared_ptr<const ServingSnapshot> snapshot_ EYEBALL_GUARDED_BY(mutex_);
};

/// The health state machine behind EyeballService::health().  Internally
/// synchronized so readers may poll it concurrently with the writer's
/// transitions; the writer is the only mutator, so a report is always one
/// coherent (state, counters, error) observation.
class HealthTracker {
 public:
  /// Moves to `next`; counts a transition only on an actual change.  A
  /// non-OK `why` becomes the sticky last_error (an OK `why` on recovery
  /// leaves the previous error in place for post-mortem).
  void transition(ServiceHealth next, const util::Status& why) {
    const util::MutexLock guard{mutex_};
    if (next != state_) {
      ++transitions_;
      if (next == ServiceHealth::kDegradedDurability) ++times_degraded_;
      if (next == ServiceHealth::kReadOnly) ++times_read_only_;
      state_ = next;
    }
    if (!why.ok()) last_error_ = why;
  }

  [[nodiscard]] HealthReport report() const {
    const util::MutexLock guard{mutex_};
    HealthReport out;
    out.state = state_;
    out.transitions = transitions_;
    out.times_degraded = times_degraded_;
    out.times_read_only = times_read_only_;
    out.last_error = last_error_;
    return out;
  }

 private:
  mutable util::Mutex mutex_;
  ServiceHealth state_ EYEBALL_GUARDED_BY(mutex_) = ServiceHealth::kHealthy;
  std::uint64_t transitions_ EYEBALL_GUARDED_BY(mutex_) = 0;
  std::uint64_t times_degraded_ EYEBALL_GUARDED_BY(mutex_) = 0;
  std::uint64_t times_read_only_ EYEBALL_GUARDED_BY(mutex_) = 0;
  util::Status last_error_ EYEBALL_GUARDED_BY(mutex_);
};

}  // namespace detail

/// One immutable published epoch: dataset stats plus one analysis per
/// served AS, frozen at construction.  Readers share it by shared_ptr and
/// never see it change; every analysis has a stable address for the
/// snapshot's lifetime.  publish()/restore() build it from a finalized
/// dataset, restore_from_artifact() from a materialized EYBART1 image —
/// one shape either way, so every accessor is valid on every epoch.
class ServingSnapshot {
 public:
  /// `analyses` in dataset order (entry i describes the i-th served AS).
  ServingSnapshot(std::uint64_t epoch, core::DatasetStats stats,
                  std::vector<core::AsAnalysis> analyses);

  /// 1 for the first published epoch, incremented per publish.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  /// Dataset-level stats of this epoch.
  [[nodiscard]] const core::DatasetStats& stats() const noexcept { return stats_; }
  /// Number of ASes served this epoch.
  [[nodiscard]] std::size_t as_count() const noexcept { return analyses_.size(); }
  /// ASN of the i-th served AS (dataset order).
  [[nodiscard]] net::Asn asn_at(std::size_t index) const noexcept {
    return analyses_[index].asn;
  }
  /// The i-th AS's analysis.
  [[nodiscard]] const core::AsAnalysis* analysis_at(std::size_t index) const noexcept {
    return &analyses_[index];
  }
  /// Every analysis, in dataset order.
  [[nodiscard]] std::span<const core::AsAnalysis> analyses() const noexcept {
    return analyses_;
  }
  /// O(log n) point lookup with TargetDataset::find's semantics (the first
  /// entry on duplicate ASNs); nullptr when the ASN is not served.
  [[nodiscard]] const core::AsAnalysis* find(net::Asn asn) const noexcept;

 private:
  std::uint64_t epoch_;
  core::DatasetStats stats_;
  std::vector<core::AsAnalysis> analyses_;
  /// Indices into analyses_, stably sorted by ASN.
  std::vector<std::uint32_t> by_asn_;
};

/// A point answer pinned to the epoch it came from: `analysis` points into
/// `snapshot`, which the shared_ptr keeps alive across any number of
/// concurrent publishes.
struct AnalysisRef {
  std::shared_ptr<const ServingSnapshot> snapshot;
  /// nullptr when the ASN is not served (or nothing is published yet).
  const core::AsAnalysis* analysis = nullptr;

  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return snapshot == nullptr ? 0 : snapshot->epoch();
  }
  [[nodiscard]] explicit operator bool() const noexcept { return analysis != nullptr; }
};

/// A batch answer: every entry comes from the SAME epoch (one atomic
/// snapshot load for the whole batch), so a batch can never straddle a
/// publish.  analyses[i] answers asns[i]; nullptr = not served.
struct BatchResult {
  std::shared_ptr<const ServingSnapshot> snapshot;
  std::vector<const core::AsAnalysis*> analyses;

  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return snapshot == nullptr ? 0 : snapshot->epoch();
  }
};

class EyeballService {
 public:
  /// The pipeline (and the databases/mapper/gazetteer behind it) must
  /// outlive the service.
  explicit EyeballService(const core::EyeballPipeline& pipeline, ServiceConfig config = {});

  // ---- Writer path (single thread) ----

  /// Feeds one crawl window into the builder.  Readers are unaffected until
  /// the next publish().
  void ingest(std::span<const p2p::PeerSample> window);

  /// Finalizes everything ingested so far, re-analyzes only the ASes
  /// touched since the previous publish (plus newcomers), and atomically
  /// publishes the result as the next epoch.  Returns the published
  /// snapshot — or nullptr when the exception firewall tripped: the typed
  /// failure is in last_publish_status(), health() reports ReadOnly, the
  /// previous epoch keeps serving, and the changed-ASN work list carries
  /// over so the next successful publish analyzes everything this one
  /// would have.
  ///
  /// With a configured snapshot_dir / artifact_path, also persists the
  /// builder state / emits the serving artifact under the supervised retry
  /// policy (failures are recorded in last_save_status() /
  /// last_artifact_status() and reflected by health(), never thrown —
  /// serving stays up when the disk misbehaves).
  std::shared_ptr<const ServingSnapshot> publish();

  /// Replaces the builder state with the newest loadable generation in
  /// `dir` (see StreamingDatasetBuilder::restore_snapshot) and publishes a
  /// fresh epoch analyzed from scratch.  When no generation loads, the
  /// service is untouched and the typed refusal is returned.  When the
  /// builder IS restored but its first publish trips the publish firewall,
  /// the builder stays restored, the typed kInternal failure is returned
  /// (and recorded in last_publish_status()), health() reports ReadOnly,
  /// the pre-restore epoch keeps serving, and the next successful publish()
  /// re-analyzes every AS.
  [[nodiscard]] util::Status restore(const std::string& dir,
                                     core::SnapshotRestoreInfo* info = nullptr);

  /// Publishes an epoch materialized from the EYBART1 image at `path`: mmap
  /// + envelope and checksum checks, then every AS record decoded once, in
  /// dataset order — no re-analysis.  The mapping is released before this
  /// returns; the epoch owns its analyses like any other.  Refuses (typed)
  /// an image whose config fingerprint differs from this pipeline's, that
  /// declares a grid larger than this pipeline's KDE cell budget, or that
  /// holds an analysis made at another KDE bandwidth (kConfigMismatch, file
  /// left in place), a damaged image (kCorruption, quarantined) and an
  /// unreadable format (kVersionMismatch); on any failure the service is
  /// untouched and the current epoch keeps serving.
  ///
  /// Scope: this restores SERVING state only.  The builder is not touched —
  /// the artifact stores the published epoch, not ingestion state; use
  /// restore() (snapshot) to continue ingesting where a writer left off.
  [[nodiscard]] util::Status restore_from_artifact(const std::string& path);

  /// Outcome of the most recent durability write; OK when snapshot_dir is
  /// empty or the last save succeeded.  Writer-thread only.
  [[nodiscard]] const util::Status& last_save_status() const noexcept {
    const util::SerialSection writer{writer_serial_};
    return last_save_status_;
  }

  /// Outcome of the most recent artifact emission; OK when artifact_path is
  /// empty or the last write succeeded.  Writer-thread only.
  [[nodiscard]] const util::Status& last_artifact_status() const noexcept {
    const util::SerialSection writer{writer_serial_};
    return last_artifact_status_;
  }

  /// Outcome of the most recent publish(): OK, or the typed kInternal
  /// failure the exception firewall produced.  Writer-thread only.
  [[nodiscard]] const util::Status& last_publish_status() const noexcept {
    const util::SerialSection writer{writer_serial_};
    return last_publish_status_;
  }

  /// Full per-attempt history of the most recent supervised snapshot save
  /// (every attempt's Status + the backoff slept before it).  Empty before
  /// the first save.  Writer-thread only.
  [[nodiscard]] const util::RetryResult& last_save_retry() const noexcept {
    const util::SerialSection writer{writer_serial_};
    return last_save_retry_;
  }

  /// Same history for the most recent supervised artifact emit.
  [[nodiscard]] const util::RetryResult& last_artifact_retry() const noexcept {
    const util::SerialSection writer{writer_serial_};
    return last_artifact_retry_;
  }

  /// The owned builder, for writer-side introspection (stats,
  /// windows_ingested).  Writer-thread only.
  [[nodiscard]] const core::StreamingDatasetBuilder& builder() const noexcept {
    const util::SerialSection writer{writer_serial_};
    return builder_;
  }

  // ---- Reader path (any thread, concurrent with the writer) ----

  /// The current epoch's snapshot, or nullptr before the first publish.
  /// Holding the returned shared_ptr pins that epoch: later publishes don't
  /// invalidate it.
  [[nodiscard]] std::shared_ptr<const ServingSnapshot> snapshot() const {
    return current_.load();
  }

  /// Epoch of the current snapshot; 0 before the first publish.
  [[nodiscard]] std::uint64_t epoch() const;

  /// Point query: the full analysis (classification, footprint, PoP list)
  /// of one ASN, pinned to a single epoch.
  [[nodiscard]] AnalysisRef query(net::Asn asn) const;

  /// Batch query: every answer from the same single epoch.
  [[nodiscard]] BatchResult query_batch(std::span<const net::Asn> asns) const;

  /// Dataset-level stats of the current epoch (copy, so the caller needs no
  /// lifetime care); nullopt before the first publish.
  struct StatsAnswer {
    std::uint64_t epoch = 0;
    core::DatasetStats stats;
  };
  [[nodiscard]] std::optional<StatsAnswer> stats() const;

  /// One coherent health observation (state machine: Healthy <->
  /// DegradedDurability <-> ReadOnly; see ServiceHealth).  Safe from any
  /// thread, concurrent with the writer.
  [[nodiscard]] HealthReport health() const { return health_.report(); }

 private:
  /// Finalize, analyze and swing the next epoch inside the publish
  /// exception firewall (shared by publish() and restore()), then — when
  /// `persist` — run the supervised durability writes.  Returns nullptr
  /// when the firewall tripped: the typed failure is in
  /// last_publish_status(), `changed` carries over and health() reports
  /// ReadOnly.
  std::shared_ptr<const ServingSnapshot> publish_from(std::vector<net::Asn> changed,
                                                      bool persist)
      EYEBALL_REQUIRES(writer_serial_);

  /// The configured filesystem/clock seams, defaulted to the real ones.
  [[nodiscard]] util::FileSystem& filesystem() const EYEBALL_REQUIRES(writer_serial_) {
    return config_.filesystem != nullptr ? *config_.filesystem
                                         : util::local_filesystem();
  }
  [[nodiscard]] util::Clock& clock() const EYEBALL_REQUIRES(writer_serial_) {
    return config_.clock != nullptr ? *config_.clock : util::monotonic_clock();
  }

  /// The "single writer" role from the concurrency contract above, made
  /// checkable: every writer-path entry point claims it with a
  /// SerialSection (a no-op at runtime), and all writer-side state is
  /// guarded by it — so a refactor that reaches builder state from the
  /// reader path fails the EYEBALL_THREAD_SAFETY build.  `mutable` because
  /// the role is also claimed by const writer-side accessors.
  mutable util::Serial writer_serial_;

  const core::EyeballPipeline& pipeline_;
  ServiceConfig config_ EYEBALL_GUARDED_BY(writer_serial_);
  core::StreamingDatasetBuilder builder_ EYEBALL_GUARDED_BY(writer_serial_);
  util::Status last_save_status_ EYEBALL_GUARDED_BY(writer_serial_);
  util::Status last_artifact_status_ EYEBALL_GUARDED_BY(writer_serial_);
  util::Status last_publish_status_ EYEBALL_GUARDED_BY(writer_serial_);
  util::RetryResult last_save_retry_ EYEBALL_GUARDED_BY(writer_serial_);
  util::RetryResult last_artifact_retry_ EYEBALL_GUARDED_BY(writer_serial_);
  /// Changed-ASN work list rescued from a firewalled publish: finalize()
  /// clears the builder's touched set before analysis can fail, so without
  /// this carry-over a publish AFTER a failed one would silently skip
  /// re-analyzing the ASes the failed publish was about to cover.  Merged
  /// into the next publish's work list, cleared on success.
  std::vector<net::Asn> carryover_changed_ EYEBALL_GUARDED_BY(writer_serial_);
  /// Epoch number of this writer's last own publish()/restore(); 0 = none
  /// (or invalidated by restore()).  publish() reuses the current epoch's
  /// analyses only when that epoch is this one — analyses restored from an
  /// artifact, or left over from before a restore, describe another
  /// builder's history, and reusing them would serve stale answers for
  /// every AS this builder did not touch.
  std::uint64_t own_epoch_ EYEBALL_GUARDED_BY(writer_serial_) = 0;
  /// The published epoch; see SnapshotCell for why this is not
  /// std::atomic<std::shared_ptr>.  Internally synchronized — safe from
  /// both paths, so deliberately NOT guarded by writer_serial_.
  detail::SnapshotCell current_;
  /// Internally synchronized (reader-path health() polls it live).
  detail::HealthTracker health_;
};

}  // namespace eyeball::serve
