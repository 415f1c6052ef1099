// Streaming §2 conditioning for longitudinal crawls.
//
// The paper's 89.1 M-unique-IP dataset is the union of six monthly crawl
// windows; a longitudinal study that re-runs DatasetBuilder::build per
// snapshot pays O(windows x full-rebuild) on the most input-heavy stage of
// the pipeline.  StreamingDatasetBuilder instead ingests windows as they
// arrive: each ingest() runs the sharded geo-map / error-filter / LPM stage
// for the NEW window only and merges its peers into the live ASN-ordered
// buckets; finalize() applies the per-AS filter whenever a conditioned
// snapshot is wanted, without consuming the live state.
//
// Equivalence contract (pinned by tests/streaming_dataset_test.cpp under
// the TSan gate): after any sequence of ingest() calls, finalize() is
// byte-identical — peers, per-AS peer order, stats, kept-AS list — to a
// one-shot build() over dedup_first_observation(concatenated windows), at
// any thread count and any window split.  Three properties carry it:
//   1. Cross-window (app, ip) dedup to the FIRST observation mirrors
//      longitudinal_crawl's union semantics, so the admitted stream is a
//      well-defined concatenation independent of batching.
//   2. Shards cover contiguous in-order ranges of each window and merge in
//      shard-then-window order, so every AS's peer vector is its admitted
//      samples in stream order (the one-shot ordered-merge invariant,
//      applied window by window).
//   3. The per-AS filter is a pure function of the merged buckets, so
//      running it at finalize() time equals running it after a one-shot
//      build — ingesting after finalize() and finalizing again just
//      re-evaluates it on the grown buckets (an AS crossing the min-peers
//      threshold at window k appears exactly from the k-th finalize on).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"

namespace eyeball::util {
class FileSystem;
}  // namespace eyeball::util

namespace eyeball::core {

class SnapshotCodec;
struct SnapshotRestoreInfo;

/// First-observation (app, ip) dedup of a window concatenation — exactly
/// the sample stream a StreamingDatasetBuilder admits; build() over the
/// result is the one-shot reference for a streaming run.
[[nodiscard]] std::vector<p2p::PeerSample> dedup_first_observation(
    std::span<const p2p::PeerSample> samples);

class StreamingDatasetBuilder {
 public:
  StreamingDatasetBuilder(const geodb::GeoDatabase& primary,
                          const geodb::GeoDatabase& secondary,
                          const bgp::IpToAsMapper& mapper, DatasetConfig config = {});

  /// Ingests one crawl window: dedups against every previously ingested
  /// window (first observation wins, including within the window itself),
  /// then conditions the admitted samples through the sharded stage-1 at
  /// DatasetConfig::threads and merges them into the live buckets in shard
  /// order.  Cost is proportional to the window, plus one sequential merge
  /// of the window's new keys into the ascending dedup list.
  void ingest(std::span<const p2p::PeerSample> window);
  /// Same with an explicit shard count (benchmark threads axis).
  void ingest(std::span<const p2p::PeerSample> window, std::size_t threads);

  /// Conditioned snapshot of everything ingested so far (§2 min-peers/p90
  /// filter).  Non-destructive: ingestion may continue afterwards and a
  /// later finalize() re-evaluates the filter on the grown buckets.  Also
  /// clears touched_asns().
  [[nodiscard]] TargetDataset finalize();
  /// Same with an explicit filter concurrency (benchmark threads axis).
  [[nodiscard]] TargetDataset finalize(std::size_t threads);

  /// ASNs whose buckets gained peers since the last finalize() (or ever,
  /// before the first), ascending — the incremental re-analysis work list
  /// (see EyeballPipeline::refresh_analyses).
  [[nodiscard]] std::vector<net::Asn> touched_asns() const;

  /// Windows ingested so far (== stats().windows.size()).
  [[nodiscard]] std::size_t windows_ingested() const noexcept {
    const util::SerialSection owner{serial_};
    return stats_.windows.size();
  }
  /// Cumulative stage-1 counters + per-window snapshots.  The stage-2
  /// (per-AS filter) counters are only present on finalize() results.
  [[nodiscard]] const DatasetStats& stats() const noexcept {
    const util::SerialSection owner{serial_};
    return stats_;
  }
  /// Unique (app, ip) samples admitted so far.
  [[nodiscard]] std::size_t unique_samples() const noexcept {
    const util::SerialSection owner{serial_};
    return seen_.size();
  }

  /// Always 0.  Conditioning calls both geo databases directly (no lookup
  /// cache); these two counters remain only because the repository
  /// benchmark (perfbench/) reads them for its `geodb.memo_hit_ratio`.
  [[nodiscard]] std::size_t memo_hits() const noexcept { return 0; }
  [[nodiscard]] std::size_t memo_misses() const noexcept { return 0; }

  /// Forgets every window: admitted samples, buckets, dedup keys and stats.
  /// The builder is then equivalent to a freshly constructed one.
  void reset();

  /// Persists the admitted sample stream and window trail to `dir` as the
  /// next snapshot generation, crash-safely (write-to-temp + fsync + atomic
  /// rename + directory sync; see core/snapshot.hpp for the format).  The
  /// two newest generations are retained — current plus a last-good
  /// fallback — older ones are pruned best-effort.  `generation` (optional)
  /// receives the generation number written.
  [[nodiscard]] util::Status save_snapshot(const std::string& dir);
  [[nodiscard]] util::Status save_snapshot(const std::string& dir, util::FileSystem& fs,
                                           std::uint64_t* generation = nullptr);

  /// Replaces this builder's state with the newest loadable generation in
  /// `dir`, replayed through this builder's databases.  Degrades
  /// gracefully: a corrupt, truncated, or version-skewed newest file is
  /// reported through the Status taxonomy internally and the previous
  /// generation is tried — the builder loads silently-wrong state under NO
  /// fault (the invariant the fault-injection harness pins).  Typed
  /// refusals: kConfigMismatch when the newest snapshot was written under a
  /// different result-affecting configuration, geo databases or RIB (no
  /// older generation is tried then: it was written under the same
  /// inputs), kNotFound when `dir` holds no snapshots.  On failure the
  /// builder is untouched.
  [[nodiscard]] util::Status restore_snapshot(const std::string& dir,
                                              SnapshotRestoreInfo* info = nullptr);
  [[nodiscard]] util::Status restore_snapshot(const std::string& dir, util::FileSystem& fs,
                                              SnapshotRestoreInfo* info = nullptr);

  /// Newest snapshot generation this builder has written or restored; 0
  /// before either.
  [[nodiscard]] std::uint64_t last_generation() const noexcept {
    const util::SerialSection owner{serial_};
    return last_generation_;
  }

 private:
  // The codec serializes/deserializes the complete private state.  Its
  // encode/decode definitions carry EYEBALL_NO_THREAD_SAFETY_ANALYSIS: the
  // caller (save/restore below, or a test that owns the builder outright)
  // holds `serial_` by contract, and friendship doesn't extend the
  // capability analysis across classes.
  friend class SnapshotCodec;

  /// The "single owner at a time" role from the equivalence contract: all
  /// mutable state below is guarded by it, every public method claims it
  /// for its duration (free — acquire/release are no-ops the optimizer
  /// deletes), and the `_locked` helpers require it.  Under
  /// EYEBALL_THREAD_SAFETY this turns "ingest state is single-writer" from
  /// a doc comment into a build error: no code path can reach the buckets
  /// or the dedup keys without visibly holding the role.  `mutable`
  /// because const readers (stats, counters) claim it too.
  mutable util::Serial serial_;

  const geodb::GeoDatabase& primary_;
  const geodb::GeoDatabase& secondary_;
  // mapper_/config_ are fixed at construction and only read afterwards
  // (including from inside shard lambdas), so they carry no capability.
  bgp::IpToAsMapper mapper_;
  DatasetConfig config_;

  /// Every admitted sample in admission order: window k's samples are the
  /// stats_.windows[k].admitted entries after those of windows 0..k-1.
  /// Everything below it is derived from it (and the databases), so it and
  /// the window trail are all a snapshot stores.
  std::vector<p2p::PeerSample> admitted_ EYEBALL_GUARDED_BY(serial_);
  /// Live buckets, ASN-ascending; grown by ingest, read by finalize.
  std::vector<AsPeerSet> by_as_ EYEBALL_GUARDED_BY(serial_);
  /// Exact (app, ip) keys admitted so far (app in the high bits — no
  /// collisions, unlike a mixed hash), strictly ascending.
  std::vector<std::uint64_t> seen_ EYEBALL_GUARDED_BY(serial_);
  /// Cumulative stage-1 counters + per-window snapshots.
  DatasetStats stats_ EYEBALL_GUARDED_BY(serial_);
  /// ASNs touched by ingests since the last finalize(), strictly ascending.
  std::vector<net::Asn> touched_ EYEBALL_GUARDED_BY(serial_);

  /// Newest snapshot generation written or restored (see last_generation()).
  std::uint64_t last_generation_ EYEBALL_GUARDED_BY(serial_) = 0;

  // Bodies of the public entry points, factored out so the delegating
  // overload pairs (ingest, finalize, save/restore) claim `serial_` exactly
  // once — re-claiming a held capability is itself a thread-safety error.
  void ingest_locked(std::span<const p2p::PeerSample> window, std::size_t threads)
      EYEBALL_REQUIRES(serial_);
  [[nodiscard]] TargetDataset finalize_locked(std::size_t threads)
      EYEBALL_REQUIRES(serial_);
  [[nodiscard]] util::Status save_snapshot_locked(const std::string& dir,
                                                  util::FileSystem& fs,
                                                  std::uint64_t* generation)
      EYEBALL_REQUIRES(serial_);
  [[nodiscard]] util::Status restore_snapshot_locked(const std::string& dir,
                                                     util::FileSystem& fs,
                                                     SnapshotRestoreInfo* info)
      EYEBALL_REQUIRES(serial_);
};

}  // namespace eyeball::core
