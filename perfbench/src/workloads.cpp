#include "workloads.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/artifact.hpp"
#include "core/snapshot.hpp"
#include "core/streaming_dataset.hpp"
#include "fs.hpp"
#include "reader.hpp"
#include "serve/service.hpp"
#include "trace.hpp"
#include "util/file.hpp"

namespace perfbench {

namespace {

using eyeball::core::AsAnalysis;
using eyeball::net::Asn;
using eyeball::serve::EyeballService;
using eyeball::serve::ServingSnapshot;

// ---- small helpers ---------------------------------------------------------

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

/// Hands freed heap back to the system, so each set-up and each backfill
/// cycle starts from the same heap as a fresh process would.
void release_heap() { static_cast<void>(malloc_trim(0)); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string count_note(const char* what, std::uint64_t attempted, std::uint64_t failed) {
  return std::string{"{\""} + what + "\": {\"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + "}}";
}

std::vector<Window> concat(std::span<const Window> a, std::span<const Window> b) {
  std::vector<Window> out{a.begin(), a.end()};
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

// ---- persistence target ----------------------------------------------------

/// The filesystem one service persists through: process memory, or a fresh
/// directory under --persist-dir.  Always wrapped in a CountingFileSystem.
class Store {
 public:
  Store(const Options& options, const std::string& name)
      : memory_(options.persist_dir.empty() ? std::make_unique<MemoryFileSystem>() : nullptr),
        counting_(memory_ != nullptr ? static_cast<eyeball::util::FileSystem&>(*memory_)
                                     : eyeball::util::local_filesystem()) {
    const std::string root =
        options.persist_dir.empty() ? "/memory" : options.persist_dir + "/" + name;
    if (memory_ == nullptr) {
      std::filesystem::remove_all(root);
      std::filesystem::create_directories(root);
    }
    snapshot_dir = root + "/snapshots";
    artifact_path = root + "/epoch.eybart";
  }

  [[nodiscard]] CountingFileSystem& fs() noexcept { return counting_; }

  [[nodiscard]] std::vector<std::byte> read(const std::string& path) {
    std::vector<std::byte> bytes;
    const eyeball::util::Status status = counting_.read_file(path, bytes);
    if (!status.ok()) throw std::runtime_error("read " + path + ": " + status.to_string());
    return bytes;
  }

  [[nodiscard]] eyeball::serve::ServiceConfig writer_config(std::size_t threads) {
    eyeball::serve::ServiceConfig config;
    config.threads = threads;
    config.snapshot_dir = snapshot_dir;
    config.artifact_path = artifact_path;
    config.filesystem = &counting_;
    return config;
  }

  std::string snapshot_dir;
  std::string artifact_path;

 private:
  std::unique_ptr<MemoryFileSystem> memory_;
  CountingFileSystem counting_;
};

// ---- writer through the service --------------------------------------------

struct WindowRecord {
  double seconds = 0.0;
  double publish_s = 0.0;
  std::size_t offered = 0;
  std::uint64_t bytes = 0;
  std::int64_t publish_start_ns = 0;
  std::int64_t publish_end_ns = 0;
  bool ok = false;
};

/// One window: ingest each of `ingests`, then publish with persistence.
WindowRecord publish_window(EyeballService& service, std::span<const Window> ingests,
                            const CountingFileSystem& fs) {
  WindowRecord record;
  const std::uint64_t bytes_before = fs.counters().bytes;
  const std::int64_t start = now_ns();
  for (const Window& window : ingests) {
    service.ingest(window);
    record.offered += window.size();
  }
  record.publish_start_ns = now_ns();
  const std::shared_ptr<const ServingSnapshot> snapshot = service.publish();
  record.publish_end_ns = now_ns();
  record.seconds = static_cast<double>(record.publish_end_ns - start) * 1e-9;
  record.publish_s =
      static_cast<double>(record.publish_end_ns - record.publish_start_ns) * 1e-9;
  record.bytes = fs.counters().bytes - bytes_before;
  record.ok = snapshot != nullptr && service.last_publish_status().ok() &&
              service.last_save_status().ok() && service.last_artifact_status().ok();
  return record;
}

/// The reader's thread, pinned to Threads::reader_cpu.  `body` gets a stop
/// flag that finish() raises; finish() (or, on an exception path, the
/// destructor) joins the thread.
class ReaderThread {
 public:
  template <class Body>
  ReaderThread(const Threads& threads, Body body)
      : thread_([this, cpu = threads.reader_cpu, body = std::move(body)] {
          cpu_set_t set;
          CPU_ZERO(&set);
          CPU_SET(cpu, &set);
          // Best effort: an unpinned reader still measures, only less steadily.
          static_cast<void>(sched_setaffinity(0, sizeof(set), &set));
          result_ = body(stop_);
        }) {}
  ReaderThread(const ReaderThread&) = delete;
  ReaderThread& operator=(const ReaderThread&) = delete;
  ~ReaderThread() { join(); }

  ReadStats finish() {
    join();
    return std::move(result_);
  }

 private:
  void join() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  std::atomic<bool> stop_{false};
  ReadStats result_;
  std::thread thread_;  // last: starts after the members it uses exist
};

/// What a workload's measured phase produced.
struct Run {
  std::vector<WindowRecord> windows;
  ReadStats reads;
  /// Every window the service ingested, and its last epoch's artifact.
  std::vector<Window> ingested;
  std::uint64_t epoch = 0;
  std::vector<std::byte> artifact;
  /// backfill: per-cycle replica open and first-touch thaw times, and
  /// whether every replica served exactly the expected ASes.
  std::vector<double> open_s;
  std::vector<double> thaw_s;
  bool served_ok = true;
};

// ---- set-up ----------------------------------------------------------------

struct Setup {
  std::unique_ptr<World> world;
  Inputs inputs;
  std::unique_ptr<Store> store;
  /// trickle: the preloaded writer, its re-crawl windows, and the
  /// six-month window it published during set-up.
  std::unique_ptr<EyeballService> service;
  std::vector<Window> trickle;
  WindowRecord preload;
  bool ok = true;
};

/// First touch of every AS of the current epoch; returns seconds.
double thaw_all(const EyeballService& service) {
  const std::shared_ptr<const ServingSnapshot> snapshot = service.snapshot();
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < snapshot->as_count(); ++i) {
    static_cast<void>(snapshot->analysis_at(i));
  }
  return seconds_since(start);
}

std::unique_ptr<Setup> set_up(const Options& options, const Threads& threads) {
  auto setup = std::make_unique<Setup>();
  setup->world = std::make_unique<World>(options.profile, threads.writer);
  setup->inputs = make_inputs(*setup->world, options.profile, options.seed);
  if (options.workload == "backfill") return setup;

  setup->store = std::make_unique<Store>(options, options.workload);
  setup->service = std::make_unique<EyeballService>(
      setup->world->pipeline, setup->store->writer_config(threads.writer));
  setup->preload = publish_window(*setup->service, setup->inputs.months, setup->store->fs());
  setup->ok = setup->preload.ok;
  setup->trickle = make_trickle_windows(*setup->world, options.profile, setup->inputs,
                                        options.seed, 0, options.profile.trickle_batch);
  return setup;
}

// ---- measured phases -------------------------------------------------------

/// Sorted ASNs the snapshot serves.
std::vector<Asn> served_asns(const ServingSnapshot& snapshot) {
  std::vector<Asn> out;
  for (std::size_t i = 0; i < snapshot.as_count(); ++i) out.push_back(snapshot.asn_at(i));
  std::sort(out.begin(), out.end());
  return out;
}

/// Cycles of: a cold service publishes the six months window by window;
/// a replica opens the last artifact, thaws every AS, and one reader
/// probes it.  Another cycle starts while at least half of one still fits
/// in `seconds`, so runs of one length measure the same number of cycles.
Run run_backfill(const Setup& setup, const Options& options, const Threads& threads,
                 double seconds) {
  Run run;
  const std::int64_t start = now_ns();
  std::size_t cycle = 0;
  do {
    release_heap();
    Store store{options, "backfill-cycle"};
    {
      EyeballService writer{setup.world->pipeline, store.writer_config(threads.writer)};
      for (const Window& month : setup.inputs.months) {
        run.windows.push_back(publish_window(writer, {&month, 1}, store.fs()));
      }
      run.epoch = writer.epoch();
    }
    run.artifact = store.read(store.artifact_path);

    eyeball::serve::ServiceConfig config;
    config.filesystem = &store.fs();
    EyeballService replica{setup.world->pipeline, config};
    const std::int64_t open_start = now_ns();
    const eyeball::util::Status status = replica.restore_from_artifact(store.artifact_path);
    run.open_s.push_back(seconds_since(open_start));
    if (!status.ok()) {
      std::fprintf(stderr, "replica restore failed: %s\n", status.to_string().c_str());
      run.served_ok = false;
      break;
    }
    run.thaw_s.push_back(thaw_all(replica));
    run.served_ok &= served_asns(*replica.snapshot()) == setup.inputs.served;
    // Each cycle's probe starts further along the stream.
    const std::size_t offset = cycle * options.profile.probe_queries * 2;
    ReaderThread probe{threads, [&](const std::atomic<bool>&) {
                         return run_reader(replica, setup.inputs.stream, offset, nullptr,
                                           options.profile.probe_queries);
                       }};
    run.reads.append(probe.finish());
    ++cycle;
  } while (seconds_since(start) * (1.0 + 0.5 / static_cast<double>(cycle)) < seconds);
  run.ingested = setup.inputs.months;
  return run;
}

Run run_trickle(Setup& setup, const Options& options, const Threads& threads,
                std::size_t& next_window, double seconds) {
  Run run;
  ReaderThread reader{threads, [&](const std::atomic<bool>& stop) {
                        return run_reader(*setup.service, setup.inputs.stream, 0, &stop, 0);
                      }};
  const std::int64_t start = now_ns();
  while (seconds_since(start) < seconds) {
    if (next_window == setup.trickle.size()) {
      std::vector<Window> more =
          make_trickle_windows(*setup.world, options.profile, setup.inputs, options.seed,
                               setup.trickle.size(), options.profile.trickle_batch);
      std::move(more.begin(), more.end(), std::back_inserter(setup.trickle));
    }
    run.windows.push_back(publish_window(*setup.service, {&setup.trickle[next_window], 1},
                                         setup.store->fs()));
    ++next_window;
  }
  run.reads = reader.finish();
  run.epoch = setup.service->epoch();
  run.artifact = setup.store->read(setup.store->artifact_path);
  run.ingested = concat(setup.inputs.months,
                        std::span<const Window>{setup.trickle.data(), next_window});
  return run;
}

// ---- correctness gate ------------------------------------------------------

/// (app, ip) as one integer, the identity dedup works on.
std::uint64_t sample_key(const eyeball::p2p::PeerSample& sample) {
  return (static_cast<std::uint64_t>(sample.app) << 32) | sample.ip.value();
}

/// The per-window trail a streaming build records (offered, duplicates,
/// admitted, rejected, cumulative unique), derived from the windows alone.
/// A sample passes the admission door iff its key survives
/// dedup_first_observation of its own window.
std::vector<eyeball::core::WindowStats> window_trail(std::span<const Window> windows) {
  std::vector<eyeball::core::WindowStats> trail;
  std::unordered_set<std::uint64_t> seen;
  for (const Window& window : windows) {
    std::unordered_set<std::uint64_t> admissible;
    for (const auto& sample : eyeball::core::dedup_first_observation(window)) {
      admissible.insert(sample_key(sample));
    }
    eyeball::core::WindowStats stats;
    stats.offered = window.size();
    for (const auto& sample : window) {
      const std::uint64_t key = sample_key(sample);
      if (!admissible.contains(key)) {
        ++stats.rejected;
      } else if (!seen.insert(key).second) {
        ++stats.duplicates;
      } else {
        ++stats.admitted;
      }
    }
    stats.cumulative_unique = seen.size();
    trail.push_back(stats);
  }
  return trail;
}

/// The one-shot reference: conditioning over the deduplicated concatenation
/// of every window, analyze_all, encoded at `epoch` with the same
/// fingerprint the service writes.  Its stats carry the windows' trail,
/// which the artifact records and a one-shot build has no way to know.
std::vector<std::byte> reference_artifact(const World& world,
                                          std::span<const Window> windows,
                                          std::uint64_t epoch) {
  Window all;
  for (const Window& window : windows) all.insert(all.end(), window.begin(), window.end());
  const eyeball::core::TargetDataset one_shot =
      world.pipeline.build_dataset(eyeball::core::dedup_first_observation(all));
  eyeball::core::DatasetStats stats = one_shot.stats();
  stats.windows = window_trail(windows);
  for (const auto& window : stats.windows) stats.rejected_samples += window.rejected;
  const eyeball::core::TargetDataset dataset{
      {one_shot.ases().begin(), one_shot.ases().end()}, std::move(stats)};
  const std::vector<AsAnalysis> analyses = world.pipeline.analyze_all(dataset.ases());
  std::vector<std::byte> bytes;
  const eyeball::util::Status status = eyeball::core::ArtifactCodec::encode(
      dataset, analyses, epoch,
      eyeball::core::SnapshotCodec::config_fingerprint(world.pipeline.config().dataset),
      bytes);
  if (!status.ok()) throw std::runtime_error("reference encode: " + status.to_string());
  return bytes;
}

/// Compares `artifact` with the reference; appends a verdict to `notes`.
bool gate(const World& world, std::span<const Window> windows, std::uint64_t epoch,
          const std::vector<std::byte>& artifact, bool perturb, const char* what,
          std::vector<std::string>& notes) {
  std::vector<std::byte> reference = reference_artifact(world, windows, epoch);
  if (perturb && !reference.empty()) reference[reference.size() / 2] ^= std::byte{0x01};
  const bool match = reference == artifact;
  notes.push_back(std::string{"{\"gate\": {\"check\": \""} + what + "\", \"epoch\": " +
                  std::to_string(epoch) + ", \"bytes\": " + std::to_string(artifact.size()) +
                  ", \"match\": " + (match ? "true" : "false") + "}}");
  return match;
}

// ---- traced replay of publish() --------------------------------------------

struct StageRecord {
  double window_s = 0.0;
  double ingest_s = 0.0;
  double touched_s = 0.0;
  double finalize_s = 0.0;
  double analyze_s = 0.0;
  double snapshot_encode_s = 0.0;
  double snapshot_write_s = 0.0;
  double artifact_encode_s = 0.0;
  double artifact_write_s = 0.0;
  double retire_s = 0.0;
  double offered = 0.0;
  double admitted = 0.0;
  double duplicates = 0.0;
  double finalize_peers = 0.0;
  double changed = 0.0;
  double served = 0.0;
  double kde_cells = 0.0;
  double kde_nonzero = 0.0;
  double snapshot_bytes = 0.0;
  double artifact_bytes = 0.0;
  double memo_hits = 0.0;
  double memo_lookups = 0.0;
  FileCounters file;
  bool ok = true;

  [[nodiscard]] double stage_sum() const {
    return ingest_s + touched_s + finalize_s + analyze_s + snapshot_encode_s +
           snapshot_write_s + artifact_encode_s + artifact_write_s + retire_s;
  }
};

/// Replays the writer through the calls publish() makes, in its order:
/// touched_asns, finalize, refresh_analyses, snapshot encode + durable
/// write, artifact encode + durable write, then retiring the old epoch.
class Replay {
 public:
  Replay(const World& world, std::size_t threads, Store& store)
      : world_(world),
        threads_(threads),
        store_(store),
        builder_(world.pipeline.streaming_builder()),
        fingerprint_(eyeball::core::SnapshotCodec::config_fingerprint(
            world.pipeline.config().dataset)) {}

  StageRecord window(std::span<const Window> ingests, Tracer& tracer, std::uint32_t id) {
    StageRecord record;
    const FileCounters files_before = store_.fs().counters();
    const std::size_t hits_before = builder_.memo_hits();
    const std::size_t misses_before = builder_.memo_misses();
    std::vector<Asn> previous_asns;
    std::span<const AsAnalysis> previous;
    if (current_ != nullptr) {
      for (const auto& as : current_->dataset.ases()) previous_asns.push_back(as.asn);
      std::sort(previous_asns.begin(), previous_asns.end());
      previous = current_->analyses;
    }

    const std::int32_t root = tracer.open("window", id);
    for (const Window& window : ingests) {
      span(tracer, "core.ingest", id, record.ingest_s, [&] { builder_.ingest(window); });
    }
    std::vector<Asn> changed;
    span(tracer, "core.touched", id, record.touched_s,
         [&] { changed = builder_.touched_asns(); });
    std::optional<eyeball::core::TargetDataset> dataset;
    span(tracer, "core.finalize", id, record.finalize_s,
         [&] { dataset.emplace(builder_.finalize(threads_)); });
    std::vector<AsAnalysis> analyses;
    span(tracer, "core.analyze", id, record.analyze_s, [&] {
      analyses = world_.pipeline.refresh_analyses(*dataset, previous, changed);
    });
    ++epoch_;
    std::vector<std::byte> snapshot;
    span(tracer, "core.snapshot_encode", id, record.snapshot_encode_s,
         [&] { snapshot = eyeball::core::SnapshotCodec::encode(builder_, epoch_); });
    eyeball::util::Status snapshot_status;
    span(tracer, "core.snapshot_write", id, record.snapshot_write_s, [&] {
      snapshot_status = eyeball::util::atomic_write_file(
          store_.fs(), store_.snapshot_dir + "/replay.eybsnap", snapshot);
    });
    std::vector<std::byte> artifact;
    eyeball::util::Status encode_status;
    span(tracer, "core.artifact_encode", id, record.artifact_encode_s, [&] {
      encode_status = eyeball::core::ArtifactCodec::encode(*dataset, analyses, epoch_,
                                                           fingerprint_, artifact);
    });
    eyeball::util::Status artifact_status;
    span(tracer, "core.artifact_write", id, record.artifact_write_s, [&] {
      artifact_status =
          eyeball::util::atomic_write_file(store_.fs(), store_.artifact_path, artifact);
    });
    span(tracer, "core.epoch_retire", id, record.retire_s, [&] {
      current_ = std::make_unique<Epoch>(Epoch{std::move(*dataset), std::move(analyses)});
    });
    tracer.close();
    record.window_s = tracer.seconds(root);

    // Counts, taken outside the spans.
    record.ok = snapshot_status.ok() && encode_status.ok() && artifact_status.ok();
    const auto& stats = builder_.stats().windows;
    for (std::size_t i = stats.size() - ingests.size(); i < stats.size(); ++i) {
      record.offered += static_cast<double>(stats[i].offered);
      record.admitted += static_cast<double>(stats[i].admitted);
      record.duplicates += static_cast<double>(stats[i].duplicates);
    }
    const auto ases = current_->dataset.ases();
    record.served = static_cast<double>(ases.size());
    for (std::size_t i = 0; i < ases.size(); ++i) {
      record.finalize_peers += static_cast<double>(ases[i].peers.size());
      const bool reanalyzed =
          std::binary_search(changed.begin(), changed.end(), ases[i].asn) ||
          !std::binary_search(previous_asns.begin(), previous_asns.end(), ases[i].asn);
      if (!reanalyzed) continue;
      record.changed += 1.0;
      const auto& grid = current_->analyses[i].footprint.grid;
      record.kde_cells += static_cast<double>(grid.cell_count());
      record.kde_nonzero += static_cast<double>(std::count_if(
          grid.values().begin(), grid.values().end(), [](double v) { return v != 0.0; }));
    }
    record.snapshot_bytes = static_cast<double>(snapshot.size());
    record.artifact_bytes = static_cast<double>(artifact.size());
    record.memo_hits = static_cast<double>(builder_.memo_hits() - hits_before);
    record.memo_lookups = record.memo_hits + static_cast<double>(builder_.memo_misses() -
                                                                 misses_before);
    record.file = store_.fs().counters().since(files_before);
    return record;
  }

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  struct Epoch {
    eyeball::core::TargetDataset dataset;
    std::vector<AsAnalysis> analyses;
  };

  const World& world_;
  std::size_t threads_;
  Store& store_;
  eyeball::core::StreamingDatasetBuilder builder_;
  std::uint64_t fingerprint_;
  std::unique_ptr<Epoch> current_;
  std::uint64_t epoch_ = 0;
};

// ---- metrics ---------------------------------------------------------------

struct Tally {
  std::uint64_t windows = 0;
  std::uint64_t windows_failed = 0;

  void add(const std::vector<WindowRecord>& records) {
    for (const WindowRecord& record : records) {
      ++windows;
      if (!record.ok) ++windows_failed;
    }
  }
};

std::uint64_t stalls_in_publish(const ReadStats& reads,
                                const std::vector<WindowRecord>& windows) {
  std::uint64_t count = 0;
  for (const auto& [start, end] : reads.stalls) {
    for (const WindowRecord& window : windows) {
      if (start < window.publish_end_ns && end > window.publish_start_ns) {
        ++count;
        break;
      }
    }
  }
  return count;
}

void finish_counts(Outcome& outcome, const Tally& tally, const ReadStats& reads) {
  outcome.attempted = tally.windows + reads.point_queries + reads.batch_queries;
  outcome.failed = tally.windows_failed + reads.point_failed + reads.batch_failed;
  outcome.notes.push_back(count_note("publish", tally.windows, tally.windows_failed));
  outcome.notes.push_back(count_note("point_query", reads.point_queries, reads.point_failed));
  outcome.notes.push_back(count_note("batch_query", reads.batch_queries, reads.batch_failed));
  if (outcome.failed != 0) outcome.correct = false;
}

void end_to_end_metrics(Outcome& outcome, const std::vector<double>& setup_s,
                        const std::vector<WindowRecord>& windows, const ReadStats& reads) {
  double offered = 0.0;
  double writer_s = 0.0;
  double bytes = 0.0;
  std::vector<double> window_s;
  for (const WindowRecord& window : windows) {
    offered += static_cast<double>(window.offered);
    writer_s += window.seconds;
    bytes += static_cast<double>(window.bytes);
    window_s.push_back(window.seconds);
  }
  const auto n = static_cast<double>(windows.size());
  outcome.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"publish_samples_per_s", offered / writer_s, "samples/s"},
      {"window_p50_s", median(window_s), "s"},
      {"persist_mb_per_window", bytes / n / 1e6, "MB"},
      {"point_p50_ns", sliced_quantile(reads.point_slices, 0.50), "ns"},
      {"point_p90_ns", sliced_quantile(reads.point_slices, 0.90), "ns"},
      {"batch_p50_ns", sliced_quantile(reads.batch_slices, 0.50), "ns"},
      {"batch_p90_ns", sliced_quantile(reads.batch_slices, 0.90), "ns"},
      {"queries_per_s", reads.queries_per_s, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

template <class Field>
double median_of(const std::vector<StageRecord>& records, Field field) {
  std::vector<double> values;
  for (const StageRecord& record : records) values.push_back(field(record));
  return median(values);
}

void per_layer_metrics(Outcome& outcome, const std::vector<StageRecord>& records,
                       const std::vector<WindowRecord>& untraced, const ReadStats& reads,
                       std::uint64_t in_publish, double open_s, double thaw_s,
                       std::size_t span_count) {
  double hits = 0.0;
  double lookups = 0.0;
  double cells = 0.0;
  double nonzero = 0.0;
  for (const StageRecord& record : records) {
    hits += record.memo_hits;
    lookups += record.memo_lookups;
    cells += record.kde_cells;
    nonzero += record.kde_nonzero;
  }
  std::vector<double> untraced_s;
  std::vector<double> publish_s;
  for (const WindowRecord& window : untraced) {
    untraced_s.push_back(window.seconds);
    publish_s.push_back(window.publish_s);
  }
  const double traced_s = median_of(records, [](const auto& r) { return r.window_s; });
  const auto m = [&](auto field) { return median_of(records, field); };
  outcome.metrics = {
      {"core.ingest_s", m([](const auto& r) { return r.ingest_s; }), "s"},
      {"core.ingest_offered", m([](const auto& r) { return r.offered; }), "count"},
      {"core.ingest_admitted", m([](const auto& r) { return r.admitted; }), "count"},
      {"core.ingest_duplicates", m([](const auto& r) { return r.duplicates; }), "count"},
      {"geodb.memo_hit_ratio", lookups == 0.0 ? 0.0 : hits / lookups, "ratio"},
      {"core.touched_s", m([](const auto& r) { return r.touched_s; }), "s"},
      {"core.finalize_s", m([](const auto& r) { return r.finalize_s; }), "s"},
      {"core.finalize_peers", m([](const auto& r) { return r.finalize_peers; }), "count"},
      {"core.analyze_s", m([](const auto& r) { return r.analyze_s; }), "s"},
      {"core.analyze_changed", m([](const auto& r) { return r.changed; }), "count"},
      {"core.analyze_served", m([](const auto& r) { return r.served; }), "count"},
      {"kde.cells", m([](const auto& r) { return r.kde_cells; }), "count"},
      {"kde.nonzero_ratio", cells == 0.0 ? 0.0 : nonzero / cells, "ratio"},
      {"core.snapshot_encode_s", m([](const auto& r) { return r.snapshot_encode_s; }), "s"},
      {"core.snapshot_bytes", m([](const auto& r) { return r.snapshot_bytes; }), "bytes"},
      {"core.snapshot_write_s", m([](const auto& r) { return r.snapshot_write_s; }), "s"},
      {"core.artifact_encode_s", m([](const auto& r) { return r.artifact_encode_s; }), "s"},
      {"core.artifact_bytes", m([](const auto& r) { return r.artifact_bytes; }), "bytes"},
      {"core.artifact_write_s", m([](const auto& r) { return r.artifact_write_s; }), "s"},
      {"core.epoch_retire_s", m([](const auto& r) { return r.retire_s; }), "s"},
      {"core.artifact_open_s", open_s, "s"},
      {"util.file_append_s", m([](const auto& r) { return r.file.append_s; }), "s"},
      {"util.file_sync_s", m([](const auto& r) { return r.file.sync_s; }), "s"},
      {"util.file_syncs",
       m([](const auto& r) { return static_cast<double>(r.file.syncs); }), "count"},
      {"util.file_bytes",
       m([](const auto& r) { return static_cast<double>(r.file.bytes); }), "bytes"},
      {"serve.publish_s", median(publish_s), "s"},
      {"serve.thaw_s", thaw_s, "s"},
      {"serve.point_p99_ns", sliced_quantile(reads.point_slices, 0.99), "ns"},
      {"serve.batch_p99_ns", sliced_quantile(reads.batch_slices, 0.99), "ns"},
      {"serve.point_p999_ns", pooled_quantile(reads.point_slices, 0.999), "ns"},
      {"serve.stalls", static_cast<double>(reads.stalls.size()), "count"},
      {"serve.stalls_in_publish", static_cast<double>(in_publish), "count"},
      {"serve.miss_ratio",
       reads.asked == 0 ? 0.0
                        : static_cast<double>(reads.unanswered) /
                              static_cast<double>(reads.asked),
       "ratio"},
      {"trace.window_s", traced_s, "s"},
      {"trace.overhead_s", traced_s - median(untraced_s), "s"},
      {"trace.unattributed_s",
       m([](const auto& r) { return r.window_s - r.stage_sum(); }), "s"},
      {"trace.spans", static_cast<double>(span_count), "count"},
  };
  outcome.notes.push_back(
      "{\"miss_share\": {\"generated\": " +
      std::to_string(reads.asked == 0 ? 0.0
                                       : static_cast<double>(reads.asked_misses) /
                                             static_cast<double>(reads.asked)) +
      "}}");
}

// ---- the two kinds of run --------------------------------------------------

/// The measured phase shared by both kinds of run.
Run run_phase(Setup& setup, const Options& options, const Threads& threads,
              std::size_t& next_window, double seconds) {
  return options.workload == "backfill"
             ? run_backfill(setup, options, threads, seconds)
             : run_trickle(setup, options, threads, next_window, seconds);
}

/// Outside every measured region: the last epoch's artifact against its
/// one-shot reference, and on backfill the replicas' served sets.
void check_run(const Run& run, const Setup& setup, const Options& options,
               Outcome& outcome) {
  if (options.workload == "backfill") {
    outcome.notes.push_back(std::string{"{\"gate\": {\"check\": \"replica served set\", "
                                        "\"ases\": "} +
                            std::to_string(setup.inputs.served.size()) +
                            ", \"match\": " + (run.served_ok ? "true" : "false") + "}}");
    if (!run.served_ok) outcome.correct = false;
  }
  if (!gate(*setup.world, run.ingested, run.epoch, run.artifact, options.perturb_reference,
            "last epoch artifact", outcome.notes)) {
    outcome.correct = false;
  }
}

Outcome untraced(const Options& options, const Threads& threads) {
  Outcome outcome;
  std::vector<double> setup_s;
  Tally tally;
  std::unique_ptr<Setup> setup;
  for (std::size_t i = 0; i < options.profile.setup_repeats; ++i) {
    setup.reset();
    release_heap();
    const std::int64_t start = now_ns();
    setup = set_up(options, threads);
    setup_s.push_back(seconds_since(start));
    if (!setup->ok) outcome.correct = false;
    if (options.workload == "trickle") tally.add({setup->preload});
  }

  std::size_t next_window = 0;
  Run run = run_phase(*setup, options, threads, next_window, options.seconds);
  tally.add(run.windows);
  end_to_end_metrics(outcome, setup_s, run.windows, run.reads);
  check_run(run, *setup, options, outcome);
  finish_counts(outcome, tally, run.reads);
  return outcome;
}

Outcome traced(const Options& options, const Threads& threads) {
  Outcome outcome;
  const double half = options.seconds / 2.0;
  std::unique_ptr<Setup> setup = set_up(options, threads);
  if (!setup->ok) outcome.correct = false;
  const World& world = *setup->world;

  // Phase A: the untraced service, for the serve-side metrics and the
  // window time the tracing overhead is measured against.
  Tally tally;
  std::size_t next_window = 0;
  Run run = run_phase(*setup, options, threads, next_window, half);
  tally.add(run.windows);
  const std::uint64_t in_publish = stalls_in_publish(run.reads, run.windows);

  // Phase B: the traced replay of the same writer, over the same windows.
  Tracer tracer;
  std::vector<StageRecord> records;
  std::uint32_t id = 0;
  const std::int64_t start = now_ns();
  std::unique_ptr<Store> store;
  std::unique_ptr<Replay> replay;
  std::vector<Window> replayed = setup->inputs.months;
  if (options.workload == "trickle") {
    store = std::make_unique<Store>(options, "replay");
    replay = std::make_unique<Replay>(world, threads.writer, *store);
    static_cast<void>(replay->window(setup->inputs.months, tracer, id++));
    // Phase A's writer shared the machine with a reader; so does the replay.
    ReaderThread background{threads, [&](const std::atomic<bool>& stop) {
                              return run_reader(*setup->service, setup->inputs.stream, 0,
                                                &stop, 0);
                            }};
    for (std::size_t i = 0; seconds_since(start) < half || i == 0; ++i) {
      if (i == setup->trickle.size()) {
        std::vector<Window> more =
            make_trickle_windows(world, options.profile, setup->inputs, options.seed,
                                 setup->trickle.size(), options.profile.trickle_batch);
        std::move(more.begin(), more.end(), std::back_inserter(setup->trickle));
      }
      records.push_back(replay->window({&setup->trickle[i], 1}, tracer, id++));
      replayed.push_back(setup->trickle[i]);
    }
  } else {
    do {
      replay.reset();
      store = std::make_unique<Store>(options, "replay");
      replay = std::make_unique<Replay>(world, threads.writer, *store);
      for (const Window& month : setup->inputs.months) {
        records.push_back(replay->window({&month, 1}, tracer, id++));
      }
    } while (seconds_since(start) < half);
  }
  for (const StageRecord& record : records) {
    ++tally.windows;
    if (!record.ok) ++tally.windows_failed;
  }

  // Artifact open and first-touch thaw: backfill's replicas measured them
  // each cycle; on trickle a replica opens the replay's last artifact.
  double open_s = median(run.open_s);
  double thaw_s = median(run.thaw_s);
  if (options.workload == "trickle") {
    eyeball::core::ArtifactView view;
    const std::int64_t open_start = now_ns();
    const eyeball::util::Status opened =
        eyeball::core::ArtifactView::open(store->artifact_path, store->fs(), view);
    open_s = seconds_since(open_start);
    eyeball::serve::ServiceConfig config;
    config.filesystem = &store->fs();
    EyeballService replica{world.pipeline, config};
    const eyeball::util::Status restored = replica.restore_from_artifact(store->artifact_path);
    if (!opened.ok() || !restored.ok()) {
      outcome.correct = false;
    } else {
      thaw_s = thaw_all(replica);
    }
  }
  per_layer_metrics(outcome, records, run.windows, run.reads, in_publish, open_s, thaw_s,
                    tracer.size());
  if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
    std::fprintf(stderr, "could not write spans to %s\n", options.trace_out.c_str());
    outcome.correct = false;
  }

  check_run(run, *setup, options, outcome);
  if (!gate(world, replayed, replay->epoch(), store->read(store->artifact_path),
            options.perturb_reference, "replay artifact", outcome.notes)) {
    outcome.correct = false;
  }
  finish_counts(outcome, tally, run.reads);
  return outcome;
}

}  // namespace

Threads thread_budget(const std::vector<int>& cpus) {
  Threads threads;
  threads.nproc = std::max<std::size_t>(1, cpus.size());
  // On backfill the reader runs after the writer; its spare CPU keeps the
  // writer's parallel stages clear of everything else on the machine.
  threads.writer = threads.nproc > 1 ? threads.nproc - 1 : 1;
  threads.reader_cpu = cpus.empty() ? 0 : cpus.back();
  return threads;
}

bool known_workload(const std::string& workload) {
  return workload == "backfill" || workload == "trickle";
}

Outcome run_workload(const Options& options, const Threads& threads) {
  return options.trace ? traced(options, threads) : untraced(options, threads);
}

std::vector<std::string> self_test(const std::string& dir, const Threads& threads) {
  std::vector<std::string> failures;
  Options options;
  options.workload = "backfill";
  options.profile = tiny_profile();
  options.persist_dir = dir;
  const World world{options.profile, threads.writer};
  const Inputs inputs = make_inputs(world, options.profile, 1);

  // Byte total of the counting filesystem == sizes of the files written.
  // One publish writes one snapshot generation and one artifact, nothing
  // is pruned, so the files on disk are exactly what was written.
  std::vector<std::byte> artifact;
  {
    Store store{options, "selftest"};
    EyeballService service{world.pipeline, store.writer_config(threads.writer)};
    const WindowRecord record = publish_window(service, inputs.months, store.fs());
    if (!record.ok) failures.push_back("self-test publish failed");
    std::uint64_t on_disk = 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir + "/selftest")) {
      if (entry.is_regular_file()) on_disk += entry.file_size();
    }
    if (on_disk != store.fs().counters().bytes || on_disk == 0) {
      failures.push_back("counting filesystem reports " +
                         std::to_string(store.fs().counters().bytes) +
                         " bytes, files on disk hold " + std::to_string(on_disk));
    }
    artifact = store.read(store.artifact_path);
  }

  // The gate passes on the intact reference and trips on a perturbed one.
  std::vector<std::string> notes;
  if (!gate(world, inputs.months, 1, artifact, false, "intact", notes)) {
    failures.push_back("gate rejected a correct artifact");
  }
  if (gate(world, inputs.months, 1, artifact, true, "perturbed", notes)) {
    failures.push_back("gate accepted a perturbed reference");
  }
  return failures;
}

}  // namespace perfbench
