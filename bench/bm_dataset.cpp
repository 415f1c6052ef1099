// Sharded dataset-build benchmarks (the §2 conditioning stage): geo-mapping
// + inter-database error filter + BGP LPM grouping + per-AS filters over the
// full crawl, with a threads axis (1/2/4/hardware).  Results are
// byte-identical across the axis; only wall clock moves.  The committed
// baseline lives in BENCH_dataset.json (see README "Benchmarks").
//
// The Streaming/Longitudinal benchmarks split the crawl into six windows
// (the paper's six monthly snapshots) and compare the streaming ingest path
// against rebuilding the conditioned dataset from scratch per snapshot:
// ingesting window k must cost work proportional to window k (compare
// StreamingIngestLastWindow against DatasetBuildThreads), while the rebuild
// axis pays the cumulative sample count every window.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/artifact.hpp"
#include "core/snapshot.hpp"
#include "core/streaming_dataset.hpp"
#include "geo/point.hpp"
#include "kde/estimator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace eyeball;

const bench::World& world() {
  static const bench::World instance = bench::World::generated(0.05, 0.2);
  return instance;
}

constexpr std::size_t kWindows = 6;

/// The crawl split into six contiguous "monthly" windows.
std::vector<std::span<const p2p::PeerSample>> crawl_windows() {
  const std::span<const p2p::PeerSample> all{world().crawl.samples};
  const std::size_t chunk = (all.size() + kWindows - 1) / kWindows;
  std::vector<std::span<const p2p::PeerSample>> out;
  for (std::size_t lo = 0; lo < all.size(); lo += chunk) {
    out.push_back(all.subspan(lo, std::min(chunk, all.size() - lo)));
  }
  return out;
}

/// The multi-second axes run one iteration each, so a single run reads
/// host noise as change: they repeat three times and report the median
/// (with the mean and spread beside it) instead.
void median_of_three(benchmark::internal::Benchmark* b) {
  b->Repetitions(3)->ReportAggregatesOnly(true);
}

void BM_DatasetBuildThreads(benchmark::State& state) {
  const auto& w = world();
  const auto threads = static_cast<std::size_t>(state.range(0));  // 0 = hardware
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.pipeline.build_dataset(w.crawl.samples, threads));
  }
  const auto effective =
      threads == 0 ? util::ThreadPool::shared().worker_count() : threads;
  state.SetLabel(std::to_string(effective) + " threads, " +
                 std::to_string(w.crawl.samples.size()) + " samples");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.crawl.samples.size()));
}
// Wall time: the shards run on pool workers, so the main thread's CPU time
// (google-benchmark's default clock) would miss most of the work.
BENCHMARK(BM_DatasetBuildThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->UseRealTime()->Unit(benchmark::kMillisecond)->Apply(median_of_three);

// Marginal cost of the streaming path: windows 0..4 are ingested outside the
// timed region, then only the final window's ingest is measured.  Work should
// track the last window's sample count, not the cumulative crawl — compare
// items/s against BM_DatasetBuildThreads at the same thread count.
void BM_StreamingIngestLastWindow(benchmark::State& state) {
  const auto& w = world();
  const auto windows = crawl_windows();
  const auto threads = static_cast<std::size_t>(state.range(0));  // 0 = hardware
  // The builder outlives its iteration so its teardown (about as long as
  // the timed ingest) runs in the next iteration's paused set-up, or after
  // the loop, never inside the timed region.
  std::unique_ptr<core::StreamingDatasetBuilder> stream;
  for (auto _ : state) {
    state.PauseTiming();
    stream.reset();
    stream = std::make_unique<core::StreamingDatasetBuilder>(
        w.primary, w.secondary, w.mapper, w.pipeline.config().dataset);
    for (std::size_t k = 0; k + 1 < windows.size(); ++k) {
      stream->ingest(windows[k], threads);
    }
    state.ResumeTiming();
    stream->ingest(windows.back(), threads);
    benchmark::DoNotOptimize(stream->unique_samples());
  }
  state.SetLabel(std::to_string(windows.back().size()) + " samples in window " +
                 std::to_string(windows.size() - 1) + " of " +
                 std::to_string(w.crawl.samples.size()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(windows.back().size()));
}
BENCHMARK(BM_StreamingIngestLastWindow)->Arg(1)->Arg(0)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// The full longitudinal workload, streaming path: ingest each window and
// re-filter (finalize) after every snapshot, as repro_churn does.
void BM_LongitudinalStreamingTotal(benchmark::State& state) {
  const auto& w = world();
  const auto windows = crawl_windows();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::StreamingDatasetBuilder stream = w.pipeline.streaming_builder();
    for (const auto& window : windows) {
      stream.ingest(window, threads);
      benchmark::DoNotOptimize(stream.finalize(threads));
    }
  }
  state.SetLabel(std::to_string(windows.size()) + " windows, " +
                 std::to_string(w.crawl.samples.size()) + " samples total");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.crawl.samples.size()));
}
BENCHMARK(BM_LongitudinalStreamingTotal)->Arg(1)->Arg(0)
    ->UseRealTime()->Unit(benchmark::kMillisecond)->Apply(median_of_three);

// The rebuild axis the streaming path replaces: after each snapshot, rebuild
// the conditioned dataset from scratch over the cumulative prefix.  Pays the
// full cumulative sample count every window (quadratic in window count).
void BM_LongitudinalRebuildTotal(benchmark::State& state) {
  const auto& w = world();
  const std::span<const p2p::PeerSample> all{w.crawl.samples};
  const auto windows = crawl_windows();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::size_t end = 0;
    for (const auto& window : windows) {
      end += window.size();
      benchmark::DoNotOptimize(
          w.pipeline.build_dataset(all.subspan(0, end), threads));
    }
  }
  state.SetLabel(std::to_string(windows.size()) + " rebuilds over growing prefixes");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.crawl.samples.size()));
}
BENCHMARK(BM_LongitudinalRebuildTotal)->Arg(1)->Arg(0)
    ->UseRealTime()->Unit(benchmark::kMillisecond)->Apply(median_of_three);

/// Scratch directory for the snapshot benchmarks, reset per run so the
/// generation counter and prune set start from a known state.
std::string snapshot_bench_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string{"eyeball_bench_"} + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Snapshot bytes per unique admitted sample: ~5 for the stored sample log
/// (the envelope and window records add a few hundred bytes in all).
void set_bytes_per_sample(benchmark::State& state, std::size_t bytes,
                          std::size_t unique_samples) {
  state.counters["bytes_per_sample"] =
      static_cast<double>(bytes) / static_cast<double>(unique_samples);
}

// Crash-safety economics, write side: the cost of persisting the full
// six-window streaming state (derived-state digest + sample log encode +
// CRC + temp-fsync-rename), with the snapshot size on the label.
// save_snapshot prunes to the two newest generations, so the loop does not
// grow the directory.
void BM_SnapshotSave(benchmark::State& state) {
  const auto& w = world();
  core::StreamingDatasetBuilder stream = w.pipeline.streaming_builder();
  for (const auto& window : crawl_windows()) stream.ingest(window, 0);
  const std::string dir = snapshot_bench_dir("snapshot_save");
  for (auto _ : state) {
    if (!stream.save_snapshot(dir).ok()) {
      state.SkipWithError("save_snapshot failed");
      break;
    }
  }
  const std::size_t bytes = core::SnapshotCodec::encode(stream, 0).size();
  state.SetLabel(std::to_string(bytes) + " byte snapshot, " +
                 std::to_string(stream.unique_samples()) + " unique samples");
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  set_bytes_per_sample(state, bytes, stream.unique_samples());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMillisecond)->Apply(median_of_three);

// Crash-safety economics, read side: restoring the six-window state into a
// fresh builder, which replays the stored sample log through conditioning at
// pool width and checks the derived-state digest.  Wall time, since the
// replay fans out.  items/s counts the crawl samples the restored state
// covers, so the rate is directly comparable with BM_DatasetBuildThreads /
// BM_LongitudinalStreamingTotal.
void BM_SnapshotRestore(benchmark::State& state) {
  const auto& w = world();
  core::StreamingDatasetBuilder stream = w.pipeline.streaming_builder();
  for (const auto& window : crawl_windows()) stream.ingest(window, 0);
  const std::string dir = snapshot_bench_dir("snapshot_restore");
  if (!stream.save_snapshot(dir).ok()) {
    state.SkipWithError("seed save_snapshot failed");
    return;
  }
  for (auto _ : state) {
    core::StreamingDatasetBuilder restored = w.pipeline.streaming_builder();
    if (!restored.restore_snapshot(dir).ok()) {
      state.SkipWithError("restore_snapshot failed");
      break;
    }
    benchmark::DoNotOptimize(restored.unique_samples());
  }
  state.SetLabel("replays " + std::to_string(stream.unique_samples()) +
                 " unique samples of " + std::to_string(w.crawl.samples.size()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.crawl.samples.size()));
  set_bytes_per_sample(state, core::SnapshotCodec::encode(stream, 0).size(),
                       stream.unique_samples());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SnapshotRestore)->UseRealTime()->Unit(benchmark::kMillisecond)
    ->Apply(median_of_three);

// The per-publish finalize over the six-window streaming state: the
// min-peers / p90 geo-error filter over every bucket (a selection per
// bucket) plus the copy of every kept bucket into the dataset.  Threads
// axis as above; wall time.
void BM_StreamingFinalize(benchmark::State& state) {
  const auto& w = world();
  core::StreamingDatasetBuilder stream = w.pipeline.streaming_builder();
  for (const auto& window : crawl_windows()) stream.ingest(window, 0);
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::size_t peers = 0;
  for (auto _ : state) {
    const core::TargetDataset dataset = stream.finalize(threads);
    peers = dataset.stats().final_peers;
    benchmark::DoNotOptimize(dataset.ases().data());
  }
  state.SetLabel(std::to_string(peers) + " kept peers of " +
                 std::to_string(stream.unique_samples()) + " unique samples");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.unique_samples()));
}
BENCHMARK(BM_StreamingFinalize)->Arg(1)->Arg(0)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Separable-convolution axis for the KDE engine, kept in this baseline next
// to the conditioning axes because the two are the pipeline's raw-speed hot
// paths (see ISSUE 7 / DESIGN.md "Data layout & vectorization").  The
// workload is convolution-dominated by construction — few points, fine grid,
// wide kernel (sigma = 20 cells, 121 taps per pass) — so the time tracks the
// horizontal + vertical blur passes rather than binning, and items/s counts
// grid cells, not samples.
void BM_KdeSeparable(benchmark::State& state) {
  util::Rng rng{7};
  const geo::GeoPoint rome{41.9028, 12.4964};
  std::vector<geo::GeoPoint> points;
  points.reserve(20000);
  for (std::size_t i = 0; i < 20000; ++i) {
    points.push_back(geo::destination(rome, rng.uniform(0.0, 360.0),
                                      rng.uniform(0.0, 500.0)));
  }
  kde::KdeConfig config;
  config.bandwidth_km = 40.0;
  config.cell_km = 2.0;
  config.threads = static_cast<std::size_t>(state.range(0));  // 0 = hardware
  const kde::KernelDensityEstimator estimator{config};
  const auto box = estimator.padded_box(points);
  std::size_t cells = 0;
  for (auto _ : state) {
    const auto grid = estimator.estimate(points, box);
    cells = grid.rows() * grid.cols();
    benchmark::DoNotOptimize(grid.max_cell());
  }
  const auto effective = config.threads == 0
                             ? util::ThreadPool::shared().worker_count()
                             : config.threads;
  state.SetLabel(std::to_string(effective) + " threads, " +
                 std::to_string(cells) + " cells, 121-tap kernel");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_KdeSeparable)->Arg(1)->Arg(0)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- Serving-artifact economics (core/artifact.hpp): the zero-copy mmap
// restore path.  Write side prices publish-time emission; the open side is
// the acceptance-pinned number — open + full validation + first query must
// stay in tens of milliseconds because restore cost is what bounds replica
// fleet spin-up. ----

/// Per-AS analyses for the bench dataset, computed once (the artifact
/// persists dataset AND analyses).
const std::vector<core::AsAnalysis>& world_analyses() {
  static const std::vector<core::AsAnalysis> instance =
      world().pipeline.refresh_analyses(world().dataset, {}, {});
  return instance;
}

std::uint64_t world_fingerprint() {
  return core::SnapshotCodec::config_fingerprint(world().pipeline.config().dataset);
}

// Canonical encode + checked atomic write of the full epoch, with the
// encoder's threads axis (1 = serial, 0 = pool width); wall time, since
// the encode fans out.
void BM_ArtifactWrite(benchmark::State& state) {
  const auto& w = world();
  const auto& analyses = world_analyses();
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::string path = snapshot_bench_dir("artifact_write") + "/epoch.eyb";
  std::filesystem::create_directories(std::filesystem::path{path}.parent_path());
  for (auto _ : state) {
    if (!core::ArtifactCodec::write(util::local_filesystem(), path, w.dataset,
                                    analyses, 1, world_fingerprint(), threads)
             .ok()) {
      state.SkipWithError("artifact write failed");
      break;
    }
  }
  const auto bytes = static_cast<std::int64_t>(std::filesystem::file_size(path));
  const std::size_t effective =
      threads == 0 ? util::ThreadPool::shared().worker_count() : threads;
  state.SetLabel(std::to_string(bytes) + " byte artifact, " +
                 std::to_string(w.dataset.ases().size()) + " ASes, " +
                 std::to_string(effective) + " threads");
  state.SetBytesProcessed(state.iterations() * bytes);
  std::filesystem::remove_all(std::filesystem::path{path}.parent_path());
}
BENCHMARK(BM_ArtifactWrite)->Arg(1)->Arg(0)->UseRealTime()->Unit(benchmark::kMillisecond);

// mmap + envelope and CRC checks + every AS record decoded: exactly what a
// service's restore_from_artifact pays before it publishes the epoch.
void BM_ArtifactOpen(benchmark::State& state) {
  const auto& w = world();
  const std::string path = snapshot_bench_dir("artifact_open") + "/epoch.eyb";
  std::filesystem::create_directories(std::filesystem::path{path}.parent_path());
  if (!core::ArtifactCodec::write(util::local_filesystem(), path, w.dataset,
                                  world_analyses(), 1, world_fingerprint())
           .ok()) {
    state.SkipWithError("seed artifact write failed");
    return;
  }
  const std::size_t max_cells = w.pipeline.config().footprint.kde.max_cells;
  for (auto _ : state) {
    core::ArtifactView view;
    std::vector<core::AsAnalysis> analyses;
    if (!core::ArtifactView::open(path, util::local_filesystem(), view).ok() ||
        !view.materialize(max_cells, analyses).ok()) {
      state.SkipWithError("artifact open/materialize failed");
      break;
    }
    benchmark::DoNotOptimize(analyses.data());
  }
  state.SetLabel(std::to_string(std::filesystem::file_size(path)) + " bytes, " +
                 std::to_string(w.dataset.ases().size()) + " ASes decoded");
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(std::filesystem::file_size(path)));
  std::filesystem::remove_all(std::filesystem::path{path}.parent_path());
}
BENCHMARK(BM_ArtifactOpen)->Unit(benchmark::kMillisecond);

void BM_DatasetFind(benchmark::State& state) {
  const auto& w = world();
  const auto ases = w.dataset.ases();
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.dataset.find(ases[cursor].asn));
    cursor = (cursor + 1) % ases.size();
  }
  state.SetLabel(std::to_string(ases.size()) + " ASes");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DatasetFind);

}  // namespace

EYEBALL_BENCHMARK_MAIN()
