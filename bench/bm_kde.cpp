// Microbenchmarks for the KDE engine: binned separable estimation vs the
// exact evaluator, across sample counts and kernel bandwidths, a clustered
// continent-wide footprint with sparse support, plus peak finding and
// contour extraction.
#include <benchmark/benchmark.h>

#include <iterator>
#include <string>

#include "common.hpp"

#include "geo/point.hpp"
#include "kde/contour.hpp"
#include "kde/estimator.hpp"
#include "kde/peaks.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace eyeball;

std::vector<geo::GeoPoint> make_points(std::size_t count, std::uint64_t seed) {
  util::Rng rng{seed};
  const geo::GeoPoint rome{41.9028, 12.4964};
  std::vector<geo::GeoPoint> points;
  points.reserve(count);
  // Three clusters plus a diffuse background, country-scale spread.
  const geo::GeoPoint centers[] = {rome, geo::destination(rome, 0.0, 450.0),
                                   geo::destination(rome, 120.0, 300.0)};
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.bernoulli(0.8)) {
      const auto& center = centers[rng.uniform_index(3)];
      points.push_back(geo::destination(center, rng.uniform(0.0, 360.0),
                                        rng.exponential(1.0 / 15.0)));
    } else {
      points.push_back(geo::destination(rome, rng.uniform(0.0, 360.0),
                                        rng.uniform(0.0, 500.0)));
    }
  }
  return points;
}

void BM_KdeBinned(benchmark::State& state) {
  const auto points = make_points(static_cast<std::size_t>(state.range(0)), 1);
  kde::KdeConfig config;
  config.bandwidth_km = 40.0;
  config.cell_km = 5.0;
  const kde::KernelDensityEstimator estimator{config};
  const auto box = estimator.padded_box(points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(points, box));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdeBinned)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_KdeExact(benchmark::State& state) {
  const auto points = make_points(static_cast<std::size_t>(state.range(0)), 1);
  kde::KdeConfig config;
  config.bandwidth_km = 40.0;
  config.cell_km = 10.0;
  const kde::KernelDensityEstimator estimator{config};
  const auto box = estimator.padded_box(points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate_exact(points, box));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdeExact)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

// Threads axis for the parallel convolution passes (1/2/4/hw); results are
// bit-identical across thread counts, so this isolates pure speedup.  The
// threaded axes report wall time: the passes run on pool workers, whose CPU
// time the main thread's clock would not see.
void BM_KdeBinnedThreads(benchmark::State& state) {
  const auto points = make_points(1000000, 1);
  kde::KdeConfig config;
  config.bandwidth_km = 40.0;
  config.cell_km = 5.0;
  config.threads = static_cast<std::size_t>(state.range(0));  // 0 = hardware
  const kde::KernelDensityEstimator estimator{config};
  const auto box = estimator.padded_box(points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(points, box));
  }
  const auto effective = config.threads == 0
                             ? eyeball::util::ThreadPool::shared().worker_count()
                             : config.threads;
  state.SetLabel(std::to_string(effective) + " threads");
  state.SetItemsProcessed(state.iterations() * 1000000);
}
BENCHMARK(BM_KdeBinnedThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_KdeExactThreads(benchmark::State& state) {
  const auto points = make_points(2000, 1);
  kde::KdeConfig config;
  config.bandwidth_km = 40.0;
  config.cell_km = 10.0;
  config.threads = static_cast<std::size_t>(state.range(0));  // 0 = hardware
  const kde::KernelDensityEstimator estimator{config};
  const auto box = estimator.padded_box(points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate_exact(points, box));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_KdeExactThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_KdeBandwidthSweep(benchmark::State& state) {
  const auto points = make_points(50000, 1);
  kde::KdeConfig config;
  config.bandwidth_km = static_cast<double>(state.range(0));
  config.cell_km = 5.0;
  const kde::KernelDensityEstimator estimator{config};
  const auto box = estimator.padded_box(points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(points, box));
  }
}
BENCHMARK(BM_KdeBandwidthSweep)->Arg(10)->Arg(20)->Arg(40)->Arg(80)
    ->Unit(benchmark::kMillisecond);

// Continent-scale eyeball AS: a few dense metro clusters in a box spanning
// Europe, so the KDE support is a few percent of the box — the shape of the
// real footprints, where the work should track the support, not the box
// (make_points' country-wide background fills its box instead).  The
// cities sit in distinct latitude bands, so no grid row holds two of them.
// Arg 0 times the estimate; arg 1 peak finding and contour extraction over
// the same grid.
std::vector<geo::GeoPoint> make_clustered_points(std::size_t count, std::uint64_t seed) {
  util::Rng rng{seed};
  // Lisbon, Milan, Kyiv, Dublin, Helsinki.
  const geo::GeoPoint cities[] = {
      {38.72, -9.14}, {45.46, 9.19}, {50.45, 30.52}, {53.35, -6.26}, {60.17, 24.94}};
  std::vector<geo::GeoPoint> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(geo::destination(cities[rng.uniform_index(std::size(cities))],
                                      rng.uniform(0.0, 360.0), rng.uniform(0.0, 25.0)));
  }
  return points;
}

void BM_KdeClustered(benchmark::State& state) {
  const auto points = make_clustered_points(200000, 1);
  kde::KdeConfig config;
  config.bandwidth_km = 20.0;
  config.cell_km = 5.0;
  const kde::KernelDensityEstimator estimator{config};
  const auto box = estimator.padded_box(points);
  const auto grid = estimator.estimate(points, box);
  const std::size_t support = grid.stored_cells();
  const std::size_t grid_bytes = support * sizeof(double);
  const bool analysis = state.range(0) == 1;
  for (auto _ : state) {
    if (analysis) {
      benchmark::DoNotOptimize(kde::find_peaks(grid, {0.01, config.bandwidth_km, true}));
      benchmark::DoNotOptimize(kde::extract_footprint_relative(grid, 0.01));
    } else {
      benchmark::DoNotOptimize(estimator.estimate(points, box));
    }
  }
  state.SetLabel(std::string{analysis ? "peaks+contour, " : "estimate, "} +
                 std::to_string(support) + " of " + std::to_string(grid.cell_count()) +
                 " cells in the support, " + std::to_string(grid_bytes) + " grid bytes");
  state.counters["grid_bytes"] = static_cast<double>(grid_bytes);
}
BENCHMARK(BM_KdeClustered)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_PeakFinding(benchmark::State& state) {
  const auto points = make_points(100000, 1);
  kde::KdeConfig config;
  config.bandwidth_km = 40.0;
  const kde::KernelDensityEstimator estimator{config};
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde::find_peaks(grid, {0.01, 40.0, true}));
  }
}
BENCHMARK(BM_PeakFinding)->Unit(benchmark::kMillisecond);

void BM_ContourExtraction(benchmark::State& state) {
  const auto points = make_points(100000, 1);
  kde::KdeConfig config;
  config.bandwidth_km = 40.0;
  const kde::KernelDensityEstimator estimator{config};
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde::extract_footprint_relative(grid, 0.01));
  }
}
BENCHMARK(BM_ContourExtraction)->Unit(benchmark::kMillisecond);

}  // namespace

EYEBALL_BENCHMARK_MAIN()
