// End-to-end pipeline microbenchmarks: geo-database lookups, dataset
// conditioning throughput, per-AS footprint/PoP analysis and the geodesic
// primitives in the hot paths.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "core/classifier.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "gazetteer/gazetteer.hpp"

namespace {

using namespace eyeball;

const bench::World& world() {
  static const bench::World instance = bench::World::generated(0.05, 0.1);
  return instance;
}

void BM_GeoDbLookup(benchmark::State& state) {
  const auto& w = world();
  const auto& samples = w.crawl.samples;
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.primary.lookup(samples[cursor].ip));
    cursor = (cursor + 1) % samples.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GeoDbLookup);

void BM_DatasetBuild(benchmark::State& state) {
  const auto& w = world();
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.pipeline.build_dataset(w.crawl.samples));
  }
  state.SetItemsProcessed(state.iterations() * w.crawl.samples.size());
}
BENCHMARK(BM_DatasetBuild)->Unit(benchmark::kMillisecond);

void BM_AnalyzeAs(benchmark::State& state) {
  const auto& w = world();
  // Largest AS in the dataset = worst case.
  const core::AsPeerSet* biggest = nullptr;
  for (const auto& as : w.dataset.ases()) {
    if (biggest == nullptr || as.peers.size() > biggest->peers.size()) biggest = &as;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.pipeline.analyze(*biggest));
  }
  state.SetLabel(std::to_string(biggest->peers.size()) + " peers");
  state.SetItemsProcessed(state.iterations() * biggest->peers.size());
}
BENCHMARK(BM_AnalyzeAs)->Unit(benchmark::kMillisecond);

/// Synthetic workload for the parallel engine: `count` eyeball-AS peer sets,
/// each a few city-scale clusters somewhere in Europe.  Built directly (no
/// crawl) so the bench isolates the analyze fan-out.
std::vector<core::AsPeerSet> synthetic_ases(std::size_t count, std::size_t peers_each) {
  util::Rng rng{42};
  std::vector<core::AsPeerSet> out;
  out.reserve(count);
  for (std::size_t a = 0; a < count; ++a) {
    core::AsPeerSet as;
    as.asn = net::Asn{static_cast<std::uint32_t>(10000 + a)};
    std::vector<geo::GeoPoint> centers;
    const std::size_t clusters = 1 + rng.uniform_index(4);
    for (std::size_t c = 0; c < clusters; ++c) {
      centers.push_back({rng.uniform(36.0, 55.0), rng.uniform(-5.0, 25.0)});
    }
    as.peers.reserve(peers_each);
    for (std::size_t i = 0; i < peers_each; ++i) {
      core::PeerRecord rec;
      rec.ip = net::Ipv4Address{static_cast<std::uint32_t>(rng())};
      const auto& center = centers[rng.uniform_index(centers.size())];
      rec.location = geo::destination(center, rng.uniform(0.0, 360.0),
                                      rng.exponential(1.0 / 20.0));
      rec.geo_error_km = rng.uniform(0.0, 40.0);
      as.peers.push_back(rec);
    }
    out.push_back(std::move(as));
  }
  return out;
}

// The acceptance workload for the parallel per-AS engine: 200 synthetic
// ASes analyzed end-to-end (KDE -> contour -> peaks -> PoP mapping) with a
// threads axis (1/2/4/hardware).  Output is bit-identical across thread
// counts; only wall clock moves.
void BM_PipelineAnalyzeAllThreads(benchmark::State& state) {
  const auto& w = world();
  static const auto ases = synthetic_ases(200, 400);
  const auto threads = static_cast<std::size_t>(state.range(0));  // 0 = hardware
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.pipeline.analyze_all(ases, threads));
  }
  const auto effective =
      threads == 0 ? util::ThreadPool::shared().worker_count() : threads;
  state.SetLabel(std::to_string(effective) + " threads, " +
                 std::to_string(ases.size()) + " ASes");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(ases.size()));
}
BENCHMARK(BM_PipelineAnalyzeAllThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_PopFootprintBandwidth(benchmark::State& state) {
  const auto& w = world();
  const core::AsPeerSet* biggest = nullptr;
  for (const auto& as : w.dataset.ases()) {
    if (biggest == nullptr || as.peers.size() > biggest->peers.size()) biggest = &as;
  }
  const auto bandwidth = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.pipeline.pop_footprint(*biggest, bandwidth));
  }
}
BENCHMARK(BM_PopFootprintBandwidth)->Arg(10)->Arg(40)->Arg(80)
    ->Unit(benchmark::kMillisecond);

void BM_Classify(benchmark::State& state) {
  const auto& w = world();
  const core::AsClassifier classifier{w.gaz};
  const auto& as = w.dataset.ases()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.classify(as));
  }
  state.SetItemsProcessed(state.iterations() * as.peers.size());
}
BENCHMARK(BM_Classify)->Unit(benchmark::kMillisecond);

void BM_HaversineDistance(benchmark::State& state) {
  const geo::GeoPoint a{41.9, 12.5};
  const geo::GeoPoint b{45.46, 9.19};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::distance_km(a, b));
  }
}
BENCHMARK(BM_HaversineDistance);

void BM_ApproxDistance(benchmark::State& state) {
  const geo::GeoPoint a{41.9, 12.5};
  const geo::GeoPoint b{45.46, 9.19};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::approx_distance_km(a, b));
  }
}
BENCHMARK(BM_ApproxDistance);

void BM_NearestCity(benchmark::State& state) {
  const auto& w = world();
  util::Rng rng{3};
  std::vector<geo::GeoPoint> queries;
  for (int i = 0; i < 1024; ++i) {
    queries.push_back({rng.uniform(30.0, 60.0), rng.uniform(-10.0, 40.0)});
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.gaz.nearest_city(queries[cursor++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NearestCity);

}  // namespace

EYEBALL_BENCHMARK_MAIN()
