// util::ThreadPool unit tests plus the determinism contract of the parallel
// execution engine: the KDE convolution passes and the pipeline's per-AS
// fan-out (analyze_all and refresh_analyses, including on a skewed AS mix)
// must produce bit-identical results at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/artifact.hpp"
#include "core/multi_bandwidth.hpp"
#include "kde/estimator.hpp"
#include "pipeline_fixture.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace eyeball {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  util::ThreadPool pool{2};
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitRunsOnWorkerThread) {
  util::ThreadPool pool{2};
  EXPECT_FALSE(util::ThreadPool::on_worker_thread());
  auto future = pool.submit([] { return util::ThreadPool::on_worker_thread(); });
  EXPECT_TRUE(future.get());
}

TEST(ThreadPool, ExceptionPropagatesFromWorker) {
  util::ThreadPool pool{2};
  auto future = pool.submit(
      []() -> int { throw std::runtime_error{"boom"}; });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  util::ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t lo, std::size_t) {
                          if (lo == 0) throw std::invalid_argument{"chunk 0"};
                        }),
      std::invalid_argument);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  util::ThreadPool pool{2};
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  pool.parallel_for(7, 3, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForRangeSmallerThanWorkers) {
  util::ThreadPool pool{8};
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(0, 3, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  util::ThreadPool pool{4};
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(10, 10 + kCount, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i - 10];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRespectsMaxConcurrency) {
  util::ThreadPool pool{8};
  std::atomic<int> chunks{0};
  pool.parallel_for(
      0, 1000, [&](std::size_t, std::size_t) { ++chunks; }, 3);
  EXPECT_LE(chunks.load(), 3);
}

TEST(ThreadPool, ChunkCountIndependentOfPoolSize) {
  // Chunk boundaries must depend only on the range and the requested
  // concurrency, never on how many workers happen to exist — a 1-worker
  // pool asked for 4 chunks still produces 4 (queued) chunks, so the
  // sharded merge order is identical on any machine.
  util::ThreadPool pool{1};
  std::atomic<int> chunks{0};
  pool.parallel_for(
      0, 1000, [&](std::size_t, std::size_t) { ++chunks; }, 4);
  EXPECT_EQ(chunks.load(), 4);

  std::vector<std::pair<std::size_t, std::size_t>> seen;
  pool.parallel_map_reduce(
      0, 1000,
      [](std::size_t lo, std::size_t hi) { return std::make_pair(lo, hi); },
      [&](std::pair<std::size_t, std::size_t> bounds) { seen.push_back(bounds); },
      4);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen.front().first, 0u);
  EXPECT_EQ(seen.back().second, 1000u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, seen[i - 1].second);
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineOnWorker) {
  util::ThreadPool pool{2};
  std::atomic<int> inner_chunks{0};
  pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // A nested parallel_for from a worker must not re-enter the queue —
      // it runs the whole inner range as one inline chunk.
      util::ThreadPool::shared().parallel_for(
          0, 100, [&](std::size_t b, std::size_t e) {
            EXPECT_EQ(b, 0u);
            EXPECT_EQ(e, 100u);
            ++inner_chunks;
          });
    }
  });
  EXPECT_EQ(inner_chunks.load(), 4);
}

TEST(ThreadPool, MapReduceSumMatchesSerial) {
  util::ThreadPool pool{4};
  constexpr std::size_t kCount = 10000;
  long long total = 0;
  pool.parallel_map_reduce(
      0, kCount,
      [](std::size_t lo, std::size_t hi) {
        long long sum = 0;
        for (std::size_t i = lo; i < hi; ++i) sum += static_cast<long long>(i);
        return sum;
      },
      [&](long long chunk_sum) { total += chunk_sum; });
  EXPECT_EQ(total, static_cast<long long>(kCount) * (kCount - 1) / 2);
}

TEST(ThreadPool, MapReduceReducesInChunkOrder) {
  util::ThreadPool pool{4};
  // Each chunk returns its own bounds; the ordered reduction must see them
  // left-to-right and covering the range exactly once, however the chunks
  // were scheduled.
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  pool.parallel_map_reduce(
      5, 505,
      [](std::size_t lo, std::size_t hi) { return std::make_pair(lo, hi); },
      [&](std::pair<std::size_t, std::size_t> bounds) { seen.push_back(bounds); });
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front().first, 5u);
  EXPECT_EQ(seen.back().second, 505u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, seen[i - 1].second);
  }
}

TEST(ThreadPool, MapReduceEmptyRangeAndConcurrencyOne) {
  util::ThreadPool pool{4};
  int reduces = 0;
  pool.parallel_map_reduce(
      3, 3, [](std::size_t, std::size_t) { return 0; }, [&](int) { ++reduces; });
  EXPECT_EQ(reduces, 0);
  // max_concurrency 1 runs inline as a single chunk.
  pool.parallel_map_reduce(
      0, 100, [](std::size_t lo, std::size_t hi) { return hi - lo; },
      [&](std::size_t n) {
        EXPECT_EQ(n, 100u);
        ++reduces;
      },
      1);
  EXPECT_EQ(reduces, 1);
}

TEST(ThreadPool, MapReducePropagatesMapException) {
  util::ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_map_reduce(
          0, 100,
          [](std::size_t lo, std::size_t) -> int {
            if (lo == 0) throw std::invalid_argument{"chunk 0"};
            return 0;
          },
          [](int) {}),
      std::invalid_argument);
}

std::vector<geo::GeoPoint> scattered_points(std::size_t count, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<geo::GeoPoint> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back({rng.uniform(38.0, 46.0), rng.uniform(7.0, 18.0)});
  }
  return points;
}

TEST(ParallelKde, BinnedEstimateBitIdenticalAcrossThreadCounts) {
  const auto points = scattered_points(20000, 11);
  kde::KdeConfig serial_config;
  serial_config.bandwidth_km = 40.0;
  serial_config.cell_km = 5.0;
  serial_config.threads = 1;
  const kde::KernelDensityEstimator serial{serial_config};
  const auto box = serial.padded_box(points);
  const auto reference = serial.estimate(points, box);

  for (const std::size_t threads : {2u, 4u, 0u}) {
    kde::KdeConfig config = serial_config;
    config.threads = threads;
    const kde::KernelDensityEstimator estimator{config};
    const auto grid = estimator.estimate(points, box);
    ASSERT_EQ(grid.values().size(), reference.values().size());
    EXPECT_EQ(grid.values(), reference.values()) << "threads=" << threads;
  }
}

TEST(ParallelKde, ExactEstimateBitIdenticalAcrossThreadCounts) {
  const auto points = scattered_points(300, 12);
  kde::KdeConfig serial_config;
  serial_config.bandwidth_km = 40.0;
  serial_config.cell_km = 20.0;
  serial_config.threads = 1;
  const kde::KernelDensityEstimator serial{serial_config};
  const auto box = serial.padded_box(points);
  const auto reference = serial.estimate_exact(points, box);

  kde::KdeConfig parallel_config = serial_config;
  parallel_config.threads = 4;
  const kde::KernelDensityEstimator parallel{parallel_config};
  EXPECT_EQ(parallel.estimate_exact(points, box).values(), reference.values());
}

using testing::same_analysis;

TEST(ParallelPipeline, AnalyzeAllMatchesSerialOnSyntheticTopology) {
  const auto& fixture = testing::shared_fixture();
  const auto ases = fixture.dataset.ases();
  ASSERT_FALSE(ases.empty());

  const auto serial = fixture.pipeline.analyze_all(ases, 1);
  ASSERT_EQ(serial.size(), ases.size());
  // Serial fan-out equals the plain per-AS loop.
  for (std::size_t i = 0; i < ases.size(); ++i) {
    EXPECT_TRUE(same_analysis(serial[i], fixture.pipeline.analyze(ases[i]))) << i;
  }

  for (const std::size_t threads : {2u, 4u, 0u}) {
    const auto parallel = fixture.pipeline.analyze_all(ases, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(same_analysis(serial[i], parallel[i]))
          << "threads=" << threads << " as index " << i;
    }
  }
}

/// One huge AS among many small ones — the shape that starves a contiguous
/// chunking of the AS list.  The huge AS repeats the fixture's largest
/// peer set under a fresh ASN; the small ones are the first peers of every
/// other fixture AS.
core::TargetDataset skewed_dataset() {
  const auto ases = testing::shared_fixture().dataset.ases();
  const auto largest = std::max_element(
      ases.begin(), ases.end(), [](const core::AsPeerSet& a, const core::AsPeerSet& b) {
        return a.peers.size() < b.peers.size();
      });
  std::vector<core::AsPeerSet> out;
  for (auto it = ases.begin(); it != ases.end(); ++it) {
    if (it == largest) continue;
    const std::size_t keep = std::min<std::size_t>(it->peers.size(), 60);
    out.push_back({it->asn, {it->peers.begin(),
                             it->peers.begin() + static_cast<std::ptrdiff_t>(keep)}});
  }
  core::AsPeerSet huge{net::Asn{4200000000U}, {}};
  for (int copy = 0; copy < 3; ++copy) {
    huge.peers.insert(huge.peers.end(), largest->peers.begin(), largest->peers.end());
  }
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(out.size() / 3), std::move(huge));
  return core::TargetDataset{std::move(out), core::DatasetStats{}};
}

std::vector<std::byte> encode_epoch(const core::TargetDataset& dataset,
                                    std::span<const core::AsAnalysis> analyses) {
  std::vector<std::byte> bytes;
  const auto status = core::ArtifactCodec::encode(dataset, analyses, 1, 0, bytes);
  EXPECT_TRUE(status.ok()) << status.message();
  return bytes;
}

TEST(ParallelPipeline, BalancedFanOutByteIdenticalOnSkewedAses) {
  const auto& f = testing::shared_fixture();
  const auto& pipeline = f.pipeline;
  const core::TargetDataset dataset = skewed_dataset();
  const auto ases = dataset.ases();
  ASSERT_GT(ases.size(), 8U);

  const auto serial = pipeline.analyze_all(ases, 1);
  ASSERT_EQ(serial.size(), ases.size());
  for (std::size_t i = 0; i < ases.size(); ++i) {
    ASSERT_TRUE(same_analysis(serial[i], pipeline.analyze(ases[i]))) << i;
  }
  const auto reference = encode_epoch(dataset, serial);

  // A partial previous epoch: every other AS is missing, and the entries
  // named in `changed` hold a wrong analysis (another AS's, under their
  // ASN), so reusing one of them instead of re-analyzing shows in the bytes.
  std::vector<core::AsAnalysis> previous;
  std::vector<net::Asn> changed;
  for (std::size_t i = 0; i < serial.size(); i += 2) {
    if (i % 6 != 0) {
      previous.push_back(serial[i]);
      continue;
    }
    previous.push_back(serial[(i + 1) % serial.size()]);
    previous.back().asn = serial[i].asn;
    changed.push_back(serial[i].asn);
  }
  changed.push_back(ases[ases.size() / 3].asn);  // the huge AS

  // refresh_analyses fans out at PipelineConfig::threads.
  core::PipelineConfig config = pipeline.config();

  for (const std::size_t threads : {1u, 2u, 3u, 0u}) {
    EXPECT_EQ(encode_epoch(dataset, pipeline.analyze_all(ases, threads)), reference)
        << "analyze_all threads=" << threads;
    config.threads = threads;
    const core::EyeballPipeline refresher{f.gaz, f.primary, f.secondary, f.mapper, config};
    EXPECT_EQ(encode_epoch(dataset, refresher.refresh_analyses(dataset, {}, {})),
              reference)
        << "refresh from empty, threads=" << threads;
    EXPECT_EQ(encode_epoch(dataset, refresher.refresh_analyses(dataset, previous, changed)),
              reference)
        << "refresh from partial, threads=" << threads;
  }
}

void expect_same_dataset(const core::TargetDataset& reference,
                         const core::TargetDataset& candidate, std::size_t threads) {
  EXPECT_EQ(reference.stats(), candidate.stats())
      << "threads=" << threads << " diverged: "
      << core::diff_stats(reference.stats(), candidate.stats());
  ASSERT_EQ(reference.ases().size(), candidate.ases().size()) << "threads=" << threads;
  for (std::size_t a = 0; a < reference.ases().size(); ++a) {
    const auto& ra = reference.ases()[a];
    const auto& ca = candidate.ases()[a];
    EXPECT_EQ(ra.asn, ca.asn) << "threads=" << threads << " as index " << a;
    ASSERT_EQ(ra.peers.size(), ca.peers.size())
        << "threads=" << threads << " as index " << a;
    for (std::size_t p = 0; p < ra.peers.size(); ++p) {
      const auto& rp = ra.peers[p];
      const auto& cp = ca.peers[p];
      const bool same = rp.ip == cp.ip && rp.app == cp.app &&
                        rp.location == cp.location &&
                        rp.geo_error_km == cp.geo_error_km &&
                        rp.reported_city == cp.reported_city;
      EXPECT_TRUE(same) << "threads=" << threads << " as index " << a << " peer " << p;
      if (!same) return;
    }
  }
}

TEST(ParallelDataset, ShardedBuildByteIdenticalAcrossThreadCounts) {
  const auto& fixture = testing::shared_fixture();
  const auto samples = std::span<const p2p::PeerSample>{fixture.crawl.samples};

  const auto reference = fixture.pipeline.build_dataset(samples, 1);
  // The serial shard path is the fixture dataset's own build.
  expect_same_dataset(fixture.dataset, reference, 1);

  for (const std::size_t threads : {2u, 3u, 4u, 0u}) {
    expect_same_dataset(reference, fixture.pipeline.build_dataset(samples, threads),
                        threads);
  }
}

TEST(ParallelPipeline, MultiBandwidthRefineMatchesSerial) {
  const auto& fixture = testing::shared_fixture();
  const auto ases = fixture.dataset.ases();
  ASSERT_FALSE(ases.empty());
  const core::GeoFootprintEstimator estimator{fixture.pipeline.config().footprint};

  core::MultiBandwidthConfig serial_config;
  serial_config.threads = 1;
  core::MultiBandwidthConfig parallel_config;
  parallel_config.threads = 2;
  const core::MultiBandwidthRefiner serial{fixture.gaz, estimator, serial_config};
  const core::MultiBandwidthRefiner parallel{fixture.gaz, estimator, parallel_config};

  const auto& as = ases.front();
  const auto a = serial.refine(as);
  const auto b = parallel.refine(as);
  EXPECT_EQ(a.splits, b.splits);
  ASSERT_EQ(a.pops.pops.size(), b.pops.pops.size());
  EXPECT_EQ(a.pops.unmapped_peaks, b.pops.unmapped_peaks);
  for (std::size_t i = 0; i < a.pops.pops.size(); ++i) {
    EXPECT_EQ(a.pops.pops[i].city, b.pops.pops[i].city);
    EXPECT_EQ(a.pops.pops[i].score, b.pops.pops[i].score);
    EXPECT_EQ(a.pops.pops[i].peak_density, b.pops.pops[i].peak_density);
    EXPECT_EQ(a.pops.pops[i].peak_location, b.pops.pops[i].peak_location);
  }
}

}  // namespace
}  // namespace eyeball
