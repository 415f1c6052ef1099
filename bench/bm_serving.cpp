// Query-storm benchmark for the serving layer (serve/service.hpp): reader
// threads hammer point and batch queries against an EyeballService while
// the writer thread live-ingests crawl windows and publishes epochs.  The
// committed baseline lives in BENCH_serving.json (see README "Serving");
// regenerate with
//
//     ./build/bench/bm_serving BENCH_serving.json
//
// Unlike the google-benchmark microbenches, this is a custom driver: the
// quantities of interest are sustained queries/sec and tail latency
// (p50/p99) under concurrent publication, which need per-query timing and
// a custom JSON schema (validated by tools/check_bench_schema.py).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve/service.hpp"
#include "util/file.hpp"
#include "util/format.hpp"

namespace {

using namespace eyeball;

constexpr std::size_t kWindows = 6;
constexpr std::size_t kReaders = 2;
/// Each reader keeps querying while the writer is live, and at least this
/// many point queries overall — the storm totals millions of answers.
constexpr std::size_t kMinPointQueriesPerReader = 1'000'000;
/// One batch query (kBatchSize ASNs) every kBatchEvery point queries.
constexpr std::size_t kBatchEvery = 16;
constexpr std::size_t kBatchSize = 16;
/// Latency is sampled (every kSampleEvery-th query) with a hard cap, so an
/// arbitrarily long storm cannot exhaust memory.
constexpr std::size_t kSampleEvery = 4;
constexpr std::size_t kMaxSamples = 2'000'000;

/// The crawl split into contiguous "monthly" windows (bm_dataset's split).
std::vector<std::span<const p2p::PeerSample>> crawl_windows(
    std::span<const p2p::PeerSample> all) {
  const std::size_t chunk = (all.size() + kWindows - 1) / kWindows;
  std::vector<std::span<const p2p::PeerSample>> out;
  for (std::size_t lo = 0; lo < all.size(); lo += chunk) {
    out.push_back(all.subspan(lo, std::min(chunk, all.size() - lo)));
  }
  return out;
}

struct ReaderTally {
  std::uint64_t point_queries = 0;
  std::uint64_t point_hits = 0;
  std::uint64_t batch_queries = 0;
  std::uint64_t batch_answers = 0;
  /// Distinct epochs this reader received answers from (live-overlap proof).
  std::uint64_t first_epoch = 0;
  std::uint64_t last_epoch = 0;
  std::vector<std::uint32_t> point_ns;
  std::vector<std::uint32_t> batch_ns;
  double seconds = 0.0;
};

/// Sorts in place and reads the q-quantile (nearest-rank).
[[nodiscard]] std::uint32_t percentile_ns(std::vector<std::uint32_t>& ns, double q) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(ns.size() - 1));
  return ns[rank];
}

ReaderTally run_reader(const serve::EyeballService& service,
                       std::span<const net::Asn> probe,
                       const std::atomic<bool>& writer_done) {
  using clock = std::chrono::steady_clock;
  ReaderTally tally;
  tally.point_ns.reserve(kMaxSamples);
  tally.batch_ns.reserve(kMaxSamples / kBatchEvery + 1);
  std::vector<net::Asn> batch_asns{
      probe.begin(),
      probe.begin() + static_cast<std::ptrdiff_t>(std::min(kBatchSize, probe.size()))};
  const auto start = clock::now();
  std::size_t i = 0;
  while (!writer_done.load(std::memory_order_acquire) ||
         tally.point_queries < kMinPointQueriesPerReader) {
    const net::Asn asn = probe[i % probe.size()];
    const auto t0 = clock::now();
    const auto ref = service.query(asn);
    const auto t1 = clock::now();
    ++tally.point_queries;
    if (ref) ++tally.point_hits;
    const std::uint64_t epoch = ref.epoch();
    if (epoch != 0) {
      if (tally.first_epoch == 0) tally.first_epoch = epoch;
      tally.last_epoch = epoch;
    }
    if (i % kSampleEvery == 0 && tally.point_ns.size() < kMaxSamples) {
      tally.point_ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
          0xFFFFFFFFll)));
    }
    if (i % kBatchEvery == 0) {
      const auto b0 = clock::now();
      const auto batch = service.query_batch(batch_asns);
      const auto b1 = clock::now();
      ++tally.batch_queries;
      tally.batch_answers += batch.analyses.size();
      if (tally.batch_ns.size() < kMaxSamples) {
        tally.batch_ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b1 - b0).count(),
            0xFFFFFFFFll)));
      }
      // Cede the core periodically so the storm cannot starve the writer's
      // pool threads on small machines (QPS is measured per query, not per
      // wall-second of spinning).
      std::this_thread::yield();
    }
    ++i;
  }
  tally.seconds = std::chrono::duration<double>(clock::now() - start).count();
  return tally;
}

[[nodiscard]] std::string json_entry(const std::string& name, std::uint64_t queries,
                                     double qps, std::uint32_t p50, std::uint32_t p99,
                                     std::uint32_t worst) {
  std::string out = "    {\n";
  out += "      \"name\": \"" + name + "\",\n";
  out += "      \"queries\": " + std::to_string(queries) + ",\n";
  out += "      \"qps\": " + util::fixed(qps, 1) + ",\n";
  out += "      \"p50_ns\": " + std::to_string(p50) + ",\n";
  out += "      \"p99_ns\": " + std::to_string(p99) + ",\n";
  out += "      \"max_ns\": " + std::to_string(worst) + "\n";
  out += "    }";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serving.json";

  const bench::World& world = [] () -> const bench::World& {
    static const bench::World instance = bench::World::generated(0.05, 0.2);
    return instance;
  }();
  const auto windows = crawl_windows(world.crawl.samples);

  serve::EyeballService service{world.pipeline};

  // Warm-up epoch: the storm races live publishes, not an empty service.
  service.ingest(windows[0]);
  auto first = service.publish();
  std::vector<net::Asn> probe;
  for (std::size_t i = 0; i < first->as_count(); ++i) probe.push_back(first->asn_at(i));
  probe.push_back(net::Asn{0xFFFFFFFFu});  // one guaranteed miss in rotation
  std::printf("epoch 1 published: %zu ASes served, %zu probe ASNs\n", first->as_count(),
              probe.size());
  first.reset();

  std::atomic<bool> writer_done{false};
  std::vector<ReaderTally> tallies(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      tallies[r] = run_reader(service, probe, writer_done);
    });
  }

  // The writer live-ingests the remaining windows, publishing each.
  using clock = std::chrono::steady_clock;
  const auto w0 = clock::now();
  for (std::size_t i = 1; i < windows.size(); ++i) {
    service.ingest(windows[i]);
    (void)service.publish();
  }
  const double publish_seconds = std::chrono::duration<double>(clock::now() - w0).count();
  writer_done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Merge reader tallies.
  std::uint64_t point_queries = 0;
  std::uint64_t batch_queries = 0;
  std::uint64_t batch_answers = 0;
  double reader_seconds = 0.0;
  std::uint64_t first_epoch = 0;
  std::uint64_t last_epoch = 0;
  std::vector<std::uint32_t> point_ns;
  std::vector<std::uint32_t> batch_ns;
  for (auto& tally : tallies) {
    point_queries += tally.point_queries;
    batch_queries += tally.batch_queries;
    batch_answers += tally.batch_answers;
    reader_seconds += tally.seconds;
    first_epoch = first_epoch == 0 ? tally.first_epoch
                                   : std::min(first_epoch, tally.first_epoch);
    last_epoch = std::max(last_epoch, tally.last_epoch);
    point_ns.insert(point_ns.end(), tally.point_ns.begin(), tally.point_ns.end());
    batch_ns.insert(batch_ns.end(), tally.batch_ns.begin(), tally.batch_ns.end());
  }
  const double point_qps =
      reader_seconds == 0.0 ? 0.0 : static_cast<double>(point_queries) / reader_seconds;
  const double batch_qps =
      reader_seconds == 0.0 ? 0.0 : static_cast<double>(batch_queries) / reader_seconds;

  const std::uint32_t point_p50 = percentile_ns(point_ns, 0.50);
  const std::uint32_t point_p99 = percentile_ns(point_ns, 0.99);
  const std::uint32_t batch_p50 = percentile_ns(batch_ns, 0.50);
  const std::uint32_t batch_p99 = percentile_ns(batch_ns, 0.99);

  std::printf("point: %llu queries, %.0f qps, p50 %u ns, p99 %u ns\n",
              static_cast<unsigned long long>(point_queries), point_qps, point_p50,
              point_p99);
  std::printf("batch(%zu): %llu queries, %.0f qps, p50 %u ns, p99 %u ns\n", kBatchSize,
              static_cast<unsigned long long>(batch_queries), batch_qps, batch_p50,
              batch_p99);
  std::printf("epochs answered from: %llu..%llu of %llu published (%.1fs publishing)\n",
              static_cast<unsigned long long>(first_epoch),
              static_cast<unsigned long long>(last_epoch),
              static_cast<unsigned long long>(service.epoch()), publish_seconds);

  char date[32] = "unknown";
  // eyeball-lint: allow(nondet-seed): report timestamp for the JSON context, not randomness
  const std::time_t now = std::time(nullptr);
  if (std::tm utc{}; gmtime_r(&now, &utc) != nullptr) {
    (void)std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%S+00:00", &utc);
  }

  std::string json = "{\n  \"context\": {\n";
  json += "    \"date\": \"" + std::string{date} + "\",\n";
  json += "    \"eyeball_build_type\": \"" + std::string{bench::kBuildType} + "\",\n";
  json += "    \"num_cpus\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "    \"readers\": " + std::to_string(kReaders) + ",\n";
  json += "    \"windows\": " + std::to_string(windows.size()) + ",\n";
  json += "    \"epochs_published\": " + std::to_string(service.epoch()) + ",\n";
  json += "    \"first_answer_epoch\": " + std::to_string(first_epoch) + ",\n";
  json += "    \"last_answer_epoch\": " + std::to_string(last_epoch) + ",\n";
  json += "    \"publish_seconds\": " + util::fixed(publish_seconds, 3) + ",\n";
  json += "    \"batch_size\": " + std::to_string(kBatchSize) + "\n";
  json += "  },\n  \"benchmarks\": [\n";
  json += json_entry("ServingPointQuery", point_queries, point_qps, point_p50,
                     point_p99, point_ns.empty() ? 0 : point_ns.back());
  json += ",\n";
  json += json_entry("ServingBatchQuery", batch_queries, batch_qps, batch_p50,
                     batch_p99, batch_ns.empty() ? 0 : batch_ns.back());
  json += "\n  ]\n}\n";

  const auto bytes = std::as_bytes(std::span<const char>{json.data(), json.size()});
  if (const auto status =
          util::atomic_write_file(util::local_filesystem(), out_path, bytes);
      !status.ok()) {
    std::printf("FAILED to write %s: %s\n", out_path.c_str(),
                status.message().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
