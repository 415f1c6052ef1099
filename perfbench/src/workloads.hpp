// The two workloads, each driven through EyeballService's public API:
//
//   backfill  cycles of: a cold service ingests the six monthly windows,
//             each window ingest -> publish with snapshot and artifact
//             persisted; then a replica opens the last artifact with
//             restore_from_artifact, thaws every AS, and one reader probes
//             it with point and batch queries.  No reader runs beside the
//             writer.
//   trickle   set-up ingests the six months and publishes once; then small
//             re-crawl windows go ingest -> publish while one reader
//             queries the live service.
//
// Both report every end-to-end metric: backfill's read metrics describe the
// artifact-backed replica, trickle's the in-memory epoch under publishes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "world.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Profile profile;
  /// Empty: persist into process memory.  Otherwise a real directory.
  std::string persist_dir;
  /// Where the traced run writes its spans; empty = keep them unwritten.
  std::string trace_out;
  /// Flip one byte of the reference artifact (the gate must then trip).
  bool perturb_reference = false;
};

struct Threads {
  std::size_t nproc = 1;
  /// Writer threads: service, dataset and pipeline share one count.
  std::size_t writer = 1;
  /// The one reader (beside the writer on trickle, after it on backfill)
  /// is pinned to this CPU, so every run places it alike.
  int reader_cpu = 0;
};

/// Thread budget over the CPUs the process may run on: the writer gets all
/// but the last, the reader the last, so writer plus reader stay within
/// nproc.
[[nodiscard]] Threads thread_budget(const std::vector<int>& cpus);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One-line facts printed before the result (counts, gate verdict).
  std::vector<std::string> notes;
};

[[nodiscard]] bool known_workload(const std::string& workload);

[[nodiscard]] Outcome run_workload(const Options& options, const Threads& threads);

/// Checks of the benchmark itself at the tiny profile: the counting
/// filesystem's byte total against the files on disk under `dir`, and the
/// correctness gate against an intact and a perturbed reference.  Returns
/// the failures, empty when every check passed.
[[nodiscard]] std::vector<std::string> self_test(const std::string& dir,
                                                 const Threads& threads);

}  // namespace perfbench
