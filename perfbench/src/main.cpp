// perfbench: the repo benchmark's binary.  Usually started through
// perfbench/run.py, which builds it; see that file for the command line.
//
//   perfbench --workload <backfill|trickle> --seed N --seconds S
//             --trace <0|1> [--profile standard|tiny] [--persist-dir DIR]
//             [--trace-out FILE] [--perturb-reference]
//   perfbench --self-test DIR
//
// Prints a host stamp, per-operation counts and gate verdicts as JSON lines,
// then as its last line {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when the gate trips or any operation failed, 2 on bad usage.
#include <sched.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "workloads.hpp"

#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;

/// CPUs this process may run on (what `nproc` counts).
std::vector<int> cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
    }
  }
  return out;
}

/// Shortest decimal that reads back as the same double.
std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string{buffer, result.ptr};
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload backfill|trickle --seed N "
               "--seconds S --trace 0|1 [--profile standard|tiny] "
               "[--persist-dir DIR] [--trace-out FILE] [--perturb-reference]\n"
               "       perfbench --self-test DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build without NDEBUG\n");
  return 2;
#endif
  Options options;
  std::string self_test_dir;
  std::string trace_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb-reference") {
      options.perturb_reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace_flag = value;
    } else if (flag == "--profile") {
      if (value == "tiny") {
        options.profile = perfbench::tiny_profile();
      } else if (value != "standard") {
        return usage("unknown profile");
      }
    } else if (flag == "--persist-dir") {
      options.persist_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--self-test") {
      self_test_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  if (!self_test_dir.empty()) {
    const auto failures =
        perfbench::self_test(self_test_dir, perfbench::thread_budget(cpus()));
    for (const std::string& failure : failures) std::printf("self-test: %s\n", failure.c_str());
    std::printf("self-test: %s\n", failures.empty() ? "ok" : "FAILED");
    return failures.empty() ? 0 : 1;
  }
  if (!perfbench::known_workload(options.workload)) return usage("unknown workload");
  if (trace_flag != "0" && trace_flag != "1") return usage("--trace takes 0 or 1");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  options.trace = trace_flag == "1";

  const perfbench::Threads threads = perfbench::thread_budget(cpus());
  std::printf(
      "{\"host\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"nproc\": %zu, "
      "\"writer_threads\": %zu, \"reader_threads\": 1, \"reader_cpu\": %d, "
      "\"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"persist\": \"%s\"}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0, threads.nproc, threads.writer, threads.reader_cpu,
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      options.persist_dir.empty() ? "memory" : options.persist_dir.c_str());
  std::fflush(stdout);

  perfbench::Outcome outcome;
  try {
    outcome = perfbench::run_workload(options, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& note : outcome.notes) std::printf("%s\n", note.c_str());
  std::string metrics;
  for (const perfbench::Metric& metric : outcome.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + metric.name + "\": {\"value\": " + number(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return outcome.correct && outcome.failed == 0 ? 0 : 1;
}
