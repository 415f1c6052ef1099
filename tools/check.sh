#!/usr/bin/env bash
# tools/check.sh — the repo's static-analysis & sanitizer gate.
#
# Stages run fail-fast in the order of the STAGES table below (the one
# source of truth — `tools/check.sh --list` prints it, and the README's
# stage table is generated from the same text).  Per-stage wall time is
# reported at the end.
#
# Usage: tools/check.sh [--jobs N] [--list]
# Build trees live in build-tsan/, build-ubsan/, build-aubsan/,
# build-analysis/, build-strict/ next to the default build/ tree and are
# reused across runs.  Every configure exports compile_commands.json
# (CMAKE_EXPORT_COMPILE_COMMANDS=ON); the tidy and thread-safety stages
# share the build-analysis/ tree so clang-tidy and the Clang thread-safety
# build read one compile-commands DB.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

# name|what it does — the canonical stage list, in execution order.
STAGES=(
  "tsan|EYEBALL_SANITIZE=thread build; pool/parallel/streaming/serving determinism tests"
  "ubsan|EYEBALL_SANITIZE=undefined build; the FULL test suite with EYEBALL_DCHECK forced on and UB aborting"
  "snapshot-faults|EYEBALL_SANITIZE=address;undefined build; fault-injection differential harness + snapshot/file suites + text-parser mutation sweep"
  "artifact-faults|EYEBALL_SANITIZE=address;undefined build; serving-artifact differential + fault sweep (open + materialize of every mutated image)"
  "chaos|EYEBALL_SANITIZE=address;undefined build; 100-seed whole-lifecycle fault storms over EyeballService (Chaos.Concurrent* also under TSan)"
  "tidy|clang-tidy (.clang-tidy) over src/ via build-analysis/compile_commands.json [skipped when clang-tidy is absent]"
  "thread-safety|EYEBALL_THREAD_SAFETY=ON Clang build: capability analysis as errors + compile-fail probes [skipped when clang++ is absent]"
  "lint|tools/eyeball_lint.py self-test + repo scan, BENCH_*.json schema check, bench_diff self-test"
  "strict|EYEBALL_STRICT=ON (-Wconversion -Wdouble-promotion -Werror) build"
  "bench-smoke|each bm_* binary runs one cheap benchmark, bm_dataset also its snapshot save and restore axes (bit-rot guard; a missing or failing binary is a hard stage failure)"
  "format|clang-format --dry-run --Werror via the format-check target [skipped when clang-format is absent]"
)

list_stages() {
  local entry
  for entry in "${STAGES[@]}"; do
    printf '%-16s %s\n' "${entry%%|*}" "${entry#*|}"
  done
}

while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs)
      JOBS="$2"
      shift 2
      ;;
    --list)
      list_stages
      exit 0
      ;;
    *)
      echo "check.sh: unknown argument '$1' (usage: tools/check.sh [--jobs N] [--list])" >&2
      exit 2
      ;;
  esac
done

declare -a STAGE_NAMES=()
declare -a STAGE_TIMES=()
declare -a STAGE_RESULTS=()

run_stage() {
  local name="$1"
  shift
  local start
  start=$(date +%s)
  echo
  echo "=== stage: ${name} ==="
  if "$@"; then
    STAGE_RESULTS+=("ok")
  else
    local rc=$?
    STAGE_TIMES+=("$(( $(date +%s) - start ))")
    STAGE_NAMES+=("${name}")
    STAGE_RESULTS+=("FAIL")
    report
    echo "check.sh: stage '${name}' failed (exit ${rc})" >&2
    exit "${rc}"
  fi
  STAGE_TIMES+=("$(( $(date +%s) - start ))")
  STAGE_NAMES+=("${name}")
}

skip_stage() {
  local name="$1" why="$2"
  echo
  echo "=== stage: ${name} — SKIPPED (${why}) ==="
  STAGE_NAMES+=("${name}")
  STAGE_TIMES+=(0)
  STAGE_RESULTS+=("skip: ${why}")
}

report() {
  echo
  echo "=== check.sh stage summary ==="
  local i
  for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-14s %5ss  %s\n' "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}" \
      "${STAGE_RESULTS[$i]}"
  done
}

# --- tsan: the parallel-path determinism gate ------------------------------
tsan_stage() {
  cmake -B "${ROOT}/build-tsan" -S "${ROOT}" -DEYEBALL_SANITIZE=thread \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "${ROOT}/build-tsan" -j "${JOBS}"
  # NB: 'snapshot_test' deliberately does not match snapshot_fault_test —
  # the fault harness runs under ASan in the snapshot-faults stage instead
  # (its interleavings are single-threaded; snapshot_test carries the
  # restore→ingest→finalize thread axis that belongs under TSan).
  ctest --test-dir "${ROOT}/build-tsan" --output-on-failure -j "${JOBS}" \
    -R 'ThreadPool|Parallel|thread_pool|Dcheck|Streaming|streaming|snapshot_test|Serving|serving'
}

# --- ubsan: full suite with UB trapping and contracts on -------------------
ubsan_stage() {
  cmake -B "${ROOT}/build-ubsan" -S "${ROOT}" -DEYEBALL_SANITIZE=undefined \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "${ROOT}/build-ubsan" -j "${JOBS}"
  ctest --test-dir "${ROOT}/build-ubsan" --output-on-failure -j "${JOBS}"
}

# --- snapshot-faults: the crash-safety harness under ASan+UBSan ------------
snapshot_faults_stage() {
  cmake -B "${ROOT}/build-aubsan" -S "${ROOT}" \
    -DEYEBALL_SANITIZE="address;undefined" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "${ROOT}/build-aubsan" -j "${JOBS}" \
    -t snapshot_fault_test snapshot_test snapshot_golden_test file_test \
    parser_mutation_test
  ctest --test-dir "${ROOT}/build-aubsan" --output-on-failure -j "${JOBS}" \
    -R 'snapshot|file_test|FaultInjection|AtomicWriteFile|ParserMutation'
}

# --- artifact-faults: the serving artifact under ASan+UBSan ----------------
# Shares build-aubsan/ with snapshot-faults.  Every decode in the
# differential suite and the fault sweep runs the record reader under the
# sanitizers; the sweep's acceptance bar is zero silent corruptions (an
# image that both opens and materializes).
artifact_faults_stage() {
  cmake -B "${ROOT}/build-aubsan" -S "${ROOT}" \
    -DEYEBALL_SANITIZE="address;undefined" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "${ROOT}/build-aubsan" -j "${JOBS}" \
    -t artifact_test artifact_fault_test
  ctest --test-dir "${ROOT}/build-aubsan" --output-on-failure -j "${JOBS}" \
    -R 'artifact'
}

# --- chaos: whole-lifecycle fault storms over the serving layer ------------
# Shares build-aubsan/ with the fault stages (the storm's oracle includes
# memory-clean restores); the Chaos.Concurrent* slice additionally runs
# under the TSan tree, where readers polling health() and epochs race the
# retrying writer.
chaos_stage() {
  cmake -B "${ROOT}/build-aubsan" -S "${ROOT}" \
    -DEYEBALL_SANITIZE="address;undefined" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "${ROOT}/build-aubsan" -j "${JOBS}" -t chaos_test
  ctest --test-dir "${ROOT}/build-aubsan" --output-on-failure -R 'chaos'
  cmake -B "${ROOT}/build-tsan" -S "${ROOT}" -DEYEBALL_SANITIZE=thread \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "${ROOT}/build-tsan" -j "${JOBS}" -t chaos_test
  "${ROOT}/build-tsan/tests/chaos_test" --gtest_filter='Chaos.Concurrent*'
}

# --- build-analysis/: one Clang tree for tidy + thread-safety --------------
# Configured with clang++ when available so its compile_commands.json
# carries Clang-compatible flags for clang-tidy AND the tree doubles as the
# thread-safety build.  Falls back to the default compiler (tidy still
# works off gcc-flagged commands in practice) when clang++ is missing.
configure_analysis_tree() {
  local -a compiler_args=()
  if command -v clang++ > /dev/null 2>&1; then
    compiler_args+=("-DCMAKE_CXX_COMPILER=clang++" "-DEYEBALL_THREAD_SAFETY=ON")
  fi
  # ${arr[@]+...} guards the empty-array expansion against `set -u` on
  # older bash.
  cmake -B "${ROOT}/build-analysis" -S "${ROOT}" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON ${compiler_args[@]+"${compiler_args[@]}"}
}

# --- tidy: .clang-tidy over src/ -------------------------------------------
tidy_stage() {
  configure_analysis_tree
  local files
  files=$(find "${ROOT}/src" -name '*.cpp' | sort)
  # shellcheck disable=SC2086
  clang-tidy -p "${ROOT}/build-analysis" --quiet ${files}
}

# --- thread-safety: Clang capability analysis as errors --------------------
# Configure already ran the annotation layer's compile-fail probes (the
# locked probe must compile, the unlocked one must not); the build then
# sweeps the whole tree under -Werror=thread-safety-analysis.
thread_safety_stage() {
  configure_analysis_tree
  cmake --build "${ROOT}/build-analysis" -j "${JOBS}"
}

# --- lint: the repo-specific determinism rules -----------------------------
lint_stage() {
  python3 "${ROOT}/tools/eyeball_lint.py" --root "${ROOT}" --self-test
  python3 "${ROOT}/tools/eyeball_lint.py" --root "${ROOT}"
  python3 "${ROOT}/tools/check_bench_schema.py" --root "${ROOT}"
  python3 "${ROOT}/tools/bench_diff.py" --self-test
}

# --- bench-smoke: every bm_* binary compiles and runs ----------------------
# A bit-rot guard for the bench sources, not a timing gate: each binary runs
# one cheap benchmark (or, for bm_serving's custom driver, a full pass into
# a throwaway output file) with minimal iteration time, and only the exit
# status matters.  `set -e` is suspended inside a function invoked through
# run_stage's `if`, so every step carries an explicit `|| return 1` — and a
# bm_* binary that was never produced is a hard stage failure, not a shell
# 127 masked by a later success.
run_bench() {
  local bin="${ROOT}/build/bench/$1"
  shift
  if [[ ! -x "${bin}" ]]; then
    echo "check.sh: bench binary '${bin}' is missing — bench-smoke fails hard" >&2
    return 1
  fi
  "${bin}" "$@"
}

bench_smoke_stage() {
  cmake -B "${ROOT}/build" -S "${ROOT}" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON || return 1
  cmake --build "${ROOT}/build" -j "${JOBS}" \
    -t bm_dataset bm_kde bm_pipeline bm_prefix_trie bm_serving || return 1
  run_bench bm_kde \
    --benchmark_filter='BM_KdeBinned/1000$' --benchmark_min_time=0.01 || return 1
  run_bench bm_prefix_trie \
    --benchmark_filter='BM_TrieInsert/1000$' --benchmark_min_time=0.01 || return 1
  # These two share the generated-world fixture; its construction (crawl +
  # initial dataset build) dominates the stage's wall time.
  run_bench bm_pipeline \
    --benchmark_filter='BM_HaversineDistance' --benchmark_min_time=0.01 || return 1
  run_bench bm_dataset \
    --benchmark_filter='BM_DatasetFind' --benchmark_min_time=0.01 || return 1
  # Their setup ingests the crawl windows; the save loop digests the derived
  # state and writes the sample log, the restore loop replays it: the
  # streaming builder's durable state end to end.
  run_bench bm_dataset \
    --benchmark_filter='BM_SnapshotSave$' --benchmark_min_time=0.01 || return 1
  run_bench bm_dataset \
    --benchmark_filter='BM_SnapshotRestore$' --benchmark_min_time=0.01 || return 1
  local serving_out
  serving_out="$(mktemp /tmp/eyeball_bench_serving.XXXXXX.json)" || return 1
  run_bench bm_serving "${serving_out}" || { rm -f "${serving_out}"; return 1; }
  rm -f "${serving_out}"
}

# --- strict: narrowing/promotion warnings as errors ------------------------
strict_stage() {
  cmake -B "${ROOT}/build-strict" -S "${ROOT}" -DEYEBALL_STRICT=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "${ROOT}/build-strict" -j "${JOBS}"
}

# --- format: style drift check ---------------------------------------------
format_stage() {
  cmake --build "${ROOT}/build-strict" -t format-check
}

run_stage tsan tsan_stage
run_stage ubsan ubsan_stage
run_stage snapshot-faults snapshot_faults_stage
run_stage artifact-faults artifact_faults_stage
run_stage chaos chaos_stage
if command -v clang-tidy > /dev/null 2>&1; then
  run_stage tidy tidy_stage
else
  skip_stage tidy "clang-tidy not installed"
fi
if command -v clang++ > /dev/null 2>&1; then
  run_stage thread-safety thread_safety_stage
else
  skip_stage thread-safety "clang++ not installed (-Wthread-safety is Clang-only)"
fi
if command -v python3 > /dev/null 2>&1; then
  run_stage lint lint_stage
else
  skip_stage lint "python3 not installed"
fi
run_stage strict strict_stage
run_stage bench-smoke bench_smoke_stage
if command -v clang-format > /dev/null 2>&1; then
  run_stage format format_stage
else
  skip_stage format "clang-format not installed"
fi

report
echo
echo "check.sh: all stages passed"
