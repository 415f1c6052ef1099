#!/usr/bin/env python3
"""Compares two benchmark baselines (BENCH_*.json) benchmark by benchmark.

Both the google-benchmark format (BENCH_dataset.json: entries with "name" +
"real_time", optionally "items_per_second"/"bytes_per_second") and the
bm_serving custom format (entries with "name" + "qps"/"p50_ns"/"p99_ns") are
understood; a benchmark present in only one file is reported but never fails
the run (axes come and go as the suite grows).

For each shared benchmark the primary throughput metric is compared
(items_per_second, bytes_per_second, or qps — whichever the entry carries;
falling back to 1/real_time when none is present, so "bigger is better"
uniformly).  The exit status is nonzero when any shared benchmark regressed
by more than --threshold (default 10%), which makes the tool usable as a CI
tripwire:

    tools/bench_diff.py old/BENCH_dataset.json BENCH_dataset.json
    tools/bench_diff.py --threshold 25 old.json new.json

When both files record the host that produced them (`context.host_name`,
`context.num_cpus`) and those differ, a CROSS-HOST warning naming the fields
precedes the table: such deltas mix host noise into the comparison.  The
warning never changes the exit status.

A benchmark recorded with repetitions is compared by its median aggregate,
under the name a single run of it carries, so a baseline recorded before an
axis gained repetitions still lines up with one recorded after.

`--self-test` runs the built-in fixtures (improvement, small wobble, real
regression, disjoint axes, malformed input, same host, different host,
repeated benchmarks) and
is wired into the lint ctest stage so the tool cannot bit-rot.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys


HOST_FIELDS = ("host_name", "num_cpus")


def index_entries(entries: list) -> dict[str, dict]:
    """Benchmark name -> entry.  A repeated benchmark (google-benchmark's
    `Repetitions` with aggregates) stands by its median under the name a
    single run of it carries (its run name without the `/repeats:N` part);
    its other aggregates and its per-repetition runs are dropped."""
    named = [e for e in entries if isinstance(e, dict) and isinstance(e.get("name"), str)]
    repeated = {e.get("run_name") for e in named if e.get("run_type") == "aggregate"}
    out: dict[str, dict] = {}
    for entry in named:
        if entry.get("run_type") == "aggregate":
            run_name = entry.get("run_name")
            if entry.get("aggregate_name") == "median" and isinstance(run_name, str):
                out[re.sub(r"/repeats:\d+", "", run_name)] = entry
        elif entry.get("run_name") not in repeated:
            out[entry["name"]] = entry
    return out


def load_benchmarks(path: pathlib.Path) -> tuple[dict[str, dict], dict]:
    """(benchmark name -> entry, the file's "context" object or {});
    raises ValueError on malformed input."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"{path}: unreadable or invalid JSON: {error}") from error
    if not isinstance(data, dict) or not isinstance(data.get("benchmarks"), list):
        raise ValueError(f"{path}: missing 'benchmarks' array")
    out = index_entries(data["benchmarks"])
    if not out:
        raise ValueError(f"{path}: no named benchmarks")
    context = data.get("context")
    return out, context if isinstance(context, dict) else {}


def warn_cross_host(old_context: dict, new_context: dict, out=sys.stdout) -> list[str]:
    """Prints a CROSS-HOST warning when a host field recorded by both files
    differs; returns the differing field names."""
    fields = [field for field in HOST_FIELDS
              if field in old_context and field in new_context
              and old_context[field] != new_context[field]]
    if fields:
        detail = ", ".join(f"{field} {old_context[field]!r} -> {new_context[field]!r}"
                           for field in fields)
        print(f"bench_diff: CROSS-HOST comparison ({detail}); deltas include host "
              f"noise", file=out)
    return fields


def throughput(entry: dict) -> tuple[float, str] | None:
    """(bigger-is-better metric, its name) for an entry, or None."""
    for key in ("items_per_second", "bytes_per_second", "qps"):
        value = entry.get(key)
        if isinstance(value, (int, float)) and value > 0:
            return float(value), key
    value = entry.get("real_time")
    if isinstance(value, (int, float)) and value > 0:
        return 1.0 / float(value), "1/real_time"
    return None


def diff(old: dict[str, dict], new: dict[str, dict], threshold_pct: float,
         out=sys.stdout) -> list[str]:
    """Prints the per-benchmark delta table; returns regression messages."""
    regressions: list[str] = []
    shared = [name for name in old if name in new]
    for name in shared:
        old_metric = throughput(old[name])
        new_metric = throughput(new[name])
        if old_metric is None or new_metric is None:
            print(f"  {name:<44} (no comparable metric)", file=out)
            continue
        old_value, metric = old_metric
        new_value, _ = new_metric
        delta_pct = (new_value / old_value - 1.0) * 100.0
        marker = ""
        if delta_pct < -threshold_pct:
            marker = "  << REGRESSION"
            regressions.append(
                f"{name}: {metric} fell {-delta_pct:.1f}% "
                f"({old_value:.4g} -> {new_value:.4g}), threshold {threshold_pct:.1f}%")
        print(f"  {name:<44} {metric:<18} {old_value:>12.4g} -> {new_value:>12.4g}"
              f"  {delta_pct:+7.1f}%{marker}", file=out)
    for name in old:
        if name not in new:
            print(f"  {name:<44} (removed in new baseline)", file=out)
    for name in new:
        if name not in old:
            print(f"  {name:<44} (new axis, no baseline)", file=out)
    if not shared:
        print("  (no shared benchmarks)", file=out)
    return regressions


def self_test() -> int:
    import io

    def bench(**entries):
        return {name: dict(e, name=name) for name, e in entries.items()}

    failures: list[str] = []

    def expect(label: str, condition: bool) -> None:
        if not condition:
            failures.append(label)

    sink = io.StringIO()
    # 1. Improvement: no regression reported.
    r = diff(bench(a={"items_per_second": 100.0}),
             bench(a={"items_per_second": 300.0}), 10.0, sink)
    expect("improvement passes", r == [])
    # 2. Small wobble below the threshold: passes.
    r = diff(bench(a={"items_per_second": 100.0}),
             bench(a={"items_per_second": 95.0}), 10.0, sink)
    expect("wobble below threshold passes", r == [])
    # 3. Real regression: reported.
    r = diff(bench(a={"items_per_second": 100.0}),
             bench(a={"items_per_second": 50.0}), 10.0, sink)
    expect("regression detected", len(r) == 1 and "fell 50.0%" in r[0])
    # 4. Disjoint axes: never fails.
    r = diff(bench(a={"items_per_second": 100.0}),
             bench(b={"items_per_second": 1.0}), 10.0, sink)
    expect("disjoint axes pass", r == [])
    # 5. real_time fallback: lower time is better.
    r = diff(bench(a={"real_time": 100.0}), bench(a={"real_time": 400.0}), 10.0, sink)
    expect("real_time fallback detects slowdown", len(r) == 1)
    # 6. qps metric (bm_serving schema).
    r = diff(bench(q={"qps": 1000.0}), bench(q={"qps": 10.0}), 10.0, sink)
    expect("qps regression detected", len(r) == 1)
    # 7. Malformed file raises.
    try:
        load_benchmarks(pathlib.Path("/nonexistent/bench.json"))
        expect("malformed input raises", False)
    except ValueError:
        pass
    # 8. Same host: no warning.
    host = {"host_name": "vm", "num_cpus": 4}
    warning = io.StringIO()
    expect("same host gives no warning",
           warn_cross_host(host, dict(host), warning) == [] and warning.getvalue() == "")
    # 9. Different num_cpus: the warning names the field.
    warning = io.StringIO()
    fields = warn_cross_host(host, dict(host, num_cpus=1), warning)
    expect("different num_cpus warns",
           fields == ["num_cpus"] and "CROSS-HOST" in warning.getvalue()
           and "num_cpus" in warning.getvalue())

    # 10. A repeated benchmark compares by its median under its run name.
    repeated = index_entries([
        {"name": "a/repeats:3", "run_name": "a/repeats:3", "run_type": "iteration",
         "real_time": 9.0},
        {"name": "a/repeats:3_mean", "run_name": "a/repeats:3", "run_type": "aggregate",
         "aggregate_name": "mean", "real_time": 1.0},
        {"name": "a/repeats:3_median", "run_name": "a/repeats:3", "run_type": "aggregate",
         "aggregate_name": "median", "real_time": 100.0},
        {"name": "b", "run_name": "b", "run_type": "iteration", "real_time": 5.0},
    ])
    expect("median aggregate keyed by run name",
           sorted(repeated) == ["a", "b"] and repeated["a"]["real_time"] == 100.0)
    r = diff(bench(a={"real_time": 100.0}), repeated, 10.0, sink)
    expect("single run compares with a median", r == [])

    for failure in failures:
        print(f"bench_diff self-test FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("bench_diff: self-test OK (10 fixtures)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", nargs="?", help="baseline BENCH_*.json")
    parser.add_argument("new", nargs="?", help="candidate BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent (default 10)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixtures and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.old or not args.new:
        parser.error("old and new baselines are required (or --self-test)")
    try:
        old, old_context = load_benchmarks(pathlib.Path(args.old))
        new, new_context = load_benchmarks(pathlib.Path(args.new))
    except ValueError as error:
        print(f"bench_diff: {error}", file=sys.stderr)
        return 1

    print(f"bench_diff: {args.old} -> {args.new} (threshold {args.threshold:.1f}%)")
    warn_cross_host(old_context, new_context)
    regressions = diff(old, new, args.threshold)
    for regression in regressions:
        print(f"bench_diff: REGRESSION {regression}", file=sys.stderr)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
