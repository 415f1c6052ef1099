#!/usr/bin/env python3
"""Sanity-checks the committed benchmark baselines (BENCH_*.json).

Two schemas are in play:

  BENCH_dataset.json   google-benchmark --benchmark_out format: a "context"
                       object and a non-empty "benchmarks" array whose
                       entries carry "name" and a numeric "real_time".

  BENCH_serving.json   the bm_serving custom driver's format: a "context"
                       object (readers/windows/epochs_published) and a
                       non-empty "benchmarks" array whose entries carry
                       "name", "queries", "qps" and p50/p99 tail latencies
                       with p50 <= p99.

Run from tools/check.sh's lint stage so a regenerated baseline that is
truncated, hand-mangled, or written by a crashed bench run fails fast.

Every BENCH_*.json at the repo root is checked: the two named above get
their full schema, and any future baseline gets the shared shell check —
which includes the context.eyeball_build_type == "release" stamp, so a
baseline recorded from a debug build can never land quietly.

Exit status: 0 when every present baseline validates, 1 otherwise.
BENCH_dataset.json and BENCH_serving.json are required (both are committed
artifacts of this repo).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def fail(path: pathlib.Path, message: str) -> str:
    return f"{path.name}: {message}"


def check_common(path: pathlib.Path) -> tuple[dict | None, list[str]]:
    """Parses the file and checks the shared context/benchmarks shell."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        return None, [fail(path, f"unreadable or invalid JSON: {error}")]
    errors = []
    if not isinstance(data, dict):
        return None, [fail(path, "top level is not an object")]
    if not isinstance(data.get("context"), dict):
        errors.append(fail(path, "missing or non-object 'context'"))
    else:
        # Baselines must come from an optimized build of the repo's own code.
        # The bench mains stamp "eyeball_build_type" from NDEBUG (see
        # bench/common.hpp); a missing stamp means the baseline predates the
        # stamp and must be re-recorded.  Note google-benchmark's own
        # "library_build_type" reports the *system benchmark library* flavor,
        # which this repo does not control — it is deliberately not checked.
        build_type = data["context"].get("eyeball_build_type")
        if build_type != "release":
            errors.append(
                fail(
                    path,
                    "context.eyeball_build_type is "
                    f"{build_type!r}, want 'release' — re-record this baseline "
                    "from an optimized (NDEBUG) build",
                )
            )
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        errors.append(fail(path, "missing, non-array, or empty 'benchmarks'"))
        return None, errors
    for i, entry in enumerate(benchmarks):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            errors.append(fail(path, f"benchmarks[{i}] has no string 'name'"))
    return data, errors


def check_dataset(path: pathlib.Path) -> list[str]:
    data, errors = check_common(path)
    if data is None:
        return errors
    names = set()
    for entry in data["benchmarks"]:
        name = entry.get("name", "?")
        names.add(name)
        if not isinstance(entry.get("real_time"), (int, float)):
            errors.append(fail(path, f"{name}: missing numeric 'real_time'"))
    # The serving-artifact rows are load-bearing (the open-latency acceptance
    # number lives in this baseline), and check_common already pinned the
    # whole file to an optimized build via the eyeball_build_type stamp — so
    # requiring the names here means the artifact numbers can never be
    # dropped or recorded from a debug build without this check firing.
    # The write axis runs serial (/1) and at pool width (/0).
    for required in ("BM_ArtifactWrite/1/real_time", "BM_ArtifactWrite/0/real_time",
                     "BM_ArtifactOpen"):
        if required not in names:
            errors.append(fail(path, f"missing required benchmark '{required}'"))
    return errors


def check_serving(path: pathlib.Path) -> list[str]:
    data, errors = check_common(path)
    if data is None:
        return errors
    context = data.get("context", {})
    for key in ("readers", "windows", "epochs_published"):
        if not isinstance(context.get(key), int) or context[key] <= 0:
            errors.append(fail(path, f"context.{key} missing or non-positive"))
    names = set()
    for entry in data["benchmarks"]:
        name = entry.get("name", "?")
        names.add(name)
        for key in ("queries", "qps", "p50_ns", "p99_ns"):
            if not isinstance(entry.get(key), (int, float)) or entry[key] < 0:
                errors.append(fail(path, f"{name}: missing/negative '{key}'"))
        if all(isinstance(entry.get(k), (int, float)) for k in ("p50_ns", "p99_ns")):
            if entry["p50_ns"] > entry["p99_ns"]:
                errors.append(fail(path, f"{name}: p50_ns exceeds p99_ns"))
        if isinstance(entry.get("queries"), (int, float)) and entry["queries"] <= 0:
            errors.append(fail(path, f"{name}: zero queries recorded"))
    for required in ("ServingPointQuery", "ServingBatchQuery"):
        if required not in names:
            errors.append(fail(path, f"missing required benchmark '{required}'"))
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    root = pathlib.Path(args.root)

    checkers = {
        "BENCH_dataset.json": check_dataset,
        "BENCH_serving.json": check_serving,
    }
    errors: list[str] = []
    for name, checker in checkers.items():
        if not (root / name).exists():
            errors.append(f"{name}: committed baseline is missing")
    # Glob rather than enumerate: a freshly added baseline gets at least the
    # shared shell check (incl. the release-build stamp) without anyone
    # remembering to register it here.
    for path in sorted(root.glob("BENCH_*.json")):
        checker = checkers.get(path.name)
        if checker is not None:
            errors.extend(checker(path))
        else:
            _, shell_errors = check_common(path)
            errors.extend(shell_errors)

    for error in errors:
        print(f"check_bench_schema: {error}", file=sys.stderr)
    if not errors:
        print("check_bench_schema: all baselines OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
