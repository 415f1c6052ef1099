#!/usr/bin/env python3
"""The repo benchmark: builds perfbench in Release and runs one workload.

    python3 perfbench/run.py --workload backfill --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR if set,
else .bench_build/, and compiles only the benchmark and the libraries it links.
Every other argument is passed to the perfbench binary (see
perfbench/src/main.cpp); its last line of output is the result JSON.  A traced
run (--trace 1) writes its spans to traces/<workload>-seed<N>.jsonl in the
build directory unless --trace-out names another file.

--self-test builds, runs the binary's own checks (counting filesystem bytes
against the files on disk, the gate against a perturbed reference), then runs
each workload at the tiny profile in both modes and checks that every metric
BENCHMARK.json names appears with its unit, and that a perturbed reference
makes a run exit non-zero.
"""

import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the perfbench target; returns the binary."""
    if not os.path.isfile(os.path.join("src", "serve", "service.hpp")):
        raise RuntimeError("run from the root of a checkout: src/ is missing")
    out = build_dir()
    cmake_dir = os.path.join(out, "cmake")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    hook = os.path.abspath(os.path.join("perfbench", "hook.cmake"))
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", ".", "-B", cmake_dir, *generator,
             "-DCMAKE_BUILD_TYPE=Release",
             f"-DCMAKE_PROJECT_eyeball_INCLUDE={hook}"],
            check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs],
        check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(cmake_dir, "perfbench", "perfbench")


def run(binary, args, capture=False):
    """Runs the binary to completion (killed and reaped on timeout)."""
    stdout = subprocess.PIPE if capture else None
    with subprocess.Popen([binary, *args], stdout=stdout, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    return proc.returncode, out


def self_test(binary):
    problems = []
    workdir = os.path.join(build_dir(), "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    code, _ = run(binary, ["--self-test", workdir])
    if code != 0:
        problems.append("binary self-test failed")
    shutil.rmtree(workdir, ignore_errors=True)

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    tiny = ["--profile", "tiny", "--seconds", "1", "--seed", "3"]
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run(binary, ["--workload", workload, "--trace", str(trace), *tiny],
                            capture=True)
            result = json.loads(out.strip().splitlines()[-1])
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: run failed")
            for metric in wanted[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: {metric['name']} "
                                    f"missing or not in {metric['unit']}")
        code, out = run(binary, ["--workload", workload, "--trace", "0",
                                 "--perturb-reference", *tiny], capture=True)
        if code == 0 or json.loads(out.strip().splitlines()[-1])["correct"]:
            problems.append(f"{workload}: gate did not trip on a perturbed reference")
    for problem in problems:
        print(f"self-test: {problem}")
    print("self-test:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv):
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")
    if argv == ["--self-test"]:
        return self_test(binary)
    def flag(name):
        i = argv.index(name) if name in argv else len(argv)
        return argv[i + 1] if i + 1 < len(argv) else None

    if flag("--trace") == "1" and "--trace-out" not in argv:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{flag('--workload')}-seed{flag('--seed')}.jsonl"
        argv = [*argv, "--trace-out", os.path.join(traces, name)]
    try:
        code, _ = run(binary, argv)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
