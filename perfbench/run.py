#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--record results.jsonl]

The program (perfbench/perfbench.cc) is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) at the
repository's default build type. Build output goes to stderr. The run's
detail lines, a provenance line and, last, the result object go to stdout.
The result is checked against BENCHMARK.json: exactly its end-to-end
metrics with --trace 0, its per-layer metrics with --trace 1, each with
the listed unit. --record appends the result and its provenance as one
JSON line to a file for perfbench/compare.py.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TYPE = "RelWithDebInfo"  # the repository's default (CMakeLists.txt)
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "perfbench")


def cache_value(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_sha():
    """git sha when run from a clean clone; a hash of the sources when
    there is no git checkout; both, marked dirty, when the clone has
    uncommitted changes."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, check=True)
        git = "git:" + sha.stdout.strip()
        if not status.stdout.strip():
            return git
        return git + "-dirty+" + sources_hash()
    except (OSError, subprocess.CalledProcessError):
        return sources_hash()


def sources_hash():
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def provenance():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            match = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            if match:
                cpu = match.group(1).strip()
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = compiler
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "build_type": cache_value("CMAKE_BUILD_TYPE"),
            "compiler": version, "source": source_sha()}


def check_result(result, specs):
    """Returns why `result` breaks the BENCHMARK.json contract, or None."""
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    metrics = result["metrics"]
    if list(metrics) != [s["name"] for s in specs]:
        return "metric names differ from BENCHMARK.json"
    for spec in specs:
        m = metrics[spec["name"]]
        if m.get("unit") != spec["unit"]:
            return f"{spec['name']}: unit {m.get('unit')} != {spec['unit']}"
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{spec['name']}: value {value!r} is not a finite number"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--record", help="append the result to this file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    specs = bench["per_layer" if args.trace == "1" else "end_to_end"]

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    # On any failure the program's output goes to stderr, so that stdout
    # never ends in something that reads as a result.
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        log(f"benchmark program exited with code {run.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    problem = check_result(result, specs)
    if problem:
        sys.stderr.write(run.stdout)
        log(f"malformed result: {problem}")
        return 1

    facts = provenance()
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(facts, sort_keys=True))
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds,
                                "trace": int(args.trace),
                                "provenance": facts, "result": result}) + "\n")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
