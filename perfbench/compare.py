#!/usr/bin/env python3
"""Compares two sets of benchmark runs recorded by run.py --record.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For every workload and end-to-end metric present in both files it prints
each side's median and quartile spread (IQR / median), and the change of
the medians as a share of the base median. A change worse than the
metric's bound in BENCHMARK.json is a regression; a base spread wider than
the bound makes the metric unresolved. Per-layer metrics (traced runs) are
printed without a verdict.

Runs from different hosts (nproc, CPU model, build type or compiler
differ) are not comparable: the script lists the hosts and exits 3. Exit 1
means at least one regression or a run whose outputs failed their checks.
"""

import argparse
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "build_type", "compiler")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def hosts(records):
    return {tuple((k, r["provenance"].get(k)) for k in HOST_KEYS)
            for r in records}


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("nan")
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load(args.base), load(args.new)

    status = 0
    host_sets = hosts(base) | hosts(new)
    if len(host_sets) > 1:
        print("CROSS-HOST COMPARISON: the runs come from different hosts:")
        for h in sorted(host_sets):
            print("  " + ", ".join(f"{k}={v}" for k, v in h))
        return 3
    for r in base + new:
        if not r["result"]["correct"]:
            print(f"{r['workload']} seed {r['seed']}: outputs failed "
                  f"{r['result']['failed']} of {r['result']['attempted']} "
                  "checks")
            status = 1

    def collect(records, workload, trace):
        out = {}
        for r in records:
            if r["workload"] == workload and r["trace"] == trace:
                for name, m in r["result"]["metrics"].items():
                    out.setdefault(name, []).append(m["value"])
        return out

    workloads = sorted({r["workload"] for r in base} &
                       {r["workload"] for r in new})
    for workload in workloads:
        for trace in (0, 1):
            a, b = collect(base, workload, trace), collect(new, workload, trace)
            names = [n for n in a if n in b]
            if not names:
                continue
            print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'})")
            print(f"  {'metric':28s} {'base':>12s} {'spread':>7s} "
                  f"{'new':>12s} {'spread':>7s} {'change':>8s}  verdict")
            for name in names:
                spec = specs.get(name, {})
                (ma, sa), (mb, sb) = summary(a[name]), summary(b[name])
                change = (mb - ma) / abs(ma) if ma else float("nan")
                worse = change if spec.get("better") == "lower" else -change
                verdict = ""
                if "bound" in spec:
                    if sa > spec["bound"]:
                        verdict = "unresolved"
                    elif worse > spec["bound"]:
                        verdict = "REGRESSION"
                        status = max(status, 1)
                    else:
                        verdict = "ok"
                print(f"  {name:28s} {ma:12.6g} {sa:7.3f} {mb:12.6g} "
                      f"{sb:7.3f} {change:+8.3f}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
