#!/usr/bin/env python3
"""Compare two bench --json files and print per-config deltas.

Records are keyed by (bench, n, algorithm, model, threads, k, sketch,
sketch_block, incr_mode, batch, rate); k is 0 for records without a
candidate-count dimension (everything except the cover bench, which
sweeps k at fixed n), sketch / sketch_block are "" / 0 outside the sketch
bench (which sweeps screen off-vs-auto at a fixed block span), and
incr_mode / batch are "" / 0 outside the incremental-maintenance bench
(which compares per-batch AppendBatch latency against a from-scratch run
at each batch size), and rate is 0.0 outside the serving bench (which
sweeps tenant count and pacing; its batch slot is the append frame size
and its threads slot the client count). The compared quantity is
`seconds` (end-to-end wall clock; mean per-batch latency on incr rows).
Configs present in only one file are listed separately. When both
records carry the parallel observability block, speedup and imbalance
deltas are shown too; when both carry the cover block, cover_speedup and
stale-re-evaluation deltas are shown; when both carry the sketch block,
prune-rate deltas (or bytes-per-tick deltas for the store-footprint rows)
are shown; when both carry the incr block,
amortized-speedup and warm-heap-pop deltas are shown. Measurement
provenance (repeats / warmups, like the SIMD backend and the raw
pruned/scanned and rebuild/dirty counters) is dropped from keys and
comparisons. Host provenance (the `provenance` object: nproc, CPU model,
build type, compiler) is dropped too, with a warning when the two files
were recorded on different hosts.

Usage:
  tools/bench_diff.py OLD.json NEW.json [--threshold=5] [--fail-on-regress]

  --threshold=PCT      mark a config as a regression when NEW is more than
                       PCT percent slower than OLD (default 5)
  --fail-on-regress    exit 1 if any regression was marked (for CI gates)

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys


# Provenance fields that identify the measuring host (the same keys
# perfbench/compare.py checks); the source sha may differ between files.
HOST_KEYS = ("nproc", "cpu_model", "build_type", "compiler")


def load_records(path, hosts):
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise SystemExit(f"{path}: expected a JSON array of records")
    records = {}
    for record in data:
        # The optional obs-registry snapshot (BenchJson::AttachMetrics) is
        # process-cumulative state, not a per-config quantity — drop it so
        # it can never leak into keys or comparisons. Likewise the SIMD
        # backend field: machine provenance, not part of the config.
        record.pop("metrics", None)
        record.pop("backend", None)
        host = record.pop("provenance", None)
        if host is not None:
            hosts.add(tuple((k, host.get(k)) for k in HOST_KEYS))
        record.pop("repeats", None)
        record.pop("warmups", None)
        record.pop("anchors_pruned", None)
        record.pop("sketch_scan_blocks", None)
        record.pop("candidates_extended", None)
        record.pop("full_rebuilds", None)
        record.pop("dirty_anchors", None)
        record.pop("serve_faults", None)
        record.pop("serve_evictions", None)
        key = (
            record.get("bench", ""),
            record.get("n", 0),
            record.get("algorithm", ""),
            record.get("model", ""),
            record.get("threads", 1),
            record.get("k", 0),
            record.get("sketch", ""),
            record.get("sketch_block", 0),
            record.get("incr_mode", ""),
            record.get("batch", 0),
            record.get("rate", 0.0),
        )
        if key in records:
            print(f"warning: {path}: duplicate record for {key}; "
                  "keeping the last one", file=sys.stderr)
        records[key] = record
    return records


def fmt_key(key):
    bench, n, algorithm, model, threads, k, sketch, sketch_block, \
        incr_mode, batch, rate = key
    text = f"{bench} n={n} {algorithm} {model} threads={threads}"
    if k:
        text += f" k={k}"
    if sketch:
        text += f" sketch={sketch}"
    if sketch_block:
        text += f" sketch_block={sketch_block}"
    if incr_mode:
        text += f" incr_mode={incr_mode}"
    if batch:
        text += f" batch={batch}"
    if rate:
        text += f" rate={rate:g}"
    return text


def main():
    parser = argparse.ArgumentParser(
        description="Diff two bench JSON files per config.")
    parser.add_argument("old", help="baseline bench JSON file")
    parser.add_argument("new", help="candidate bench JSON file")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="regression threshold in percent (default 5)")
    parser.add_argument("--fail-on-regress", action="store_true",
                        help="exit 1 when any config regresses past the "
                             "threshold")
    args = parser.parse_args()

    old_hosts, new_hosts = set(), set()
    old = load_records(args.old, old_hosts)
    new = load_records(args.new, new_hosts)
    if old_hosts and new_hosts and old_hosts != new_hosts:
        # Timings from different machines do not measure the code change.
        print("warning: the files were recorded on different hosts:")
        for host in sorted(old_hosts | new_hosts):
            print("  " + ", ".join(f"{k}={v}" for k, v in host))

    shared = sorted(set(old) & set(new))
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))

    regressions = []
    print(f"comparing {args.old} (old) vs {args.new} (new): "
          f"{len(shared)} shared config(s)")
    for key in shared:
        o, n = old[key], new[key]
        o_sec, n_sec = o.get("seconds", 0.0), n.get("seconds", 0.0)
        if o_sec > 0:
            delta_pct = 100.0 * (n_sec - o_sec) / o_sec
            delta = f"{delta_pct:+.1f}%"
        else:
            delta_pct = 0.0
            delta = "n/a"
        marker = ""
        if o_sec > 0 and delta_pct > args.threshold:
            marker = "  <-- REGRESSION"
            regressions.append(key)
        elif o_sec > 0 and delta_pct < -args.threshold:
            marker = "  (improved)"
        line = (f"  {fmt_key(key)}: {o_sec:.3f}s -> {n_sec:.3f}s "
                f"({delta}){marker}")
        extras = []
        if "speedup" in o and "speedup" in n:
            extras.append(f"speedup {o['speedup']:.2f}x -> "
                          f"{n['speedup']:.2f}x")
        if "imbalance" in o and "imbalance" in n:
            extras.append(f"imbalance {o['imbalance']:.2f} -> "
                          f"{n['imbalance']:.2f}")
        if o.get("cover_speedup") and n.get("cover_speedup"):
            extras.append(f"cover_speedup {o['cover_speedup']:.1f}x -> "
                          f"{n['cover_speedup']:.1f}x")
        if "stale_reevaluations" in o and "stale_reevaluations" in n:
            extras.append(f"stale {o['stale_reevaluations']} -> "
                          f"{n['stale_reevaluations']}")
        if "prune_rate" in o and "prune_rate" in n:
            extras.append(f"prune_rate {o['prune_rate']:.3f} -> "
                          f"{n['prune_rate']:.3f}")
        if "bytes_per_tick" in o and "bytes_per_tick" in n:
            extras.append(f"bytes_per_tick {o['bytes_per_tick']:.2f} -> "
                          f"{n['bytes_per_tick']:.2f}")
        if o.get("incr_speedup") and n.get("incr_speedup"):
            extras.append(f"incr_speedup {o['incr_speedup']:.1f}x -> "
                          f"{n['incr_speedup']:.1f}x")
        if "cover_warm_pops" in o and "cover_warm_pops" in n:
            extras.append(f"warm_pops {o['cover_warm_pops']} -> "
                          f"{n['cover_warm_pops']}")
        if "p99_ms" in o and "p99_ms" in n:
            extras.append(f"p50 {o.get('p50_ms', 0):.2f}ms -> "
                          f"{n.get('p50_ms', 0):.2f}ms")
            extras.append(f"p99 {o['p99_ms']:.2f}ms -> {n['p99_ms']:.2f}ms")
        if "ticks_per_sec" in o and "ticks_per_sec" in n:
            extras.append(f"ticks/s {o['ticks_per_sec']:.0f} -> "
                          f"{n['ticks_per_sec']:.0f}")
        if extras:
            line += "\n      " + ", ".join(extras)
        print(line)

    for key in only_old:
        print(f"  {fmt_key(key)}: only in {args.old}")
    for key in only_new:
        print(f"  {fmt_key(key)}: only in {args.new}")

    if regressions:
        print(f"{len(regressions)} regression(s) past "
              f"{args.threshold:.1f}% threshold")
        if args.fail_on_regress:
            return 1
    else:
        print("no regressions past threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
