#!/usr/bin/env python3
"""Compares two sets of benchmark results (standard library only).

Each side is a directory (searched recursively) or a list of result
records written by perfbench/run.py. Prints one row per (workload,
metric) with each side's median and quartiles and a verdict, using the
bounds in BENCHMARK.json:

  regressed   the after median is worse than the before median by more
              than the metric's bound;
  improved    the after median is better by more than the before side's
              own spread (quartile distance) and after wins at least 90%
              of all before/after pairs;
  unchanged   neither, with both sides' spreads within the bound;
  unresolved  a side's spread (quartile distance / median) is wider than
              the bound, or it has fewer than two runs, and the two sides
              do not separate completely.

Per-layer metrics have no bound; their rows carry no verdict. Results
from different hosts or builds (CPU model, nproc, compiler, build type,
asserts, sanitizer) are refused unless --allow-cross-host is given, and
are then flagged.

    python3 perfbench/compare.py BEFORE AFTER [--allow-cross-host]

Exits 1 if any row regressed or any run failed an operation, 2 if the
sides cannot be compared.
"""

import argparse
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def load(paths):
    records = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, _, files in os.walk(path):
                records += [os.path.join(dirpath, f) for f in sorted(files)
                            if f.endswith(".json")]
        else:
            records.append(path)
    out = []
    for path in records:
        with open(path) as f:
            rec = json.load(f)
        if rec.get("schema") == "perfbench.result.v2":
            out.append(rec)
    return out


def machine(rec):
    h, b = rec["host"], rec["build"]
    return (h["cpu_model"], h["nproc"], b["compiler"], b["build_type"],
            b["asserts"], b["sanitizer"])


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before, after, bound, better):
    if len(before) < 2 or len(after) < 2:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(before)
    a1, am, a3 = quartiles(after)
    if bm == 0 or am == 0:
        return "unresolved"
    worse = sign * (am - bm) / abs(bm)  # > 0: after is worse
    pairs = [sign * (y - x) for x in before for y in after]
    wins = sum(p < 0 for p in pairs) / len(pairs)
    spread = max((b3 - b1) / abs(bm), (a3 - a1) / abs(am))
    if spread > bound:
        if wins == 1.0:
            return "improved"
        if wins == 0.0 and worse > bound:
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > (b3 - b1) / abs(bm) and wins >= 0.9:
        return "improved"
    return "unchanged"


def values(records, workload, trace, metric):
    return [r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]]


def fmt(v):
    return "%.4g" % v


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--allow-cross-host", action="store_true")
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    before, after = load([args.before]), load([args.after])
    if not before or not after:
        print("compare: no result records on one side", file=sys.stderr)
        return 2
    machines = {machine(r) for r in before + after}
    cross = len(machines) > 1
    if cross and not args.allow_cross_host:
        print("compare: results come from different hosts or builds:",
              file=sys.stderr)
        for m in sorted(machines, key=str):
            print("  " + " | ".join(map(str, m)), file=sys.stderr)
        print("rerun both sides on one host, or pass --allow-cross-host",
              file=sys.stderr)
        return 2
    if cross:
        print("WARNING: CROSS-HOST comparison; verdicts are not evidence\n")

    workloads = [w["name"] for w in spec["workloads"]]
    header = ("workload", "metric", "unit", "before median [q1, q3] (n)",
              "after median [q1, q3] (n)", "change", "verdict")
    rows = []
    regressed = False
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for w in workloads:
            for m in metrics:
                b = values(before, w, trace, m["name"])
                a = values(after, w, trace, m["name"])
                if not b or not a:
                    continue
                b1, bm, b3 = quartiles(b)
                a1, am, a3 = quartiles(a)
                change = "%+.1f%%" % (100 * (am - bm) / bm) if bm else "-"
                v = "-"
                if "bound" in m:
                    v = verdict(b, a, m["bound"], m["better"])
                    regressed |= v == "regressed"
                rows.append((w, m["name"], m["unit"],
                             "%s [%s, %s] (%d)" % (fmt(bm), fmt(b1),
                                                   fmt(b3), len(b)),
                             "%s [%s, %s] (%d)" % (fmt(am), fmt(a1),
                                                   fmt(a3), len(a)),
                             change, v))
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(wd) for c, wd in zip(r, widths)))

    failures = [(side, r["workload"], r["seed"], r["failed"])
                for side, recs in (("before", before), ("after", after))
                for r in recs if r["failed"]]
    for side, w, seed, n in failures:
        print("%s: %s seed %d failed %d operation(s)" % (side, w, seed, n))
    return 1 if regressed or failures else 0


if __name__ == "__main__":
    sys.exit(main())
