#!/usr/bin/env python3
"""Regenerates the correctness references in perfbench/references/.

For each workload, counts the instructions its runs execute (driver
--count) for candidate app seeds 1..N, then runs every operation once
(driver --reference) for the candidates closest to the median count
until --pool of them pass, so every benchmark seed does about the same
amount of work. For each kept seed the reference stores each
operation's fingerprint and, for the sampled workload, the full-replay
cycles its CPI error is measured against. Candidates with a failed or
unverified operation, or a sampled CPI error above run.py's gate, are
never kept.

    python3 perfbench/make_references.py [--workload NAME ...]
        [--candidates 200] [--pool 16] [--jobs 2]

Run it only when a change is meant to alter simulated results, and say
so in the change: the benchmark fails every operation whose fingerprint
differs from these files.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import run


def driver(workload, app_seed, mode):
    os.makedirs(run.WORK_DIR, exist_ok=True)
    proc = subprocess.run(
        [run.DRIVER, "--workload", workload, "--app-seed", str(app_seed),
         "--seconds", "0", "--trace", "0", "--work-dir", run.WORK_DIR,
         mode], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def summarize(result):
    """Returns the reference entry, or None if any operation failed or
    a sampled projection misses full replay by more than the gate."""
    full = result.get("extra", {}).get("full_cycles", {})
    ops = {}
    for op in result["ops"]:
        if not op["ok"] or not op["verified"]:
            return None
        if "projected_cycles" in op and not (
                run.cpi_error_pct(op, full) <= run.MAX_CPI_ERR_PCT):
            return None
        ops[op["name"]] = op["fingerprint"]
    entry = {"ops": ops}
    if full:
        entry["full_cycles"] = full
    return entry


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--candidates", type=int, default=200)
    parser.add_argument("--pool", type=int, default=16)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in run.spec()["workloads"]]
    run.build()
    for workload in workloads:
        seeds = range(1, args.candidates + 1)
        with ThreadPoolExecutor(args.jobs) as pool:
            counts = dict(zip(seeds, pool.map(
                lambda s: driver(workload, s, "--count")["extra"]
                ["instructions"], seeds)))
        mid = statistics.median(counts.values())
        ranked = sorted(seeds, key=lambda s: (abs(counts[s] - mid), s))
        kept = {}
        while len(kept) < args.pool and ranked:
            batch, ranked = ranked[:args.pool - len(kept)], \
                ranked[args.pool - len(kept):]
            with ThreadPoolExecutor(args.jobs) as pool:
                results = list(pool.map(
                    lambda s: driver(workload, s, "--reference"), batch))
            for seed, result in zip(batch, results):
                summary = summarize(result)
                if summary is None:
                    print("%s: app seed %d failed, skipped" % (
                        workload, seed), file=sys.stderr)
                else:
                    kept[seed] = summary
        chosen = sorted(kept)
        sizes = [counts[s] for s in chosen]
        out = {
            "workload": workload,
            "note": "written by perfbench/make_references.py",
            "app_seeds": chosen,
            "instruction_spread": (max(sizes) - min(sizes)) / mid,
            "seeds": {str(s): kept[s] for s in chosen},
        }
        path = os.path.join(run.BENCH_DIR, "references", workload + ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
        print("%s: %d seeds, instruction spread %.2f%%" % (
            workload, len(chosen), 100 * out["instruction_spread"]))


if __name__ == "__main__":
    main()
