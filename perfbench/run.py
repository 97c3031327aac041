#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles
the simulator library from ../src) into .bench_build/perfbench under the
checkout root, runs one workload in one driver process, checks every
operation against the references in perfbench/references/, and prints
one JSON line as the last line of standard output:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The full record of the run (host,
build, samples, operation counts, spans) is written to
.bench_results/<workload>/ for perfbench/compare.py.

    python3 perfbench/run.py --workload characterize-suite --seed 3 \\
        --seconds 20 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

# Sampled CPI error above this share of full-replay cycles fails the
# operation (the sampling accuracy gate of the repository's benches).
MAX_CPI_ERR_PCT = 2.0
# Whole run, driver included, must end within this many seconds.
RUN_DEADLINE_S = 175.0


def fail(message):
    """Reports a problem that prevents a result and exits non-zero."""
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; returns seconds spent."""
    t0 = time.monotonic()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return time.monotonic() - t0


def host_info():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model or platform.processor(),
        "nproc": os.cpu_count(),
        "system": platform.system() + " " + platform.release(),
        "machine": platform.machine(),
    }


def source_digest():
    """SHA-256 over the simulator sources, naming the code measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def load_references(workload):
    path = os.path.join(BENCH_DIR, "references", workload + ".json")
    if not os.path.exists(path):
        fail("no references for workload %r" % workload)
    with open(path) as f:
        return json.load(f)


def cpi_error_pct(op, full_cycles):
    """|sampled projection - full replay| / full replay, in percent."""
    platform_name = op["name"].split("/", 1)[1]
    full = full_cycles.get(platform_name)
    if not full:
        return None
    return abs(op["projected_cycles"] - full) / full * 100.0


def check(result, ref):
    """Checks every operation; returns (attempted, failed, problems,
    max CPI error). An operation fails on a non-OK status, a false
    verified flag, a fingerprint other than the reference's, or a
    sampled CPI error above MAX_CPI_ERR_PCT."""
    expected = ref["ops"]
    full_cycles = ref.get("full_cycles", {})
    attempted = failed = 0
    problems = []
    seen = set()
    cpi_err = None
    for op in result["ops"]:
        attempted += 1
        name = op["name"]
        seen.add(name)
        why = None
        if not op["ok"]:
            why = op.get("error", "failed")
        elif not op["verified"]:
            why = "output does not match the golden model"
        elif expected.get(name) != op["fingerprint"]:
            why = "fingerprint %s, reference %s" % (op["fingerprint"],
                                                    expected.get(name))
        elif "projected_cycles" in op:
            err = cpi_error_pct(op, full_cycles)
            if err is None:
                why = "no full-replay reference"
            else:
                cpi_err = err if cpi_err is None else max(cpi_err, err)
                if err > MAX_CPI_ERR_PCT:
                    why = "sampled CPI error %.3f%%" % err
        if why:
            failed += 1
            problems.append("%s: %s" % (name, why))
    for name in sorted(set(expected) - seen):
        if not name.startswith("full/"):
            attempted += 1
            failed += 1
            problems.append("%s: not run" % name)
    for probe in result.get("probe_failures", []):
        attempted += 1
        failed += 1
        problems.append("probe " + probe)
    return attempted, failed, problems, cpi_err


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload,
                                                ", ".join(names)))
    build_s = build()
    ref_all = load_references(args.workload)
    pool = ref_all["app_seeds"]
    app_seed = pool[args.seed % len(pool)]
    ref = ref_all["seeds"][str(app_seed)]

    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [DRIVER, "--workload", args.workload, "--app-seed", str(app_seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    budget = RUN_DEADLINE_S - (time.monotonic() - started)
    if build_s > 60:
        budget = max(budget, RUN_DEADLINE_S)  # first run in a checkout
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %.0f s" % budget)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    result = json.loads(proc.stdout)

    attempted, failed, problems, cpi_err = check(result, ref)
    if args.trace:
        declared = bench["per_layer"]
        values = dict(result["per_layer"])
        if cpi_err is not None:
            values["sampling.cpi_err_pct"] = cpi_err
    else:
        declared = bench["end_to_end"]
        values = result["end_to_end"]
    known = {m["name"] for m in declared}
    unknown = sorted(set(values) - known)
    if unknown:
        fail("driver reported undeclared metrics: " + ", ".join(unknown))
    # A per-layer metric the workload does not exercise reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}

    record = {
        # v2: wall_s and setup_s are medians of single-thread passes;
        # v1 records (fastest repetition, 2 workers) do not compare.
        "schema": "perfbench.result.v2",
        "workload": args.workload,
        "seed": args.seed,
        "app_seed": app_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "time_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": host_info(),
        "build": result["build"],
        "source_digest": source_digest(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": metrics,
        "passes": result["passes"],
        "samples": result["samples"],
        "spans": result.get("spans", {}),
    }
    out_dir = os.path.join(RESULTS_DIR, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    out = os.path.join(out_dir, "seed%d-trace%d-%s-%d.json" % (
        args.seed, args.trace, stamp, os.getpid()))
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    for p in problems[:20]:
        print("perfbench: FAILED " + p, file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
