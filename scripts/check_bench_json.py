#!/usr/bin/env python3
"""Validate emitted BENCH_*.json / bioperfsim --json reports.

Stdlib-only CI gate: every report must parse as JSON, carry the
expected schema tag, declare ok=true, and contain the full manifest
(all ten keys, stages with wall time / instructions / simulated MIPS,
a well-formed failures array). A clean run must have failures == [];
fault-injection jobs pass --allow-failures, which permits ok=false
reports and populated failures arrays while still checking their
shape. Usage:

    check_bench_json.py [--allow-failures] FILE [FILE ...]
"""
import json
import sys

MANIFEST_KEYS = (
    "bench", "app", "variant", "scale", "seed", "platform",
    "threads", "trace_mode", "stages", "failures",
)
STAGE_KEYS = ("name", "wall_seconds", "instructions", "simulated_mips")
FAILURE_KEYS = ("app", "variant", "stage", "error")
SCHEMAS = ("bioperf.bench.v1", "bioperf.run.v1")

def check(path: str, allow_failures: bool = False) -> list:
    errors = []
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        return [f"unreadable or invalid JSON: {e}"]

    if report.get("schema") not in SCHEMAS:
        errors.append(f"bad schema tag: {report.get('schema')!r}")
    if "bench" not in report and "command" not in report:
        errors.append("missing 'bench'/'command' identity key")
    if report.get("ok") is not True and not allow_failures:
        errors.append(f"ok is {report.get('ok')!r}, expected true")
    if not isinstance(report.get("ok"), bool):
        errors.append(f"ok is {report.get('ok')!r}, expected a bool")

    manifest = report.get("manifest")
    if not isinstance(manifest, dict):
        errors.append("missing manifest object")
        return errors
    for key in MANIFEST_KEYS:
        if key not in manifest:
            errors.append(f"manifest missing key: {key}")
    stages = manifest.get("stages", [])
    if not isinstance(stages, list):
        errors.append("manifest.stages is not a list")
    else:
        for i, stage in enumerate(stages):
            for key in STAGE_KEYS:
                if key not in stage:
                    errors.append(f"stages[{i}] missing key: {key}")
    check_failures(manifest, allow_failures, errors)
    if not isinstance(report.get("metrics"), dict):
        errors.append("missing metrics object")
    return errors


def check_failures(manifest: dict, allow_failures: bool,
                   errors: list) -> None:
    """Shape-check manifest.failures; clean runs must have none."""
    failures = manifest.get("failures")
    if not isinstance(failures, list):
        errors.append("manifest.failures is not a list")
        return
    for i, failure in enumerate(failures):
        if not isinstance(failure, dict):
            errors.append(f"failures[{i}] is not an object")
            continue
        for key in FAILURE_KEYS:
            if key not in failure:
                errors.append(f"failures[{i}] missing key: {key}")
            elif not isinstance(failure[key], str):
                errors.append(f"failures[{i}].{key} is not a string")
        if not failure.get("error"):
            errors.append(f"failures[{i}].error is empty: a recorded "
                          "incident must say what went wrong")
    if failures and not allow_failures:
        errors.append(f"manifest.failures has {len(failures)} "
                      "entries; a clean run must have none "
                      "(fault jobs pass --allow-failures)")


def main(argv: list) -> int:
    allow_failures = False
    if argv and argv[0] == "--allow-failures":
        allow_failures = True
        argv = argv[1:]
    if not argv:
        print("usage: check_bench_json.py [--allow-failures] "
              "FILE [FILE ...]")
        return 2
    failed = 0
    for path in argv:
        errors = check(path, allow_failures)
        if errors:
            failed += 1
            for e in errors:
                print(f"FAIL {path}: {e}")
        else:
            print(f"ok   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
