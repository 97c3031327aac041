#!/usr/bin/env python3
"""List the bioperf:: code of libbioperf.a that no product binary uses.

The products are the 20 binaries that produce the paper's results:
`bioperfsim`, the 14 benches, the 4 examples and `perfbench_driver`.
The script configures two builds in SCRATCH_DIR, the repository and
`cmake -S perfbench` (which builds its own libbioperf from the same
src/ and writes nothing under perfbench/), both with

    -O0 -ffunction-sections -fdata-sections  and  -Wl,--gc-sections

so the linker drops every function no root reaches. It builds the
products and the test binaries, and prints each bioperf:: text symbol
of libbioperf.a that no product binary defines, split into

  test-only         a test binary defines it, no product does;
  never referenced  no binary at all defines it,

with byte totals. std:: template instances are skipped, even those
over bioperf types: they belong to the standard library's code.

Why -O0: in an optimised build a function that is called only from
its own file is inlined there and its symbol disappears, so a real
call reads as unreached. At -O0 nothing is inlined and every call is
a reference, so the list is exact. Asserts stay on (a Debug build is
a supported one), so code that only checks invariants counts as used.

What the audit cannot see: an inline function in a header that
nothing calls is never emitted at all, in any object. Find those by
grep.

Usage:

    audit_unreached.py SCRATCH_DIR [--fail-on-never] [--jobs N]

--fail-on-never exits 1 when the "never referenced" list is not
empty. Needs cmake, a C++ toolchain, gtest and binutils' nm.
"""
import argparse
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
# A bioperf:: entity: a nested name whose first component is bioperf,
# possibly const/ref-qualified, a local entity (lambda, static local)
# inside one, or a virtual-call thunk to one.
BIOPERF = re.compile(r"^_Z(?:Z|Th-?\d+_|Tv-?\d+_-?\d+_)?N[rVKRO]*7bioperf")
TEXT_TYPES = set("TtWw")


def run(cmd, log):
    with open(log, "a") as out:
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
            sys.exit(f"failed: {' '.join(cmd)} (see {log})")


def build(src, tree, target, jobs, log):
    run(["cmake", "-S", src, "-B", tree, *FLAGS], log)
    cmd = ["cmake", "--build", tree, "-j", str(jobs)]
    if target:
        cmd += ["--target", target]
    run(cmd, log)


def text_symbols(path):
    """Mangled name -> size of every defined text symbol of @a path."""
    out = subprocess.run(["nm", "-S", "--defined-only", path],
                         capture_output=True, text=True, check=True).stdout
    syms = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[2] in TEXT_TYPES:
            syms[parts[3]] = max(syms.get(parts[3], 0), int(parts[1], 16))
        elif len(parts) == 3 and parts[1] in TEXT_TYPES:
            syms.setdefault(parts[2], 0)
    return syms


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()


def executables(directory):
    return sorted(
        os.path.join(directory, f) for f in os.listdir(directory)
        if os.path.isfile(os.path.join(directory, f))
        and os.access(os.path.join(directory, f), os.X_OK))


def report(title, names, lib):
    total = sum(lib[n] for n in names)
    print(f"{title}: {len(names)} symbols, {total} bytes")
    for size, pretty in sorted(zip((lib[n] for n in names),
                                   demangle(names)),
                               key=lambda p: (-p[0], p[1])):
        print(f"  {size:7d}  {pretty}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scratch", help="directory for the two build trees")
    ap.add_argument("--fail-on-never", action="store_true",
                    help="exit 1 if some symbol is referenced by no binary")
    ap.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    args = ap.parse_args()

    scratch = os.path.abspath(args.scratch)
    os.makedirs(scratch, exist_ok=True)
    log = os.path.join(scratch, "audit_build.log")
    repo_tree = os.path.join(scratch, "repo")
    bench_tree = os.path.join(scratch, "perfbench")
    build(REPO, repo_tree, None, args.jobs, log)
    build(os.path.join(REPO, "perfbench"), bench_tree, "perfbench_driver",
          args.jobs, log)

    products = [os.path.join(repo_tree, "src", "bioperfsim"),
                os.path.join(bench_tree, "perfbench_driver")]
    products += executables(os.path.join(repo_tree, "bench"))
    products += executables(os.path.join(repo_tree, "examples"))
    tests = [t for t in executables(os.path.join(repo_tree, "tests"))
             if t.endswith("_test")]
    if len(products) != 20:
        sys.exit(f"expected 20 product binaries, found {len(products)}")

    lib = {n: s for n, s in text_symbols(
        os.path.join(repo_tree, "src", "libbioperf.a")).items()
        if BIOPERF.match(n)}
    used = set()
    for p in products:
        used.update(text_symbols(p))
    tested = set()
    for t in tests:
        tested.update(text_symbols(t))

    unreached = [n for n in lib if n not in used]
    test_only = [n for n in unreached if n in tested]
    never = [n for n in unreached if n not in tested]
    print(f"libbioperf.a: {len(lib)} bioperf:: text symbols, "
          f"{sum(lib.values())} bytes; {len(products)} products, "
          f"{len(tests)} test binaries")
    report("test-only", test_only, lib)
    report("never referenced", never, lib)
    if args.fail_on_never and never:
        print("FAIL: some bioperf:: code is referenced by no binary")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
