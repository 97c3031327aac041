#!/usr/bin/env bash
# Usage-error matrix for the bioperfsim CLI: every command line below is
# a misuse (unknown command or option, missing operand, malformed value,
# or an option the command would silently ignore) and must exit 1.
#
#   scripts/cli_usage_matrix.sh <path-to-bioperfsim>
#
# Runs in a scratch directory it removes afterwards; the only file it
# records first is a Small hmmsearch trace for the --trace-in lines.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <path-to-bioperfsim>" >&2
  exit 2
fi
sim="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

expect() {
  want=$1; shift
  set +e; "$@" > fault_out.log 2>&1; got=$?; set -e
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: exit $got, wanted $want: $*"
    cat fault_out.log
    exit 1
  fi
  echo "ok   exit $got: $*"
}

"$sim" time hmmsearch --scale s --trace-out fp_ok.bptrace > /dev/null

# Unknown or malformed option values are usage errors, never
# silently replaced by a default.
expect 1 "$sim" time hmmsearch --scale x
expect 1 "$sim" time hmmsearch --platform p5
expect 1 "$sim" time hmmsearch --variant fast
expect 1 "$sim" time hmmsearch --seed 4x2
expect 1 "$sim" time hmmsearch --sample --sample-interval 10k
expect 1 "$sim" speedup hmmsearch --threads -1
expect 1 "$sim" time hmmsearch --predictor bogus
expect 1 "$sim" speedup hmmsearch --predictor bogus
# So are options the command would silently ignore.
expect 1 "$sim" time hmmsearch --salvage
expect 1 "$sim" characterize hmmsearch --sample --salvage
expect 1 "$sim" characterize hmmsearch \
  --trace-in fp_ok.bptrace --trace-out fp_unused.bptrace
expect 1 "$sim" time hmmsearch \
  --trace-in fp_ok.bptrace --trace-out fp_unused.bptrace
expect 1 "$sim" characterize hmmsearch --platform p4
expect 1 "$sim" characterize hmmsearch --predictor gshare
expect 1 "$sim" candidates hmmsearch --platform p4
expect 1 "$sim" characterize hmmsearch --threads 8
expect 1 "$sim" time hmmsearch --threads 2
expect 1 "$sim" speedup hmmsearch --variant xform
expect 1 "$sim" candidates hmmsearch --variant xform
expect 1 "$sim" list --seed 3
expect 1 "$sim" list --json l.json
expect 1 "$sim" dump hmmsearch --json d.json
expect 1 "$sim" salvage fp_ok.bptrace --scale m
expect 1 "$sim" salvage fp_ok.bptrace --seed 9
expect 1 "$sim" salvage fp_ok.bptrace --variant xform
# An unknown command is rejected before its operand is looked at, and
# every command takes exactly its own operand.
expect 1 "$sim" bogus nosuchapp
expect 1 "$sim" bogus hmmsearch
expect 1 "$sim"
expect 1 "$sim" salvage
expect 1 "$sim" list extra

# A rejected command line writes nothing.
for f in l.json d.json fp_unused.bptrace; do
  if [ -e "$f" ]; then
    echo "FAIL: a rejected command line wrote $f"
    exit 1
  fi
done
echo "every misuse exits 1"
