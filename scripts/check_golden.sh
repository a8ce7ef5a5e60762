#!/usr/bin/env bash
# Golden-report gate for the static analyses: the hazard verifier,
# translation validation, the cost model, the value-range pass and the
# call graph must print, byte for byte, the reports checked in under
# tests/data/golden/. A refactor of the CFG, the call graph or any
# analysis built on them is held to the same reports; a change that
# means to alter a report regenerates the goldens and shows the diff.
#
# Usage: scripts/check_golden.sh <mipsverify-binary> [--update]
#
# Cases (each golden file is the command's stdout plus a final
# `exit: N` line; run from the repo root, so paths print relative):
#
#   <prog>.full.out    mipsverify --no-time --reorg --tv --cost=json
#                        --range --callgraph tests/data/range/<prog>.s
#   <prog>.oracle.out  mipsverify --no-time --range-oracle --range
#                        tests/data/range/<prog>.s
#   corpus.out         mipsverify --corpus --no-time --json --tv --cost
#                        --range
#
# --update rewrites the goldens from the given binary instead of
# comparing. The `check_golden_reports` ctest gate runs the comparison.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 <mipsverify-binary> [--update]" >&2
    exit 2
fi
mipsverify=$1
update=${2:-}
repo_root=$(cd "$(dirname "$0")/.." && pwd)
golden_dir=tests/data/golden
cd "$repo_root"

if [ ! -x "$mipsverify" ]; then
    echo "check_golden: $mipsverify is not executable" >&2
    exit 2
fi

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
failures=0

# run_case NAME ARGS...: capture stdout and the exit status, then
# compare with (or, under --update, write) tests/data/golden/NAME.
run_case() {
    local name=$1
    shift
    local out=$scratch/$name status=0
    "$mipsverify" "$@" > "$out" || status=$?
    echo "exit: $status" >> "$out"
    if [ "$update" = "--update" ]; then
        mkdir -p "$golden_dir"
        cp "$out" "$golden_dir/$name"
    elif ! cmp -s "$out" "$golden_dir/$name"; then
        echo "check_golden: $name differs from $golden_dir/$name:" >&2
        diff -u "$golden_dir/$name" "$out" >&2 || true
        failures=$((failures + 1))
    fi
}

cases=0
for prog in tests/data/range/*.s; do
    base=$(basename "$prog" .s)
    run_case "$base.full.out" --no-time --reorg --tv --cost=json \
        --range --callgraph "$prog"
    run_case "$base.oracle.out" --no-time --range-oracle --range "$prog"
    cases=$((cases + 2))
done
run_case corpus.out --corpus --no-time --json --tv --cost --range
cases=$((cases + 1))

if [ "$update" = "--update" ]; then
    echo "check_golden: wrote $cases golden report(s) to $golden_dir"
    exit 0
fi
if [ "$failures" -ne 0 ]; then
    echo "check_golden: $failures of $cases report(s) changed" >&2
    exit 1
fi
echo "check_golden: $cases report(s) byte-identical"
