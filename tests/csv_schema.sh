#!/usr/bin/env bash
# One CSV schema: `sbulk-sim ... --csv` prints exactly what sbulk-sweep
# prints for the same run, for an app, a scenario and a faulted trace.
#
# Usage: tests/csv_schema.sh TOOLS_DIR
#   TOOLS_DIR  directory holding sbulk-sim and sbulk-sweep
set -uo pipefail

TOOLS=${1:?usage: csv_schema.sh TOOLS_DIR}
trace=$(dirname "$0")/../traces/kv-zipf.sbt
faults="seed=3,drop=0.02,dup=0.01"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failures=0

# run OUT TOOL ARGS...: TOOL's stdout into $tmp/OUT; it must exit 0.
run() {
    local out=$1 tool=$2
    shift 2
    if ! "$TOOLS/$tool" "$@" >"$tmp/$out"; then
        echo "FAIL: $tool $* exited non-zero" >&2
        failures=$((failures + 1))
    fi
}

# same CASE: the last sbulk-sim and sbulk-sweep outputs agree byte for byte.
same() {
    if ! diff -u "$tmp/sim" "$tmp/sweep" >&2; then
        echo "FAIL: $1: sbulk-sim --csv differs from sbulk-sweep" >&2
        failures=$((failures + 1))
    fi
}

run sim sbulk-sim --app LU --procs 8 --chunks 64 --csv
run sweep sbulk-sweep --apps LU --procs 8 --chunks 64 \
    --protocols scalablebulk
same "LU at 8 procs"

run sim sbulk-sim --scenario kv-zipf --procs 4 --requests 64 \
    --protocol tcc --csv
run sweep sbulk-sweep --scenario kv-zipf --procs 4 --requests 64 \
    --protocols tcc
same "kv-zipf at 4 procs"

run sim sbulk-sim --trace "$trace" --faults "$faults" --csv
run sweep sbulk-sweep --trace "$trace" --faults "$faults" \
    --protocols scalablebulk
same "faulted kv-zipf trace"

if [ "$failures" != 0 ]; then
    echo "$failures check(s) failed" >&2
    exit 1
fi
echo "csv schema OK"
