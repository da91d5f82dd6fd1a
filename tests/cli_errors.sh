#!/usr/bin/env bash
# Bad command lines against the real tools: each must exit 2 with exactly
# one line on stderr, and never reach a panic (which would abort with a
# backtrace). One good line checks that --debug-trace runs.
#
# Usage: tests/cli_errors.sh TOOLS_DIR
#   TOOLS_DIR  directory holding sbulk-sim, sbulk-sweep, sbulk-check and
#              sbulk-trace
set -uo pipefail

TOOLS=${1:?usage: cli_errors.sh TOOLS_DIR}
err=$(mktemp)
tmp=$(mktemp -d)
trap 'rm -rf "$err" "$tmp"' EXIT
failures=0

expect_usage_error() {
    "$TOOLS/$@" >/dev/null 2>"$err"
    local code=$? lines
    lines=$(wc -l <"$err")
    if [ "$code" != 2 ] || [ "$lines" != 1 ] || grep -q 'panic:' "$err"; then
        echo "FAIL: $* -> exit $code, $lines stderr line(s):" >&2
        head -n 5 "$err" >&2
        failures=$((failures + 1))
    fi
}

expect_usage_error sbulk-sim --procs 0
expect_usage_error sbulk-sim --procs abc
expect_usage_error sbulk-sim --sig-bits 3
expect_usage_error sbulk-sim --shards 64 --procs 16
expect_usage_error sbulk-sim --shards 2 --shard-map file:/nonexistent
expect_usage_error sbulk-sim --scenario kv-oltp --tenants 0
expect_usage_error sbulk-sim --chunk-instrs 0 --procs 4 --chunks 64
expect_usage_error sbulk-sim --trace commit,group
expect_usage_error sbulk-sim --no-such-flag
expect_usage_error sbulk-sweep --procs 0
expect_usage_error sbulk-sweep --procs 4 --shards 9
expect_usage_error sbulk-sweep --seed abc
expect_usage_error sbulk-check --procs 0
expect_usage_error sbulk-check --chunk-instrs 0
expect_usage_error sbulk-trace cat
expect_usage_error sbulk-trace cat missing.sbt --protocol tcc
expect_usage_error sbulk-trace validate missing.sbt --seed 5
expect_usage_error sbulk-trace replay kv.sbt

# A trace whose header is fine but whose records stop short fails mid-run,
# in a --jobs worker for the sweep.
trace=$(dirname "$0")/../traces/kv-zipf.sbt
head -c $(($(wc -c <"$trace") - 30)) "$trace" >"$tmp/cut.sbt"
expect_usage_error sbulk-sim --trace "$tmp/cut.sbt"
expect_usage_error sbulk-sweep --trace "$tmp/cut.sbt" --jobs 4

# Flags the trace header would silently override are refused.
expect_usage_error sbulk-sim --trace "$trace" --chunk-instrs 500
expect_usage_error sbulk-sim --trace "$trace" --seed 7
expect_usage_error sbulk-sim --scenario kv-zipf --procs 4 --chunk-instrs 500
expect_usage_error sbulk-sweep --trace "$trace" --chunk-instrs 500
expect_usage_error sbulk-sweep --trace "$trace" --seed 7
expect_usage_error sbulk-sweep --scenario kv-zipf --procs 4 \
    --chunk-instrs 500

if ! "$TOOLS/sbulk-sim" --debug-trace commit --procs 4 --chunks 16 \
    >/dev/null 2>&1; then
    echo "FAIL: sbulk-sim --debug-trace commit --procs 4 --chunks 16" >&2
    failures=$((failures + 1))
fi

if [ "$failures" != 0 ]; then
    echo "$failures command line(s) misbehaved" >&2
    exit 1
fi
echo "cli errors OK"
