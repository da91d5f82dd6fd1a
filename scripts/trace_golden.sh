#!/usr/bin/env bash
# Golden-trace smoke (see WORKLOADS.md): validates the committed scenario
# traces, runs each one through sbulk-sweep under ScalableBulk, and diffs
# the per-tenant CSV against traces/GOLDEN_STATS.csv byte for byte.
# Scenario generation and replay are deterministic, so any diff is a
# behaviour change that must either be fixed or explicitly re-baselined
# with --update.
#
# Usage: scripts/trace_golden.sh [--update]
#   BUILD_DIR  build tree holding tools/sbulk-trace and tools/sbulk-sweep
#              (default: build; relative paths are from the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
TRACE="$BUILD_DIR/tools/sbulk-trace"
SWEEP="$BUILD_DIR/tools/sbulk-sweep"
GOLDEN=traces/GOLDEN_STATS.csv

for tool in "$TRACE" "$SWEEP"; do
    if [ ! -x "$tool" ]; then
        echo "error: $tool not built (set BUILD_DIR?)" >&2
        exit 2
    fi
done

out=$(mktemp)
trap 'rm -f "$out"' EXIT

first=1
for t in traces/*.sbt; do
    # Strict end-to-end structural scan first: a corrupt golden must fail
    # loudly, not replay garbage.
    "$TRACE" validate "$t" >/dev/null
    if [ "$first" = 1 ]; then
        "$SWEEP" --trace "$t" --protocols scalablebulk >>"$out"
        first=0
    else
        "$SWEEP" --trace "$t" --protocols scalablebulk | tail -n +2 >>"$out"
    fi
done

if [ "${1:-}" = "--update" ]; then
    mv "$out" "$GOLDEN"
    trap - EXIT
    echo "re-baselined $GOLDEN"
    exit 0
fi

diff -u "$GOLDEN" "$out"

# A fault-injected replay (see ROBUSTNESS.md) must still commit every
# request: the recovery layer composes with trace-driven workloads.
commits() {
    "$SWEEP" --trace traces/kv-zipf.sbt --protocols scalablebulk "$@" |
        sed -n 2p | cut -d, -f7
}
clean=$(commits)
faulted=$(commits --faults "seed=3,drop=0.02,dup=0.01")
if [ "$clean" != "$faulted" ]; then
    echo "error: fault-injected replay committed $faulted of $clean" >&2
    exit 1
fi

echo "trace goldens OK (commits under faults: $faulted/$clean)"
