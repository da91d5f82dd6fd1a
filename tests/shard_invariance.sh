#!/usr/bin/env bash
# The sharded kernel's determinism contract on the 16x16 torus: a 256-tile
# sweep prints the same CSV at 2 and at 4 shards, and that CSV is the
# recorded one (its md5 below). A change that is meant to alter simulated
# results re-records the md5 from `--shards 2`.
#
# Usage: tests/shard_invariance.sh TOOLS_DIR
#   TOOLS_DIR  directory holding sbulk-sweep
set -uo pipefail

TOOLS=${1:?usage: shard_invariance.sh TOOLS_DIR}
want=9bed8aba24acf6ce48f5c1d918af91c0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failures=0

# One run at a time at 4 shards, two at 2: four threads either way.
for cfg in "2 2" "4 1"; do
    read -r shards jobs <<<"$cfg"
    if ! "$TOOLS/sbulk-sweep" --apps Radix,FFT --procs 256 --chunks 512 \
        --shards "$shards" --jobs "$jobs" >"$tmp/out$shards"; then
        echo "FAIL: --shards $shards exited non-zero" >&2
        failures=$((failures + 1))
        continue
    fi
    got=$(md5sum <"$tmp/out$shards" | cut -d' ' -f1)
    if [ "$got" != "$want" ]; then
        echo "FAIL: --shards $shards CSV md5 $got, want $want" >&2
        failures=$((failures + 1))
    fi
done

[ "$failures" -eq 0 ] || exit 1
echo "shard invariance ok"
