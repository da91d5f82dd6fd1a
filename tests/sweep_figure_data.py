#!/usr/bin/env python3
"""Check that sbulk-sweep's --figure-data columns are consistent.

On every row of a small sweep, the directories-per-commit and the
commit-latency histograms each hold one sample per commit, and the six
per-class message counts add up to the message total.

Usage: tests/sweep_figure_data.py PATH/TO/sbulk-sweep
"""

import csv
import io
import subprocess
import sys

CLASSES = ["memRd", "remoteShRd", "remoteDirtyRd", "largeC", "smallC",
           "other"]


def total(hist):
    return sum(int(n) for n in hist.split(";")) if hist else 0


def main():
    out = subprocess.run([sys.argv[1], "--procs", "4", "--chunks", "32",
                          "--figure-data"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    rows = list(csv.DictReader(io.StringIO(out)))
    bad = 0
    for r in rows:
        where = f"{r['app']} {r['protocol']}"
        commits = int(r["commits"])
        for col in ("dirsHist", "latHist"):
            if total(r[col]) != commits:
                print(f"{where}: {col} sums to {total(r[col])}, "
                      f"commits {commits}")
                bad += 1
        classes = sum(int(r[c]) for c in CLASSES)
        if classes != int(r["messages"]):
            print(f"{where}: classes sum to {classes}, "
                  f"messages {r['messages']}")
            bad += 1
    if not rows or bad:
        sys.exit(f"{bad} inconsistent column(s) in {len(rows)} row(s)")
    print(f"figure data OK ({len(rows)} rows)")


if __name__ == "__main__":
    main()
