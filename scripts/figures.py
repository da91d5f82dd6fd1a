#!/usr/bin/env python3
"""Regenerate the paper's figures, ablations and studies as tables.

Every table is a recipe: the sbulk-sweep command lines that produce its
data, plus a function that prints the table from their CSV rows. Recipes
that need the same sweep share one run, so fig07..fig19 together cost one
paper sweep (18 apps x 4 protocols x {32,64}p, with --figure-data) plus its
one-processor ScalableBulk baseline, whichever figures are asked for.

    python3 scripts/figures.py                        # every recipe
    python3 scripts/figures.py --quick fig09 abl-oci  # 320 chunks per run
    python3 scripts/figures.py --app LU fig13         # one application
    python3 scripts/figures.py --plot plots/ fig07    # also draw PNGs

The script runs the sbulk-sweep binary named by --sweep (default
build/tools/sbulk-sweep) with one worker per core; its CSV is the same at
any worker count. It needs only the standard library; --plot also needs
matplotlib.
A requested table that ends up with no rows (say, --app Radix on a PARSEC
figure) is an error: exit status 1.
"""

import argparse
import csv
import io
import subprocess
import sys
from collections import defaultdict
from functools import partial
from pathlib import Path

PROTOCOLS = ["ScalableBulk", "TCC", "SEQ", "BulkSC"]
DEFAULT_CHUNKS = 1280
QUICK_CHUNKS = 320


# -- Sweeps ----------------------------------------------------------------


class Sweeper:
    """Runs sbulk-sweep, once per distinct argument list."""

    def __init__(self, opt):
        self.binary = opt.sweep
        self.cache = {}

    def output(self, args):
        key = tuple(args)
        if key not in self.cache:
            cmd = [str(self.binary), *args, "--jobs", "0"]
            try:
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            except OSError as err:
                sys.exit(f"figures.py: cannot run {self.binary}: {err}")
            if done.returncode != 0:
                sys.exit(f"figures.py: '{' '.join(cmd)}' exited with "
                         f"status {done.returncode}")
            self.cache[key] = done.stdout
        return self.cache[key]

    def rows(self, args):
        return list(csv.DictReader(io.StringIO(self.output(args))))


def chunks(opt):
    if opt.chunks is not None:
        return opt.chunks
    return QUICK_CHUNKS if opt.quick else DEFAULT_CHUNKS


def apps_arg(opt, apps=None):
    """--apps for a recipe over @p apps (None = all 18), filtered by --app;
    None when the filter leaves nothing."""
    if apps is None:
        return ["--apps", opt.app] if opt.app else []
    kept = [a for a in apps if not opt.app or a == opt.app]
    return ["--apps", ",".join(kept)] if kept else None


def paper_sweeps(opt):
    """The paper sweep and the Fig 7/8 baseline: every figure's data."""
    base = ["--chunks", str(chunks(opt)), "--figure-data", *apps_arg(opt)]
    return [base, base + ["--procs", "1", "--protocols", "scalablebulk"]]


def knob_sweeps(apps, knob, values):
    """One sweep per knob value, at 64 processors, ScalableBulk."""

    def sweeps(opt):
        sel = apps_arg(opt, apps)
        if sel is None:
            return []
        return [sel + ["--procs", "64", "--protocols", "scalablebulk",
                       "--chunks", str(chunks(opt)), *knob(v)]
                for v in values]

    return sweeps


# -- Helpers for the tables --------------------------------------------------


def i(row, key):
    return int(row[key])


def f(row, key):
    return float(row[key])


def hist(row, key):
    return [int(x) for x in row[key].split(";")] if row[key] else []


def by(rows, *keys):
    """Index rows by a tuple of column values."""
    return {tuple(r[k] for k in keys): r for r in rows}


def average_rows(sums, fmt):
    """AVERAGE rows from {(key...): [sum..., n]} in insertion order."""
    return [fmt % ("AVERAGE", *key, *[s / acc[-1] for s in acc[:-1]])
            for key, acc in sums.items()]


# -- Figures 7-19 -------------------------------------------------------------

FRACTIONS = ["usefulFrac", "cacheMissFrac", "commitFrac", "squashFrac"]


def exec_table(suite, runs, opt):
    """Figs 7/8: execution time normalized to one-processor ScalableBulk,
    with the Useful/CacheMiss/Commit/Squash breakdown and speedups."""
    paper, base = runs
    one = {r["app"]: i(r, "makespan") for r in base}
    row_fmt = "%-14s %5s %-13s %8.4f %7.1f%% %8.1f%% %7.1f%% %7.1f%% %8.1f"
    lines = ["%-14s %5s %-13s %8s %8s %8s %8s %8s %8s" % (
        "app", "procs", "protocol", "normTime", "useful", "cacheMiss",
        "commit", "squash", "speedup")]
    sums = defaultdict(lambda: [0.0] * 6 + [0])
    for r in (r for r in paper if r["suite"] == suite):
        norm = i(r, "makespan") / one[r["app"]]
        fracs = [100 * f(r, k) for k in FRACTIONS]
        sp = one[r["app"]] / i(r, "makespan")
        lines.append(row_fmt % (r["app"], r["procs"], r["protocol"], norm,
                                *fracs, sp))
        acc = sums[(int(r["procs"]), r["protocol"])]
        for k, v in enumerate([norm, *fracs, sp]):
            acc[k] += v
        acc[-1] += 1
    if not sums:
        return []
    # The averages go protocol-major, like the rows.
    order = sorted(sums, key=lambda k: (PROTOCOLS.index(k[1]), k[0]))
    lines += ["", "-- AVERAGE over applications --"]
    return lines + average_rows({k: sums[k] for k in order}, row_fmt)


def dirs_table(suite, runs, opt):
    """Figs 9/10: directories per commit, Write/Read group, ScalableBulk."""
    row_fmt = "%-14s %5s %10.2f %11.2f %10.2f"
    lines = ["%-14s %5s %10s %11s %10s" % (
        "app", "procs", "total", "writeGroup", "readGroup")]
    sums = defaultdict(lambda: [0.0, 0.0, 0.0, 0])
    for r in runs[0]:
        if r["suite"] != suite or r["protocol"] != "ScalableBulk":
            continue
        # The width-1 histogram gives the exact mean; the CSV's dirs
        # column is rounded.
        h = hist(r, "dirsHist")
        total = sum(d * n for d, n in enumerate(h)) / sum(h) if h else 0.0
        vals = [total, f(r, "writeDirs")]
        vals.append(vals[0] - vals[1])
        lines.append(row_fmt % (r["app"], r["procs"], *vals))
        acc = sums[(int(r["procs"]),)]
        for k, v in enumerate(vals):
            acc[k] += v
        acc[-1] += 1
    if not sums:
        return []
    return lines + average_rows(dict(sorted(sums.items())), row_fmt)


def dirdist_table(suite, runs, opt):
    """Figs 11/12: distribution of directories per commit at 64p."""
    lines = ["%-14s" % "app" + "".join(" %5d" % d for d in range(15)) +
             " %5s" % "more"]
    for r in runs[0]:
        if (r["suite"] != suite or r["protocol"] != "ScalableBulk" or
                r["procs"] != "64"):
            continue
        h = hist(r, "dirsHist") + [0] * 15
        total = sum(h)
        pcts = [100 * n / total if total else 0.0
                for n in h[:15] + [sum(h[15:])]]
        lines.append("%-14s" % r["app"] +
                     "".join(" %4.1f%%" % p for p in pcts))
    return lines if len(lines) > 1 else []


def latency_table(runs, opt):
    """Fig 13: commit-latency distribution at 64p over every app, plus the
    32p and 64p means the paper quotes (Section 6.3)."""
    width = 25
    lines = []
    for proto in PROTOCOLS:
        rows = [r for r in runs[0] if r["protocol"] == proto]
        r64 = [r for r in rows if r["procs"] == "64"]
        r32 = [r for r in rows if r["procs"] == "32"]
        if not r64:
            continue
        merged = defaultdict(int)
        for r in r64:
            for b, n in enumerate(hist(r, "latHist")):
                merged[b] += n
        total = sum(merged.values()) or 1
        lines += ["",
                  "%s: mean latency  64p = %.0f cycles   32p = %.0f cycles  "
                  "(paper: SB 91/74, TCC 411/402, SEQ 153/107, BulkSC "
                  "2954/98)" % (proto,
                                sum(f(r, "latMean") for r in r64) / len(r64),
                                sum(f(r, "latMean") for r in r32) / len(r32)),
                  "  64p distribution (bucket = %d cycles, %% of commits):"
                  % width]
        # The first buckets, up to 99% of the mass.
        cum = 0.0
        for b in range(max(merged, default=-1) + 1):
            if cum >= 99.0:
                break
            pct = 100.0 * merged[b] / total
            cum += pct
            if pct >= 0.05:
                lines.append("    [%6d..%6d) %6.2f%%  cum %6.2f%%" % (
                    b * width, (b + 1) * width, pct, cum))
    return lines


def per_protocol_table(column, protocols, widths, suite, runs, opt):
    """One row per (app, procs) with @p column for each protocol: the
    bottleneck ratio (Figs 14/15) and the chunk queue length (16/17)."""
    rows = runs[0]
    cells = by(rows, "app", "procs", "protocol")
    row_fmt = "%-14s %5s" + "".join(" %%%d.2f" % w for w in widths)
    lines = [("%-14s %5s" + "".join(" %%%ds" % w for w in widths)) % (
        "app", "procs", *protocols)]
    sums = defaultdict(lambda: [0.0] * len(protocols) + [0])
    for r in rows:
        if r["suite"] != suite or r["protocol"] != protocols[0]:
            continue
        vals = [f(cells[(r["app"], r["procs"], p)], column) for p in protocols]
        lines.append(row_fmt % (r["app"], r["procs"], *vals))
        acc = sums[(int(r["procs"]),)]
        for k, v in enumerate(vals):
            acc[k] += v
        acc[-1] += 1
    if not sums:
        return []
    return lines + average_rows(dict(sorted(sums.items())), row_fmt)


def traffic_table(suite, runs, opt):
    """Figs 18/19: message count and class mix at 64p, normalized to TCC.
    A read counts its request and reply (dirty reads also a forward)."""
    cells = by(runs[0], "app", "procs", "protocol")
    lines = ["%-14s %-13s %8s %8s %9s %11s %8s %8s" % (
        "app", "protocol", "total%", "MemRd%", "RemShRd%", "RemDirtyRd%",
        "LargeC%", "SmallC%")]
    for r in runs[0]:
        if (r["suite"] != suite or r["protocol"] != "ScalableBulk" or
                r["procs"] != "64"):
            continue
        mix = {}
        for p in PROTOCOLS:
            c = cells[(r["app"], "64", p)]
            mix[p] = [2.0 * i(c, "memRd"), 2.0 * i(c, "remoteShRd"),
                      3.0 * i(c, "remoteDirtyRd"), float(i(c, "largeC")),
                      float(i(c, "smallC"))]
        tcc = sum(mix["TCC"])
        for p in PROTOCOLS:
            lines.append(
                "%-14s %-13s %7.1f%% %7.1f%% %8.1f%% %10.1f%% %7.1f%% "
                "%7.1f%%" % (r["app"], p, 100 * sum(mix[p]) / tcc,
                             *[100 * c / tcc for c in mix[p]]))
    return lines if len(lines) > 1 else []


# -- Ablations -----------------------------------------------------------------


def oci_table(runs, opt):
    """OCI on vs off (Section 3.3): commit latency and recalls at 64p."""
    on, off = runs
    lines = ["%-14s %-5s %10s %10s %9s" % (
        "app", "oci", "makespan", "commitLat", "recalls")]
    for a, b in zip(on, off):
        for label, r in (("on", a), ("off", b)):
            lines.append("%-14s %-5s %10d %10.1f %9d" % (
                r["app"], label, i(r, "makespan"), f(r, "latMean"),
                i(r, "recalls")))
    return lines if len(lines) > 1 else []


SIG_BITS = [512, 1024, 2048, 4096]


def signature_table(runs, opt):
    """Signature size vs aliasing squashes and formation failures."""
    if not runs:
        return []
    lines = ["%-14s %6s %10s %10s %10s %10s" % (
        "app", "bits", "makespan", "fails", "aliasSq", "trueSq")]
    for k, app_row in enumerate(runs[0]):
        for bits, rows in zip(SIG_BITS, runs):
            r = rows[k]
            lines.append("%-14s %6d %10d %10d %10d %10d" % (
                app_row["app"], bits, i(r, "makespan"), i(r, "failures"),
                i(r, "squashAlias"), i(r, "squashTrue")))
    return lines


STARVATION_OFF = 1 << 30
STARVATION_MAX = [4, 8, 24, 64, STARVATION_OFF]
ROTATION = [0, 2000, 10000, 50000]


def starvation_sweeps(opt):
    app = opt.app or "Radix"
    return (knob_sweeps([app], lambda m: ["--starvation-max", str(m)],
                        STARVATION_MAX)(opt) +
            knob_sweeps([app], lambda t: ["--rotation", str(t)],
                        ROTATION)(opt))


def starvation_table(runs, opt):
    """Starvation threshold MAX and leader rotation (Section 3.2.2)."""
    if not runs:
        return []
    head = "%-10s %10s %10s %8s %12s"
    lines = []
    for knob, values, off in (("MAX", STARVATION_MAX, STARVATION_OFF),
                              ("rotation", ROTATION, 0)):
        lines += ["", head % (knob, "makespan", "latMean", "latP90",
                              "fails")]
        for v, rows in zip(values, runs):
            r = rows[0]
            lines.append("%-10s %10d %10.1f %8d %12d" % (
                "off" if v == off else v, i(r, "makespan"), f(r, "latMean"),
                i(r, "latP90"), i(r, "failures")))
        runs = runs[len(values):]
    return lines[1:]


CHUNK_INSTRS = [500, 1000, 2000, 4000, 8000, 16000]


def chunk_size_sweeps(opt):
    """Total instructions stay fixed: fewer, larger chunks."""
    return [["--apps", opt.app or "Radix", "--procs", "64",
             "--protocols", "scalablebulk,tcc,seq",
             "--chunk-instrs", str(n),
             "--chunks", str(max(64, chunks(opt) * 2000 // n))]
            for n in CHUNK_INSTRS]


def chunk_size_table(runs, opt):
    """Section 2.2: commit share vs chunk size at 64p."""
    lines = ["%-13s %8s %10s %9s %9s %7s" % (
        "protocol", "chunk", "makespan", "commitLat", "commit%", "dirs")]
    for k in range(len(runs[0])):
        for n, rows in zip(CHUNK_INSTRS, runs):
            r = rows[k]
            lines.append("%-13s %8d %10d %9.0f %8.1f%% %7.1f" % (
                r["protocol"], n, i(r, "makespan"), f(r, "latMean"),
                100 * f(r, "commitFrac"), f(r, "dirs")))
    return lines if len(lines) > 1 else []


FAULT_RATES = [0.0, 0.001, 0.005, 0.01, 0.02, 0.05]
FAULT_COLUMNS = ["faultsInjected", "retransmissions", "dupsDropped",
                 "watchdogFires", "retryEscalations"]


def fault_sweeps(opt):
    """Drop+dup rate sweep at 32p; rate 0 runs with no fault plan at all."""
    base = ["--apps", opt.app or "Radix", "--procs", "32",
            "--protocols", "scalablebulk", "--chunks", str(chunks(opt))]
    return [base + (["--faults", f"seed=7, drop={r}, dup={r}"] if r else [])
            for r in FAULT_RATES]


def fault_table(runs, opt):
    """Cost of surviving a lossy interconnect (ROBUSTNESS.md)."""
    lines = ["%-8s %10s %8s %8s %8s %8s %8s %10s" % (
        "rate", "makespan", "faults", "retx", "dupdrop", "wdog", "escal",
        "recLatMean")]
    for rate, rows in zip(FAULT_RATES, runs):
        for r in rows:
            counts = [int(r.get(k, 0)) for k in FAULT_COLUMNS]
            lines.append("%-8.3f %10d %8d %8d %8d %8d %8d %10.1f" % (
                rate, i(r, "makespan"), *counts,
                float(r.get("recoveryLatMean", 0))))
    return lines if len(lines) > 1 else []


# -- Studies -------------------------------------------------------------------

SCALING_APPS = ["LU", "Barnes", "Radix"]


def scaling_sweeps(opt):
    sel = apps_arg(opt, SCALING_APPS)
    if sel is None:
        return []
    base = sel + ["--chunks", str(chunks(opt))]
    return [base + ["--procs", "2,4,8,16,32,64"],
            base + ["--procs", "1", "--protocols", "scalablebulk"]]


def scaling_table(runs, opt):
    """Speedup and commit overhead over 2..64 processors."""
    if not runs:
        return []
    curve, base = runs
    one = {r["app"]: i(r, "makespan") for r in base}
    lines = ["%-10s %-13s %5s %10s %8s %9s %9s" % (
        "app", "protocol", "procs", "makespan", "speedup", "commit%",
        "cmtLat")]
    for r in curve:
        lines.append("%-10s %-13s %5s %10d %8.1f %8.1f%% %9.1f" % (
            r["app"], r["protocol"], r["procs"], i(r, "makespan"),
            one[r["app"]] / i(r, "makespan"), 100 * f(r, "commitFrac"),
            f(r, "latMean")))
    return lines


def scenario_params(opt):
    return (8, 256) if opt.quick else (16, 2048)


def scenario_sweeps(opt):
    """Every serving scenario (or --app's) at one serving-shaped config."""
    procs, requests = scenario_params(opt)
    names = [s for s in SCENARIOS if not opt.app or s == opt.app]
    if not names:
        return []
    return [["--scenario", ",".join(names), "--procs", str(procs),
             "--tenants", "8", "--requests", str(requests), "--seed", "1"]]


def scenario_table(runs, opt):
    """Per-protocol throughput, p50/p99 and squashes, plus the tenant
    breakdown under ScalableBulk. p50/p99 are the worst tenant's."""
    if not runs:
        return []
    procs, requests = scenario_params(opt)
    lines = ["# %d cores, 8 tenants, %d requests, seed 1" % (procs, requests)]
    runs_by = defaultdict(list)
    for r in runs[0]:
        runs_by[(r["app"], r["protocol"])].append(r)
    for name, (family, summary) in SCENARIOS.items():
        if (name, PROTOCOLS[0]) not in runs_by:
            continue
        lines += ["", f"== {name} ({family}): {summary} ==",
                  "%-14s %10s %9s %9s %8s %8s %10s" % (
                      "protocol", "makespan", "commits", "squashes", "p50",
                      "p99", "req/Mcyc")]
        for proto in PROTOCOLS:
            rows = runs_by[(name, proto)]
            total = rows[0]
            tenants = [r for r in rows if r["tenant"] != "all"]
            makespan, commits = i(total, "makespan"), i(total, "commits")
            lines.append("%-14s %10d %9d %9d %8d %8d %10.1f" % (
                proto, makespan, commits, i(total, "tenantSquashes"),
                max((i(r, "tenantP50") for r in tenants), default=0),
                max((i(r, "tenantP99") for r in tenants), default=0),
                1e6 * commits / makespan if makespan else 0.0))
            if proto != "ScalableBulk":
                continue
            lines.append("  %-6s %9s %9s %8s %8s %9s" % (
                "tenant", "commits", "squashes", "p50", "p99", "sqRate"))
            for r in tenants:
                lines.append("  %-6s %9d %9d %8d %8d %9.4f" % (
                    r["tenant"], i(r, "tenantCommits"),
                    i(r, "tenantSquashes"), i(r, "tenantP50"),
                    i(r, "tenantP99"), f(r, "tenantSquashRate")))
    return lines


# name -> (family, summary), from `sbulk-sweep --list-scenarios`.
SCENARIOS = {}


# -- The recipes ---------------------------------------------------------------

# name: (title, sweeps(opt) -> [argument list], table(rows per sweep, opt)).
RECIPES = {}
# Each figure pair is the same table for SPLASH-2, then for PARSEC.
for n, title, table in [
        (7, "execution time", exec_table),
        (9, "directories per commit", dirs_table),
        (11, "directory-count distribution, 64p", dirdist_table),
        (14, "bottleneck ratio",
         partial(per_protocol_table, "bottleneck",
                 ["ScalableBulk", "TCC", "SEQ"], [14, 10, 10])),
        (16, "chunk queue length",
         partial(per_protocol_table, "queue", ["TCC", "SEQ"], [10, 10])),
        (18, "messages, normalized to TCC, 64p", traffic_table)]:
    for k, suite in enumerate(["SPLASH-2", "PARSEC"]):
        RECIPES["fig%02d" % (n + k)] = (
            f"Figure {n + k} ({suite} {title})", paper_sweeps,
            partial(table, suite))
RECIPES["fig13"] = ("Figure 13 (commit latency distribution, all "
                    "applications)", paper_sweeps, latency_table)
RECIPES = dict(sorted(RECIPES.items()))
RECIPES.update({
    "abl-oci": ("Ablation: optimistic commit initiation on/off, 64p",
                knob_sweeps(None, lambda off: ["--no-oci"] if off else [],
                            [False, True]),
                oci_table),
    "abl-signature": ("Ablation: signature size, 64p",
                      knob_sweeps(["Radix", "Barnes", "Canneal"],
                                  lambda b: ["--sig-bits", str(b)], SIG_BITS),
                      signature_table),
    "abl-starvation": ("Ablation: starvation MAX / leader rotation, 64p",
                       starvation_sweeps, starvation_table),
    "abl-chunk-size": ("Ablation: chunk size at fixed total work, 64p",
                       chunk_size_sweeps, chunk_size_table),
    "abl-fault-recovery": ("Ablation: drop+dup rate vs recovery, 32p",
                           fault_sweeps, fault_table),
    "scaling": ("Scaling study: LU, Barnes, Radix over 2..64p",
                scaling_sweeps, scaling_table),
    "scenarios": ("Serving scenarios, 4 protocols", scenario_sweeps,
                  scenario_table),
})


# -- Plots (--plot only) -------------------------------------------------------

CATEGORIES = [
    ("usefulFrac", "Useful", "#4477aa"),
    ("cacheMissFrac", "Cache Miss", "#66ccee"),
    ("commitFrac", "Commit", "#ee6677"),
    ("squashFrac", "Squash", "#aa3377"),
]


def plot(rows, out):
    """Draw the paper-sweep plots: exec_breakdown_{32,64}.png (Figs 7/8),
    dirs_per_commit.png (9/10), commit_latency.png (13) and
    queue_length.png (16/17)."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("figures.py: --plot needs matplotlib")
    out.mkdir(parents=True, exist_ok=True)
    cells = by(rows, "app", "procs", "protocol")
    apps = list(dict.fromkeys(r["app"] for r in rows))

    def cell(app, procs, proto, key):
        r = cells.get((app, procs, proto))
        return f(r, key) if r else 0.0

    for procs in ("32", "64"):
        bars(plt, out / f"exec_breakdown_{procs}.png",
             f"Execution breakdown, {procs} processors (bars per app: SB, "
             "TCC, SEQ, BulkSC)", "fraction of execution time", apps,
             [[(label, color, [cell(a, procs, p, key) for a in apps])
               for key, label, color in CATEGORIES] for p in PROTOCOLS])
    write = [cell(a, "64", "ScalableBulk", "writeDirs") for a in apps]
    total = [cell(a, "64", "ScalableBulk", "dirs") for a in apps]
    bars(plt, out / "dirs_per_commit.png",
         "Directories accessed per commit (64p, ScalableBulk)",
         "directories per chunk commit", apps,
         [[("Write Group", "#ee6677", write),
           ("Read Group", "#4477aa", [t - w for t, w in zip(total, write)])]])
    bars(plt, out / "commit_latency.png",
         "Commit latency by protocol (cf. paper Figure 13)",
         "mean commit latency (cycles)", PROTOCOLS,
         [[(f"{procs}p", None,
            [sum(cell(a, procs, p, "latMean") for a in apps) / len(apps)
             for p in PROTOCOLS])] for procs in ("32", "64")], log=True)
    bars(plt, out / "queue_length.png",
         "Chunk queue length, 64p (cf. paper Figures 16/17)",
         "chunk queue length", apps,
         [[(p, color, [cell(a, "64", p, "queue") for a in apps])]
          for p, color in (("TCC", "#ee6677"), ("SEQ", "#4477aa"))])
    print(f"wrote plots to {out}/")


def bars(plt, path, title, ylabel, labels, groups, log=False):
    """One bar per label and group, side by side; each group's bar stacks
    its (legend, color, values) segments."""
    fig, ax = plt.subplots(figsize=(max(6, len(labels) * 1.3), 4.5))
    width = 0.8 / len(groups)
    for g, segments in enumerate(groups):
        xs = [x + g * width for x in range(len(labels))]
        bottom = [0.0] * len(labels)
        for legend, color, vals in segments:
            ax.bar(xs, vals, width=width, bottom=bottom, color=color,
                   label=legend if g == 0 or len(segments) == 1 else None)
            bottom = [b + v for b, v in zip(bottom, vals)]
    ax.set_xticks([x + 0.4 - width / 2 for x in range(len(labels))])
    ax.set_xticklabels(labels, rotation=45, ha="right")
    ax.set_ylabel(ylabel)
    if log:
        ax.set_yscale("log")
    ax.set_title(title)
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    plt.close(fig)


# -- Driver --------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="recipes: " + ", ".join(RECIPES))
    ap.add_argument("recipes", nargs="*", metavar="RECIPE",
                    help="tables to print (default: all)")
    ap.add_argument("--sweep", default=Path("build/tools/sbulk-sweep"),
                    type=Path, metavar="PATH",
                    help="the sbulk-sweep binary "
                         "(default: build/tools/sbulk-sweep)")
    ap.add_argument("--quick", action="store_true",
                    help=f"{QUICK_CHUNKS} chunks per run; scenarios at "
                         "8 cores and 256 requests")
    ap.add_argument("--chunks", type=int, metavar="N",
                    help=f"total chunks per run (default {DEFAULT_CHUNKS})")
    ap.add_argument("--app", metavar="NAME",
                    help="only this application (or serving scenario)")
    ap.add_argument("--plot", metavar="DIR", type=Path,
                    help="also draw the paper-sweep plots (needs matplotlib)")
    opt = ap.parse_args()
    unknown = [r for r in opt.recipes if r not in RECIPES]
    if unknown:
        ap.error(f"unknown recipe {', '.join(unknown)} "
                 f"(want {', '.join(RECIPES)})")

    sweeper = Sweeper(opt)
    for line in sweeper.output(["--list-scenarios"]).splitlines():
        name, family, summary = line.split(None, 2)
        SCENARIOS[name] = (family, summary)

    empty = []
    for name in opt.recipes or RECIPES:
        title, sweeps, table = RECIPES[name]
        lines = table([sweeper.rows(args) for args in sweeps(opt)], opt)
        print(f"== {name}: {title} ==")
        print("\n".join(lines) if lines else "(no rows)")
        print()
        sys.stdout.flush()
        if not lines:
            empty.append(name)
    if opt.plot:
        plot(sweeper.rows(paper_sweeps(opt)[0]), opt.plot)
    if empty:
        sys.exit(f"figures.py: no rows for {', '.join(empty)}")


if __name__ == "__main__":
    main()
