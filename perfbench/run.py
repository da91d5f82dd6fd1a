#!/usr/bin/env python3
"""The repository benchmark: named workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload serving-oltp --seed 0 --seconds 25 --trace 1
    python3 perfbench/run.py --self-check

The first call configures and builds perfbench/ (the simulator library plus
the sbulk-perfbench program) in Release mode under .bench_build/. Every
repetition of a workload then runs in a fresh sbulk-perfbench process, so
peak RSS and allocator state belong to that repetition alone. Repetitions
repeat until --seconds have passed; each metric is the median over them.

--trace 0 reports the end-to-end metrics of untraced repetitions.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

Checks: every run commits its full chunk budget, and every repetition,
traced or not, yields the same digest of its simulated statistics (the
sbulk-sweep CSV rows). A run that fails either check counts in `failed`.

The last line of standard output is the result, one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Metric names and units come from BENCHMARK.json; see perfbench/README.md
for what each metric measures and which layer moves it.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "sbulk-perfbench")
# A repetition that takes longer than this has hung; the whole call must
# end within 180 s once the build is done.
REP_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def build():
    """Configure once, then build incrementally (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: simulator sources (src/) not found beside perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def repetition(workload, seed, traced=False, tiny=False):
    """Run one repetition in a fresh process; its JSON report, or None."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    cmd += ["--traced"] if traced else []
    cmd += ["--tiny"] if tiny else []
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {' '.join(cmd[1:])} timed out")
        return None
    if proc.returncode != 0:
        log(f"perfbench: {' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, tiny=False):
    """Repeat until `seconds` have passed (traced mode: at least one
    untraced and one traced repetition, alternating), or until a
    repetition crashes. Returns (untraced, traced, crashed)."""
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        want_traced = trace and len(traced) < len(untraced)
        report = repetition(workload, seed, want_traced, tiny)
        if report is None:
            return untraced, traced, True
        (traced if want_traced else untraced).append(report)
        enough = untraced and (traced or not trace)
        if enough and time.monotonic() - start >= seconds:
            return untraced, traced, False


def check(untraced, traced, crashed):
    """(attempted, failed) runs: a run fails when it misses its chunk
    budget, its process dies, or its repetition's digest differs from the
    first untraced repetition's."""
    reports = untraced + traced
    runs_per_rep = reports[0]["runs"] if reports else 1
    reference = untraced[0]["digest"] if untraced else None
    attempted = int(runs_per_rep) if crashed else 0
    failed = attempted
    for r in reports:
        attempted += int(r["runs"])
        failed += int(r["runs"]) if r["digest"] != reference else int(r["runs_failed"])
    return attempted, failed


def end_to_end_metrics(untraced):
    return {
        "wall_s": median(r["wall_s"] for r in untraced),
        "sim_mips": median(r["instrs"] / r["wall_s"] / 1e6 for r in untraced),
        "setup_s": median(r["setup_s"] for r in untraced),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
        "sim_cycles": median(r["sim_cycles"] for r in untraced),
        "commit_lat_p50_cycles": median(r["commit_lat_p50_cycles"] for r in untraced),
        "commit_lat_p99_cycles": median(r["commit_lat_p99_cycles"] for r in untraced),
    }


def per_layer_metrics(untraced, traced):
    metrics = {name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    metrics["bench.trace_overhead_frac"] = (
        median(r["wall_s"] for r in traced) / median(r["wall_s"] for r in untraced) - 1)
    return metrics


def run_workload(workload, seed, seconds, trace, units, tiny=False):
    """Measure one workload; the result object (metrics may be empty when
    every repetition crashed)."""
    untraced, traced, crashed = measure(workload, seed, seconds, trace, tiny)
    attempted, failed = check(untraced, traced, crashed)
    values = {}
    if untraced and (traced or not trace):
        values = per_layer_metrics(untraced, traced) if trace else end_to_end_metrics(untraced)
    first = (untraced + traced or [{}])[0]
    context = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "host_cpus": os.cpu_count(), "build_type": first.get("build_type"),
        "compiler": first.get("compiler"), "repetitions": len(untraced) + len(traced),
        "untraced_wall_s": [round(r["wall_s"], 4) for r in untraced],
        "runs_failed_frac": failed / attempted,
    }
    print(json.dumps({"context": context}))
    return {
        "correct": failed == 0 and not crashed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


def self_check(spec, units):
    """Every workload at a tiny size, untraced and traced: each named
    metric must be printed with its unit and every check must pass."""
    ok = True
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(w["name"], 0, 0, trace, units, tiny=True)
            missing = {m["name"] for m in spec[group]} - set(result["metrics"])
            if missing or not result["correct"]:
                ok = False
                log(f"self-check FAILED: {w['name']} trace={trace} "
                    f"correct={result['correct']} missing={sorted(missing)}")
    print("self-check " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0,
                    help="0 = the tools' defaults (app presets, scenario seed 1)")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    spec, units = load_spec()
    build()
    if args.self_check:
        return self_check(spec, units)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    result = run_workload(args.workload, args.seed, seconds, args.trace, units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
