"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/summary.py [--workloads A,B] [--seeds 1-10]
                                 [--seconds 20] [--trace 0|1]

For each workload and seed this runs `perfbench/run.py` once and prints,
per metric, its unit, median, quartiles, n and spread (interquartile range
over median, against the metric's bound in BENCHMARK.json), plus
failed_runs_ratio with its base and the number of distinct report digests
per seed.  With --trace 1 it prints the per-layer metrics instead.  All
results are also written to .bench_out/summary.json.  A seed listed twice
(`--seeds 1,1`) runs twice, and with --trace 1 the two traced work counts
are compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit("%s seed %d failed (exit %d):\n%s"
                         % (workload, seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return None, None, None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values) if med else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    everything = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            detail, result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "detail": detail, "result": result})
            print("  %s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()
                if k in bounds or k.startswith("trace."))), file=sys.stderr, flush=True)
        everything[workload] = runs
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        digests = {}
        for r in runs:
            digests.setdefault(r["seed"], set()).update(
                s["digest"] for s in r["detail"]["samples"] if "digest" in s)
        print("%s  (%d seeds: %s)" % (workload, len(seeds), args.seeds))
        print("  %-34s %-15s %12s %12s %12s %3s %8s %7s" % (
            "metric", "unit", "median", "q1", "q3", "n", "spread", "bound"))
        for name, m in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, q3, sp = spread(values)
            print("  %-34s %-15s %12.6g %12s %12s %3d %8s %7s" % (
                name, m["unit"], statistics.median(values),
                "-" if q1 is None else "%.6g" % q1, "-" if q3 is None else "%.6g" % q3,
                len(values), "-" if sp is None else "%.4f" % sp,
                bounds.get(name, "")))
        print("  %-34s %-15s %12.6g   (%d failed of %d attempted)" % (
            "failed_runs_ratio", "ratio", failed / attempted, failed, attempted))
        print("  distinct report digests per seed: %s"
              % {seed: len(d) for seed, d in digests.items()})
        if args.trace:
            counts = {}
            for r in runs:
                counts.setdefault(r["seed"], []).append(
                    r["detail"]["samples"][-1].get("counts"))
            same = {seed: all(c == cs[0] for c in cs) for seed, cs in counts.items()
                    if len(cs) > 1}
            print("  traced work counts identical across runs at one seed: %s"
                  % (same or "(each seed ran once)"))
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "summary.json"), "w") as fh:
        json.dump(everything, fh, indent=1)


if __name__ == "__main__":
    main()
