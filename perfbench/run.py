"""gftrees benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Each iteration is one CLI invocation in a fresh
interpreter (the `gftrees` command a user types), run back to back in a
closed loop with one client: as many whole invocations as fit in S seconds,
at least one.
`--seed` becomes the CLI `--seed`; without it each config's committed seed
is used.  Every report is checked against the workload's oracle and its
sha256 is compared with earlier runs of the same source at the same seed.

The last stdout line is the result: with --trace 0 the end-to-end metrics
(medians over the iterations), with --trace 1 the per-layer metrics of one
extra traced iteration.  The line before it carries the details: every
sample, quartiles, report digests, oracle failures and machine noise.
Files go to `.bench_out/` under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata

import oracles
from tracing import METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.relpath(os.path.join(HERE, "configs"), os.path.dirname(HERE))
MULTICHORD = os.path.join(CONFIGS, "multichord.json")
UNKNOT = os.path.join(CONFIGS, "unknot.json")
UNKNOT_MOVED = os.path.join(CONFIGS, "unknot-moved.json")

SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0   # a run must end within 180 s, hung children included
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Workload:
    argv: list
    configs: list          # config files the command reads
    default_seed: int
    digest_key: str        # workloads that must write identical reports share it
    oracle: object


WORKLOADS = {
    "multichord-cohomology": Workload(
        ["cohomology", MULTICHORD], [MULTICHORD], 11, "multichord",
        oracles.multichord),
    "torus-demo": Workload(["morse-torus"], [], 0, "torus-demo", oracles.torus),
    "unknot-isotopy": Workload(
        ["compare", UNKNOT, "--isotopy", UNKNOT_MOVED], [UNKNOT, UNKNOT_MOVED],
        0, "unknot-isotopy", oracles.isotopy),
    # the same report as multichord-cohomology, computed by the process pool
    "multichord-pool": Workload(
        ["cohomology", MULTICHORD, "--jobs", "2"], [MULTICHORD], 11,
        "multichord", oracles.multichord),
}


# ---------------------------------------------------------------------------
# machine and noise, read-only

def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def steal_ticks():
    text = _read("/proc/stat")
    if not text:
        return None
    fields = text.split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 else None


def loadavg():
    text = _read("/proc/loadavg")
    return [float(v) for v in text.split()[:3]] if text else None


def machine():
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model, **versions}


# ---------------------------------------------------------------------------
# child processes

def run_child(mode, spec, log_path, deadline):
    """Run child.py in its own session; kill the whole group at the
    deadline (a time.monotonic() value) so no pool worker outlives the
    benchmark.  Returns (exit code, seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, json.dumps(spec)]
    env = {k: v for k, v in os.environ.items()
           if k not in ("GFTREES_LOG", "PYTHONPATH")}
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, start_new_session=True)
        try:
            rc = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            rc = "timeout"
        return rc, time.perf_counter() - t0


def source_digest(root):
    """sha256 of the package sources, so stored report digests are only
    compared between runs of the same program."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "gftrees")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class DigestStore:
    """Report digests by (source, workload family, seed) across runs in
    this checkout: one program, one seed, one report."""

    def __init__(self, path, source):
        self.path, self.source = path, source
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
        self.table = data.get(source, {})

    def add(self, key, digest):
        seen = self.table.setdefault(key, [])
        if digest not in seen:
            seen.append(digest)
        with open(self.path, "w") as fh:
            json.dump({self.source: self.table}, fh, indent=1)
        return len(seen)


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def iteration(wl, name, seed, committed, out_dir, index, store, deadline,
              trace=False, untraced_wall_s=None):
    """One CLI invocation: timing, oracle and digest.  Returns a sample dict
    whose "failures" list is empty when the answer is right."""
    root = os.getcwd()
    report_path = os.path.join(out_dir, "report-%d.json" % index)
    result_path = os.path.join(out_dir, "result-%d.json" % index)
    for path in (report_path, result_path):
        if os.path.exists(path):
            os.remove(path)
    spec = {"root": root, "argv": wl.argv + ["--seed", str(seed)],
            "configs": wl.configs, "report": report_path, "out": result_path,
            "trace": trace, "run_id": "%s-%d-%d-%d" % (name, seed, os.getpid(), index),
            "untraced_wall_s": untraced_wall_s,
            "spans": os.path.join(out_dir, "spans.json")}
    steal0, load0 = steal_ticks(), loadavg()
    rc, elapsed = run_child("run", spec, os.path.join(out_dir, "child-%d.log" % index),
                            deadline)
    steal1, load1 = steal_ticks(), loadavg()
    sample = {"trace": trace, "process_s": elapsed, "failures": [],
              "loadavg": [load0, load1],
              "steal_ticks": None if steal0 is None else steal1 - steal0}
    if rc != 0 or not os.path.exists(result_path):
        sample["failures"].append("benchmark child exited with %r" % (rc,))
        return sample
    with open(result_path) as fh:
        res = json.load(fh)
    sample.update({k: res[k] for k in ("rc", "wall_s", "cpu_s", "peak_rss_mb")})
    if trace:
        sample["counts"] = res["counts"]
        sample["layer_metrics"] = res["layer_metrics"]
    if res["error"]:
        sample["failures"].append("CLI raised: " + res["error"].strip().splitlines()[-1])
    if res["rc"] != 0:
        sample["failures"].append("CLI exit status %r" % (res["rc"],))
    if not os.path.exists(report_path):
        sample["failures"].append("no report written")
        return sample
    with open(report_path, "rb") as fh:
        text = fh.read()
    sample["digest"] = hashlib.sha256(text).hexdigest()
    try:
        sample["failures"] += wl.oracle(json.loads(text), committed)
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        sample["failures"].append("report not in the expected shape: %r" % (e,))
    distinct = store.add("%s:%d" % (wl.digest_key, seed), sample["digest"])
    sample["distinct_digests"] = distinct
    if distinct > 1:
        sample["failures"].append(
            "report digest differs from an earlier run of this source at seed %d"
            % seed)
    return sample


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "gftrees", "cli.py")):
        print("error: %s is not a gftrees checkout (no src/gftrees/cli.py)"
              % root, file=sys.stderr)
        return 2
    os.chdir(root)
    deadline = time.monotonic() + RUN_BUDGET_S
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed % 2 ** 64
    committed = seed == wl.default_seed
    out_dir = os.path.join(root, ".bench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    store = DigestStore(os.path.join(root, ".bench_out", "digests.json"),
                        source_digest(root))

    setup = []
    for i in range(SETUP_REPEATS):
        rc, elapsed = run_child("setup", {"root": root, "configs": wl.configs},
                                os.path.join(out_dir, "setup-%d.log" % i), deadline)
        if rc != 0:
            print("error: set-up probe failed (exit %r); see %s"
                  % (rc, os.path.join(out_dir, "setup-%d.log" % i)), file=sys.stderr)
            return 2
        setup.append(elapsed)

    # whole invocations only: another one starts while one more of the mean
    # length so far still ends within --seconds
    samples = []
    t_start = time.perf_counter()
    while True:
        samples.append(iteration(wl, args.workload, seed, committed, out_dir,
                                 len(samples), store, deadline))
        spent = time.perf_counter() - t_start
        if (spent * (len(samples) + 1) / len(samples) > args.seconds
                or time.monotonic() >= deadline):
            break
    timed = [s for s in samples if "wall_s" in s]
    if args.trace:
        untraced = statistics.median(s["wall_s"] for s in timed) if timed else 0.0
        samples.append(iteration(wl, args.workload, seed, committed, out_dir,
                                 len(samples), store, deadline, trace=True,
                                 untraced_wall_s=untraced))

    failed = sum(1 for s in samples if s["failures"])
    detail = {"workload": args.workload, "seed": seed, "committed_seed": committed,
              "argv": wl.argv + ["--seed", str(seed)], "machine": machine(),
              "setup_s": setup, "failed_runs_ratio": [failed, len(samples)],
              "samples": [{k: v for k, v in s.items() if k != "layer_metrics"}
                          for s in samples]}
    summary = {}
    for key in END_TO_END:
        values = setup if key == "setup_s" else [s[key] for s in timed]
        if values:
            summary[key] = {"median": statistics.median(values),
                            "quartiles": quartiles(values), "n": len(values)}
    detail["summary"] = summary
    print(json.dumps(detail))

    if args.trace:
        traced = samples[-1]
        layer = traced.get("layer_metrics") or {}
        metrics = {k: {"value": layer.get(k, 0), "unit": u} for k, u in METRICS.items()}
    else:
        metrics = {k: {"value": summary[k]["median"] if k in summary else 0.0,
                       "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
