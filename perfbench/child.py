"""One fresh interpreter of the benchmark: either the set-up probe or one
timed CLI invocation.

    python3 perfbench/child.py setup SPEC_JSON
    python3 perfbench/child.py run SPEC_JSON

SPEC_JSON holds "root" (checkout root), "argv" (CLI arguments), "configs"
(config files the command reads), and for `run` also "out" (result file),
"report" (where the CLI writes its report), "trace" and "run_id".  `setup`
imports `gftrees.cli` and loads and resolves every config, which is what a
CLI user pays before any numerical work; the parent times the whole
process.  `run` imports first, then times `gftrees.cli.main` alone.
"""

import json
import os
import resource
import sys
import time
import traceback


def _import_cli(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gftrees.cli
    if not os.path.abspath(gftrees.cli.__file__).startswith(src + os.sep):
        raise SystemExit("gftrees imported from %s, not from %s"
                         % (gftrees.cli.__file__, src))
    return gftrees.cli


def _cpu_s():
    """User plus system time of this process and its reaped children."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def setup(spec):
    cli = _import_cli(spec["root"])
    from gftrees import pipeline
    for path in spec["configs"]:
        cfg = cli.load_config(path)
        if cfg.get("mode", "gf") == "gf":
            pipeline.resolve_config(cfg)


def run(spec):
    cli = _import_cli(spec["root"])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer(spec["run_id"]).install()
    argv = spec["argv"] + ["--json", spec["report"]]
    error = None
    c0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:
        rc = None
        error = traceback.format_exc()
    t1 = time.perf_counter()
    c1 = _cpu_s()
    if tracer is not None:
        tracer.uninstall()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {
        "rc": rc,
        "error": error,
        "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if tracer is not None:
        out["counts"] = tracer.work_counts()
        out["layer_metrics"] = tracer.layer_metrics(out["wall_s"],
                                                    spec["untraced_wall_s"])
        tracer.write_spans(spec["spans"])
    with open(spec["out"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    mode, spec_text = sys.argv[1], sys.argv[2]
    {"setup": setup, "run": run}[mode](json.loads(spec_text))
