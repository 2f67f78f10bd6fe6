"""Self-test of the benchmark harness on small commands (about a second
each): `verify` on the unknot, and `differential` on the multichord family
where line counting is needed, since the unknot's single chord gives no
flow lines to count.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
from gftrees import cli  # noqa: E402

UNKNOT = os.path.join(ROOT, "perfbench", "configs", "unknot.json")
MULTICHORD = os.path.join(ROOT, "perfbench", "configs", "multichord.json")


def unknot_oracle(report, committed_seed):
    failures = []
    if report["delta"] != {}:
        failures.append("delta %r, want {}" % (report["delta"],))
    if report["ranks"] != {"2": 1}:
        failures.append("ranks %r, want {'2': 1}" % (report["ranks"],))
    return failures


def flip_delta_bit(report):
    flipped = dict(report)
    flipped["delta"] = {"c1": ["c1"]}
    return flipped


def traced(tmp_path, run_id, argv=("verify", UNKNOT)):
    tracer = tracing.Tracer(run_id).install()
    try:
        rc = cli.main(list(argv) + ["--json", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert rc == 0
    return tracer


def _owners():
    from gftrees import (complexes, continuation, critical, expr, family,
                         flow, gf2, pipeline, trees)
    return (complexes, continuation, continuation.FamilyPath, critical, expr,
            family.ScalarField, flow, gf2, pipeline.GFRun, trees,
            trees.TreeProblem)


def test_wrappers_restore_the_original_attributes(tmp_path):
    from gftrees import flow
    before = [dict(vars(o)) for o in _owners()]
    integrate = flow.integrate
    tracer = tracing.Tracer("restore").install()
    assert flow.integrate is not integrate
    tracer.uninstall()
    for owner, saved in zip(_owners(), before):
        now = vars(owner)
        for attr, value in saved.items():
            assert now[attr] is value, (owner, attr)
    traced(tmp_path, "restore-after-run")
    for owner, saved in zip(_owners(), before):
        for attr, value in saved.items():
            assert vars(owner)[attr] is value, (owner, attr)


def test_spans_nest_under_their_parents_and_carry_the_run_id(tmp_path):
    tracer = traced(tmp_path, "nesting", ("differential", MULTICHORD))
    spans = tracer.spans
    assert spans
    by_name = {s[0] for s in spans}
    assert {"flow.integrate", "flow.scan", "flow.count_lines",
            "pipeline.prepare", "critical.find", "expr.compile"} <= by_name
    for i, (name, start, end, parent) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            assert parent < i
            assert spans[parent][1] <= start and end <= spans[parent][2]
    # an integration launched by a scan points back through the scan to the
    # line count that asked for it
    scan_children = [s for s in spans if s[0] == "flow.integrate"
                     and s[3] >= 0 and spans[s[3]][0] == "flow.scan"]
    assert scan_children
    assert spans[scan_children[0][3]][3] >= 0
    assert spans[spans[scan_children[0][3]][3]][0] == "flow.count_lines"
    tracer.write_spans(tmp_path / "spans.json")
    written = json.loads((tmp_path / "spans.json").read_text())
    assert len(written) == len(spans)
    assert {s["run"] for s in written} == {"nesting"}


def test_two_traced_runs_count_the_same_work(tmp_path):
    a = traced(tmp_path, "a", ("differential", MULTICHORD)).work_counts()
    b = traced(tmp_path, "b", ("differential", MULTICHORD)).work_counts()
    assert a == b
    assert a["flow.rhs_evals"] > 0 and a["family.grad_calls"] >= a["flow.rhs_evals"]


def test_layer_metrics_name_every_per_layer_metric(tmp_path):
    tracer = traced(tmp_path, "metrics")
    metrics = tracer.layer_metrics(1.0, 0.5)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert list(metrics) == [m["name"] for m in bench["per_layer"]]
    assert [m["unit"] for m in bench["per_layer"]] == list(tracing.METRICS.values())
    assert list(run.END_TO_END) == [m["name"] for m in bench["end_to_end"]]
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in bench["workloads"])
    assert metrics["flow.integrations"] == (metrics["flow.integrations_event"]
                                            + metrics["flow.integrations_terminal"])


@pytest.mark.parametrize("flip", [False, True])
def test_a_flipped_delta_bit_counts_as_a_failed_run(flip, monkeypatch, capsys):
    oracle = unknot_oracle
    if flip:
        def oracle(report, committed_seed):
            return unknot_oracle(flip_delta_bit(report), committed_seed)
    workload = run.Workload(["verify", os.path.relpath(UNKNOT, ROOT)],
                            [os.path.relpath(UNKNOT, ROOT)], 0,
                            "selftest-unknot", oracle)
    monkeypatch.setitem(run.WORKLOADS, "selftest-unknot", workload)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "selftest-unknot", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 1
    assert result["failed"] == (1 if flip else 0)
    assert result["correct"] is (not flip)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torus-demo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_child_past_the_run_deadline_is_killed(tmp_path):
    started = time.monotonic()
    rc, elapsed = run.run_child("setup", {"root": ROOT, "configs": [UNKNOT]},
                                str(tmp_path / "setup.log"), started + 0.2)
    assert rc == "timeout"
    assert elapsed < 5.0
