"""End-to-end runs: frozen small-family answers, determinism, comparisons."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from gftrees import cli
from gftrees import flow as fl
from gftrees import pipeline as pl
from gftrees import trees as tr


def test_unknot_run_frozen_facts(unknot_run):
    run = unknot_run
    assert [p.id for p in run.chords] == ["c1"]
    (p,) = run.chords
    assert p.value == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert (p.morse_index, p.grading) == (3, 2)
    assert run.rho == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert run.complex.delta == {}
    assert run.complex.m2 == {}
    assert run.ring.ranks == {2: 1}
    assert run.algebra["pass"]


def test_multichord_run_frozen_facts(multi_run):
    run = multi_run
    got = {p.id: (p.grading, round(p.value, 9)) for p in run.chords}
    assert got == {"c3": (1, 0.467868979), "c4": (2, 1.140855001),
                   "c5": (2, 1.540813236)}
    assert {k: sorted(v) for k, v in run.complex.delta.items()} == \
        {"c3": ["c4", "c5"]}
    assert run.complex.m2 == {}
    assert run.ring.ranks == {1: 0, 2: 1}
    assert all(res["parity"] == 0 for res in run.m2_counts.values())
    assert run.algebra["pass"]
    # the surviving class is spanned by either well chord
    (cls,) = run.ring.classes[2]
    assert cls.support in (["c4"], ["c5"])


def test_resolved_config_fills_every_default(unknot_config):
    cfg = pl.resolve_config(unknot_config)
    assert cfg["seeds"] == {"rng": 0, "grid_density": 7}
    assert cfg["solver"] == {"r0": 1e-3, "scan_density": None, "lambda": None}
    assert cfg["tolerances"]["rtol"] == 1e-8
    assert cfg["tolerances"]["tol_grad"] == 1e-9


def test_unknown_tolerance_names_are_rejected(unknot_config):
    unknot_config["tolerances"] = {"rtoll": 1e-9}
    with pytest.raises(ValueError, match="unknown tolerance"):
        pl.resolve_config(unknot_config)


def test_unknown_seed_and_solver_settings_are_rejected(unknot_config):
    # the tree solver's settings are constants of `trees`, not config
    with pytest.raises(ValueError, match="unknown solver setting 'fd_step'"):
        pl.GFRun(dict(unknot_config, solver={"fd_step": 1e-6}))
    with pytest.raises(ValueError, match="unknown seed setting 'grid_densty'"):
        pl.GFRun(dict(unknot_config, seeds={"grid_densty": 3}))


def test_api_configs_meet_the_cli_checks(unknot_config):
    # a float seed was reported as given but drawn from its integer part
    with pytest.raises(ValueError, match="seeds/rng"):
        pl.GFRun(dict(unknot_config, seeds={"rng": 1.5}))
    # a gf run reads no morse section, so it may not carry one
    with pytest.raises(ValueError, match="mode 'gf' takes a 'family' section"):
        pl.GFRun(dict(unknot_config, morse={"n": 2}))


def test_gf_run_requires_gf_mode(unknot_config):
    unknot_config["mode"] = "morse-torus"
    with pytest.raises(ValueError, match="mode"):
        pl.GFRun(unknot_config)


def test_lambda_override_is_honoured(unknot_config):
    unknot_config["solver"] = {"lambda": 0.011}
    run = pl.GFRun(unknot_config).prepare()
    assert run.lam == 0.011
    auto = pl.GFRun({k: v for k, v in unknot_config.items()
                     if k != "solver"}).prepare()
    assert auto.lam == pytest.approx(
        pl.choose_lambda(auto.family, auto.rho), rel=1e-12)


def test_canonical_json_is_stable_and_sorted():
    text = pl.canonical_json({"b": 1 / 3, "a": [np.float64(0.1)],
                              "nested": {"z": 1, "y": (2, 3)}})
    assert text == pl.canonical_json(json.loads(text))
    keys = [line.split('"')[1] for line in text.splitlines() if '":' in line]
    assert keys == sorted(keys)
    assert "0.333333333333" in text


def test_reports_are_identical_across_runs(unknot_run, unknot_config):
    fresh = pl.gf_run(unknot_config)
    assert pl.canonical_json(fresh.report()) == \
        pl.canonical_json(unknot_run.report())


def test_report_carries_no_wall_clock_fields(unknot_run):
    text = pl.canonical_json(unknot_run.report()).lower()
    for stamp in ("timestamp", "date", "hostname", "duration", "elapsed"):
        assert stamp not in text


def test_worker_pool_and_inline_execution_agree(multi_run, multi_config):
    pooled = pl.gf_run(multi_config, jobs=2)
    assert pl.canonical_json(pooled.report()) == \
        pl.canonical_json(multi_run.report())


def test_pool_workers_adopt_the_parent_prepared_run(multi_config,
                                                   prepare_calls):
    pl.GFRun(multi_config, jobs=2).execute()
    pl.MorseRun(jobs=2).execute()
    assert prepare_calls == ["GFRun", "MorseRun"]


def test_pool_workers_rebuild_the_exact_config(unknot_config, monkeypatch):
    # a float rounded on its way to the workers could change a count
    unknot_config["tolerances"] = {"rtol": 1.0000000000001e-8}
    monkeypatch.setattr(pl.GFRun, "run_group",
                        lambda self, tasks: [self.tol["rtol"]] * len(tasks))
    run = pl.GFRun(unknot_config, jobs=2)
    assert run.run_tasks([("a",), ("b",)]) == \
        {("a",): 1.0000000000001e-8, ("b",): 1.0000000000001e-8}


def test_the_pool_is_no_wider_than_its_task_groups(multi_config, monkeypatch,
                                                   inline_pool):
    """Forked workers all start at the first submit, so a pool is no wider
    than min(jobs, units): a unit is a line-count group or one ranked
    Newton seed of a tree pair."""
    run = pl.GFRun(multi_config, jobs=64).prepare()
    monkeypatch.setattr(pl.GFRun, "run_group",
                        lambda self, tasks: [t[-1] for t in tasks])
    # the two line counts from c3 share a group
    lines = [("delta", "w", "c3", "c4"), ("delta", "w", "c3", "c5"),
             ("delta", "w", "c4", "c5")]
    assert run.run_tasks(lines) == {t: t[-1] for t in lines}
    trees = [("m2", "c3", "c3", "c4"), ("m2", "c3", "c3", "c5")]
    run.run_tasks(lines + trees)
    run.jobs = 3
    run.run_tasks(lines + trees)
    # multichord's one tree pair has MAX_SEEDS ranked seeds
    assert inline_pool["widths"] == [2, 2 + tr.MAX_SEEDS, 3]


def test_tree_counts_from_one_source_pair_share_a_task_group(multi_config,
                                                             monkeypatch,
                                                             inline_pool):
    """The m2 tasks of every sink above one (p1, p2) share that pair's
    Newton solutions: the parent tabulates the pair once, before the first
    submit; each ranked seed is one unit and runs once; and the parent
    counts both sinks on the merged seeds."""
    run = pl.GFRun(multi_config, jobs=2).prepare()
    tabulated, newton_ranks, counted = [], [], []
    seeds, newton, count_trees = tr._seeds, tr._newton, pl.GFRun.count_trees
    monkeypatch.setattr(tr, "_seeds", lambda problem: tabulated.append(
        (os.getpid(), len(inline_pool["units"]))) or seeds(problem))

    def newton_spy(problem, theta0, bigbox):
        newton_ranks.append([r for r, s in enumerate(problem.seeds)
                             if s is theta0])
        return newton(problem, theta0, bigbox)
    monkeypatch.setattr(tr, "_newton", newton_spy)
    monkeypatch.setattr(pl.GFRun, "count_trees", lambda self, tasks, problem:
                        counted.append(tasks) or count_trees(self, tasks, problem))
    tasks = [("delta", "w", "c3", "c4"), ("m2", "c3", "c3", "c4"),
             ("delta", "w", "c3", "c5"), ("m2", "c3", "c3", "c5")]
    pooled = run.run_tasks(tasks)
    assert tabulated == [(os.getpid(), 0)]
    assert inline_pool["units"] == [(0, None)] + [(1, rank) for rank in
                                                  range(tr.MAX_SEEDS)]
    assert newton_ranks == [[rank] for rank in range(tr.MAX_SEEDS)]
    assert counted == [[tasks[1], tasks[3]]]
    # the inline path runs the same groups, and gets the same results
    inline = []
    run_group = pl.GFRun.run_group
    monkeypatch.setattr(pl.GFRun, "run_group", lambda self, tasks:
                        inline.append(tasks) or run_group(self, tasks))
    run.jobs = 1
    assert run.run_tasks(tasks) == pooled
    assert inline == [[tasks[0], tasks[2]], [tasks[1], tasks[3]]]
    assert counted[1:] == [[tasks[1], tasks[3]]]
    # two source pairs: two problems, each tabulated once before any submit
    torus = pl.MorseRun(jobs=2).prepare()
    tabulated.clear()
    inline_pool["units"].clear()
    pairs = [("m2", "c1", "c1", "c3"), ("m2", "c2", "c2", "c3")]
    torus.run_tasks(pairs)
    assert tabulated == [(os.getpid(), 0)] * 2
    assert sorted({i for i, _ in inline_pool["units"]}) == [0, 1]
    assert counted[2:] == [pairs[:1], pairs[1:]]


def test_a_refused_pair_is_refused_before_any_tabulation(monkeypatch,
                                                         inline_pool):
    """An f-pit and a g-saddle into an (f+g)-saddle: the sink misses a
    coupled direction.  Pooled, the refusal comes before any pair is
    tabulated or any Newton step runs, with the inline run's message."""
    calls = []
    tabulate, newton = tr._tabulate, tr._newton
    monkeypatch.setattr(tr, "_tabulate",
                        lambda *a: calls.append("tabulate") or tabulate(*a))
    monkeypatch.setattr(tr, "_newton",
                        lambda *a: calls.append("newton") or newton(*a))
    tasks = [("m2", "c1", "c1", "c3"), ("m2", "c0", "c1", "c1")]
    refusals = []
    for jobs in (1, 2):
        calls.clear()
        run = pl.MorseRun(jobs=jobs).prepare()
        with pytest.raises(tr.DimensionError, match="coupled direction") as e:
            run.run_tasks(tasks)
        refusals.append((str(e.value), bool(calls)))
    # inline, the first pair is counted before the second is refused
    assert refusals[1] == (refusals[0][0], False) and refusals[0][1]
    assert inline_pool["widths"] == []


def test_a_seed_error_in_a_worker_exits_as_the_inline_run(
        tmp_path, capsys, monkeypatch, multi_config, inline_pool):
    """A StiffnessError from the sixth-ranked seed surfaces from a pooled
    run as the same exception, message and exit code as from --jobs 1."""
    newton = tr._newton

    def stiff(problem, theta0, bigbox):
        if theta0 is problem.seeds[5]:
            raise fl.StiffnessError("step size underflow at seed 5")
        return newton(problem, theta0, bigbox)
    monkeypatch.setattr(tr, "_newton", stiff)
    path = tmp_path / "multi.json"
    path.write_text(json.dumps(multi_config))
    got = []
    for jobs in ("1", "2"):
        code = cli.main(["cohomology", str(path), "--jobs", jobs])
        got.append((code, *capsys.readouterr()))
    assert got[1] == got[0]
    assert got[0] == (1, "", "StiffnessError: step size underflow at seed 5\n")
    assert inline_pool["widths"] == [2]


def test_no_worker_outlives_a_pooled_run(multi_run, multi_config, monkeypatch):
    """After a pooled run, and after one whose seed raises in a worker, no
    child process is left; the workers tabulate no tree pair."""
    parent = os.getpid()
    seeds, newton = tr._seeds, tr._newton

    def parent_only(problem):
        if os.getpid() != parent:
            raise RuntimeError("a pool worker tabulated a tree pair")
        return seeds(problem)
    monkeypatch.setattr(tr, "_seeds", parent_only)
    pooled = pl.gf_run(multi_config, jobs=2)
    assert pl.canonical_json(pooled.report()) == \
        pl.canonical_json(multi_run.report())
    assert multiprocessing.active_children() == []

    def stiff(problem, theta0, bigbox):
        if theta0 is problem.seeds[5]:
            raise fl.StiffnessError("step size underflow at seed 5")
        return newton(problem, theta0, bigbox)
    monkeypatch.setattr(tr, "_newton", stiff)
    with pytest.raises(fl.StiffnessError, match="at seed 5"):
        pl.gf_run(multi_config, jobs=2)
    assert multiprocessing.active_children() == []


def test_jobs_below_1_are_refused(unknot_config):
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            pl.GFRun(unknot_config, jobs=jobs)


def test_family_checks_pass_on_the_unknot(unknot_run):
    rep = pl.family_checks(unknot_run)
    assert rep["pass"]
    assert rep["exterior_linearity_residual"] < 1e-9
    assert rep["jump_identity_residual"] < 1e-9
    assert rep["blend_annulus_gradient_floor"] > 1e-6


def test_transfer_check_embeds_every_chord(unknot_run):
    rep = pl.transfer_check(unknot_run)
    assert rep["pass"]
    assert len(rep["embeddings"]) == 3  # one chord, three embeddings
    for entry in rep["embeddings"]:
        assert entry["value_deviation"] < 1e-9
        assert entry["index_shift_defect"] == 0
        assert entry["grading_preserved"]


def test_verify_run_aggregates_all_checks(unknot_config):
    run, rep = pl.verify_run(unknot_config)
    assert rep["pass"]
    assert rep["family_checks"]["pass"]
    assert rep["transfer"]["pass"]
    assert rep["algebra"]["pass"]
    assert rep["ranks"] == {"2": 1}


def test_compare_runs_on_identical_configs(unknot_run, unknot_config):
    fresh = pl.gf_run(unknot_config)
    verdict = pl.compare_runs(unknot_run, fresh)
    assert verdict["pass"]
    assert verdict["generator_map"] == {"c1": "c1"}


def test_morse_rho_is_the_least_value_gap():
    a = pl.morse_rho([[type("P", (), {"value": v})() for v in (0.0, 1.3)],
                      [type("P", (), {"value": v})() for v in (0.7, 2.0)]])
    assert a == pytest.approx(0.6)
    with pytest.raises(ValueError, match="coincide"):
        pl.morse_rho([[type("P", (), {"value": 1.0})(),
                       type("P", (), {"value": 1.0})()]])


def test_morse_demo_passes_its_own_checks(morse_run):
    checks = pl.morse_demo_check(morse_run)
    assert checks == {"ranks": True, "delta_zero": True,
                      "degree1_product_table": True, "pass": True}


def test_morse_report_is_deterministic(morse_run):
    again = pl.MorseRun().execute()
    assert pl.canonical_json(again.report()) == \
        pl.canonical_json(morse_run.report())
