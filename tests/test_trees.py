"""Perturbed flow trees: seeding, Newton refinement, validation.

Uses the torus demo run (three Morse fields f, g, f+g) as the source of
real tree-counting problems; its saddle-to-saddle products are the
smallest honest instances with nonzero counts.
"""

import json

import numpy as np
import pytest

from gftrees import family as fa
from gftrees import flow as fl
from gftrees import pipeline as pl
from gftrees import trees as tr

from conftest import MULTI


def axis_of(p):
    """Which coordinate circle a torus saddle sits on (0 or 1)."""
    return int(np.argmin(np.abs(np.asarray(p.coords) - 0.5)))


def tree_problem(run, task):
    """(TreeProblem, sink) of one m2 task of a prepared run, built by the
    pipeline."""
    return (run.tree_problem(*task[1:3]),
            run.spaces[run.TREE_SPACES[2]][1][task[3]])


@pytest.fixture(scope="module")
def stabilized_multi():
    """Prepared multichord runs keyed by their stabilization signs."""
    runs = {}
    for signs in (("+",), ("-",), ("+", "-")):
        cfg = json.loads(json.dumps(MULTI))
        cfg["family"]["stabilize"] = list(signs)
        runs[signs] = pl.GFRun(cfg).prepare()
    return runs


def test_perturbation_sampling_is_deterministic_and_bounded():
    a = tr.PerturbationTriple.sample(5, 0.01, 42)
    b = tr.PerturbationTriple.sample(5, 0.01, 42)
    c = tr.PerturbationTriple.sample(5, 0.01, 43)
    for u, v in zip(a.parts(), b.parts()):
        assert np.array_equal(u, v)
    assert any(not np.array_equal(u, v) for u, v in zip(a.parts(), c.parts()))
    assert all(np.linalg.norm(s) < 0.01 for s in a.parts())
    assert a.check()


def test_perturbation_bound_is_enforced():
    s = tr.PerturbationTriple.sample(3, 0.01, 0)
    oversized = tr.PerturbationTriple(10 * s.s1, s.s2, s.s3, 0, 0.01)
    with pytest.raises(ValueError, match="norm"):
        oversized.check()


def test_grading_mismatch_is_rejected(morse_run):
    r = morse_run
    f_saddle = r.crits[0][1]      # grading 1
    g_saddle = r.crits[1][1]      # grading 1
    h_saddle = r.crits[2][1]      # grading 1 != 2
    with pytest.raises(tr.DimensionError, match="expected dimension is -1"):
        tr.solve_trees(tr.TreeProblem(tuple(r.fields), f_saddle, g_saddle, r.s),
                       h_saddle)


def test_zero_dimensional_charts_are_out_of_scope(morse_run):
    r = morse_run
    # pits have index 0, so the sink's stable chart would be 0-dimensional
    problem = tr.TreeProblem(tuple(r.fields), r.crits[0][0], r.crits[1][0], r.s)
    with pytest.raises(tr.DimensionError, match="0-dimensional chart"):
        tr.solve_trees(problem, r.crits[2][0])


def test_nonzero_expected_dimension_is_rejected(morse_run):
    r = morse_run
    problem = tr.TreeProblem(tuple(r.fields), r.crits[0][1], r.crits[1][1],
                             r.s)
    # d = 1 - 2 = -1
    with pytest.raises(tr.DimensionError, match="expected dimension is -1"):
        tr.solve_trees(problem, r.crits[2][1])


def test_saddle_products_follow_the_axis_rule(morse_run):
    """m2(a, b) hits the top class exactly when the two saddles wrap
    different coordinate circles."""
    r = morse_run
    f_saddles = [p for p in r.crits[0] if p.grading == 1]
    g_saddles = [p for p in r.crits[1] if p.grading == 1]
    top = [p for p in r.crits[2] if p.grading == 2][0]
    for p1 in f_saddles:
        for p2 in g_saddles:
            got = r.m2_counts[(p1.id, p2.id, top.id)]["parity"]
            want = 1 if axis_of(p1) != axis_of(p2) else 0
            assert got == want, (p1.id, p2.id)


def test_rotated_launch_directions_still_converge(morse_run):
    """(c1, c1) -> c3 needs a large launch-direction rotation during
    Newton; it must land on exactly one transverse tree."""
    r = morse_run
    assert r.m2_counts[("c1", "c1", "c3")]["parity"] == 1
    assert r.m2_counts[("c1", "c1", "c3")]["trees"] == 1


def test_found_trees_satisfy_the_matching_conditions(morse_run):
    r = morse_run
    p1 = r.crits[0][1]            # f-saddle on axis 0
    p2 = r.crits[1][1]            # g-saddle on axis 1
    top = r.crits[2][3]
    problem = tr.TreeProblem(tuple(r.fields), p1, p2, r.s, r.crits[2],
                             r0=r.solver["r0"], tolerances=r.tol)
    trees = tr.solve_trees(problem, top)
    assert len(trees) == 1
    (t,) = trees
    resid = np.linalg.norm(tr.tree_residual(t.theta, problem))
    assert resid < 2e-8
    assert t.residual_norm < 2e-8
    assert t.condition < tr.COND_CAP
    # three recorded branches end where the matching says they should
    s1, s2, s3 = r.s.parts()
    e1 = np.asarray(t.gamma1.final) + s1
    e2 = np.asarray(t.gamma2.final) + s2
    e3 = np.asarray(t.gamma3.final) + s3
    for a, b in ((e1, e2), (e2, e3)):
        d = a - b
        d -= np.round(d)          # torus distance
        assert np.linalg.norm(d) < 1e-7
    assert t.meeting.shape == (2,)


def test_torus_meeting_points_stay_put(morse_run):
    """The two torus trees meet where they always have, to the dedup radius."""
    want = {("c1", "c1", "c3"): [0.002384239486566971, 0.9980959603791718],
            ("c2", "c2", "c3"): [0.0018121601945444432, 0.9878249509543251]}
    for task, point in want.items():
        (got,) = morse_run.m2_counts[task]["meetings"]
        assert np.linalg.norm(np.subtract(got, point)) < tr.DEDUP_RADIUS, task


def test_a_local_maximum_sink_is_reached_by_a_capture_run(morse_run):
    """The torus top class is a maximum of f+g, so its edge is a basin
    with no pins, and gamma3 is the capture run from the meeting."""
    r = morse_run
    crits = [{p.id: p for p in c} for c in r.crits]
    problem = tr.TreeProblem(tuple(r.fields), crits[0]["c1"], crits[1]["c1"],
                             r.s, r.crits[2], r0=r.solver["r0"],
                             tolerances=r.tol)
    assert problem.pins == ()
    (t,) = tr.solve_trees(problem, crits[2]["c3"])
    assert len(t.theta) == problem.k[0] + problem.k[1] + 2
    assert tr.tree_residual(t.theta, problem).shape == (2,)
    # the reversed capture run starts at the maximum's r_conv ball
    start = np.subtract(t.gamma3.samples[0][1], crits[2]["c3"].coords)
    assert np.linalg.norm(start - np.round(start)) < r.tol["r_conv"]
    assert t.gamma3.samples[-1][0] == t.gamma3.t_final


def test_a_capture_run_that_times_out_refuses_the_count(morse_run):
    """The capture run of (c1, c1; c3) needs t ~ 0.1; with t_max below it
    the count is refused, never reported as 0."""
    r = morse_run
    crits = [{p.id: p for p in c} for c in r.crits]
    problem = tr.TreeProblem(tuple(r.fields), crits[0]["c1"], crits[1]["c1"],
                             r.s, r.crits[2], r0=r.solver["r0"],
                             tolerances={**r.tol, "t_max": 0.05})
    with pytest.raises(fl.AmbiguousCountError, match="into c3"):
        tr.solve_trees(problem, crits[2]["c3"])


def test_a_basin_sink_needs_the_critical_points_it_is_tested_against(morse_run):
    r = morse_run
    problem = tr.TreeProblem(tuple(r.fields), r.crits[0][1], r.crits[1][1], r.s)
    with pytest.raises(ValueError, match="critical points of h3"):
        tr.solve_trees(problem, r.crits[2][3])


def test_seed_outcomes_cover_every_seed_tried(morse_run, multi_run):
    """Each m2 count carries how its Newton seeds ended; the histogram
    sums to the seeds tried.  Every multichord seed stalls at seed 11."""
    for res in morse_run.m2_counts.values():
        assert set(res["seeds"]) == set(tr.SEED_OUTCOMES)
        # k = 1 charts: two directions times the time grid
        assert sum(res["seeds"].values()) == min(tr.MAX_SEEDS, 2 * tr.TIME_POINTS)
        assert res["seeds"]["converged"] == res["trees"]
    assert multi_run.m2_counts
    for res in multi_run.m2_counts.values():
        assert res["seeds"] == {**dict.fromkeys(tr.SEED_OUTCOMES, 0),
                                "line_search_stall": tr.MAX_SEEDS}


def test_sinks_above_one_source_pair_share_one_newton_pass(multi_config,
                                                          monkeypatch):
    """(c3, c3; c4) and (c3, c3; c5) on one TreeProblem: the second
    solve_trees runs no Newton step and evaluates no residual."""
    run = pl.GFRun(multi_config).prepare()
    calls = []
    residuals = []
    newton = tr._newton
    residual = tr.tree_residual
    monkeypatch.setattr(tr, "_newton",
                        lambda *a: calls.append(1) or newton(*a))
    monkeypatch.setattr(tr, "tree_residual",
                        lambda *a: residuals.append(1) or residual(*a))
    problem, _ = tree_problem(run, ("m2", "c3", "c3", "c4"))
    sinks = run.spaces[run.TREE_SPACES[2]][1]
    counted = []
    for sink in ("c4", "c5"):
        tr.solve_trees(problem, sinks[sink])
        counted.append((len(calls), len(residuals)))
    assert counted[0][0] > 0 and counted[0][1] > 0
    assert counted[1] == counted[0]
    assert set(problem.seed_outcomes) == {sinks["c4"].id, sinks["c5"].id}


# ways to deal a pair's ranked seeds out to units of work, in arrival order
SEED_SPLITS = {
    "odd then even": lambda n: [list(range(1, n, 2)), list(range(0, n, 2))],
    "reversed": lambda n: [list(reversed(range(n)))],
    "one per unit": lambda n: [[int(r)] for r in
                               np.random.default_rng(0).permutation(n)],
}


def solved(problem, sinks):
    """Everything a count reads from one TreeProblem, exactly: the merged
    solutions, and each sink's trees and seed histogram."""
    got = []
    for sink in sinks:
        trees = tr.solve_trees(problem, sink)
        got.append((sink.id, [(t.theta.tolist(), t.meeting.tolist())
                              for t in trees],
                    problem.seed_outcomes[sink.id]))
    solutions, outcomes = problem.intersections
    return got, [(sol["theta"].tolist(), sol["meeting"].tolist(),
                  sol["res"].tolist(), sol["J"].tolist())
                 for sol in solutions], outcomes


@pytest.mark.parametrize("case", [("torus", ("c1", "c1"), ("c3",)),
                                  ("torus", ("c2", "c2"), ("c3",)),
                                  ("multichord", ("c3", "c3"), ("c4", "c5"))],
                         ids=["torus-c1c1", "torus-c2c2", "multichord-c3c3"])
def test_seeds_split_over_units_merge_to_the_one_pass_solve(
        case, morse_run, multi_run, monkeypatch):
    """The ranked seeds of one pair, run in any subsets and merged in any
    arrival order, give the one-pass solutions, meeting points and seed
    histograms bit for bit, each seed running Newton once.  Each unit
    starts from an empty endpoint memo and step log."""
    name, pair, sink_ids = case
    run = {"torus": morse_run, "multichord": multi_run}[name]
    sinks = [run.spaces[run.TREE_SPACES[2]][1][s] for s in sink_ids]
    want = solved(tree_problem(run, ("m2",) + pair + sink_ids[:1])[0], sinks)
    if name == "torus":
        # a duplicate meeting point: only rank order says which seed counts
        assert want[2]["duplicate"] > 0
    newton = tr._newton
    ranks = []

    def newton_spy(problem, theta0, bigbox):
        ranks.extend(r for r, s in enumerate(problem.seeds) if s is theta0)
        return newton(problem, theta0, bigbox)
    monkeypatch.setattr(tr, "_newton", newton_spy)
    for split, deal in SEED_SPLITS.items():
        problem, _ = tree_problem(run, ("m2",) + pair + sink_ids[:1])
        n = len(problem.seeds)
        results = []
        ranks.clear()
        for unit in deal(n):
            problem._memo.clear()
            problem._logs.clear()
            results += [tr.run_seed(problem, rank) for rank in unit]
        assert sorted(ranks) == list(range(n)), split
        problem.intersections = tr.merge_seeds(problem, results)
        assert solved(problem, sinks) == want, split


def _logged_run(run, task, monkeypatch):
    """Tabulate and run every ranked seed of `task`'s pair on a new
    TreeProblem, with spies: (problem, the run_seed results with arrays
    as bytes, what the spies saw).  They count scalar grad calls and
    record paths by (edge, u): each chart_point query and dropped log in
    order, the tabulated paths, and those of accepted iterates and of FD
    columns."""
    problem, _ = tree_problem(run, task)
    seen = {"events": [], "accepted": set(), "fd": set(), "grads": 0,
            "in_fd": False}

    def path(chart, u):
        which = [c is chart for c in problem.charts].index(True)
        return tr._path(which, u)

    def chart_point(chart, u, t, **kw):
        seen["events"].append(("query", path(chart, u)))
        if seen["in_fd"]:
            seen["fd"].add(path(chart, u))
        return chart_point_(chart, u, t, **kw)

    def drop_logs(problem_, paths):
        seen["events"] += [("drop", p) for p in paths if p in problem_._logs]
        return drop_logs_(problem_, paths)

    def fd_jacobian(*a):
        seen["in_fd"] = True
        try:
            return fd_jacobian_(*a)
        finally:
            seen["in_fd"] = False

    def plausible(problem_, theta, bigbox):
        seen["accepted"].update(tr._path(w, u) for w, (u, _)
                                in enumerate(problem_.split(theta)))
        return plausible_(problem_, theta, bigbox)

    def grad(self, z):
        seen["grads"] += 1
        return grad_(self, z)

    chart_point_, drop_logs_ = fl.chart_point, tr._drop_logs
    fd_jacobian_, plausible_, grad_ = tr._fd_jacobian, tr._plausible, fa.ScalarField.grad
    with monkeypatch.context() as m:
        m.setattr(fl, "chart_point", chart_point)
        m.setattr(tr, "_drop_logs", drop_logs)
        m.setattr(tr, "_fd_jacobian", fd_jacobian)
        m.setattr(tr, "_plausible", plausible)
        m.setattr(fa.ScalarField, "grad", grad)
        n = len(problem.seeds)
        seen["tabulated"] = {p for _, p in seen["events"]}
        results = [tr.run_seed(problem, rank) for rank in range(n)]
    results = [[v.tobytes() if isinstance(v, np.ndarray) else v for v in r]
               for r in results]
    return problem, results, seen


@pytest.mark.parametrize("case", [("multichord", ("m2", "c3", "c3", "c4")),
                                  ("torus", ("m2", "c1", "c1", "c3"))],
                         ids=["multichord-c3c3", "torus-c1c1"])
def test_rejected_candidates_keep_no_step_log(case, morse_run, multi_run,
                                              monkeypatch):
    """A rejected line-search candidate drops the step logs of the paths it
    started, and no dropped path is queried again, so every seed's result
    and the integration work are those of a run that keeps every log.  The
    logs left are of tabulated directions, accepted iterates and FD
    columns."""
    name, task = case
    run = {"torus": morse_run, "multichord": multi_run}[name]
    problem, results, seen = _logged_run(run, task, monkeypatch)
    dropped = set()
    for kind, path in seen["events"]:
        if kind == "drop":
            dropped.add(path)
        else:
            assert path not in dropped
    if name == "multichord":
        assert dropped
    assert set(problem._logs) <= seen["tabulated"] | seen["accepted"] | seen["fd"]
    monkeypatch.setattr(tr, "_drop_logs", lambda problem, paths: None)
    kept, want, want_seen = _logged_run(run, task, monkeypatch)
    assert results == want
    assert seen["grads"] == want_seen["grads"]
    assert len(problem._logs) + len(dropped) == len(kept._logs)


def test_a_merge_needs_every_ranked_seed_once(morse_run):
    problem, _ = tree_problem(morse_run, ("m2", "c1", "c1", "c3"))
    results = [tr.run_seed(problem, rank) for rank in range(3)]
    with pytest.raises(RuntimeError, match="once each"):
        tr.merge_seeds(problem, results)
    with pytest.raises(RuntimeError, match="once each"):
        tr.merge_seeds(problem, results + results[:1])


def test_skipped_unit_products_are_recorded_not_counted(morse_run):
    r = morse_run
    assert r.skipped, "unit-action products should be set aside"
    for i1, i2, i0 in r.skipped:
        assert (i1, i2, i0) not in r.m2_counts
    # every skipped triple involves an index-0 source or a 0-dim chart
    by_id0 = {p.id: p for p in r.crits[0]}
    by_id1 = {p.id: p for p in r.crits[1]}
    by_id2 = {p.id: p for p in r.crits[2]}
    for i1, i2, i0 in r.skipped:
        p1, p2, p0 = by_id0[i1], by_id1[i2], by_id2[i0]
        k = (2 - p1.morse_index, 2 - p2.morse_index, p0.morse_index)
        assert min(k) == 0 or min(p1.morse_index, p2.morse_index) == 0


def test_a_sink_missing_a_coupled_direction_is_refused(morse_run):
    """f-pit (k = 2), g-saddle (k = 1) into an (f+g)-saddle (k3 = 1) has
    d = 0, but the sink's stable chart misses a coupled direction, which
    no pin can stand in for."""
    r = morse_run
    pit = r.crits[0][0]
    assert pit.grading == 0
    for g_saddle in r.crits[1][1:3]:
        for sink in r.crits[2][1:3]:
            assert g_saddle.grading == sink.grading == 1
            missing = str(np.eye(2)[axis_of(sink)].tolist())
            problem = tr.TreeProblem(tuple(r.fields), pit, g_saddle, r.s,
                                     r.crits[2], r0=r.solver["r0"],
                                     tolerances=r.tol)
            with pytest.raises(tr.DimensionError, match="coupled direction") as e:
                tr.solve_trees(problem, sink)
            assert missing in str(e.value), (sink.id, str(e.value))


def test_stabilized_sinks_pin_their_quadratic_slots(stabilized_multi):
    task = ("m2", "c3", "c3", "c4")
    plus = stabilized_multi[("+",)]
    problem, sink = tree_problem(plus, task)
    chart = problem.sink_chart(sink)
    assert problem.pins == (2,)
    assert problem.D == 7 and problem.k + (chart.k,) == (4, 4, 6)
    theta = problem.pack([(np.eye(4)[0], 0.5), (np.eye(4)[1], 0.5)])
    assert len(theta) == problem.k[0] + problem.k[1] + 2 == 10
    assert tr.tree_residual(theta, problem).shape == (problem.D + 1,)
    assert tree_problem(stabilized_multi[("+", "-")], task)[0].pins == (2, 9)

    # the capture run starts with each pinned slot at exactly 0 and stays
    # there: from just below the sink along its fastest stable direction,
    # shifted along the pin too, it converges into the sink
    s3 = problem.s.s3
    fastest = chart.frame[:, np.argmax(np.abs(chart.rates))]
    meeting = np.asarray(sink.coords) + s3 + 1e-3 * fastest
    meeting[2] += 0.05
    capture = tr._capture(problem, sink, meeting)
    assert capture.samples[0][1][2] == 0.0
    assert all(pt[2] == 0.0 for _, pt in capture.samples)
    assert capture.termination.as_tuple() == ("converged", "c4")


def test_every_supported_m2_task_builds_a_tree_problem(multi_run, morse_run,
                                                       stabilized_multi):
    """No workload's sink misses a coupled direction, so none reaches the
    refusal above."""
    runs = [multi_run, morse_run, *stabilized_multi.values()]
    for run in runs:
        tasks = run.m2_tasks()
        assert tasks
        for task in tasks:
            problem, sink = tree_problem(run, task)
            assert problem.sink_chart(sink).k + len(problem.pins) == problem.D
