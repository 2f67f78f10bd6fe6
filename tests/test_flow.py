"""Gradient-flow integration and mod-2 line counting on model fields."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from gftrees import critical as cr
from gftrees import expr as ex
from gftrees import family as fa
from gftrees import flow as fl
from gftrees import trees as tr

from conftest import whole_hessian_frame


def scalar_field(text, dim, inner, outer, periodic=False, names=None):
    lay = ex.VarLayout(dim, 0)
    return fa.ScalarField(dim, ex.parse(text, lay), inner_box=inner,
                          outer_box=outer, periodic=periodic)


@pytest.fixture
def saddle2d():
    return scalar_field("(x1^2 - x2^2)/2", 2,
                        [[-1, 1], [-1, 1]], [[-2, 2], [-2, 2]])


@pytest.fixture
def well1d():
    return scalar_field("x1^3/3 - x1", 1, [[-2, 2]], [[-2.5, 2.5]])


@pytest.fixture
def torus_field():
    return scalar_field("cos(2*pi*x1) + 0.3*cos(2*pi*x2)", 2,
                        [[0, 1], [0, 1]], [[0, 1], [0, 1]], periodic=True)


def test_integrator_matches_the_linear_closed_form(saddle2d):
    """grad = (x, -y), so the exact flow is (x e^t, y e^-t)."""
    start = [0.1, 0.8]
    traj = fl.integrate(saddle2d, start, terminal_t=1.0)
    assert traj.termination.kind == "time"
    assert traj.final[0] == pytest.approx(0.1 * math.e, rel=1e-7)
    assert traj.final[1] == pytest.approx(0.8 / math.e, rel=1e-7)
    times = [t for t, _ in traj.samples]
    assert times == sorted(times) and times[0] == 0.0
    assert times[-1] == pytest.approx(1.0, abs=1e-12)


def test_backward_integration_reverses_the_flow(saddle2d):
    traj = fl.integrate(saddle2d, [0.5, 0.01], direction="backward",
                        terminal_t=0.7)
    assert traj.final[0] == pytest.approx(0.5 * math.exp(-0.7), rel=1e-7)
    assert traj.final[1] == pytest.approx(0.01 * math.exp(0.7), rel=1e-7)


def test_capture_at_a_critical_point(well1d):
    crits = cr.find_critical_points(well1d)
    assert [p.value for p in crits] == pytest.approx([-2 / 3, 2 / 3], abs=1e-9)
    lo, hi = crits
    stops = fl.Stops(crits, fl.escape_box(well1d.outer_box), 400.0, 1e-4, 1e-7)
    # inside (-1, 1) the gradient x^2 - 1 is negative: flow toward x = -1,
    # where the field value is the larger one
    traj = fl.integrate(well1d, [0.9], stops=stops)
    assert traj.termination.kind == "converged"
    assert traj.termination.target == hi.id
    assert traj.final[0] == pytest.approx(-1.0, abs=1e-3)
    assert hi.id in traj.approach


def test_escape_through_the_box_wall(well1d):
    crits = cr.find_critical_points(well1d)
    stops = fl.Stops(crits, fl.escape_box(well1d.outer_box), 400.0, 1e-4, 1e-7)
    traj = fl.integrate(well1d, [1.1], stops=stops)
    assert traj.termination.kind == "escaped"
    assert traj.termination.target.startswith(("+", "-"))
    assert abs(traj.final[0]) > 2.5  # beyond the outer box


def test_time_budget_exhaustion_is_reported(well1d):
    crits = cr.find_critical_points(well1d)
    stops = fl.Stops(crits, fl.escape_box(well1d.outer_box), 0.05, 1e-4, 1e-7)
    traj = fl.integrate(well1d, [0.9], stops=stops)
    assert traj.termination.kind == "timeout"


def test_chart_leaves_along_the_unstable_eigendirection(saddle2d):
    p = cr.CriticalPoint(np.zeros(2), 0.0, 1, 1, np.array([-1.0, 1.0]))
    p.id = "p"
    chart = fl.build_chart(saddle2d, p, "unstable", r0=1e-3)
    assert chart.k == 1
    z = fl.chart_point(chart, [1.0], 2.0)
    assert z[0] == pytest.approx(1e-3 * math.exp(2.0), rel=1e-6)
    assert abs(z[1]) < 1e-12
    assert list(fl.chart_point(chart, [1.0], 0.0)) == pytest.approx(
        [1e-3, 0.0], abs=1e-15)


def test_one_line_between_the_wells(well1d):
    crits = cr.find_critical_points(well1d)
    lo, hi = crits
    count = fl.count_lines(fl.LineSource(well1d, lo, crits), hi)
    assert count.parity == 1
    assert count.clusters == 1
    assert len(count.trajectories) >= 1
    (traj,) = count.trajectories[:1]
    assert traj.termination.as_tuple() == ("converged", hi.id)


def test_saddle_to_peak_lines_cancel_on_the_torus(torus_field):
    crits = cr.find_critical_points(torus_field)
    assert [round(p.value, 6) for p in crits] == [-1.3, -0.7, 0.7, 1.3]
    saddle, peak = crits[2], crits[3]
    count = fl.count_lines(fl.LineSource(torus_field, saddle, crits), peak)
    assert count.parity == 0
    assert count.clusters == 2


def test_pit_to_saddle_lines_cancel_on_the_torus(torus_field):
    crits = cr.find_critical_points(torus_field)
    pit, saddle = crits[0], crits[1]
    count = fl.count_lines(fl.LineSource(torus_field, pit, crits), saddle)
    assert count.parity == 0
    assert count.clusters == 2


def test_a_wall_the_scan_cannot_resolve_is_refused(torus_field):
    """With r_conv = 1e-8 no seed is captured by the saddle, though seed 0
    passes it at 4e-7: the two lines are walls, and a count of 0 would be
    wrong."""
    crits = cr.find_critical_points(torus_field)
    pit, saddle = crits[0], crits[1]
    with pytest.raises(fl.AmbiguousCountError, match=saddle.id):
        fl.count_lines(fl.LineSource(torus_field, pit, crits, m=64,
                                     tolerances={"r_conv": 1e-8}), saddle)


def test_wrong_grading_gap_has_no_count(torus_field):
    crits = cr.find_critical_points(torus_field)
    pit, peak = crits[0], crits[3]
    count = fl.count_lines(fl.LineSource(torus_field, pit, crits), peak)
    assert count.parity is None
    assert "dimension" in count.note


def test_descending_targets_count_zero(torus_field):
    crits = cr.find_critical_points(torus_field)
    saddle = crits[2]
    sunk = cr.CriticalPoint(crits[3].coords, -5.0, 2, 2, crits[3].hess_eigs)
    sunk.id = "sunk"
    count = fl.count_lines(fl.LineSource(torus_field, saddle, crits), sunk)
    assert count.parity == 0
    assert "value" in count.note


def test_the_scalar_loop_runs_on_plain_floats(well1d, monkeypatch):
    """Chart points and k = 1 scans hand the right-hand side Python floats,
    not numpy float64 scalars, which would double the scalar loop's time."""
    lo, hi = cr.find_critical_points(well1d)
    calls = []

    def grad(z):
        assert all(type(v) is float for v in z), [type(v) for v in z]
        calls.append(1)
        return fa.ScalarField.grad(well1d, z)
    monkeypatch.setattr(well1d, "grad", grad)
    chart = fl.build_chart(well1d, lo, "unstable")
    assert chart.k == 1
    fl.chart_point(chart, np.array([1.0]), 0.5)
    assert fl.count_lines(fl.LineSource(well1d, lo, [lo, hi]), hi).parity == 1
    assert calls


def test_a_scan_reads_its_time_cap_and_tracked_points(well1d):
    crits = cr.find_critical_points(well1d)
    lo, hi = crits
    assert ("converged", hi.id) in fl.sphere_scan(well1d, lo, crits)[0].outcomes
    short, _ = fl.sphere_scan(well1d, lo, crits, tolerances={"t_max": 1e-3})
    assert short.outcomes == [("timeout", "")] * 2
    untracked, _ = fl.sphere_scan(well1d, lo, [lo])
    assert untracked.approach_ids == []


def test_counts_from_one_source_share_its_scan(torus_field, monkeypatch):
    crits = cr.find_critical_points(torus_field)
    pit, saddles = crits[0], crits[1:3]
    calls = []
    scan = fl.sphere_scan
    monkeypatch.setattr(fl, "sphere_scan",
                        lambda *a, **k: calls.append(1) or scan(*a, **k))
    source = fl.LineSource(torus_field, pit, crits, m=64)
    counts = [fl.count_lines(source, q) for q in saddles]
    assert calls == [1]
    assert [(c.parity, c.clusters) for c in counts] == [(0, 2), (0, 2)]


def test_a_source_whose_targets_lie_below_it_never_scans(torus_field,
                                                         monkeypatch):
    """Every target below the saddle in grading or value returns before
    the scan is read."""
    crits = cr.find_critical_points(torus_field)
    saddle = crits[2]
    sunk = cr.CriticalPoint(crits[3].coords, -5.0, 2, 2, crits[3].hess_eigs)
    sunk.id = "sunk"

    def sphere_scan(*a, **k):
        raise AssertionError("scanned from %s" % saddle.id)
    monkeypatch.setattr(fl, "sphere_scan", sphere_scan)
    source = fl.LineSource(torus_field, saddle, crits)
    counts = [fl.count_lines(source, q) for q in (crits[0], crits[1], sunk)]
    assert [c.parity for c in counts] == [None, None, 0]
    assert "scan" not in vars(source)


def assert_batch_matches_the_scalar_loop(field, starts, stops):
    """integrate_batch against scalar event-mode integrate, row by row:
    the same termination, and bit-equal time, final point and approach."""
    got = fl.integrate_batch(field, starts, stops)
    want = [fl.integrate(field, list(s), stops=stops) for s in starts]
    for b, s in zip(got, want):
        assert b.termination == s.termination
        assert b.t_final == s.t_final
        assert np.array_equal(b.final, s.final)
        assert b.approach == s.approach
    # the rows stop after different numbers of accepted steps
    assert len({len(s.samples) for s in want}) > 1
    return got


def scan_rows(field, p, crits, m):
    chart = fl.build_chart(field, p, "unstable")
    stops = fl._flow_stops(field, crits, p.value, fl.FLOW_TOLERANCES)
    return [fl._seed_start(chart, u) for u in fl.sphere_dirs(chart.k, m, 12345)], stops


def test_batched_scans_match_the_scalar_loop_on_the_torus(torus_field):
    crits = cr.find_critical_points(torus_field)
    pit, saddle = crits[0], crits[1]
    for p in (pit, saddle):
        rows = assert_batch_matches_the_scalar_loop(
            torus_field, *scan_rows(torus_field, p, crits, 512))
        assert all(r.termination.kind == "converged" for r in rows)


def test_a_batched_scan_matches_the_scalar_loop_off_the_torus(multi_config):
    from gftrees import pipeline as pl
    run = pl.GFRun(multi_config).prepare()
    crits = run.images[(1, 2)]
    p = crits["c3"]
    rows = assert_batch_matches_the_scalar_loop(
        run.ext[(1, 2)], *scan_rows(run.ext[(1, 2)], p, list(crits.values()), 64))
    assert {r.termination.kind for r in rows} == {"converged", "escaped"}


def test_a_rejected_jump_and_an_escape_match_the_scalar_loop(monkeypatch):
    """On f = x the flow runs right at unit speed, so steps grown to h_max
    jump across the ball around c = 0.3 until the segment test has cut
    them down; the row from 0.5 never meets c and leaves the box.  Rows
    from further left keep the batch at SCALAR_ROWS or more while the
    first rows meet the ball."""
    field = fa.ScalarField(1, ex.parse("x1", ex.VarLayout(1, 0)))
    c = cr.CriticalPoint(np.array([0.3]), 0.3, 0, 0, np.array([0.0]))
    c.id = "c"
    stops = fl.Stops([c], [[-5.0, 5.0]], 400.0, 1e-4, 1e-3)
    segments = []
    seg = fl._segment_dist_rows

    def recorded(*args):
        segments.append(seg(*args))
        return segments[-1]
    monkeypatch.setattr(fl, "_segment_dist_rows", recorded)
    starts = [[0.0], [-0.2], [0.5]] + [[-0.5 - 0.5 * i] for i in range(fl.SCALAR_ROWS)]
    rows = assert_batch_matches_the_scalar_loop(field, starts, stops)
    assert [r.termination.as_tuple() for r in rows[:3]] == [
        ("converged", "c"), ("converged", "c"), ("escaped", "+z0")]
    assert min(d.min() for d in segments if d.size) < stops.r_conv


def test_a_shrinking_batch_resumes_its_last_rows_on_the_scalar_loop(torus_field, monkeypatch):
    """The rows still active once fewer than SCALAR_ROWS remain resume the
    scalar loop from their step state, on plain floats, and every row
    still ends as the scalar loop does."""
    crits = cr.find_critical_points(torus_field)
    resumed = []
    core = fl._integrate_core

    def spied(f, z0, t_cap, *args, start=None, **kwargs):
        if start is not None:
            t, z, k1, h = start
            assert all(type(v) is float for v in [t, h] + z + k1)
            resumed.append(t)
        return core(f, z0, t_cap, *args, start=start, **kwargs)
    monkeypatch.setattr(fl, "_integrate_core", spied)
    assert_batch_matches_the_scalar_loop(torus_field, *scan_rows(torus_field, crits[0], crits, 64))
    assert 0 < len(resumed) < fl.SCALAR_ROWS
    assert min(resumed) > 0.0


def test_a_scan_hand_off_grows_no_step_log(torus_field, monkeypatch):
    """A batch hands each last row to the scalar loop as a start state
    without a step log, so no hand-off grows a log, and the scan's
    outcomes and approach bytes stay those of the scalar loop."""
    crits = cr.find_critical_points(torus_field)
    pit = crits[0]
    handed = []
    core = fl._integrate_core

    def spied(f, z0, t_cap, *args, start=None, log=None, **kwargs):
        if start is not None:
            handed.append(log)
        return core(f, z0, t_cap, *args, start=start, log=log, **kwargs)
    monkeypatch.setattr(fl, "_integrate_core", spied)
    scan, chart = fl.sphere_scan(torus_field, pit, crits, m=64)
    assert handed and all(log is None for log in handed)
    stops = fl._flow_stops(torus_field, crits, pit.value, fl.FLOW_TOLERANCES)
    want = [fl.integrate(torus_field, fl._seed_start(chart, u), stops=stops) for u in scan.dirs]
    assert scan.outcomes == [traj.termination.as_tuple() for traj in want]
    assert scan.approach.tobytes() == np.array(
        [[traj.approach[i] for i in scan.approach_ids] for traj in want]).tobytes()


def test_a_k1_scan_runs_on_the_scalar_loop(well1d, monkeypatch):
    """The two seeds of a k = 1 scan make no grad_vec call and end as two
    event-mode integrations."""
    crits = cr.find_critical_points(well1d)
    lo = crits[0]

    def grad_vec(Z):
        raise AssertionError("grad_vec called on %d rows" % len(Z))
    monkeypatch.setattr(well1d, "grad_vec", grad_vec)
    scan, chart = fl.sphere_scan(well1d, lo, crits)
    assert chart.k == 1
    stops = fl._flow_stops(well1d, crits, lo.value, fl.FLOW_TOLERANCES)
    want = [fl.integrate(well1d, fl._seed_start(chart, u), stops=stops) for u in scan.dirs]
    assert scan.outcomes == [traj.termination.as_tuple() for traj in want]
    assert scan.approach.tobytes() == np.array(
        [[traj.approach[i] for i in scan.approach_ids] for traj in want]).tobytes()


def adversarial_deltas(rng, c, n, lo):
    """Points z = c + d, d drawn with first coordinate in [lo, 0.45) and
    second in [-0.45, 0.45), kept where libm's `** 2` rounds a square of
    z - c otherwise than x * x does, by enough to change its length."""
    Z = c + np.column_stack([rng.uniform(lo, 0.45, n), rng.uniform(-0.45, 0.45, n)])
    keep = [math.sqrt(sum(v ** 2 for v in d)) != math.sqrt(sum(v * v for v in d))
            for d in (Z - c).tolist()]
    return Z[keep]


def test_distances_with_adversarial_squares_match_row_by_row():
    """On squares that libm's pow rounds otherwise than x * x, the row
    twins match the scalar helpers bit for bit, which holds only while
    both sides square with x * x.  Each segment runs from z0 away from c,
    so its nearest point is z0 and its length squares c - z0."""
    c = np.array([0.3, 0.6])
    Z0 = adversarial_deltas(np.random.default_rng(0), c, 40000, -0.45)
    assert len(Z0) >= 8
    Z1 = Z0 + 0.01 * (Z0 - c)
    for periodic in (False, True):
        assert fl._dist_rows(Z0, c, periodic).tolist() == [
            fl._dist(z, c.tolist(), periodic) for z in Z0.tolist()]
        assert fl._segment_dist_rows(Z0, Z1, c, periodic).tolist() == [
            fl._segment_dist(z0, z1, c.tolist(), periodic)
            for z0, z1 in zip(Z0.tolist(), Z1.tolist())]


@pytest.mark.parametrize("compensated", [False, True])
def test_scalar_and_row_sums_agree_where_a_compensated_sum_rounds_otherwise(
        compensated, monkeypatch):
    """On each input below a compensated sum rounds otherwise than adding
    left to right from 0.0.  The builtin `sum` of floats is compensated
    from Python 3.12 on; `compensated` stands one in for it as flow's
    `sum`, so the scalar helpers agree with their row twins only while
    they add left to right on their own."""
    dot = [1e16, 1.0, -1e16]
    assert math.fsum(dot) == 1.0
    assert fl._sum(dot) == fl._row_sum(np.array([dot]))[0] == 0.0
    if compensated:
        monkeypatch.setattr(fl, "sum", math.fsum, raising=False)
    # offset (1e8, 1, 0.5): its squares 1e16, 1, 0.25 add left to right
    # to 1e16, and to 1e16 + 2 compensated, one ulp apart after the root
    z = [1e8, 1.0, 0.5]
    assert math.sqrt(math.fsum(v * v for v in z)) != math.sqrt(fl._sum(v * v for v in z))
    origin = [0.0, 0.0, 0.0]
    assert fl._dist(z, origin, False) == fl._dist_rows(np.array([z]), np.zeros(3), False)[0]
    segments = [
        (origin, origin, z),                          # a point: vv == 0
        (origin, [0.0, 0.0, 1.0], [1e8, 1.0, 1.5]),   # nearest at z1, offset z
        (origin, [1e8, 1.0, -1e8], [1e8, 1.0, 1e8]),  # vx . wx has the terms of dot
    ]
    for z0, z1, c in segments:
        row = fl._segment_dist_rows(np.array([z0]), np.array([z1]), np.array(c), False)
        assert fl._segment_dist(z0, z1, c, False) == row[0]
    assert fl._segment_dist(*segments[1], False) == fl._dist(z, origin, False)


def brute_force_neighbors(dirs):
    """The seed neighbor graph from every pairwise distance, one at a time."""
    P = dirs.tolist()
    d = [[math.dist(p, q) for q in P] for p in P]
    nearest = [min(row[:i] + row[i + 1:]) for i, row in enumerate(d)]
    spacing = 2.2 * float(np.median(nearest))
    neighbors = [[] for _ in P]
    for i in range(len(P)):
        for j in range(i + 1, len(P)):
            if d[i][j] <= spacing:
                neighbors[i].append(j)
                neighbors[j].append(i)
    return neighbors


@pytest.mark.parametrize("k", [3, 4])
def test_the_seed_neighbor_graph_for_k_at_least_3_matches_brute_force(k):
    dirs = fl.sphere_dirs(k, 512, 12345)
    neighbors = fl._seed_neighbors(dirs)
    assert neighbors == brute_force_neighbors(dirs)
    # a connected graph of a few neighbors per seed, not a near-complete one
    assert all(1 <= len(n) <= 20 for n in neighbors)
    assert fl._capture_clusters([True] * 512, neighbors) == [list(range(512))]


@pytest.mark.parametrize("k", [3, 4])
def test_the_seed_neighbor_graph_matches_a_kd_tree(k):
    spatial = pytest.importorskip("scipy.spatial")
    dirs = fl.sphere_dirs(k, 512, 12345)
    tree = spatial.cKDTree(dirs)
    spacing = 2.2 * np.median(tree.query(dirs, k=2)[0][:, 1])
    pairs = sorted(tree.query_pairs(spacing))
    neighbors = fl._seed_neighbors(dirs)
    assert sorted((a, b) for a in range(512) for b in neighbors[a] if a < b) == pairs


def test_a_batched_scan_through_adversarial_squares_matches_the_scalar_loop():
    """On f = x1^2/2 every row runs right, away from c, and escapes; each
    starts where the square that sets its distance to c rounds otherwise
    under libm's pow, and that distance stays its closest approach."""
    field = fa.ScalarField(2, ex.parse("x1^2/2", ex.VarLayout(2, 0)))
    c = cr.CriticalPoint(np.array([0.3, 0.6]), 0.045, 0, 0, np.array([0.0, 0.0]))
    c.id = "c"
    stops = fl.Stops([c], [[-5.0, 5.0], [-5.0, 5.0]], 400.0, 1e-4, 1e-3)
    starts = adversarial_deltas(np.random.default_rng(1), c.coords, 40000, 0.05)
    assert len(starts) >= fl.SCALAR_ROWS
    rows = assert_batch_matches_the_scalar_loop(field, starts.tolist(), stops)
    assert {r.termination.as_tuple() for r in rows} == {("escaped", "+z0")}
    assert [r.approach["c"] for r in rows] == fl._dist_rows(starts, c.coords, False).tolist()


# A cap below h0, an ascending run with an FD-style 1e-5 nudge, then a
# smaller time after a larger one (which resumes from the log's state
# before it) and a climb again.
RESUME_LADDER = [5e-4, 0.3, 0.3 + 1e-5, 1.1, 2.5, 2.5 + 1e-5, 0.7,
                 0.7 + 1e-5, 4.0]


def counted_grads(field, monkeypatch):
    calls = []
    monkeypatch.setattr(field, "grad",
                        lambda z: calls.append(1) or fa.ScalarField.grad(field, z))
    return calls


def resumed_and_fresh(chart, u, t, log, calls):
    """The chart point at t through `log` and from t = 0, after checking
    that they are bit-identical, as the grad calls each took."""
    n0 = len(calls)
    got = fl.chart_point(chart, u, t, resume=log)
    n1 = len(calls)
    want = fl.chart_point(chart, u, t)
    assert np.array_equal(got, want), (chart.side, t)
    return n1 - n0, len(calls) - n1


def assert_resumes_bit_identically(chart, u, monkeypatch):
    calls = counted_grads(chart.field, monkeypatch)
    log = fl.StepLog()
    resumed_calls = fresh_calls = 0
    for t in RESUME_LADDER:
        resumed, fresh = resumed_and_fresh(chart, u, t, log, calls)
        resumed_calls += resumed
        fresh_calls += fresh
        if t == 0.7:
            assert resumed < fresh
        # the log runs from t = 0, one state per step, its times ascending
        assert log[0][0] == 0.0
        assert all(a[0] <= b[0] and a != b for a, b in zip(log, log[1:]))
    assert resumed_calls < fresh_calls


def test_resumed_chart_points_are_bit_identical_on_the_torus(torus_field, monkeypatch):
    crits = cr.find_critical_points(torus_field)
    saddle, peak = crits[2], crits[3]
    for p, side, u in ((saddle, "unstable", [1.0]), (saddle, "stable", [-1.0]),
                       (peak, "stable", [math.cos(0.4), math.sin(0.4)])):
        chart = fl.build_chart(torus_field, p, side)
        assert_resumes_bit_identically(chart, np.array(u), monkeypatch)


def test_resumed_chart_points_are_bit_identical_off_the_torus(multi_config, monkeypatch):
    from gftrees import pipeline as pl
    run = pl.GFRun(multi_config).prepare()
    field = run.ext[(1, 3)]
    assert not field.periodic
    for p in run.chords:
        q = run.images[(1, 3)][p.id]
        for side in ("unstable", "stable"):
            chart = fl.build_chart(field, q, side)
            if chart.k == 0:
                continue
            u = np.linspace(1.0, 2.0, chart.k)
            assert_resumes_bit_identically(chart, u / np.linalg.norm(u), monkeypatch)


def test_a_line_search_ladder_resumes_from_the_step_log(torus_field, monkeypatch):
    """Descending times, each with its finite-difference nudge, then an
    ascent, on a k = 1 unstable chart: every rung is bit-identical to a
    fresh run and, after the first, costs a small part of one.  So do a
    cap below h0, a cap equal to a logged time and a cap equal to a logged
    time plus its step."""
    saddle = cr.find_critical_points(torus_field)[2]
    chart = fl.build_chart(torus_field, saddle, "unstable")
    assert chart.k == 1
    u = np.array([1.0])
    calls = counted_grads(torus_field, monkeypatch)
    log = fl.StepLog()
    resumed_and_fresh(chart, u, 4.0, log, calls)
    ladder = [t + nudge for t in (3.0, 2.0, 1.0, 0.5) for nudge in (0.0, tr.FD_STEP)]
    for t in ladder + [1.5, 2.5, 5.0]:
        resumed, fresh = resumed_and_fresh(chart, u, t, log, calls)
        assert 4 * resumed < fresh, t
    h_max = fl.FLOW_TOLERANCES["h_max"]
    assert fl.FLOW_TOLERANCES["h0"] > 5e-4
    t_i, _, _, h_i = log[len(log) // 2]
    for t in (5e-4, t_i, t_i + min(h_i, h_max)):
        resumed, fresh = resumed_and_fresh(chart, u, t, log, calls)
        assert resumed < fresh, t


class ReadCountingLog(fl.StepLog):
    """A step log that counts the states read from it."""
    reads = 0

    def __getitem__(self, j):
        self.reads += 1
        return super().__getitem__(j)


def test_a_query_at_a_larger_cap_resumes_its_log_scan_where_the_last_stopped(
        torus_field, monkeypatch):
    """Ascending caps, descending caps, then an ascent again, each with its
    finite-difference nudge, on a k = 1 unstable chart: every rung is
    bit-identical to a fresh run.  A rung at a cap no smaller than the
    last one's reads fewer logged states than a scan from t = 0, and a
    rung at a smaller cap reads as many."""
    saddle = cr.find_critical_points(torus_field)[2]
    chart = fl.build_chart(torus_field, saddle, "unstable")
    u = np.array([1.0])
    h_max = fl.FLOW_TOLERANCES["h_max"]
    calls = counted_grads(torus_field, monkeypatch)
    log = ReadCountingLog()
    rungs = [t + nudge for t in (0.5, 1.5, 3.0, 2.0, 1.0, 2.5, 4.0)
             for nudge in (0.0, tr.FD_STEP)]
    resumed_and_fresh(chart, u, rungs[0], log, calls)
    for last, t in zip(rungs, rungs[1:]):
        from_zero = ReadCountingLog()
        from_zero.extend(log)
        fl._resume_index(from_zero, t, h_max)
        log.reads = 0
        resumed_and_fresh(chart, u, t, log, calls)
        # the query reads its scan's states and then the state it resumes from
        scanned = log.reads - 1
        if t >= last:
            assert scanned < from_zero.reads, t
        else:
            assert scanned == from_zero.reads, t


def test_a_field_without_growing_slots_scans_the_whole_hessian_frame(torus_field):
    crits = cr.find_critical_points(torus_field)
    assert fl.pinned_slots(torus_field) == ()
    for p in crits[:3]:
        _, chart = fl.sphere_scan(torus_field, p, crits, m=16)
        assert chart.pins == ()
        assert chart.frame.tobytes() == whole_hessian_frame(torus_field, p).tobytes()


@pytest.fixture
def stabilized_well():
    """well1d's x1^3/3 - x1 plus a decoupled slot 0.5 * x2^2."""
    return fa.ScalarField(2, ex.parse("x1^3/3 - x1", ex.VarLayout(2, 0)),
                          quad_blocks=[(1, 0.5)], inner_box=[[-2, 2], [-1, 1]],
                          outer_box=[[-2.5, 2.5], [-2, 2]])


def test_a_scan_pins_a_growing_slot_and_starts_its_seeds_there_at_zero(
        stabilized_well, monkeypatch):
    """The source sits off the slot-zero line, as a Newton root may; its
    pinned chart has k = 1, and every seed and representative starts with
    exactly 0.0 in the slot, where the flow then stays."""
    crits = cr.find_critical_points(stabilized_well)
    lo, hi = sorted(crits, key=lambda c: c.value)
    off = dataclasses.replace(lo, coords=lo.coords + np.array([0.0, 1e-9]))
    starts = []
    batch = fl.integrate_batch

    def spied(field, rows, *args):
        starts.extend(rows)
        return batch(field, rows, *args)
    monkeypatch.setattr(fl, "integrate_batch", spied)
    assert fl.pinned_slots(stabilized_well) == (1,)
    scan, chart = fl.sphere_scan(stabilized_well, off, crits)
    assert (off.coindex, chart.k, chart.pins) == (2, 1, (1,))
    assert chart.frame.tolist() == [[1.0], [0.0]]
    assert len(starts) == 2 and all(z[1] == 0.0 for z in starts)
    count = fl.count_lines(fl.LineSource(stabilized_well, off, crits), hi)
    assert (count.parity, count.clusters) == (1, 1)
    assert all(z[1] == 0.0 for _, z in count.trajectories[0].samples)
    # the unpinned circle sees the same line
    full = fl.build_chart(stabilized_well, off, "unstable")
    assert full.k == 2 and full.pins == ()
    dirs = fl.sphere_dirs(2, 512, 12345)
    stops = fl._flow_stops(stabilized_well, crits, off.value, fl.FLOW_TOLERANCES)
    trajs = batch(stabilized_well, [fl._seed_start(full, u) for u in dirs], stops)
    is_q = [t.termination.as_tuple() == ("converged", hi.id) for t in trajs]
    assert len(fl._capture_clusters(is_q, fl._seed_neighbors(dirs))) % 2 == count.parity


def test_a_source_whose_only_unstable_slot_is_pinned_scans_nothing(stabilized_well):
    crits = cr.find_critical_points(stabilized_well)
    hi = max(crits, key=lambda c: c.value)
    scan, chart = fl.sphere_scan(stabilized_well, hi, crits)
    assert (hi.coindex, chart.k, chart.pins) == (1, 0, (1,))
    assert scan.dirs.shape == (0, 0) and scan.outcomes == []


def test_a_pin_outside_the_charts_side_is_refused(stabilized_well):
    crits = cr.find_critical_points(stabilized_well)
    lo = min(crits, key=lambda c: c.value)
    with pytest.raises(RuntimeError, match="pins"):
        fl.build_chart(stabilized_well, lo, "stable", pins=(1,))


def test_info_logging_names_each_scan_that_runs(stabilized_well, caplog):
    crits = cr.find_critical_points(stabilized_well)
    lo, hi = sorted(crits, key=lambda c: c.value)
    sources = {m: fl.LineSource(stabilized_well, lo, crits, m=m) for m in (None, 8)}
    fl.count_lines(sources[None], hi)
    # the default level adds nothing
    assert not [r for r in caplog.records if r.name.startswith("gftrees")]
    caplog.set_level(logging.INFO, logger="gftrees")
    for m in (None, 8, 8):
        fl.count_lines(sources[m], hi)
    # m = None reads the scan made at the default level, and the second
    # m = 8 the first one's
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("gftrees.flow", "scan field from %s: k = 1, pins [1], 2 seeds" % lo.id)]


def test_escape_box_margins():
    assert fl.escape_box([[-2.0, 2.0], [0.0, 1.0]]) == \
        [[-3.0, 3.0], [-0.25, 1.25]]
