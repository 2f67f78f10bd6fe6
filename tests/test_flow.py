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
    stops = fl.Stops(crits, fl.escape_box(well1d.outer_box))
    # inside (-1, 1) the gradient x^2 - 1 is negative: flow toward x = -1,
    # where the field value is the larger one
    traj = fl.integrate(well1d, [0.9], stops=stops)
    assert traj.termination.kind == "converged"
    assert traj.termination.target == hi.id
    assert traj.final[0] == pytest.approx(-1.0, abs=1e-3)
    assert hi.id in traj.approach


def test_escape_through_the_box_wall(well1d):
    crits = cr.find_critical_points(well1d)
    stops = fl.Stops(crits, fl.escape_box(well1d.outer_box))
    traj = fl.integrate(well1d, [1.1], stops=stops)
    assert traj.termination.kind == "escaped"
    assert traj.termination.target.startswith(("+", "-"))
    assert abs(traj.final[0]) > 2.5  # beyond the outer box


def test_time_budget_exhaustion_is_reported(well1d):
    crits = cr.find_critical_points(well1d)
    stops = fl.Stops(crits, fl.escape_box(well1d.outer_box))
    traj = fl.integrate(well1d, [0.9], stops=stops, tolerances={"t_max": 0.05})
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


def assert_batch_matches_the_scalar_loop(field, starts, stops, tol=None):
    """integrate_batch against scalar event-mode integrate, row by row:
    the same termination, and bit-equal time, final point and approach."""
    got = fl.integrate_batch(field, starts, stops, tol)
    want = [fl.integrate(field, list(s), stops=stops, tolerances=tol) for s in starts]
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
    stops = fl.flow_stops(field, crits, p.value)
    return [fl.chart_start(chart, u) for u in fl.sphere_dirs(chart.k, m, 12345)], stops


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
    stops = fl.Stops([c], [[-5.0, 5.0]])
    segments = []
    seg = fl._segment_dist_rows

    def recorded(*args):
        segments.append(seg(*args))
        return segments[-1]
    monkeypatch.setattr(fl, "_segment_dist_rows", recorded)
    starts = [[0.0], [-0.2], [0.5]] + [[-0.5 - 0.5 * i] for i in range(fl.SCALAR_ROWS)]
    rows = assert_batch_matches_the_scalar_loop(field, starts, stops, LINEAR)
    assert [r.termination.as_tuple() for r in rows[:3]] == [
        ("converged", "c"), ("converged", "c"), ("escaped", "+z0")]
    assert min(d.min() for d in segments if d.size) < fl.FLOW_TOLERANCES["r_conv"]


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
    want = [fl.integrate(torus_field, fl.chart_start(chart, u), stops=scan.stops)
            for u in scan.dirs]
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
    want = [fl.integrate(well1d, fl.chart_start(chart, u), stops=scan.stops)
            for u in scan.dirs]
    assert scan.outcomes == [traj.termination.as_tuple() for traj in want]
    assert scan.approach.tobytes() == np.array(
        [[traj.approach[i] for i in scan.approach_ids] for traj in want]).tobytes()


def _same_trajectory(a, b):
    return (a.samples == b.samples and a.termination == b.termination
            and a.t_final == b.t_final and a.final.tobytes() == b.final.tobytes()
            and a.approach == b.approach)


def test_a_k1_representative_is_the_scan_run_of_its_seed(well1d, monkeypatch):
    """The two seeds of a k = 1 scan end differently (one escapes, one
    reaches the peak).  Reading the count's representatives integrates
    nothing: each is the recorded run its scan already made, equal in every
    field to a fresh `integrate` from the captured seed, and unequal to the
    other seed's."""
    crits = cr.find_critical_points(well1d)
    lo, hi = crits
    source = fl.LineSource(well1d, lo, crits)
    count = fl.count_lines(source, hi)
    scan, chart = source.scan
    assert chart.k == 1 and scan.trajectories is not None
    fresh = [fl.integrate(well1d, fl.chart_start(chart, u), stops=scan.stops,
                          tolerances=source.tol) for u in scan.dirs]
    ends = [traj.termination.as_tuple() for traj in fresh]
    assert sorted(kind for kind, _ in ends) == ["converged", "escaped"]
    hit = ends.index(("converged", hi.id))
    calls = []
    integrate = fl.integrate
    monkeypatch.setattr(fl, "integrate",
                        lambda *a, **k: calls.append(a) or integrate(*a, **k))
    (traj,) = count.trajectories
    assert calls == []
    assert len(traj.samples) > 2
    assert _same_trajectory(traj, fresh[hit])
    assert not _same_trajectory(traj, fresh[1 - hit])


def test_a_batched_scan_integrates_its_representatives_again(torus_field,
                                                             monkeypatch):
    """A circle scan runs in the numpy batch, which keeps no samples, so
    each representative is one fresh `integrate` from its seed."""
    crits = cr.find_critical_points(torus_field)
    pit, saddle = crits[0], crits[1]
    source = fl.LineSource(torus_field, pit, crits)
    count = fl.count_lines(source, saddle)
    assert source.scan[1].k == 2 and source.scan[0].trajectories is None
    calls = []
    integrate = fl.integrate
    monkeypatch.setattr(fl, "integrate",
                        lambda *a, **k: calls.append(a) or integrate(*a, **k))
    trajs = count.trajectories
    assert len(calls) == len(trajs) == count.clusters == 2
    assert all(t.samples and t.termination.as_tuple() == ("converged", saddle.id)
               for t in trajs)


# the value window of the linear fields below, whose values move at unit
# speed across a capture ball
LINEAR = {"value_window": 1e-3}


def linear_stops(coords_values, box):
    """Tracked points (id "c1", "c2", ...) at the given (coords, value)."""
    crits = []
    for j, (coords, value) in enumerate(coords_values, 1):
        c = cr.CriticalPoint(np.array(coords, dtype=float), value, 0, 0,
                             np.zeros(len(coords)))
        c.id = "c%d" % j
        crits.append(c)
    return fl.Stops(crits, box)


def test_an_event_run_stops_at_the_time_cap_of_its_tolerances():
    """In event mode the tolerance dict is the one source of t_max: on
    f = x1 at unit speed {"t_max": 1.0} ends the run at t = 1 on the scalar
    and the batched loop, and the default t_max runs on to the escape at
    t = 20."""
    field = fa.ScalarField(1, ex.parse("x1", ex.VarLayout(1, 0)))
    stops = linear_stops([], [[-20.0, 20.0]])
    for n in (1, fl.SCALAR_ROWS):
        for traj in fl.integrate_batch(field, [[0.0]] * n, stops, {"t_max": 1.0}):
            assert traj.termination.as_tuple() == ("timeout", "")
            assert traj.t_final == pytest.approx(1.0, abs=1e-12)
    traj = fl.integrate(field, [0.0], stops=stops, tolerances={"t_max": 1.0})
    assert traj.termination.as_tuple() == ("timeout", "")
    assert traj.t_final == pytest.approx(1.0, abs=1e-12)
    traj = fl.integrate(field, [0.0], stops=stops)
    assert traj.termination.as_tuple() == ("escaped", "+z0")
    assert 20.0 < traj.t_final < 21.0


def test_a_step_that_passes_one_point_and_jumps_the_next_lowers_both_approaches():
    """On f = x1 every row runs right along its line at unit speed.  Row 0's
    step from x1 = 0.656 to 1.156 passes c1 = (1.1, 0.01) at 0.01 and jumps
    the ball around c2 = (1, 0), so it is rejected with its approach to c1
    lowered to that segment distance; c3 = (1.1, -0.02), tracked after c2,
    keeps the approach of the accepted steps.  The row then converges at
    c2, and no accepted step comes within 0.09 of c1 or c3."""
    field = fa.ScalarField(2, ex.parse("x1", ex.VarLayout(2, 0)))
    stops = linear_stops([([1.1, 0.01], 1.1), ([1.0, 0.0], 1.0), ([1.1, -0.02], 1.1)],
                         [[-20.0, 20.0]] * 2)
    starts = [[0.0, 0.0]] + [[-2.0 - 0.5 * i, 0.0] for i in range(fl.SCALAR_ROWS)]
    rows = assert_batch_matches_the_scalar_loop(field, starts, stops, LINEAR)
    assert {r.termination.as_tuple() for r in rows} == {("converged", "c2")}
    assert rows[0].approach["c1"] == pytest.approx(0.01, rel=1e-9)
    assert rows[0].approach["c3"] > 0.09
    assert rows[0].final[0] < 1.01


def test_a_step_into_a_ball_outside_its_value_window_then_rejects_at_the_next_point():
    """On f = x1, c1 sits at the end of one of row 0's steps with a value
    1.0 off and c2 at that step's midpoint: the step lands in c1's ball,
    fails its value window, and is rejected for jumping c2's ball.  The
    row then converges at c2, short of c1, with its approach to c1 at 0."""
    field = fa.ScalarField(1, ex.parse("x1", ex.VarLayout(1, 0)))
    box = [[-20.0, 20.0]]
    free = fl.integrate(field, [0.0], stops=linear_stops([], box),
                        tolerances={**LINEAR, "t_max": 1.0})
    (_, (z0,)), (_, (z1,)) = free.samples[3:5]
    assert z1 - z0 > 4 * 1e-4
    mid = 0.5 * (z0 + z1)
    stops = linear_stops([([z1], z1 + 1.0), ([mid], mid)], box)
    starts = [[0.0]] + [[-1.0 - 0.5 * i] for i in range(fl.SCALAR_ROWS)]
    rows = assert_batch_matches_the_scalar_loop(field, starts, stops, LINEAR)
    assert {r.termination.as_tuple() for r in rows} == {("converged", "c2")}
    assert rows[0].approach["c1"] == 0.0
    assert rows[0].final[0] < z1


@pytest.mark.parametrize("text, face", [("x1 - x2", "+z0"), ("x2 - x1", "-z0")])
def test_a_step_out_through_two_faces_reports_the_first_in_coordinate_order(text, face):
    """Every row starts on the diagonal z0 = -z1 and runs along it, so it
    leaves through a z0 face and a z1 face in the same step; the scalar
    rules test faces in coordinate order, - before +, and report the z0
    face."""
    field = fa.ScalarField(2, ex.parse(text, ex.VarLayout(2, 0)))
    stops = linear_stops([([5.0, 5.0], 0.0)], [[-1.0, 1.0], [-1.0, 1.0]])
    starts = [[0.0, 0.0]] + [[0.1 * i, -0.1 * i] for i in range(1, fl.SCALAR_ROWS + 2)]
    if face == "-z0":
        starts = [[-a, -b] for a, b in starts]
    rows = assert_batch_matches_the_scalar_loop(field, starts, stops, LINEAR)
    assert {r.termination.as_tuple() for r in rows} == {("escaped", face)}
    assert all(abs(r.final[0]) > 1.0 and abs(r.final[1]) > 1.0 for r in rows)


def test_a_step_that_fails_the_tolerance_is_not_inspected(monkeypatch):
    """On f = x1 + 0.005 sin(100 x1) the speed swings between 0.5 and 1.5,
    so steps fail the error tolerance, and at the time cap some failed
    step had ended closer to c than any accepted state: the event test
    measures every row's endpoint but lowers only the approach of rows
    whose step met the tolerance, as the scalar loop does."""
    field = fa.ScalarField(1, ex.parse("x1 + 0.005*sin(100*x1)", ex.VarLayout(1, 0)))
    stops = linear_stops([([10.0], 10.0)], [[-50.0, 50.0]])
    measured = []
    dist = fl._dist_rows

    def recorded(Z, c, periodic):
        measured.append(dist(Z, c, periodic))
        return measured[-1]
    monkeypatch.setattr(fl, "_dist_rows", recorded)
    starts = [[-0.1 * i] for i in range(fl.SCALAR_ROWS + 2)]
    rows = assert_batch_matches_the_scalar_loop(field, starts, stops,
                                                {**LINEAR, "t_max": 1.0})
    assert {r.termination.as_tuple() for r in rows} == {("timeout", "")}
    assert min(d.min() for d in measured) < min(r.approach["c1"] for r in rows)


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
    stops = fl.Stops([c], [[-5.0, 5.0], [-5.0, 5.0]])
    starts = adversarial_deltas(np.random.default_rng(1), c.coords, 40000, 0.05)
    assert len(starts) >= fl.SCALAR_ROWS
    rows = assert_batch_matches_the_scalar_loop(field, starts.tolist(), stops, LINEAR)
    assert {r.termination.as_tuple() for r in rows} == {("escaped", "+z0")}
    assert [r.approach["c"] for r in rows] == fl._dist_rows(starts, c.coords, False).tolist()


def reference_integrate_core(f, z0, t_cap, rtol, atol, h0, h_max,
                             inspector=None, record=None, periodic=False, log=None,
                             start=None):
    """The scalar Dormand-Prince loop as it was written with list
    comprehensions, the reference that `_integrate_core` and its
    generated per-dimension step must match bit for bit."""
    from gftrees.flow import (_A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53,
                              _A54, _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4,
                              _B5, _B6, _E1, _E3, _E4, _E5, _E6, _E7)
    D = len(z0)
    if start is not None:
        t, z, k1, h = start
    elif log:
        j = fl._resume_index(log, t_cap, h_max)
        t, z, k1, h = log[j]
        if j == len(log) - 1:
            log.pop()
        else:
            log.last_cap, log.last_index = t_cap, j
            log = None
    else:
        z = list(z0)
        t = 0.0
        if record is not None:
            record.append((0.0, tuple(z)))
        k1 = f(z)
        h = min(h0, h_max)
    updating = log is not None
    while t < t_cap * (1.0 - 1e-15):
        if updating:
            log.append((t, tuple(z), tuple(k1), h))
            updating = t_cap - t >= min(h, h_max)
        h = min(h, t_cap - t, h_max)
        if h < 1e-13:
            raise fl.StiffnessError("step size underflow at t=%.6g near %s"
                                    % (t, [round(v, 6) for v in z]))
        y = [z[i] + h * _A21 * k1[i] for i in range(D)]
        k2 = f(y)
        y = [z[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in range(D)]
        k3 = f(y)
        y = [z[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in range(D)]
        k4 = f(y)
        y = [z[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
             for i in range(D)]
        k5 = f(y)
        y = [z[i] + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i]
                         + _A65 * k5[i]) for i in range(D)]
        k6 = f(y)
        z1 = [z[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i]
                          + _B6 * k6[i]) for i in range(D)]
        if not all(math.isfinite(v) for v in z1):
            raise fl.StiffnessError("state blew up at t=%.6g near %s"
                                    % (t, [round(v, 3) for v in z]))
        k7 = f(z1)
        errsq = 0.0
        for i in range(D):
            e = h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i]
                     + _E6 * k6[i] + _E7 * k7[i])
            sc = atol + rtol * max(abs(z[i]), abs(z1[i]))
            q = e / sc
            errsq += q * q
        err = math.sqrt(errsq / D)
        if err > 1.0:
            h *= max(0.2, 0.9 * err ** -0.2)
            continue
        verdict = inspector(z, z1, h) if inspector is not None else None
        if verdict is not None and verdict[0] == "reject":
            h *= verdict[1]
            continue
        t += h
        z = [v % 1.0 for v in z1] if periodic else z1
        k1 = k7
        if record is not None:
            record.append((t, tuple(z)))
        if verdict is not None:
            return ("stop", t, z, verdict[1])
        h *= 5.0 if err < 1e-10 else min(5.0, 0.9 * err ** -0.2)
    if updating:
        log.append((t, tuple(z), tuple(k1), h))
    if log is not None:
        log.last_cap, log.last_index = t_cap, len(log) - 1
    return ("cap", t, z, None)


def sine_torus(D):
    """sum_i sin(2 pi x_i) / (i + 1) on the D-torus: its peak is at 0.25 in
    every slot, and a slot started in (0.75, 1) flows up across 1."""
    text = " + ".join("sin(2*pi*x%d)/%d" % (i + 1, i + 1) for i in range(D))
    return fa.ScalarField(D, ex.parse(text, ex.VarLayout(D, 0)), periodic=True)


def coupled_quadratic(D):
    """A quadratic with alternating-sign diagonal and a coupling chain, whose
    flow from a generic point leaves every box."""
    terms = ["%g*x%d^2" % ((-1) ** i * (0.5 + 0.1 * i), i + 1) for i in range(D)]
    terms += ["0.2*x%d*x%d" % (i + 1, i + 2) for i in range(D - 1)]
    return fa.ScalarField(D, ex.parse(" + ".join(terms), ex.VarLayout(D, 0)))


def both_loops(run):
    """run(core) with the generated step and with the reference loop."""
    return run(fl._integrate_core), run(reference_integrate_core)


TOL = (1e-8, 1e-10, 1e-3, 0.5)


@pytest.mark.parametrize("D", [1, 2, 3, 5, 7, 10])
def test_the_generated_step_matches_the_list_comprehension_loop(D):
    """Terminal runs forward, backward and across the periodic wrap, a
    ladder of caps resumed from step logs, and event-mode runs that
    converge and escape: the same (t, z), samples, step logs,
    terminations and approaches as the reference loop, bit for bit."""
    torus, quad = sine_torus(D), coupled_quadratic(D)
    starts = {torus: [0.8 + 0.015 * i for i in range(D)],
              quad: [0.11 + 0.07 * i for i in range(D)]}
    for field, start in starts.items():
        for sign in (1.0, -1.0):
            g = field.grad
            f = g if sign > 0 else (lambda z, g=g: [-v for v in g(z)])

            def terminal(core):
                record = []
                return core(f, start, 2.5, *TOL, record=record,
                            periodic=field.periodic), record
            got, want = both_loops(terminal)
            assert got == want
            if field is torus and sign > 0:
                # every slot ran up across 1 and was wrapped back to 0
                (_, p), (_, q) = got[1][0], got[1][-1]
                assert all(a > 0.75 and b < 0.3 for a, b in zip(p, q))

            def ladder(core):
                log = fl.StepLog()
                out = [core(f, start, cap, *TOL, periodic=field.periodic, log=log)
                       for cap in (0.7, 2.0, 1.3, 1.3 + 1e-5, 3.0, 0.2)]
                return out, list(log), log.last_cap, log.last_index
            got, want = both_loops(ladder)
            assert got == want

    peak = cr.CriticalPoint(np.full(D, 0.25), sum(1.0 / (i + 1) for i in range(D)), D, D,
                            np.zeros(D))
    peak.id = "peak"
    saddle = cr.CriticalPoint(np.array([0.75] + [0.25] * (D - 1)), peak.value - 2.0,
                              D - 1, D - 1, np.zeros(D))
    saddle.id = "saddle"
    for field, stops, kind in (
            (torus, fl.Stops([saddle, peak], None), "converged"),
            (quad, fl.Stops([], [[-3.0, 3.0]] * D), "escaped")):
        start = starts[field]

        def event(core):
            approach = {c.id: fl._dist(start, c.coords, field.periodic)
                        for c in stops.criticals}
            record = []
            out = core(field.grad, start, fl.FLOW_TOLERANCES["t_max"], *TOL,
                       inspector=fl._inspector(field, stops, fl.FLOW_TOLERANCES, approach),
                       record=record,
                       periodic=field.periodic)
            return out, record, approach
        got, want = both_loops(event)
        assert got == want
        assert got[0][0] == "stop" and got[0][3].kind == kind


@pytest.mark.parametrize("D", [1, 2, 3, 5, 7, 10])
def test_a_state_that_blows_up_raises_as_the_list_comprehension_loop(D):
    """A right-hand side that turns infinite past z0 = 0.05 makes a
    non-finite step: both loops raise the same StiffnessError after the
    same right-hand side calls."""
    def run(core):
        calls = []

        def f(z):
            calls.append(tuple(z))
            return [math.inf if z[0] > 0.05 else 1.0] * D
        with pytest.raises(fl.StiffnessError, match="state blew up") as info:
            core(f, [0.0] * D, 10.0, *TOL)
        # repr, since nan != nan
        return str(info.value), repr(calls)
    got, want = both_loops(run)
    assert got == want


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
    stops = fl.flow_stops(stabilized_well, crits, off.value)
    trajs = batch(stabilized_well, [fl.chart_start(full, u) for u in dirs], stops)
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
