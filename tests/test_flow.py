"""Gradient-flow integration and mod-2 line counting on model fields."""

import math

import numpy as np
import pytest

from gftrees import critical as cr
from gftrees import expr as ex
from gftrees import family as fa
from gftrees import flow as fl


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
    count = fl.count_lines(lo, hi, well1d, crits)
    assert count.parity == 1
    assert count.clusters == 1
    assert len(count.trajectories) >= 1
    (traj,) = count.trajectories[:1]
    assert traj.termination.as_tuple() == ("converged", hi.id)


def test_saddle_to_peak_lines_cancel_on_the_torus(torus_field):
    crits = cr.find_critical_points(torus_field)
    assert [round(p.value, 6) for p in crits] == [-1.3, -0.7, 0.7, 1.3]
    saddle, peak = crits[2], crits[3]
    count = fl.count_lines(saddle, peak, torus_field, crits)
    assert count.parity == 0
    assert count.clusters == 2


def test_pit_to_saddle_lines_cancel_on_the_torus(torus_field):
    crits = cr.find_critical_points(torus_field)
    pit, saddle = crits[0], crits[1]
    count = fl.count_lines(pit, saddle, torus_field, crits)
    assert count.parity == 0
    assert count.clusters == 2


def test_wrong_grading_gap_has_no_count(torus_field):
    crits = cr.find_critical_points(torus_field)
    pit, peak = crits[0], crits[3]
    count = fl.count_lines(pit, peak, torus_field, crits)
    assert count.parity is None
    assert "dimension" in count.note


def test_descending_targets_count_zero(torus_field):
    crits = cr.find_critical_points(torus_field)
    saddle = crits[2]
    sunk = cr.CriticalPoint(crits[3].coords, -5.0, 2, 2, crits[3].hess_eigs)
    sunk.id = "sunk"
    count = fl.count_lines(saddle, sunk, torus_field, crits)
    assert count.parity == 0
    assert "value" in count.note


def test_scan_cache_tells_apart_every_scan_input(well1d):
    crits = cr.find_critical_points(well1d)
    lo, hi = crits
    first, _ = fl.sphere_scan(well1d, lo, crits)
    assert ("converged", hi.id) in first.outcomes
    assert fl.sphere_scan(well1d, lo, crits)[0] is first
    short, _ = fl.sphere_scan(well1d, lo, crits, tolerances={"t_max": 1e-3})
    assert short.outcomes == [("timeout", "")] * 2
    untracked, _ = fl.sphere_scan(well1d, lo, [lo])
    assert untracked.approach_ids == []


# A cap below h0, an ascending run with an FD-style 1e-5 nudge, then a
# smaller time after a larger one (which must run fresh) and a climb again.
RESUME_LADDER = [5e-4, 0.3, 0.3 + 1e-5, 1.1, 2.5, 2.5 + 1e-5, 0.7,
                 0.7 + 1e-5, 4.0]


def assert_resumes_bit_identically(chart, u, monkeypatch):
    field = chart.field
    calls = []
    monkeypatch.setattr(field, "grad",
                        lambda z: calls.append(1) or fa.ScalarField.grad(field, z))
    slot = []
    resumed_calls = fresh_calls = 0
    for t in RESUME_LADDER:
        n0 = len(calls)
        got = fl.chart_point(chart, u, t, resume=slot)
        n1 = len(calls)
        want = fl.chart_point(chart, u, t)
        resumed_calls += n1 - n0
        fresh_calls += len(calls) - n1
        assert np.array_equal(got, want), (chart.side, t)
        assert slot[0][0] == t      # the slot holds the latest run's state
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


def test_escape_box_margins():
    assert fl.escape_box([[-2.0, 2.0], [0.0, 1.0]]) == \
        [[-3.0, 3.0], [-0.25, 1.25]]
