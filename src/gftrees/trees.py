"""Y-shaped gradient flow trees and their mod-2 count.

A tree count takes three fields (h1, h2, h3) on a common R^D — the three
extended difference fields for the product on a generating family, or
(f, g, f+g) in Morse mode — two source critical points p1, p2 (charts of
their unstable manifolds under h1, h2) and one sink p0 (chart of its
stable manifold under h3).  A tree is a triple of half-infinite
trajectories whose finite ends, shifted by the perturbation triple s,
meet at a single point:

    gamma1(0) + s1 = gamma2(0) + s2 = gamma3(0) + s3.

The unknowns are (u, t) for each source edge: u on the unit sphere of
its chart frame and t >= 0 the flow time, with endpoint E = q + s where
q is the flow image of p + r0*u.  The sink edge has no unknowns.  Its
stable chart misses only the `pins`, the quadratic slots i of h3 with
coefficient c > 0: `expr_part` never reads them, so their flow
z_i(0)*e^{2ct} reaches p0 only from z_i = 0, and the stable manifold is
an open basin times the pins.  At expected dimension |p0| - |p1| - |p2|
= 0, k1 + k2 + k3 = 2D and k3 + #pins = D, so one square system remains:
k1 + k2 + 2 unknowns; equations E1 - E2 = 0, the pin rows
E2[i] - s3[i] = 0 and two sphere constraints.  A sink whose stable chart
misses a coupled direction raises DimensionError.

A solution's meeting point M is a tree into p0 when it passes the
capture test: the forward h3 flow from q3 = M - s3, its pinned slots set
to exactly 0 (the flow keeps them there), stopped in event mode at the
escape box and at the critical points of h3 above h3(q3), converges to
p0.  Converging elsewhere or escaping means M is no tree into p0; a flow
that does neither by t_max refuses the count with AmbiguousCountError.
A tree's gamma3 is the capture run reversed, so it ends at q3.

Differences are taken mod 1 in torus mode.  The system is solved by
damped Newton with finite-difference Jacobians from seeds ranked over a
coarse product grid of the source charts' endpoints.  Every seed's
outcome goes into a histogram, `SEED_OUTCOMES`.  The Newton solutions do
not depend on p0, so a `TreeProblem` holds one source pair and no sink:
every sink above the pair reads them, and the capture test splits them by
sink.  Finding them takes three steps: `problem.seeds` tabulates the
charts and ranks the seeds, `run_seed` runs Newton from one ranked seed
and returns picklable data, and `merge_seeds` deduplicates the meeting
points in rank order and counts the outcomes.  The seeds are independent,
so `merge_seeds` gives the same solutions for any split of the ranks and
any arrival order.  The pipeline runs each seed as a unit of work and
sets `problem.intersections` to their merge; without it, the first
`solve_trees` runs every seed in rank order, the library's one-call solve.

Chart endpoints are memoized per (edge, u, t), and each (edge, u) path
keeps a step log of its integrator states (see `flow.integrate`'s
`resume`).  A query at any time on the same path resumes from the log
instead of from t = 0, with a bit-identical result.  So the tabulation's
ascending time grid integrates each direction once, plus a few
cap-shortened steps per grid time, and a finite-difference time column, a
line-search candidate or a Newton iterate at a smaller time than the
path's last query resumes from the state before its time.  A rejected
line-search candidate keeps no log of the paths it started (its new
directions are queried at no other time), only its memo entries; a
candidate on its iterate's path, as on a k = 1 chart, leaves that path's
log in place, and so does every finite-difference column.

The solver's settings are the module constants `MAX_SEEDS`, `TIME_POINTS`,
`MAX_ITER`, `TOL_MATCH`, `FD_STEP`, `DEDUP_RADIUS` and `COND_CAP`; no
config sets them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import flow as fl

MAX_SEEDS = 24        # best-ranked grid seeds handed to Newton
TIME_POINTS = 7       # flow times tabulated per launch direction
MAX_ITER = 28         # Newton steps per seed, at most
TOL_MATCH = 1e-8      # max-norm augmented residual that counts as solved
FD_STEP = 1e-5        # forward-difference step of the Jacobian
DEDUP_RADIUS = 1e-4   # meeting points closer than this are one tree
COND_CAP = 1e8        # a Jacobian condition above this refuses the count

SEED_OUTCOMES = ("converged", "line_search_stall", "implausible",
                 "non_finite_step", "max_iter", "duplicate",
                 "captured_elsewhere")


class DimensionError(ValueError):
    pass


class NonTransverseError(RuntimeError):
    pass


@dataclass
class PerturbationTriple:
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    seed: int
    delta_pert: float

    @classmethod
    def sample(cls, dim, delta_pert, seed):
        """Three independent draws, uniform in the open delta_pert-ball."""
        rng = np.random.default_rng(seed)
        draws = []
        for _ in range(3):
            v = rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            r = delta_pert * rng.uniform() ** (1.0 / dim)
            draws.append(r * v)
        return cls(draws[0], draws[1], draws[2], int(seed), float(delta_pert))

    def check(self):
        for k, s in enumerate((self.s1, self.s2, self.s3), start=1):
            if np.linalg.norm(s) >= self.delta_pert:
                raise ValueError("perturbation s%d has norm %.3g >= bound %.3g"
                                 % (k, np.linalg.norm(s), self.delta_pert))
        return True

    def parts(self):
        return (self.s1, self.s2, self.s3)


class TreeProblem:
    """Charts, perturbation and bookkeeping for the counts from one source
    pair (p1, p2) into every sink p0 of h3.

    theta packs (u1, t1, u2, t2) of the two source edges.  `pins` are the
    quadratic slots of h3 that every sink's stable chart misses, and the
    capture test tracks `criticals`, the critical points of h3.
    `seed_outcomes` holds each counted sink's seed histogram by its id."""

    def __init__(self, fields, src1, src2, s, criticals=None, r0=1e-3,
                 tolerances=None, meeting_floor=None):
        self.h1, self.h2, self.h3 = fields
        self.src1, self.src2 = src1, src2
        self.s = s
        self.criticals = criticals
        self.r0 = float(r0)
        self.tolerances = dict(tolerances or {})
        self.meeting_floor = meeting_floor
        self.D = self.h1.dim
        self.charts = (fl.build_chart(self.h1, src1, "unstable", r0),
                       fl.build_chart(self.h2, src2, "unstable", r0))
        self.k = tuple(chart.k for chart in self.charts)
        self.pins = fl.pinned_slots(self.h3)
        k1 = self.k[0]
        self.blocks = ((0, k1), (k1 + 1, k1 + 1 + self.k[1]))  # (first u, t) index
        self.periodic = self.h1.periodic
        self.seed_outcomes = {}
        self._memo = {}
        self._logs = {}

    def sink_chart(self, sink):
        """The stable chart of `sink` under h3, once the count into it is
        defined: no 0-dimensional edge, expected dimension 0, the unknowns
        balanced, and only decoupled slots missing from the chart."""
        chart = fl.build_chart(self.h3, sink, "stable", self.r0)
        k = self.k + (chart.k,)
        if min(k) == 0:
            raise DimensionError(
                "a tree edge has a 0-dimensional chart (frames %r): such "
                "degenerate edges are outside the tree solver's scope" % (k,))
        d = sink.grading - self.src1.grading - self.src2.grading
        if d != 0:
            raise DimensionError(
                "expected dimension is %d, not 0: |p0|=%d, |p1|=%d, |p2|=%d "
                "(only isolated counts are defined)"
                % (d, sink.grading, self.src1.grading, self.src2.grading))
        if sum(k) != 2 * self.D:
            raise RuntimeError(
                "unknown-count balance violated: frames %r sum to %d, need "
                "2D=%d (chart and grading bookkeeping disagree)"
                % (k, sum(k), 2 * self.D))
        if chart.k + len(self.pins) != self.D:
            spanned = np.column_stack(
                [chart.frame, np.eye(self.D)[:, list(self.pins)]])
            missing = [v * np.sign(v[np.argmax(np.abs(v))]) for v in
                       np.linalg.svd(spanned.T)[2][spanned.shape[1]:]]
            raise DimensionError(
                "the stable chart of sink %s (k3 = %d, pins %r) misses the "
                "coupled direction(s) %r of R^%d: only decoupled quadratic "
                "slots can be pinned"
                % (sink.id, chart.k, self.pins,
                   [(np.round(v, 6) + 0.0).tolist() for v in missing],
                   self.D))
        if self.criticals is None:
            raise ValueError("the capture test into %s needs the critical "
                             "points of h3" % sink.id)
        return chart

    # the ranked Newton seeds, tabulated on first read
    seeds = cached_property(lambda self: _seeds(self))
    # the sink-free Newton solutions, found on first read
    intersections = cached_property(lambda self: _intersections(self))

    # -- theta packing --------------------------------------------------

    def split(self, theta):
        """[(u, t)] of the two source edges."""
        return [(theta[a:b], theta[b]) for a, b in self.blocks]

    def pack(self, parts):
        return np.concatenate([np.append(u, t) for u, t in parts])

    def endpoint(self, which, u, t):
        chart = self.charts[which]
        path = _path(which, u)
        key = path + (float(t),)
        got = self._memo.get(key)
        if got is None:
            if len(self._memo) > 4096:
                self._memo.clear()
                self._logs.clear()
            got = fl.chart_point(chart, u, max(0.0, float(t)),
                                 tolerances=self.tolerances,
                                 resume=self._logs.setdefault(path, fl.StepLog()))
            self._memo[key] = got
        return got

    def endpoints(self, theta):
        return [self.endpoint(which, u, t)
                for which, (u, t) in enumerate(self.split(theta))]

    def _wrap(self, v):
        if self.periodic:
            return v - np.round(v)
        return v


def _path(which, u):
    """The key of the (edge, u) path: its step log's, and the memo's
    without the time."""
    return which, np.asarray(u).tobytes()


@dataclass
class FlowTree:
    theta: np.ndarray
    gamma1: fl.Trajectory
    gamma2: fl.Trajectory
    gamma3: fl.Trajectory
    meeting: np.ndarray
    residual_norm: float
    condition: float


def tree_residual(theta, problem):
    """Matching defect E1 - E2 in R^D, then the pin rows E2[i] - s3[i],
    with E_k = q_k + s_k (differences taken mod 1 in torus mode)."""
    q1, q2 = problem.endpoints(np.asarray(theta, dtype=float))
    s1, s2, s3 = problem.s.parts()
    pins = list(problem.pins)
    return np.concatenate([problem._wrap(q1 + s1 - q2 - s2),
                           q2[pins] + s2[pins] - s3[pins]])


def _augmented(theta, problem):
    norms = np.array([u @ u - 1.0 for u, _ in problem.split(theta)])
    return np.concatenate([tree_residual(theta, problem), norms])


# ---------------------------------------------------------------------------
# Seeding

def _coupled_rate(chart):
    """Smallest flow rate among frame directions that touch a coupled
    coordinate (decoupled quadratic slots move on their own clock and only
    carry perturbation-sized components)."""
    quad = set(chart.field.quad_indices)
    rates = []
    for j in range(chart.k):
        col = chart.frame[:, j]
        if quad and sum(col[i] ** 2 for i in quad) > 0.5:
            continue
        rates.append(abs(chart.rates[j]))
    if not rates:
        rates = [abs(r) for r in chart.rates]
    return min(rates)


def _time_grid(chart, r0, diam):
    rate = max(_coupled_rate(chart), 1e-3)
    t_hi = min(18.0, math.log(max(4.0 * diam / r0, 10.0)) / rate)
    frac = (np.arange(TIME_POINTS) / (TIME_POINTS - 1.0)) ** 1.5
    return t_hi * frac


def _tabulate(problem, which, dirs, times):
    rows = []
    params = []
    for u in dirs:
        for t in times:
            q = problem.endpoint(which, u, t)
            rows.append(q)
            params.append((u, t))
    return np.array(rows), params


def _pair_dist2(A, B, offset, periodic):
    d = A[:, None, :] - B[None, :, :] + offset[None, None, :]
    if periodic:
        d = d - np.round(d)
    return np.einsum("ijk,ijk->ij", d, d)


# ---------------------------------------------------------------------------
# Newton

def _newton(problem, theta0, bigbox):
    """Damped Newton from theta0: ("converged", (theta, res, J)), or the
    `SEED_OUTCOMES` name of how it failed and None."""
    theta = np.array(theta0, dtype=float)
    res = _augmented(theta, problem)
    norm = float(np.max(np.abs(res)))
    for _ in range(MAX_ITER):
        J = _fd_jacobian(problem, theta, res)
        if norm < TOL_MATCH:
            return "converged", (theta, res, J)
        try:
            step = np.linalg.solve(J, res)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, res, rcond=None)[0]
        ns = np.linalg.norm(step)
        if not np.isfinite(ns):
            return "non_finite_step", None
        if ns > 1.0:
            step *= 1.0 / ns
        improved = False
        for _ in range(6):
            cand = theta - step
            _clamp_times(problem, cand)
            _retract_dirs(problem, cand)
            fresh = _unlogged_paths(problem, cand)
            cres = _augmented(cand, problem)
            cnorm = float(np.max(np.abs(cres)))
            if cnorm < norm:
                theta, res, norm = cand, cres, cnorm
                improved = True
                break
            _drop_logs(problem, fresh)
            step *= 0.5
        if not improved:
            return "line_search_stall", None
        if not _plausible(problem, theta, bigbox):
            return "implausible", None
    return "max_iter", None


def _unlogged_paths(problem, theta):
    """The paths of theta's source edges that keep no step log yet."""
    paths = [_path(which, u) for which, (u, _) in enumerate(problem.split(theta))]
    return [path for path in paths if path not in problem._logs]


def _drop_logs(problem, paths):
    """Forget the step logs of a rejected line-search candidate's own
    paths, those it started.  The candidate's new directions are queried
    at no other time, so no later query would resume from them (one that
    did would integrate from t = 0, to the same bits); its memo entries
    stay.  (A finite-difference column's paths are kept: on a k = 1 chart
    its direction is the same at every iteration.)"""
    for path in paths:
        problem._logs.pop(path, None)


def _fd_jacobian(problem, theta, res):
    J = np.empty((len(res), len(theta)))
    for j in range(len(theta)):
        pert = theta.copy()
        pert[j] += FD_STEP
        _clamp_times(problem, pert)
        dj = pert[j] - theta[j]
        if dj == 0.0:
            # a time at the upper clamp of `_clamp_times`: step past it
            pert[j] = theta[j] + FD_STEP
            dj = FD_STEP
        J[:, j] = (_augmented(pert, problem) - res) / dj
    return J


def _clamp_times(problem, theta):
    for _, idx in problem.blocks:
        if theta[idx] < 0.0:
            theta[idx] = 0.0
        if theta[idx] > 60.0:
            theta[idx] = 60.0


def _retract_dirs(problem, theta):
    """Project the direction blocks back to their unit spheres.

    Without this, a Newton step that mostly rotates a launch direction
    leaves the sphere quadratically, the norm-constraint residual swamps
    the matching residual, and backtracking strangles the rotation."""
    for a, b in problem.blocks:
        nrm = np.linalg.norm(theta[a:b])
        if nrm > 1e-12:
            theta[a:b] /= nrm


def _plausible(problem, theta, bigbox):
    """Whether the second source edge ends inside `bigbox` (anywhere on the
    torus)."""
    q2 = problem.endpoint(1, *problem.split(theta)[1])
    return bigbox is None or all(lo <= q2[i] <= hi
                                 for i, (lo, hi) in enumerate(bigbox))


# ---------------------------------------------------------------------------
# The solver

def check_count(problem, sink):
    """Refuse an undefined count into `sink` before any tabulation or
    Newton: the sink checks of `sink_chart`, then the perturbation bound."""
    problem.sink_chart(sink)
    problem.s.check()


def solve_trees(problem, sink):
    """All isolated flow trees from the problem's source pair into `sink`.

    After `check_count`, the Newton solutions of the source edges
    (`problem.intersections`, found on the first call unless the seeds
    were run and merged already, and shared by every sink) are split by the
    capture test and validated (matching, confinement, the rho/4
    positivity bound, Jacobian condition below COND_CAP).
    `problem.seed_outcomes[sink.id]` then holds how each Newton seed ended,
    keyed by `SEED_OUTCOMES`."""
    check_count(problem, sink)
    solutions, outcomes = problem.intersections
    outcomes = dict(outcomes)
    trees = []
    for sol in solutions:
        capture = _capture(problem, sink, sol["meeting"])
        if capture.termination.as_tuple() != ("converged", sink.id):
            outcomes["captured_elsewhere"] += 1
            continue
        outcomes["converged"] += 1
        trees.append(_validate(problem, sol, capture))
    problem.seed_outcomes[sink.id] = outcomes
    return trees


def _escape(problem):
    """(escape box, plausibility box, diameter) of the source charts'
    domain; no boxes on the torus."""
    if problem.periodic:
        return None, None, 1.0
    outer = problem.h1.outer_box
    return (fl.escape_box(outer), fl.escape_box(outer, 2.5),
            float(np.linalg.norm([hi - lo for lo, hi in outer])))


def _seeds(problem):
    """Packed Newton seeds, best first, ranked over a coarse product grid
    of the source charts' endpoints."""
    esc, _, diam = _escape(problem)
    tabs = []
    for which in (0, 1):
        chart = problem.charts[which]
        m = {2: 12, 3: 24}.get(chart.k, 48)
        dirs = fl.sphere_dirs(chart.k, m, 97 + chart.k + which)
        times = _time_grid(chart, problem.r0, diam)
        E, params = _tabulate(problem, which, dirs, times)
        if esc is not None:
            keep = np.all((E > np.array(esc)[:, 0]) & (E < np.array(esc)[:, 1]), axis=1)
            E, params = E[keep], [p for p, k in zip(params, keep) if k]
        tabs.append((E, params))
    return _ranked_seeds(problem, tabs)


def run_seed(problem, rank):
    """Damped Newton from `problem.seeds[rank]`, as picklable data:
    (rank, outcome, theta, res, J, meeting), the last four None unless
    the outcome is "converged"."""
    end, got = _newton(problem, problem.seeds[rank], _escape(problem)[1])
    if got is None:
        return rank, end, None, None, None, None
    theta, res, J = got
    meeting = problem.endpoint(1, *problem.split(theta)[1]) + problem.s.s2
    if problem.periodic:
        meeting = np.mod(meeting, 1.0)
    return rank, end, theta, res, J, meeting


def merge_seeds(problem, results):
    """(solutions, outcomes) from the `run_seed` results of every ranked
    seed, given in any order: the converged seeds deduplicated by meeting
    point, and how many seeds ended in each non-converged outcome.  The
    merge runs in rank order, so of two seeds that meet at one point the
    better-ranked one is the solution and the other a duplicate."""
    results = sorted(results, key=lambda r: r[0])
    if [r[0] for r in results] != list(range(len(problem.seeds))):
        raise RuntimeError(
            "internal error: seed results %r are not the %d ranked seeds "
            "once each" % ([r[0] for r in results], len(problem.seeds)))
    outcomes = dict.fromkeys(SEED_OUTCOMES, 0)
    solutions = []
    for _, end, theta, res, J, meeting in results:
        if theta is None:
            outcomes[end] += 1
        elif any(np.linalg.norm(problem._wrap(sol["meeting"] - meeting))
                 < DEDUP_RADIUS for sol in solutions):
            outcomes["duplicate"] += 1
        else:
            solutions.append({"theta": theta, "res": res, "J": J,
                              "meeting": meeting})
    return solutions, outcomes


def _intersections(problem):
    """`merge_seeds` over every ranked seed, run in rank order."""
    return merge_seeds(problem, [run_seed(problem, rank)
                                 for rank in range(len(problem.seeds))])


def _ranked_seeds(problem, tabs):
    """Packed Newton seeds, best first: each tabulated E2 with its nearest
    E1, ranked by their squared gap."""
    (E1, P1), (E2, P2) = tabs
    if min(len(E1), len(E2)) == 0:
        return []
    s = problem.s.parts()
    M12 = _pair_dist2(E1, E2, s[0] - s[1], problem.periodic)
    best_i = np.argmin(M12, axis=0)
    score = M12[best_i, np.arange(len(E2))]
    return [problem.pack([P1[best_i[j]], P2[j]])
            for j in np.argsort(score, kind="stable")[:MAX_SEEDS]]


def _capture(problem, sink, meeting):
    """The forward h3 flow from q3 = meeting - s3, with its pinned slots set
    to exactly 0, stopped at the escape box or at a critical point of h3
    above h3(q3).  A flow that does neither by t_max refuses the count."""
    q3 = meeting - problem.s.s3
    if problem.periodic:
        q3 = np.mod(q3, 1.0)
    q3[list(problem.pins)] = 0.0
    tol = {**fl.FLOW_TOLERANCES, **problem.tolerances}
    stops = fl._flow_stops(problem.h3, problem.criticals,
                           problem.h3.value([float(v) for v in q3]), tol)
    traj = fl.integrate(problem.h3, q3, "forward", stops=stops,
                        tolerances=problem.tolerances, record_samples=True)
    if traj.termination.kind == "timeout":
        raise fl.AmbiguousCountError(
            "the h3 flow from the tree meeting point %s neither reached a "
            "critical point nor escaped by t_max = %g, so whether it is a "
            "tree into %s is unknown; raise t_max"
            % ([round(float(v), 6) for v in meeting], stops.t_max, sink.id))
    return traj


def _validate(problem, sol, capture):
    """The FlowTree of a solution, after its checks; gamma3 is the capture
    run reversed, so it ends at q3."""
    theta = sol["theta"]
    cond = float(np.linalg.cond(sol["J"]))
    if cond > COND_CAP:
        raise NonTransverseError(
            "tree Jacobian condition %.3g exceeds cap %.3g: "
            "non-transverse at this s; resample s" % (cond, COND_CAP))
    match = float(np.max(np.abs(sol["res"][:-2])))
    if match > TOL_MATCH:
        raise RuntimeError("accepted tree fails matching: %.3g > %.3g" % (match, TOL_MATCH))
    trajs = []
    for chart, (u, t) in zip(problem.charts, problem.split(theta)):
        start = chart.point.coords + chart.r0 * (chart.frame @ u)
        trajs.append(fl.integrate(chart.field, start, "forward",
                                  terminal_t=max(t, 1e-12),
                                  tolerances=problem.tolerances,
                                  record_samples=True))
    T = capture.t_final
    trajs.append(fl.Trajectory(
        capture.tag, [(T - t, pt) for t, pt in reversed(capture.samples)],
        fl.Termination("time"), T, np.array(capture.samples[0][1])))
    esc = _escape(problem)[0]
    if esc is not None:
        for traj in trajs:
            for _, pt in traj.samples:
                for i, (lo, hi) in enumerate(esc):
                    if not (lo <= pt[i] <= hi):
                        raise RuntimeError(
                            "internal error: converged tree leaves the escape box "
                            "at coordinate %d (%r)" % (i, pt))
    meet_val = problem.h3.value([float(v) for v in trajs[2].final])
    if problem.meeting_floor is not None and meet_val <= problem.meeting_floor:
        raise RuntimeError(
            "internal error: tree meeting value %.6g fails the rho/4 bound %.6g"
            % (meet_val, problem.meeting_floor))
    return FlowTree(theta, trajs[0], trajs[1], trajs[2], sol["meeting"],
                    match, cond)
