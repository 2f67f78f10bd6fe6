"""Y-shaped gradient flow trees and their mod-2 count.

A tree problem takes three fields (h1, h2, h3) on a common R^D — the three
extended difference fields for the product on a generating family, or
(f, g, f+g) in Morse mode — two source critical points p1, p2 (charts of
their unstable manifolds under h1, h2) and one sink p0 (chart of its
stable manifold under h3).  A tree is a triple of half-infinite
trajectories whose finite ends, shifted by the perturbation triple s,
meet at a single point:

    gamma1(0) + s1 = gamma2(0) + s2 = gamma3(0) + s3.

Unknowns are theta = (u1, t1, u2, t2, u3, t3) with u_k on the unit sphere
of the respective chart frame and t_k >= 0 the flow time.  Adding the
three sphere constraints to the 2D matching equations gives a square
system exactly when the expected dimension |p0| - |p1| - |p2| is 0; it is
solved by damped Newton with finite-difference Jacobians from seeds ranked
over a coarse product grid of chart endpoints.

Chart endpoints are memoized per (edge, u, t), and each (edge, u) path
keeps one integrator step state (see `flow.integrate`'s `resume`).  A
later time on the same path continues from that state instead of from
t = 0, with a bit-identical result.  So the tabulation's ascending time
grid integrates each direction once, plus one cap-shortened step per grid
time, and each finite-difference time column continues the line-search
run it perturbs.

The solver's settings are the module constants `MAX_SEEDS`, `TIME_POINTS`,
`MAX_ITER`, `TOL_MATCH`, `FD_STEP`, `DEDUP_RADIUS` and `COND_CAP`; no
config sets them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flow as fl

MAX_SEEDS = 24        # best-ranked grid seeds handed to Newton
TIME_POINTS = 7       # flow times tabulated per launch direction
MAX_ITER = 28         # Newton steps per seed, at most
TOL_MATCH = 1e-8      # max-norm augmented residual that counts as solved
FD_STEP = 1e-5        # forward-difference step of the Jacobian
DEDUP_RADIUS = 1e-4   # meeting points closer than this are one tree
COND_CAP = 1e8        # a Jacobian condition above this refuses the count


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
    """Charts, perturbation and bookkeeping for one (p1, p2; p0) count."""

    def __init__(self, fields, src1, src2, sink, s, r0=1e-3, tolerances=None,
                 meeting_floor=None):
        self.h1, self.h2, self.h3 = fields
        self.src1, self.src2, self.sink = src1, src2, sink
        self.s = s
        self.r0 = float(r0)
        self.tolerances = dict(tolerances or {})
        self.meeting_floor = meeting_floor
        self.D = self.h1.dim
        self.d = sink.grading - src1.grading - src2.grading
        self.chart1 = fl.build_chart(self.h1, src1, "unstable", r0)
        self.chart2 = fl.build_chart(self.h2, src2, "unstable", r0)
        self.chart3 = fl.build_chart(self.h3, sink, "stable", r0)
        self.k = (self.chart1.k, self.chart2.k, self.chart3.k)
        if min(self.k) == 0:
            raise DimensionError(
                "a tree edge has a 0-dimensional chart (frames %r): such "
                "degenerate edges are outside the tree solver's scope" % (self.k,))
        if self.d == 0 and sum(self.k) != 2 * self.D:
            raise RuntimeError(
                "unknown-count balance violated: frames %r sum to %d, need 2D=%d "
                "(chart and grading bookkeeping disagree)"
                % (self.k, sum(self.k), 2 * self.D))
        self.periodic = self.h1.periodic
        self._memo = {}
        self._slots = {}

    # -- theta packing --------------------------------------------------

    def split(self, theta):
        k1, k2, k3 = self.k
        u1, t1 = theta[:k1], theta[k1]
        u2, t2 = theta[k1 + 1:k1 + 1 + k2], theta[k1 + 1 + k2]
        u3, t3 = theta[k1 + k2 + 2:k1 + k2 + 2 + k3], theta[-1]
        return u1, t1, u2, t2, u3, t3

    def pack(self, u1, t1, u2, t2, u3, t3):
        return np.concatenate([u1, [t1], u2, [t2], u3, [t3]])

    def endpoint(self, which, u, t):
        chart = (self.chart1, self.chart2, self.chart3)[which]
        path = (which, np.asarray(u).tobytes())
        key = path + (float(t),)
        got = self._memo.get(key)
        if got is None:
            if len(self._memo) > 4096:
                self._memo.clear()
                self._slots.clear()
            got = fl.chart_point(chart, u, max(0.0, float(t)),
                                 tolerances=self.tolerances,
                                 resume=self._slots.setdefault(path, []))
            self._memo[key] = got
        return got

    def endpoints(self, theta):
        u1, t1, u2, t2, u3, t3 = self.split(theta)
        return (self.endpoint(0, u1, t1), self.endpoint(1, u2, t2),
                self.endpoint(2, u3, t3))

    def _wrap(self, v):
        if self.periodic:
            return v - np.round(v)
        return v


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
    """Matching defect in R^{2D}: (E1 - E2, E2 - E3) with E_k = q_k + s_k
    (differences taken mod 1 in torus mode)."""
    q1, q2, q3 = problem.endpoints(np.asarray(theta, dtype=float))
    s1, s2, s3 = problem.s.parts()
    r12 = problem._wrap(q1 + s1 - q2 - s2)
    r23 = problem._wrap(q2 + s2 - q3 - s3)
    return np.concatenate([r12, r23])


def _augmented(theta, problem):
    u1, _, u2, _, u3, _ = problem.split(theta)
    norms = np.array([u1 @ u1 - 1.0, u2 @ u2 - 1.0, u3 @ u3 - 1.0])
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
    theta = np.array(theta0, dtype=float)
    nparam = len(theta)
    res = _augmented(theta, problem)
    norm = float(np.max(np.abs(res)))
    J = None
    for _ in range(MAX_ITER):
        if norm < TOL_MATCH:
            J = _fd_jacobian(problem, theta, res)
            return theta, res, J
        J = _fd_jacobian(problem, theta, res)
        try:
            step = np.linalg.solve(J, res)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, res, rcond=None)[0]
        ns = np.linalg.norm(step)
        if not np.isfinite(ns):
            return None
        if ns > 1.0:
            step *= 1.0 / ns
        improved = False
        for _ in range(6):
            cand = theta - step
            _clamp_times(problem, cand)
            _retract_dirs(problem, cand)
            cres = _augmented(cand, problem)
            cnorm = float(np.max(np.abs(cres)))
            if cnorm < norm:
                theta, res, norm = cand, cres, cnorm
                improved = True
                break
            step *= 0.5
        if not improved:
            return None
        if not _plausible(problem, theta, bigbox):
            return None
    return None


def _fd_jacobian(problem, theta, res):
    J = np.empty((len(res), len(theta)))
    for j in range(len(theta)):
        pert = theta.copy()
        pert[j] += FD_STEP
        _clamp_times(problem, pert)
        dj = pert[j] - theta[j]
        if dj == 0.0:
            pert[j] = theta[j] + FD_STEP  # at the t >= 0 boundary, step forward
            dj = FD_STEP
        J[:, j] = (_augmented(pert, problem) - res) / dj
    return J


def _clamp_times(problem, theta):
    k1, k2, k3 = problem.k
    for idx in (k1, k1 + 1 + k2, len(theta) - 1):
        if theta[idx] < 0.0:
            theta[idx] = 0.0
        if theta[idx] > 60.0:
            theta[idx] = 60.0


def _retract_dirs(problem, theta):
    """Project the three direction blocks back to their unit spheres.

    Without this, a Newton step that mostly rotates a launch direction
    leaves the sphere quadratically, the norm-constraint residual swamps
    the matching residual, and backtracking strangles the rotation."""
    k1, k2, k3 = problem.k
    for a, b in ((0, k1), (k1 + 1, k1 + 1 + k2),
                 (k1 + k2 + 2, k1 + k2 + 2 + k3)):
        nrm = np.linalg.norm(theta[a:b])
        if nrm > 1e-12:
            theta[a:b] /= nrm


def _plausible(problem, theta, bigbox):
    """Whether the middle edge ends inside `bigbox` (anywhere on the torus)."""
    q2 = problem.endpoint(1, *_mid(problem, theta))
    return bigbox is None or all(lo <= q2[i] <= hi
                                 for i, (lo, hi) in enumerate(bigbox))


# ---------------------------------------------------------------------------
# The solver

def solve_trees(problem):
    """All isolated flow trees of a 0-dimensional problem.

    Seeds come from ranking a coarse product grid of chart endpoints;
    damped Newton refines; solutions are deduplicated by meeting point and
    validated (matching, confinement, the rho/4 positivity bound, Jacobian
    condition below COND_CAP)."""
    if problem.d != 0:
        raise DimensionError(
            "expected dimension is %d, not 0: |p0|=%d, |p1|=%d, |p2|=%d "
            "(only isolated counts are defined)"
            % (problem.d, problem.sink.grading, problem.src1.grading,
               problem.src2.grading))
    problem.s.check()
    if problem.periodic:
        esc = None
        bigbox = None
        diam = 1.0
    else:
        outer = problem.h1.outer_box
        esc = fl.escape_box(outer)
        bigbox = fl.escape_box(outer, 2.5)
        diam = float(np.linalg.norm([hi - lo for lo, hi in outer]))

    tabs = []
    for which, chart in enumerate((problem.chart1, problem.chart2, problem.chart3)):
        m = {2: 12, 3: 24}.get(chart.k, 48)
        dirs = fl.sphere_dirs(chart.k, m, 97 + chart.k + which)
        times = _time_grid(chart, problem.r0, diam)
        E, params = _tabulate(problem, which, dirs, times)
        if esc is not None:
            keep = np.all((E > np.array(esc)[:, 0]) & (E < np.array(esc)[:, 1]), axis=1)
            E, params = E[keep], [p for p, k in zip(params, keep) if k]
        tabs.append((E, params))

    (E1, P1), (E2, P2), (E3, P3) = tabs
    if min(len(E1), len(E2), len(E3)) == 0:
        return []
    s1, s2, s3 = problem.s.parts()
    M12 = _pair_dist2(E1, E2, s1 - s2, problem.periodic)
    M23 = _pair_dist2(E2, E3, s2 - s3, problem.periodic)
    best_i = np.argmin(M12, axis=0)
    best_k = np.argmin(M23, axis=1)
    score = M12[best_i, np.arange(len(E2))] + M23[np.arange(len(E2)), best_k]
    order = np.argsort(score, kind="stable")[:MAX_SEEDS]

    solutions = []
    for j in order:
        i, kk = best_i[j], best_k[j]
        theta0 = problem.pack(P1[i][0], P1[i][1], P2[j][0], P2[j][1],
                              P3[kk][0], P3[kk][1])
        got = _newton(problem, theta0, bigbox)
        if got is None:
            continue
        theta, res, J = got
        q2 = problem.endpoint(1, *_mid(problem, theta))
        meeting = q2 + s2
        if problem.periodic:
            meeting = np.mod(meeting, 1.0)
        dup = False
        for sol in solutions:
            delta = problem._wrap(sol["meeting"] - meeting)
            if np.linalg.norm(delta) < DEDUP_RADIUS:
                dup = True
                break
        if not dup:
            solutions.append({"theta": theta, "res": res, "J": J, "meeting": meeting})

    return [_validate(problem, sol, esc) for sol in solutions]


def _mid(problem, theta):
    _, _, u2, t2, _, _ = problem.split(theta)
    return u2, t2


def _validate(problem, sol, esc):
    theta = sol["theta"]
    cond = float(np.linalg.cond(sol["J"]))
    if cond > COND_CAP:
        raise NonTransverseError(
            "tree Jacobian condition %.3g exceeds cap %.3g: "
            "non-transverse at this s; resample s" % (cond, COND_CAP))
    match = float(np.max(np.abs(sol["res"][:2 * problem.D])))
    if match > TOL_MATCH:
        raise RuntimeError("accepted tree fails matching: %.3g > %.3g" % (match, TOL_MATCH))
    u1, t1, u2, t2, u3, t3 = problem.split(theta)
    trajs = []
    for which, chart, u, t in ((0, problem.chart1, u1, t1),
                               (1, problem.chart2, u2, t2),
                               (2, problem.chart3, u3, t3)):
        start = chart.point.coords + chart.r0 * (chart.frame @ u)
        direction = "forward" if chart.side == "unstable" else "backward"
        trajs.append(fl.integrate(chart.field, start, direction,
                                  terminal_t=max(t, 1e-12),
                                  tolerances=problem.tolerances,
                                  record_samples=True))
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


def count_trees(src1, src2, sink, s, fields, r0=1e-3, tolerances=None,
                meeting_floor=None):
    """#_{Z2} of trees from (src1, src2) into sink.  src/sink are critical
    points already living in the three fields (embedded via iota in the
    generating-family pipeline; raw critical points in Morse mode)."""
    if sink.grading != src1.grading + src2.grading:
        raise DimensionError(
            "product requires |p0| = |p1| + |p2|: got |p0|=%d, |p1|=%d, |p2|=%d"
            % (sink.grading, src1.grading, src2.grading))
    problem = TreeProblem(fields, src1, src2, sink, s, r0=r0,
                          tolerances=tolerances, meeting_floor=meeting_floor)
    trees = solve_trees(problem)
    return len(trees) % 2, trees
