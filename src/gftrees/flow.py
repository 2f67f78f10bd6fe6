"""Positive gradient flow: integration, invariant-manifold charts, and
counting isolated connecting trajectories.

The ODE is z' = +grad(field) (or - for backward time), integrated with an
adaptive Dormand-Prince 4(5) pair.  One scalar loop, `_integrate_core`,
runs on plain floats; its step is a straight-line function compiled once
per dimension D, each coordinate's stages written out with the operands
of the formulas.  An event-mode run's `Stops` says where it stops, at
its tracked critical points and its escape box; its tolerance dict says
how, with the capture radius r_conv, the value window and the time cap
t_max, each stored there alone.  A terminal-mode path that is
queried at many times, such as a tree chart's (chart, u), keeps a step
log and resumes each query from the log instead of from t = 0, with a
bit-identical result.

Counting M(p, q) scans the coupled sub-sphere of p's unstable sphere:
one trajectory per seed direction, recording where it ended and how close
it came to every higher critical point.  Every count from p reads the one
scan of its `LineSource`, made in the first count that needs it.  A
decoupled quadratic slot with c > 0 flows as z_i(0) e^{2ct}, so every line
p -> q holds it at exactly 0; the scan's chart leaves such slots out (its
`pins`) and each seed starts with them at 0.0, as the tree solver's
capture run does.  A scan runs all
its seeds as one batch through `integrate_batch`, a numpy twin of the
scalar loop that reproduces it bit for bit: both square with x * x and
sum left to right.  Its event test measures every row against every
tracked point in one pass and keeps each row's first event in the
scalar loop's order.  Below SCALAR_ROWS active rows a `grad_vec` call
costs more than the scalar grads of its rows, so the batch hands its last
few rows to the scalar loop, which resumes each from its step state; a
batch that starts that small, like the two seeds of a k = 1 scan, runs on
the scalar loop throughout and keeps each seed's recorded trajectory.
The seeds that q captured form clusters on the seed neighbor graph
(single seeds for k = 1, runs on the circle, components of the pairs
within a few seed spacings for k >= 3), and each cluster is one line.
A line's representative is its seed's kept trajectory; only a seed that
ran in the numpy batch, which keeps no samples, is integrated again.  A
target of positive coindex captures only a measure-zero set of
directions; a scan that passes close to q without capture shows such a
line as a wall it cannot resolve, and the count is refused with
AmbiguousCountError rather than returned without it.  A seed that
neither converged nor escaped is refused the same way.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field as dfield
from functools import cached_property

import numpy as np

from .pairs import components, nearest_distances, pairs_within

# `log` names a path's step log below
logger = logging.getLogger(__name__)

FLOW_TOLERANCES = {
    "rtol": 1e-8,
    "atol": 1e-10,
    "r_conv": 1e-4,
    "value_window": 1e-7,
    "t_max": 400.0,
    "h0": 1e-3,
    "h_max": 0.5,
}

R0 = 1e-3   # default chart radius, and the default of a config's `solver.r0`


class StiffnessError(RuntimeError):
    pass


class AmbiguousCountError(RuntimeError):
    pass


@dataclass
class Termination:
    kind: str                 # "converged" | "escaped" | "timeout" | "time"
    target: str = ""          # critical id, or exit face like "+z3"

    def as_tuple(self):
        return (self.kind, self.target)


@dataclass
class Trajectory:
    tag: str
    samples: list             # [(t, point tuple)] when recorded
    termination: Termination
    t_final: float
    final: np.ndarray
    approach: dict | None = None   # critical id -> closest approach distance


@dataclass
class Stops:
    """Where an event-mode run stops: the tracked critical points and the
    escape box (None on the torus); `flow_stops` builds it."""
    criticals: list
    escape_box: list | None


def escape_box(outer_box, factor=1.5):
    out = []
    for lo, hi in outer_box:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        out.append([mid - factor * half, mid + factor * half])
    return out


# ---------------------------------------------------------------------------
# Dormand-Prince 4(5) on plain float lists

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)


# The compiled `_dp_step` of each dimension D.  Each coordinate's stages
# are written out with the operands of the formulas above, in their order,
# so every float rounds as the formulas round it.
_STEPS = {}


def _dp_step(D):
    """`step(f, z, k1, h, rtol, atol) -> (z1, k7, err)`, one Dormand-Prince
    step on D coordinates from the loop-top state (z, k1): seven calls of
    `f` on lists of floats, the 5th-order state z1, the slope k7 = f(z1)
    and the scaled error norm.  A non-finite z1 returns (z1, None, None)
    before k7 is evaluated."""
    step = _STEPS.get(D)
    if step is None:
        step = _STEPS[D] = _build_step(D)
    return step


def _build_step(D):
    R = range(D)

    def unpack(name, value):
        return "%s, = %s" % (", ".join("%s%d" % (name, i) for i in R), value)

    def stage(name, terms):
        """`name_i` = f(x_i + h * (terms_i)), unpacked."""
        y = ", ".join("x{0} + h * ({1})".format(i, terms.format(i)) for i in R)
        return unpack(name, "f([%s])" % y)

    body = [unpack("x", "z"), unpack("a", "k1"),
            # h * _A21 * k1_i, unbracketed as in the formula
            unpack("b", "f([%s])" % ", ".join("x%d + h * _A21 * a%d" % (i, i) for i in R)),
            stage("c", "_A31 * a{0} + _A32 * b{0}"),
            stage("d", "_A41 * a{0} + _A42 * b{0} + _A43 * c{0}"),
            stage("e", "_A51 * a{0} + _A52 * b{0} + _A53 * c{0} + _A54 * d{0}"),
            stage("g", "_A61 * a{0} + _A62 * b{0} + _A63 * c{0} + _A64 * d{0} + _A65 * e{0}"),
            *["n{0} = x{0} + h * (_B1 * a{0} + _B3 * c{0} + _B4 * d{0} + _B5 * e{0}"
              " + _B6 * g{0})".format(i) for i in R],
            "z1 = [%s]" % ", ".join("n%d" % i for i in R),
            "if not (%s):" % " and ".join("isfinite(n%d)" % i for i in R),
            "    return z1, None, None",
            "k7 = f(z1)",
            unpack("m", "k7"),
            "errsq = 0.0"]
    for i in R:
        body += ["q = h * (_E1 * a{0} + _E3 * c{0} + _E4 * d{0} + _E5 * e{0} + _E6 * g{0}"
                 " + _E7 * m{0}) / (atol + rtol * max(abs(x{0}), abs(n{0})))".format(i),
                 "errsq += q * q"]
    body.append("return z1, k7, sqrt(errsq / %d)" % D)
    src = "def _step(f, z, k1, h, rtol, atol):\n" + "".join("    %s\n" % ln for ln in body)
    env = {k: v for k, v in globals().items() if k[:2] in ("_A", "_B", "_E")}
    env.update(isfinite=math.isfinite, sqrt=math.sqrt)
    exec(compile(src, "<gftrees:dp_step_%d>" % D, "exec"), env)
    return env["_step"]


def _periodic_delta(a, b):
    d = a - b
    return d - round(d)


def _sum(terms):
    """Left-to-right sum from 0.0, as `_row_sum` adds; the builtin `sum` of
    floats is compensated from Python 3.12 on, so it may round otherwise."""
    total = 0.0
    for v in terms:
        total += v
    return total


def _dist(z, c, periodic):
    if periodic:
        d = [_periodic_delta(z[i], c[i]) for i in range(len(c))]
    else:
        d = [z[i] - c[i] for i in range(len(c))]
    return math.sqrt(_sum(v * v for v in d))


def _segment_dist(z0, z1, c, periodic):
    """Distance from point c to segment [z0, z1] (nearest periodic image)."""
    D = len(c)
    if periodic:
        # move c to the image nearest z0
        c = [c[i] + round(z0[i] - c[i]) for i in range(D)]
    vx = [z1[i] - z0[i] for i in range(D)]
    wx = [c[i] - z0[i] for i in range(D)]
    vv = _sum(v * v for v in vx)
    if vv == 0.0:
        return math.sqrt(_sum(w * w for w in wx))
    s = max(0.0, min(1.0, _sum(vx[i] * wx[i] for i in range(D)) / vv))
    d = [wx[i] - s * vx[i] for i in range(D)]
    return math.sqrt(_sum(v * v for v in d))


# Row-wise twins of the scalar helpers for the batched loop.  Each performs
# the scalar operations in the scalar order, squaring with x * x as they
# do (a `** 2` on a Python float is libm's pow, which may round otherwise),
# so every row rounds the same.  The distance helpers take a (n, D) array
# of rows and one point c, or a (C, 1, D) stack of points for a (C, n)
# result, and work one coordinate at a time on (C, n) arrays, summing the
# coordinates' terms left to right with `_sum`.

def _row_sum(X):
    """Sum of each row's columns, left to right from 0 as `_sum` adds."""
    total = np.zeros(X.shape[0])
    for i in range(X.shape[1]):
        total = total + X[:, i]
    return total


def _dist_rows(Z, c, periodic):
    d = [Z[:, i] - c[..., i] for i in range(Z.shape[1])]
    if periodic:
        d = [v - np.round(v) for v in d]
    return np.sqrt(_sum([v * v for v in d]))


def _segment_dist_rows(Z0, Z1, c, periodic):
    R = range(Z0.shape[1])
    z0 = [Z0[:, i] for i in R]
    c = [c[..., i] for i in R]
    if periodic:
        c = [c[i] + np.round(z0[i] - c[i]) for i in R]
    vx = [Z1[:, i] - z0[i] for i in R]
    wx = [c[i] - z0[i] for i in R]
    vv = _sum([v * v for v in vx])
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.maximum(0.0, np.minimum(1.0, _sum([vx[i] * wx[i] for i in R]) / vv))
    r = [wx[i] - s * vx[i] for i in R]
    d = np.sqrt(_sum([v * v for v in r]))
    flat = vv == 0.0
    if flat.any():
        d[..., flat] = np.sqrt(_sum([w[..., flat] * w[..., flat] for w in wx]))
    return d


class StepLog(list):
    """The step log of one terminal-mode path: its loop-top states
    (t, z, k1, h) from t = 0 on (see `_integrate_core`), with the time
    cap and the resume index of its last query."""
    last_cap = -math.inf
    last_index = 0


def _resume_index(log, t_cap, h_max):
    """Index of the last logged state that a fresh run to t_cap passes
    through: every earlier state must enter the loop and take its step
    unshortened by the cap, tested with the loop's own expressions.  Each
    state's test passes at every cap above one it passed at, so a cap no
    smaller than the last query's starts at that query's index."""
    j = log.last_index if t_cap >= log.last_cap else 0
    while j < len(log) - 1:
        t, _, _, h = log[j]
        if not (t < t_cap * (1.0 - 1e-15) and t_cap - t >= min(h, h_max)):
            break
        j += 1
    return j


def _integrate_core(f, z0, t_cap, rtol, atol, h0, h_max,
                    inspector=None, record=None, periodic=False, log=None,
                    start=None):
    """Returns (reason, t, z, payload) with reason "cap" | "stop".

    Each step is `_dp_step(D)`: the stages, the 5th-order state, its
    finiteness check and the error norm as one straight-line function of
    the loop-top state, with seven calls of `f`, as the Dormand-Prince
    formulas write them.

    `log`, a StepLog owned by one start point, is the path's step log:
    its loop-top states (t, z, k1, h) from t = 0 on, each reached from the
    one before by a step the time cap did not shorten, so every cap passes
    through them alike until its first shortened step.  A run resumes from
    the last state that a fresh run to t_cap passes through unchanged
    (`_resume_index`), so its result is bit-identical to a fresh run's.
    A run that resumes at the log's end appends its own states while its
    steps stay unshortened, the exit state included; one that resumes
    earlier appends nothing.  Either way the log keeps t_cap and the index
    that a fresh run to it would resume from.  `start`, a loop-top state
    (t, z, k1, h), starts the loop there instead, without a log:
    `integrate_batch` hands a row to the scalar loop this way.
    """
    step = _dp_step(len(z0))
    if start is not None:
        t, z, k1, h = start
    elif log:
        j = _resume_index(log, t_cap, h_max)
        t, z, k1, h = log[j]
        if j == len(log) - 1:
            log.pop()           # the loop top logs it again
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
            # tuples of floats, which the garbage collector stops tracking
            log.append((t, tuple(z), tuple(k1), h))
            # the states after a cap-shortened step are specific to this cap
            updating = t_cap - t >= min(h, h_max)
        h = min(h, t_cap - t, h_max)
        if h < 1e-13:
            raise StiffnessError("step size underflow at t=%.6g near %s"
                                 % (t, [round(v, 6) for v in z]))
        z1, k7, err = step(f, z, k1, h, rtol, atol)
        if k7 is None:
            raise StiffnessError("state blew up at t=%.6g near %s"
                                 % (t, [round(v, 3) for v in z]))
        if err > 1.0:
            h *= max(0.2, 0.9 * err ** -0.2)
            continue
        verdict = inspector(z, z1, h) if inspector is not None else None
        if verdict is not None and verdict[0] == "reject":
            h *= verdict[1]
            continue
        t += h
        # wrapping is invisible to a periodic right-hand side, so k7 stays valid
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
        # t_cap passes every state but the last, where this run stopped logging
        log.last_cap, log.last_index = t_cap, len(log) - 1
    return ("cap", t, z, None)


def _inspector(field, stops, tol, approach):
    """The event rules of one trajectory, for `_integrate_core`: escape
    faces first, in coordinate order with - before +; then the tracked
    points in list order, lowering `approach` (critical id -> closest
    distance so far) and testing capture and the segment jump."""
    # each point's coordinates as Python floats: the helpers run several
    # times faster on them than on numpy float64 scalars, to the same bits
    tracked = [(c, [float(v) for v in c.coords]) for c in stops.criticals]
    r_conv = tol["r_conv"]
    vwin = tol["value_window"]
    esc = stops.escape_box
    periodic = field.periodic

    def inspector(z0, z1, h):
        if esc is not None:
            for i, (lo, hi) in enumerate(esc):
                if z1[i] < lo:
                    return ("stop", Termination("escaped", "-z%d" % i))
                if z1[i] > hi:
                    return ("stop", Termination("escaped", "+z%d" % i))
        for c, coords in tracked:
            d1 = _dist(z1, coords, periodic)
            if d1 < approach[c.id]:
                approach[c.id] = d1
            if d1 < r_conv:
                if abs(field.value(z1) - c.value) < vwin:
                    return ("stop", Termination("converged", c.id))
                continue
            d0 = _dist(z0, coords, periodic)
            if d0 > r_conv:
                ds = _segment_dist(z0, z1, coords, periodic)
                if ds < approach[c.id]:
                    approach[c.id] = ds
                if ds < r_conv:
                    # the step would jump across the convergence ball
                    return ("reject", 0.25)
        return None
    return inspector


def _tolerances(tolerances):
    """FLOW_TOLERANCES updated by `tolerances`."""
    return {**FLOW_TOLERANCES, **(tolerances or {})}


def integrate(field, start, direction="forward", stops=None, tolerances=None,
              terminal_t=None, resume=None):
    """Integrate z' = +-grad(field) from `start`, recording samples unless
    it resumes from a step log.

    Event mode (stops given): run until capture at a tracked point within
    r_conv and the value window, exit from the escape box, or t_max, all
    three read from the merged `tolerances`.  Terminal mode (terminal_t
    given): run for exactly that much time.  In terminal mode `resume` is
    the StepLog of one (field, start, direction, tolerances) path, which
    grows between calls: a later call at any time resumes from the log
    instead of from t = 0 (see `_integrate_core`).
    """
    # on numpy float64 scalars the scalar loop takes about twice as long
    start = [float(v) for v in start]
    tol = _tolerances(tolerances)
    sign = +1.0 if direction == "forward" else -1.0
    g = field.grad
    if sign > 0:
        f = g
    else:
        f = lambda z: [-v for v in g(z)]
    # an empty StepLog is falsy, so a log is told by `is None`
    record = [] if resume is None else None
    periodic = field.periodic

    if resume is not None and terminal_t is None:
        raise ValueError("resume needs terminal mode")
    if terminal_t is not None:
        reason, t, z, _ = _integrate_core(
            f, start, terminal_t, tol["rtol"], tol["atol"], tol["h0"],
            tol["h_max"], record=record, periodic=periodic, log=resume)
        return Trajectory(field.tag, record or [], Termination("time"),
                          t, np.array(z))

    if stops is None:
        raise ValueError("need either a stop rule or terminal_t")
    approach = {c.id: _dist(start, c.coords, periodic) for c in stops.criticals}
    reason, t, z, payload = _integrate_core(
        f, start, tol["t_max"], tol["rtol"], tol["atol"], tol["h0"],
        tol["h_max"], inspector=_inspector(field, stops, tol, approach), record=record,
        periodic=periodic)
    term = payload if reason == "stop" else Termination("timeout")
    return Trajectory(field.tag, record or [], term, t, np.array(z),
                      approach=approach)


# Below this many active rows a grad_vec call costs more than the scalar
# grads of its rows.  On the GF fields it runs ~150 numpy statements, whose
# dispatch makes a call cost about the same 200-300 us at any B up to ~200,
# while one scalar grad costs 4-13 us.
SCALAR_ROWS = 8


def integrate_batch(field, starts, stops, tolerances=None):
    """Event-mode forward `integrate` from every row of `starts` at once.

    One Dormand-Prince loop over a (B, D) array through `field.grad_vec`.
    Each row keeps its own t, h and active flag, and each pass evaluates
    only the active rows.  The event test runs the scalar rules on all
    rows at once: the escape faces as one comparison, then each row's
    distance, start distance and segment distance to every tracked point
    as (rows, points) arrays.  Each row takes its first event in the
    scalar order (escape faces in coordinate order with - before +, then
    the tracked points in list order, a capture where the value matches
    or a segment jump), and its approach falls only at the points before
    and at that event; only rows inside a convergence ball call
    `field.value`.  Once fewer than SCALAR_ROWS rows are active, each
    of them resumes the scalar loop from its loop-top state (t, z, k1, h),
    the `start` of `_integrate_core`, with its approach so far and no step
    log; a batch of fewer rows runs each through `integrate` from its
    start, samples included, and never calls `grad_vec`.  Distances and
    the error norm square with x * x and sum left to right, as the scalar
    loop does, and the step-growth rule `err ** -0.2` runs on Python
    floats.  Every row therefore takes the steps of
    `integrate(field, row, stops=stops)` and ends with its Termination, t,
    final point and approach, bit for bit.  Returns one Trajectory per
    row; only the rows of a batch of fewer than SCALAR_ROWS carry their
    samples.  t_max, r_conv and the value window come from the merged
    `tolerances`, as in `integrate`.
    """
    tol = _tolerances(tolerances)
    if len(starts) < SCALAR_ROWS:
        return [integrate(field, s, stops=stops, tolerances=tolerances)
                for s in starts]
    rtol, atol, h_max = tol["rtol"], tol["atol"], tol["h_max"]
    f = field.grad_vec
    periodic = field.periodic
    tracked = stops.criticals
    esc = stops.escape_box
    t_cap, r_conv, vwin = tol["t_max"], tol["r_conv"], tol["value_window"]
    limit = t_cap * (1.0 - 1e-15)

    Z = np.array(starts, dtype=float)
    B, D = Z.shape
    C = len(tracked)
    stack = np.array([c.coords for c in tracked], dtype=float).reshape(C, 1, D)
    columns = np.arange(C)
    if esc is not None:
        lo, hi = np.array(esc, dtype=float).T
        # -z0, +z0, -z1, ...: the order the scalar inspector tests them in
        faces = [sign + "z%d" % i for i in range(D) for sign in "-+"]
    A = _dist_rows(Z, stack, periodic).T.copy()
    T = np.zeros(B)
    H = np.full(B, min(tol["h0"], h_max))
    K1 = f(Z)
    rows = np.arange(B)             # the active rows; state arrays follow them
    ends = [Termination("timeout") for _ in range(B)]
    t_end, z_end, a_end = np.zeros(B), np.empty((B, D)), np.empty_like(A)

    stopped = {}                    # position among the active rows -> Termination
    while True:
        done = ~(T < limit)
        for r, term in stopped.items():
            done[r] = True
            ends[rows[r]] = term
        if done.any():
            out = rows[done]
            t_end[out], z_end[out], a_end[out] = T[done], Z[done], A[done]
            keep = ~done
            rows, Z, K1, T, H, A = rows[keep], Z[keep], K1[keep], T[keep], H[keep], A[keep]
        if rows.size < SCALAR_ROWS:
            break
        H = np.minimum(np.minimum(H, t_cap - T), h_max)
        if (H < 1e-13).any():
            i = int(np.argmax(H < 1e-13))
            raise StiffnessError("step size underflow at t=%.6g near %s"
                                 % (T[i], [round(v, 6) for v in Z[i].tolist()]))
        # h on every coordinate: a (B, 1) operand would broadcast more slowly
        h = np.repeat(H[:, None], D, axis=1)
        k2 = f(Z + h * _A21 * K1)
        k3 = f(Z + h * (_A31 * K1 + _A32 * k2))
        k4 = f(Z + h * (_A41 * K1 + _A42 * k2 + _A43 * k3))
        k5 = f(Z + h * (_A51 * K1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = f(Z + h * (_A61 * K1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        Z1 = Z + h * (_B1 * K1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        if not np.isfinite(Z1).all():
            i = int(np.argmin(np.isfinite(Z1).all(axis=1)))
            raise StiffnessError("state blew up at t=%.6g near %s"
                                 % (T[i], [round(v, 3) for v in Z[i].tolist()]))
        K7 = f(Z1)
        E = h * (_E1 * K1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * K7)
        SC = atol + rtol * np.maximum(np.abs(Z), np.abs(Z1))
        Q = E / SC
        err = np.sqrt(_row_sum(Q * Q) / D)
        ok = ~(err > 1.0)
        # `err ** -0.2` stays a Python float: numpy's power need not match
        # libm.  fmax and fmin pick as the builtins max and min do, and a
        # nan err grows by 5.0, as min(5.0, nan) does.
        g = 0.9 * np.array([e ** -0.2 for e in np.maximum(err, 1e-10).tolist()])
        grown = np.where(err > 1.0, np.fmax(0.2, g),
                         np.where(err < 1e-10, 5.0, np.fmin(5.0, g)))

        # the event inspector, on the rows whose step met the tolerance
        pending = ok.copy()
        reject = np.zeros(rows.size, dtype=bool)
        stopped = {}
        if esc is not None:
            off = np.stack((Z1 < lo, Z1 > hi), axis=-1).reshape(rows.size, 2 * D)
            left = pending & off.any(axis=1)
            first = off.argmax(axis=1)
            for r in np.flatnonzero(left).tolist():
                stopped[r] = Termination("escaped", faces[first[r]])
            pending &= ~left
        if C and pending.any():
            d1 = _dist_rows(Z1, stack, periodic).T
            near = d1 < r_conv
            seg = ~near & (_dist_rows(Z, stack, periodic).T > r_conv)
            ds = _segment_dist_rows(Z, Z1, stack, periodic).T
            # the step would jump across the convergence ball
            jump = seg & (ds < r_conv)
            # each row's first event among the tracked points; C for none
            stop = np.where(jump.any(axis=1), jump.argmax(axis=1), C)
            reject = pending & (stop < C)
            for r in np.flatnonzero(pending & near.any(axis=1)).tolist():
                for j in np.flatnonzero(near[r, :stop[r]]).tolist():
                    if abs(field.value(Z1[r].tolist()) - tracked[j].value) < vwin:
                        stopped[r] = Termination("converged", tracked[j].id)
                        reject[r], stop[r] = False, j
                        break
            # the approach to each point a row reached before its event
            reached = pending[:, None] & (columns <= stop[:, None])
            A = np.where(reached, np.minimum(A, d1), A)
            A = np.where(reached & seg, np.minimum(A, ds), A)
        grown[reject] = 0.25

        accept = (ok & ~reject)[:, None]
        T = np.where(accept[:, 0], T + H, T)
        Z = np.where(accept, np.remainder(Z1, 1.0) if periodic else Z1, Z)
        K1 = np.where(accept, K7, K1)
        H = H * grown

    ids = [c.id for c in tracked]
    for r, b in enumerate(rows.tolist()):
        approach = dict(zip(ids, A[r].tolist()))
        z = Z[r].tolist()
        reason, t, z, payload = _integrate_core(
            field.grad, z, t_cap, rtol, atol, tol["h0"], h_max,
            inspector=_inspector(field, stops, tol, approach), periodic=periodic,
            start=(float(T[r]), z, K1[r].tolist(), float(H[r])))
        if reason == "stop":
            ends[b] = payload
        t_end[b], z_end[b], a_end[b] = t, z, [approach[i] for i in ids]
    return [Trajectory(field.tag, [], ends[r], float(t_end[r]), z_end[r].copy(),
                       approach=dict(zip(ids, a_end[r].tolist())))
            for r in range(B)]


# ---------------------------------------------------------------------------
# Invariant-manifold charts

@dataclass
class ManifoldChart:
    """The eigenframe chart of p's unstable or stable manifold.  `pins` are
    decoupled slots left out of it: the frame holds exact zeros in their
    rows, and its k axes span the coupled part of the manifold."""
    point: object             # CriticalPoint
    side: str                 # "unstable" | "stable"
    r0: float
    frame: np.ndarray         # (D, k) orthonormal columns
    rates: np.ndarray         # eigenvalues along the frame
    field: object
    pins: tuple = ()

    @property
    def k(self):
        return self.frame.shape[1]


def build_chart(field, p, side, r0=R0, pins=()):
    """Eigenframe chart of W^-(p) (unstable, coindex directions) or
    W^+(p) (stable, index directions) for the positive gradient flow.

    `pins` are decoupled slots of the chart's side.  The eigenframe comes
    from the Hessian with their rows and columns removed and is embedded
    back into R^D with exact zeros in the pinned rows, so the chart covers
    the coupled sub-manifold and k + len(pins) is the side's count.  With
    no pins it is the eigenframe of the whole Hessian."""
    H = field.hess([float(v) for v in p.coords])
    keep = [i for i in range(len(H)) if i not in pins]
    eigvals, eigvecs = np.linalg.eigh(H[np.ix_(keep, keep)])
    sel = eigvals > 0 if side == "unstable" else eigvals < 0
    frame = np.zeros((len(H), int(sel.sum())))
    frame[keep] = eigvecs[:, sel]
    rates = eigvals[sel]
    # deterministic sign convention
    for j in range(frame.shape[1]):
        m = np.argmax(np.abs(frame[:, j]))
        if frame[m, j] < 0:
            frame[:, j] = -frame[:, j]
    want = p.coindex if side == "unstable" else p.morse_index
    if frame.shape[1] + len(pins) != want:
        raise RuntimeError("chart frame dimension %d with pins %r disagrees with "
                           "%s count %d at %s"
                           % (frame.shape[1], tuple(pins), side, want, p.id))
    return ManifoldChart(p, side, float(r0), frame, rates, field, tuple(pins))


def chart_point(chart, u, t, tolerances=None, resume=None):
    """Flow image of p + r0*u: forward time t on the unstable side,
    backward on the stable side.  t = 0 returns p + r0*u exactly.
    `resume` is the StepLog of `integrate`, one per (chart, u)."""
    if t < 0:
        raise ValueError("chart time must be >= 0")
    start = chart_start(chart, np.asarray(u, dtype=float))
    if t == 0.0:
        return start
    direction = "forward" if chart.side == "unstable" else "backward"
    traj = integrate(chart.field, start, direction, terminal_t=t,
                     tolerances=tolerances, resume=resume)
    return traj.final


# ---------------------------------------------------------------------------
# Sphere scans and line counting

@dataclass
class LineCount:
    """A mod-2 line count.  Its `trajectories`, one recorded representative
    per cluster, come from `representatives` on first read and are kept:
    the scan's own run of the representative seed when the scan kept its
    trajectories, else a fresh `integrate` from that seed."""
    parity: int | None
    clusters: int
    note: str = ""
    representatives: Callable[[], list] = dfield(default=list, repr=False)

    @cached_property
    def trajectories(self):
        return self.representatives()


def sphere_dirs(k, m, seed):
    """m directions on the unit sphere S^{k-1}: none for k = 0, both of
    them for k = 1, the equispaced circle for k = 2, the Fibonacci lattice
    for k = 3, and normal draws from `seed` for k > 3."""
    if k == 0:
        return np.empty((0, 0))
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if k == 3:
        i = np.arange(m) + 0.5
        phi = math.pi * (1.0 + math.sqrt(5.0)) * i
        cz = 1.0 - 2.0 * i / m
        sz = np.sqrt(np.maximum(0.0, 1.0 - cz * cz))
        return np.column_stack([sz * np.cos(phi), sz * np.sin(phi), cz])
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, k))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class _Scan:
    def __init__(self, stops, dirs, outcomes, approach_ids, approach, trajectories):
        self.stops = stops            # the stop rule every seed ran under
        self.dirs = dirs              # (m, k)
        self.outcomes = outcomes      # list of (kind, target)
        self.approach_ids = approach_ids
        self.approach = approach      # (m, len(ids))
        # one recorded Trajectory per seed when the scan ran on the scalar
        # loop throughout, else None
        self.trajectories = trajectories


def flow_stops(field, criticals, source_value):
    """The stop rule of a run from a point of value `source_value`: the
    critical points above it, and the escape box off the torus."""
    tracked = [c for c in criticals if c.value > source_value + 1e-12]
    esc = None
    if not field.periodic:
        if field.outer_box is None:
            raise ValueError("field carries no outer box for the escape test")
        esc = escape_box(field.outer_box)
    return Stops(tracked, esc)


def chart_start(chart, u):
    """p + r0 * frame @ u, with exactly 0.0 in the chart's pinned slots,
    where the flow of a decoupled slot then stays."""
    start = chart.point.coords + chart.r0 * (chart.frame @ np.asarray(u))
    start[list(chart.pins)] = 0.0
    return start


def pinned_slots(field):
    """The decoupled quadratic slots of `field` with c > 0.  Such a slot
    flows as z_i(0) e^{2ct}, so a trajectory that stays bounded, as every
    one between critical points does, holds it at exactly 0."""
    return tuple(i for i, c in field.quad_blocks if c > 0)


def sphere_scan(field, p, criticals, r0=R0, m=None, tolerances=None):
    """Integrate from a dense sample of the coupled sub-sphere of p's
    unstable sphere, the part orthogonal to the field's `pinned_slots`;
    record each seed's outcome and its closest approach to every higher
    critical point.  A scan of fewer than SCALAR_ROWS seeds, such as every
    k = 1 scan, runs each seed once on the scalar loop and keeps its
    recorded trajectory.  The scan keeps the stop rule its seeds ran
    under.  Returns (scan, chart)."""
    tol = _tolerances(tolerances)
    chart = build_chart(field, p, "unstable", r0, pins=pinned_slots(field))
    k = chart.k
    if m is None:
        m = {1: 2, 2: 512}.get(k, 800)
    stops = flow_stops(field, criticals, p.value)
    ids = [c.id for c in stops.criticals]
    dirs = sphere_dirs(k, m, 12345)
    logger.info("scan %s from %s: k = %d, pins %s, %d seeds",
                field.tag, p.id, k, list(chart.pins), len(dirs))
    trajs = integrate_batch(field, [chart_start(chart, u) for u in dirs], stops, tol)
    outcomes = [traj.termination.as_tuple() for traj in trajs]
    approach = np.array([[traj.approach[i] for i in ids] for traj in trajs])
    kept = trajs if len(dirs) < SCALAR_ROWS else None
    return _Scan(stops, dirs, outcomes, ids, approach.reshape(len(dirs), len(ids)),
                 kept), chart


class LineSource:
    """The line counts from one critical point p of `field`: every target
    reads p's one sphere scan, made on first need."""

    def __init__(self, field, p, criticals, r0=R0, m=None, tolerances=None):
        self.field, self.p, self.criticals = field, p, criticals
        self.r0, self.m = r0, m
        self.tol = _tolerances(tolerances)

    @cached_property
    def scan(self):
        """(scan, chart) of `sphere_scan`."""
        return sphere_scan(self.field, self.p, self.criticals, r0=self.r0,
                           m=self.m, tolerances=self.tol)


def count_lines(source, q):
    """#_{Z2} of isolated flow lines source.p -> q, with lazy representatives.

    The scan covers the coupled sub-sphere of p's unstable sphere (see
    `sphere_scan`): every line holds the pinned slots at 0, so the seeds
    there are the whole of p's unstable manifold that a line can leave by.
    Precondition |q| - |p| = 1; other gaps return parity None with an
    explanatory note (the moduli space is not 0-dimensional there), as a
    target no higher than p does, before the source's scan is read.
    Raises AmbiguousCountError when a seed timed out or when the scan
    shows an unresolved wall (see `_refuse_walls`).  The wall floor and
    the representatives read the stop rule the scan ran under.  Each
    cluster's representative is its seed's trajectory as the scan kept it
    (see `sphere_scan`); a seed of the numpy batch, which keeps no
    samples, is integrated again on first read.
    """
    p, field, tol = source.p, source.field, source.tol
    if q.grading - p.grading != 1:
        return LineCount(None, 0, "dimension != 0, count undefined at this grading")
    if q.value <= p.value:
        return LineCount(0, 0, "target value does not exceed source value")
    scan, chart = source.scan
    mlen = len(scan.dirs)
    n_timeout = sum(1 for o in scan.outcomes if o[0] == "timeout")
    if n_timeout > 0:
        raise AmbiguousCountError(
            "%d of %d seeds neither converged nor escaped: suspected "
            "non-transverse configuration; perturb family or lower tolerances"
            % (n_timeout, mlen))
    is_q = [o == ("converged", q.id) for o in scan.outcomes]
    neighbors = _seed_neighbors(scan.dirs)
    # for k = 1 the two seeds are the whole coupled unstable manifold: no
    # direction lies between them to be missed
    if chart.k >= 2:
        _refuse_walls(scan, q, is_q, neighbors, _wall_floor(chart, scan.stops))
    comps = _capture_clusters(is_q, neighbors)

    def representatives():
        seeds = [_representative(c, mlen, chart.k) for c in comps]
        if scan.trajectories is not None:
            return [scan.trajectories[i] for i in seeds]
        return [integrate(field, chart_start(chart, scan.dirs[i]), stops=scan.stops,
                          tolerances=tol) for i in seeds]
    return LineCount(len(comps) % 2, len(comps), representatives=representatives)


def _seed_neighbors(dirs):
    """Neighbor lists of the scan seeds: none for k <= 1, the cyclic pairs
    (i, i+1 mod m) on the circle, the pairs within 2.2 median
    nearest-neighbor spacings for k >= 3."""
    mlen, k = dirs.shape
    neighbors = [[] for _ in range(mlen)]
    if k <= 1:
        return neighbors
    if k == 2:
        pairs = [(i, (i + 1) % mlen) for i in range(mlen)]
    else:
        pairs = pairs_within(dirs, 2.2 * np.median(nearest_distances(dirs)))
    for a, b in pairs:
        neighbors[a].append(b)
        neighbors[b].append(a)
    return neighbors


def _capture_clusters(is_q, neighbors):
    """Components of the seeds that q captured on the neighbor graph, each
    as its ascending list of seed indices."""
    pairs = [(a, b) for a, hit in enumerate(is_q) if hit
             for b in neighbors[a] if is_q[b]]
    return [c for c in components(len(is_q), pairs) if is_q[c[0]]]


def _representative(members, mlen, k):
    """The middle seed of a run on the circle (the first seed when the run
    is the whole circle), the lowest-index seed otherwise."""
    if k != 2 or len(members) == mlen:
        return members[0]
    inside = set(members)
    start = next(i for i in members if (i - 1) % mlen not in inside)
    return (start + (len(members) - 1) // 2) % mlen


def _refuse_walls(scan, q, is_q, neighbors, floor):
    """A target of positive coindex captures only a measure-zero set of
    directions, which a scan sees as a wall: a seed that q did not capture,
    next to no captured seed, whose approach to q is below the wall floor
    and no larger than any neighbor's.  Such a line is not counted, so the
    count is refused."""
    d = scan.approach[:, scan.approach_ids.index(q.id)]
    for i, nbrs in enumerate(neighbors):
        if is_q[i] or d[i] >= floor or any(is_q[j] for j in nbrs):
            continue
        if all(d[i] <= d[j] for j in nbrs):
            raise AmbiguousCountError(
                "seed u=%s passes %s at distance %.3g (wall floor %.3g) "
                "without capture: a flow line the scan cannot resolve; "
                "raise the scan density or r_conv"
                % ([round(float(v), 6) for v in scan.dirs[i]], q.id, d[i], floor))


def _wall_floor(chart, stops):
    """Approach distances below this are candidate walls: a third of the
    least separation between tracked critical values' locations (falling
    back to a fixed fraction of the chart scale)."""
    pts = [c.coords for c in stops.criticals] + [chart.point.coords]
    best = math.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = min(best, float(np.linalg.norm(np.asarray(pts[i]) - np.asarray(pts[j]))))
    if not math.isfinite(best):
        return 0.3
    return max(0.05, min(1.0, best / 3.0))
