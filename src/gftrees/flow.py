"""Positive gradient flow: integration, invariant-manifold charts, and
counting isolated connecting trajectories.

The ODE is z' = +grad(field) (or - for backward time), integrated with an
adaptive Dormand-Prince 4(5) pair.  A trajectory stops when it enters the
r_conv-ball of a known critical point with a matching value window, when it
leaves the escape box, or at a time cap.  A terminal-mode path that is
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
sum left to right.  Below SCALAR_ROWS active rows a `grad_vec` call
costs more than the scalar grads of its rows, so the batch hands its last
few rows to the scalar loop, which resumes each from its step state; a
batch that starts that small, like the two seeds of a k = 1 scan, runs on
the scalar loop throughout.  The seeds that q captured form clusters on the seed
neighbor graph (single seeds for k = 1, runs on the circle, components
of the pairs within a few seed spacings for k >= 3), and each cluster is
one line.  A target of positive coindex captures only a measure-zero set
of directions; a scan that passes close to q without capture shows such
a line as a wall it cannot resolve, and the count is refused with
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
    criticals: list
    escape_box: list | None
    t_max: float
    r_conv: float
    value_window: float


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
# so every row rounds the same.

def _row_sum(X):
    """Sum of each row's columns, left to right from 0 as `_sum` adds."""
    total = np.zeros(X.shape[0])
    for i in range(X.shape[1]):
        total = total + X[:, i]
    return total


def _dist_rows(Z, c, periodic):
    d = Z - c
    if periodic:
        d = d - np.round(d)
    return np.sqrt(_row_sum(d * d))


def _segment_dist_rows(Z0, Z1, c, periodic):
    if periodic:
        c = c + np.round(Z0 - c)
    vx = Z1 - Z0
    wx = c - Z0
    vv = _row_sum(vx * vx)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.maximum(0.0, np.minimum(1.0, _row_sum(vx * wx) / vv))
    r = wx - s[:, None] * vx
    d = np.sqrt(_row_sum(r * r))
    flat = vv == 0.0
    if flat.any():
        d[flat] = np.sqrt(_row_sum(wx[flat] * wx[flat]))
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
    D = len(z0)
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
            raise StiffnessError("state blew up at t=%.6g near %s"
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


def _inspector(field, stops, approach):
    """The event rules of one trajectory, for `_integrate_core`: escape
    faces first, in coordinate order with - before +; then the tracked
    points in list order, lowering `approach` (critical id -> closest
    distance so far) and testing capture and the segment jump."""
    tracked = stops.criticals
    r_conv = stops.r_conv
    vwin = stops.value_window
    esc = stops.escape_box
    periodic = field.periodic

    def inspector(z0, z1, h):
        if esc is not None:
            for i, (lo, hi) in enumerate(esc):
                if z1[i] < lo:
                    return ("stop", Termination("escaped", "-z%d" % i))
                if z1[i] > hi:
                    return ("stop", Termination("escaped", "+z%d" % i))
        for c in tracked:
            d1 = _dist(z1, c.coords, periodic)
            if d1 < approach[c.id]:
                approach[c.id] = d1
            if d1 < r_conv:
                if abs(field.value(z1) - c.value) < vwin:
                    return ("stop", Termination("converged", c.id))
                continue
            d0 = _dist(z0, c.coords, periodic)
            if d0 > r_conv:
                ds = _segment_dist(z0, z1, c.coords, periodic)
                if ds < approach[c.id]:
                    approach[c.id] = ds
                if ds < r_conv:
                    # the step would jump across the convergence ball
                    return ("reject", 0.25)
        return None
    return inspector


def integrate(field, start, direction="forward", stops=None, tolerances=None,
              terminal_t=None, record_samples=True, resume=None):
    """Integrate z' = +-grad(field) from `start`.

    Event mode (stops given): run until capture at a critical point, exit
    from the escape box, or stops.t_max.  Terminal mode (terminal_t given):
    run for exactly that much time.  In terminal mode without samples,
    `resume` is the StepLog of one (field, start, direction, tolerances)
    path, which grows between calls: a later call at any time resumes
    from the log instead of from t = 0 (see `_integrate_core`).
    """
    # on numpy float64 scalars the scalar loop takes about twice as long
    start = [float(v) for v in start]
    tol = dict(FLOW_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    sign = +1.0 if direction == "forward" else -1.0
    g = field.grad
    if sign > 0:
        f = g
    else:
        f = lambda z: [-v for v in g(z)]
    record = [] if record_samples else None
    periodic = field.periodic

    if resume is not None and (terminal_t is None or record_samples):
        raise ValueError("resume needs terminal mode without samples")
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
        f, start, stops.t_max, tol["rtol"], tol["atol"], tol["h0"],
        tol["h_max"], inspector=_inspector(field, stops, approach), record=record,
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
    only the active rows.  The event inspector runs the scalar rules row by
    row: escape faces first, in coordinate order with - before +; then the
    tracked points in list order, updating the approach and testing capture
    and the segment jump.  A row's first stop or reject ends its pass over
    the tracked points.  Once fewer than SCALAR_ROWS rows are active, each
    of them resumes the scalar loop from its loop-top state (t, z, k1, h),
    the `start` of `_integrate_core`, with its approach so far and no step
    log; a batch of fewer rows runs each through `integrate` from its
    start and never calls `grad_vec`.  Distances and the error norm square
    with x * x and sum left to right, as the scalar loop does, and the
    step-growth rule `err ** -0.2` runs on Python floats.  Every row
    therefore takes the steps of `integrate(field, row, stops=stops)` and
    ends with its Termination, t, final point and approach, bit for bit.
    Returns one Trajectory per row, without samples.
    """
    if len(starts) < SCALAR_ROWS:
        return [integrate(field, s, stops=stops, tolerances=tolerances,
                          record_samples=False) for s in starts]
    tol = dict(FLOW_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    rtol, atol, h_max = tol["rtol"], tol["atol"], tol["h_max"]
    f = field.grad_vec
    periodic = field.periodic
    tracked = stops.criticals
    centers = [np.asarray(c.coords, dtype=float) for c in tracked]
    esc = stops.escape_box
    t_cap, r_conv, vwin = stops.t_max, stops.r_conv, stops.value_window
    limit = t_cap * (1.0 - 1e-15)

    Z = np.array(starts, dtype=float)
    B, D = Z.shape
    A = np.empty((B, len(tracked)))
    for j, c in enumerate(centers):
        A[:, j] = _dist_rows(Z, c, periodic)
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
        h = H[:, None]
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
        # `err ** -0.2` stays a Python float: numpy's power need not match libm
        grown = np.array([max(0.2, 0.9 * e ** -0.2) if e > 1.0
                          else 5.0 if e < 1e-10 else min(5.0, 0.9 * e ** -0.2)
                          for e in err.tolist()])

        # the event inspector, on the rows whose step met the tolerance
        idx = np.flatnonzero(ok)
        z0, z1 = Z[idx], Z1[idx]
        pending = np.ones(idx.size, dtype=bool)
        hits = {}
        reject = np.zeros(idx.size, dtype=bool)
        if esc is not None:
            for i, (lo, hi) in enumerate(esc):
                for out, face in ((z1[:, i] < lo, "-z%d" % i), (z1[:, i] > hi, "+z%d" % i)):
                    out &= pending
                    for r in np.flatnonzero(out).tolist():
                        hits[r] = Termination("escaped", face)
                    pending &= ~out
        a = A[idx]
        for j, (c, center) in enumerate(zip(tracked, centers)):
            p = np.flatnonzero(pending)
            if not p.size:
                break
            d1 = _dist_rows(z1[p], center, periodic)
            a[p, j] = np.minimum(a[p, j], d1)
            near = d1 < r_conv
            for r in p[near].tolist():
                if abs(field.value(z1[r].tolist()) - c.value) < vwin:
                    hits[r] = Termination("converged", c.id)
                    pending[r] = False
            p = p[~near]
            p = p[_dist_rows(z0[p], center, periodic) > r_conv]
            ds = _segment_dist_rows(z0[p], z1[p], center, periodic)
            a[p, j] = np.minimum(a[p, j], ds)
            # the step would jump across the convergence ball
            jump = p[ds < r_conv]
            reject[jump] = True
            pending[jump] = False
        A[idx] = a
        grown[idx[reject]] = 0.25

        accept = ok.copy()
        accept[idx[reject]] = False
        T[accept] += H[accept]
        Z[accept] = np.remainder(Z1[accept], 1.0) if periodic else Z1[accept]
        K1[accept] = K7[accept]
        H = H * grown
        stopped = {int(idx[r]): term for r, term in hits.items()}

    ids = [c.id for c in tracked]
    for r, b in enumerate(rows.tolist()):
        approach = dict(zip(ids, A[r].tolist()))
        z = Z[r].tolist()
        reason, t, z, payload = _integrate_core(
            field.grad, z, t_cap, rtol, atol, tol["h0"], h_max,
            inspector=_inspector(field, stops, approach), periodic=periodic,
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


def build_chart(field, p, side, r0=1e-3, pins=()):
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
    start = _seed_start(chart, np.asarray(u, dtype=float))
    if t == 0.0:
        return start
    direction = "forward" if chart.side == "unstable" else "backward"
    traj = integrate(chart.field, start, direction, terminal_t=t,
                     tolerances=tolerances, record_samples=False, resume=resume)
    return traj.final


# ---------------------------------------------------------------------------
# Sphere scans and line counting

@dataclass
class LineCount:
    """A mod-2 line count.  Its `trajectories`, one recorded representative
    per cluster, are launched by `representatives` on first read and kept."""
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
    def __init__(self, dirs, outcomes, approach_ids, approach):
        self.dirs = dirs              # (m, k)
        self.outcomes = outcomes      # list of (kind, target)
        self.approach_ids = approach_ids
        self.approach = approach      # (m, len(ids))


def _flow_stops(field, criticals, source_value, tol):
    tracked = [c for c in criticals if c.value > source_value + 1e-12]
    esc = None
    if not field.periodic:
        if field.outer_box is None:
            raise ValueError("field carries no outer box for the escape test")
        esc = escape_box(field.outer_box)
    return Stops(tracked, esc, tol["t_max"], tol["r_conv"], tol["value_window"])


def _seed_start(chart, u):
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


def sphere_scan(field, p, criticals, r0=1e-3, m=None, tolerances=None):
    """Integrate from a dense sample of the coupled sub-sphere of p's
    unstable sphere, the part orthogonal to the field's `pinned_slots`;
    record each seed's outcome and its closest approach to every higher
    critical point.  Returns (scan, chart)."""
    tol = {**FLOW_TOLERANCES, **(tolerances or {})}
    chart = build_chart(field, p, "unstable", r0, pins=pinned_slots(field))
    k = chart.k
    if m is None:
        m = {1: 2, 2: 512}.get(k, 800)
    stops = _flow_stops(field, criticals, p.value, tol)
    ids = [c.id for c in stops.criticals]
    dirs = sphere_dirs(k, m, 12345)
    logger.info("scan %s from %s: k = %d, pins %s, %d seeds",
                field.tag, p.id, k, list(chart.pins), len(dirs))
    trajs = integrate_batch(field, [_seed_start(chart, u) for u in dirs], stops, tol)
    outcomes = [traj.termination.as_tuple() for traj in trajs]
    approach = np.array([[traj.approach[i] for i in ids] for traj in trajs])
    return _Scan(dirs, outcomes, ids, approach.reshape(len(dirs), len(ids))), chart


class LineSource:
    """The line counts from one critical point p of `field`: every target
    reads p's one sphere scan, made on first need."""

    def __init__(self, field, p, criticals, r0=1e-3, m=None, tolerances=None):
        self.field, self.p, self.criticals = field, p, criticals
        self.r0, self.m = r0, m
        self.tol = {**FLOW_TOLERANCES, **(tolerances or {})}

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
    target no higher than p does, before the source's scan is read.  Raises AmbiguousCountError when a seed timed out or when the scan
    shows an unresolved wall (see `_refuse_walls`).
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
    stops = _flow_stops(field, source.criticals, p.value, tol)
    is_q = [o == ("converged", q.id) for o in scan.outcomes]
    neighbors = _seed_neighbors(scan.dirs)
    # for k = 1 the two seeds are the whole coupled unstable manifold: no
    # direction lies between them to be missed
    if chart.k >= 2:
        _refuse_walls(scan, q, is_q, neighbors, _wall_floor(chart, stops))
    comps = _capture_clusters(is_q, neighbors)

    def representatives():
        seeds = [scan.dirs[_representative(c, mlen, chart.k)] for c in comps]
        return [integrate(field, _seed_start(chart, u), stops=stops, tolerances=tol)
                for u in seeds]
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
