"""Positive gradient flow: integration, invariant-manifold charts, and
counting isolated connecting trajectories.

The ODE is z' = +grad(field) (or - for backward time), integrated with an
adaptive Dormand-Prince 4(5) pair.  A trajectory stops when it enters the
r_conv-ball of a known critical point with a matching value window, when it
leaves the escape box, or at a time cap.

Counting M(p, q) works on the unit sphere of p's unstable frame.  Targets
of coindex 0 are sinks and capture open arcs of seeds, so counting clusters
of converged seeds is enough.  Targets of positive coindex are only hit by
a measure-zero set of seeds; those connections show up as sharp local
minima of the closest-approach distance to q as a function of the seed
direction, and are pinned down by one-dimensional (or spherical)
minimization until the trajectory actually enters the convergence ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy.spatial import cKDTree

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
    chart: dict | None = None
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


def _dist(z, c, periodic):
    if periodic:
        return math.sqrt(sum(_periodic_delta(z[i], c[i]) ** 2 for i in range(len(c))))
    return math.sqrt(sum((z[i] - c[i]) ** 2 for i in range(len(c))))


def _segment_dist(z0, z1, c, periodic):
    """Distance from point c to segment [z0, z1] (nearest periodic image)."""
    D = len(c)
    if periodic:
        # move c to the image nearest z0
        c = [c[i] + round(z0[i] - c[i]) for i in range(D)]
    vx = [z1[i] - z0[i] for i in range(D)]
    wx = [c[i] - z0[i] for i in range(D)]
    vv = sum(v * v for v in vx)
    if vv == 0.0:
        return math.sqrt(sum(w * w for w in wx))
    s = max(0.0, min(1.0, sum(vx[i] * wx[i] for i in range(D)) / vv))
    return math.sqrt(sum((wx[i] - s * vx[i]) ** 2 for i in range(D)))


def _integrate_core(f, z0, t_cap, rtol, atol, h0, h_max,
                    inspector=None, record=None, periodic=False, keep=None):
    """Returns (reason, t, z, payload) with reason "cap" | "stop".

    `keep`, a list holding at most one loop state (cap, t, z, k1, h), lets
    a later run from the same start resume instead of starting at t = 0.
    The kept state is the last loop top before the time cap first shortened
    a step (or the final state when it never did).  Every step before it is
    the same for any larger cap, so a run resumed from it to a cap >= the
    kept cap is bit-identical to a fresh run; smaller caps run fresh.  The
    run then overwrites `keep` with its own state.
    """
    D = len(z0)
    if keep and keep[0][0] <= t_cap:
        _, t, z, k1, h = keep[0]
    else:
        z = list(z0)
        t = 0.0
        if record is not None:
            record.append((0.0, tuple(z)))
        k1 = f(z)
        # the loop clamps to t_cap, so a kept t = 0 state carries no cap
        h = min(h0, h_max)
    updating = keep is not None
    while t < t_cap * (1.0 - 1e-15):
        if updating:
            keep[:] = [(t_cap, t, z, k1, h)]
            # retries of a cap-shortened step are specific to this cap
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
            errsq += (e / sc) ** 2
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
        keep[:] = [(t_cap, t, z, k1, h)]
    return ("cap", t, z, None)


def integrate(field, start, direction="forward", stops=None, tolerances=None,
              terminal_t=None, record_samples=True, chart_info=None,
              resume=None):
    """Integrate z' = +-grad(field) from `start`.

    Event mode (stops given): run until capture at a critical point, exit
    from the escape box, or stops.t_max.  Terminal mode (terminal_t given):
    run for exactly that much time.  In terminal mode without samples,
    `resume` is a list owned by one (field, start, direction, tolerances)
    path: it keeps one step state between calls, so a later call with a
    time at least as large continues from it (see `_integrate_core`).
    """
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
            f, list(start), terminal_t, tol["rtol"], tol["atol"], tol["h0"],
            tol["h_max"], record=record, periodic=periodic, keep=resume)
        return Trajectory(field.tag, record or [], Termination("time"),
                          t, np.array(z), chart=chart_info)

    if stops is None:
        raise ValueError("need either a stop rule or terminal_t")
    tracked = stops.criticals
    r_conv = stops.r_conv
    vwin = stops.value_window
    approach = {c.id: _dist(list(start), c.coords, periodic) for c in tracked}
    esc = stops.escape_box

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

    reason, t, z, payload = _integrate_core(
        f, list(start), stops.t_max, tol["rtol"], tol["atol"], tol["h0"],
        tol["h_max"], inspector=inspector, record=record, periodic=periodic)
    term = payload if reason == "stop" else Termination("timeout")
    return Trajectory(field.tag, record or [], term, t, np.array(z),
                      chart=chart_info, approach=approach)


# ---------------------------------------------------------------------------
# Invariant-manifold charts

@dataclass
class ManifoldChart:
    point: object             # CriticalPoint
    side: str                 # "unstable" | "stable"
    r0: float
    frame: np.ndarray         # (D, k) orthonormal columns
    rates: np.ndarray         # eigenvalues along the frame
    field: object

    @property
    def k(self):
        return self.frame.shape[1]


def build_chart(field, p, side, r0=1e-3):
    """Eigenframe chart of W^-(p) (unstable, coindex directions) or
    W^+(p) (stable, index directions) for the positive gradient flow."""
    H = field.hess([float(v) for v in p.coords])
    eigvals, eigvecs = np.linalg.eigh(H)
    sel = eigvals > 0 if side == "unstable" else eigvals < 0
    frame = eigvecs[:, sel]
    rates = eigvals[sel]
    # deterministic sign convention
    for j in range(frame.shape[1]):
        m = np.argmax(np.abs(frame[:, j]))
        if frame[m, j] < 0:
            frame[:, j] = -frame[:, j]
    want = p.coindex if side == "unstable" else p.morse_index
    if frame.shape[1] != want:
        raise RuntimeError("chart frame dimension %d disagrees with %s count %d at %s"
                           % (frame.shape[1], side, want, p.id))
    return ManifoldChart(p, side, float(r0), frame, rates, field)


def chart_point(chart, u, t, tolerances=None, resume=None):
    """Flow image of p + r0*u: forward time t on the unstable side,
    backward on the stable side.  t = 0 returns p + r0*u exactly.
    `resume` is the step-state slot of `integrate`, one per (chart, u)."""
    if t < 0:
        raise ValueError("chart time must be >= 0")
    u = np.asarray(u, dtype=float)
    start = chart.point.coords + chart.r0 * (chart.frame @ u)
    if t == 0.0:
        return np.array(start)
    direction = "forward" if chart.side == "unstable" else "backward"
    traj = integrate(chart.field, list(start), direction, terminal_t=t,
                     tolerances=tolerances, record_samples=False, resume=resume)
    return traj.final


# ---------------------------------------------------------------------------
# Sphere scans and line counting

@dataclass
class LineCount:
    parity: int | None
    clusters: int
    trajectories: list
    note: str = ""


def _sphere_dirs(k, m):
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    # Fibonacci lattice on S^{k-1} for k = 3; crude product for k > 3
    if k == 3:
        i = np.arange(m) + 0.5
        phi = math.pi * (1.0 + math.sqrt(5.0)) * i
        cz = 1.0 - 2.0 * i / m
        sz = np.sqrt(np.maximum(0.0, 1.0 - cz ** 2))
        return np.column_stack([sz * np.cos(phi), sz * np.sin(phi), cz])
    rng = np.random.default_rng(12345)
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


def _point_key(c):
    return (c.id, float(c.value), np.asarray(c.coords, dtype=float).tobytes())


def _launch(field, chart, u, stops, tol, record=False):
    start = chart.point.coords + chart.r0 * (chart.frame @ np.asarray(u))
    return integrate(field, list(start), "forward", stops=stops,
                     tolerances=tol, record_samples=record,
                     chart_info={"critical": chart.point.id, "u": list(map(float, u)),
                                 "r0": chart.r0, "side": chart.side})


def sphere_scan(field, p, criticals, r0=1e-3, m=None, tolerances=None):
    """Integrate from a dense sample of p's unstable sphere; record each
    seed's outcome and its closest approach to every higher critical point.
    Cached on the field object, keyed by every input that shapes a scan:
    the source point, r0, m, the flow tolerances and the tracked points."""
    tol = dict(FLOW_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    chart = build_chart(field, p, "unstable", r0)
    k = chart.k
    if m is None:
        m = {1: 2, 2: 512}.get(k, 800)
    stops = _flow_stops(field, criticals, p.value, tol)
    key = (_point_key(p), r0, m, tuple(tol[name] for name in FLOW_TOLERANCES),
           tuple(_point_key(c) for c in stops.criticals))
    cache = getattr(field, "_scan_cache", None)
    if cache is None:
        cache = field._scan_cache = {}
    if key in cache:
        return cache[key], chart
    ids = [c.id for c in stops.criticals]
    dirs = _sphere_dirs(k, m)
    outcomes = []
    approach = np.empty((len(dirs), len(ids)))
    for s, u in enumerate(dirs):
        traj = _launch(field, chart, u, stops, tol)
        outcomes.append(traj.termination.as_tuple())
        approach[s] = [traj.approach[i] for i in ids]
    scan = _Scan(dirs, outcomes, ids, approach)
    cache[key] = scan
    return scan, chart


def _golden_refine(fn, a, b, iters=48):
    """Golden-section minimization of fn on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (c, fc) if fc < fd else (d, fd)


def count_lines(p, q, field, criticals, r0=1e-3, m=None, tolerances=None):
    """#_{Z2} of isolated flow lines p -> q, with representatives.

    Precondition |q| - |p| = 1; other gaps return parity None with an
    explanatory note (the moduli space is not 0-dimensional there).
    """
    if q.grading - p.grading != 1:
        return LineCount(None, 0, [], "dimension != 0, count undefined at this grading")
    if q.value <= p.value:
        return LineCount(0, 0, [], "target value does not exceed source value")
    tol = dict(FLOW_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    scan, chart = sphere_scan(field, p, criticals, r0=r0, m=m, tolerances=tolerances)
    mlen = len(scan.dirs)
    n_timeout = sum(1 for o in scan.outcomes if o[0] == "timeout")
    if n_timeout > 0:
        raise AmbiguousCountError(
            "%d of %d seeds neither converged nor escaped: suspected "
            "non-transverse configuration; perturb family or lower tolerances"
            % (n_timeout, mlen))
    stops = _flow_stops(field, criticals, p.value, tol)
    qcol = scan.approach_ids.index(q.id)
    is_q = [o == ("converged", q.id) for o in scan.outcomes]

    reps = []
    clusters = 0
    if chart.k == 1:
        for s in range(mlen):
            if is_q[s]:
                clusters += 1
                reps.append(_launch(field, chart, scan.dirs[s], stops, tol, record=True))
    elif chart.k == 2:
        clusters, reps = _count_on_circle(field, chart, scan, stops, tol,
                                          q, qcol, is_q, mlen)
    else:
        clusters, reps = _count_on_sphere(field, chart, scan, stops, tol,
                                          q, qcol, is_q)
    return LineCount(clusters % 2, clusters, reps)


def _count_on_circle(field, chart, scan, stops, tol, q, qcol, is_q, mlen):
    """Clusters on S^1: maximal runs of converged seeds, plus zero-width
    walls refined from local minima of the approach distance."""
    def launch_angle(th, record=False):
        return _launch(field, chart, [math.cos(th), math.sin(th)], stops, tol, record)

    def dq(th):
        traj = launch_angle(th)
        return traj.approach[q.id]

    step = 2.0 * math.pi / mlen
    clusters = 0
    reps = []
    if all(is_q):
        clusters = 1
        reps.append(launch_angle(0.0, record=True))
    elif any(is_q):
        # rotate so index 0 is not converged-to-q, then runs never wrap
        off = next(i for i in range(mlen) if not is_q[i])
        rot = [is_q[(off + s) % mlen] for s in range(mlen)]
        run_start = None
        for s in range(mlen + 1):
            flag = rot[s] if s < mlen else False
            if flag and run_start is None:
                run_start = s
            elif not flag and run_start is not None:
                clusters += 1
                mid = (off + 0.5 * (run_start + s - 1)) * step
                reps.append(launch_angle(mid, record=True))
                run_start = None
    # walls: sharp approach minima strictly inside non-q territory
    d = scan.approach[:, qcol]
    floor = _wall_floor(chart, stops)
    for i in range(mlen):
        if is_q[i] or is_q[(i - 1) % mlen] or is_q[(i + 1) % mlen]:
            continue
        if d[i] <= d[(i - 1) % mlen] and d[i] < d[(i + 1) % mlen] and d[i] < floor:
            a = (i - 1) * step
            b = (i + 1) * step
            th, dmin = _golden_refine(dq, a, b)
            if dmin < stops.r_conv:
                traj = launch_angle(th, record=True)
                if traj.termination.as_tuple() == ("converged", q.id):
                    clusters += 1
                    reps.append(traj)
    return clusters, reps


def _count_on_sphere(field, chart, scan, stops, tol, q, qcol, is_q):
    """Clusters on S^{k-1}, k >= 3: components of converged seeds on the
    neighbor graph, plus refined approach minima."""
    from scipy.optimize import minimize

    dirs = scan.dirs
    mlen = len(dirs)
    tree = cKDTree(dirs)
    spacing = 2.2 * np.median(tree.query(dirs, k=2)[0][:, 1])
    pairs = tree.query_pairs(spacing)
    parent = list(range(mlen))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        if is_q[a] and is_q[b]:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    comp = sorted({find(i) for i in range(mlen) if is_q[i]})
    clusters = len(comp)
    reps = [_launch(field, chart, dirs[c], stops, tol, record=True) for c in comp]

    neighbors = [[] for _ in range(mlen)]
    for a, b in pairs:
        neighbors[a].append(b)
        neighbors[b].append(a)
    d = scan.approach[:, qcol]
    floor = _wall_floor(chart, stops)
    q_adjacent = set()
    for i in range(mlen):
        if is_q[i]:
            q_adjacent.add(i)
            q_adjacent.update(neighbors[i])
    found = []
    for i in range(mlen):
        if i in q_adjacent or d[i] >= floor:
            continue
        if any(d[j] < d[i] for j in neighbors[i]):
            continue
        u0 = dirs[i]
        # tangent chart at u0
        basis = np.linalg.svd(np.eye(chart.k) - np.outer(u0, u0))[0][:, :chart.k - 1]

        def dq_chart(xi):
            u = u0 + basis @ xi
            u = u / np.linalg.norm(u)
            return _launch(field, chart, u, stops, tol).approach[q.id]

        res = minimize(dq_chart, np.zeros(chart.k - 1), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
        if res.fun < stops.r_conv:
            u = u0 + basis @ res.x
            u = u / np.linalg.norm(u)
            if any(float(np.dot(u, v)) > 1.0 - 1e-8 for v in found):
                continue
            traj = _launch(field, chart, u, stops, tol, record=True)
            if traj.termination.as_tuple() == ("converged", q.id):
                found.append(u)
                clusters += 1
                reps.append(traj)
    return clusters, reps


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
