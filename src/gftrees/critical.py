"""Critical points of difference fields: Reeb chords, gradings, rho.

Chords of the Legendrian correspond to critical points of w with positive
critical value; the value-0 set {e = e'} is a degenerate submanifold and is
excluded by a value filter rather than classified.  Root finding is grid +
batched Newton over the field's inner box; completeness is heuristic: a
test checks that doubling the grid changes nothing, and the cutoff shell
is only sampled on a 7-point grid (`family.blend_annulus_floor`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pairs import components, pairs_within

TOLERANCES = {
    "tol_grad": 1e-9,
    "tol_dedup": 1e-6,
    "tol_degenerate": 1e-6,
    "tol_value": 1e-7,
}

GRID_DENSITY = 7        # root-search seeds per axis (`seeds.grid_density`)
NEWTON_ITERS = 60       # batched Newton steps of the root search, at most
BOUND_GRID = 4          # grid points per axis of the gradient-bound sample
BOUND_SAMPLES = 20000   # uniform draws of the gradient-bound sample


class DegenerateRootError(RuntimeError):
    """An off-diagonal root with a (near-)singular Hessian: the family is
    not generic enough for Morse-theoretic counting."""


class NoChordsError(RuntimeError):
    pass


@dataclass
class CriticalPoint:
    coords: np.ndarray
    value: float
    morse_index: int
    grading: int
    hess_eigs: np.ndarray
    id: str = ""

    @property
    def dim(self):
        return len(self.coords)

    @property
    def coindex(self):
        return self.dim - self.morse_index

    def as_dict(self):
        return {
            "id": self.id,
            "coords": [round(float(c), 12) for c in self.coords],
            "value": round(float(self.value), 12),
            "index": self.morse_index,
            "grading": self.grading,
            "hess_eigs": [round(float(h), 9) for h in self.hess_eigs],
        }


@dataclass
class RhoBound:
    rho: float
    lipschitz_L: float
    delta_pert: float

    def as_dict(self):
        return {"rho": self.rho, "lipschitz_L": self.lipschitz_L,
                "delta_pert": self.delta_pert}


# ---------------------------------------------------------------------------
# Root finding

def _seed_grid(field, box, density):
    """Grid seeds; decoupled quadratic coordinates only ever vanish at a
    critical point, so they get the single seed 0 (Newton keeps them there
    exactly)."""
    quad = set(field.quad_indices)
    axes = []
    for i, (lo, hi) in enumerate(box):
        if i in quad:
            axes.append(np.array([0.0]))
        elif field.periodic:
            axes.append(np.linspace(lo, hi, density, endpoint=False))
        else:
            axes.append(np.linspace(lo, hi, density))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _newton_polish(field, Z, box, tol_grad=1e-9):
    """Batched Newton on grad(field) = 0.  Returns converged points.

    An iteration is a pure function of the whole batch Z, so once a full
    step (after the periodic wrap and the row filter) returns Z with the
    same bits, every later iteration would return it too: the loop stops
    there with the result of all NEWTON_ITERS iterations.  Bits, not `==`,
    decide, since -0.0 == 0.0.  A batch with a row that cycles or never
    settles runs every iteration.
    """
    Z = np.array(Z, dtype=float)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    span = np.max(hi - lo)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for _ in range(NEWTON_ITERS):
        if len(Z) == 0:
            break
        G = field.grad_vec(Z)
        H = field.hess_vec(Z)
        step = _solve_rows(H, G)
        norms = np.linalg.norm(step, axis=1)
        big = norms > 0.25 * span
        step[big] *= (0.25 * span / norms[big])[:, None]
        Z1 = Z - step
        if field.periodic:
            Z1 = _wrap_unit(Z1)
        ok = np.all(np.isfinite(Z1), axis=1)
        ok &= np.all(np.abs(Z1 - mid) < 3.0 * half + 1.0, axis=1)
        Z1 = Z1[ok]
        # equal bytes means equal rows too: every row has dim coordinates
        if Z1.tobytes() == Z.tobytes():
            break
        Z = Z1
    if len(Z) == 0:
        return Z
    G = field.grad_vec(Z)
    good = np.linalg.norm(G, axis=1) < tol_grad
    inside = np.all((Z >= lo - 1e-6) & (Z <= hi + 1e-6), axis=1) | field.periodic
    return Z[good & inside]


def _solve_rows(H, G):
    """H[b]^-1 G[b] for every row; a singular row gets NaN.  gesv fails on
    a row exactly when its LU factorization meets a zero pivot, which is
    when slogdet's sign is 0, so a batch that fails is solved again
    without those rows in one call, and every other row keeps its gesv
    result."""
    try:
        return np.linalg.solve(H, G[..., None])[..., 0]
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(H)[0] != 0.0
        step = np.full_like(G, np.nan)
        step[ok] = np.linalg.solve(H[ok], G[ok][..., None])[..., 0]
        return step


def _wrap_unit(Z):
    """Z mod 1 in [0, 1): np.mod(-1e-17, 1.0) rounds up to 1.0."""
    Z = np.mod(Z, 1.0)
    Z[Z >= 1.0] = 0.0
    return Z


def _cluster_mean(P, periodic):
    """Mean of one cluster; on the torus, coordinates whose members straddle
    the 0/1 seam are unrolled first (other clusters keep the plain mean)."""
    if periodic:
        seam = P.max(axis=0) - P.min(axis=0) > 0.5
        if seam.any():
            P = P.copy()
            P[:, seam] += P[:, seam] < 0.5
            return _wrap_unit(P.mean(axis=0))
    return P.mean(axis=0)


def _dedup(points, tol, periodic):
    if len(points) == 0:
        return points
    pts = _wrap_unit(points) if periodic else points
    comps = components(len(pts), pairs_within(pts, tol, periodic))
    return np.array([_cluster_mean(pts[idx], periodic) for idx in comps])


def find_critical_points(field, grid_density=GRID_DENSITY, tolerances=None,
                         exclude_zero_value=True):
    """All isolated nondegenerate critical points of `field` in its inner box.

    Roots with |value| < tol_value are treated as part of the degenerate
    {e = e'} submanifold and dropped (disable with exclude_zero_value=False
    for Morse mode).  Any surviving root with a Hessian eigenvalue of
    magnitude <= tol_degenerate is a hard error.  Result is sorted by
    value, then lexicographically, and labelled c0, c1, ...
    """
    tol = dict(TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    box = field.inner_box
    if box is None:
        raise ValueError("field carries no box to search")
    seeds = _seed_grid(field, box, grid_density)
    roots = _newton_polish(field, seeds, box, tol_grad=tol["tol_grad"])
    roots = _dedup(roots, tol["tol_dedup"], field.periodic)
    out = []
    for z in roots:
        zf = [float(c) for c in z]
        # a cluster that merged distinct roots returns their mean, no root
        g = float(np.linalg.norm(field.grad(zf)))
        if g >= tol["tol_grad"]:
            raise RuntimeError(
                "deduplicated critical point %r has |grad| %.3g >= tol_grad %.3g: "
                "its cluster merged distinct roots (lower tol_dedup)"
                % (zf, g, tol["tol_grad"]))
        v = field.value(zf)
        if exclude_zero_value and abs(v) < tol["tol_value"]:
            continue
        eigs = np.linalg.eigvalsh(field.hess(zf))
        if np.min(np.abs(eigs)) <= tol["tol_degenerate"]:
            raise DegenerateRootError(
                "near-degenerate critical point at %r (value %.6g, |eig|min %.3g): "
                "family is not generic here" % (zf, v, float(np.min(np.abs(eigs)))))
        index = int(np.sum(eigs < 0))
        out.append(CriticalPoint(np.array(zf), float(v), index,
                                 index - field.shift, eigs))
    out.sort(key=lambda p: (round(p.value, 9),) + tuple(np.round(p.coords, 9)))
    for i, p in enumerate(out):
        p.id = "c%d" % i
    return out


def positive_points(crits):
    return [p for p in crits if p.value > 0]


# ---------------------------------------------------------------------------
# Embeddings into the extended fields

def iota(p, pair, fam, ext_field, tolerances=None):
    """Embed a critical point of w into w_{i,j;3} by inserting 0 in the
    unused fiber slot.  Asserts the image really is critical with the same
    value and the expected index shift; failure means family and critical
    bookkeeping disagree (internal error)."""
    tol = dict(TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    i, j = pair
    (k,) = set((1, 2, 3)) - {i, j}
    n, N = fam.n, fam.N
    x = p.coords[:n]
    e = p.coords[n:n + N]
    ep = p.coords[n + N:]
    slots = {i: e, j: ep, k: np.zeros(N)}
    coords = np.concatenate([x, slots[1], slots[2], slots[3]])
    zf = [float(c) for c in coords]
    g = np.linalg.norm(ext_field.grad(zf))
    v = ext_field.value(zf)
    eigs = np.linalg.eigvalsh(ext_field.hess(zf))
    index = int(np.sum(eigs < 0))
    expected_index = p.morse_index + ((j - i) - 1) * N
    if g > 10 * tol["tol_grad"] or abs(v - p.value) > 1e-10 or index != expected_index:
        raise RuntimeError(
            "iota image of %s under pair (%d,%d) is inconsistent: "
            "|grad|=%.3g, value %.12g vs %.12g, index %d vs %d "
            "(family and critical-point bookkeeping disagree)"
            % (p.id, i, j, g, v, p.value, index, expected_index))
    return CriticalPoint(coords, float(v), index, index - ext_field.shift,
                         eigs, id=p.id)


# ---------------------------------------------------------------------------
# rho and the admissible perturbation radius

def perturbation_bound(rho, fields, K, seed=0):
    """L = max |grad| of the given fields over a sample of the box K,
    BOUND_SAMPLES uniform draws plus a BOUND_GRID grid (1 when every
    sampled gradient vanishes), and delta_pert = rho / (4 L), so any
    perturbation of size < delta_pert moves field values by < rho/4 along
    the sampled Lipschitz bound."""
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in K])
    hi = np.array([b[1] for b in K])
    pts = [rng.uniform(lo, hi, (BOUND_SAMPLES, len(K)))]
    if BOUND_GRID ** len(K) <= 40000:
        axes = [np.linspace(l, h, BOUND_GRID) for l, h in K]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts.append(np.column_stack([m.ravel() for m in mesh]))
    P = np.concatenate(pts)
    L = 0.0
    for f in fields:
        L = max(L, float(np.max(np.linalg.norm(f.grad_vec(P), axis=1))))
    if L == 0.0:
        L = 1.0
    return RhoBound(rho=float(rho), lipschitz_L=L, delta_pert=float(rho / (4.0 * L)))


def rho_and_perturbation_bound(crits, fields, K, seed=0):
    """rho = least positive critical value, and `perturbation_bound`."""
    pos = [p.value for p in crits if p.value > 0]
    if not pos:
        raise NoChordsError("no Reeb chords: every critical value is <= 0")
    return perturbation_bound(min(pos), fields, K, seed)
