"""Critical points of difference fields: Reeb chords, gradings, rho.

Chords of the Legendrian correspond to critical points of w with positive
critical value; the value-0 set {e = e'} is a degenerate submanifold and is
excluded by a value filter rather than classified.  Root finding is grid +
batched Newton; completeness is heuristic and cross-checked by the
grid-doubling invariance test and the blend-annulus floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy.spatial import cKDTree

TOLERANCES = {
    "tol_grad": 1e-9,
    "tol_dedup": 1e-6,
    "tol_degenerate": 1e-6,
    "tol_value": 1e-7,
}


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


def _newton_polish(field, Z, box, iters=60, tol_grad=1e-9):
    """Batched Newton on grad(field) = 0.  Returns converged points."""
    Z = np.array(Z, dtype=float)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    span = np.max(hi - lo)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for _ in range(iters):
        if len(Z) == 0:
            break
        G = field.grad_vec(Z)
        H = field.hess_vec(Z)
        try:
            step = np.linalg.solve(H, G[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.empty_like(G)
            for b in range(len(Z)):
                try:
                    step[b] = np.linalg.solve(H[b], G[b])
                except np.linalg.LinAlgError:
                    step[b] = np.nan
        norms = np.linalg.norm(step, axis=1)
        big = norms > 0.25 * span
        step[big] *= (0.25 * span / norms[big])[:, None]
        Z = Z - step
        if field.periodic:
            Z = _wrap_unit(Z)
        ok = np.all(np.isfinite(Z), axis=1)
        ok &= np.all(np.abs(Z - mid) < 3.0 * half + 1.0, axis=1)
        Z = Z[ok]
    if len(Z) == 0:
        return Z
    G = field.grad_vec(Z)
    good = np.linalg.norm(G, axis=1) < tol_grad
    inside = np.all((Z >= lo - 1e-6) & (Z <= hi + 1e-6), axis=1) | field.periodic
    return Z[good & inside]


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
    tree = cKDTree(pts, boxsize=1.0 if periodic else None)
    pairs = tree.query_pairs(tol)
    parent = list(range(len(pts)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    reps = {}
    for i in range(len(pts)):
        reps.setdefault(find(i), []).append(i)
    return np.array([_cluster_mean(pts[idx], periodic) for idx in
                     sorted(reps.values(), key=lambda idx: idx[0])])


def find_critical_points(field, box=None, grid_density=7, tolerances=None,
                         exclude_zero_value=True):
    """All isolated nondegenerate critical points of `field` in `box`.

    Roots with |value| < tol_value are treated as part of the degenerate
    {e = e'} submanifold and dropped (disable with exclude_zero_value=False
    for Morse mode).  Any surviving root with a Hessian eigenvalue of
    magnitude <= tol_degenerate is a hard error.  Result is sorted by
    value, then lexicographically, and labelled c0, c1, ...
    """
    tol = dict(TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    if box is None:
        box = field.inner_box
    if box is None:
        raise ValueError("field carries no box; pass one explicitly")
    seeds = _seed_grid(field, box, grid_density)
    roots = _newton_polish(field, seeds, box, tol_grad=tol["tol_grad"])
    roots = _dedup(roots, tol["tol_dedup"], field.periodic)
    out = []
    for z in roots:
        zf = [float(c) for c in z]
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

def rho_and_perturbation_bound(crits, fields, K, grid_density=4,
                               samples=20000, seed=0):
    """rho = least positive critical value; L = max sampled |grad| of the
    given fields over the box K; delta_pert = rho / (4 L), so any
    perturbation of size < delta_pert moves field values by < rho/4 along
    the sampled Lipschitz bound."""
    pos = [p.value for p in crits if p.value > 0]
    if not pos:
        raise NoChordsError("no Reeb chords: every critical value is <= 0")
    rho = min(pos)
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in K])
    hi = np.array([b[1] for b in K])
    pts = [rng.uniform(lo, hi, (samples, len(K)))]
    if grid_density ** len(K) <= 40000:
        axes = [np.linspace(l, h, grid_density) for l, h in K]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts.append(np.column_stack([m.ravel() for m in mesh]))
    P = np.concatenate(pts)
    L = 0.0
    for f in fields:
        L = max(L, float(np.max(np.linalg.norm(f.grad_vec(P), axis=1))))
    if L == 0.0:
        L = 1.0
    return RhoBound(rho=float(rho), lipschitz_L=L, delta_pert=float(rho / (4.0 * L)))


def chord_table(crits, shift):
    """Aligned text table of chords; grading printed in both shift
    conventions (shift and shift+1) for easier external comparison."""
    lines = ["%-4s %-32s %12s %6s %9s %11s" %
             ("id", "coords", "value", "index", "grading", "grading(+1)")]
    for p in crits:
        cs = "(" + ", ".join("%.6g" % c for c in p.coords) + ")"
        lines.append("%-4s %-32s %12.8f %6d %9d %11d" %
                     (p.id, cs, p.value, p.morse_index, p.grading, p.grading - 1))
    return "\n".join(lines)
