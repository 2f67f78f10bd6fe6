"""Continuation maps: counting gradient lines of an interpolating function
on domain x [0,1] to compare the two ends of a path of families.

The interpolant is W(z, t) = (1-sigma(t)) w0(z) + sigma(t) w1(z)
+ eps (t^2/2 - t^4/4), with sigma a quintic smoothstep that is flat at
both ends, so the t = 0 and t = 1 slices carry exactly the endpoint
critical points, shifted in index by 0 and 1 respectively.  Lines from
(p, 0) to (q, 1) between equal-grading chords are isolated and their
mod-2 count assembles the chain map Phi.
"""

from __future__ import annotations

import logging

import numpy as np

from . import complexes as cx
from . import critical as cr
from . import expr as ex
from . import flow as fl
from . import gf2
from .expr import Add, Call, Mul, Num, Pow, Sub, Var
from .family import ScalarField
from .pipeline import GFRun, PAIRS, _plain


log = logging.getLogger(__name__)

T_SAMPLES = 5   # equispaced slices t in [0, 1] whose rho^t bounds eps


class PathError(ValueError):
    pass


def _smoothstep(tvar):
    # sigma(t) = 1 - bump(t + 1): the quintic smoothstep on [0, 1], exactly
    # 0 below t = 0 and exactly 1 above t = 1, with sigma' = sigma'' = 0 at
    # both ends, so the endpoint slices carry unperturbed critical points
    return Sub(Num(1.0), Call("bump", Add(Var(tvar), Num(1.0))))


def _profile(tvar, eps):
    half = Mul(Num(0.5 * eps), Pow(Var(tvar), 2))
    quarter = Mul(Num(0.25 * eps), Pow(Var(tvar), 4))
    return Sub(half, quarter)


def blend_field(f0, f1, eps, tag="W"):
    """The interpolating field on D+1 coordinates (last one is t)."""
    if f0.dim != f1.dim:
        raise PathError("fields have different dimensions: %d vs %d"
                        % (f0.dim, f1.dim))
    if tuple(f0.quad_blocks) != tuple(f1.quad_blocks):
        raise PathError("fields carry different quadratic blocks; the path "
                        "must join families of identical shape")
    D = f0.dim
    sig = _smoothstep(D)
    blended = Add(Add(Mul(Sub(Num(1.0), sig), f0.expr_part),
                      Mul(sig, f1.expr_part)),
                  _profile(D, eps))
    inner = [list(b) for b in f0.inner_box] + [[-0.1, 1.1]]
    outer = [list(b) for b in f0.outer_box] + [[-0.25, 1.25]]
    return ScalarField(D + 1, ex.fold(blended), list(f0.quad_blocks),
                       tag=tag, shift=f0.shift,
                       inner_box=inner, outer_box=outer, periodic=False)


def slice_field(f0, f1, t):
    """w^t as a field on the original domain, for admissibility sampling."""
    s = 1.0 - ex._bump(float(t) + 1.0)
    e = Add(Mul(Num(1.0 - s), f0.expr_part), Mul(Num(s), f1.expr_part))
    return ScalarField(f0.dim, ex.fold(e), list(f0.quad_blocks),
                       tag="w^%.2f" % t, shift=f0.shift,
                       inner_box=f0.inner_box, outer_box=f0.outer_box,
                       periodic=f0.periodic)


class FamilyPath:
    """A convex path between two runs of families of identical shape."""

    def __init__(self, run0, run1, eps=None):
        f0, f1 = run0.family, run1.family
        if (f0.n, f0.N) != (f1.n, f1.N):
            raise PathError("endpoint families have different dimensions")
        if f0.quad_tail != f1.quad_tail:
            raise PathError("endpoint families have different shapes "
                            "(stabilization tails)")
        if not np.array_equal(f0.slope, f1.slope):
            raise PathError("endpoint families have different fiber slopes; "
                            "convex interpolation would not stay linear at "
                            "infinity in a controlled way")
        if f0.inner_box != f1.inner_box or f0.outer_box != f1.outer_box:
            raise PathError("endpoint families use different boxes; align "
                            "the configs before comparing")
        self.run0, self.run1 = run0, run1
        self.constant = (f0.field.expr_part.key() == f1.field.expr_part.key())
        self.warnings = []
        self.rho_slices = self._sample_rho()
        rho_min = min(self.rho_slices.values())
        if eps is None:
            # the t-profile must dominate the blend coupling sigma'(t)(w1-w0)
            # along the critical curves, or an interior critical point of W
            # stalls the counted lines; max sigma'/(t(1-t^2)) is about 5.2
            self.eps = max(0.1 * rho_min, 8.0 * self.value_drift)
        else:
            self.eps = float(eps)
        if not self.eps / 4.0 < rho_min:
            raise PathError(
                "eps = %.6g violates eps/4 < rho^t (min sampled rho %.6g); "
                "the values move too much along this path for one "
                "continuation step, subdivide it" % (self.eps, rho_min))

    def _sample_rho(self):
        """Least positive critical value of each slice, and the largest
        |w1 - w0| over the slices' critical points.

        sigma(0) = 0 and sigma(1) = 1, so `slice_field` folds to exactly
        w0's expression at t = 0 and to w1's at t = 1.  Each slice is
        searched with run0's grid density and tolerances, so the t = 0
        slice takes run0's critical points, and the t = 1 slice takes
        run1's when run1 was searched with the same settings.
        """
        w0, w1 = self.run0.w, self.run1.w
        density = self.run0.config["seeds"]["grid_density"]
        ends = {0.0: self.run0.criticals}
        if (self.run1.config["seeds"]["grid_density"] == density
                and self.run1.tol == self.run0.tol):
            ends[1.0] = self.run1.criticals
        out = {}
        self.value_drift = 0.0
        for t in np.linspace(0.0, 1.0, T_SAMPLES):
            t = float(t)
            if self.constant and t > 0:
                out[t] = out[0.0]
                continue
            crits = ends.get(t)
            if crits is not None:
                log.info("slice t=%.2f: reused %d endpoint critical points",
                         t, len(crits))
            else:
                try:
                    crits = cr.find_critical_points(
                        slice_field(w0, w1, t), grid_density=density,
                        tolerances=self.run0.tol)
                except cr.DegenerateRootError as e:
                    self.warnings.append(
                        "slice t=%.2f has a degenerate critical point (%s); the "
                        "path may not be admissible" % (t, e))
                    continue
                log.info("slice t=%.2f: searched, %d critical points",
                         t, len(crits))
            pos = [p.value for p in crits if p.value > 0]
            if not pos:
                raise PathError(
                    "slice t=%.2f has no positive critical value; the path "
                    "leaves the class of chord-carrying families" % t)
            out[t] = min(pos)
            for p in crits:
                z = [float(v) for v in p.coords]
                self.value_drift = max(self.value_drift,
                                       abs(w1.value(z) - w0.value(z)))
        if not out:
            raise PathError("no admissible slice found along the path")
        return out

    def reversed(self):
        return FamilyPath(self.run1, self.run0, eps=self.eps)


def _lift(p, t_end, W, eps, tol):
    """The chord p as a critical point of W at the t = 0 or t = 1 end."""
    coords = np.concatenate([p.coords, [float(t_end)]])
    zf = [float(v) for v in coords]
    g = float(np.linalg.norm(W.grad(zf)))
    eigs = np.linalg.eigvalsh(W.hess(zf))
    index = int(np.sum(eigs < 0))
    value = float(W.value(zf))
    want_index = p.morse_index + (1 if t_end else 0)
    want_value = p.value + (eps / 4.0 if t_end else 0.0)
    if g > 10 * tol["tol_grad"] or index != want_index \
            or abs(value - want_value) > 1e-8:
        raise RuntimeError(
            "lift of %s to t=%d is inconsistent: |grad|=%.3g, index %d vs %d, "
            "value %.9g vs %.9g (interpolant and endpoint bookkeeping disagree)"
            % (p.id, t_end, g, index, want_index, value, want_value))
    grading = p.grading + (1 if t_end else 0)
    return cr.CriticalPoint(coords, value, index, grading, eigs,
                            id="%d:%s" % (t_end, p.id))


def _scope_gate(path):
    if path.constant:
        return
    bad = [(p.id, p.coindex)
           for p in path.run0.chords + path.run1.chords if p.coindex > 0]
    if bad:
        raise PathError(
            "continuation along a nonconstant path is validated only when "
            "every chord has coindex 0 in its difference function; got %r. "
            "The moving zero-width walls of positive-coindex chords are "
            "outside the shooting scan's validated scope." % (bad,))


def continuation_matrix(path, which="w"):
    """Z2 matrix of the continuation map for w or an extended pair.

    Returns (matrix dict {(src_id, dst_id): parity over equal-grading
    pairs}, diagnostics).  Monotone-t along every counted line is checked
    and reported.
    """
    run0, run1 = path.run0, path.run1
    tol = run0.tol
    solver = run0.config["solver"]
    if which == "w":
        f0, f1 = run0.w, run1.w
        gens0, gens1 = run0.chords, run1.chords
        all0, all1 = run0.criticals, run1.criticals
        tag = "W"
    else:
        pq = tuple(which)
        f0, f1 = run0.ext[pq], run1.ext[pq]
        gens0 = [run0.images[pq][p.id] for p in run0.chords]
        gens1 = [run1.images[pq][p.id] for p in run1.chords]
        all0 = [run0.images[pq][p.id] for p in run0.criticals]
        all1 = [run1.images[pq][p.id] for p in run1.criticals]
        tag = "W_{%d,%d;3}" % pq
    _scope_gate(path)
    W = blend_field(f0, f1, path.eps, tag=tag)
    lift0 = {p.id: _lift(p, 0, W, path.eps, tol) for p in all0}
    lift1 = {q.id: _lift(q, 1, W, path.eps, tol) for q in all1}
    lifted0 = [lift0[p.id] for p in gens0]
    lifted1 = [lift1[q.id] for q in gens1]
    # the stops list carries every lifted critical point, so a trajectory
    # sinking into a non-chord end is recognized rather than timing out
    criticals = list(lift0.values()) + list(lift1.values())
    # travel times scale inversely with the slowest linearization rate
    # (the t-profile contributes a rate of only eps near the ends)
    rate = min(float(np.min(np.abs(c.hess_eigs))) for c in criticals)
    tol = dict(tol)
    tol["t_max"] = max(tol["t_max"], 60.0 / rate)
    phi = {}
    t_checks = []
    obstructed = []
    for p, lp in zip(gens0, lifted0):
        source = fl.LineSource(W, lp, criticals, r0=solver["r0"],
                               m=solver["scan_density"], tolerances=tol)
        for q, lq in zip(gens1, lifted1):
            if q.grading != p.grading:
                continue
            if lq.value <= lp.value:
                # upward flow cannot reach a lower value; the entry is an
                # honest 0, but if it breaks invertibility the path needs
                # subdividing into steps with smaller value drops
                obstructed.append("%s->%s" % (p.id, q.id))
            c = fl.count_lines(source, lq)
            phi[(p.id, q.id)] = c.parity
            for traj in c.trajectories:
                ts = [z[-1] for _, z in traj.samples]
                drops = sum(1 for a, b in zip(ts, ts[1:]) if b < a - 1e-9)
                t_checks.append({"line": "%s->%s" % (lp.id, lq.id),
                                 "t_monotone": drops == 0})
    log.info("continuation matrix %s: %d entries, %d odd", tag, len(phi),
             sum(phi.values()))
    diag = {"eps": path.eps, "rho_slices": path.rho_slices,
            "warnings": list(path.warnings), "t_monotone": t_checks,
            "t_monotone_ok": all(c["t_monotone"] for c in t_checks),
            "value_obstructions": obstructed}
    return phi, diag


def phi_table(phi):
    """{src: [dst, ...]} from a matrix dict {(src, dst): parity}."""
    table = {}
    for (src, dst), bit in phi.items():
        if bit:
            table.setdefault(src, []).append(dst)
    return table


def is_identity(phi, run0, run1):
    """Phi equals the identity under the positional generator matching."""
    if len(run0.chords) != len(run1.chords):
        return False
    M = cx.table_matrix(phi_table(phi), run0.chords, run1.chords)
    return np.array_equal(M, np.eye(len(run0.chords), dtype=np.uint8))


def invertible_by_grading(phi, run0, run1):
    """Whether each graded block of Phi is invertible over Z2."""
    out = {}
    table = phi_table(phi)
    gradings = sorted({p.grading for p in run0.chords}
                      | {q.grading for q in run1.chords})
    for g in gradings:
        g0 = [p for p in run0.chords if p.grading == g]
        g1 = [q for q in run1.chords if q.grading == g]
        M = cx.table_matrix(table, g0, g1)
        out[g] = (len(g0) == len(g1) and gf2.rank(M) == len(g0))
    return out


def diagram_check(run0, run1, phi12, phi23, phi13):
    """Commutativity on cohomology: Phi13* mu2_0 = mu2_1 (Phi12* x Phi23*)."""
    r0 = {g: r for g, r in run0.ring.ranks.items() if r}
    r1 = {g: r for g, r in run1.ring.ranks.items() if r}
    if r0 != r1:
        raise PathError(
            "endpoint rings have different graded ranks (%r vs %r): the "
            "continuation map cannot be an isomorphism; a count upstream "
            "failed" % (r0, r1))
    f12, f23, f13 = (cx.induced_map(run0.ring, run1.ring, phi_table(phi))
                     for phi in (phi12, phi23, phi13))
    return cx.square_defects(run0.ring, run1.ring, f12, f23, f13,
                             ("phi13(mu2)", "mu2(phi12,phi23)"))


# ---------------------------------------------------------------------------
# Drivers

def _aligned_runs(config0, config1, jobs=1):
    """Execute both endpoint pipelines with one shared stabilizing-term
    coefficient, so the extended fields interpolate cleanly.  Only a run
    whose own coefficient is larger is prepared a second time."""
    runs = [GFRun(cfg, jobs=jobs).prepare() for cfg in (config0, config1)]
    lam = min(run.lam for run in runs)
    for run in runs:
        if run.lam != lam:
            run.config["solver"]["lambda"] = lam
            run.prepare()
    return tuple(run.execute() for run in runs)


def constant_path_check(config, jobs=1):
    """Phi for the constant path must be the identity matrix exactly, and a
    cochain map."""
    run = GFRun(config, jobs=jobs).execute()
    path = FamilyPath(run, run)
    phi, diag = continuation_matrix(path, "w")
    report = {
        "phi": {"%s->%s" % k: v for k, v in sorted(phi.items())},
        "identity": is_identity(phi, run, run),
        "cochain_defects": cx.cochain_map_defects(run.complex, run.complex,
                                                  phi_table(phi)),
        "diagnostics": diag,
    }
    report["pass"] = bool(report["identity"] and not report["cochain_defects"]
                          and diag["t_monotone_ok"])
    return run, _plain(report)


def isotopy_compare(config0, config1, jobs=1):
    """Full invariance check along a path of families: the three extended
    continuation maps, cochain-map identities, and the product diagram on
    cohomology."""
    run0, run1 = _aligned_runs(config0, config1, jobs=jobs)
    path = FamilyPath(run0, run1)
    phi_w, diag_w = continuation_matrix(path, "w")
    phis = {}
    diags = {"w": diag_w}
    for pq in PAIRS:
        phis[pq], diags["%d%d" % pq] = continuation_matrix(path, pq)
    chain_defects = {
        key: cx.cochain_map_defects(run0.complex, run1.complex, phi_table(phi))
        for key, phi in (("w", phi_w), ("12", phis[(1, 2)]),
                         ("23", phis[(2, 3)]), ("13", phis[(1, 3)]))}
    product_defects = diagram_check(run0, run1, phis[(1, 2)], phis[(2, 3)],
                                    phis[(1, 3)])
    inv = invertible_by_grading(phi_w, run0, run1)
    verdict = {
        "labels": [run0.family.label, run1.family.label],
        "eps": path.eps,
        "constant_path": path.constant,
        "phi": {"w": {"%s->%s" % k: v for k, v in sorted(phi_w.items())}},
        "cochain_defects": chain_defects,
        "product_defects": product_defects,
        "invertible": {str(g): ok for g, ok in sorted(inv.items())},
        "value_obstructions": sorted(set(
            x for d in diags.values() for x in d.get("value_obstructions", ()))),
        "t_monotone_ok": all(d.get("t_monotone_ok", True)
                             for d in diags.values()),
        "warnings": path.warnings,
    }
    for pq in PAIRS:
        verdict["phi"]["%d%d" % pq] = {"%s->%s" % k: v
                                       for k, v in sorted(phis[pq].items())}
    verdict["pass"] = bool(
        not any(chain_defects.values()) and not product_defects
        and all(inv.values()) and verdict["t_monotone_ok"])
    if not all(inv.values()) and verdict["value_obstructions"]:
        verdict["note"] = ("some graded block of the continuation matrix is "
                           "singular and some target values sit below their "
                           "sources; split the path into steps with smaller "
                           "value drops and compose the comparisons")
    return run0, run1, _plain(verdict)


def reversal_check(path):
    """Phi_reverse . Phi induces the identity on cohomology."""
    phi, _ = continuation_matrix(path, "w")
    rphi, _ = continuation_matrix(path.reversed(), "w")
    ring0, ring1 = path.run0.ring, path.run1.ring
    fwd = cx.induced_map(ring0, ring1, phi_table(phi))
    back = cx.induced_map(ring1, ring0, phi_table(rphi))
    defects = []
    for g, classes in ring0.classes.items():
        M, ok = fwd[g]
        for i, e in enumerate(np.eye(len(classes), dtype=np.uint8)):
            if not ok[i]:
                defects.append({"grading": g, "class": i,
                                "problem": "not a cocycle class"})
                continue
            got = cx.push(back, g, M[:, i])
            if got is None or not np.array_equal(got, e):
                defects.append({"grading": g, "class": i,
                                "got": None if got is None else got.tolist()})
    return {"defects": defects, "pass": not defects}
