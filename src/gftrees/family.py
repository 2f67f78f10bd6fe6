"""Generating families and the scalar fields derived from them.

A generating family is a scalar field F(x, e) on R^n x R^N that agrees with
a fixed linear function A.e of the fiber outside a compact box.  It is
assembled as

    F = chi * (core - A.e) + A.e

where chi is a product of C^2 cutoff factors equal to 1 on `inner_box` and
identically 0 outside `outer_box`, so F - A.e vanishes exactly on the
exterior.  Everything downstream works with difference fields built from F:

    w(x, e, e')           = F(x, e) - F(x, e')          on R^{n+2N}
    w_{i,j;3}(x,e1,e2,e3) = F(x,e_i) - F(x,e_j) +- Q(e_k)   on R^{n+3N}

with +Q(e_k) for k < i or k > j and -Q(e_k) for i < k < j.

Stabilization appends a fiber coordinate carrying a pure +-(e')^2 term.
That term is kept as an explicit quadratic block rather than folded into
the compiled expression: its gradient flow decouples from everything else.
The critical-point search uses that (one seed, 0, per block coordinate),
and so does the tree solver's time grid, which ignores the blocks' rates.
The flow integrator does not: it steps block coordinates like any other.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .expr import (Add, Call, Mul, Neg, Num, Sub, Var, VarLayout, Warp,
                   fold, parse, subst)


class FamilyError(ValueError):
    pass


# Rows per call of a compiled vector function.  The generated code keeps
# dozens of arrays of shape (B,) alive at once: a 14 MB tracemalloc peak
# for the 20,256-row gradient bound on multichord's D = 4 extended fields,
# against 2.9 MB in blocks, which also run faster than one call.  Every
# generated statement works row by row, so a row has the same bits in any
# block.
VEC_ROWS = 1024

EXTERIOR_SAMPLES = 10000   # GeneratingFamily.check_exterior_linearity
JUMP_POINTS = 1000         # jump_identity_residual
MINIMUM_SAMPLES = 400      # QuadraticLike.check_minimum
FPD_SAMPLES = 500          # precompose_fpd, outside and inside the outer box


# ---------------------------------------------------------------------------
# Scalar fields: compiled expression blocks plus decoupled quadratic blocks

class ScalarField:
    """A scalar field on R^D given by an expression plus quadratic terms.

    value(z) = expr(z) + sum_j coeff_j * z[idx_j]^2.

    The quadratic blocks are kept separate so callers can see which
    coordinates have trivial product dynamics.  `shift` is the grading
    shift its critical points inherit (N for w, (j-i)N for w_{i,j;3}, 0 in
    Morse mode); `tag` names the construction.
    """

    def __init__(self, dim, expr_part, quad_blocks=(), tag="field", shift=0,
                 inner_box=None, outer_box=None, periodic=False):
        self.dim = int(dim)
        self.expr_part = fold(expr_part) if expr_part is not None else Num(0.0)
        self.quad_blocks = tuple((int(i), float(c)) for i, c in quad_blocks)
        self.tag = tag
        self.shift = int(shift)
        self.inner_box = None if inner_box is None else [list(map(float, b)) for b in inner_box]
        self.outer_box = None if outer_box is None else [list(map(float, b)) for b in outer_box]
        self.periodic = bool(periodic)
        bad = [i for i, _ in self.quad_blocks if not 0 <= i < self.dim]
        if bad:
            raise FamilyError("quadratic block index out of range: %r" % bad)
        self._fns = {}
        self._derivs = ex.Derivatives(self.expr_part, self.dim)

    # -- construction helpers ------------------------------------------

    def remapped(self, index_map, new_dim, negate=False, **kw):
        """Relabel coordinates via index_map (old -> new), optionally negated."""
        e = ex.shift_vars(self.expr_part, index_map)
        if negate:
            e = Neg(e)
        sign = -1.0 if negate else 1.0
        quads = [(index_map.get(i, i), sign * c) for i, c in self.quad_blocks]
        kw.setdefault("tag", self.tag)
        kw.setdefault("shift", self.shift)
        kw.setdefault("periodic", self.periodic)
        return ScalarField(new_dim, e, quads, **kw)

    @staticmethod
    def merge(fields, dim, **kw):
        total = Num(0.0)
        quads = []
        for f in fields:
            total = Add(total, f.expr_part)
            quads.extend(f.quad_blocks)
        merged = {}
        for i, c in quads:
            merged[i] = merged.get(i, 0.0) + c
        quads = [(i, c) for i, c in sorted(merged.items()) if c != 0.0]
        kw.setdefault("periodic", any(f.periodic for f in fields))
        return ScalarField(dim, total, quads, **kw)

    @property
    def quad_indices(self):
        return [i for i, _ in self.quad_blocks]

    # -- evaluation -----------------------------------------------------

    def _fn(self, kind):
        fn = self._fns.get(kind)
        if fn is None:
            vector = kind.endswith("_vec")
            base = kind[:-4] if vector else kind
            if base == "value":
                fn = ex.compile_value(self.expr_part, self.dim, vector=vector)
            elif base == "grad":
                fn = ex.compile_grad(self._derivs, vector=vector)
            else:
                fn = ex.compile_hess(self._derivs, vector=vector)
            self._fns[kind] = fn
        return fn

    def _rows(self, kind, Z):
        """The compiled vector function `kind` on the rows of Z, in blocks
        of VEC_ROWS rows, concatenated."""
        fn = self._fn(kind)
        if len(Z) <= VEC_ROWS:
            return fn(Z)
        blocks = [fn(Z[a:a + VEC_ROWS]) for a in range(0, len(Z), VEC_ROWS)]
        if isinstance(blocks[0], tuple):
            return tuple(np.concatenate(parts) for parts in zip(*blocks))
        return np.concatenate(blocks)

    def value(self, z):
        v = self._fn("value")(z)
        for i, c in self.quad_blocks:
            v += c * z[i] * z[i]
        return v

    def grad(self, z):
        g = self._fn("grad")(z)
        for i, c in self.quad_blocks:
            g[i] += 2.0 * c * z[i]
        return g

    def hess(self, z):
        h = np.array(self._fn("hess")(z), dtype=float)
        for i, c in self.quad_blocks:
            h[i, i] += 2.0 * c
        return h

    def value_vec(self, Z):
        """`value` of each row of a (B, D) array, as a (B,) array.

        Like `grad_vec` and `hess_vec`, it evaluates more than VEC_ROWS
        rows in blocks of VEC_ROWS.  Every statement works row by row, so
        each row has the bits of its scalar `value` in any block."""
        Z = np.asarray(Z, dtype=float)
        v = self._rows("value_vec", Z)
        for i, c in self.quad_blocks:
            v = v + c * Z[:, i] * Z[:, i]
        return v

    def grad_vec(self, Z):
        """`grad` of each row, (B, D), in row blocks as in `value_vec`."""
        Z = np.asarray(Z, dtype=float)
        g = self._rows("grad_vec", Z)
        for i, c in self.quad_blocks:
            g[:, i] += 2.0 * c * Z[:, i]
        return g

    def hess_vec(self, Z):
        """(G, H): the `grad` and the `hess` of each row, (B, D) and
        (B, D, D), from the one kernel of `compile_hess`, in row blocks as
        in `value_vec`.  G has the bits of `grad_vec`."""
        Z = np.asarray(Z, dtype=float)
        g, h = self._rows("hess_vec", Z)
        for i, c in self.quad_blocks:
            g[:, i] += 2.0 * c * Z[:, i]
            h[:, i, i] += 2.0 * c
        return g, h

    def __repr__(self):
        return "ScalarField(dim=%d, tag=%r)" % (self.dim, self.tag)


# ---------------------------------------------------------------------------
# Quadratic-like stabilizing terms

class QuadraticLike:
    """A fiber function with a single nondegenerate minimum at 0, value 0:
    the scaled exact quadratic lam*|e|^2 of `scaled_identity`."""

    def __init__(self, N, field):
        self.N = int(N)
        self.field = field

    @classmethod
    def scaled_identity(cls, N, lam):
        quads = [(k, float(lam)) for k in range(N)]
        return cls(N, ScalarField(N, None, quads, tag="Q"))

    def check_minimum(self, rng=None):
        """0 is a critical point, positive definite, value 0; and the
        sampled gradient does not vanish elsewhere in [-1.5, 1.5]^N."""
        zero = np.zeros(self.N)
        v = self.field.value(list(zero))
        g = np.array(self.field.grad(list(zero)))
        h = self.field.hess(list(zero))
        if abs(v) > 1e-12 or np.linalg.norm(g) > 1e-10:
            raise FamilyError("stabilizing term is not critical with value 0 at the origin")
        if np.min(np.linalg.eigvalsh(h)) <= 0:
            raise FamilyError("stabilizing term is not positive definite at the origin")
        rng = np.random.default_rng(0) if rng is None else rng
        pts = np.column_stack([rng.uniform(-1.5, 1.5, MINIMUM_SAMPLES)
                               for _ in range(self.N)])
        norms = np.linalg.norm(self.field.grad_vec(pts), axis=1)
        dists = np.linalg.norm(pts, axis=1)
        offenders = (dists > 0.3) & (norms < 1e-8)
        if np.any(offenders):
            raise FamilyError("stabilizing term has a second critical point near %r"
                              % pts[offenders][0].tolist())
        return True


# ---------------------------------------------------------------------------
# Generating families

def _check_boxes(inner, outer, dim):
    if len(inner) != dim or len(outer) != dim:
        raise FamilyError("boxes must have %d coordinate intervals" % dim)
    for k, ((il, ih), (ol, oh)) in enumerate(zip(inner, outer)):
        if not (ol < il < ih < oh):
            raise FamilyError("inner box must sit strictly inside outer box "
                              "(coordinate %d: inner [%g, %g], outer [%g, %g])"
                              % (k, il, ih, ol, oh))


class GeneratingFamily:
    """Linear-at-infinity generating family on R^n x R^N.

    Fiber layout: the first `N - len(quad_tail)` fiber coordinates carry the
    compiled expression; `quad_tail` lists the signs of appended pure
    quadratic stabilization slots.
    """

    def __init__(self, n, N, core, slope, inner_box, outer_box,
                 base="euclidean", quad_tail=(), field=None, label="family"):
        self.n = int(n)
        self.N = int(N)
        if base != "euclidean":
            raise FamilyError(
                "base %r is not supported: difference functions need a "
                "euclidean base (the flow machinery wraps every coordinate "
                "of a periodic field); use the Morse validation mode for "
                "torus examples" % (base,))
        self.quad_tail = tuple(int(s) for s in quad_tail)
        if any(s not in (-1, 1) for s in self.quad_tail):
            raise FamilyError("stabilization signs must be +1 or -1")
        self.N0 = self.N - len(self.quad_tail)
        self.core = core
        self.slope = np.asarray(slope, dtype=float)
        if self.slope.shape != (self.N0,):
            raise FamilyError("slope must have one entry per expression fiber coordinate")
        if np.all(self.slope == 0.0):
            raise FamilyError("slope must be nonzero")
        self.dim = self.n + self.N
        _check_boxes(inner_box, outer_box, self.dim)
        self.inner_box = [list(map(float, b)) for b in inner_box]
        self.outer_box = [list(map(float, b)) for b in outer_box]
        self.label = label
        self.field = self._assemble() if field is None else field

    def _assemble(self):
        layout = VarLayout(self.n, self.N0)
        core = self.core
        if isinstance(core, str):
            core = parse(core, layout)
        bad = [i for i in ex.free_vars(core) if i >= self.n + self.N0]
        if bad:
            raise FamilyError("core refers to stabilization slots: %r" % bad)
        lin = Num(0.0)
        for k in range(self.N0):
            lin = Add(lin, Mul(Num(self.slope[k]), Var(self.n + k)))
        chi = Num(1.0)
        for i in range(self.dim - len(self.quad_tail)):
            (il, ih), (ol, oh) = self.inner_box[i], self.outer_box[i]
            chi = Mul(chi, Call("bump", Warp(Var(i), il, ih, ol, oh)))
        assembled = Add(Mul(chi, Sub(core, lin)), lin)
        quads = [(self.n + self.N0 + j, float(s)) for j, s in enumerate(self.quad_tail)]
        return ScalarField(self.dim, assembled, quads, tag="F",
                           inner_box=self.inner_box, outer_box=self.outer_box)

    # -- invariants -----------------------------------------------------

    def check_exterior_linearity(self, seed=0):
        """F - A.e - sum_j s_j e_j^2 over the tail slots vanishes wherever
        the coordinates before the tail leave their outer box (to 1e-12 on
        EXTERIOR_SAMPLES points).  The cutoff never reads the tail, which
        carries its quadratic everywhere, so tail slots range over their
        whole 2x box."""
        rng = np.random.default_rng(seed)
        core = self.dim - len(self.quad_tail)
        pts = _sample_exterior(self.outer_box[:core], EXTERIOR_SAMPLES, rng)
        mid = np.array([0.5 * (lo + hi) for lo, hi in self.outer_box[core:]])
        half = np.array([0.5 * (hi - lo) for lo, hi in self.outer_box[core:]])
        pts = np.hstack([pts, rng.uniform(mid - 2.0 * half, mid + 2.0 * half,
                                          (EXTERIOR_SAMPLES, len(mid)))])
        lin = np.zeros(EXTERIOR_SAMPLES)
        for k in range(self.N0):
            lin += self.slope[k] * pts[:, self.n + k]
        for j, s in enumerate(self.quad_tail):
            lin += s * pts[:, self.n + self.N0 + j] * pts[:, self.n + self.N0 + j]
        resid = np.max(np.abs(self.field.value_vec(pts) - lin))
        if resid > 1e-12:
            raise FamilyError("field is not linear outside the outer box "
                              "(max residual %.3e)" % resid)
        return resid

    # -- derived fields -------------------------------------------------

    def difference(self):
        return difference(self)

    def w_boxes(self):
        inner = self.inner_box + self.inner_box[self.n:]
        outer = self.outer_box + self.outer_box[self.n:]
        return inner, outer

    def extended_boxes(self):
        inner = self.inner_box + self.inner_box[self.n:] + self.inner_box[self.n:]
        outer = self.outer_box + self.outer_box[self.n:] + self.outer_box[self.n:]
        return inner, outer

    def __repr__(self):
        return "GeneratingFamily(%r, n=%d, N=%d, tail=%r)" % (
            self.label, self.n, self.N, self.quad_tail)


def _sample_exterior(box, count, rng):
    """Uniform samples in (2x-inflated box) \\ box."""
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    out = []
    need = count
    while need > 0:
        cand = rng.uniform(mid - 2.0 * half, mid + 2.0 * half, (2 * need + 16, len(box)))
        inside = np.all((cand > lo) & (cand < hi), axis=1)
        keep = cand[~inside][:need]
        out.append(keep)
        need -= len(keep)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# Difference fields

def difference(fam):
    """w(x, e, e') = F(x, e) - F(x, e') on R^{n+2N}."""
    n, N, D = fam.n, fam.N, fam.n + 2 * fam.N
    ident = {i: i for i in range(fam.dim)}
    shift2 = {i: (i if i < n else i + N) for i in range(fam.dim)}
    inner, outer = fam.w_boxes()
    f1 = fam.field.remapped(ident, D)
    f2 = fam.field.remapped(shift2, D, negate=True)
    return ScalarField.merge([f1, f2], D, tag="w", shift=N,
                             inner_box=inner, outer_box=outer,
                             periodic=fam.field.periodic)


def extend(fam, pair, Q):
    """Extended difference w_{i,j;3} on P_3 = R^{n+3N}.

    `pair` is (i, j) with 1 <= i < j <= 3; the remaining slot k gets +Q(e_k)
    when k < i or k > j and -Q(e_k) when i < k < j.
    """
    i, j = pair
    if not (1 <= i < j <= 3):
        raise FamilyError("pair must be (1,2), (1,3) or (2,3), got %r" % (pair,))
    if Q.N != fam.N:
        raise FamilyError("stabilizing term has fiber dimension %d, family needs %d"
                          % (Q.N, fam.N))
    n, N = fam.n, fam.N
    D = n + 3 * N
    (k,) = set((1, 2, 3)) - {i, j}
    qsign = -1 if i < k < j else +1

    def copy_map(c):
        return {t: (t if t < n else t + (c - 1) * N) for t in range(fam.dim)}

    fi = fam.field.remapped(copy_map(i), D)
    fj = fam.field.remapped(copy_map(j), D, negate=True)
    qmap = {t: n + (k - 1) * N + t for t in range(N)}
    fq = Q.field.remapped(qmap, D, negate=(qsign < 0))
    inner, outer = fam.extended_boxes()
    tag = "w_{%d,%d;3}" % (i, j)
    return ScalarField.merge([fi, fj, fq], D, tag=tag, shift=(j - i) * N,
                             inner_box=inner, outer_box=outer,
                             periodic=fam.field.periodic)


def jump_identity_residual(w12, w23, w13, Q, fam, seed=0):
    """Max residual of w_{1,3;3} = w_{1,2;3} + w_{2,3;3} - (Q(e1)+Q(e2)+Q(e3)).

    (Each pairwise extension carries its own stabilizing term, so summing
    the two jump pieces double-counts all three of them.)
    """
    rng = np.random.default_rng(seed)
    n, N = fam.n, fam.N
    _, outer = fam.extended_boxes()
    pts = np.column_stack([rng.uniform(lo, hi, JUMP_POINTS) for lo, hi in outer])
    qsum = np.zeros(JUMP_POINTS)
    for c in (1, 2, 3):
        qsum += Q.field.value_vec(pts[:, n + (c - 1) * N: n + c * N])
    resid = w13.value_vec(pts) - (w12.value_vec(pts) + w23.value_vec(pts) - qsum)
    return float(np.max(np.abs(resid)))


def blend_annulus_floor(w):
    """Min |grad w| on the blend annulus (outer w-box minus inner w-box)
    over a grid of 7 points per axis, 5 when w.dim > 5.  A positive floor
    does not rule out chords in the shell: ROADMAP item 1 found some on
    multichord and unknot, whose floors read 1.08 and 1.0."""
    grid = 7 if w.dim <= 5 else 5
    inner = np.array(w.inner_box)
    outer = np.array(w.outer_box)
    axes = [np.linspace(lo, hi, grid) for lo, hi in outer]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    in_inner = np.all((pts > inner[:, 0]) & (pts < inner[:, 1]), axis=1)
    pts = pts[~in_inner]
    if len(pts) == 0:
        return math.inf
    norms = np.linalg.norm(w.grad_vec(pts), axis=1)
    return float(np.min(norms))


# ---------------------------------------------------------------------------
# Transformations

def stabilize(fam, sign):
    """Append a fiber slot carrying sign * (e_{N+1})^2."""
    if sign not in (1, -1, "+", "-"):
        raise FamilyError("stabilization sign must be +1 or -1")
    s = 1 if sign in (1, "+") else -1
    inner = fam.inner_box + [[-1.0, 1.0]]
    outer = fam.outer_box + [[-2.0, 2.0]]
    out = GeneratingFamily(fam.n, fam.N + 1, fam.core, fam.slope,
                           inner, outer,
                           quad_tail=fam.quad_tail + (s,),
                           field=_append_quad(fam, s),
                           label="%s%s" % (fam.label, "+" if s > 0 else "-"))
    return out


def _append_quad(fam, s):
    f = fam.field
    return ScalarField(f.dim + 1, f.expr_part,
                       list(f.quad_blocks) + [(f.dim, float(s))],
                       tag=f.tag, shift=f.shift,
                       inner_box=fam.inner_box + [[-1.0, 1.0]],
                       outer_box=fam.outer_box + [[-2.0, 2.0]],
                       periodic=f.periodic)


def precompose_fpd(fam, components):
    """Precompose with the fiber-preserving map (x, e) -> (x, phi_x(e)).

    `components` are N expression strings (or Exprs) in the family's
    variables giving phi_x(e); the map must be the identity outside the
    outer box and have nonsingular fiber Jacobian (both sample-checked).
    """
    if fam.quad_tail:
        raise FamilyError("stabilized fibers are handled analytically; "
                          "apply the fiber twist before stabilizing")
    n, N = fam.n, fam.N
    layout = VarLayout(n, N)
    phi = []
    for comp in components:
        e = parse(comp, layout) if isinstance(comp, str) else comp
        phi.append(fold(e))
    if len(phi) != N:
        raise FamilyError("need %d fiber components, got %d" % (N, len(phi)))

    rng = np.random.default_rng(0)
    # identity outside the outer box
    ext = _sample_exterior(fam.outer_box, FPD_SAMPLES, rng)
    for k, p in enumerate(phi):
        pf = ex.compile_value(p, fam.dim, vector=True)
        resid = np.max(np.abs(pf(ext) - ext[:, n + k]))
        if resid > 1e-12:
            raise FamilyError("fiber map is not the identity outside the outer box "
                              "(component %d, residual %.3e)" % (k + 1, resid))
    # nonsingular fiber Jacobian inside
    inside = np.column_stack([rng.uniform(lo, hi, FPD_SAMPLES) for lo, hi in fam.outer_box])
    jac = np.empty((FPD_SAMPLES, N, N))
    for k, p in enumerate(phi):
        for m in range(N):
            d = fold(ex.diff(p, n + m))
            jac[:, k, m] = ex.compile_value(d, fam.dim, vector=True)(inside)
    dets = np.abs(np.linalg.det(jac))
    if np.min(dets) < 1e-8:
        bad = inside[int(np.argmin(dets))]
        raise FamilyError("fiber map Jacobian is singular near %r" % bad.tolist())

    mapping = {n + k: phi[k] for k in range(N)}
    new_expr = subst(fam.field.expr_part, mapping)
    field = ScalarField(fam.dim, new_expr, fam.field.quad_blocks,
                        tag="F", shift=fam.field.shift,
                        inner_box=fam.inner_box, outer_box=fam.outer_box,
                        periodic=fam.field.periodic)
    return GeneratingFamily(n, N, fam.core, fam.slope, fam.inner_box,
                            fam.outer_box, quad_tail=(),
                            field=field, label=fam.label + "~fpd")


def morse_mode_fields(f, g, n):
    """Morse validation mode: (f, g, f+g) as periodic fields on T^n."""
    names = ["x%d" % (i + 1) for i in range(n)]
    fe = parse(f, names) if isinstance(f, str) else f
    ge = parse(g, names) if isinstance(g, str) else g
    box = [[0.0, 1.0]] * n
    mk = lambda e, tag: ScalarField(n, e, tag=tag, shift=0,
                                    inner_box=box, outer_box=box, periodic=True)
    return mk(fe, "morse-h1"), mk(ge, "morse-h2"), mk(Add(fe, ge), "morse-h3")


# ---------------------------------------------------------------------------
# Config assembly

def family_from_config(cfg):
    """Build a family from a checked config dict (see `pipeline.SECTIONS`).

    Order of application: fiber twist first (it needs the un-stabilized
    fiber), then stabilizations.
    """
    base = cfg.get("base", "euclidean")
    fam = GeneratingFamily(cfg["n"], cfg["N"], cfg["core"], cfg["slope"],
                           cfg["inner_box"], cfg["outer_box"], base=base,
                           label=cfg.get("label", "family"))
    if "fpd" in cfg:
        fam = precompose_fpd(fam, cfg["fpd"]["components"])
    for sign in cfg.get("stabilize", []):
        fam = stabilize(fam, sign)
    return fam
