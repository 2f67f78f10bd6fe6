"""Family construction: cutoff blending, difference fields, extensions,
stabilization, and fiber twists."""

import numpy as np
import pytest

from gftrees import continuation as ct
from gftrees import family as fa
from gftrees import pipeline as pl

PAIRS = ((1, 2), (2, 3), (1, 3))


@pytest.fixture
def unknot_family(unknot_config):
    return fa.family_from_config(unknot_config["family"])


def test_config_bookkeeping(unknot_family):
    fam = unknot_family
    assert (fam.n, fam.N, fam.N0) == (1, 1, 1)
    assert fam.dim == 2
    assert fam.label == "unknot"
    assert list(fam.slope) == [1.0]
    assert fam.quad_tail == ()


def test_family_is_linear_outside_the_outer_box(unknot_family):
    F = unknot_family.field
    # outside the outer box the cutoff has fully switched to slope . e
    assert F.value([3.0, 2.5]) == pytest.approx(2.5, abs=1e-12)
    assert F.value([-2.6, -1.0]) == pytest.approx(-1.0, abs=1e-12)
    assert F.value([0.0, 3.5]) == pytest.approx(3.5, abs=1e-12)
    assert unknot_family.check_exterior_linearity(seed=3) < 1e-12


def test_family_equals_core_inside_the_inner_box(unknot_family):
    F = unknot_family.field
    core = lambda x, e: e ** 3 / 3 + (x * x - 1) * e
    for x, e in [(0.0, 1.0), (0.5, -0.8), (-1.2, 1.7), (1.4, 0.0)]:
        assert F.value([x, e]) == pytest.approx(core(x, e), abs=1e-12)


def test_difference_field_shape_and_values(unknot_family):
    w = unknot_family.difference()
    assert w.dim == 3          # (x, e, e')
    assert w.shift == 1        # grading = index - N
    F = unknot_family.field
    for x, e, ep in [(0.0, 1.0, -1.0), (0.4, 0.3, 0.9), (-1.1, -0.2, 0.5)]:
        assert w.value([x, e, ep]) == pytest.approx(
            F.value([x, e]) - F.value([x, ep]), abs=1e-12)


def test_extension_dimensions_and_grading_shifts(unknot_family):
    Q = fa.QuadraticLike.scaled_identity(1, 0.05)
    exts = {pq: fa.extend(unknot_family, pq, Q) for pq in PAIRS}
    N = unknot_family.N
    for (i, j), f in exts.items():
        assert f.dim == unknot_family.n + 3 * N
        assert f.shift == (j - i) * N


def test_three_term_overlap_identity(unknot_family):
    """w12 + w23 - w13 equals the sum of the three stabilizing terms."""
    lam = 0.05
    Q = fa.QuadraticLike.scaled_identity(1, lam)
    w12, w23, w13 = (fa.extend(unknot_family, pq, Q) for pq in PAIRS)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, a, b, c = rng.uniform(-1.3, 1.3, 4)
        combo = w12.value([x, a, b, c]) + w23.value([x, a, b, c]) \
            - w13.value([x, a, b, c])
        assert combo == pytest.approx(lam * (a * a + b * b + c * c), abs=1e-12)
    resid = fa.jump_identity_residual(w12, w23, w13, Q, unknot_family, seed=1)
    assert resid < 1e-9


def test_stabilization_bookkeeping(unknot_family):
    st = fa.stabilize(unknot_family, "+")
    assert (st.N, st.N0) == (2, 1)
    assert st.quad_tail == (1,)
    assert st.inner_box == [[-1.5, 1.5], [-2.0, 2.0], [-1.0, 1.0]]
    assert st.outer_box == [[-2.5, 2.5], [-3.0, 3.0], [-2.0, 2.0]]
    both = fa.stabilize(st, "-")
    assert both.quad_tail == (1, -1)
    with pytest.raises(fa.FamilyError):
        fa.stabilize(unknot_family, "x")


def test_stabilized_difference_restricts_to_the_base(unknot_family):
    w = unknot_family.difference()
    ws = fa.stabilize(unknot_family, "+").difference()
    assert ws.dim == 5  # (x, e, u, e', u')
    # the new slots enter as u^2 - u'^2 and nothing else
    assert dict(ws.quad_blocks) == {2: 1.0, 4: -1.0}
    for x, e, ep in [(0.0, 0.5, -0.5), (0.7, 1.1, 0.2)]:
        assert ws.value([x, e, 0.0, ep, 0.0]) == pytest.approx(
            w.value([x, e, ep]), abs=1e-12)
        assert ws.value([x, e, 0.3, ep, 0.1]) == pytest.approx(
            w.value([x, e, ep]) + 0.09 - 0.01, abs=1e-12)


def test_negative_stabilization_flips_the_slot_sign(unknot_family):
    wm = fa.stabilize(unknot_family, "-").difference()
    assert dict(wm.quad_blocks) == {2: -1.0, 4: 1.0}


def test_fiber_twist_keeps_critical_values(unknot_config):
    cfg = dict(unknot_config["family"])
    cfg["fpd"] = {"components": ["e1 + 0.3*bump(e1)*bump(x1)"]}
    twisted = fa.family_from_config(cfg)
    plain = fa.family_from_config(unknot_config["family"])
    # same function up to fiber reparametrization: identical values along
    # phi, hence identical critical values
    F0, F1 = plain.field, twisted.field
    for x, e in [(0.0, 0.5), (0.3, -0.4), (1.2, 0.1)]:
        phi_e = e + 0.3 * F_bump(e) * F_bump(x)
        assert F1.value([x, e]) == pytest.approx(F0.value([x, phi_e]), abs=1e-10)


def F_bump(t):
    """Reference plateau window: 1 on [-1,1], 0 beyond |t|=2, quintic ramp."""
    a = abs(t)
    if a <= 1.0:
        return 1.0
    if a >= 2.0:
        return 0.0
    s = a - 1.0
    return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s ** 2)


def test_fiber_twist_rejects_non_identity_tails(unknot_family):
    with pytest.raises(fa.FamilyError, match="identity outside"):
        fa.precompose_fpd(unknot_family, ["e1 + 0.1*x1"])


def test_fiber_twist_rejects_singular_jacobians(unknot_family):
    with pytest.raises(fa.FamilyError, match="singular"):
        fa.precompose_fpd(unknot_family, ["e1 - bump(e1)*bump(x1)*e1"])


def test_fiber_twist_requires_unstabilized_fiber(unknot_family):
    st = fa.stabilize(unknot_family, "+")
    with pytest.raises(fa.FamilyError, match="before stabilizing"):
        fa.precompose_fpd(st, ["e1 + 0.3*bump(e1)*bump(x1)", "e2"])
    with pytest.raises(fa.FamilyError, match="components"):
        fa.precompose_fpd(unknot_family.__class__(
            unknot_family.n, unknot_family.N, unknot_family.core,
            unknot_family.slope, unknot_family.inner_box,
            unknot_family.outer_box), ["e1", "e1"])


def test_config_applies_twist_before_stabilizing(unknot_config):
    cfg = dict(unknot_config["family"])
    cfg["fpd"] = {"components": ["e1 + 0.3*bump(e1)*bump(x1)"]}
    cfg["stabilize"] = ["+"]
    fam = fa.family_from_config(cfg)
    assert fam.N == 2 and fam.quad_tail == (1,)


def test_torus_base_difference_is_rejected():
    with pytest.raises(fa.FamilyError, match="torus"):
        tor = fa.GeneratingFamily(
            1, 1, "e1^3/3 + (cos(2*pi*x1) - 0.5)*e1", [1],
            [[0.0, 1.0], [-2, 2]], [[-0.5, 1.5], [-3, 3]], base="torus")
        tor.difference()


def test_box_nesting_is_enforced():
    with pytest.raises(fa.FamilyError, match="inner box"):
        fa.GeneratingFamily(1, 1, "e1", [1],
                            [[-2, 2], [-2, 2]], [[-2, 2], [-3, 3]])


def test_quadratic_term_minimum_check():
    good = fa.QuadraticLike.scaled_identity(2, 0.05)
    assert good.check_minimum(rng=np.random.default_rng(0))
    saddle = fa.QuadraticLike(2, fa.ScalarField(2, None, [(0, 1.0), (1, -1.0)]))
    with pytest.raises(fa.FamilyError, match="positive definite"):
        saddle.check_minimum(rng=np.random.default_rng(0))


def test_morse_mode_fields_are_periodic_and_summed():
    f1, f2, f3 = fa.morse_mode_fields(
        "cos(2*pi*x1) + 0.3*cos(2*pi*x2)", "cos(2*pi*x2) + 0.3*cos(2*pi*x1)", 2)
    for f in (f1, f2, f3):
        assert f.periodic and f.dim == 2 and f.shift == 0
        assert f.inner_box == [[0.0, 1.0], [0.0, 1.0]]
    for z in ([0.3, 0.7], [0.1, 0.9], [0.5, 0.5]):
        assert f3.value(z) == pytest.approx(f1.value(z) + f2.value(z), abs=1e-12)


def test_blend_annulus_keeps_a_gradient_floor(unknot_family):
    w = unknot_family.difference()
    assert fa.blend_annulus_floor(w) > 1e-6


def _edge_grid(field, base=16, seed=0):
    """Random rows around the outer box, then each row with one coordinate
    moved onto every edge of its inner and outer box, a float step either
    side of that edge, and past both ends."""
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in field.outer_box])
    hi = np.array([b[1] for b in field.outer_box])
    P = rng.uniform(lo - 0.3, hi + 0.3, (base, field.dim))
    rows = [P]
    for k in range(field.dim):
        edges = sorted({*field.inner_box[k], *field.outer_box[k]})
        for v in [edges[0] - 1.0, edges[-1] + 1.0] + [
                x for e in edges
                for x in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]:
            moved = P.copy()
            moved[:, k] = v
            rows.append(moved)
    return np.concatenate(rows)


@pytest.mark.parametrize("which", ["w", "w_{1,2;3}", "W_{1,2;3}", "torus f+g"])
def test_vector_flavours_return_the_scalar_rows(which, unknot_config,
                                                unknot_moved_config):
    """Row for row, bit for bit, also past VEC_ROWS rows: the edge grid
    tiled over two whole row blocks and a ragged third.  Both outputs of
    `hess_vec` are checked, the gradient against the scalar `grad` rows;
    w_{1,2;3} and W_{1,2;3} carry a quadratic block, added to both."""
    fam0 = fa.family_from_config(unknot_config["family"])
    fam1 = fa.family_from_config(unknot_moved_config["family"])
    Q = fa.QuadraticLike.scaled_identity(fam0.N, 0.15)
    if which == "w":
        field = fam0.difference()
    elif which == "w_{1,2;3}":
        field = fa.extend(fam0, (1, 2), Q)
    elif which == "W_{1,2;3}":
        field = ct.blend_field(fa.extend(fam0, (1, 2), Q),
                               fa.extend(fam1, (1, 2), Q), 0.1)
    else:
        field = fa.morse_mode_fields(pl.DEMO_MORSE["f"], pl.DEMO_MORSE["g"],
                                     pl.DEMO_MORSE["n"])[2]
    Z = _edge_grid(field)
    rows = [list(z) for z in Z]
    reps = -(-(2 * fa.VEC_ROWS + 1) // len(Z))
    tiled = np.tile(Z, (reps, 1))[:2 * fa.VEC_ROWS + len(Z) // 2]
    assert len(tiled) % fa.VEC_ROWS != 0 and len(tiled) > 2 * fa.VEC_ROWS
    assert (field.quad_blocks != ()) == (which in ("w_{1,2;3}", "W_{1,2;3}"))
    bits = lambda a: np.asarray(a, dtype=float).view(np.int64)
    for vec, scalar in ((field.value_vec, field.value),
                        (field.grad_vec, field.grad),
                        (lambda Z: field.hess_vec(Z)[0], field.grad),
                        (lambda Z: field.hess_vec(Z)[1], field.hess)):
        want = bits([scalar(z) for z in rows])
        assert np.array_equal(bits(vec(Z)), want)
        got = bits(vec(tiled))
        assert np.array_equal(got, np.concatenate([want] * reps)[:len(tiled)])


def test_a_field_derives_its_partials_once_for_both_flavours(unknot_family,
                                                             monkeypatch):
    calls = []
    for name in ("grad_exprs", "hess_exprs"):
        orig = getattr(fa.ex, name)
        monkeypatch.setattr(fa.ex, name, lambda *a, _o=orig, _n=name:
                            calls.append(_n) or _o(*a))
    w = unknot_family.difference()
    z = [0.1, -0.4, 0.7]
    w.grad(z)
    w.hess(z)
    w.grad_vec(np.array([z]))
    w.hess_vec(np.array([z]))
    assert calls == ["grad_exprs", "hess_exprs"]
