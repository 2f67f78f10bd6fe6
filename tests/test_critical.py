"""Critical points of difference fields: detection, labelling, embeddings.

The chord values asserted here come from closed forms, not from the
package: for a fiber-cubic family e^3/3 + c(x)*e the chords sit over the
critical points of c with c < 0, at value (4/3)*(-c)^(3/2).
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gftrees import critical as cr
from gftrees import family as fa

PAIRS = ((1, 2), (2, 3), (1, 3))


def cubic_chord_value(c):
    """Difference of the two fiber critical values of e^3/3 + c*e (c < 0)."""
    s = (-c) ** 0.5
    return 4.0 / 3.0 * (-c) ** 1.5, s


def unknot_parts(unknot_config):
    fam = fa.family_from_config(unknot_config["family"])
    w = fam.difference()
    crits = cr.find_critical_points(w)
    return fam, w, crits


def test_unknot_has_exactly_one_chord(unknot_config):
    _, _, crits = unknot_parts(unknot_config)
    chords = cr.positive_points(crits)
    assert len(chords) == 1
    (p,) = chords
    # exact rational oracle: F(0,e) = e^3/3 - e at e = -1 minus e = +1
    F = lambda e: Fraction(e, 1) ** 3 / 3 - e
    expected = F(-1) - F(1)
    assert expected == Fraction(4, 3)
    assert p.value == pytest.approx(float(expected), abs=1e-9)
    assert p.morse_index == 3
    assert p.grading == 2
    assert p.coords == pytest.approx([0.0, -1.0, 1.0], abs=1e-8)


def test_unknot_negative_partner_and_no_spurious_roots(unknot_config):
    _, _, crits = unknot_parts(unknot_config)
    # the only other surviving root is the mirror chord at -4/3; everything
    # on {e = e'} is filtered as part of the degenerate zero level
    assert len(crits) == 2
    values = sorted(p.value for p in crits)
    assert values[0] == pytest.approx(-4.0 / 3.0, abs=1e-9)
    assert values[1] == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_ids_are_value_sorted(unknot_config):
    _, _, crits = unknot_parts(unknot_config)
    assert [p.id for p in crits] == ["c0", "c1"]
    assert crits[0].value < crits[1].value


def test_multichord_values_match_the_polynomial_oracle(multi_config):
    """Chords of the double-well family against companion-matrix roots."""
    fam = fa.family_from_config(multi_config["family"])
    chords = cr.positive_points(cr.find_critical_points(fam.difference()))

    # c(x) = 0.5*(x^2-1)^2 - 1 + 0.1*x; chords over roots of c'(x)
    c = np.poly1d([0.5, 0, -1.0, 0.1, -0.5])      # expanded coefficient
    roots = sorted(float(r.real) for r in np.roots(c.deriv().coefficients)
                   if abs(r.imag) < 1e-12)
    assert len(roots) == 3
    expected = []
    for x in roots:
        cv = float(c(x))
        assert cv < 0  # all three sit below the zero level
        val, _ = cubic_chord_value(cv)
        # index: base direction contributes iff c has a local minimum
        grading = 2 if float(c.deriv(2)(x)) > 0 else 1
        expected.append((round(val, 9), grading))
    got = sorted((round(p.value, 9), p.grading) for p in chords)
    assert len(got) == 3
    for (ev, eg), (gv, gg) in zip(sorted(expected), got):
        assert gv == pytest.approx(ev, abs=1e-8)
        assert gg == eg


def test_grid_refinement_does_not_change_the_answer(multi_config):
    fam = fa.family_from_config(multi_config["family"])
    w = fam.difference()
    coarse = cr.find_critical_points(w, grid_density=7)
    fine = cr.find_critical_points(w, grid_density=14)
    assert len(coarse) == len(fine)
    for a, b in zip(coarse, fine):
        assert a.id == b.id and a.morse_index == b.morse_index
        assert a.value == pytest.approx(b.value, abs=1e-9)
        assert a.coords == pytest.approx(b.coords, abs=1e-7)


def test_degenerate_roots_are_a_hard_error():
    from gftrees import expr as ex
    node = ex.parse("x1^2 - x2^4 + 1", ex.VarLayout(2, 0))
    field = fa.ScalarField(2, node, inner_box=[[-1, 1], [-1, 1]],
                           outer_box=[[-2, 2], [-2, 2]])
    with pytest.raises(cr.DegenerateRootError, match="not generic"):
        cr.find_critical_points(field)


def test_a_field_without_an_inner_box_is_refused():
    from gftrees import expr as ex
    field = fa.ScalarField(1, ex.parse("x1^2 + 1", ex.VarLayout(1, 0)))
    with pytest.raises(ValueError, match="carries no box"):
        cr.find_critical_points(field)


def test_a_cluster_mean_off_the_roots_is_refused():
    from gftrees import expr as ex
    # f' = x (x - 1) (x - 3)
    node = ex.parse("x1^4/4 - 4*x1^3/3 + 3*x1^2/2 + 1", ex.VarLayout(1, 0))
    field = fa.ScalarField(1, node, inner_box=[[-1, 4]], outer_box=[[-2, 5]])
    roots = cr.find_critical_points(field)
    assert [p.coords[0] for p in roots] == pytest.approx([3.0, 0.0, 1.0], abs=1e-9)
    # a dedup radius of 1.5 merges the roots 0 and 1 into their mean 0.5,
    # a regular point of nonzero value and nonzero curvature
    with pytest.raises(RuntimeError, match=r"\[0\.5\] has \|grad\| 0\.625 "):
        cr.find_critical_points(field, tolerances={"tol_dedup": 1.5})


def test_no_chords_is_a_named_error():
    from gftrees import expr as ex
    # only negative critical values: -(x^2) style single max at 0
    node = ex.parse("0 - x1^2 - x2^2 - 1", ex.VarLayout(2, 0))
    field = fa.ScalarField(2, node, inner_box=[[-1, 1], [-1, 1]],
                           outer_box=[[-2, 2], [-2, 2]])
    crits = cr.find_critical_points(field)
    with pytest.raises(cr.NoChordsError):
        cr.rho_and_perturbation_bound(crits, [field], [[-1, 1], [-1, 1]])


def test_zero_value_filter_is_optional():
    from gftrees import expr as ex
    node = ex.parse("x1^2 - x2^2", ex.VarLayout(2, 0))
    field = fa.ScalarField(2, node, inner_box=[[-1, 1], [-1, 1]],
                           outer_box=[[-2, 2], [-2, 2]])
    assert cr.find_critical_points(field) == []
    kept = cr.find_critical_points(field, exclude_zero_value=False)
    assert len(kept) == 1 and kept[0].morse_index == 1


def test_periodic_dedup_averages_across_the_seam():
    got = cr._dedup(np.array([[1e-9, 0.3], [1 - 1e-9, 0.3]]), 1e-6, True)
    assert got.shape == (1, 2)
    assert 0.0 <= got[0, 0] < 1.0
    assert min(got[0, 0], 1.0 - got[0, 0]) < 1e-8
    assert got[0, 1] == 0.3
    # a cluster away from the seam keeps its plain mean, bit for bit
    inner = np.array([[0.25, 0.3], [0.25 + 1e-7, 0.3 + 1e-7]])
    assert np.array_equal(cr._dedup(inner, 1e-6, True), [inner.mean(axis=0)])


def test_periodic_dedup_accepts_points_just_below_zero():
    got = cr._dedup(np.array([[-1e-17, 0.3]]), 1e-6, True)
    assert got.tolist() == [[0.0, 0.3]]


def test_periodic_newton_polish_stays_below_one():
    from gftrees import expr as ex
    # the maximum sits at x = -1e-17, which np.mod rounds up to 1.0
    node = ex.parse("cos(2*pi*(x1 + 1e-17))", ex.VarLayout(1, 0))
    field = fa.ScalarField(1, node, inner_box=[[0, 1]], outer_box=[[0, 1]],
                           periodic=True)
    got = cr._newton_polish(field, np.array([[-1e-3], [0.99]]), [[0, 1]])
    assert len(got) == 2
    assert np.all((got >= 0.0) & (got < 1.0))


def test_singular_rows_get_nan_and_the_rest_their_own_solve():
    """Rows whose solve alone fails get NaN; every other row gets the bits
    of its own solve."""
    rng = np.random.default_rng(3)
    H = rng.standard_normal((37, 3, 3))
    G = rng.standard_normal((37, 3))
    H[0] = 0.0
    H[5, 1] = 2.0 * H[5, 0]
    H[6] = rng.integers(-2, 3, (3, 2)) @ rng.integers(-2, 3, (2, 3))
    H[36, :, 2] = 0.0
    got = cr._solve_rows(H, G)
    singular = []
    for b in range(len(G)):
        try:
            want = np.linalg.solve(H[b], G[b])
        except np.linalg.LinAlgError:
            singular.append(b)
            assert np.isnan(got[b]).all()
        else:
            assert got[b].tobytes() == want.tobytes()
    assert singular == [0, 5, 6, 36]


def embed_parts(config):
    fam = fa.family_from_config(config["family"])
    w = fam.difference()
    crits = cr.find_critical_points(w)
    rho = min(p.value for p in crits if p.value > 0)
    from gftrees.pipeline import choose_lambda
    Q = fa.QuadraticLike.scaled_identity(fam.N, choose_lambda(fam, rho))
    exts = {pq: fa.extend(fam, pq, Q) for pq in PAIRS}
    return fam, crits, exts


@pytest.mark.parametrize("pair", PAIRS)
def test_embedding_preserves_value_and_shifts_index(unknot_config, pair):
    fam, crits, exts = embed_parts(unknot_config)
    i, j = pair
    for p in crits:
        img = cr.iota(p, pair, fam, exts[pair])
        assert img.id == p.id
        assert img.value == pytest.approx(p.value, abs=1e-9)
        assert img.morse_index == p.morse_index + ((j - i) - 1) * fam.N
        assert img.grading == p.grading
        # the unused fiber slot holds the zero vector
        (k,) = set((1, 2, 3)) - {i, j}
        n, N = fam.n, fam.N
        sl = img.coords[n + (k - 1) * N: n + k * N]
        assert np.all(sl == 0.0)


def test_embedding_images_are_all_critical_points(multi_config):
    """Every critical point of each extended field comes from the base."""
    fam, crits, exts = embed_parts(multi_config)
    for pair in PAIRS:
        found = cr.find_critical_points(exts[pair])
        images = sorted(round(cr.iota(p, pair, fam, exts[pair]).value, 8)
                        for p in crits)
        assert sorted(round(q.value, 8) for q in found) == images


def test_perturbation_bound_scales_with_the_gradient(unknot_config):
    fam, crits, exts = embed_parts(unknot_config)
    K = [[-2.5, 2.5], [-3, 3], [-3, 3], [-3, 3]]
    b = cr.rho_and_perturbation_bound(crits, list(exts.values()), K, seed=0)
    assert b.rho == pytest.approx(4.0 / 3.0, abs=1e-8)
    assert b.lipschitz_L > 0
    assert b.delta_pert == pytest.approx(b.rho / (4 * b.lipschitz_L), rel=1e-12)


def test_perturbation_bound_samples_the_gradient_in_row_blocks(multi_config,
                                                              monkeypatch):
    """Multichord's gradient bound reads 20,256 sample rows of three D = 4
    fields.  One `grad_vec` call on all of them kept dozens of row-length
    temporaries alive at once, a 14.4 MB tracemalloc peak; in blocks of
    `VEC_ROWS` the peak is 2.9 MB, mostly the sample itself and the
    gradient rows.  The bound sits between the two.  The bound's L is
    still the largest norm of a scalar `grad` row of the sample."""
    from gftrees.flow import escape_box
    fam, crits, exts = embed_parts(multi_config)
    fields = [exts[pq] for pq in PAIRS]
    K = escape_box(fam.extended_boxes()[1])
    samples = []
    grad_vec = fa.ScalarField.grad_vec
    monkeypatch.setattr(fa.ScalarField, "grad_vec",
                        lambda self, Z: samples.append(Z) or grad_vec(self, Z))
    first = cr.rho_and_perturbation_bound(crits, fields, K, seed=11)
    monkeypatch.undo()
    tracemalloc.start()
    try:
        b = cr.rho_and_perturbation_bound(crits, fields, K, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
    assert [len(P) for P in samples] == [20256] * 3
    norms = [np.linalg.norm([f.grad(z) for z in P.tolist()], axis=1)
             for f, P in zip(fields, samples)]
    assert b.lipschitz_L == first.lipschitz_L == max(map(np.max, norms))


def _newton_every_iteration(field, Z, box, tol_grad=1e-9):
    """_newton_polish without its fixed-point exit: all NEWTON_ITERS steps."""
    Z = np.array(Z, dtype=float)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    span = np.max(hi - lo)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for _ in range(cr.NEWTON_ITERS):
        if len(Z) == 0:
            break
        step = cr._solve_rows(field.hess_vec(Z)[1], field.grad_vec(Z))
        norms = np.linalg.norm(step, axis=1)
        big = norms > 0.25 * span
        step[big] *= (0.25 * span / norms[big])[:, None]
        Z = Z - step
        if field.periodic:
            Z = cr._wrap_unit(Z)
        ok = np.all(np.isfinite(Z), axis=1)
        ok &= np.all(np.abs(Z - mid) < 3.0 * half + 1.0, axis=1)
        Z = Z[ok]
    if len(Z) == 0:
        return Z
    good = np.linalg.norm(field.grad_vec(Z), axis=1) < tol_grad
    inside = np.all((Z >= lo - 1e-6) & (Z <= hi + 1e-6), axis=1) | field.periodic
    return Z[good & inside]


def _newton_case(case, unknot_config, unknot_moved_config):
    from gftrees import continuation as ct
    from gftrees.pipeline import DEMO_MORSE
    w = fa.family_from_config(unknot_config["family"]).difference()
    if case == "unknot w":
        return w
    if case == "isotopy slice t=0.25":
        moved = fa.family_from_config(unknot_moved_config["family"]).difference()
        return ct.slice_field(w, moved, 0.25)
    return fa.morse_mode_fields(DEMO_MORSE["f"], DEMO_MORSE["g"], 2)[2]


@pytest.mark.parametrize("case,most_grads", [
    ("unknot w", 20), ("isotopy slice t=0.25", 61), ("torus f+g", 20)])
def test_newton_polish_stops_at_a_fixed_point_with_the_same_bits(
        case, most_grads, unknot_config, unknot_moved_config):
    """The early exit returns the bits of all 60 iterations; the t = 0.25
    slice has rows of period 2, so it runs every iteration.  The polish
    reads the gradient from `hess_vec` alone, one call per iteration and
    one for the final filter, with the bits of the reference's
    `grad_vec`."""
    field = _newton_case(case, unknot_config, unknot_moved_config)
    seeds = cr._seed_grid(field, field.inner_box, 7)
    want = _newton_every_iteration(field, seeds, field.inner_box)
    calls = []
    hess_vec = field.hess_vec
    field.hess_vec = lambda Z: calls.append(len(Z)) or hess_vec(Z)
    field.grad_vec = lambda Z: pytest.fail("grad_vec called on %d rows" % len(Z))
    got = cr._newton_polish(field, seeds, field.inner_box)
    assert len(want) > 0
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(calls) <= most_grads
    if most_grads == 61:
        assert len(calls) == 61
