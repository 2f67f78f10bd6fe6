"""Critical points of difference fields: detection, labelling, embeddings.

The chord values asserted here come from closed forms, not from the
package: for a fiber-cubic family e^3/3 + c(x)*e the chords sit over the
critical points of c with c < 0, at value (4/3)*(-c)^(3/2).
"""

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
