"""Cochain complexes over Z2: identities, cohomology rings, comparisons."""

import numpy as np
import pytest

from gftrees import complexes as cx
from t2_oracle import degree1_square_and_cross, t2_complex, t2_ring

G = cx.Generator


def chain(*gens):
    return [G(*g) for g in gens]


def test_differential_must_raise_grading_and_value():
    gens = chain(("a", 1, 1.0), ("b", 2, 2.0), ("c", 3, 1.5))
    with pytest.raises(ValueError, match="grading"):
        cx.ChordComplex(gens, {"a": {"c"}}, {})
    with pytest.raises(ValueError, match="value"):
        cx.ChordComplex(gens, {"b": {"c"}}, {})


def test_product_entries_must_respect_the_grading_sum():
    gens = chain(("a", 1, 1.0), ("b", 1, 1.5), ("t", 3, 3.0))
    with pytest.raises(ValueError, match="grading sum"):
        cx.ChordComplex(gens, {}, {("a", "b"): {"t"}})


def test_delta_squared_defects_are_reported_as_data():
    gens = chain(("a", 1, 1.0), ("b", 2, 2.0), ("c", 3, 3.0))
    bad = cx.ChordComplex(gens, {"a": {"b"}, "b": {"c"}}, {})
    report = cx.verify_algebra(bad)
    assert not report["pass"]
    assert report["delta_squared_defects"] == [{"source": "a", "target": "c"}]
    with pytest.raises(ValueError, match="delta"):
        cx.cohomology(bad)


def test_leibniz_defects_are_reported_as_data():
    gens = chain(("u", 1, 1.0), ("v", 2, 2.0), ("w", 3, 3.0))
    bad = cx.ChordComplex(gens, {"u": {"v"}}, {("u", "v"): {"w"}})
    report = cx.verify_algebra(bad)
    assert report["delta_squared_defects"] == []
    assert {"pair": ["u", "u"], "target": "w"} in report["leibniz_defects"]
    assert not report["pass"]


def test_a_leibniz_failure_leaves_its_class_product_out():
    # a and b are cocycles, but m2(a, b) = t is not: delta t = s
    gens = chain(("a", 1, 1.0), ("b", 1, 1.5), ("t", 2, 2.0), ("s", 3, 3.0))
    bad = cx.ChordComplex(gens, {"t": {"s"}}, {("a", "b"): {"t"}})
    report = cx.verify_algebra(bad)
    assert report["delta_squared_defects"] == []
    assert report["leibniz_defects"] == [{"pair": ["a", "b"], "target": "s"}]
    assert not report["pass"]
    ring = cx.cohomology(bad)
    assert ring.ranks == {1: 2, 2: 0, 3: 0}
    assert ring.products == {}
    ha, hb = ring.classes[1]
    assert (ha.support, hb.support) == (["a"], ["b"])
    products = cx.cross_product_classes(ring, ring, ring, bad.m2)
    assert products[(ha.label, hb.label)] is None
    assert products[(hb.label, ha.label)] == []


def test_an_undefined_product_is_a_defect_and_never_a_zero():
    # as above, plus a grading-2 cocycle z, so H^2 has rank 1 and an
    # undefined mu2(a, b) could pass for the zero class
    gens = chain(("a", 1, 1.0), ("b", 1, 1.5), ("t", 2, 2.0), ("z", 2, 2.5),
                 ("s", 3, 3.0))
    bad = cx.ChordComplex(gens, {"t": {"s"}}, {("a", "b"): {"t"}})
    ring = cx.cohomology(bad)
    assert ring.ranks == {1: 2, 2: 1, 3: 0}
    ha, hb = ring.classes[1]
    f = cx.induced_map(ring, ring, {g.id: (g.id,) for g in gens})
    squares = {(ca.label, cb.label): (lhs, rhs) for ca, cb, lhs, rhs
               in cx.product_squares(ring, ring, f, f, f)}
    assert squares[(ha.label, hb.label)] == (None, None)
    verdict = cx.compare_rings(ring, ring)
    assert {"pair": [ha.label, hb.label],
            "problem": "image not a cocycle class"} in verdict["product_defects"]
    assert not verdict["pass"]


def test_acyclic_pair_has_no_cohomology():
    gens = chain(("a", 1, 1.0), ("b", 2, 2.0))
    C = cx.ChordComplex(gens, {"a": {"b"}}, {})
    R = cx.cohomology(C)
    assert R.ranks == {1: 0, 2: 0}
    assert sum(R.ranks.values()) == 0


def test_zero_differential_keeps_everything():
    gens = chain(("a", 1, 1.0), ("b", 2, 2.0))
    R = cx.cohomology(cx.ChordComplex(gens, {}, {}))
    assert R.ranks == {1: 1, 2: 1}
    assert [c.support for c in R.classes[1]] == [["a"]]


def test_cancellation_in_a_three_generator_complex():
    """delta(a) = b + b' leaves one degree-2 class, spanned by either b."""
    gens = chain(("a", 1, 0.5), ("b", 2, 1.0), ("b2", 2, 1.5))
    C = cx.ChordComplex(gens, {"a": {"b", "b2"}}, {})
    R = cx.cohomology(C)
    assert R.ranks == {1: 0, 2: 1}
    (cls,) = R.classes[2]
    assert cls.support in (["b"], ["b2"])


def test_torus_cells_satisfy_both_identities():
    report = cx.verify_algebra(t2_complex())
    assert report["pass"], report


def test_torus_cell_ring_has_the_expected_ranks():
    R = t2_ring()
    assert R.ranks == {0: 1, 1: 2, 2: 1}


def test_torus_cell_ring_products():
    R = t2_ring()
    squares, crosses = degree1_square_and_cross(R)
    (top,) = [c.label for c in R.classes[2]]
    assert squares == [[], []]
    # the two cochain products L and U differ by the coboundary of the
    # diagonal edge, so both cross products give the same top class
    assert crosses == [[top], [top]]
    (unit,) = [c.label for c in R.classes[0]]
    for g, cs in R.classes.items():
        for c in cs:
            assert R.products.get((unit, c.label)) == [c.label]
            assert R.products.get((c.label, unit)) == [c.label]


def test_cross_product_classes_with_partial_tables():
    R = t2_ring()
    m2_table = {("a", "b"): {"L"}, ("b", "a"): {"U"}}
    full = cx.cross_product_classes(R, R, R, m2_table)
    computed = {(a, b) for a in "abc" for b in "abc"}
    partial = cx.cross_product_classes(R, R, R, m2_table, computed=computed)
    labels1 = [c.label for c in R.classes[1]]
    (top,) = [c.label for c in R.classes[2]]
    for la in labels1:
        for lb in labels1:
            assert full[(la, lb)] == partial[(la, lb)]
    # products needing the (never computed) unit rows come out unknown
    (unit,) = [c.label for c in R.classes[0]]
    assert partial[(unit, top)] is None
    assert full[(unit, top)] == []  # empty table: honest zero when trusted


def test_compare_rings_accepts_a_relabelled_copy():
    gens1 = chain(("x", 1, 1.0), ("y", 2, 2.0), ("z", 2, 3.0))
    gens2 = chain(("q0", 1, 1.0000001), ("q1", 2, 2.0000001), ("q2", 2, 3.0))
    C1 = cx.ChordComplex(gens1, {"x": {"y"}}, {})
    C2 = cx.ChordComplex(gens2, {"q0": {"q1"}}, {})
    verdict = cx.compare_rings(cx.cohomology(C1), cx.cohomology(C2))
    assert verdict["pass"]
    assert verdict["generator_map"] == {"x": "q0", "y": "q1", "z": "q2"}


def test_compare_rings_sees_differential_mismatches():
    gens = chain(("x", 1, 1.0), ("y", 2, 2.0))
    C1 = cx.ChordComplex(gens, {"x": {"y"}}, {})
    C2 = cx.ChordComplex(gens, {}, {})
    verdict = cx.compare_rings(cx.cohomology(C1), cx.cohomology(C2))
    assert not verdict["pass"]
    assert not verdict["rank_equal"]
    assert verdict["cochain_map_defects"] == [{"generator": "x", "defect": ["y"]}]


def test_compare_rings_sees_product_mismatches():
    R1 = t2_ring()
    stripped = t2_complex()
    bare = cx.ChordComplex(stripped.generators, dict(stripped.delta), {},
                           label="t2-no-products")
    R2 = cx.cohomology(bare)
    ident = {g.id: g.id for g in bare.generators}
    verdict = cx.compare_rings(R1, R2, correspondence=ident)
    assert verdict["rank_equal"]
    assert not verdict["cochain_map_defects"]
    assert verdict["product_defects"]
    assert not verdict["pass"]


def test_compare_rings_requires_an_unambiguous_matching():
    gens1 = chain(("x", 1, 1.0), ("y", 1, 1.0))
    gens2 = chain(("u", 1, 1.0), ("v", 1, 1.0))
    R1 = cx.cohomology(cx.ChordComplex(gens1, {}, {}))
    R2 = cx.cohomology(cx.ChordComplex(gens2, {}, {}))
    with pytest.raises(ValueError, match="unambiguous"):
        cx.compare_rings(R1, R2)
    verdict = cx.compare_rings(R1, R2, correspondence={"x": "u", "y": "v"})
    assert verdict["pass"]


def test_compare_rings_refuses_a_correspondence_that_is_not_a_bijection():
    gens1 = chain(("x", 1, 1.0), ("y", 1, 1.0))
    gens2 = chain(("u", 1, 1.0), ("v", 1, 1.0))
    R1 = cx.cohomology(cx.ChordComplex(gens1, {}, {}))
    R2 = cx.cohomology(cx.ChordComplex(gens2, {}, {}))
    with pytest.raises(ValueError, match="generator y"):
        cx.compare_rings(R1, R2, correspondence={"x": "u"})
    with pytest.raises(ValueError, match="generator y"):
        cx.compare_rings(R1, R2, correspondence={"x": "u", "y": "u"})


def test_compare_rings_refuses_a_correspondence_across_gradings():
    gens1 = chain(("x", 1, 1.0), ("y", 1, 1.0))
    gens2 = chain(("u", 2, 1.0), ("v", 2, 1.0))
    R1 = cx.cohomology(cx.ChordComplex(gens1, {}, {}))
    R2 = cx.cohomology(cx.ChordComplex(gens2, {}, {}))
    with pytest.raises(ValueError, match="grading-preserving.*generator x"):
        cx.compare_rings(R1, R2, correspondence={"x": "u", "y": "v"})


def test_compare_rings_accepts_the_edge_swap_of_the_cell_torus():
    R = t2_ring()
    swap = {"a": "b", "b": "a", "L": "U", "U": "L", "p": "p", "c": "c"}
    verdict = cx.compare_rings(R, R, correspondence=swap)
    assert verdict["pass"], verdict
    assert verdict["generator_map"] == swap


def test_matrix_conventions():
    gens = chain(("a", 1, 1.0), ("b", 2, 2.0), ("b2", 2, 2.5))
    C = cx.ChordComplex(gens, {"a": {"b2"}}, {})
    M = C.delta_matrix(1)
    assert M.shape == (2, 1)      # rows are targets
    assert M[:, 0].tolist() == [0, 1]
    assert C.delta_of(np.array([1], dtype=np.uint8), 1).tolist() == [0, 1]
