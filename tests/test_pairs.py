"""Close-pair search and the root deduplication built on it, against brute
force."""

import math
import tracemalloc

import numpy as np
import pytest

from gftrees import critical as cr
from gftrees import pairs as pa


def brute_pairs(P, r, periodic):
    """Every (i, j), i < j, at distance at most r, one pair at a time."""
    P = P.tolist()
    out = []
    for i in range(len(P)):
        for j in range(i + 1, len(P)):
            d = [abs(a - b) for a, b in zip(P[i], P[j])]
            if periodic:
                d = [min(x, 1.0 - x) for x in d]
            if math.hypot(*d) <= r:
                out.append((i, j))
    return out


def brute_dedup(P, r, periodic):
    """Cluster means of the components of the brute-force pair graph, in
    the order of each component's first point."""
    pts = cr._wrap_unit(P) if periodic else P
    comp = list(range(len(pts)))
    for i, j in brute_pairs(pts, r, periodic):
        old, new = comp[j], comp[i]
        comp = [new if c == old else c for c in comp]
    groups = {}
    for i, c in enumerate(comp):
        groups.setdefault(c, []).append(i)
    return np.array([cr._cluster_mean(pts[idx], periodic)
                     for idx in sorted(groups.values())])


def clustered(rng, D, periodic, n_clusters=12, size=6, r=0.05):
    """Clusters whose members lie about 0.7 r apart around random centers,
    a third of them on the seam of the first coordinate, plus lone points."""
    centers = rng.random((n_clusters, D))
    centers[: n_clusters // 3, 0] = 0.0
    spread = r / (2.0 * math.sqrt(D))
    P = np.repeat(centers, size, axis=0) + rng.normal(0.0, spread, (n_clusters * size, D))
    P = np.vstack([P, rng.random((10, D))])
    if periodic:
        return cr._wrap_unit(P)
    return P


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("D", range(1, 11))
def test_pairs_and_dedup_match_brute_force_on_clustered_sets(D, periodic):
    rng = np.random.default_rng(100 * D + periodic)
    P = clustered(rng, D, periodic)
    pairs = pa.pairs_within(P, 0.05, periodic)
    assert pairs == brute_pairs(P, 0.05, periodic)
    assert len(pairs) > len(P) // 4
    got = cr._dedup(P, 0.05, periodic)
    want = brute_dedup(P, 0.05, periodic)
    assert 1 < len(got) < len(P)
    assert np.array_equal(got, want)


def test_a_cluster_on_the_corner_of_two_seams_is_one_root():
    eps = 1e-9
    P = np.array([[eps, eps, 0.5], [1 - eps, eps, 0.5], [eps, 1 - eps, 0.5],
                  [1 - eps, 1 - eps, 0.5], [0.5, 0.5, 0.5]])
    assert pa.pairs_within(P, 1e-6, True) == brute_pairs(P, 1e-6, True) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert pa.pairs_within(P, 1e-6, False) == brute_pairs(P, 1e-6, False) == []
    got = cr._dedup(P, 1e-6, True)
    assert np.array_equal(got, brute_dedup(P, 1e-6, True))
    assert got.shape == (2, 3)
    assert all(0.0 <= x < 1.0 and min(x, 1.0 - x) < 1e-8 for x in got[0, :2])
    assert got[1].tolist() == [0.5, 0.5, 0.5]


@pytest.mark.parametrize("periodic", [False, True])
def test_a_pair_at_distance_exactly_r_is_kept_and_one_just_above_is_not(periodic):
    # dyadic coordinates: every distance below is exact; across the seam
    # 0.125 and 0.75 are 0.375 apart, in the plane 0.625
    r = 0.375 if periodic else 0.625
    above = np.nextafter(r, 1.0)
    P = np.array([[0.125, 0.5], [0.75, 0.5], [0.125, 0.5 + r], [0.125, 0.5 - above]])
    assert brute_pairs(P[:2], r, periodic) == [(0, 1)]
    assert pa.pairs_within(P, r, periodic) == brute_pairs(P, r, periodic)
    assert (0, 1) in pa.pairs_within(P, r, periodic)
    assert (0, 2) in pa.pairs_within(P, r, periodic)
    assert (0, 3) not in pa.pairs_within(P, r, periodic)
    assert (0, 3) in pa.pairs_within(P, above, periodic)
    assert pa.pairs_within(P[:2], np.nextafter(r, 0.0), periodic) == []


def test_periodic_points_outside_the_unit_cube_are_refused():
    with pytest.raises(ValueError):
        pa.pairs_within(np.array([[0.5], [1.0]]), 0.1, True)
    with pytest.raises(ValueError):
        pa.pairs_within(np.array([[-1e-17], [0.5]]), 0.1, True)


def test_five_thousand_roots_dedup_in_row_blocks():
    """5,000 roots in 1,000 clusters of 5: the search never holds an n x n
    array, let alone n x n x D (200 MB and 600 MB here)."""
    rng = np.random.default_rng(5)
    centers = rng.random((1000, 3))
    P = cr._wrap_unit(np.repeat(centers, 5, axis=0) + rng.normal(0.0, 1e-8, (5000, 3)))
    tracemalloc.start()
    try:
        pairs = pa.pairs_within(P, 1e-6, True)
        got = cr._dedup(P, 1e-6, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5000 * 5000 * 8 / 8
    assert len(pairs) == 1000 * 10
    assert all(j // 5 == i // 5 for i, j in pairs)
    assert got.shape == (1000, 3)
    off = got - centers
    assert np.abs(off - np.round(off)).max() < 1e-7


def test_nearest_distances_match_brute_force():
    P = np.random.default_rng(3).standard_normal((300, 4))
    want = [min(math.dist(p, q) for j, q in enumerate(P.tolist()) if j != i)
            for i, p in enumerate(P.tolist())]
    assert np.allclose(pa.nearest_distances(P), want, rtol=1e-15, atol=0)
