"""Close pairs of a small point cloud: the pair search behind root
deduplication and the scan-seed neighbor graph, and the components of
such a pair graph.

Distances are Euclidean, or with `periodic` the minimum image
min(|dx|, 1 - |dx|) in each coordinate of points in [0, 1) (the unit
torus).  The rows go in blocks, so no temporary holds more than about
BLOCK_ENTRIES floats however many points there are.
"""

from __future__ import annotations

import numpy as np

BLOCK_ENTRIES = 1 << 18


def distance_blocks(points, periodic=False):
    """Yield (i0, d) for consecutive row blocks: d[a, j] is the distance
    from point i0 + a to point j, for every j, its squares summed over the
    coordinates left to right."""
    P = np.asarray(points, dtype=float)
    n, D = P.shape
    if periodic and n and (P.min() < 0.0 or P.max() >= 1.0):
        raise ValueError("periodic points must lie in [0, 1)")
    rows = max(1, BLOCK_ENTRIES // max(n, 1))
    for i0 in range(0, n, rows):
        sq = np.zeros((min(rows, n - i0), n))
        for c in range(D):
            dx = np.abs(P[i0:i0 + rows, c, None] - P[None, :, c])
            if periodic:
                dx = np.minimum(dx, 1.0 - dx)
            sq += dx * dx
        yield i0, np.sqrt(sq)


def pairs_within(points, r, periodic=False):
    """Every index pair (i, j) with i < j at distance at most r, ascending."""
    pairs = []
    for i0, d in distance_blocks(points, periodic):
        a, j = np.nonzero(d <= r)
        upper = j > a + i0
        pairs.extend(zip((a[upper] + i0).tolist(), j[upper].tolist()))
    return pairs


def nearest_distances(points):
    """Each point's distance to its nearest other point."""
    out = []
    for i0, d in distance_blocks(points):
        d[np.arange(len(d)), np.arange(i0, i0 + len(d))] = np.inf
        out.append(d.min(axis=1))
    return np.concatenate(out)


def components(n, pairs):
    """Components of the graph on 0..n-1 with edges `pairs` (a union-find),
    each as its ascending index list, ordered by least member."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = sorted((find(a), find(b)))
        parent[rb] = ra
    comps = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return list(comps.values())
