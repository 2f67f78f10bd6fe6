"""The Z2 cochain complex of Reeb chords, its product, and comparisons.

Generators are the positive-value critical points.  delta raises grading
by 1 (counting isolated flow lines); m2 pairs two generators into one of
grading equal to the sum (counting trees).  Cohomology is plain Z2
Gaussian elimination per grading; the induced product mu2 acts on classes
by evaluating m2 on representatives and reducing modulo coboundaries.

Every map of chains -- delta, a continuation matrix, a generator
bijection -- goes one way: `table_matrix` turns it into a Z2 matrix,
`CohomologyRing.coords` solves for class coordinates, and `induced_map` /
`push` carry class coordinates across; `product_squares` feeds both ring
comparisons and the continuation product diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2


@dataclass
class Generator:
    id: str
    grading: int
    value: float


def table_matrix(table, src, dst):
    """uint8 matrix of a {id: target ids} map from the generators `src` to
    the generators `dst`; rows index `dst`, repeated targets cancel."""
    pos = {g.id: i for i, g in enumerate(dst)}
    M = np.zeros((len(dst), len(src)), dtype=np.uint8)
    for j, g in enumerate(src):
        for t in table.get(g.id, ()):
            M[pos[t], j] ^= 1
    return M


class ChordComplex:
    """delta: {id: set of target ids}; m2: {(id1, id2): set of target ids}."""

    def __init__(self, generators, delta, m2, label=""):
        self.generators = [Generator(g.id, g.grading, g.value) for g in generators]
        self.by_id = {g.id: g for g in self.generators}
        self.delta = {k: frozenset(v) for k, v in delta.items() if v}
        self.m2 = {k: frozenset(v) for k, v in m2.items() if v}
        self.label = label
        for src, targets in self.delta.items():
            for t in targets:
                if self.by_id[t].grading != self.by_id[src].grading + 1:
                    raise ValueError("delta entry %s -> %s does not raise grading by 1"
                                     % (src, t))
                if self.by_id[t].value <= self.by_id[src].value:
                    raise ValueError("delta entry %s -> %s does not increase value"
                                     % (src, t))
        for (a, b), targets in self.m2.items():
            for t in targets:
                if self.by_id[t].grading != self.by_id[a].grading + self.by_id[b].grading:
                    raise ValueError("m2 entry (%s,%s) -> %s violates the grading sum"
                                     % (a, b, t))

    def gradings(self):
        return sorted({g.grading for g in self.generators})

    def basis(self, grading):
        return [g for g in self.generators if g.grading == grading]

    def delta_matrix(self, grading):
        """Matrix of delta: C^grading -> C^{grading+1}; rows index targets."""
        return table_matrix(self.delta, self.basis(grading), self.basis(grading + 1))

    def delta_of(self, vec, grading):
        """Image under delta of a Z2 vector in the grading basis."""
        return gf2.asmat(self.delta_matrix(grading) @ vec % 2)[0]

    def as_dict(self):
        return {
            "label": self.label,
            "generators": [{"id": g.id, "grading": g.grading, "value": round(g.value, 12)}
                           for g in self.generators],
            "delta": {k: sorted(v) for k, v in sorted(self.delta.items())},
            "m2": {"%s,%s" % k: sorted(v) for k, v in sorted(self.m2.items())},
        }


def delta_squared_defects(C):
    """Entries of delta^2 that do not vanish over Z2."""
    dd = []
    for g in C.generators:
        acc = {}
        for t in C.delta.get(g.id, ()):
            for tt in C.delta.get(t, ()):
                acc[tt] = acc.get(tt, 0) ^ 1
        for tt, bit in sorted(acc.items()):
            if bit:
                dd.append({"source": g.id, "target": tt})
    return dd


def verify_algebra(C):
    """delta^2 = 0 and the Leibniz identity
    delta(m2(a,b)) + m2(delta a, b) + m2(a, delta b) = 0, over Z2.
    Violations are returned as data, not raised."""
    dd = delta_squared_defects(C)
    leib = []
    for a in C.generators:
        for b in C.generators:
            acc = {}
            for t in C.m2.get((a.id, b.id), ()):
                for tt in C.delta.get(t, ()):
                    acc[tt] = acc.get(tt, 0) ^ 1
            for da in C.delta.get(a.id, ()):
                for tt in C.m2.get((da, b.id), ()):
                    acc[tt] = acc.get(tt, 0) ^ 1
            for db in C.delta.get(b.id, ()):
                for tt in C.m2.get((a.id, db), ()):
                    acc[tt] = acc.get(tt, 0) ^ 1
            for tt, bit in sorted(acc.items()):
                if bit:
                    leib.append({"pair": [a.id, b.id], "target": tt})
    return {
        "delta_squared_defects": dd,
        "leibniz_defects": leib,
        "pass": not dd and not leib,
    }


@dataclass
class CohomologyClass:
    label: str
    grading: int
    vector: np.ndarray          # coefficients in the grading basis
    support: list               # generator ids with coefficient 1


class CohomologyRing:
    def __init__(self, ranks, classes, products, complex_):
        self.ranks = ranks                  # {grading: int}
        self.classes = classes              # {grading: [CohomologyClass]}
        self.products = products            # {(label_a, label_b): [labels]}
        self.complex = complex_

    def reps(self, grading):
        """Class representatives of one grading as the columns of a matrix."""
        cs = self.classes.get(grading, [])
        M = np.zeros((len(self.complex.basis(grading)), len(cs)), dtype=np.uint8)
        for i, c in enumerate(cs):
            M[:, i] = c.vector
        return M

    def coords(self, grading, vec):
        """Coordinates of a cochain in the class basis, modulo coboundaries;
        None when it is not a cocycle."""
        C = self.complex
        if C.delta_of(vec, grading).any():
            return None
        reps = self.reps(grading)
        x = gf2.solve(np.hstack([reps, C.delta_matrix(grading - 1)]), vec)
        if x is None:
            raise RuntimeError("internal error: a cocycle of grading %d is not "
                               "expressible in the class basis" % grading)
        return x[:reps.shape[1]]

    def multiply(self, ga, x, gb, y):
        """mu2 on class coordinates x (grading ga) and y (grading gb)."""
        cs = self.classes.get(ga + gb, [])
        index = {c.label: i for i, c in enumerate(cs)}
        out = np.zeros(len(cs), dtype=np.uint8)
        for ca, bit_a in zip(self.classes.get(ga, []), x):
            for cb, bit_b in zip(self.classes.get(gb, []), y):
                if bit_a and bit_b:
                    for lb in self.products.get((ca.label, cb.label), ()):
                        out[index[lb]] ^= 1
        return out

    def as_dict(self):
        return {
            "ranks": {str(k): v for k, v in sorted(self.ranks.items())},
            "classes": {str(g): [{"label": c.label, "support": c.support}
                                 for c in cs]
                        for g, cs in sorted(self.classes.items())},
            "products": {"%s,%s" % k: sorted(v) for k, v in sorted(self.products.items())},
        }


def cohomology(C):
    """Cohomology ring of the complex; requires delta^2 = 0.  A Leibniz
    failure is not checked here: the products it breaks are left out."""
    dd = delta_squared_defects(C)
    if dd:
        raise ValueError("delta^2 != 0; cohomology is undefined: %r" % dd[:3])
    ranks = {}
    classes = {}
    for g in C.gradings():
        basis = C.basis(g)
        # keep each kernel vector that is independent of the coboundaries
        # and of the vectors kept before it
        span = C.delta_matrix(g - 1).T
        rank = gf2.rank(span)
        picked = []
        for v in gf2.nullspace(C.delta_matrix(g)).T:
            grown = np.vstack([span, v])
            if gf2.rank(grown) > rank:
                picked.append(v)
                span, rank = grown, rank + 1
        ranks[g] = len(picked)
        classes[g] = [CohomologyClass("h%d#%d" % (g, i), g, vec.astype(np.uint8),
                                      [basis[j].id for j in np.nonzero(vec)[0]])
                      for i, vec in enumerate(picked)]

    ring = CohomologyRing(ranks, classes, {}, C)
    ring.products = {k: v for k, v in
                     cross_product_classes(ring, ring, ring, C.m2).items() if v}
    return ring


def cross_product_classes(R1, R2, R3, m2_table, computed=None):
    """Class-level product H(C1) x H(C2) -> H(C3) induced by a chain table
    m2_table[(id1, id2)] = set of target ids in C3.

    `computed`, when given, lists the (id1, id2) pairs whose chain counts
    actually ran; a class product needing an uncomputed pair comes out as
    None instead of a wrong value.  So does a chain product that is not a
    cocycle, which only a Leibniz failure of the table can cause."""
    C3 = R3.complex
    out = {}
    for ga, cas in R1.classes.items():
        for gb, cbs in R2.classes.items():
            gt = ga + gb
            basis3 = C3.basis(gt)
            if not basis3:
                continue
            pos = {g.id: i for i, g in enumerate(basis3)}
            for ca in cas:
                for cb in cbs:
                    pairs = [(a, b) for a in ca.support for b in cb.support]
                    if computed is not None and any(p not in computed for p in pairs):
                        out[(ca.label, cb.label)] = None
                        continue
                    vec = np.zeros(len(basis3), dtype=np.uint8)
                    for pair in pairs:
                        for t in m2_table.get(pair, ()):
                            vec[pos[t]] ^= 1
                    coords = R3.coords(gt, vec)
                    out[(ca.label, cb.label)] = None if coords is None else [
                        c.label for c, bit in zip(R3.classes[gt], coords) if bit]
    return out


# ---------------------------------------------------------------------------
# Induced maps on cohomology

def induced_map(ring0, ring1, table):
    """The map a chain table {id0: target ids in ring1} induces on
    cohomology: {grading: (matrix on class coordinates, mask of the classes
    whose image is a cocycle)}.  Columns outside the mask are zero."""
    out = {}
    for g in sorted(set(ring0.classes) | set(ring1.classes)):
        images = table_matrix(table, ring0.complex.basis(g),
                              ring1.complex.basis(g)) @ ring0.reps(g) % 2
        M = np.zeros((len(ring1.classes.get(g, [])), images.shape[1]),
                     dtype=np.uint8)
        ok = np.zeros(images.shape[1], dtype=bool)
        for i in range(images.shape[1]):
            coords = ring1.coords(g, images[:, i])
            if coords is not None:
                M[:, i], ok[i] = coords, True
        out[g] = (M, ok)
    return out


def push(fmap, grading, coords):
    """Class coordinates pushed through an induced map; None when they
    touch a class whose image is not a cocycle."""
    M, ok = fmap[grading]
    if np.any(coords.astype(bool) & ~ok):
        return None
    return M @ coords % 2


def product_squares(ring0, ring1, f_a, f_b, f_t):
    """(ca, cb, f_t(mu0(a, b)), mu1(f_a a, f_b b)) over pairs of classes of
    ring0 whose product grading exists in ring1; None stands for an image
    that is not a cocycle class."""
    for ga, cas in ring0.classes.items():
        for gb, cbs in ring0.classes.items():
            if ga + gb not in ring1.classes:
                continue
            for x, ca in zip(np.eye(len(cas), dtype=np.uint8), cas):
                for y, cb in zip(np.eye(len(cbs), dtype=np.uint8), cbs):
                    lhs = push(f_t, ga + gb, ring0.multiply(ga, x, gb, y))
                    fa, fb = push(f_a, ga, x), push(f_b, gb, y)
                    rhs = None if fa is None or fb is None else \
                        ring1.multiply(ga, fa, gb, fb)
                    yield ca, cb, lhs, rhs


# ---------------------------------------------------------------------------
# Ring comparisons

def _match_generators(C1, C2, tol_value):
    """Bijection generator-of-C1 -> generator-of-C2 by (grading, value)."""
    used = set()
    mapping = {}
    for g in C1.generators:
        hits = [h for h in C2.generators
                if h.grading == g.grading and abs(h.value - g.value) < tol_value
                and h.id not in used]
        if len(hits) != 1:
            raise ValueError(
                "no unambiguous value/grading matching for generator %s "
                "(grading %d, value %.9g): %d candidates; supply an explicit "
                "correspondence" % (g.id, g.grading, g.value, len(hits)))
        mapping[g.id] = hits[0].id
        used.add(hits[0].id)
    return mapping


def _check_bijection(C1, C2, mapping):
    """Refuse any generator map that is not a grading-preserving bijection."""
    extra = sorted(set(mapping) - set(C1.by_id))
    if extra:
        raise ValueError("correspondence maps %s, which is not a generator"
                         % extra[0])
    used = set()
    for g in C1.generators:
        h = C2.by_id.get(mapping.get(g.id))
        if h is None or h.grading != g.grading or h.id in used:
            raise ValueError(
                "correspondence must be a grading-preserving bijection: "
                "generator %s (grading %d) maps to %r"
                % (g.id, g.grading, mapping.get(g.id)))
        used.add(h.id)
    if len(C2.generators) != len(C1.generators):
        raise ValueError("generator counts differ: %d vs %d"
                         % (len(C1.generators), len(C2.generators)))


def _is_cochain_map(C1, C2, mapping):
    defects = []
    for g in C1.generators:
        img_of_delta = {mapping[t] for t in C1.delta.get(g.id, ())}
        delta_of_img = set(C2.delta.get(mapping[g.id], ()))
        if img_of_delta != delta_of_img:
            defects.append({"generator": g.id,
                            "phi(delta(g))": sorted(img_of_delta),
                            "delta(phi(g))": sorted(delta_of_img)})
    return defects


def compare_rings(R1, R2, correspondence="by grading+value", tol_value=1e-6):
    """Verdict on R1 ~= R2 as graded rings.

    `correspondence` is either "by grading+value" (match generators by
    grading and critical value), or an explicit {id1: id2} generator map
    (e.g. a continuation matrix turned into a bijection).  The verdict
    checks graded-rank equality, that the map is a cochain map, and that
    the induced class map intertwines the products.
    """
    C1, C2 = R1.complex, R2.complex
    if correspondence == "by grading+value":
        mapping = _match_generators(C1, C2, tol_value)
    else:
        mapping = dict(correspondence)
    _check_bijection(C1, C2, mapping)

    rank_ok = R1.ranks == R2.ranks
    chain_defects = _is_cochain_map(C1, C2, mapping)

    f = induced_map(R1, R2, {a: (b,) for a, b in mapping.items()})
    product_defects = [{"class": c.label, "problem": "image is not a cocycle class"}
                       for g, cs in R1.classes.items()
                       for c, ok in zip(cs, f[g][1]) if not ok]
    for ca, cb, lhs, rhs in product_squares(R1, R2, f, f, f):
        if lhs is not None and rhs is not None and not np.array_equal(lhs, rhs):
            product_defects.append({
                "pair": [ca.label, cb.label],
                "phi(mu2)": lhs.tolist(), "mu2(phi,phi)": rhs.tolist()})

    verdict = {
        "rank_equal": rank_ok,
        "ranks_1": {str(k): v for k, v in sorted(R1.ranks.items())},
        "ranks_2": {str(k): v for k, v in sorted(R2.ranks.items())},
        "cochain_map_defects": chain_defects,
        "product_defects": product_defects,
        "generator_map": mapping,
        "pass": rank_ok and not chain_defects and not product_defects,
    }
    return verdict
