"""The Z2 cochain complex of Reeb chords, its product, and comparisons.

Generators are the positive-value critical points.  delta raises grading
by 1 (counting isolated flow lines); m2 pairs two generators into one of
grading equal to the sum (counting trees).  Cohomology is plain Z2
Gaussian elimination per grading; the induced product mu2 acts on classes
by evaluating m2 on representatives and reducing modulo coboundaries.

Every map of chains -- delta, m2, a continuation matrix, a generator
bijection -- goes one way: `table_matrix` (and `pair_matrix` for m2)
turns it into a Z2 matrix, so delta^2 and Leibniz are matrix products,
`CohomologyRing.coords` solves for class coordinates, and `induced_map` /
`push` carry class coordinates across.  mu2 on classes is `class_product`
alone: the ring's product table, Morse cross products and the
`product_squares` behind both ring comparisons and the continuation
product diagram all read it, and an undefined product is None, never 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import gf2

VALUE_MATCH_TOL = 1e-6   # `compare_rings` matches generator values this close


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


def pair_matrix(m2, src1, src2, dst):
    """`table_matrix` of an m2 table {(id1, id2): target ids} from the pairs
    src1 x src2, first factor major, to the generators `dst`."""
    pairs = [SimpleNamespace(id=(a.id, b.id)) for a in src1 for b in src2]
    return table_matrix(m2, pairs, dst)


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


def _ones(D, sources, dst):
    """(source, target id) of each 1 of D, column by column, with the
    targets of one column sorted by id."""
    return [(src, t) for src, col in zip(sources, D.T)
            for t in sorted(g.id for g, bit in zip(dst, col) if bit)]


def delta_squared_defects(C):
    """Entries of delta^2 = d d that do not vanish over Z2."""
    G = C.generators
    d = table_matrix(C.delta, G, G)
    return [{"source": s, "target": t}
            for s, t in _ones(d @ d % 2, [g.id for g in G], G)]


def verify_algebra(C):
    """delta^2 = 0 and the Leibniz identity
    delta(m2(a,b)) + m2(delta a, b) + m2(a, delta b) = 0, over Z2, whose
    matrix is d M + M (d x 1) + M (1 x d) on the pairs of generators.
    Violations are returned as data, not raised."""
    G = C.generators
    dd = delta_squared_defects(C)
    d = table_matrix(C.delta, G, G)
    M = pair_matrix(C.m2, G, G, G)
    one = np.eye(len(G), dtype=np.uint8)
    defect = (d @ M + M @ np.kron(d, one) + M @ np.kron(one, d)) % 2
    leib = [{"pair": list(pair), "target": t} for pair, t in
            _ones(defect, [(a.id, b.id) for a in G for b in G], G)]
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


def class_product(R1, R2, R3, m2, ga, x, gb, y, computed=None):
    """mu2 on class coordinates: x (grading ga of R1) times y (grading gb
    of R2) as coordinates in R3 of the m2 chain product of their
    representatives.  None when that chain is not a cocycle, which only a
    Leibniz failure of m2 can cause, or when it needs an (id1, id2) pair
    outside `computed`, the pairs whose chain counts actually ran."""
    B1, B2 = R1.complex.basis(ga), R2.complex.basis(gb)
    a, b = R1.reps(ga) @ x % 2, R2.reps(gb) @ y % 2
    if computed is not None and any(
            (p.id, q.id) not in computed
            for p, bit_p in zip(B1, a) if bit_p for q, bit_q in zip(B2, b) if bit_q):
        return None
    chain = pair_matrix(m2, B1, B2, R3.complex.basis(ga + gb)) @ np.kron(a, b) % 2
    return R3.coords(ga + gb, chain)


def cross_product_classes(R1, R2, R3, m2_table, computed=None):
    """Class-level product H(C1) x H(C2) -> H(C3) induced by a chain table
    m2_table[(id1, id2)] = set of target ids in C3, as label lists by
    `class_product` on the class bases; None where that is undefined."""
    out = {}
    for ga, cas in R1.classes.items():
        for gb, cbs in R2.classes.items():
            cts = R3.classes.get(ga + gb)
            if cts is None:
                continue
            for x, ca in zip(np.eye(len(cas), dtype=np.uint8), cas):
                for y, cb in zip(np.eye(len(cbs), dtype=np.uint8), cbs):
                    z = class_product(R1, R2, R3, m2_table, ga, x, gb, y, computed)
                    out[(ca.label, cb.label)] = None if z is None else [
                        c.label for c, bit in zip(cts, z) if bit]
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
    ring0 whose product grading exists in ring1, each mu by
    `class_product`; None stands for an undefined product or an image
    that is not a cocycle class."""
    for ga, cas in ring0.classes.items():
        for gb, cbs in ring0.classes.items():
            if ga + gb not in ring1.classes:
                continue
            for x, ca in zip(np.eye(len(cas), dtype=np.uint8), cas):
                for y, cb in zip(np.eye(len(cbs), dtype=np.uint8), cbs):
                    mu0 = class_product(ring0, ring0, ring0, ring0.complex.m2,
                                        ga, x, gb, y)
                    lhs = None if mu0 is None else push(f_t, ga + gb, mu0)
                    fa, fb = push(f_a, ga, x), push(f_b, gb, y)
                    rhs = None if fa is None or fb is None else class_product(
                        ring1, ring1, ring1, ring1.complex.m2, ga, fa, gb, fb)
                    yield ca, cb, lhs, rhs


def square_defects(ring0, ring1, f_a, f_b, f_t, sides):
    """The squares of `product_squares` that fail, as report entries with
    the two sides under the names `sides`; an undefined side is a defect,
    never compared as 0."""
    defects = []
    for ca, cb, lhs, rhs in product_squares(ring0, ring1, f_a, f_b, f_t):
        if lhs is None or rhs is None:
            defects.append({"pair": [ca.label, cb.label],
                            "problem": "image not a cocycle class"})
        elif not np.array_equal(lhs, rhs):
            defects.append({"pair": [ca.label, cb.label],
                            sides[0]: lhs.tolist(), sides[1]: rhs.tolist()})
    return defects


# ---------------------------------------------------------------------------
# Ring comparisons

def _match_generators(C1, C2):
    """Bijection generator-of-C1 -> generator-of-C2 by (grading, value)."""
    used = set()
    mapping = {}
    for g in C1.generators:
        hits = [h for h in C2.generators
                if h.grading == g.grading and abs(h.value - g.value) < VALUE_MATCH_TOL
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


def cochain_map_defects(C0, C1, table):
    """delta1 . Phi + Phi . delta0 over Z2 for the chain map Phi of a
    {id in C0: target ids in C1} table, listed generator by generator."""
    P = table_matrix(table, C0.generators, C1.generators)
    d0 = table_matrix(C0.delta, C0.generators, C0.generators)
    d1 = table_matrix(C1.delta, C1.generators, C1.generators)
    D = (d1.astype(int) @ P + P.astype(int) @ d0) % 2
    defects = []
    for g, col in zip(C0.generators, D.T):
        bad = sorted(h.id for h, bit in zip(C1.generators, col) if bit)
        if bad:
            defects.append({"generator": g.id, "defect": bad})
    return defects


def compare_rings(R1, R2, correspondence="by grading+value"):
    """Verdict on R1 ~= R2 as graded rings.

    `correspondence` is either "by grading+value" (match generators by
    grading and critical value), or an explicit {id1: id2} generator map
    (e.g. a continuation matrix turned into a bijection).  The verdict
    checks graded-rank equality, that the map is a cochain map, and that
    the induced class map intertwines the products.
    """
    C1, C2 = R1.complex, R2.complex
    if correspondence == "by grading+value":
        mapping = _match_generators(C1, C2)
    else:
        mapping = dict(correspondence)
    _check_bijection(C1, C2, mapping)

    rank_ok = R1.ranks == R2.ranks
    table = {a: (b,) for a, b in mapping.items()}
    chain_defects = cochain_map_defects(C1, C2, table)

    f = induced_map(R1, R2, table)
    product_defects = [{"class": c.label, "problem": "image is not a cocycle class"}
                       for g, cs in R1.classes.items()
                       for c, ok in zip(cs, f[g][1]) if not ok]
    product_defects += square_defects(R1, R2, f, f, f,
                                      ("phi(mu2)", "mu2(phi,phi)"))

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
