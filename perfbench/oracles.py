"""Answer checks for each workload, from facts fixed outside the program.

Each check takes the parsed canonical report and whether the run used the
config's committed seed, and returns a list of failure strings (empty when
the answer is right).  With another seed only seed-invariant facts are
checked: chords, the differential, ranks and class products.  The
program's own pass/fail verdict is never taken as evidence by itself.
"""

from __future__ import annotations

# The multichord facts frozen in the package's pipeline tests: three chords
# (grading, value), delta c3 -> c4 + c5, so one class survives in grading 2.
MULTICHORD_CHORDS = {"c3": (1, 0.467868979), "c4": (2, 1.140855001),
                     "c5": (2, 1.540813236)}
MULTICHORD_VALUE_TOL = 1e-9
MULTICHORD_DELTA = {"c3": ["c4", "c5"]}
MULTICHORD_RANKS = {"1": 0, "2": 1}

# H*(T^2; Z2) for each of the three torus fields.
TORUS_RANKS = {"0": 1, "1": 2, "2": 1}
# Degree-1 cup product of the two-triangle cell torus (one vertex, edges a,
# b, c, triangles L and U): a.b and b.a are the top class, a.a = b.b = 0.
# In the coordinate basis dual to the two circles that is [[0, 1], [1, 0]].
T2_DEGREE1_TABLE = ((0, 1), (1, 0))

# The unknot and its translate have one chord each; the continuation map
# between them is the identity in every field.
UNKNOT_PHI = {"c1->c1": 1}


def _expect(failures, ok, message):
    if not ok:
        failures.append(message)


def multichord(report, committed_seed):
    f = []
    chords = {c["id"]: (c["grading"], c["value"]) for c in report["chords"]}
    _expect(f, set(chords) == set(MULTICHORD_CHORDS),
            "chords %s, want %s" % (sorted(chords), sorted(MULTICHORD_CHORDS)))
    for cid, (grading, value) in MULTICHORD_CHORDS.items():
        if cid in chords:
            g, v = chords[cid]
            _expect(f, g == grading, "%s grading %s, want %s" % (cid, g, grading))
            _expect(f, abs(v - value) <= MULTICHORD_VALUE_TOL,
                    "%s value %r, want %r" % (cid, v, value))
    _expect(f, report["delta"] == MULTICHORD_DELTA,
            "delta %r, want %r" % (report["delta"], MULTICHORD_DELTA))
    _expect(f, report["ranks"] == MULTICHORD_RANKS,
            "ranks %r, want %r" % (report["ranks"], MULTICHORD_RANKS))
    # no grading-4 generators, so no class product can be nonzero
    _expect(f, report["products"] == {},
            "class products %r, want none" % (report["products"],))
    if committed_seed:
        _expect(f, report["m2"] == {}, "chain m2 %r, want {}" % (report["m2"],))
        supports = [c["support"] for c in report["classes"]["2"]]
        _expect(f, supports in ([["c4"]], [["c5"]]),
                "grading-2 class supports %r, want one well chord" % (supports,))
    return f


def torus(report, committed_seed):
    f = []
    _expect(f, report["ranks"] == [TORUS_RANKS] * 3,
            "ranks %r, want %r for each field" % (report["ranks"], TORUS_RANKS))
    _expect(f, report["delta"] == [{}, {}, {}],
            "delta %r, want zero" % (report["delta"],))
    crits = [report["critical_points"][tag] for tag in report["fields"]]

    def axis(point):
        # a saddle on the x_i = 1/2 circle stands for the i-th coordinate class
        coords = point["coords"]
        return min(range(len(coords)), key=lambda i: abs(coords[i] - 0.5))

    saddles = [{axis(p): p["id"] for p in cs if p["grading"] == 1} for cs in crits[:2]]
    tops = [p["id"] for p in crits[2] if p["grading"] == 2]
    if len(tops) != 1 or any(sorted(s) != [0, 1] for s in saddles):
        f.append("torus critical points: saddles by axis %r, tops %r"
                 % (saddles, tops))
        return f
    for a in (0, 1):
        for b in (0, 1):
            got = report["m2"].get("%s,%s" % (saddles[0][a], saddles[1][b]), [])
            want = tops if T2_DEGREE1_TABLE[a][b] else []
            _expect(f, got == want, "product of axis-%d and axis-%d classes %r, "
                    "want %r" % (a, b, got, want))
    return f


def isotopy(report, committed_seed):
    f = []
    _expect(f, report["pass"] is True, "verdict %r" % (report["pass"],))
    _expect(f, all(d == [] for d in report["cochain_defects"].values())
            and len(report["cochain_defects"]) == 4,
            "cochain defects %r" % (report["cochain_defects"],))
    _expect(f, report["product_defects"] == [],
            "product defects %r" % (report["product_defects"],))
    _expect(f, report["invertible"] and all(report["invertible"].values()),
            "invertible %r" % (report["invertible"],))
    _expect(f, all(phi == UNKNOT_PHI for phi in report["phi"].values())
            and len(report["phi"]) == 4,
            "continuation maps %r, want identity" % (report["phi"],))
    return f
