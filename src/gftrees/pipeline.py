"""End-to-end runs: config -> family -> chords -> counts -> cohomology ring.

A run is staged so that expensive counting tasks (one flow-line pair or
one tree triple each), grouped by their source, run as units of work: the
line-count groups and the ranked Newton seeds of each tree pair.  For any
number of jobs the parent first refuses every undefined tree count and
tabulates every pair, then runs the units, in this process or on a forked
pool whose workers count on the parent's prepared run and tabulated
pairs, and then merges each pair's seeds in rank order and splits them by
sink.  That keeps every count a pure function of (config, task), and the
refusals and the aggregation order the same for any number of jobs.
"""

from __future__ import annotations

import json
import logging

import numpy as np

from . import complexes as cx
from . import critical as cr
from . import flow as fl
from . import trees as tr
from .family import (QuadraticLike, blend_annulus_floor,
                     extend, family_from_config, jump_identity_residual,
                     morse_mode_fields)

log = logging.getLogger(__name__)

PAIRS = ((1, 2), (2, 3), (1, 3))

DEMO_MORSE = {"f": "cos(2*pi*x1) + 0.3*cos(2*pi*x2)",
              "g": "cos(2*pi*x2) + 0.3*cos(2*pi*x1)", "n": 2}

# Config tables: {key: (test, what the value must be, default)}.  A REQUIRED
# key must be given; an OPTIONAL one is left out when not given.
REQUIRED, OPTIONAL = object(), object()


def _is_int(v):
    # 2.0 would reach numpy as a float count
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_box(v):
    return isinstance(v, list) and len(v) > 0 and all(
        isinstance(r, list) and len(r) == 2 and all(map(_is_num, r)) for r in v)


_COUNT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_POSITIVE = (lambda v: _is_num(v) and v > 0, "a number > 0")
# rtol, tol_dedup and tol_degenerate run at 0; other tolerances need more
_AT_LEAST_0 = (lambda v: _is_num(v) and v >= 0, "a number >= 0")
_TEXT = (lambda v: isinstance(v, str), "a string")
_BOX = (_is_box, "a non-empty list of [number, number]")

# {section: (what its keys are called, table)}
SECTIONS = {
    "family": ("family key", {
        "n": (*_COUNT, REQUIRED),
        "N": (*_COUNT, REQUIRED),
        "core": (*_TEXT, REQUIRED),
        "slope": (lambda v: isinstance(v, list) and all(map(_is_num, v)),
                  "a list of numbers", REQUIRED),
        "inner_box": (*_BOX, REQUIRED),
        "outer_box": (*_BOX, REQUIRED),
        "base": (lambda v: v == "euclidean", '"euclidean"', OPTIONAL),
        "stabilize": (lambda v: isinstance(v, list) and all(
            not isinstance(s, bool) and s in ("+", "-", 1, -1) for s in v),
            'a list of "+", "-", 1 or -1', OPTIONAL),
        "fpd": (lambda v: isinstance(v, dict) and list(v) == ["components"]
                and isinstance(v["components"], list)
                and all(isinstance(c, str) for c in v["components"]),
                '{"components": [strings]}', OPTIONAL),
        "label": (*_TEXT, OPTIONAL)}),
    "morse": ("morse setting", {
        "f": (*_TEXT, DEMO_MORSE["f"]),
        "g": (*_TEXT, DEMO_MORSE["g"]),
        "n": (*_COUNT, DEMO_MORSE["n"])}),
    "seeds": ("seed setting", {
        "rng": (lambda v: _is_int(v) and 0 <= v <= 2 ** 64 - 1,
                "an integer in [0, 2^64-1]", 0),
        "grid_density": (lambda v: _is_int(v) and v >= 2, "an integer >= 2",
                         cr.GRID_DENSITY)}),
    "solver": ("solver setting", {
        "r0": (*_POSITIVE, fl.R0),
        "scan_density": (lambda v: v is None or _is_int(v) and v >= 8,
                         "an integer >= 8 or null", None),
        # the stabilizing term Q must be positive definite
        "lambda": (lambda v: v is None or _is_num(v) and v > 0,
                   "a number > 0 or null", None)}),
    "tolerances": ("tolerance", {
        k: (*(_AT_LEAST_0 if k in ("rtol", "tol_dedup", "tol_degenerate")
              else _POSITIVE), v)
        for k, v in {**cr.TOLERANCES, **fl.FLOW_TOLERANCES}.items()}),
}
# mode: (the section it reads, the section it refuses)
MODES = {"gf": ("family", "morse"), "morse-torus": ("morse", "family")}
TOP = ("top-level key", {
    "mode": (lambda v: isinstance(v, str) and v in MODES, '"gf" or "morse-torus"', "gf"),
    **{s: (lambda v: isinstance(v, dict), "an object", OPTIONAL)
       for s in SECTIONS}})


def _rejected(where, why):
    return ValueError("config rejected at %s: %s" % (where, why))


def _resolved(given, table, prefix=""):
    """`given` checked key by key against `table`, defaults filled in."""
    noun, entries = table
    for key, value in given.items():
        if key not in entries:
            raise _rejected(prefix + key, "unknown %s %r was unexpected "
                            "(known: %s)" % (noun, key, ", ".join(sorted(entries))))
        test, want, _ = entries[key]
        if not test(value):
            raise _rejected(prefix + key, "must be %s, got %s"
                            % (want, json.dumps(value)))
    for key, (_, _, default) in entries.items():
        if default is REQUIRED and key not in given:
            raise _rejected(prefix + key, "required %s %r is missing" % (noun, key))
    return {**{k: d for k, (_, _, d) in entries.items()
               if d is not REQUIRED and d is not OPTIONAL}, **given}


def resolve_config(config):
    """Check a config and fill every default, so the resolved dict alone
    reproduces the run.  A rejection is a ValueError naming the key's path."""
    cfg = json.loads(json.dumps(config))  # deep copy, JSON-clean
    if not isinstance(cfg, dict):
        raise _rejected("(top level)", "must be an object")
    cfg = _resolved(cfg, TOP)
    reads, refuses = MODES[cfg["mode"]]
    if refuses in cfg:
        raise _rejected(refuses, "mode %r takes a %r section, not a %r"
                        % (cfg["mode"], reads, refuses))
    for name, table in SECTIONS.items():
        if name != refuses:
            cfg[name] = _resolved(cfg.get(name, {}), table, name + "/")
    return cfg


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, floats at 12 significant digits,
    no timestamps anywhere."""
    return json.dumps(_plain(obj), sort_keys=True, indent=2)


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float("%.12g" % float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, frozenset) or isinstance(obj, set):
        return sorted(obj)
    return obj


# ---------------------------------------------------------------------------
# Generating-family runs

def choose_lambda(fam, rho):
    """Quadratic coefficient for the stabilizing term: Q(e1)+Q(e2) stays
    below 0.9*rho over the inner box (the -Q slot only lowers values)."""
    fiber = fam.inner_box[fam.n:]
    m = sum(max(lo * lo, hi * hi) for lo, hi in fiber)
    return 0.9 * rho / (2.0 * m)


class GFRun:
    """One family's chords, differential, product and ring.  Tasks name
    spaces, each a (field, {id: critical point}, generators) triple:
    ("delta", space, p, q) counts flow lines in one space, and
    ("m2", p1, p2, p0) counts trees over the three TREE_SPACES."""

    MODE = "gf"
    DELTA_SPACES = ("w",)
    TREE_SPACES = PAIRS

    def __init__(self, config, jobs=1):
        self.config = resolve_config(config)
        if self.config["mode"] != self.MODE:
            raise ValueError("%s requires mode %r, got %r" % (
                type(self).__name__, self.MODE, self.config["mode"]))
        self.jobs = int(jobs)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1, got %d" % self.jobs)
        self.seed = int(self.config["seeds"]["rng"])
        self.tol = self.config["tolerances"]
        self.solver = self.config["solver"]
        self.prepared = False

    # -- cheap stages ---------------------------------------------------

    def prepare(self):
        cfg = self.config
        self.family = family_from_config(cfg["family"])
        self.w = self.family.difference()
        self.criticals = cr.find_critical_points(
            self.w, grid_density=cfg["seeds"]["grid_density"],
            tolerances=self.tol)
        self.chords = cr.positive_points(self.criticals)
        if not self.chords:
            raise cr.NoChordsError(
                "no Reeb chords: every critical value of w is <= 0")
        self.rho = min(p.value for p in self.chords)
        lam_override = cfg["solver"]["lambda"]
        self.lam = (choose_lambda(self.family, self.rho)
                    if lam_override is None else float(lam_override))
        self.Q = QuadraticLike.scaled_identity(self.family.N, self.lam)
        self.ext = {pq: extend(self.family, pq, self.Q) for pq in PAIRS}
        self.bound = cr.rho_and_perturbation_bound(
            self.criticals, [self.ext[pq] for pq in PAIRS],
            fl.escape_box(self.family.extended_boxes()[1]), seed=self.seed)
        self.images = {pq: {p.id: cr.iota(p, pq, self.family, self.ext[pq],
                                          self.tol)
                            for p in self.criticals} for pq in PAIRS}
        self.s = tr.PerturbationTriple.sample(
            self.family.n + 3 * self.family.N, self.bound.delta_pert, self.seed)
        self.spaces = {"w": (self.w, {p.id: p for p in self.criticals},
                             self.chords)}
        self.spaces.update({pq: (self.ext[pq], self.images[pq], self.chords)
                            for pq in PAIRS})
        self.meeting_floor = self.rho / 4.0
        self.prepared = True
        log.info("prepared %s: %d chords of %d critical points",
                 self.family.label, len(self.chords), len(self.criticals))
        return self

    # -- task enumeration and execution ---------------------------------

    def delta_tasks(self):
        return [("delta", key, p.id, q.id) for key in self.DELTA_SPACES
                for p in self.spaces[key][2] for q in self.spaces[key][2]
                if q.grading - p.grading == 1 and q.value > p.value]

    def m2_tasks(self):
        g1, g2, g0 = (self.spaces[key][2] for key in self.TREE_SPACES)
        return [("m2", p1.id, p2.id, p0.id) for p1 in g1 for p2 in g2
                for p0 in g0 if p0.grading == p1.grading + p2.grading]

    def transfer_tasks(self):
        return [("delta", pq, p, q)
                for (_, _, p, q) in self.delta_tasks() for pq in PAIRS]

    def tree_problem(self, p1, p2):
        """The sink-free TreeProblem of the source pair (p1, p2)."""
        (f1, c1, _), (f2, c2, _), (f3, sinks, _) = (
            self.spaces[k] for k in self.TREE_SPACES)
        return tr.TreeProblem(
            (f1, f2, f3), c1[p1], c2[p2], self.s, list(sinks.values()),
            r0=self.solver["r0"], tolerances=self.tol,
            meeting_floor=self.meeting_floor)

    def run_group(self, tasks):
        """The line counts of delta tasks that share one LineSource, t[:3],
        in task order, as picklable data so they can cross processes."""
        _, space, p = tasks[0][:3]
        field, crits, _ = self.spaces[space]
        source = fl.LineSource(field, crits[p], list(crits.values()), r0=self.solver["r0"],
                               m=self.solver["scan_density"], tolerances=self.tol)

        def count(qid):
            c = fl.count_lines(source, crits[qid])
            return {"parity": c.parity, "clusters": c.clusters, "note": c.note}
        return _logged(tasks, count)

    def count_trees(self, tasks, problem):
        """The tree counts of the m2 tasks of one source pair on its
        `problem`, in task order."""
        sinks = self.spaces[self.TREE_SPACES[2]][1]

        def count(sid):
            trees = tr.solve_trees(problem, sinks[sid])
            return {"parity": len(trees) % 2, "trees": trees,
                    "seeds": problem.seed_outcomes[sinks[sid].id]}
        return _logged(tasks, count)

    def run_tasks(self, tasks):
        """Deterministic map task -> result, one task group per source.

        The same steps run for any `jobs`.  The parent refuses every
        undefined tree count (`tr.check_count`) and then tabulates each
        tree pair's seeds.  The units of work are the line-count groups,
        each run by `run_group`, and the ranked Newton seeds of each pair,
        each run by `tr.run_seed`; they run by `_run_units`, here or on a
        forked pool, whose workers inherit the prepared run and the
        tabulated pairs.  The parent then merges each pair's seeds in rank
        order and runs its capture tests and checks, sink by sink."""
        if not self.prepared:
            self.prepare()
        groups = {}
        for t in tasks:
            groups.setdefault(t[:3], []).append(t)
        groups = list(groups.values())
        sinks = self.spaces[self.TREE_SPACES[2]][1]
        problems = {}   # by group index, the m2 groups
        for i, g in enumerate(groups):
            if g[0][0] == "m2":
                problems[i] = self.tree_problem(*g[0][1:3])
                for t in g:
                    tr.check_count(problems[i], sinks[t[3]])
        # a line-count group is one unit (rank None), a tree pair one per
        # ranked seed; reading `seeds` tabulates the pair
        units = [(i, rank) for i in range(len(groups)) for rank in
                 (range(len(problems[i].seeds)) if i in problems else [None])]

        def unit(i, rank):
            if rank is None:
                return self.run_group(groups[i])
            return tr.run_seed(problems[i], rank)
        got = dict(zip(units, _run_units(unit, units, self.jobs)))
        results = {}
        for i, g in enumerate(groups):
            if i in problems:
                problem = problems[i]
                problem.intersections = tr.merge_seeds(
                    problem, [got[i, rank] for rank in range(len(problem.seeds))])
                done = self.count_trees(g, problem)
            else:
                done = got[i, None]
            results.update(zip(g, done))
        return results

    def count(self):
        """Run every delta and m2 task.  Keeps the found trees and the m2
        counts by (p1, p2, p0); returns the delta results by task."""
        if not self.prepared:
            self.prepare()
        dt = self.delta_tasks()
        mt = self.m2_tasks()
        results = self.run_tasks(dt + mt)
        self.trees = {t[1:]: results[t]["trees"] for t in mt}
        self.m2_counts = {
            t[1:]: {"parity": results[t]["parity"],
                    "trees": len(results[t]["trees"]),
                    "meetings": [[float(v) for v in tree.meeting]
                                 for tree in results[t]["trees"]],
                    "seeds": results[t]["seeds"]}
            for t in mt}
        return {t: results[t] for t in dt}

    # -- assembly -------------------------------------------------------

    def execute(self):
        self.delta_counts = {t[2:]: res for t, res in self.count().items()}
        self.complex = cx.ChordComplex(self.chords,
                                       parity_table(self.delta_counts),
                                       parity_table(self.m2_counts),
                                       label=self.family.label)
        self.algebra = cx.verify_algebra(self.complex)
        self.ring = cx.cohomology(self.complex)
        return self

    # -- reporting ------------------------------------------------------

    def report(self):
        rep = {
            "mode": "gf",
            "label": self.family.label,
            "config": self.config,
            "seed": self.seed,
            "chords": [p.as_dict() for p in self.chords],
            "critical_points_total": len(self.criticals),
            "rho": self.rho,
            "lambda": self.lam,
            "lipschitz_L": self.bound.lipschitz_L,
            "delta_pert": self.bound.delta_pert,
            "perturbation": {"seed": self.seed, "delta_pert": self.s.delta_pert,
                             "s1": list(self.s.s1), "s2": list(self.s.s2),
                             "s3": list(self.s.s3)},
            "delta": {p: sorted(v) for p, v in self.complex.delta.items()},
            "delta_counts": {"%s->%s" % k: v for k, v in self.delta_counts.items()},
            "m2": {"%s,%s" % k: sorted(v) for k, v in self.complex.m2.items()},
            "m2_counts": {"%s,%s->%s" % k: v for k, v in self.m2_counts.items()},
            "algebra": self.algebra,
            "ranks": {str(g): r for g, r in sorted(self.ring.ranks.items())},
            "classes": self.ring.as_dict()["classes"],
            "products": self.ring.as_dict()["products"],
        }
        return _plain(rep)


def parity_table(counts):
    """Chain table of the odd counts: {p: {q}} from delta counts keyed
    (p, q), {(p1, p2): {p0}} from m2 counts keyed (p1, p2, p0)."""
    table = {}
    for k, res in sorted(counts.items()):
        if res["parity"]:
            table.setdefault(k[0] if len(k) == 2 else k[:2], set()).add(k[-1])
    return table


def _logged(tasks, count):
    """[count(t[3]) for t in tasks], with one INFO line per task."""
    results = []
    for task in tasks:
        results.append(count(task[3]))
        log.info("counted %s: parity %d", " ".join(map(str, task)),
                 results[-1]["parity"])
    return results


def _run_units(unit, units, jobs):
    """[unit(*u) for u in units], in unit order: in this process when
    jobs is 1 or there is only one unit, else on a forked pool no wider
    than the units.  The first unit to raise, in unit order, raises here."""
    if jobs == 1 or len(units) <= 1:
        return [unit(*u) for u in units]
    # imported here, off the set-up path of every run that needs no pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # forked workers inherit `unit` with the prepared run and the tabulated
    # pairs (fork pickles no initargs) and all start at the first submit, so
    # a pool wider than the units would only start idle interpreters
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(units)),
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(unit,))
    try:
        futures = [pool.submit(_pool_unit, *u) for u in units]
        return [f.result() for f in futures]
    finally:
        # on an error, units not yet started never run
        pool.shutdown(cancel_futures=True)


_worker_unit = None


def _adopt(unit):
    """Pool initializer: under fork `unit` is the parent's unit runner,
    with its prepared run and tabulated pairs, inherited rather than
    pickled."""
    global _worker_unit
    _worker_unit = unit


def _pool_unit(i, rank):
    """One unit of pool work: the results of line-count group i (rank
    None), or the `tr.run_seed` result of one ranked seed of tree pair i."""
    return _worker_unit(i, rank)


def gf_run(config, jobs=1):
    return GFRun(config, jobs=jobs).execute()


# ---------------------------------------------------------------------------
# Verification suites on a finished run

def family_checks(run):
    """Constructive sanity: exterior linearity, the three-term jump
    identity, and the cutoff annulus keeping a gradient floor."""
    fam = run.family
    w12, w23, w13 = (run.ext[pq] for pq in PAIRS)
    ext_resid = fam.check_exterior_linearity(seed=run.seed)
    jump = jump_identity_residual(w12, w23, w13, run.Q, fam, seed=run.seed)
    floor = blend_annulus_floor(run.w)
    qmin = run.Q.check_minimum(rng=np.random.default_rng(run.seed))
    return {
        "exterior_linearity_residual": ext_resid,
        "jump_identity_residual": jump,
        "blend_annulus_gradient_floor": floor,
        "stabilizing_term_minimum_ok": qmin,
        "pass": ext_resid < 1e-9 and jump < 1e-9 and floor > 1e-6 and qmin,
    }


def transfer_check(run):
    """Embedding bookkeeping: value/index behavior of every embedded
    generator, and line counts through w versus each extended field."""
    entries = []
    ok = True
    for p in run.chords:
        for (i, j) in PAIRS:
            img = run.images[(i, j)][p.id]
            dv = abs(img.value - p.value)
            di = img.morse_index - p.morse_index - ((j - i) - 1) * run.family.N
            same_grading = img.grading == p.grading
            entries.append({"chord": p.id, "pair": [i, j],
                            "value_deviation": dv, "index_shift_defect": di,
                            "grading_preserved": same_grading})
            ok = ok and dv < 1e-9 and di == 0 and same_grading
    tasks = run.transfer_tasks()
    results = run.run_tasks(tasks)
    lines = []
    for t in tasks:
        _, (i, j), pid, qid = t
        base = run.delta_counts[(pid, qid)]["parity"]
        ext = results[t]["parity"]
        lines.append({"pair": [i, j], "line": "%s->%s" % (pid, qid),
                      "count_in_w": base, "count_in_extended": ext})
        ok = ok and base == ext
    return {"embeddings": entries, "line_transfer": lines, "pass": ok}


def verify_run(config, jobs=1):
    """Everything checkable about one family, as one report."""
    run = GFRun(config, jobs=jobs).execute()
    fam_rep = family_checks(run)
    trans = transfer_check(run)
    rep = run.report()
    rep["family_checks"] = fam_rep
    rep["transfer"] = {"pass": trans["pass"],
                       "embeddings": trans["embeddings"],
                       "line_transfer": trans["line_transfer"]}
    rep["pass"] = bool(fam_rep["pass"] and trans["pass"] and rep["algebra"]["pass"])
    return run, _plain(rep)


# ---------------------------------------------------------------------------
# Comparisons between runs

def compare_runs(run_a, run_b):
    verdict = cx.compare_rings(run_a.ring, run_b.ring)
    verdict["labels"] = [run_a.family.label, run_b.family.label]
    return _plain(verdict)


def _variant_compare(config, edits, suffix, jobs):
    """Ring of F versus ring of F with `edits` made to its family section
    and `suffix` added to its label."""
    cfg2 = json.loads(json.dumps(config))
    fam2 = cfg2["family"]
    fam2.update(edits, label=fam2.get("label", "family") + suffix)
    a = gf_run(config, jobs=jobs)
    b = gf_run(cfg2, jobs=jobs)
    return a, b, compare_runs(a, b)


def stabilization_compare(config, signs=("+",), jobs=1):
    """Ring of F versus ring of F stabilized by the given sign sequence."""
    signs = list(config["family"].get("stabilize", [])) + list(signs)
    return _variant_compare(config, {"stabilize": signs}, "-stab", jobs)


def fpd_compare(config, components, jobs=1):
    """Ring of F versus ring of F precomposed with a fiber twist."""
    if "fpd" in config["family"]:
        raise ValueError("base config already carries a fiber twist")
    return _variant_compare(config, {"fpd": {"components": list(components)}},
                            "-fpd", jobs)


def reseed_compare(config, seed_a, seed_b, jobs=1):
    """Same family, two perturbation seeds: the differential must agree
    entry-for-entry (it never sees s) and the induced product on
    cohomology must agree class-by-class; chain-level m2 may differ."""
    ca = json.loads(json.dumps(config))
    cb = json.loads(json.dumps(config))
    ca.setdefault("seeds", {})["rng"] = int(seed_a)
    cb.setdefault("seeds", {})["rng"] = int(seed_b)
    a = gf_run(ca, jobs=jobs)
    b = gf_run(cb, jobs=jobs)
    ident = {p.id: p.id for p in a.chords}
    verdict = cx.compare_rings(a.ring, b.ring, correspondence=ident)
    verdict["labels"] = [a.family.label, b.family.label]
    verdict["seeds"] = [int(seed_a), int(seed_b)]
    verdict["delta_equal"] = a.complex.delta == b.complex.delta
    verdict["chain_m2_equal"] = a.complex.m2 == b.complex.m2
    verdict["pass"] = bool(verdict["pass"] and verdict["delta_equal"])
    return a, b, _plain(verdict)


# ---------------------------------------------------------------------------
# Morse validation mode

def morse_rho(crit_lists):
    """Least positive gap between any two distinct critical values across
    the three fields; the natural action scale when values may be <= 0."""
    vals = sorted({round(p.value, 9) for crits in crit_lists for p in crits})
    gaps = [b - a for a, b in zip(vals, vals[1:]) if b - a > 1e-9]
    if not gaps:
        raise ValueError("all critical values coincide; no usable action scale")
    return min(gaps)


class MorseRun(GFRun):
    """Three Morse fields (f, g, f+g) on the torus: three complexes and the
    cross product H(f) x H(g) -> H(f+g) counted by trees.  The spaces are
    the field indices 0, 1, 2, and every critical point is a generator.
    With no config this is the built-in demo."""

    MODE = "morse-torus"
    DELTA_SPACES = TREE_SPACES = (0, 1, 2)

    def __init__(self, config=None, jobs=1):
        super().__init__({"mode": self.MODE} if config is None else config,
                         jobs=jobs)

    def prepare(self):
        m = self.config["morse"]
        n = m["n"]
        self.fields = morse_mode_fields(m["f"], m["g"], n)
        self.crits = [cr.find_critical_points(
            h, grid_density=self.config["seeds"]["grid_density"],
            tolerances=self.tol, exclude_zero_value=False) for h in self.fields]
        self.rho = morse_rho(self.crits)
        self.bound = cr.perturbation_bound(self.rho, self.fields,
                                           [[0.0, 1.0]] * n, self.seed)
        self.s = tr.PerturbationTriple.sample(n, self.bound.delta_pert,
                                              self.seed)
        self.spaces = {k: (h, {p.id: p for p in crits}, crits)
                       for k, (h, crits) in enumerate(zip(self.fields, self.crits))}
        self.meeting_floor = None
        self.prepared = True
        log.info("prepared morse-torus: %s critical points",
                 "/".join(str(len(c)) for c in self.crits))
        return self

    def m2_tasks(self):
        """GFRun's triples less those with an index-0 source or a
        0-dimensional chart, which are listed in `skipped`: they force the
        tree meeting point onto a saddle of an edge field, where single
        shooting loses all angular resolution; on cohomology those rows
        are the unit action anyway."""
        n = self.config["morse"]["n"]
        index = [{p.id: p.morse_index for p in crits} for crits in self.crits]
        tasks, self.skipped = [], []
        for t in super().m2_tasks():
            i1, i2, i0 = (ix[i] for ix, i in zip(index, t[1:]))
            if min(n - i1, n - i2, i0, i1, i2) == 0:
                self.skipped.append(list(t[1:]))
            else:
                tasks.append(t)
        return tasks

    def execute(self):
        delta = self.count()
        self.delta_counts = [{t[2:]: res for t, res in delta.items()
                              if t[1] == k} for k in self.DELTA_SPACES]
        self.deltas = [parity_table(c) for c in self.delta_counts]
        self.rings = [cx.cohomology(cx.ChordComplex(crits, d, {}, label=h.tag))
                      for h, crits, d in
                      zip(self.fields, self.crits, self.deltas)]
        self.m2_table = parity_table(self.m2_counts)
        self.class_products = cx.cross_product_classes(
            *self.rings, self.m2_table,
            computed={k[:2] for k in self.m2_counts})
        return self

    def report(self):
        rep = {
            "mode": "morse-torus",
            **self.config["morse"],
            "seed": self.seed,
            "rho": self.rho,
            "lipschitz_L": self.bound.lipschitz_L,
            "delta_pert": self.bound.delta_pert,
            "perturbation": {"s1": list(self.s.s1), "s2": list(self.s.s2),
                             "s3": list(self.s.s3)},
            "fields": [h.tag for h in self.fields],
            "critical_points": {h.tag: [p.as_dict() for p in crits]
                                for h, crits in zip(self.fields, self.crits)},
            "delta": [{p: sorted(v) for p, v in d.items()} for d in self.deltas],
            "delta_counts": [{"%s->%s" % k: {"parity": v["parity"],
                                             "clusters": v["clusters"]}
                              for k, v in c.items()}
                             for c in self.delta_counts],
            "ranks": [{str(g): r for g, r in sorted(R.ranks.items())}
                      for R in self.rings],
            "m2_counts": {"%s,%s->%s" % k: {"parity": v["parity"],
                                            "trees": v["trees"],
                                            "seeds": v["seeds"]}
                          for k, v in sorted(self.m2_counts.items())},
            "m2": {"%s,%s" % k: sorted(v) for k, v in sorted(self.m2_table.items())},
            "skipped_products": sorted(self.skipped),
            "class_products": {"%s,%s" % k: v for k, v in
                               sorted(self.class_products.items())},
        }
        return _plain(rep)


def morse_demo_check(run):
    """Validation verdict for the built-in torus demo: both Morse fields
    perfect with ranks (1, 2, 1), zero differential, and the degree-1
    product pairing nondegenerate with the geometrically expected table
    (saddle on the x_i = 1/2 circle acts as the i-th coordinate class)."""
    expected = {0: 1, 1: 2, 2: 1}
    checks = {"ranks": all(R.ranks == expected for R in run.rings),
              "delta_zero": all(not d for d in run.deltas)}

    def axis(p):
        # demo saddles sit at (1/2,0) / (0,1/2); the half coordinate names
        # the dual coordinate class
        return int(np.argmin(np.abs(np.asarray(p.coords) - 0.5)))

    by_axis = []
    for crits in run.crits[:2]:
        saddles = {axis(p): p.id for p in crits if p.grading == 1}
        by_axis.append(saddles)
    tops = [p.id for p in run.crits[2] if p.grading == 2]
    table_ok = len(tops) == 1 and all(len(s) == 2 for s in by_axis)
    if table_ok:
        top = tops[0]
        for ax1 in (0, 1):
            for ax2 in (0, 1):
                got = run.m2_table.get((by_axis[0][ax1], by_axis[1][ax2]), set())
                want = {top} if ax1 != ax2 else set()
                table_ok = table_ok and got == want
    checks["degree1_product_table"] = table_ok
    checks["pass"] = all(checks.values())
    return checks
