"""Acceptance checklist: ten end-to-end guarantees, one test each.

Each test prints a single PASS/FAIL line on the live terminal (bypassing
capture) so the checklist is readable in one screen of output.  Expected
values come from independent oracles: exact rational arithmetic for the
one-chord family, companion-matrix root finding for the double well, and
a two-triangle combinatorial torus for the cup product.
"""

import json
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from gftrees import cli
from gftrees import continuation as ct
from gftrees import flow as fl
from gftrees import pipeline as pl

from conftest import FPD_COMPONENT, MULTI, UNKNOT, UNKNOT_MOVED
from t2_oracle import degree1_square_and_cross, t2_ring


def _copy(cfg):
    return json.loads(json.dumps(cfg))


def _report(name, ok, cap=None):
    line = "acceptance %-34s %s" % (name + ":", "PASS" if ok else "FAIL")
    if cap is not None:
        # suspend capture so the checklist is visible on the live terminal
        with cap.disabled():
            print("\n" + line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def stabilized(cfg, signs):
    out = _copy(cfg)
    out["family"]["stabilize"] = list(signs)
    out["family"]["label"] = out["family"]["label"] + "-stab"
    return out


def twisted(cfg):
    out = _copy(cfg)
    out["family"]["fpd"] = {"components": [FPD_COMPONENT]}
    out["family"]["label"] = out["family"]["label"] + "-fpd"
    return out


def test_01_one_chord_family_against_exact_arithmetic(tmp_path, capsys):
    """One chord at value 4/3, grading 2; empty differential and product;
    the full verification command exits 0 in under a minute."""
    t0 = time.time()
    path = tmp_path / "unknot.json"
    path.write_text(json.dumps(UNKNOT))
    code = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    rep = json.loads(out)

    # oracle: fiber critical points of e^3/3 - e solve e^2 = 1 exactly
    e = Fraction(1)
    assert e * e - 1 == 0
    f = lambda u: u ** 3 / 3 - u
    expected = f(Fraction(-1)) - f(Fraction(1))
    assert expected == Fraction(4, 3)

    elapsed = time.time() - t0
    ok = (code == 0
          and len(rep["chords"]) == 1
          and abs(rep["chords"][0]["value"] - float(expected)) < 1e-6
          and rep["chords"][0]["index"] == 3
          and rep["chords"][0]["grading"] == 2
          and rep["delta"] == {}
          and rep["m2"] == {}
          and elapsed < 60.0)
    _report("01 one-chord ring", ok, capsys)
    assert code == 0
    assert rep["chords"][0]["value"] == pytest.approx(4 / 3, abs=1e-6)
    assert elapsed < 60.0, "took %.1fs" % elapsed
    assert ok


def test_02_identities_hold_across_families_and_seeds(capsys):
    """delta^2 = 0 and the Leibniz identity, exactly over Z2, for five
    families times three perturbation seeds, inside ten minutes."""
    t0 = time.time()
    families = [
        ("unknot", _copy(UNKNOT)),
        ("unknot-stab+", stabilized(UNKNOT, "+")),
        ("unknot-stab-", stabilized(UNKNOT, "-")),
        ("unknot-fpd", twisted(UNKNOT)),
        ("multichord", _copy(MULTI)),
    ]
    failures = []
    for label, cfg in families:
        for seed in (0, 11, 23):
            c = _copy(cfg)
            c.setdefault("seeds", {})["rng"] = seed
            run = pl.gf_run(c)
            rep = run.algebra
            if not (rep["pass"] and rep["delta_squared_defects"] == []
                    and rep["leibniz_defects"] == []):
                failures.append((label, seed, rep))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 600.0
    _report("02 chain-level identities", ok, capsys)
    assert not failures, failures
    assert elapsed < 600.0, "took %.1fs" % elapsed


def test_03_embeddings_and_transfer(unknot_run, multi_run, capsys):
    """Every generator embeds into all three extended fields with the same
    value (1e-9) and the exact index shift; line counts through the base
    field and each extended field agree entry for entry.

    A line scan pins the extended fields' +Q slots (c > 0), so a count in
    w_{1,2;3} or w_{2,3;3} scans the same coupled directions as w.  The
    agreement then checks chart, grading and embedding bookkeeping, not a
    second integration of other lines."""
    problems = []
    for run in (unknot_run, multi_run):
        rep = pl.transfer_check(run)
        for entry in rep["embeddings"]:
            if entry["value_deviation"] >= 1e-9 or \
                    entry["index_shift_defect"] != 0 or \
                    not entry["grading_preserved"]:
                problems.append(entry)
        seen = set()
        for line in rep["line_transfer"]:
            if line["count_in_w"] != line["count_in_extended"]:
                problems.append(line)
            seen.add((tuple(line["pair"]), line["line"]))
        # every differential pair must have been pushed through all three
        for (pid, qid) in run.delta_counts:
            for pair in ((1, 2), (2, 3), (1, 3)):
                if (pair, "%s->%s" % (pid, qid)) not in seen:
                    problems.append({"missing": (pair, pid, qid)})
    ok = not problems
    _report("03 embedding transfer", ok, capsys)
    assert not problems, problems


def test_04_stabilization_leaves_the_ring_alone(capsys):
    """Graded ranks and class-level products agree between F and its
    one- and two-slot stabilizations, under value/grading matching.

    A line scan pins a stabilized field's quadratic slots with c > 0, so
    its delta counts scan the same coupled directions as the unstabilized
    field's.  On a stabilized field the agreement then checks chart,
    grading and embedding bookkeeping, not a second integration of other
    lines."""
    failures = []
    for cfg, signs in [(UNKNOT, ("+",)), (UNKNOT, ("-",)),
                       (UNKNOT, ("+", "-")), (MULTI, ("+",)),
                       (MULTI, ("+", "-"))]:
        a, b, verdict = pl.stabilization_compare(_copy(cfg), signs)
        if not (verdict["pass"] and verdict["rank_equal"]
                and verdict["product_defects"] == []):
            failures.append((cfg["family"]["label"], signs, verdict))
    ok = not failures
    _report("04 stabilization invariance", ok, capsys)
    assert not failures, failures


def test_05_fiber_twists_leave_everything_alone(capsys):
    """A compactly supported fiber reparametrization changes neither the
    chord values (to 1e-6) nor the ranks nor the class products."""
    failures = []
    for cfg in (UNKNOT, MULTI):
        a, b, verdict = pl.fpd_compare(_copy(cfg), [FPD_COMPONENT])
        va = sorted(p.value for p in a.chords)
        vb = sorted(p.value for p in b.chords)
        values_ok = len(va) == len(vb) and all(
            abs(x - y) < 1e-6 for x, y in zip(va, vb))
        if not (verdict["pass"] and values_ok):
            failures.append((cfg["family"]["label"], verdict, va, vb))
    ok = not failures
    _report("05 fiber-twist invariance", ok, capsys)
    assert not failures, failures


def test_06_reseeding_keeps_the_class_level_product(capsys):
    """Two perturbation draws induce the same product on cohomology;
    chain-level counts are allowed to differ."""
    a, b, verdict = pl.reseed_compare(_copy(MULTI), 11, 23)
    ok = (verdict["pass"] and verdict["delta_equal"]
          and verdict["product_defects"] == [])
    _report("06 perturbation reseed", ok, capsys)
    assert ok, verdict


def test_07_continuation_maps_behave(unknot_config, unknot_moved_config,
                                     capsys):
    """Constant paths induce the identity cochain map exactly; a translated
    family passes the full commutative-diagram comparison."""
    run, const = ct.constant_path_check(unknot_config)
    _, _, verdict = ct.isotopy_compare(unknot_config, unknot_moved_config)
    ok = (const["pass"] and const["identity"]
          and const["cochain_defects"] == []
          and verdict["pass"] and verdict["product_defects"] == []
          and all(verdict["cochain_defects"][k] == []
                  for k in ("w", "12", "23", "13")))
    _report("07 continuation identity", ok, capsys)
    assert const["pass"], const
    assert verdict["pass"], verdict
    assert ok


def test_08_torus_products_match_the_cell_oracle(capsys):
    """The flow-tree product on the torus demo equals the cup product of
    the two-triangle cell torus: ranks (1,2,1), cross products hit the
    top class, squares vanish.  Under five minutes."""
    t0 = time.time()
    run = pl.MorseRun().execute()
    checks = pl.morse_demo_check(run)

    oracle = t2_ring()
    squares, crosses = degree1_square_and_cross(oracle)
    (top,) = [c.label for c in oracle.classes[2]]
    oracle_ok = (oracle.ranks == {0: 1, 1: 2, 2: 1}
                 and squares == [[], []]
                 and crosses == [[top], [top]])

    # position-based matching: the saddle on the x_i = 1/2 circle stands
    # for the i-th degree-1 class on each side
    def axis_class(ring, crits):
        out = {}
        for c in ring.classes[1]:
            (gen,) = c.support
            p = next(p for p in crits if p.id == gen)
            out[int(np.argmin(np.abs(np.asarray(p.coords) - 0.5)))] = c.label
        return out

    ax_f = axis_class(run.rings[0], run.crits[0])
    ax_g = axis_class(run.rings[1], run.crits[1])
    (top_m,) = [c.label for c in run.rings[2].classes[2]]
    table_ok = len(ax_f) == 2 and len(ax_g) == 2
    for i in (0, 1):
        for j in (0, 1):
            got = run.class_products.get((ax_f[i], ax_g[j]))
            want = [top_m] if i != j else []
            table_ok = table_ok and got == want
    # unit rows were never computed and must say so rather than guess
    unit_rows_honest = all(
        run.class_products.get((run.rings[0].classes[0][0].label, c.label))
        is None for c in run.rings[1].classes[1])

    elapsed = time.time() - t0
    ok = (checks["pass"] and oracle_ok and table_ok and unit_rows_honest
          and elapsed < 300.0)
    _report("08 torus cup product", ok, capsys)
    assert checks["pass"], checks
    assert oracle_ok
    assert table_ok
    assert unit_rows_honest
    assert elapsed < 300.0, "took %.1fs" % elapsed


def discrete_signature(run):
    return {
        "chords": [(p.id, p.grading) for p in run.chords],
        "delta": {"%s->%s" % k: v["parity"]
                  for k, v in sorted(run.delta_counts.items())},
        "m2": {"%s,%s->%s" % k: v["parity"]
               for k, v in sorted(run.m2_counts.items())},
        "ranks": {str(g): r for g, r in sorted(run.ring.ranks.items())},
    }


def test_09_discrete_outputs_survive_solver_perturbations(unknot_run,
                                                          multi_run, capsys):
    """Halving the integrator tolerance, halving the chart radius, and
    doubling the seed grid all reproduce identical counts and ranks for
    the families of the first four checks."""
    families = [
        ("unknot", _copy(UNKNOT)),
        ("unknot-stab+", stabilized(UNKNOT, "+")),
        ("unknot-stab-", stabilized(UNKNOT, "-")),
        ("unknot-fpd", twisted(UNKNOT)),
        ("multichord", _copy(MULTI)),
        ("multichord-stab+", stabilized(MULTI, "+")),
    ]
    baselines = {"unknot": discrete_signature(unknot_run),
                 "multichord": discrete_signature(multi_run)}
    variants = [
        ("ode-tolerance-halved", {"tolerances": {"rtol": 5e-9, "atol": 5e-11}}),
        ("chart-radius-halved", {"solver": {"r0": 5e-4}}),
        ("seed-grid-doubled", {"seeds": {"grid_density": 14}}),
    ]
    mismatches = []
    for label, cfg in families:
        base = baselines.get(label)
        if base is None:
            base = discrete_signature(pl.gf_run(_copy(cfg)))
        for vlabel, patch in variants:
            c = _copy(cfg)
            for section, vals in patch.items():
                c.setdefault(section, {}).update(vals)
            sig = discrete_signature(pl.gf_run(c))
            if sig != base:
                mismatches.append((label, vlabel, base, sig))
    ok = not mismatches
    _report("09 solver-setting stability", ok, capsys)
    assert not mismatches, mismatches[:2]


def in_box(point, box, slack=1e-9):
    return all(lo - slack <= c <= hi + slack
               for c, (lo, hi) in zip(point, box))


def audit_trajectories(trajs, box):
    """Sample points of recorded trajectories that stray outside the box."""
    bad = []
    for traj in trajs:
        for t, z in traj.samples:
            if not in_box(z, box):
                bad.append((traj.tag, t, z))
    return bad


def test_10_every_recorded_sample_stays_confined(multi_run, capsys):
    """All counted-line samples live in the escape region K'; all recorded
    tree meetings keep the extended-field value above rho/4; and the
    auditors themselves flag planted violations."""
    run = multi_run
    violations = []

    # flow-line representatives through the base field
    K_base = fl.escape_box(run.w.outer_box)
    for (pid, qid) in run.delta_counts:
        byid = {p.id: p for p in run.criticals}
        source = fl.LineSource(run.w, byid[pid], run.criticals,
                               r0=run.solver["r0"],
                               m=run.solver["scan_density"],
                               tolerances=run.tol)
        count = fl.count_lines(source, byid[qid])
        violations += audit_trajectories(count.trajectories, K_base)

    # and through each extended field
    for pq in ((1, 2), (2, 3), (1, 3)):
        K_ext = fl.escape_box(run.ext[pq].outer_box)
        crits = [run.images[pq][p.id] for p in run.criticals]
        byid = {p.id: p for p in crits}
        for (pid, qid) in run.delta_counts:
            source = fl.LineSource(run.ext[pq], byid[pid], crits,
                                   r0=run.solver["r0"],
                                   m=run.solver["scan_density"],
                                   tolerances=run.tol)
            count = fl.count_lines(source, byid[qid])
            violations += audit_trajectories(count.trajectories, K_ext)

    # recorded trees: every branch sample confined, every meeting point
    # above the action floor in the (1,3) field
    w13 = run.ext[(1, 3)]
    K13 = fl.escape_box(w13.outer_box)
    floor_failures = []
    for (i1, i2, i0), trees in run.trees.items():
        for t in trees:
            for traj in (t.gamma1, t.gamma2, t.gamma3):
                violations += audit_trajectories([traj], K13)
            if w13.value([float(v) for v in t.meeting]) <= run.rho / 4.0:
                floor_failures.append((i1, i2, i0, t.meeting))
    for (i1, i2, i0), res in run.m2_counts.items():
        for meeting in res["meetings"]:
            if w13.value([float(v) for v in meeting]) <= run.rho / 4.0:
                floor_failures.append((i1, i2, i0, meeting))

    # the auditors must actually catch planted violations
    class _Fake:
        tag = "planted"
        samples = [(0.0, tuple(hi + 1.0 for _, hi in K_base))]
    detector_ok = bool(audit_trajectories([_Fake()], K_base))
    # a meeting on the degenerate zero level fails the floor
    zero_level = [0.0] * w13.dim
    detector_ok = detector_ok and not (
        w13.value(zero_level) > run.rho / 4.0)

    ok = not violations and not floor_failures and detector_ok
    _report("10 confinement audit", ok, capsys)
    assert not violations, violations[:3]
    assert not floor_failures, floor_failures[:3]
    assert detector_ok
