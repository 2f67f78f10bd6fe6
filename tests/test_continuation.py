"""Deformation invariance: interpolation paths and continuation maps."""

import json
import logging
from types import SimpleNamespace

import numpy as np
import pytest

from gftrees import complexes as cx
from gftrees import continuation as ct
from gftrees import critical as cr
from gftrees import flow as fl
from gftrees import pipeline as pl
from conftest import UNKNOT, UNKNOT_MOVED, whole_hessian_frame
from t2_oracle import t2_ring


def prepared(config):
    return pl.GFRun(config).prepare()


def test_constant_path_gives_the_identity_exactly(unknot_config):
    run, report = ct.constant_path_check(unknot_config)
    assert report["pass"]
    assert report["identity"]
    assert report["phi"] == {"c1->c1": 1}
    assert report["cochain_defects"] == []
    assert report["diagnostics"]["t_monotone_ok"]


def test_slice_fields_interpolate_between_the_endpoints(unknot_config,
                                                        unknot_moved_config):
    a = prepared(unknot_config)
    b = prepared(unknot_moved_config)
    z = [0.3, 0.8, -0.6]
    lo = ct.slice_field(a.w, b.w, 0.0).value(z)
    hi = ct.slice_field(a.w, b.w, 1.0).value(z)
    assert lo == pytest.approx(a.w.value(z), abs=1e-12)
    assert hi == pytest.approx(b.w.value(z), abs=1e-12)
    mid = ct.slice_field(a.w, b.w, 0.5).value(z)
    assert min(lo, hi) - 1e-12 <= mid <= max(lo, hi) + 1e-12
    # outside [0, 1] the ramp has fully saturated
    assert ct.slice_field(a.w, b.w, -0.2).value(z) == pytest.approx(lo, abs=1e-12)
    assert ct.slice_field(a.w, b.w, 1.2).value(z) == pytest.approx(hi, abs=1e-12)


def test_endpoint_slices_are_the_endpoint_fields(unknot_config,
                                                 unknot_moved_config):
    a = prepared(unknot_config)
    b = prepared(unknot_moved_config)
    assert ct.slice_field(a.w, b.w, 0.0).expr_part.key() == a.w.expr_part.key()
    assert ct.slice_field(a.w, b.w, 1.0).expr_part.key() == b.w.expr_part.key()


def _searched_slices(path_args, monkeypatch):
    """FamilyPath(*path_args) and the fields find_critical_points saw."""
    seen = []
    find = cr.find_critical_points
    monkeypatch.setattr(cr, "find_critical_points",
                        lambda field, **kw: seen.append(field.tag) or find(field, **kw))
    path = ct.FamilyPath(*path_args)
    monkeypatch.setattr(cr, "find_critical_points", find)
    return path, seen


def _every_slice_searched(run0, run1):
    """rho_slices and value_drift with a search on every slice."""
    rho, drift = {}, 0.0
    for t in np.linspace(0.0, 1.0, ct.T_SAMPLES):
        crits = cr.find_critical_points(
            ct.slice_field(run0.w, run1.w, t),
            grid_density=run0.config["seeds"]["grid_density"],
            tolerances=run0.tol)
        rho[float(t)] = min(p.value for p in crits if p.value > 0)
        for p in crits:
            z = [float(v) for v in p.coords]
            drift = max(drift, abs(run1.w.value(z) - run0.w.value(z)))
    return rho, drift


def test_a_path_takes_the_endpoint_roots_of_its_runs(unknot_config,
                                                    unknot_moved_config,
                                                    monkeypatch):
    run0, run1 = prepared(unknot_config), prepared(unknot_moved_config)
    path, seen = _searched_slices((run0, run1), monkeypatch)
    assert seen == ["w^0.25", "w^0.50", "w^0.75"]
    rho, drift = _every_slice_searched(run0, run1)
    assert path.rho_slices == rho
    assert path.value_drift == drift
    assert path.eps == max(0.1 * min(rho.values()), 8.0 * drift)


def test_the_t1_slice_is_searched_when_run1_has_other_settings(
        unknot_config, unknot_moved_config, monkeypatch):
    # every slice is searched with run0's grid density, so the t = 0 slice
    # is always run0's own search; t = 1 is run1's only at equal settings
    unknot_moved_config["seeds"] = {"grid_density": 8}
    run0, run1 = prepared(unknot_config), prepared(unknot_moved_config)
    path, seen = _searched_slices((run0, run1), monkeypatch)
    assert seen == ["w^0.25", "w^0.50", "w^0.75", "w^1.00"]
    rho, drift = _every_slice_searched(run0, run1)
    assert (path.rho_slices, path.value_drift) == (rho, drift)
    unknot_moved_config["seeds"] = {}
    unknot_moved_config["tolerances"] = {"tol_dedup": 1e-5}
    run1 = prepared(unknot_moved_config)
    assert _searched_slices((run0, run1), monkeypatch)[1][-1] == "w^1.00"


def test_paths_require_identical_shapes(unknot_config, multi_config):
    a = prepared(unknot_config)

    stab = dict(unknot_config)
    stab["family"] = {**unknot_config["family"], "stabilize": ["+"]}
    with pytest.raises(ct.PathError, match="dimension"):
        ct.FamilyPath(a, prepared(stab))

    plus = prepared(stab)
    minus_cfg = dict(unknot_config)
    minus_cfg["family"] = {**unknot_config["family"], "stabilize": ["-"]}
    with pytest.raises(ct.PathError, match="shape"):
        ct.FamilyPath(plus, prepared(minus_cfg))

    steep = dict(unknot_config)
    steep["family"] = {**unknot_config["family"], "slope": [2]}
    with pytest.raises(ct.PathError):
        ct.FamilyPath(a, prepared(steep))

    boxed = dict(unknot_config)
    boxed["family"] = {**unknot_config["family"],
                       "inner_box": [[-1.6, 1.6], [-2, 2]]}
    with pytest.raises(ct.PathError):
        ct.FamilyPath(a, prepared(boxed))


def test_oversized_interpolation_bumps_are_rejected(unknot_config,
                                                    unknot_moved_config):
    a = prepared(unknot_config)
    b = prepared(unknot_moved_config)
    with pytest.raises(ct.PathError, match="subdivide"):
        ct.FamilyPath(a, b, eps=10.0)


def test_blend_rejects_mismatched_quadratic_blocks(unknot_config):
    plus = dict(unknot_config)
    plus["family"] = {**unknot_config["family"], "stabilize": ["+"]}
    minus = dict(unknot_config)
    minus["family"] = {**unknot_config["family"], "stabilize": ["-"]}
    a, b = prepared(plus), prepared(minus)
    with pytest.raises(ct.PathError, match="quadratic blocks"):
        ct.blend_field(a.w, b.w, 0.1)


def test_translated_family_keeps_its_ring(unknot_config, unknot_moved_config,
                                          prepare_calls):
    run0, run1, verdict = ct.isotopy_compare(unknot_config,
                                             unknot_moved_config)
    # both endpoints already share lambda, so each is prepared once
    assert prepare_calls == ["GFRun", "GFRun"]
    assert verdict["pass"], verdict
    assert not verdict["constant_path"]
    assert verdict["eps"] > 0
    for key in ("w", "12", "23", "13"):
        assert verdict["phi"][key] == {"c1->c1": 1}
        assert verdict["cochain_defects"][key] == []
    assert verdict["t_monotone_ok"]
    assert all(all(block.values()) for block in [verdict["invertible"]])
    assert run0.ring.ranks == run1.ring.ranks == {2: 1}


def test_two_generator_family_maps_by_the_identity_matrix(
        twowell_config, twowell_moved_config):
    run0, run1, verdict = ct.isotopy_compare(twowell_config,
                                             twowell_moved_config)
    assert verdict["pass"], verdict
    assert run0.ring.ranks == {2: 2}
    assert run1.ring.ranks == {2: 2}
    for key in ("w", "12", "23", "13"):
        hits = {k: v for k, v in verdict["phi"][key].items() if v}
        assert hits == {"c2->c2": 1, "c3->c3": 1}
    # the descending corner of the matrix cannot be counted directly and
    # is recorded as such
    assert verdict["value_obstructions"] == ["c3->c2"]
    assert verdict["product_defects"] == []


def test_aligned_runs_reprepare_only_the_run_whose_lambda_moves(
        unknot_config, prepare_calls):
    wide = json.loads(json.dumps(unknot_config))
    wide["family"]["inner_box"][1] = [-2.5, 2.5]
    run0, run1 = (run.execute() for run in ct._aligned_runs(unknot_config, wide))
    assert len(prepare_calls) == 3
    assert run1.lam == pytest.approx(0.096) and run0.lam == run1.lam
    assert run1.config["solver"]["lambda"] is None
    fresh = json.loads(json.dumps(unknot_config))
    fresh["solver"] = {"lambda": run1.lam}
    assert pl.canonical_json(run0.report()) == \
        pl.canonical_json(pl.gf_run(fresh).report())


def test_aligned_runs_keep_every_config_float(unknot_config,
                                              unknot_moved_config):
    # rounded to 12 digits this box edge would read -1.5
    edge = -1.5000000000001
    for cfg in (unknot_config, unknot_moved_config):
        cfg["family"]["inner_box"][1] = [edge, 2.0]
    for run in ct._aligned_runs(unknot_config, unknot_moved_config):
        assert run.family.inner_box[1][0] == edge
        assert run.config["family"]["inner_box"][1][0] == edge


def test_reversing_a_path_inverts_the_class_map(unknot_config,
                                                unknot_moved_config):
    run0, run1 = ct._aligned_runs(unknot_config, unknot_moved_config)
    path = ct.FamilyPath(run0, run1)
    run0.execute()
    run1.execute()
    report = ct.reversal_check(path)
    assert report["pass"]
    assert report["defects"] == []


def test_a_path_with_a_positive_coindex_chord_is_refused_before_any_count(
        multi_config, monkeypatch):
    """On multichord translated by 0.05 the grading-1 chord c3 has coindex
    1, so the nonconstant path is outside the validated scope: the compare
    is refused from the prepared runs, before either run counts a line or
    a tree."""
    moved = json.loads(json.dumps(multi_config))
    moved["family"]["core"] = moved["family"]["core"].replace("x1^2", "(x1 - 0.05)^2")
    assert moved["family"]["core"] != multi_config["family"]["core"]

    def execute(run):
        raise AssertionError("%s counted before the path was checked"
                             % run.family.label)
    monkeypatch.setattr(pl.GFRun, "execute", execute)
    with pytest.raises(ct.PathError, match="coindex 0") as info:
        ct.isotopy_compare(multi_config, moved)
    assert "('c3', 1)" in str(info.value)


def test_diagram_check_requires_equal_graded_ranks(unknot_config,
                                                   twowell_config):
    a = pl.gf_run(unknot_config)
    b = pl.gf_run(twowell_config)
    with pytest.raises(ct.PathError, match="rank"):
        ct.diagram_check(a, b, {}, {}, {})


# The two-triangle torus stands in for a run: its ring has a nonzero
# product, which no generating-family workload sends through a chain map.
T2_SWAP = {"a": "b", "b": "a", "L": "U", "U": "L", "p": "p", "c": "c"}


def t2_run():
    R = t2_ring()
    return SimpleNamespace(ring=R, complex=R.complex,
                           chords=R.complex.generators)


def t2_phi(mapping):
    return {(src, dst): 1 for src, dst in mapping.items()}


def test_diagram_check_passes_on_identity_and_swap_triples():
    run = t2_run()
    ident = t2_phi({g: g for g in T2_SWAP})
    swap = t2_phi(T2_SWAP)
    assert ct.diagram_check(run, run, ident, ident, ident) == []
    assert ct.diagram_check(run, run, swap, swap, swap) == []


def test_diagram_check_reports_a_mixed_triple_entry_by_entry():
    run = t2_run()
    ident = t2_phi({g: g for g in T2_SWAP})
    swap = t2_phi(T2_SWAP)
    assert ct.diagram_check(run, run, ident, swap, ident) == [
        {"pair": ["h0#0", "h1#1"], "phi13(mu2)": [0, 1],
         "mu2(phi12,phi23)": [1, 1]},
        {"pair": ["h1#1", "h1#1"], "phi13(mu2)": [0],
         "mu2(phi12,phi23)": [1]},
    ]


def test_cochain_map_defects_name_the_dropped_target():
    run = t2_run()
    phi = t2_phi({g: g for g in T2_SWAP if g != "U"})
    assert cx.cochain_map_defects(run.complex, run.complex,
                                  ct.phi_table(phi)) == [
        {"generator": g, "defect": ["U"]} for g in "abc"]


def test_info_logging_names_each_slice_and_matrix(unknot_config,
                                                 unknot_moved_config, caplog):
    caplog.set_level(logging.INFO, logger="gftrees")
    ct.isotopy_compare(unknot_config, unknot_moved_config)
    got = [r.getMessage() for r in caplog.records
           if r.name.startswith("gftrees")]
    assert got[:2] == ["prepared unknot: 1 chords of 2 critical points",
                       "prepared unknot-moved: 1 chords of 2 critical points"]
    slices = [m for m in got if m.startswith("slice")]
    assert slices == ["slice t=0.00: reused 2 endpoint critical points",
                      "slice t=0.25: searched, 2 critical points",
                      "slice t=0.50: searched, 2 critical points",
                      "slice t=0.75: searched, 2 critical points",
                      "slice t=1.00: reused 2 endpoint critical points"]
    assert [m for m in got if m.startswith("continuation")] == [
        "continuation matrix %s: 1 entries, 1 odd" % tag
        for tag in ("W", "W_{1,2;3}", "W_{2,3;3}", "W_{1,3;3}")]
    # the +Q slot of W_{1,2;3} and W_{2,3;3} is pinned
    assert [m for m in got if m.startswith("scan")] == [
        "scan %s from 0:c1: k = 1, pins %s, 2 seeds" % tp
        for tp in (("W", []), ("W_{1,2;3}", [3]), ("W_{2,3;3}", [1]),
                   ("W_{1,3;3}", []))]


@pytest.fixture(scope="module")
def isotopy_counts():
    """field tag -> (p, q, W, criticals, keyword arguments) of the line
    count each continuation matrix of the unknot isotopy makes."""
    from conftest import UNKNOT, UNKNOT_MOVED
    calls = {}
    count = fl.count_lines

    def spied(source, q):
        calls[source.field.tag] = (source.p, q, source.field, source.criticals,
                                   {"r0": source.r0, "m": source.m,
                                    "tolerances": source.tol})
        return count(source, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fl, "count_lines", spied)
        ct.isotopy_compare(json.loads(json.dumps(UNKNOT)),
                           json.loads(json.dumps(UNKNOT_MOVED)))
    return calls


@pytest.mark.parametrize("tag, pin", [("W_{1,2;3}", 3), ("W_{2,3;3}", 1)])
def test_the_lifted_chord_scans_a_pinned_k1_chart(isotopy_counts, tag, pin):
    """The +Q slot is pinned, so the k = 2 chart of the lifted chord (the
    path axis t and the slot) scans as k = 1 on the t axis, from seeds
    with exactly 0.0 in the slot, and its parity is that of the unpinned
    512-seed circle."""
    p, q, W, crits, kw = isotopy_counts[tag]
    tol = kw["tolerances"]
    scan, chart = fl.sphere_scan(W, p, crits, r0=kw["r0"], m=kw["m"],
                                 tolerances=kw["tolerances"])
    assert (p.coindex, chart.k, chart.pins) == (2, 1, (pin,))
    assert not chart.frame[pin].any()
    assert all(fl.chart_start(chart, u)[pin] == 0.0 for u in scan.dirs)
    pinned = fl.count_lines(fl.LineSource(W, p, crits, **kw), q)
    full = fl.build_chart(W, p, "unstable", kw["r0"])
    assert full.k == 2
    # the pinned frame and the slot span the whole unstable frame
    both = np.column_stack([chart.frame, np.eye(W.dim)[:, [pin]]])
    assert np.allclose(both @ both.T, full.frame @ full.frame.T, atol=1e-12)
    dirs = fl.sphere_dirs(2, 512, 12345)
    stops = fl.flow_stops(W, crits, p.value)
    trajs = fl.integrate_batch(W, [fl.chart_start(full, u) for u in dirs], stops, tol)
    is_q = [t.termination.as_tuple() == ("converged", q.id) for t in trajs]
    circle = fl._capture_clusters(is_q, fl._seed_neighbors(dirs))
    assert len(circle) % 2 == pinned.parity == 1


@pytest.mark.parametrize("tag", ["W", "W_{1,3;3}"])
def test_a_lifted_chord_with_nothing_to_pin_keeps_its_whole_frame(
        isotopy_counts, tag):
    p, q, W, crits, kw = isotopy_counts[tag]
    assert fl.pinned_slots(W) == ()
    _, chart = fl.sphere_scan(W, p, crits, r0=kw["r0"], m=kw["m"],
                              tolerances=kw["tolerances"])
    full = fl.build_chart(W, p, "unstable", kw["r0"])
    assert chart.pins == () and chart.k == full.k == 1
    assert chart.frame.tobytes() == whole_hessian_frame(W, p).tobytes()
