"""Command-line interface: exit codes, report output, config validation."""

import json
import logging
import os
import subprocess
import sys

import pytest

import gftrees
from gftrees import cli
from gftrees import pipeline as pl

from conftest import MULTI, UNKNOT


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if isinstance(obj, dict) else obj)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chords_reports_the_single_chord(tmp_path, capsys):
    path = write_config(tmp_path, UNKNOT)
    code, out, err = run_cli(capsys, "chords", path)
    assert code == 0
    rep = json.loads(out)
    assert len(rep["chords"]) == 1
    assert rep["chords"][0]["value"] == pytest.approx(4 / 3, abs=1e-9)
    assert rep["rho"] == pytest.approx(4 / 3, abs=1e-9)


def test_verify_passes_on_the_unknot(tmp_path, capsys):
    path = write_config(tmp_path, UNKNOT)
    code, out, err = run_cli(capsys, "verify", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and rep["algebra"]["pass"] and rep["transfer"]["pass"]


def test_json_output_file_matches_stdout_format(tmp_path, capsys):
    path = write_config(tmp_path, UNKNOT)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "chords", path, "--json", str(out_path))
    assert code == 0
    assert out == ""  # routed to the file instead
    assert json.loads(out_path.read_text())["chords"]


def test_reports_are_byte_identical_across_invocations(tmp_path, capsys):
    path = write_config(tmp_path, UNKNOT)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "cohomology", path, "--json", str(p1))[0] == 0
    assert run_cli(capsys, "cohomology", path, "--json", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_seed_override_changes_the_recorded_seed(tmp_path, capsys):
    path = write_config(tmp_path, UNKNOT)
    code, out, _ = run_cli(capsys, "chords", path, "--seed", "99")
    assert code == 0
    assert json.loads(out)["config"]["seeds"]["rng"] == 99


def test_malformed_json_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, '{"mode": "gf",')
    code, _, err = run_cli(capsys, "chords", path)
    assert code == 2
    assert "error:" in err


def test_schema_violations_exit_2(tmp_path, capsys):
    bad = {"mode": "gf", "familyy": UNKNOT["family"]}
    code, _, err = run_cli(capsys, "chords", write_config(tmp_path, bad))
    assert code == 2
    assert "familyy" in err
    torus = json.loads(json.dumps(UNKNOT))
    torus["family"]["base"] = "torus"
    code, _, err = run_cli(capsys, "chords",
                           write_config(tmp_path, torus, "torus.json"))
    assert code == 2
    assert "family/base" in err
    for density in (1.5, 2.0):
        dense = dict(UNKNOT, seeds={"grid_density": density})
        code, _, err = run_cli(capsys, "chords",
                               write_config(tmp_path, dense, "dense.json"))
        assert code == 2
        assert "seeds/grid_density" in err


def test_a_top_level_label_is_refused(tmp_path, capsys):
    # only family.label names a family; a top-level label would be ignored
    labelled = dict(UNKNOT, label="unknot")
    code, _, err = run_cli(capsys, "chords", write_config(tmp_path, labelled))
    assert code == 2
    assert "'label' was unexpected" in err


def test_fixed_tree_solver_settings_are_rejected(tmp_path, capsys):
    """The tree solver's settings are constants of `trees`, not config."""
    fixed = dict(UNKNOT, solver={"fd_step": 1e-6})
    code, _, err = run_cli(capsys, "chords", write_config(tmp_path, fixed))
    assert code == 2
    assert "solver" in err and "fd_step" in err


MISSING = object()

# (path of the key set, its value): every rule the config tables enforce
REJECTED = [
    ("family/n", 0), ("family/N", 1.5), ("family/inner_box", [[1]]),
    ("family/base", "torus"), ("family/stabilize", ["x"]),
    ("family/fpd", {"components": ["e1"], "scale": 2}), ("family/label", 3),
    ("morse/n", 0),
    ("seeds/rng", -1), ("seeds/rng", 2 ** 64), ("seeds/rng", True),
    ("seeds/grid_density", 1), ("seeds/grid_density", 2.0),
    ("solver/r0", 0), ("solver/scan_density", 7), ("solver/lambda", "a"),
    ("tolerances/rtol", "x"), ("tolerances/rtol", -1e-9),
    ("tolerances/atol", 0), ("tolerances/r_conv", 0),
    ("tolerances/value_window", 0), ("tolerances/t_max", -1),
    ("tolerances/h0", 0), ("tolerances/h_max", 0),
    ("tolerances/tol_grad", 0), ("tolerances/tol_value", 0),
    ("tolerances/tol_dedup", -1), ("tolerances/tol_degenerate", -1),
    ("familyy", {}), ("label", "unknot"),
    ("family/core", MISSING),
]


@pytest.mark.parametrize("where, value", REJECTED, ids=[
    "%s missing" % w if v is MISSING else "%s=%r" % (w, v) for w, v in REJECTED])
def test_every_config_rule_is_refused_by_the_cli_and_the_api(
        tmp_path, capsys, where, value):
    if where.startswith("morse/"):
        cfg = {"mode": "morse-torus", "morse": {}}
    else:
        cfg = json.loads(json.dumps(UNKNOT))
    *sections, key = where.split("/")
    target = cfg
    for name in sections:
        target = target.setdefault(name, {})
    if value is MISSING:
        del target[key]
    else:
        target[key] = value
    code, out, err = run_cli(capsys, "chords", write_config(tmp_path, cfg))
    assert code == 2 and out == ""
    # a missing key is named by its section and its own name
    assert all(part in err for part in (
        (sections[0], repr(key)) if value is MISSING else (where,)))
    with pytest.raises(ValueError, match=where):
        pl.GFRun(cfg)


@pytest.mark.parametrize("lam", [-0.01, 0.0])
def test_a_lambda_that_is_not_positive_exits_2(tmp_path, capsys, lam):
    """The stabilizing term Q must be positive definite."""
    cfg = dict(UNKNOT, solver={"lambda": lam})
    code, out, err = run_cli(capsys, "cohomology", write_config(tmp_path, cfg))
    assert code == 2 and out == ""
    assert "solver/lambda" in err and "Traceback" not in err


def test_a_seed_override_past_64_bits_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, UNKNOT)
    code, out, err = run_cli(capsys, "chords", path,
                             "--seed", str(2 ** 64))
    assert code == 2 and out == ""
    assert "seeds/rng" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_1_exit_2(tmp_path, capsys, jobs):
    # these ran inline once, as if --jobs 1 had been given
    path = write_config(tmp_path, UNKNOT)
    with pytest.raises(SystemExit) as e:
        cli.main(["chords", path, "--jobs", jobs])
    out, err = capsys.readouterr()
    assert e.value.code == 2 and out == ""
    assert "argument --jobs: must be an integer >= 1, got '%s'" % jobs in err


def test_bad_expression_exits_2(tmp_path, capsys):
    bad = json.loads(json.dumps(UNKNOT))
    bad["family"]["core"] = "e1^3/3 + (x1^2 - 1*e1"
    code, _, err = run_cli(capsys, "chords", write_config(tmp_path, bad))
    assert code == 2
    assert "position" in err


def test_unknown_tolerance_exits_2(tmp_path, capsys):
    bad = json.loads(json.dumps(UNKNOT))
    bad["tolerances"] = {"rtoll": 1e-9}
    code, _, err = run_cli(capsys, "chords", write_config(tmp_path, bad))
    assert code == 2
    assert "unknown tolerance" in err


def test_chordless_families_exit_1(tmp_path, capsys):
    bad = json.loads(json.dumps(UNKNOT))
    # flip the coefficient sign: every nonzero critical value goes negative
    bad["family"]["core"] = "e1^3/3 + (1 - x1^2)*e1"
    bad["family"]["label"] = "no-chords"
    code, _, err = run_cli(capsys, "chords", write_config(tmp_path, bad))
    assert code == 1
    assert "NoChordsError" in err


def test_missing_comparison_flag_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, UNKNOT)
    code, _, err = run_cli(capsys, "compare", path)
    assert code == 2
    assert "exactly one of" in err


def test_reseed_comparison_passes(tmp_path, capsys):
    path = write_config(tmp_path, UNKNOT)
    code, out, err = run_cli(capsys, "compare", path, "--reseed", "0", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"]
    assert rep["comparison"]["kind"] == "perturbation-reseed"
    assert rep["comparison"]["seeds"] == [0, 5]
    assert "PASS" in err


@pytest.mark.parametrize("name", ["unknot", "multichord"])
def test_differential_reports_the_delta_of_the_cohomology_report(
        name, tmp_path, capsys, request):
    cfg, run = {"unknot": (UNKNOT, "unknot_run"),
                "multichord": (MULTI, "multi_run")}[name]
    want = request.getfixturevalue(run).report()
    code, out, _ = run_cli(capsys, "differential", write_config(tmp_path, cfg))
    assert code == 0
    rep = json.loads(out)
    assert rep["label"] == want["label"] == name
    assert (rep["delta"], rep["delta_counts"]) == (want["delta"], want["delta_counts"])
    assert rep["chords"] == want["chords"]


def test_stabilize_comparison_reports_the_library_verdict(tmp_path, capsys):
    path = write_config(tmp_path, MULTI)
    code, out, err = run_cli(capsys, "compare", path, "--stabilize", "+")
    _, _, verdict = pl.stabilization_compare(json.loads(json.dumps(MULTI)), ["+"])
    verdict["comparison"] = {"kind": "stabilization", "signs": ["+"]}
    assert out == pl.canonical_json(verdict) + "\n"
    assert verdict["pass"] and code == 0 and "PASS" in err


def test_stabilize_takes_only_signs(tmp_path, capsys):
    path = write_config(tmp_path, UNKNOT)
    code, out, err = run_cli(capsys, "compare", path, "--stabilize", "x")
    assert code == 2 and out == ""
    assert "--stabilize takes a comma list of + and -" in err


def test_morse_torus_pool_matches_the_inline_run(morse_run, capsys):
    code, out, _ = run_cli(capsys, "morse-torus", "--jobs", "2")
    assert code == 0
    want = {**morse_run.report(), "demo_checks": pl.morse_demo_check(morse_run)}
    assert out == pl.canonical_json(want) + "\n"


def test_morse_torus_rejects_unknown_tolerances(tmp_path, capsys):
    bad = {"mode": "morse-torus", "tolerances": {"tol_bogus": 1}}
    code, out, err = run_cli(capsys, "morse-torus", write_config(tmp_path, bad))
    assert code == 2
    assert out == ""
    assert "unknown tolerance 'tol_bogus'" in err


def test_pooled_tree_dump_matches_the_inline_run(multi_run, tmp_path, capsys):
    path = write_config(tmp_path, MULTI)
    code, out, _ = run_cli(capsys, "product", path, "--dump-trees",
                           "--jobs", "2")
    assert code == 0
    trees = json.loads(out)["trees"]
    assert trees == json.loads(pl.canonical_json(
        cli.tree_section(multi_run.trees)))
    assert sorted(trees) == sorted(multi_run.report()["m2_counts"])


def test_morse_torus_demo_passes(capsys):
    code, out, _ = run_cli(capsys, "morse-torus")
    assert code == 0
    rep = json.loads(out)
    assert rep["demo_checks"]["pass"]
    assert rep["ranks"] == [{"0": 1, "1": 2, "2": 1}] * 3


@pytest.mark.parametrize("module", ["scipy", "jsonschema", "multiprocessing",
                                    "concurrent"])
def test_importing_the_cli_loads_no(module):
    """scipy.spatial alone took about half of the CLI's start-up, and
    jsonschema about 0.09 s of it; the process pool's modules load only
    when a run starts a pool."""
    src = os.path.dirname(os.path.dirname(gftrees.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, gftrees.cli; "
         "print(sorted(m for m in sys.modules if m.startswith(%r)))" % module],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("term", ["0^-2", "1/(x1 - x1)"])
def test_an_expression_outside_its_domain_exits_2(tmp_path, capsys, term):
    bad = json.loads(json.dumps(UNKNOT))
    bad["family"]["core"] += " + " + term
    code, out, err = run_cli(capsys, "chords", write_config(tmp_path, bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_domain_error_names_the_variables(tmp_path, capsys):
    bad = json.loads(json.dumps(UNKNOT))
    bad["family"]["core"] += " + 1/(x1 - 1)"
    code, out, err = run_cli(capsys, "chords", write_config(tmp_path, bad))
    assert (code, out) == (2, "")
    assert err == "error: division by zero in: 1 / (x1 - 1)\n"


def test_a_constant_path_with_a_positive_coindex_chord_exits_1(
        tmp_path, capsys, monkeypatch):
    """multichord's grading-1 chord c3 has coindex 1; its lifted chord has
    the same zero-width wall on a constant path as on a moving one, so the
    compare is refused before either run counts anything."""
    def execute(run):
        raise AssertionError("%s counted before the path was checked"
                             % run.family.label)
    monkeypatch.setattr(pl.GFRun, "execute", execute)
    path = write_config(tmp_path, MULTI)
    code, out, err = run_cli(capsys, "compare", path, "--isotopy", path)
    assert (code, out) == (1, "")
    assert err.startswith("PathError: ") and "coindex 0" in err
    assert "[('c3', 1)]" in err


@pytest.mark.parametrize("strict, code, verdict", [
    (False, 0, "PASS"), (True, 1, "FAIL (strict: 1 warnings)")])
def test_strict_fails_a_passing_report_that_carries_a_warning(
        capsys, strict, code, verdict):
    import argparse
    args = argparse.Namespace(json=None, strict=strict)
    report = {"pass": True, "warnings": ["slice t=0.25 is degenerate"]}
    assert cli._finish(report, args, passed=True) == code
    out, err = capsys.readouterr()
    assert json.loads(out) == report
    assert err == verdict + "\n"


def test_info_logging_names_each_prepare_and_task(tmp_path, capsys, caplog):
    path = write_config(tmp_path, MULTI)
    # the default level adds nothing
    assert run_cli(capsys, "cohomology", path)[0] == 0
    assert not [r for r in caplog.records if r.name.startswith("gftrees")]
    caplog.set_level(logging.INFO, logger="gftrees")
    code, out, _ = run_cli(capsys, "cohomology", path)
    assert code == 0
    rep = json.loads(out)
    got = [r.getMessage() for r in caplog.records]
    assert got[0] == "prepared multichord: 3 chords of 6 critical points"
    counted = sorted(m for m in got if m.startswith("counted "))
    want = ["counted delta w %s %s: parity %d" % (*k.split("->"), v["parity"])
            for k, v in rep["delta_counts"].items()]
    want += ["counted m2 %s %s %s: parity %d" % (*k.replace("->", ",").split(","),
                                                  v["parity"])
             for k, v in rep["m2_counts"].items()]
    assert counted == sorted(want)
