"""Command-line front end: one JSON config in, one canonical JSON report out.

Exit status: 0 when the requested checks pass (or a pure computation
succeeds), 1 when a verdict comes back failing or the solver refuses a
non-generic configuration, 2 for malformed configs or expressions (an
expression that leaves its domain, `DomainError`, included).  Every config,
read from a file or changed by an option such as `--seed`, is checked by
`pipeline.resolve_config`.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import continuation as ct
from . import critical as cr
from . import flow as fl
from . import pipeline as pl
from . import trees as tr
from .expr import DomainError, ParseError
from .family import FamilyError

log = logging.getLogger("gftrees")

def load_config(path):
    """The config at `path`, checked and with every default filled in."""
    try:
        with open(path) as fh:
            return pl.resolve_config(json.load(fh))
    except json.JSONDecodeError as e:
        raise ConfigError("%s: invalid JSON at line %d column %d: %s"
                          % (path, e.lineno, e.colno, e.msg))
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e))
    except ValueError as e:
        raise ConfigError("%s: %s" % (path, e))


class ConfigError(ValueError):
    pass


def emit(report, args):
    text = pl.canonical_json(report) + "\n"
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text)
        log.info("wrote %s", args.json)
    else:
        sys.stdout.write(text)


def _apply_overrides(cfg, args):
    cfg = json.loads(json.dumps(cfg))
    if getattr(args, "seed", None) is not None:
        cfg.setdefault("seeds", {})["rng"] = args.seed
    return cfg


def _finish(report, args, passed=None):
    emit(report, args)
    if passed is None:
        return 0
    if passed and getattr(args, "strict", False):
        warnings = report.get("warnings") or []
        if warnings:
            print("FAIL (strict: %d warnings)" % len(warnings),
                  file=sys.stderr)
            return 1
    print("PASS" if passed else "FAIL", file=sys.stderr)
    return 0 if passed else 1


# -- subcommands ------------------------------------------------------------

def cmd_chords(args):
    cfg = _apply_overrides(load_config(args.config), args)
    run = pl.GFRun(cfg).prepare()
    report = {
        "label": run.family.label,
        "chords": [p.as_dict() for p in run.chords],
        "critical_points_total": len(run.criticals),
        "rho": run.rho,
        "lambda": run.lam,
        "delta_pert": run.bound.delta_pert,
        "config": run.config,
    }
    return _finish(pl._plain(report), args)


def cmd_differential(args):
    cfg = _apply_overrides(load_config(args.config), args)
    run = pl.GFRun(cfg, jobs=args.jobs).prepare()
    counts = {t[2:]: res for t, res in run.run_tasks(run.delta_tasks()).items()}
    report = {
        "label": run.family.label,
        "chords": [p.as_dict() for p in run.chords],
        "delta": {k: sorted(v) for k, v in pl.parity_table(counts).items()},
        "delta_counts": {"%s->%s" % k: v for k, v in counts.items()},
        "config": run.config,
    }
    return _finish(pl._plain(report), args)


def cmd_cohomology(args):
    cfg = _apply_overrides(load_config(args.config), args)
    run = pl.GFRun(cfg, jobs=args.jobs).execute()
    return _finish(run.report(), args, passed=run.algebra["pass"])


def cmd_product(args):
    cfg = _apply_overrides(load_config(args.config), args)
    run = pl.GFRun(cfg, jobs=args.jobs).execute()
    report = run.report()
    if args.dump_trees:
        report["trees"] = tree_section(run.trees)
    return _finish(report, args, passed=run.algebra["pass"])


def tree_section(trees):
    """The `--dump-trees` report section for {(p1, p2, p0): [FlowTree]}."""
    return {"%s,%s->%s" % k: [{"meeting": [float(v) for v in t.meeting],
                               "theta": [float(v) for v in t.theta],
                               "residual_norm": float(t.residual_norm),
                               "condition": float(t.condition)}
                              for t in ts]
            for k, ts in sorted(trees.items())}


def cmd_verify(args):
    cfg = _apply_overrides(load_config(args.config), args)
    run, report = pl.verify_run(cfg, jobs=args.jobs)
    return _finish(report, args, passed=report["pass"])


def cmd_compare(args):
    cfg = _apply_overrides(load_config(args.config), args)
    chosen = [x for x in ("stabilize", "fpd", "reseed", "isotopy")
              if getattr(args, x) is not None]
    if len(chosen) != 1:
        raise ConfigError("compare needs exactly one of --stabilize, --fpd, "
                          "--reseed, --isotopy")
    which = chosen[0]
    if which == "stabilize":
        signs = [s.strip() for s in args.stabilize.split(",") if s.strip()]
        if not signs or any(s not in ("+", "-") for s in signs):
            raise ConfigError("--stabilize takes a comma list of + and -")
        a, b, verdict = pl.stabilization_compare(cfg, signs, jobs=args.jobs)
        verdict["comparison"] = {"kind": "stabilization", "signs": signs}
    elif which == "fpd":
        a, b, verdict = pl.fpd_compare(cfg, args.fpd, jobs=args.jobs)
        verdict["comparison"] = {"kind": "fiber-twist", "components": args.fpd}
    elif which == "reseed":
        sa, sb = args.reseed
        a, b, verdict = pl.reseed_compare(cfg, sa, sb, jobs=args.jobs)
        verdict["comparison"] = {"kind": "perturbation-reseed",
                                 "seeds": [sa, sb]}
    else:
        cfg2 = _apply_overrides(load_config(args.isotopy), args)
        a, b, verdict = ct.isotopy_compare(cfg, cfg2, jobs=args.jobs)
        verdict["comparison"] = {"kind": "family-path",
                                 "configs": [args.config, args.isotopy]}
    return _finish(verdict, args, passed=verdict["pass"])


def cmd_morse_torus(args):
    cfg = load_config(args.config) if args.config else {"mode": "morse-torus"}
    run = pl.MorseRun(_apply_overrides(cfg, args), jobs=args.jobs).execute()
    report = run.report()
    passed = None
    if run.config["morse"] == pl.DEMO_MORSE:
        report["demo_checks"] = pl.morse_demo_check(run)
        passed = report["demo_checks"]["pass"]
    return _finish(pl._plain(report), args, passed=passed)


# -- wiring -----------------------------------------------------------------

def _jobs(text):
    # argparse puts "argument --jobs:" in front of the message and exits 2
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1, got %r" % text)
    return jobs


def build_parser():
    ap = argparse.ArgumentParser(
        prog="gftrees",
        description="Reeb-chord cohomology of linear-at-infinity generating "
                    "families: critical points, flow-line differentials, "
                    "tree-counted products, and invariance checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the perturbation RNG seed")
        p.add_argument("--jobs", type=_jobs, default=1,
                       help="worker processes for counting tasks (>= 1)")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="write the report here instead of stdout")
        p.add_argument("--strict", action="store_true",
                       help="treat recorded warnings as failures")

    p = sub.add_parser("chords", help="critical points of the difference "
                                      "function with positive value")
    common(p)
    p.set_defaults(fn=cmd_chords)

    p = sub.add_parser("differential", help="mod-2 flow-line counts")
    common(p)
    p.set_defaults(fn=cmd_differential)

    p = sub.add_parser("cohomology", help="full complex, ring, and identity "
                                          "checks")
    common(p)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("product", help="tree-counted products, optionally "
                                       "with tree data")
    common(p)
    p.add_argument("--dump-trees", action="store_true",
                   help="include solved tree geometry in the report")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("verify", help="everything checkable about one family")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compare", help="invariance checks between two runs")
    common(p)
    p.add_argument("--stabilize", metavar="SIGNS", default=None,
                   help="compare against a stabilized family, e.g. '+' or '+,-'")
    p.add_argument("--fpd", metavar="COMPONENT", nargs="+", default=None,
                   help="compare against a fiber-twisted family (one "
                        "expression per fiber coordinate)")
    p.add_argument("--reseed", metavar=("SEED_A", "SEED_B"), nargs=2,
                   type=int, default=None,
                   help="compare two perturbation seeds of the same family")
    p.add_argument("--isotopy", metavar="CONFIG2", default=None,
                   help="compare with a second family along a convex path")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("morse-torus",
                       help="Morse-theoretic validation mode on the torus "
                            "(built-in demo when no config is given)")
    common(p, config=False)
    p.add_argument("config", nargs="?", default=None,
                   help="optional JSON config with a 'morse' section")
    p.set_defaults(fn=cmd_morse_torus)
    return ap


def main(argv=None):
    level = os.environ.get("GFTREES_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParseError, DomainError, FamilyError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (cr.NoChordsError, cr.DegenerateRootError, fl.AmbiguousCountError,
            fl.StiffnessError, tr.NonTransverseError, tr.DimensionError,
            ct.PathError) as e:
        print("%s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 1
    except ValueError as e:
        # config errors found after loading: a `--seed` or `--reseed` value
        # out of range, a config of the wrong mode for the command
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
