"""Command-line surface.

Subcommands: ``validate``, ``section``, ``volume``, ``ft``, ``theorem``,
``suite``.  Body specs are JSON files ``{"n": int, "kind": str, "params":
{...}}``.  Every command writes a JSON report (full provenance), a CSV
summary, and a ``.meta.json`` sidecar holding timestamps, into the output
directory.

Exit codes: 0 pass, 1 violation beyond tolerance, 2 numerical-precision
failure (truncation or refinement warnings escalated), 3 invalid input.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import sections as sect
from .bodies import body_from_dict, validate
from .config import RunConfig, default_config, philox
from .errors import (
    EXIT_INVALID,
    EXIT_PASS,
    EXIT_PRECISION,
    EXIT_VIOLATION,
    InvalidInputError,
    NumericalEvaluationError,
    exit_code,
)
from .harmonics import _check_degree
from .reporting import build_report, write_report
from .spherequad import mc_volume
from .suite import run_suite
from .theorems import (
    VerificationContext,
    corollary1_verify,
    gamma_lemma_check,
    parseval_check,
    positivity_check,
    separation_verify,
    stability_verify,
)

def _slug(text):
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-")[:80]


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        cfg = cfg.replace(seed=args.seed)
    if getattr(args, "jmax", None) is not None:
        jm = dict(cfg.jmax)
        for key in jm:
            jm[key] = args.jmax
        cfg = cfg.replace(jmax=jm)
    for N, j in cfg.jmax.items():  # before any basis is built
        _check_degree(N, j)
    return cfg


def _load_body_spec(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"unreadable body spec {path}: {exc}") from exc


def _load_body(path, certify=True):
    return body_from_dict(_load_body_spec(path), certify=certify)


def _check_grid(args):
    if args.grid < 1:
        raise InvalidInputError(f"--grid must be >= 1, got {args.grid}")


def _parse_xi(text, n):
    try:
        vec = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse direction {text!r}") from exc
    if vec.size != 2 * n:
        raise InvalidInputError(f"direction needs {2 * n} components, got {vec.size}")
    return sect.unit_directions(vec)


# --- subcommands -------------------------------------------------------------


def cmd_validate(args):
    cfg = _load_config(args)
    body = _load_body(args.body, certify=False)
    report = validate(body, args.samples, cfg.seed)
    for name, chk in report.checks.items():
        print(f"  {name}: {'pass' if chk.passed else 'FAIL'} "
              f"(worst {chk.worst:.3e}, tol {chk.tolerance:.0e})")
    payload = report.to_dict()
    rows = [[name, c.passed, c.worst, c.tolerance] for name, c in report.checks.items()]
    stem = os.path.join(cfg.output_dir, f"validate_{_slug(body.label)}")
    write_report(stem, build_report("validate", cfg, payload), rows,
                 ["check", "passed", "worst", "tolerance"])
    if report.passed:
        print(f"{body.label}: all invariants hold")
        return EXIT_PASS
    print(f"{body.label}: FAILED {', '.join(report.failed_checks())}")
    return EXIT_VIOLATION


def cmd_section(args):
    _check_grid(args)
    cfg = _load_config(args)
    body = _load_body(args.body)
    n = body.dim.n
    if args.xi:
        dirs = _parse_xi(args.xi, n)
    else:
        dirs = sect.unit_directions(philox(cfg.seed).normal(size=(args.grid, 2 * n)))
    want_direct, want_fourier = args.method != "fourier", args.method != "direct"
    columns = {}
    warnings = []
    if want_fourier:
        ft = VerificationContext(cfg).ft(body, float(2 * n - 2))
        warnings.extend(ft.warnings)
    if want_direct:
        columns["direct"], columns["direct_error"] = sect.section_volume_direct(
            body, dirs, config=cfg)
    if want_fourier:
        values, errors = sect.section_volume_fourier(body, dirs, ft)
        columns["fourier"], columns["fourier_error"] = values, errors
        # section volumes are positive: a value below minus its tail estimate
        # means the truncation failed
        negative = values < -errors
        for value, err in zip(values[negative], errors[negative]):
            msg = (f"negative section value {value:.3e} beyond tail estimate {err:.3e}: "
                   "truncation failure")
            if msg not in warnings:
                warnings.append(msg)
    if want_direct and want_fourier:
        columns["relative_discrepancy"] = np.abs(columns["fourier"] - columns["direct"]) \
            / columns["direct"]
    rows = []
    results = []
    for i, xi in enumerate(dirs):
        entry = {"xi": [float(v) for v in xi]}
        entry.update((key, float(col[i])) for key, col in columns.items())
        results.append(entry)
        rows.append([entry["xi"], entry.get("direct"), entry.get("fourier"),
                     entry.get("relative_discrepancy")])
        print("  " + ", ".join(f"{k}={v}" for k, v in entry.items() if k != "xi"))
    payload = {"body": body.label, "method": args.method, "directions": results,
               "warnings": warnings}
    stem = os.path.join(cfg.output_dir, f"section_{_slug(body.label)}_{args.method}")
    write_report(stem, build_report("section", cfg, payload), rows,
                 ["xi", "direct", "fourier", "relative_discrepancy"])
    return EXIT_PRECISION if warnings else EXIT_PASS


def cmd_volume(args):
    cfg = _load_config(args)
    body = _load_body(args.body)
    value, err = sect.volume_with_error(body, cfg)
    payload = {"body": body.label, "volume": value, "error_estimate": err}
    print(f"{body.label}: volume {value:.9g} (err est {err:.2e})")
    if args.mc:
        mc = mc_volume(body, args.mc, cfg.seed)
        z = abs(value - mc.estimate) / mc.std_error
        payload["mc"] = {"estimate": mc.estimate, "std_error": mc.std_error,
                         "samples": mc.samples, "z": z}
        print(f"  monte carlo: {mc.estimate:.9g} +- {mc.std_error:.2e} (z={z:.2f})")
    stem = os.path.join(cfg.output_dir, f"volume_{_slug(body.label)}")
    write_report(stem, build_report("volume", cfg, payload),
                 [[body.label, value, err]], ["body", "volume", "error"])
    return EXIT_PASS


def cmd_ft(args):
    _check_grid(args)
    cfg = _load_config(args)
    body = _load_body(args.body)
    N = body.dim.N
    p = args.p if args.p is not None else float(N - 2)
    ft = VerificationContext(cfg).ft(body, p)
    xs = sect.unit_directions(philox(cfg.seed).normal(size=(args.grid, N)))
    vals = ft.evaluate(xs)
    payload = ft.to_dict()
    payload["sample_values"] = [
        {"xi": [float(v) for v in x], "value": float(val)} for x, val in zip(xs, vals)
    ]
    print(f"{body.label}: transform at p={p:g}, jmax={ft.jmax}, "
          f"tail {ft.tail_ratio:.2e}, sample range [{vals.min():.6g}, {vals.max():.6g}]")
    for w in ft.warnings:
        print(f"  warning: {w}")
    stem = os.path.join(cfg.output_dir, f"ft_{_slug(body.label)}_p{p:g}")
    write_report(stem, build_report("ft", cfg, payload),
                 [[j, ell, c] for j, ell, c in payload["coefficients"]],
                 ["degree", "index", "coefficient"])
    return EXIT_PRECISION if ft.warnings else EXIT_PASS


def cmd_theorem(args):
    cfg = _load_config(args)
    which = args.which
    if which != "gamma" and not args.K:
        raise InvalidInputError(f"--which {which} requires -K")
    ctx = VerificationContext(cfg)
    if which == "gamma":
        rows = gamma_lemma_check(args.nmax)
        passed = all(r.passed for r in rows)
        payload = {"rows": [[r.n, r.lhs, r.rhs, r.passed] for r in rows]}
        csv_rows = [[r.n, r.lhs, r.rhs, r.log_margin, r.passed] for r in rows]
        header = ["n", "lhs", "rhs", "log_margin", "passed"]
        warnings = []
        print(f"gamma inequality: {'pass' if passed else 'FAIL'} for n=1..{args.nmax}")
    elif which == "positivity":
        body = _load_body(args.K)
        res = positivity_check(body, context=ctx)
        passed = res.passed if res.passed is not None else True
        payload = res.to_dict()
        csv_rows = [[body.label, res.min_value, res.max_value, res.passed]]
        header = ["body", "min", "max", "passed"]
        # exploratory runs carry no assertion: warnings stay in the report
        warnings = [] if res.exploratory else list(res.warnings)
        mode = "exploratory, no assertion" if res.exploratory else ("pass" if passed else "FAIL")
        print(f"positivity {body.label}: min {res.min_value:.6g}, max {res.max_value:.6g} [{mode}]")
    elif which == "parseval":
        K = _load_body(args.K)
        L = _load_body(args.L) if args.L else K
        res = parseval_check(K, L, args.p if args.p is not None else 2.0, context=ctx)
        passed = res.relative_error <= 1e-2
        payload = res.to_dict()
        csv_rows = [[K.label, L.label, res.lhs, res.rhs, res.relative_error]]
        header = ["K", "L", "lhs", "rhs", "relative_error"]
        warnings = list(res.warnings)
        print(f"parseval: lhs {res.lhs:.9g}, rhs {res.rhs:.9g}, rel err {res.relative_error:.2e}")
    else:
        K = _load_body(args.K)
        if not args.L:
            raise InvalidInputError(f"--which {which} requires -L")
        L = _load_body(args.L)
        fn = {"stability": stability_verify, "separation": separation_verify,
              "corollary1": corollary1_verify}[which]
        kwargs = {}
        if which in ("stability", "separation") and args.epsilon is not None:
            kwargs["epsilon"] = args.epsilon
        res = fn(K, L, context=ctx, **kwargs)
        passed = res.passed
        payload = res.to_dict()
        csv_rows = [[K.label, L.label, res.margin, res.tol, res.passed]]
        header = ["K", "L", "margin", "tol", "passed"]
        warnings = list(getattr(res, "warnings", ()))
        print(f"{which}: margin {res.margin:.6e} (tol {res.tol:.1e}) "
              f"{'pass' if passed else 'FAIL'}")
    stem = os.path.join(cfg.output_dir, f"theorem_{which}")
    write_report(stem, build_report(f"theorem:{which}", cfg, payload), csv_rows, header)
    return exit_code([(passed, warnings)])


def cmd_suite(args):
    cfg = _load_config(args)
    result = run_suite(cfg, names=args.criteria or None)
    stem = os.path.join(cfg.output_dir, "suite_summary")
    write_report(stem, build_report("suite", cfg, result.to_dict()),
                 result.summary_rows(), ["criterion", "measured", "bound", "status"],
                 timings=result.timings())
    print(f"suite finished in {result.wall_seconds:.1f}s, exit code {result.exit_code}")
    return result.exit_code


# --- parser ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cxsect",
        description="Complex hyperplane sections of rotation-invariant convex "
                    "bodies: section volumes by two routes and verification of "
                    "the volume-comparison inequalities.",
    )
    parser.add_argument("--config", help="JSON run-configuration file")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check body invariants by sampling")
    p.add_argument("body", help="body-spec JSON file")
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("section", help="hyperplane section volumes")
    p.add_argument("body")
    p.add_argument("--xi", help="comma-separated direction (normalized on ingestion)")
    p.add_argument("--grid", type=int, default=64, help="number of sampled directions")
    p.add_argument("--method", choices=("direct", "fourier", "both"), default="both")
    p.set_defaults(fn=cmd_section)

    p = sub.add_parser("volume", help="polar-formula volume")
    p.add_argument("body")
    p.add_argument("--mc", type=int, default=0, help="Monte Carlo cross-check samples")
    p.set_defaults(fn=cmd_volume)

    p = sub.add_parser("ft", help="transform of the norm power, expansion report")
    p.add_argument("body")
    p.add_argument("-p", type=float, default=None, help="exponent (default 2n-2)")
    p.add_argument("--grid", type=int, default=16, help="sample directions in the report")
    p.set_defaults(fn=cmd_ft)

    p = sub.add_parser("theorem", help="run one verification check")
    p.add_argument("--which", required=True,
                   choices=("stability", "separation", "corollary1", "parseval",
                            "positivity", "gamma"))
    p.add_argument("-K", help="body-spec JSON file")
    p.add_argument("-L", help="second body-spec JSON file")
    p.add_argument("-p", type=float, default=None, help="parseval exponent")
    p.add_argument("--nmax", type=int, default=170)
    p.add_argument("--epsilon", type=float, default=None,
                   help="hypothesis-driven section gap (stability/separation)")
    p.set_defaults(fn=cmd_theorem)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--criteria", nargs="*", help="subset of criterion names")
    p.add_argument("--jmax", type=int, help="override truncation degree everywhere; "
                   "above a dimension's degree cap (24, 22, 12 at N = 4, 6, 8) exits 3")
    p.set_defaults(fn=cmd_suite)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalEvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
