"""Command-line surface.

Subcommands: ``validate``, ``section``, ``volume``, ``ft``, ``theorem``,
``suite``.  Body specs are JSON files ``{"n": int, "kind": str, "params":
{...}}`` with n one of ``config.COMPLEX_DIMS`` (2, 3, 4).  Every command
writes a JSON report (full provenance), a CSV summary, and a ``.meta.json``
sidecar holding timestamps, into the output directory.

Each ``cmd_*`` takes the parsed arguments and the run configuration and
returns a ``Run``: its report and the (passed, warnings) outcomes of its
checks.  ``main`` alone loads the configuration, writes the report and
turns the outcomes into the exit code (``errors.exit_code``).

Exit codes: 0 pass, 1 violation beyond tolerance, 2 numerical-precision
failure (truncation or refinement warnings escalated), 3 invalid input.  A
usage error (no command, an unknown flag, a flag value argparse cannot read,
a ``theorem`` flag the chosen check does not read) is invalid input: stderr
holds argparse's usage line and one ``error:`` line.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import NamedTuple

import numpy as np

from . import sections as sect
from .bodies import body_from_dict, validate
from .config import RunConfig, default_config, philox
from .errors import EXIT_INVALID, EXIT_PRECISION, InvalidInputError, NumericalEvaluationError, exit_code
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


class Run(NamedTuple):
    """What a command hands ``main``: the report's file name (without
    extension) and kind, its payload, its CSV rows and header, the
    (passed, warnings) outcomes that decide the exit code, and the timings
    for the sidecar."""

    name: str
    kind: str
    payload: dict
    rows: list
    header: list
    outcomes: list
    timings: dict | None = None


def _slug(text):
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-")[:80]


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    if getattr(args, "jmax", None) is not None:
        cfg = cfg.replace(jmax=dict.fromkeys(cfg.jmax, args.jmax))
    return cfg


def _load_body(path, certify=True):
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8, not JSON
        raise InvalidInputError(f"unreadable body spec {path}: {exc}") from exc
    return body_from_dict(spec, certify=certify)


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


def cmd_validate(args, cfg):
    body = _load_body(args.body, certify=False)
    report = validate(body, args.samples, cfg.seed)
    for name, chk in report.checks.items():
        print(f"  {name}: {'pass' if chk.passed else 'FAIL'} "
              f"(worst {chk.worst:.3e}, tol {chk.tolerance:.0e})")
    print(f"{body.label}: all invariants hold" if report.passed
          else f"{body.label}: FAILED {', '.join(report.failed_checks())}")
    rows = [[name, c.passed, c.worst, c.tolerance] for name, c in report.checks.items()]
    return Run(f"validate_{_slug(body.label)}", "validate", report.to_dict(), rows,
               ["check", "passed", "worst", "tolerance"], [(report.passed, ())])


def cmd_section(args, cfg):
    _check_grid(args)
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
        columns["relative_discrepancy"] = np.abs(columns["fourier"] - columns["direct"]) / columns["direct"]
    results = [{"xi": [float(v) for v in xi], **{key: float(col[i]) for key, col in columns.items()}}
               for i, xi in enumerate(dirs)]
    for entry in results:
        print("  " + ", ".join(f"{k}={v}" for k, v in entry.items() if k != "xi"))
    rows = [[e["xi"], e.get("direct"), e.get("fourier"), e.get("relative_discrepancy")]
            for e in results]
    payload = {"body": body.label, "method": args.method, "directions": results,
               "warnings": warnings}
    return Run(f"section_{_slug(body.label)}_{args.method}", "section", payload, rows,
               ["xi", "direct", "fourier", "relative_discrepancy"], [(True, warnings)])


def cmd_volume(args, cfg):
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
    return Run(f"volume_{_slug(body.label)}", "volume", payload, [[body.label, value, err]],
               ["body", "volume", "error"], [])


def cmd_ft(args, cfg):
    _check_grid(args)
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
    return Run(f"ft_{_slug(body.label)}_p{p:g}", "ft", payload,
               [[j, ell, c] for j, ell, c in payload["coefficients"]],
               ["degree", "index", "coefficient"], [(True, ft.warnings)])


# the optional flags each check of ``theorem`` reads; any other is a usage error
_THEOREM_FLAGS = {
    "gamma": ("nmax",), "positivity": ("K",), "parseval": ("K", "L", "p"),
    "stability": ("K", "L", "epsilon"), "separation": ("K", "L", "epsilon"),
    "corollary1": ("K", "L"),
}


def cmd_theorem(args, cfg):
    which = args.which
    reads = _THEOREM_FLAGS[which]
    for dest in ("K", "L", "p", "nmax", "epsilon"):
        if getattr(args, dest) is not None and dest not in reads:
            flag = f"-{dest}" if len(dest) == 1 else f"--{dest}"
            raise InvalidInputError(f"--which {which} does not read {flag}")
    if "K" in reads and not args.K:
        raise InvalidInputError(f"--which {which} requires -K")
    ctx = VerificationContext(cfg)
    if which == "gamma":
        rows = gamma_lemma_check(170 if args.nmax is None else args.nmax)
        passed = all(r.passed for r in rows)
        payload = {"rows": [[r.n, r.lhs, r.rhs, r.passed] for r in rows]}
        csv_rows = [[r.n, r.lhs, r.rhs, r.log_margin, r.passed] for r in rows]
        header = ["n", "lhs", "rhs", "log_margin", "passed"]
        warnings = []
        print(f"gamma inequality: {'pass' if passed else 'FAIL'} for n=1..{len(rows)}")
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
        passed = res.passed
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
        kwargs = {} if args.epsilon is None else {"epsilon": args.epsilon}
        res = fn(K, L, context=ctx, **kwargs)
        passed = res.passed
        payload = res.to_dict()
        csv_rows = [[K.label, L.label, res.margin, res.tol, res.passed]]
        header = ["K", "L", "margin", "tol", "passed"]
        warnings = []
        print(f"{which}: margin {res.margin:.6e} (tol {res.tol:.1e}) "
              f"{'pass' if passed else 'FAIL'}")
    return Run(f"theorem_{which}", f"theorem:{which}", payload, csv_rows, header,
               [(passed, warnings)])


def cmd_suite(args, cfg):
    result = run_suite(cfg, names=args.criteria or None)
    print(f"suite finished in {result.wall_seconds:.1f}s, exit code {result.exit_code}")
    return Run("suite_summary", "suite", result.to_dict(), result.summary_rows(),
               ["criterion", "measured", "bound", "status"], result.outcomes(),
               result.timings())


# --- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2, the precision code, on a usage error.  Here argparse's
    usage line goes to stderr and the message takes the ``InvalidInputError``
    path of ``main`` (exit 3).  The subcommand parsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInputError(message)


def build_parser():
    parser = _Parser(
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
    p.add_argument("--nmax", type=int, help="gamma: largest n (default 170)")
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
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args)
        run = args.fn(args, cfg)
        write_report(os.path.join(cfg.output_dir, run.name),
                     build_report(run.kind, cfg, run.payload), run.rows, run.header,
                     timings=run.timings)
        return exit_code(run.outcomes)
    except (InvalidInputError, NumericalEvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID if isinstance(exc, InvalidInputError) else EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
