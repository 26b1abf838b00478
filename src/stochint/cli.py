"""Batch command-line entry point.

Three subcommands: ``verify`` runs the exact/randomized suites, ``mc`` the
statistical Monte Carlo checks, ``refine`` the grid-refinement study.  Every
run writes a deterministic JSON report (stdout or ``--out``); the exit code
is 0 only when every check passed, 2 on usage errors.  The wall time of the
suite call is measured here and goes to stderr, so reports stay
byte-identical for identical (seed, flags).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import partial

from . import suites
from .errors import RefusalError
from .reports import SuiteReport, render_json

SUITES = suites.VERIFY_SUITES
MODELS = ("brownian", "poisson")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text}")
    return value


def _tolerance(text: str) -> tuple[str, float]:
    name, _, raw = text.partition("=")
    if not raw:
        raise argparse.ArgumentTypeError("tolerance overrides look like NAME=VALUE")
    if name not in suites.DEFAULT_TOLERANCES:
        known = ", ".join(sorted(suites.DEFAULT_TOLERANCES))
        raise argparse.ArgumentTypeError(f"unknown tolerance {name!r}; known: {known}")
    value = float(raw)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance {name} must be finite and non-negative, got {raw}")
    return name, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochint",
        description="verification suites for grid-based stochastic integrals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run exact/randomized verification suites")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--cells", type=_positive_int, default=4, help="max cells per random grid")
    verify.add_argument("--degree", type=_positive_int, default=3, help="max component degree")
    verify.add_argument("--trials", type=_positive_int, default=200, help="randomized trials")
    verify.add_argument("--seed", type=int, default=0, help="master seed")
    verify.add_argument("--tol", type=_tolerance, action="append", default=[], metavar="NAME=VALUE")
    verify.add_argument("--out", help="write the JSON report here instead of stdout")
    verify.add_argument("--input", help="JSON file with a serialized martingale and process (hstoch suite)")

    mc = sub.add_parser("mc", help="Monte Carlo checks against closed-form references")
    mc.add_argument("--model", choices=MODELS, default="brownian")
    mc.add_argument("--cells", type=_positive_int, default=64)
    mc.add_argument("--paths", type=_positive_int, default=100_000, help="at least 2")
    mc.add_argument("--seed", type=int, required=True)
    mc.add_argument("--intensity", type=_positive_float, default=1.0, help="poisson rate")
    mc.add_argument("--csv", help="also export the path ensemble as CSV (path, cell, increment)")
    mc.add_argument("--out", help="write the JSON report here instead of stdout")

    refine = sub.add_parser("refine", help="grid-refinement convergence study")
    refine.add_argument("--cells", type=_positive_int, default=2, help="coarsest grid size")
    refine.add_argument("--levels", type=_positive_int, default=6, help="number of doublings (>= 2)")
    refine.add_argument("--seed", type=int, default=0)
    refine.add_argument("--out", help="write the JSON report here instead of stdout")

    return parser


def _emit(report: SuiteReport, out: str | None, seconds: float) -> int:
    text = render_json(report)
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    failed = report.failures()
    status = "PASS" if not failed else f"FAIL ({len(failed)}/{len(report.checks)} checks)"
    print(f"{report.suite}: {status} in {seconds:.3f}s", file=sys.stderr)
    for check in failed:
        print(f"  failed: {check.name} lhs={check.lhs!r} rhs={check.rhs!r} tol={check.tolerance!r}", file=sys.stderr)
    return 0 if not failed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    input_checks = []
    if args.command == "verify":
        tolerances = dict(args.tol)
        if args.input:
            if args.suite not in ("hstoch", "all"):
                parser.error("--input only applies to the hstoch suite")
            try:
                with open(args.input) as handle:
                    input_checks = suites.verify_input_file(json.load(handle), tolerances)
            except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                parser.error(f"--input {args.input}: {type(exc).__name__}: {exc}")
        run = partial(suites.verify, args.suite, args.cells, args.degree, args.trials, args.seed, tolerances)
    elif args.command == "mc":
        if args.paths < 2:
            parser.error("--paths must be at least 2: a standard error needs two samples")
        run = partial(
            suites.mc_suite,
            model=args.model,
            cells=args.cells,
            paths=args.paths,
            seed=args.seed,
            intensity=args.intensity,
            csv=args.csv,
        )
    else:
        if args.levels < 2:
            parser.error("--levels must be at least 2")
        run = partial(suites.refinement_study, start_cells=args.cells, levels=args.levels, seed=args.seed)

    started = time.perf_counter()
    try:
        report = run()
        seconds = time.perf_counter() - started
        report.checks += input_checks
        return _emit(report, args.out, seconds)
    except (RefusalError, OSError) as exc:  # deliberate refusals and unwritable output paths; faults keep their traceback
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
