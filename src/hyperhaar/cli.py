"""Command-line entry points: validate, haar, compare, gen, check-lemmas."""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .core import AXIOM_TOL, CERTIFY_TOL, EXACT_TOL, Function, Measure, NoCover, validate
from .approx import (ApproximantConfig, NoChain, NotConverged, ZeroDenominator, canonical_chain,
                     haar_net)
from .checks import run_all_suites
from .fileio import ParseError, read_hypergroup, write_hypergroup, write_trace_csv
from .oracles import (_FAMILIES, DegenerateNullspace, H6Violation, NegativeSolution,
                      build_family, invariance_residual, jewett_haar, solve_invariance)

# The package's refusals of an input that is not a hypergroup it can work with.
_REFUSALS = (NoCover, H6Violation, ZeroDenominator, DegenerateNullspace, NegativeSolution,
             NotConverged, NoChain)


def _load(path: str):
    # ValueError covers undecodable text and FiniteHypergroup's consistency checks
    try:
        return read_hypergroup(path)
    except (OSError, ValueError, ParseError) as exc:
        raise SystemExit(f"hypergroup file {path}: {exc}") from None


def _parse_f0(spec: str, n: int) -> Function:
    if spec == "uniform":
        return Function.ones(n)
    if spec.startswith("dirac:"):
        point = spec.split(":", 1)[1]
        if not (point.isdecimal() and int(point) < n):
            raise SystemExit(f"f0 spec {spec!r}: the point must be an integer in 0..{n - 1}")
        return Function.indicator(n, [int(point)])
    raise SystemExit(f"unrecognized f0 spec {spec!r}")


def _parse_mu0(spec: str, n: int) -> Measure:
    if spec == "uniform":
        return Measure(np.ones(n), nonneg=True)
    try:
        w = np.array([float(x) for x in Path(spec).read_text().split()])
    except (OSError, ValueError) as exc:
        raise SystemExit(f"mu0 file {spec}: {exc}") from None
    if w.size != n:
        raise SystemExit(f"mu0 file {spec}: {w.size} weights, expected n={n}")
    if not np.all(np.isfinite(w)):
        raise SystemExit(f"mu0 file {spec}: weights must be finite")
    if not np.all(w > 0):
        raise SystemExit(f"mu0 file {spec}: weights must be positive")
    return Measure(w, nonneg=True)


def _fmt(w: np.ndarray) -> str:
    return " ".join(f"{x:.17g}" for x in w)


def cmd_validate(args) -> int:
    h = _load(args.file)
    report = validate(h, args.tol)
    print(report.summary())
    return 0 if report.passed else 1


def _run_net(h, f0: str, mu0: str, tol: float, trace_path=None):
    cfg = ApproximantConfig(_parse_mu0(mu0, h.n), _parse_f0(f0, h.n), canonical_chain(h),
                            conv_tol=tol)
    chi, trace = haar_net(h, cfg)
    if trace_path:
        try:
            with open(trace_path, "w", newline="") as out:
                write_trace_csv(trace, out)
        except OSError as exc:
            raise SystemExit(f"trace file {trace_path}: {exc}") from None
    return chi


def cmd_haar(args) -> int:
    h = _load(args.file)
    if args.method == "net":
        chi = _run_net(h, args.f0, args.mu0, args.tol, args.trace)
    elif args.method == "jewett":
        chi = jewett_haar(h)
    else:
        chi = solve_invariance(h)
    print(_fmt(chi.w))
    return 0


def cmd_compare(args) -> int:
    h = _load(args.file)
    weights = {}
    weights["net"] = _run_net(h, "uniform", "uniform", EXACT_TOL).w
    weights["jewett"] = jewett_haar(h).w
    weights["solve"] = solve_invariance(h).w
    normalized = {k: w / w.sum() for k, w in weights.items()}
    for name, w in normalized.items():
        print(f"{name}: {_fmt(w)}")
    ok = True
    names = list(normalized)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            wa, wb = normalized[a], normalized[b]
            rel = float(np.max(np.abs(wa - wb) / np.maximum(wa, wb)))
            ok = ok and rel <= args.tol
            print(f"max relative difference {a}/{b}: {rel:.3e}")
    residual = invariance_residual(h, Measure(normalized["net"], nonneg=True))
    print(f"invariance residual (net): {residual:.3e}")
    return 0 if ok else 1


def _reason(exc: Exception) -> str:
    return str(exc) or "out of memory"  # str(MemoryError()) is ''


def cmd_gen(args) -> int:
    # ValueError covers a malformed parameter or group table and undecodable text;
    # MemoryError a size whose entries cannot be allocated
    try:
        h = build_family(args.family, args.param)
    except (OSError, ValueError, MemoryError) as exc:
        raise SystemExit(f"gen --param {args.param}: {_reason(exc)}") from None
    if not args.output:
        write_hypergroup(h, sys.stdout)  # main reports a failed write
        return 0
    # the file is opened only once h is built, and removed if the write fails
    try:
        with open(args.output, "w") as out:
            try:
                write_hypergroup(h, out)
                out.flush()
            except BaseException:
                if stat.S_ISREG(os.fstat(out.fileno()).st_mode):  # not a device or a pipe
                    os.unlink(args.output)
                raise
    except (OSError, MemoryError) as exc:
        raise SystemExit(f"gen -o {args.output}: {_reason(exc)}") from None
    return 0


def cmd_check_lemmas(args) -> int:
    h = _load(args.file)
    results = run_all_suites(h, seed=args.seed, trials=args.trials)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        print(f"{r.name}: {status} worst={r.worst:.3e}{detail}")
        ok = ok and r.passed
    return 0 if ok else 1


def _checked(kind, ok, what: str):
    """An argparse type: a value of kind for which ok holds; others are usage errors."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in 'invalid int value'
    return parse


_TOL = _checked(float, lambda x: 0 <= x < math.inf, "a finite number >= 0")
_POSITIVE_TOL = _checked(float, lambda x: 0 < x < math.inf, "a finite number > 0")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="hyperhaar",
        description="Invariant measures on finite hypergroups: compute, validate, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the hypergroup axioms")
    p.add_argument("file")
    p.add_argument("--tol", type=_TOL, default=AXIOM_TOL)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("haar", help="compute invariant weights")
    p.add_argument("file")
    p.add_argument("--method", choices=["net", "jewett", "solve"], required=True)
    p.add_argument("--f0", default="uniform", help="uniform | dirac:<i>")
    p.add_argument("--mu0", default="uniform", help="uniform | <file of n weights>")
    p.add_argument("--tol", type=_POSITIVE_TOL, default=EXACT_TOL)
    p.add_argument("--trace", help="write per-step CSV trace here (net only)")
    p.set_defaults(func=cmd_haar)

    p = sub.add_parser("compare", help="run all three methods and compare")
    p.add_argument("file")
    p.add_argument("--tol", type=_TOL, default=CERTIFY_TOL)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="emit a hypergroup document for a bundled family")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--param", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check-lemmas", help="run the randomized identity/convergence suites")
    p.add_argument("file")
    p.add_argument("--seed", type=_checked(int, lambda k: k >= 0, "an integer >= 0"), default=0)
    p.add_argument("--trials", type=_checked(int, lambda k: k >= 1, "an integer >= 1"),
                   default=1000)
    p.set_defaults(func=cmd_check_lemmas)

    return parser


def main(argv=None) -> int:
    """Exit codes: 0 success, 1 a failed check, a refused input or a failed write
    to stdout, 2 a usage error."""
    args = build_parser().parse_args(argv)
    # gen reads no document, so its command is named instead
    subject = f"hypergroup file {args.file}" if "file" in args else args.command
    try:
        code = args.func(args)
        sys.stdout.flush()  # a failed write fails here, not in the interpreter's flush at exit
        return code
    except _REFUSALS as exc:
        raise SystemExit(f"{subject}: {type(exc).__name__}: {exc}") from None
    except MemoryError as exc:  # numpy refused an array, such as the dense n^3 tensor
        raise SystemExit(f"{subject}: {_reason(exc)}") from None
    except OSError as exc:  # the commands report the files they open, so stdout failed
        if sys.stdout is sys.__stdout__:  # not an in-process caller's stream, such as a StringIO
            # the text still buffered goes to /dev/null when the interpreter flushes it at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
