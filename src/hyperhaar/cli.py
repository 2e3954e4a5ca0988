"""Command-line entry points: validate, haar, compare, gen, check-lemmas."""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from .core import (AXIOM_TOL, CERTIFY_TOL, EXACT_TOL, Function, Measure, Refusal, _check_size,
                   _check_tol, validate)
from .approx import ApproximantConfig, _check_conv_tol, _check_mu0, canonical_chain, haar_net
from .checks import _check_trials, run_all_suites
from .fileio import ParseError, read_hypergroup, write_hypergroup, write_trace_csv
from .oracles import _FAMILIES, build_family, invariance_residual, jewett_haar, solve_invariance


def _load(path: str):
    # ValueError covers undecodable text; a ParseError names the line it refuses
    try:
        return read_hypergroup(path)
    except (OSError, ValueError, ParseError) as exc:
        raise SystemExit(f"hypergroup file {path}: {exc}") from None


def _parse_f0(spec: str, n: int) -> Function:
    if spec == "uniform":
        return Function.ones(n)
    if spec.startswith("dirac:"):
        try:  # int's reading and the library's point rule, reported against the spec
            return Function.indicator(n, [int(spec[len("dirac:"):])])
        except ValueError as exc:
            raise SystemExit(f"f0 spec {spec!r}: {exc}") from None
    raise SystemExit(f"unrecognized f0 spec {spec!r}")


def _parse_mu0(spec: str, h) -> Measure:
    if spec == "uniform":
        return Measure(np.ones(h.n), nonneg=True)
    try:  # the library's dimension check and mu0 rule, reported against the file
        mu0 = Measure([float(x) for x in Path(spec).read_text().split()])
        _check_size(h, mu0)
        _check_mu0(mu0.w)
        return mu0
    except (OSError, ValueError) as exc:
        raise SystemExit(f"mu0 file {spec}: {exc}") from None


def _fmt(w: np.ndarray) -> str:
    return " ".join(f"{x:.17g}" for x in w)


def cmd_validate(args) -> int:
    h = _load(args.file)
    report = validate(h, args.tol)
    print(report.summary())
    return 0 if report.passed else 1


def _run_net(h, f0: str, mu0: str, tol: float, trace_path=None):
    cfg = ApproximantConfig(_parse_mu0(mu0, h), _parse_f0(f0, h.n), canonical_chain(h),
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
    weights = {"net": _run_net(h, "uniform", "uniform", EXACT_TOL).w,
               "jewett": jewett_haar(h).w, "solve": solve_invariance(h).w}
    normalized = {k: w / w.sum() for k, w in weights.items()}
    for name, w in normalized.items():
        print(f"{name}: {_fmt(w)}")
    ok = True
    for a, b in combinations(normalized, 2):
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
    for r in results:
        detail = f" ({r.detail})" if r.detail else ""
        print(f"{r.name}: {'pass' if r.passed else 'FAIL'} worst={r.worst:.3e}{detail}")
    return 0 if all(r.passed for r in results) else 1


def _checked(kind, rule):
    """An argparse type: a value of kind; one the library's rule refuses is a usage error."""
    def parse(text: str):
        value = kind(text)
        try:
            rule(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
        return value
    parse.__name__ = kind.__name__  # argparse names it in 'invalid int value'
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="hyperhaar",
        description="Invariant measures on finite hypergroups: compute, validate, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the hypergroup axioms")
    p.add_argument("file")
    p.add_argument("--tol", type=_checked(float, _check_tol), default=AXIOM_TOL)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("haar", help="compute invariant weights")
    p.add_argument("file")
    p.add_argument("--method", choices=["net", "jewett", "solve"], required=True)
    p.add_argument("--f0", default="uniform", help="uniform | dirac:<i>")
    p.add_argument("--mu0", default="uniform", help="uniform | <file of n weights>")
    p.add_argument("--tol", type=_checked(float, _check_conv_tol), default=EXACT_TOL)
    p.add_argument("--trace", help="write per-step CSV trace here (net only)")
    p.set_defaults(func=cmd_haar)

    p = sub.add_parser("compare", help="run all three methods and compare")
    p.add_argument("file")
    p.add_argument("--tol", type=_checked(float, _check_tol), default=CERTIFY_TOL)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="emit a hypergroup document for a bundled family")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--param", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check-lemmas", help="run the randomized identity/convergence suites")
    p.add_argument("file")
    p.add_argument("--seed", type=_checked(int, np.random.default_rng), default=0)
    p.add_argument("--trials", type=_checked(int, _check_trials), default=1000)
    p.set_defaults(func=cmd_check_lemmas)

    return parser


def main(argv=None) -> int:
    """Exit codes: 0 success, 1 a failed check, a refused input or a failed write
    to stdout, 2 a usage error."""
    command = "hyperhaar"  # names a failed write to stdout until a command is parsed
    try:
        try:
            args = build_parser().parse_args(argv)
        finally:  # --help prints, then exits from inside parse_args
            sys.stdout.flush()
        command = args.command
        # gen reads no document, so its command is named instead
        subject = f"hypergroup file {args.file}" if "file" in args else command
        code = args.func(args)
        sys.stdout.flush()  # a failed write fails here, not in the interpreter's flush at exit
        return code
    except Refusal as exc:
        raise SystemExit(f"{subject}: {type(exc).__name__}: {exc}") from None
    except MemoryError as exc:  # numpy refused an array, such as the dense n^3 tensor
        raise SystemExit(f"{subject}: {_reason(exc)}") from None
    except OSError as exc:  # the commands report the files they open, so stdout failed
        if sys.stdout is sys.__stdout__:  # not an in-process caller's stream, such as a StringIO
            # the text still buffered goes to /dev/null when the interpreter flushes it at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(f"{command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
