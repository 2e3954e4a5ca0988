"""Plain-text hypergroup documents and tabular trace output.

Format, one directive per line (comments start with '#'); n, e and inv appear
once each:

    hypergroup v1
    n <int>
    e <int>
    inv <int> ... <int>          # n entries
    c <s> <t> <u> <float>        # sparse, finite; unlisted entries are zero
"""

from __future__ import annotations

import csv
import math
from typing import TextIO

import numpy as np

from .core import FiniteHypergroup
from .approx import ConvergenceTrace

__all__ = [
    "ParseError",
    "RangeError",
    "DuplicateEntry",
    "parse_hypergroup",
    "serialize_hypergroup",
    "write_trace_csv",
]

_MAGIC = "hypergroup v1"
# fields on a line, the directive included; an inv line lists n entries
_FIELDS = {"n": 2, "e": 2, "c": 5}


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RangeError(ParseError):
    pass


class DuplicateEntry(ParseError):
    pass


def parse_hypergroup(text: str) -> FiniteHypergroup:
    """Parse a document; axiom validation is a separate, explicit step."""
    n = e = inv = c = None
    seen = set()
    directives = {}  # directive -> its line
    lines = text.splitlines()
    body = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            body.append((lineno, line))
    if not body or body[0][1] != _MAGIC:
        raise ParseError(f"expected header {_MAGIC!r}", body[0][0] if body else 1)

    for lineno, line in body[1:]:
        fields = line.split()
        key = fields[0]
        if len(fields) != _FIELDS.get(key, len(fields)):
            raise ParseError(f"{key!r} line has {len(fields) - 1} fields, expected "
                             f"{_FIELDS[key] - 1}", lineno)
        try:
            if key == "c":
                entry = int(fields[1]), int(fields[2]), int(fields[3])
                value = float(fields[4])
                if not math.isfinite(value):
                    raise ParseError(f"value {fields[4]!r} is not finite", lineno)
                if n is None:
                    raise ParseError("'c' entry before 'n'", lineno)
                for idx in entry:
                    if not (0 <= idx < n):
                        raise RangeError(f"index {idx} out of range for n={n}", lineno)
                if entry in seen:
                    raise DuplicateEntry(f"repeated entry {entry}", lineno)
                seen.add(entry)
                c[entry] = value
            elif key in ("n", "e", "inv"):
                if key in directives:
                    raise DuplicateEntry(f"repeated directive {key!r}", lineno)
                directives[key] = lineno
                if key == "n":
                    n = int(fields[1])
                    if n < 1:
                        raise RangeError("n must be at least 1", lineno)
                    c = np.zeros((n, n, n))
                elif key == "e":
                    e = int(fields[1])
                else:
                    inv = [int(x) for x in fields[1:]]
            else:
                raise ParseError(f"unknown directive {key!r}", lineno)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc

    for name, value in (("n", n), ("e", e), ("inv", inv)):
        if value is None:
            raise ParseError(f"missing directive {name!r}", len(lines) or 1)
    if not (0 <= e < n):
        raise RangeError(f"identity {e} out of range for n={n}", directives["e"])
    if len(inv) != n:
        raise ParseError(f"inv must list {n} entries, got {len(inv)}", directives["inv"])
    for idx in inv:
        if not (0 <= idx < n):
            raise RangeError(f"inv entry {idx} out of range for n={n}", directives["inv"])
    return FiniteHypergroup(n, e, np.asarray(inv), c)


def serialize_hypergroup(h: FiniteHypergroup) -> str:
    """Emit the sparse text form; floats at 17 significant digits."""
    lines = [_MAGIC, f"n {h.n}", f"e {h.e}", "inv " + " ".join(str(int(x)) for x in h.inv)]
    for s, t, u in zip(*np.nonzero(h.c)):
        lines.append(f"c {s} {t} {u} {h.c[s, t, u]:.17g}")
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: ConvergenceTrace, out: TextIO) -> None:
    """One row per chain step: step, |U|, probe values, bounds_ok, gap, rho, cauchy_diff."""
    writer = csv.writer(out)
    if not trace.steps:
        return
    n_probe = len(trace.steps[0].chi_probe)
    writer.writerow(["step", "|U|"] + [f"chi(f{i})" for i in range(n_probe)]
                    + ["bounds_ok", "gap", "rho", "cauchy_diff"])
    for s in trace.steps:
        writer.writerow([s.step, s.u_size]
                        + [f"{v:.17g}" for v in s.chi_probe]
                        + [s.bounds_ok, f"{s.gap:.17g}", f"{s.rho:.17g}", f"{s.cauchy_diff:.17g}"])
