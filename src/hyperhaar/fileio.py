"""Plain-text hypergroup documents and tabular trace output.

Format, one directive per line (comments start with '#'); n, e and inv appear
once each:

    hypergroup v1
    n <int>
    e <int>
    inv <int> ... <int>          # n entries
    c <s> <t> <u> <float>        # sparse, finite; unlisted entries are zero

The tokens of a 'c' line are ASCII decimals: no underscores, no other digits.
"""

from __future__ import annotations

import csv
import math
import warnings
from itertools import islice
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
# a 'c' line: the directive, s t u, and the value; two characters of the
# directive tell 'c' from any longer word
_ENTRY = np.dtype([("key", "U2"), ("s", np.int64), ("t", np.int64), ("u", np.int64),
                   ("value", np.float64)])
_TOKENS = ("index", "index", "index", "value")


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RangeError(ParseError):
    pass


class DuplicateEntry(ParseError):
    pass


def parse_hypergroup(text: str) -> FiniteHypergroup:
    """Parse a document into c's entries; axiom validation is a separate,
    explicit step, and no n^3 array is formed.

    A document whose trailing block of 'c' lines passes one bulk read is
    accepted from it.  On any doubt the whole document is read again line by
    line, which reports the first failing line.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    try:
        h = _accept(lines)
    except (ParseError, ValueError, DeprecationWarning):
        h = None  # the error of an earlier line may come first
    if h is None:
        n, e, inv, entries = _read_lines(enumerate(lines, start=1), len(lines))
        stu = np.array(list(entries), dtype=np.intp).reshape(-1, 3).T
        h = FiniteHypergroup.from_entries(n, e, inv, *stu, list(entries.values()))
    return h


def _accept(lines: list):
    """The hypergroup, its lines up to the first 'c' line read one at a time and
    the rest in bulk; None, or an error, when a check fails."""
    first = next((i for i, line in enumerate(lines) if line.split(None, 1)[:1] == ["c"]),
                 len(lines))
    n, e, inv, _ = _read_lines(enumerate(lines[:first], start=1), len(lines))
    entries = _load(lines, first)
    if not ((entries["key"] == "c").all() and np.isfinite(entries["value"]).all()):
        return None
    # raises ValueError on an index out of range or a repeated entry
    return FiniteHypergroup.from_entries(n, e, inv, entries["s"], entries["t"], entries["u"],
                                         entries["value"])


def _load(lines: list, first: int) -> np.ndarray:
    """The rows of lines[first:], which begin with a 'c' line, read as entries."""
    if first == len(lines):  # loadtxt warns on an empty input
        return np.empty(0, _ENTRY)
    # Older numpy (1.23 on) reads an int field such as '1.5' through float,
    # with a DeprecationWarning; as an error, it refuses the read as newer numpy does
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(islice(lines, first, None), dtype=_ENTRY, comments=None, ndmin=1)


def _read_lines(numbered, count: int):
    """n, e, inv and the entries, a dict (s, t, u) -> value in the document's
    order, read one line at a time, or the error of the first failing line: the
    only place a parse error is raised.

    numbered gives (line number, text) pairs; count is the document's length.
    """
    n = e = inv = None
    seen = {}
    directives = {}  # directive -> its line
    body = [(lineno, line.strip()) for lineno, line in numbered if line.strip()]
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
                # Python's int and float also read underscores and non-ASCII digits
                for token, what in zip(fields[1:], _TOKENS):
                    if not token.isascii() or "_" in token:
                        raise ParseError(f"{what} {token!r} must be written in ASCII digits "
                                         "without underscores", lineno)
                if not math.isfinite(value):
                    raise ParseError(f"value {fields[4]!r} is not finite", lineno)
                if n is None:
                    raise ParseError("'c' entry before 'n'", lineno)
                for idx in entry:
                    if not (0 <= idx < n):
                        raise RangeError(f"index {idx} out of range for n={n}", lineno)
                if entry in seen:
                    raise DuplicateEntry(f"repeated entry {entry}", lineno)
                seen[entry] = value
            elif key in ("n", "e", "inv"):
                if key in directives:
                    raise DuplicateEntry(f"repeated directive {key!r}", lineno)
                directives[key] = lineno
                if key == "n":
                    n = int(fields[1])
                    if n < 1:
                        raise RangeError("n must be at least 1", lineno)
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
            raise ParseError(f"missing directive {name!r}", count or 1)
    if not (0 <= e < n):
        raise RangeError(f"identity {e} out of range for n={n}", directives["e"])
    if len(inv) != n:
        raise ParseError(f"inv must list {n} entries, got {len(inv)}", directives["inv"])
    for idx in inv:
        if not (0 <= idx < n):
            raise RangeError(f"inv entry {idx} out of range for n={n}", directives["inv"])
    return n, e, inv, seen


def serialize_hypergroup(h: FiniteHypergroup) -> str:
    """Emit the sparse text form; floats at 17 significant digits.

    Each index and each distinct value is formatted once.
    """
    lines = [_MAGIC, f"n {h.n}", f"e {h.e}", "inv " + " ".join(str(int(x)) for x in h.inv)]
    names = [str(i) for i in range(h.n)]
    listed = h.entries[3] != 0  # a parsed document may list zeros
    s, t, u, v = (a[listed] for a in h.entries)
    values, which = np.unique(v, return_inverse=True)
    texts = [f"{x:.17g}" for x in values.tolist()]
    lines += [f"c {names[a]} {names[b]} {names[d]} {texts[k]}"
              for a, b, d, k in zip(s.tolist(), t.tolist(), u.tolist(), which.tolist())]
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
