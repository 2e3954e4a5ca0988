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
import warnings
from bisect import bisect_left
from itertools import compress
from operator import not_
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
# a 'c' line: the directive, s t u, and the value
_ENTRY = np.dtype([("key", "U1"), ("s", np.int64), ("t", np.int64), ("u", np.int64),
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
    """Parse a document; axiom validation is a separate, explicit step."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    head = next((i for i, line in enumerate(lines) if line.strip()), None)
    if head is None or lines[head].strip() != _MAGIC:
        raise ParseError(f"expected header {_MAGIC!r}", 1 if head is None else head + 1)
    # After the header, 'c' lines go to one bulk read and the others are read one by one.
    body, numbered = lines[head + 1:], range(head + 2, len(lines) + 1)
    is_entry = [line.startswith("c ") or line.split(None, 1)[:1] == ["c"] for line in body]
    rows, numbers = list(compress(body, is_entry)), list(compress(numbered, is_entry))

    n = e = inv = c = None
    directives = {}  # directive -> its line
    try:
        for lineno, line in compress(zip(numbered, body), map(not_, is_entry)):
            if not line.strip():
                continue
            fields = _fields(line, lineno)
            key = fields[0]
            if key not in ("n", "e", "inv"):
                raise ParseError(f"unknown directive {key!r}", lineno)
            if key in directives:
                raise DuplicateEntry(f"repeated directive {key!r}", lineno)
            directives[key] = lineno
            try:
                if key == "n":
                    n = int(fields[1])
                    if n < 1:
                        raise RangeError("n must be at least 1", lineno)
                    c = np.zeros((n, n, n))
                elif key == "e":
                    e = int(fields[1])
                else:
                    inv = [int(x) for x in fields[1:]]
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
    except ParseError as exc:
        # a 'c' line above the failing directive fails first
        stop = bisect_left(numbers, exc.line)
        _entries(rows[:stop], numbers[:stop], n, directives.get("n"))
        raise
    entries = _entries(rows, numbers, n, directives.get("n"))

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
    c[entries["s"], entries["t"], entries["u"]] = entries["value"]
    return FiniteHypergroup(n, e, np.asarray(inv), c)


def _fields(line: str, lineno: int) -> list:
    """A line's fields; a directive with the wrong number of them is refused."""
    fields = line.split()
    key = fields[0]
    if len(fields) != _FIELDS.get(key, len(fields)):
        raise ParseError(f"{key!r} line has {len(fields) - 1} fields, expected "
                         f"{_FIELDS[key] - 1}", lineno)
    return fields


def _entries(rows: list, numbers: list, n, n_line) -> np.ndarray:
    """Read 'c' lines in bulk and check them as arrays.

    The first failing line in document order raises.  Within a line the
    checks run in order: conversion, finite value, after 'n', indices in
    range, not repeated.  When the bulk read refuses some line, the lines
    are converted one by one up to it.
    """
    try:
        entries = _load(rows)
    except (ValueError, DeprecationWarning):
        converted = []
        for row, lineno in zip(rows, numbers):
            try:
                converted.append(_convert(row, lineno))
            except ParseError:
                # a line above it fails first
                _check(np.array(converted, _ENTRY), rows, numbers, n, n_line)
                raise
        entries = np.array(converted, _ENTRY)
    return _check(entries, rows, numbers, n, n_line)


def _load(rows: list) -> np.ndarray:
    if not rows:  # loadtxt warns on an empty input
        return np.empty(0, _ENTRY)
    # Older numpy (1.23 on) reads an int field such as '1.5' through float,
    # with a DeprecationWarning; as an error, it refuses the read as newer numpy does
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(rows, dtype=_ENTRY, comments=None, ndmin=1)


def _convert(row: str, lineno: int) -> tuple:
    """Convert one 'c' line, or raise its conversion error.

    Python's int and float also read underscores and non-ASCII digits, which
    are refused here.  An index beyond int64 becomes -1, which the range
    check reports from the line's text.
    """
    fields = _fields(row, lineno)
    for token, kind, what in zip(fields[1:], (int, int, int, float), _TOKENS):
        try:
            kind(token)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        if not token.isascii() or "_" in token:
            raise ParseError(f"{what} {token!r} must be written in ASCII digits without "
                             "underscores", lineno)
    s, t, u = (i if -2 ** 63 <= i < 2 ** 63 else -1 for i in map(int, fields[1:4]))
    return "c", s, t, u, float(fields[4])


def _check(entries: np.ndarray, rows: list, numbers: list, n, n_line) -> np.ndarray:
    """Raise the error of the first failing entry; rows and numbers give its text and line."""
    if not len(entries):
        return entries
    s, t, u, value = (entries[k] for k in ("s", "t", "u", "value"))
    # one row per check, in order: not finite, before 'n', out of range, repeated
    fails = np.zeros((4, len(entries)), bool)
    fails[0] = ~np.isfinite(value)
    if n_line is None or n_line > numbers[0]:
        fails[1, :1] = True
    else:
        fails[2] = (np.minimum(np.minimum(s, t), u) < 0) | (np.maximum(np.maximum(s, t), u) >= n)
        # only a row out of range has a key that wraps or collides; it fails first
        key = (s * n + t) * n + u
        order = np.argsort(key, kind="stable")
        fails[3, order[1:]] = key[order[1:]] == key[order[:-1]]
    failed = fails.any(axis=0)
    p = int(failed.argmax())
    if not failed[p]:
        return entries
    lineno, fields = numbers[p], rows[p].split()
    check = int(fails[:, p].argmax())
    if check == 0:
        raise ParseError(f"value {fields[4]!r} is not finite", lineno)
    if check == 1:
        raise ParseError("'c' entry before 'n'", lineno)
    if check == 2:
        idx = next(i for i in map(int, fields[1:4]) if not 0 <= i < n)
        raise RangeError(f"index {idx} out of range for n={n}", lineno)
    raise DuplicateEntry(f"repeated entry {(int(s[p]), int(t[p]), int(u[p]))}", lineno)


def serialize_hypergroup(h: FiniteHypergroup) -> str:
    """Emit the sparse text form; floats at 17 significant digits."""
    lines = [_MAGIC, f"n {h.n}", f"e {h.e}", "inv " + " ".join(str(int(x)) for x in h.inv)]
    nz = np.nonzero(h.c)
    lines += [f"c {s} {t} {u} {v:.17g}"
              for s, t, u, v in zip(*(i.tolist() for i in nz), h.c[nz].tolist())]
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
