"""Plain-text hypergroup documents and tabular trace output.

Format, one directive per line (comments start with '#'); n, e and inv appear
once each:

    hypergroup v1
    n <int>
    e <int>
    inv <int> ... <int>          # n entries
    c <s> <t> <u> <float>        # sparse, finite; unlisted entries are zero

The tokens of a 'c' line are ASCII decimals: no underscores, no other digits.

parse_hypergroup(text) is the one authority on a document: it reads the lines
above the first 'c' line one at a time and the 'c' block in one np.loadtxt
call, and reads the whole document again line by line on any doubt, which
alone writes an error, at a line.  That reader judges how a document is
written; FiniteHypergroup judges what it says, and its refusal is placed at
the line of the directive or entry it names.  The CLI reads a file with
read_hypergroup(path), which takes a long document's 'c' block from the file
itself.  write_hypergroup(h, out) writes a document to a text stream in
blocks of 'c' lines, and serialize_hypergroup(h) into a string.
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
import warnings
from itertools import islice, takewhile
from pathlib import Path
from typing import TextIO

import numpy as np

from .core import FiniteHypergroup, _RuleError
from .approx import ConvergenceTrace

__all__ = [
    "ParseError",
    "RangeError",
    "DuplicateEntry",
    "parse_hypergroup",
    "read_hypergroup",
    "serialize_hypergroup",
    "write_hypergroup",
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
    line, which reports the first line written wrong, else the line of what
    FiniteHypergroup refuses.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    first = next((i for i, line in enumerate(lines) if _is_entry(line)), len(lines))
    h = None
    if "\0" not in text:  # a 'U2' key drops a trailing NUL
        try:
            h = _bulk(lines[:first], islice(lines, first, None))
        except _DOUBT:
            pass  # a line written wrong may come first
    if h is None:
        n, e, inv, entries, line_of = _read_lines(enumerate(lines, start=1), len(lines))
        try:  # the document is written right; FiniteHypergroup judges what it says
            h = FiniteHypergroup.from_entries(n, e, inv, *entries)
        except _RuleError as exc:
            error = DuplicateEntry if exc.repeat else RangeError
            raise error(str(exc), line_of[exc.where]) from None
    return h


def read_hypergroup(path) -> FiniteHypergroup:
    """The document in the file at path: parse_hypergroup of its text, with
    the 'c' block of a document of _FILE_READ_BYTES or more read a second time
    by np.loadtxt from the file itself.

    Only a regular file, unchanged between the two reads, is read twice; a
    pipe or a device is read once.  The name must not end in a suffix numpy
    decompresses, and the text must be ASCII without the characters of
    _UNSPLIT ('c 1 1\\f0 1' is two lines to the parser, one to numpy).  Any
    other document, and any doubt, goes to parse_hypergroup(text), which
    alone writes an error.
    """
    path = Path(path)
    with path.open() as f:
        before = os.fstat(f.fileno())
        text = f.read()
    if (len(text) >= _FILE_READ_BYTES and stat.S_ISREG(before.st_mode)
            and path.suffix not in _COMPRESSED and text.isascii()
            and not any(ch in text for ch in _UNSPLIT)):
        # reading in text mode left '\n' the one line break, to StringIO and to numpy
        header = list(takewhile(lambda line: not _is_entry(line), io.StringIO(text)))
        try:
            h = _bulk(header, str(path), skiprows=len(header))
            if h is not None and _identity(os.stat(path)) == _identity(before):
                return h
        except _DOUBT:
            pass
    return parse_hypergroup(text)


# A shorter document is parsed from its text: np.loadtxt on a path pays numpy's
# _datasource.open, which costs more than parsing the text up to about 20 KB
# (0.4-0.86 of the file read's time up to 14.5 KB, one core of a 2-core x86-64).
# The size is in bytes: the file read takes ASCII text only.
_FILE_READ_BYTES = 2 ** 14
# Read failures that send a document to the line-by-line reader.
_DOUBT = (ParseError, ValueError, OSError, Warning)
# Characters on which np.loadtxt and the line-by-line reader disagree in text
# that has no other line break than '\n': NUL, which a 'U2' key drops ('c\0'
# reads as 'c'), the line breaks of str.splitlines that numpy splits fields at,
# and '#', which parse_hypergroup strips as a comment and loadtxt reads as data.
_UNSPLIT = "\0\x0b\x0c\x1c\x1d\x1e#"
# numpy's file reader decompresses files so named
_COMPRESSED = {".gz", ".bz2", ".xz", ".lzma"}


def _identity(st: os.stat_result) -> tuple:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _is_entry(line: str) -> bool:
    return line.split(None, 1)[:1] == ["c"]


def _bulk(header: list, rows, **where) -> FiniteHypergroup | None:
    """The hypergroup whose header lines, those above the first 'c' line, are
    read one at a time and whose 'c' block np.loadtxt reads in one go from rows
    (lines, or a file path with the header skipped); None, or an error, when a
    check fails.  Its errors are never shown: the document is read again."""
    n, e, inv, *_ = _read_lines(enumerate(header, start=1), len(header))
    # As errors, loadtxt's warnings refuse the read: "input contained no data",
    # and older numpy's (1.23 on) DeprecationWarning on an int field such as
    # '1.5', which it reads through float; newer numpy refuses that read
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries = np.loadtxt(rows, dtype=_ENTRY, comments=None, ndmin=1, **where)
    if not ((entries["key"] == "c").all() and np.isfinite(entries["value"]).all()):
        return None
    # raises ValueError on a broken rule of FiniteHypergroup's: n, e, inv or an entry
    return FiniteHypergroup.from_entries(n, e, inv, entries["s"], entries["t"], entries["u"],
                                         entries["value"])


def _read_lines(numbered, count: int):
    """n, e, inv, the lists (s, t, u, value) of the entries in the document's
    order, and the line of each directive and entry, read one line at a time,
    or the error of the first line written wrong.  What the values say is
    FiniteHypergroup's to judge.

    numbered gives (line number, text) pairs; count is the document's length.
    """
    header, entries = {}, ([], [], [], [])  # header: directive -> its integers
    line_of = {}  # "n", "e", "inv" and each entry's position -> its line
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
                row = int(fields[1]), int(fields[2]), int(fields[3]), float(fields[4])
                # Python's int and float also read underscores and non-ASCII digits
                for token, what in zip(fields[1:], _TOKENS):
                    if not token.isascii() or "_" in token:
                        raise ParseError(f"{what} {token!r} must be written in ASCII digits "
                                         "without underscores", lineno)
                if not math.isfinite(row[3]):
                    raise ParseError(f"value {fields[4]!r} is not finite", lineno)
                if "n" not in line_of:
                    raise ParseError("'c' entry before 'n'", lineno)
                line_of[len(entries[0])] = lineno
                for column, x in zip(entries, row):
                    column.append(x)
            elif key in ("n", "e", "inv"):
                if key in line_of:
                    raise DuplicateEntry(f"repeated directive {key!r}", lineno)
                line_of[key] = lineno
                header[key] = [int(x) for x in fields[1:]]
            else:
                raise ParseError(f"unknown directive {key!r}", lineno)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc

    for name in ("n", "e", "inv"):
        if name not in line_of:
            raise ParseError(f"missing directive {name!r}", count or 1)
    (n,), (e,) = header["n"], header["e"]
    return n, e, header["inv"], entries, line_of


# c's entries that write_hypergroup formats and writes at once
_BLOCK = 2 ** 14


def write_hypergroup(h: FiniteHypergroup, out: TextIO) -> None:
    """Write the sparse text form to out; floats at 17 significant digits.

    The 'c' lines are formed and written in blocks of _BLOCK (2^14) of c's
    entries, one out.write a block.  Each index text is a cell, 'c <s> ' for
    the first field and '<i> ' for t and u, formatted once; each distinct
    value of a block is a cell '<v>\\n', formatted once per block.  A line is
    its four cells, gathered as whole words, with their NUL padding dropped,
    so the writer holds c's entries and one block of lines however long the
    document is.
    """
    out.write(f"{_MAGIC}\nn {h.n}\ne {h.e}\ninv {' '.join(map(str, h.inv.tolist()))}\n")
    first = _cells([f"c {i} " for i in range(h.n)])
    names = _cells([f"{i} " for i in range(h.n)])
    for start in range(0, len(h.entries[3]), _BLOCK):
        block = slice(start, start + _BLOCK)
        listed = h.entries[3][block] != 0  # a parsed document may list zeros
        s, t, u, v = (a[block][listed] for a in h.entries)
        # a sort and a search: np.unique's inverse is an argsort, several times their cost,
        # and np.unique(v) alone imports numpy.ma (17 ms, 1.3 MB) on its first call
        ordered = np.sort(v)
        values = np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
        which = np.searchsorted(values, v)
        texts = _cells([f"{x:.17g}\n" for x in values.tolist()])
        lines = np.concatenate([first.take(s, axis=0), names.take(t, axis=0),
                                names.take(u, axis=0), texts.take(which, axis=0)], axis=1)
        out.write(lines.tobytes().translate(None, b"\0").decode("ascii"))


def _cells(texts: list) -> np.ndarray:
    """texts as rows of uint64 words: each text's ASCII bytes NUL-padded to
    the longest text's length rounded up to a multiple of 8 bytes."""
    width = -(-max(map(len, texts), default=1) // 8)
    return np.array(texts, dtype=f"S{8 * width}").view(np.uint64).reshape(len(texts), width)


def serialize_hypergroup(h: FiniteHypergroup) -> str:
    """The sparse text form, as write_hypergroup writes it."""
    out = io.StringIO()
    write_hypergroup(h, out)
    return out.getvalue()


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
