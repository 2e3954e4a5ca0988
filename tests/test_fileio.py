import io
import math
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperhaar import (
    DuplicateEntry,
    FiniteHypergroup,
    ParseError,
    RangeError,
    parse_hypergroup,
    read_hypergroup,
    serialize_hypergroup,
)
from hyperhaar import fileio
from hyperhaar.approx import ApproximantConfig, canonical_chain, haar_net
from hyperhaar.core import MAX_N, Function, Measure
from hyperhaar.fileio import write_hypergroup, write_trace_csv
from hyperhaar.oracles import (conjugacy_class_hypergroup, cosine_grid_hypergroup,
                               cyclic_hypergroup, jewett_haar, solve_invariance,
                               symmetric_group_table, theta_hypergroup)

from conftest import dense, traced_peak

THETA_DOC = """\
hypergroup v1
# two-point family, theta = 0.5
n 2
e 0
inv 0 1
c 0 0 0 1
c 0 1 1 1
c 1 0 1 1
c 1 1 0 0.5
c 1 1 1 0.5
"""


class TestParse:
    def test_theta_doc_matches_builder(self):
        h = parse_hypergroup(THETA_DOC)
        ref = theta_hypergroup(0.5)
        assert (h.n, h.e) == (ref.n, ref.e)
        np.testing.assert_array_equal(h.inv, ref.inv)
        np.testing.assert_array_equal(dense(h), dense(ref))

    def test_unlisted_entries_are_zero(self):
        h = parse_hypergroup("hypergroup v1\nn 2\ne 0\ninv 0 1\n")
        assert dense(h).sum() == 0.0

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_hypergroup("n 2\ne 0\ninv 0 1\n")

    def test_range_error_with_line(self):
        doc = "hypergroup v1\nn 3\ne 5\ninv 0 1 2\n"
        with pytest.raises(RangeError, match="identity index 5"):
            parse_hypergroup(doc)

    def test_entry_out_of_range_line_located(self):
        doc = "hypergroup v1\nn 2\ne 0\ninv 0 1\nc 0 0 5 1.0\n"
        with pytest.raises(RangeError) as err:
            parse_hypergroup(doc)
        assert err.value.line == 5

    def test_duplicate_entry(self):
        doc = THETA_DOC + "c 1 1 0 0.5\n"
        with pytest.raises(DuplicateEntry):
            parse_hypergroup(doc)

    @pytest.mark.parametrize("key,line", [("n", "n 1"), ("e", "e 1"), ("inv", "inv 1 0")])
    def test_repeated_directive(self, key, line):
        doc = f"hypergroup v1\nn 2\ne 0\ninv 0 1\n{line}\nc 0 0 0 1\n"
        with pytest.raises(DuplicateEntry, match=f"^line 5: repeated directive '{key}'$"):
            parse_hypergroup(doc)

    def test_syntax_error_line_located(self):
        doc = "hypergroup v1\nn 2\ne 0\ninv 0 1\nc 0 0 zero 1.0\n"
        with pytest.raises(ParseError) as err:
            parse_hypergroup(doc)
        assert err.value.line == 5

    @pytest.mark.parametrize("lines,message", [
        ("n 2 7\ne 0\ninv 0 1", "line 2: 'n' line has 2 fields, expected 1"),
        ("n 2\ne 0 1\ninv 0 1", "line 3: 'e' line has 2 fields, expected 1"),
        ("n 2\ne\ninv 0 1", "line 3: 'e' line has 0 fields, expected 1"),
        ("n 2\ne 0\ninv 0 1\nc 0 0 0 1 5", "line 5: 'c' line has 5 fields, expected 4"),
        ("n 2\ne 0\ninv 0 1\nc 1 1 0 1 extra", "line 5: 'c' line has 5 fields, expected 4"),
        ("n 2\ne 0\ninv 0 1\nc 0 0 0", "line 5: 'c' line has 3 fields, expected 4"),
    ], ids=["n-extra", "e-extra", "e-missing", "c-extra", "c-extra-word", "c-missing"])
    def test_field_count_checked(self, lines, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_hypergroup(f"hypergroup v1\n{lines}\n")

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_value_refused(self, value):
        doc = f"hypergroup v1\nn 2\ne 0\ninv 0 1\nc 1 1 0 {value}\n"
        with pytest.raises(ParseError, match=f"^line 5: value '{value}' is not finite$"):
            parse_hypergroup(doc)

    @pytest.mark.parametrize("doc,error,line,message", [
        ("n 3\ne 5\ninv 0 1 2", RangeError, 3, "identity index 5 out of range for n=3"),
        ("n 3\ninv 0 1 2\n# comment\n\ne 3", RangeError, 6,
         "identity index 3 out of range for n=3"),
        ("n 3\ne 0\n\ninv 0 1", RangeError, 5, "involution is not a permutation"),
        ("inv 0 1 7\nn 3\ne 0", RangeError, 2, "involution is not a permutation"),
        ("n 2\ne 0\ninv 0 0", RangeError, 4, "involution is not a permutation"),
        ("n 3\ne 0\ninv 0 0 1\nc 0 0 0 1", RangeError, 4, "involution is not a permutation"),
        ("n 3\ne 0\ninv 0 99999999999999999999 1", RangeError, 4,
         "involution is not a permutation"),
        ("n 1048576\ne 0\ninv 0", RangeError, 2,
         r"n=1048576 is not below 1048576: the n\^3 tensor is not addressable"),
        ("e 0\ninv 0\nn 0", RangeError, 4, "n must be at least 1"),
    ], ids=["e-line-3", "e-line-6", "inv-length", "inv-entry", "inv-repeated-2",
            "inv-repeated-3", "inv-entry-huge", "n-max", "n-0"])
    def test_directive_checks_report_their_line(self, doc, error, line, message):
        with pytest.raises(error, match=f"^line {line}: {message}$") as err:
            parse_hypergroup(f"hypergroup v1\n{doc}\n")
        assert err.value.line == line

    @pytest.mark.parametrize("entry,message", [
        ("c 0 0 1_0 1", "index '1_0' must be written in ASCII digits without underscores"),
        ("c 0 0 0 1_0.5", "value '1_0.5' must be written in ASCII digits without underscores"),
        ("c \u0663 0 0 1", "index '\u0663' must be written in ASCII digits without underscores"),
        ("c 0 0 0 \u0663", "value '\u0663' must be written in ASCII digits without underscores"),
    ], ids=["underscore-index", "underscore-value", "arabic-index", "arabic-value"])
    def test_c_tokens_are_ascii_decimal(self, entry, message):
        # Python's int and float read these; a 'c' line holds ASCII decimals only
        doc = f"hypergroup v1\nn 2\ne 0\ninv 0 1\nc 1 1 1 1\n{entry}\n"
        with pytest.raises(ParseError) as err:
            parse_hypergroup(doc)
        assert type(err.value) is ParseError
        assert err.value.line == 6
        assert str(err.value) == f"line 6: {message}"

    def test_index_beyond_int64_is_out_of_range(self):
        doc = "hypergroup v1\nn 2\ne 0\ninv 0 1\nc 1 1 1 1\nc 0 99999999999999999999 0 1\n"
        with pytest.raises(RangeError, match=r"^line 6: entry indices must lie in 0\.\.1$"):
            parse_hypergroup(doc)

    @pytest.mark.parametrize("index", ["1.5", "1e3", "2.0"])
    def test_index_is_an_integer_literal(self, index):
        doc = f"hypergroup v1\nn 2\ne 0\ninv 0 1\nc 1 1 1 1\nc {index} 0 0 1\n"
        with pytest.raises(ParseError) as err:
            parse_hypergroup(doc)
        assert type(err.value) is ParseError
        assert str(err.value) == f"line 6: invalid literal for int() with base 10: '{index}'"

    @pytest.mark.parametrize("index", ["1.5", "1e3", "2.0"])
    def test_index_through_float_refused_on_older_numpy(self, monkeypatch, index):
        """numpy 1.23 on reads an int field such as '1.5' through float, as 1,
        with a DeprecationWarning; the parser refuses the line all the same."""
        loadtxt = np.loadtxt

        def loadtxt_through_float(rows, **kwargs):
            rows = list(rows)  # loadtxt takes any iterable of lines; this reads them twice
            fields = [row.split() for row in rows]
            if not all(t.lstrip("+-").isdigit() for f in fields for t in f[1:4]):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
                rows = [" ".join([f[0], *(str(int(float(t))) for t in f[1:4]), f[4]])
                        for f in fields]
            return loadtxt(rows, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt_through_float)
        doc = f"hypergroup v1\nn 2\ne 0\ninv 0 1\nc 1 1 1 1\nc {index} 0 0 1\n"
        with pytest.raises(ParseError) as err:
            parse_hypergroup(doc)
        assert str(err.value) == f"line 6: invalid literal for int() with base 10: '{index}'"
        assert parse_hypergroup(THETA_DOC).n == 2  # a well-formed document still reads

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_hypergroup("hypergroup v1\nn 2\ne 0\ninv 0 1\nq 1\n")

    @pytest.mark.parametrize("line,message", [
        ("cx 2 0 0 1", "unknown directive 'cx'"),
        ("cxyz 2 0 0 1", "unknown directive 'cxyz'"),
        ("q 2 0 0 1", "unknown directive 'q'"),
        ("inv 0 1 2 3", "repeated directive 'inv'"),
    ], ids=["cx", "cxyz", "q", "inv"])
    def test_five_field_line_among_entries(self, line, message):
        # it has the shape of a 'c' line, so only its directive tells it apart
        doc = f"hypergroup v1\nn 4\ne 0\ninv 0 1 2 3\nc 0 0 0 1\n{line}\nc 1 1 1 1\n"
        with pytest.raises(ParseError, match=f"^line 6: {message}$"):
            parse_hypergroup(doc)


def _per_entry_serialize(h):
    """The text form written one entry at a time, in (s, t, u) order, as a
    reference; it reads c's entries, not a dense tensor, so it serves any n."""
    lines = ["hypergroup v1", f"n {h.n}", f"e {h.e}",
             "inv " + " ".join(str(int(x)) for x in h.inv)]
    s, t, u, value = (a.tolist() for a in h.entries)
    for (a, b, d), v in sorted(zip(zip(s, t, u), value)):
        if v != 0:
            lines.append(f"c {a} {b} {d} {v:.17g}")
    return "\n".join(lines) + "\n"


# Awkward values of c, indexed (s, t, u) at n = 3
_AWKWARD = {
    "negative-zero": {(0, 0, 0): 1.0, (0, 1, 1): -0.0, (1, 1, 0): -0.0, (2, 2, 2): 0.5},
    "subnormal-negative-third": {
        (0, 0, 1): 5e-324, (0, 2, 1): -5e-324, (1, 0, 2): -2.5, (1, 1, 1): 1 / 3,
        (2, 0, 0): 1 / 3, (2, 2, 0): -1 / 3, (2, 2, 1): 2.2250738585072014e-308},
    "inf-nan": {(0, 0, 0): np.inf, (0, 1, 0): -np.inf, (1, 0, 1): np.nan, (1, 2, 2): -np.nan,
                (2, 1, 0): np.nan, (2, 2, 2): 1.0},
    "empty": {},
}
# Entries as a parsed document may list them: zeros of either sign among
# repeated values, NaNs and subnormals
_LISTED = {(0, 0, 0): 1 / 3, (0, 0, 1): -0.0, (0, 0, 2): 1 / 3, (0, 1, 0): np.nan,
           (0, 1, 1): 0.0, (0, 1, 2): -np.nan, (0, 2, 0): 5e-324, (0, 2, 1): 5e-324,
           (1, 0, 0): 1 / 3, (1, 1, 1): -0.0, (2, 2, 2): 5e-324}


class TestRoundTrip:
    def test_s3_round_trip_is_stable(self):
        h = conjugacy_class_hypergroup(symmetric_group_table(3))
        doc = serialize_hypergroup(h)
        assert serialize_hypergroup(parse_hypergroup(doc)) == doc

    def test_values_bit_exact(self, bundled):
        again = parse_hypergroup(serialize_hypergroup(bundled))
        np.testing.assert_array_equal(dense(again), dense(bundled))
        np.testing.assert_array_equal(again.inv, bundled.inv)
        assert (again.n, again.e) == (bundled.n, bundled.e)

    def test_serialize_matches_per_entry_reference(self, bundled):
        assert serialize_hypergroup(bundled) == _per_entry_serialize(bundled)

    @pytest.mark.parametrize("h", [theta_hypergroup(1 / 3), cosine_grid_hypergroup(64)],
                             ids=["theta-1/3", "cosine-grid-64"])
    def test_serialize_matches_per_entry_reference_large(self, h):
        assert serialize_hypergroup(h) == _per_entry_serialize(h)

    @pytest.mark.parametrize("entries", list(_AWKWARD.values()), ids=list(_AWKWARD))
    def test_serialize_matches_per_entry_reference_awkward(self, entries):
        c = np.zeros((3, 3, 3))
        for key, value in entries.items():
            c[key] = value
        doc = serialize_hypergroup(FiniteHypergroup(3, 0, [0, 2, 1], c))
        assert doc == _per_entry_serialize(FiniteHypergroup(3, 0, [0, 2, 1], c))
        # -0.0 is omitted as 0.0 is; every NaN, whatever its sign, reads 'nan'
        assert doc.count("\nc ") == sum(1 for v in entries.values() if v != 0)
        assert "-0\n" not in doc and "-nan" not in doc

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("entries", list(_AWKWARD.values()) + [_LISTED],
                             ids=list(_AWKWARD) + ["listed-zeros"])
    def test_blocks_match_per_entry_reference(self, entries, block, monkeypatch):
        """Whatever falls on a block boundary, the blocks write the document."""
        s, t, u = np.array(list(entries), dtype=int).reshape(-1, 3).T
        h = FiniteHypergroup.from_entries(3, 0, [0, 2, 1], s, t, u, list(entries.values()))
        monkeypatch.setattr(fileio, "_BLOCK", block)
        assert serialize_hypergroup(h) == _per_entry_serialize(h)

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("h", [theta_hypergroup(1 / 3), cosine_grid_hypergroup(16)],
                             ids=["theta-1/3", "cosine-grid-16"])
    def test_blocks_match_per_entry_reference_families(self, h, block, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK", block)
        assert serialize_hypergroup(h) == _per_entry_serialize(h)

    @pytest.mark.parametrize("top", [9, 99_999, 999_999, 1_000_000, MAX_N - 2])
    def test_cells_match_per_entry_reference(self, top, monkeypatch):
        """Index and value texts on either side of a cell's 8-byte boundaries,
        in blocks of 1, 3 and 2^14 entries: 'c <s> ' is 8 bytes at s = 99 999
        and '<i> ' at i = 1 000 000; the value cells '1234567\\n' and
        '4.9406564584124654e-324\\n' (5e-324) fill whole words and
        '-1.7976931348623157e+308\\n' spills into a fourth.  top is the
        largest index; MAX_N - 2 is the largest that n allows."""
        n, a, b, c, d = top + 1, 0, min(9, top - 2), top - 1, top
        keys = [(a, a, a), (d, d, d), (b, c, a), (c, b, d), (d, a, b), (a, d, c),
                (c, c, b), (b, b, d)]
        finite = [1.0, 0.5, 1234567.0, 0.1, -1.7976931348623157e+308, 5e-324]
        s, t, u = np.array(keys).T
        h = FiniteHypergroup.from_entries(n, 0, np.arange(n), s, t, u,
                                          finite + [math.nan, -math.inf])
        reference = _per_entry_serialize(h)
        for block in (1, 3, 2 ** 14):
            monkeypatch.setattr(fileio, "_BLOCK", block)
            assert serialize_hypergroup(h) == reference
        # its finite lines read back bit for bit
        again = parse_hypergroup("".join(line for line in reference.splitlines(True)
                                         if not line.endswith(("nan\n", "inf\n"))))
        h = FiniteHypergroup.from_entries(n, 0, np.arange(n), s[:6], t[:6], u[:6], finite)
        assert (again.n, again.e) == (n, 0)
        for x, y in zip(again.entries, h.entries):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("block", [1, 3, 2 ** 14])
    def test_cells_match_per_entry_reference_n1(self, block, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK", block)
        h = FiniteHypergroup(1, 0, [0], np.ones((1, 1, 1)))
        doc = serialize_hypergroup(h)
        assert doc == _per_entry_serialize(h) == "hypergroup v1\nn 1\ne 0\ninv 0\nc 0 0 0 1\n"
        assert serialize_hypergroup(parse_hypergroup(doc)) == doc

    @pytest.mark.parametrize("block", [1, 2, 3, 2 ** 14])
    def test_one_write_for_the_header_and_one_per_block(self, block, monkeypatch):
        """A block whose listed values are all zero is written too, as ''."""
        class Recording:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        entries = {(0, 0, 0): 1.0, (0, 1, 1): 0.5, (0, 1, 2): 0.0, (0, 2, 0): -0.0,
                   (1, 0, 1): 1.0, (2, 0, 2): 0.0, (2, 2, 2): 0.0}
        s, t, u = np.array(list(entries)).T
        h = FiniteHypergroup.from_entries(3, 0, [0, 2, 1], s, t, u, list(entries.values()))
        monkeypatch.setattr(fileio, "_BLOCK", block)
        out = Recording()
        write_hypergroup(h, out)
        assert len(out.writes) == 1 + math.ceil(len(entries) / block)
        assert out.writes[0] == "hypergroup v1\nn 3\ne 0\ninv 0 2 1\n"
        assert "".join(out.writes) == _per_entry_serialize(h)
        values = list(entries.values())
        for k, text in enumerate(out.writes[1:]):
            assert (text == "") == (not any(values[k * block:(k + 1) * block]))

    def test_write_holds_one_block_of_lines(self):
        """Writing cosine-grid 512 (an 8.6 MB document) holds c's entries and
        one block of lines, 2.3 MB at its peak; the whole text built first
        peaked at 97 MB."""
        h = cosine_grid_hypergroup(512)
        with open(os.devnull, "w") as out:
            _, peak = traced_peak(write_hypergroup, h, out)
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("build", [cyclic_hypergroup, cosine_grid_hypergroup],
                             ids=["cyclic-256", "cosine-grid-256"])
    def test_serialize_matches_per_entry_reference_n256(self, build):
        h = build(256)  # the large-sparse benchmark documents
        assert serialize_hypergroup(h) == _per_entry_serialize(h)

    def test_awkward_floats_survive(self):
        h = theta_hypergroup(1 / 3)
        again = parse_hypergroup(serialize_hypergroup(h))
        np.testing.assert_array_equal(dense(again), dense(h))


# Directive-like lines.  n stays at most 6: parse allocates n^3 floats.
_tokens = st.one_of(st.integers(-2, 8).map(str),
                    st.floats().map(repr),
                    st.sampled_from(["x", "", "1.5", "1e3", "0x1", "1_0", "\u0663",
                                     "99999999999999999999", "+inf", "-nan", "Infinity", "1.",
                                     ".5"]))
_lines = st.one_of(
    st.one_of(st.integers(-1, 6).map(str), st.sampled_from(["x", "", "2.0"])).map("n {}".format),
    *(st.lists(_tokens, max_size=size).map(lambda f, key=key: " ".join([key, *f]))
      for key, size in (("e", 2), ("inv", 8), ("c", 6))),
    st.sampled_from(["", "# comment", "q 1", "hypergroup v1"]),
)
_documents = st.tuples(st.sampled_from(["hypergroup v1", "hypergroup v2", ""]),
                       st.lists(_lines, max_size=12)).map(lambda d: "\n".join([d[0], *d[1]]))


@given(_documents)
@settings(max_examples=300, deadline=None)
def test_parse_outcomes(doc):
    """A document parses, or raises a ParseError that names a line of it: a
    broken rule of FiniteHypergroup's on n, e or inv too."""
    try:
        assert isinstance(parse_hypergroup(doc), FiniteHypergroup)
    except ParseError as exc:
        assert 1 <= exc.line <= max(1, len(doc.splitlines()))


_MAGIC = "hypergroup v1"
_FIELDS = {"n": 2, "e": 2, "c": 5}


def _reference_parse(text):
    """The line-by-line parser that parse_hypergroup replaced, kept as a reference:
    a pass over the lines for how the document is written, then FiniteHypergroup's
    rules on n, e, inv and the entries, in its order and texts, each reported at
    its line; it keeps the entries as the document lists them, -0.0 and other
    zeros included."""
    n = e = inv = None
    listed = []  # (s, t, u), value and line of each entry, in the document's order
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
                listed.append((entry, value, lineno))
            elif key in ("n", "e", "inv"):
                if key in directives:
                    raise DuplicateEntry(f"repeated directive {key!r}", lineno)
                directives[key] = lineno
                if key == "n":
                    n = int(fields[1])
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
    if n < 1:
        raise RangeError("n must be at least 1", directives["n"])
    if n >= 2 ** 20:
        raise RangeError(f"n={n} is not below {2 ** 20}: the n^3 tensor is not addressable",
                         directives["n"])
    if not (0 <= e < n):
        raise RangeError(f"identity index {e} out of range for n={n}", directives["e"])
    if sorted(inv) != list(range(n)):
        raise RangeError("involution is not a permutation", directives["inv"])
    for entry, _, lineno in listed:
        if not all(0 <= idx < n for idx in entry):
            raise RangeError(f"entry indices must lie in 0..{n - 1}", lineno)
    seen = {}
    for entry, value, lineno in listed:
        if entry in seen:
            raise DuplicateEntry("an entry (s, t, u) is listed twice", lineno)
        seen[entry] = value
    stu = np.array(list(seen), dtype=np.intp).reshape(-1, 3).T
    return FiniteHypergroup.from_entries(n, e, np.asarray(inv), *stu, list(seen.values()))


def _outcome(parse, doc):
    """What parse makes of doc: the parsed arrays, or the error's class, line and message."""
    try:
        h = parse(doc)
    except ParseError as exc:
        return type(exc), exc.line, str(exc)
    return h.n, h.e, h.inv.tobytes(), tuple(a.tobytes() for a in h.entries)


_GRAMMAR = re.compile(r"line (\d+): (?:index|value) '(.*)' must be written in ASCII digits "
                      r"without underscores")


def _assert_same_outcome(doc):
    got, expected = _outcome(parse_hypergroup, doc), _outcome(_reference_parse, doc)
    if got == expected:
        return
    # The one change: a 'c' token with an underscore or a non-ASCII character,
    # which Python's int or float read, is refused at its line.
    assert got[0] is ParseError, (got, expected)
    refused = _GRAMMAR.fullmatch(got[2])
    assert refused, (got, expected)
    token = refused.group(2)
    assert "_" in token or not token.isascii()
    assert token in doc.splitlines()[got[1] - 1].split()
    # The reference reads past that line: it accepts, or refuses a later line
    # written wrong, or, with none, what FiniteHypergroup refuses, at any line.
    judged = len(expected) == 3 and (expected[0] is RangeError
                                     or expected[2].endswith("is listed twice"))
    assert len(expected) == 4 or judged or expected[1] >= got[1], (got, expected)


# Documents whose directives are good, so most outcomes turn on the 'c' lines:
# seven in eight lines have indices in 0..3 and a finite value, the rest draw
# any of the tokens above; a few 'c' lines may come before 'n'.
_good_entry = st.tuples(*[st.integers(0, 3).map(str)] * 3,
                        st.floats(allow_nan=False, allow_infinity=False).map(repr))
_any_entry = st.tuples(*[st.one_of(st.integers(0, 3).map(str), _tokens)] * 3,
                       st.one_of(st.floats().map(repr), _tokens))
_entry = st.integers(0, 7).flatmap(lambda k: _good_entry if k else _any_entry).map(
    lambda f: " ".join(["c", *f]))
_entry_documents = st.tuples(st.integers(1, 4), st.lists(_entry, max_size=12),
                             st.sampled_from([0, 0, 0, 1, 2])).map(
    lambda d: "\n".join(["hypergroup v1", *d[1][:d[2]], f"n {d[0]}", "e 0",
                         "inv " + " ".join(map(str, range(d[0]))), *d[1][d[2]:]]))


@given(st.one_of(_documents, _entry_documents))
@example("hypergroup v1\nn 1\ne 0\ninv 0\nc 0 0 1 0.0\nc 0 0 0 1_0")  # range, then '1_0'
@settings(max_examples=300, deadline=None)
def test_parse_matches_reference(doc):
    """The bulk parser gives the line-by-line parser's outcome: the same
    arrays, or the same error class, line and message."""
    _assert_same_outcome(doc)


_GOOD = serialize_hypergroup(cosine_grid_hypergroup(6)).splitlines()


@pytest.mark.parametrize("at", [4, 5, 37, len(_GOOD) - 1, len(_GOOD)])
@pytest.mark.parametrize("bad", ["c 0 0 0 x", "c 0 0 0 1_0", "c 0 0 0", "c 0 0 6 1",
                                 "c 99999999999999999999 0 0 1", "c 0 0 0 nan",
                                 "c 5 5 0 0.5", "q 1", "n 3"])
def test_bad_line_among_many(at, bad):
    """One bad line among many good ones, and a later syntax error: the parser
    reports the first line written wrong, as the reference does."""
    lines = _GOOD[:at] + [bad] + _GOOD[at:] + ["c 0 0 0 x", "c 0 0 0 1"]
    _assert_same_outcome("\n".join(lines) + "\n")


@pytest.mark.parametrize("at", [4, 5, 37, len(_GOOD) - 1, len(_GOOD)])
@pytest.mark.parametrize("bad,error", [("c 0 0 6 1", RangeError),
                                       ("c 99999999999999999999 0 0 1", RangeError),
                                       ("c 5 5 0 0.5", DuplicateEntry)])
def test_bad_entry_among_many(at, bad, error):
    """One bad entry among many good ones, and a later repeat of the first: the
    refusal names the bad entry's line, or for a repeat the later of its two."""
    lines = _GOOD[:at] + [bad] + _GOOD[at:] + ["c 0 0 0 1"]
    doc = "\n".join(lines) + "\n"
    with pytest.raises(error) as err:
        parse_hypergroup(doc)
    named = lines[err.value.line - 1]
    assert named == bad if error is RangeError else named.split()[:4] == bad.split()[:4]
    _assert_same_outcome(doc)


@pytest.mark.parametrize("doc,error,line", [
    ("n 2\ne 0\ninv 0 1\n# the entries\n\nc 0 0 0 1\n\n# a bad one\nc 0 0 5 1", RangeError, 10),
    ("n 2\ne 0\ninv 0 1\nc 0 0 0 1\n# again\nc 1 1 1 1\n\nc 0 0 0 1", DuplicateEntry, 9),
    ("n 2\nc 0 0 0 1\nc 1 1 0 1\ne 0\ninv 0 1\nc 0 1 2 1", RangeError, 7),
    ("n 2\nc 0 0 0 1\ne 0\n# inv follows\ninv 0 1\n\nc 1 1 1 1\nc 0 0 0 1", DuplicateEntry, 9),
    ("n 2\ne 0\nc 0 0 0 1  # the identity\ninv 0 1\nc 1 1 1 1 # 1 * 1\nc -1 0 0 1", RangeError, 7),
], ids=["comments-range", "comments-repeat", "directive-range", "directive-repeat",
        "trailing-comments-range"])
def test_entry_refusal_names_its_line(doc, error, line):
    """Comments, blank lines and directives among the 'c' lines part an entry's
    position from its line; the constructor's refusal is placed at the line."""
    text = f"hypergroup v1\n{doc}\n"
    with pytest.raises(error) as err:
        parse_hypergroup(text)
    assert err.value.line == line
    assert text.splitlines()[line - 1].split()[0] == "c"
    _assert_same_outcome(text)


@pytest.mark.parametrize("doc,error,line,message", [
    ("n 2\ne 0\ninv 0 1\nc 0 0 5 1\nc x 0 0 1", ParseError, 6,
     "invalid literal for int() with base 10: 'x'"),
    ("n 2\ne 0\ninv 0 1\nc 0 0 0 1\nc 0 0 0 1\nq 1", ParseError, 7, "unknown directive 'q'"),
    ("n 2\ne 3\ninv 0 1\nc 0 0 5 1", RangeError, 3, "identity index 3 out of range for n=2"),
    ("n 2\ne 0\ninv 0 0\nc 0 0 0 1\nc 0 0 0 1", RangeError, 4, "involution is not a permutation"),
    ("n 2\ne 0\ninv 0 1\nc 0 0 0 1\nc 0 0 0 1\nc 0 0 5 1", RangeError, 7,
     "entry indices must lie in 0..1"),
    ("n 0\ne 0\ninv 0\nq 1", ParseError, 5, "unknown directive 'q'"),
], ids=["range-then-syntax", "repeat-then-syntax", "e-then-range", "inv-then-repeat",
        "repeat-then-range", "n-then-syntax"])
def test_written_faults_come_before_the_constructors(doc, error, line, message):
    """A document reports its first line written wrong; if it has none, the
    constructor's first broken rule: n, e, inv, an index out of range, a repeat."""
    with pytest.raises(error) as err:
        parse_hypergroup(f"hypergroup v1\n{doc}\n")
    assert type(err.value) is error
    assert str(err.value) == f"line {line}: {message}"


@given(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([repr, "%.17g".__mod__]))
@settings(max_examples=300, deadline=None)
def test_value_parses_exactly(value, write):
    """A value written with repr or %.17g, subnormals included, parses to float(token)."""
    token = write(value)
    h = parse_hypergroup(f"hypergroup v1\nn 1\ne 0\ninv 0\nc 0 0 0 {token}\n")
    assert dense(h)[0, 0, 0].tobytes() == np.float64(float(token)).tobytes()


def test_subnormal_values_parse_exactly():
    for value in (5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -0.0):
        for token in (repr(value), "%.17g" % value):
            h = parse_hypergroup(f"hypergroup v1\nn 1\ne 0\ninv 0\nc 0 0 0 {token}\n")
            assert dense(h)[0, 0, 0].tobytes() == np.float64(value).tobytes()


def test_bad_line_before_unallocatable_n():
    """Parse forms no n^3 tensor, so n = 10^5 (7 PiB dense) reads to the short
    inv line; a bad line above the 'n' line still comes first, as it does read
    line by line."""
    with pytest.raises(RangeError, match="^line 4: involution is not a permutation$"):
        parse_hypergroup("hypergroup v1\nn 100000\ne 0\ninv 0\n")
    with pytest.raises(ParseError, match="^line 2: 'c' entry before 'n'$"):
        parse_hypergroup("hypergroup v1\nc 0 0 0 1\nn 100000\ne 0\ninv 0\n")


def _parse_line_by_line(doc, monkeypatch):
    """parse_hypergroup with the bulk read refused, so the line-by-line reader reads doc."""
    calls = []

    def refuse(rows, **kwargs):
        calls.append(rows)
        raise ValueError("bulk read refused")

    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", refuse)
        h = parse_hypergroup(doc)
    assert len(calls) == 1
    return h


def _assert_same_parse(doc, monkeypatch):
    """The two readers give the same entries, bit for bit and -0.0 included,
    and the same dense tensor."""
    bulk, lines = parse_hypergroup(doc), _parse_line_by_line(doc, monkeypatch)
    assert [(a.dtype, a.tobytes()) for a in lines.entries] == [
        (a.dtype, a.tobytes()) for a in bulk.entries]
    assert (lines.n, lines.e, lines.inv.tobytes(), dense(lines).tobytes()) == (
        bulk.n, bulk.e, bulk.inv.tobytes(), dense(bulk).tobytes())


def test_line_by_line_reader_matches_bulk_read(bundled, monkeypatch):
    _assert_same_parse(serialize_hypergroup(bundled), monkeypatch)


@pytest.mark.parametrize("value", [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -0.0])
def test_line_by_line_reader_matches_bulk_read_subnormal(value, monkeypatch):
    for token in (repr(value), "%.17g" % value):
        _assert_same_parse(f"hypergroup v1\nn 1\ne 0\ninv 0\nc 0 0 0 {token}\n", monkeypatch)


def test_line_by_line_reader_matches_bulk_read_out_of_order(monkeypatch):
    """Entries listed out of C order, zeros among them, blank lines between."""
    _assert_same_parse("hypergroup v1\nn 2\ne 0\ninv 0 1\nc 1 1 0 0.5\n\nc 0 0 0 1\n"
                       "c 1 0 1 -0.0\n  \nc 0 1 1 0\nc 1 1 1 0.5\n", monkeypatch)


# Separators of documents read from a file.  Within a line, str.split takes
# all of them for whitespace; str.splitlines breaks a line at every one of
# _BREAKS, numpy's file reader only at the first three.
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_GAPS = ["\t", "  ", "\x1f", "\xa0", *_BREAKS[3:]]
_ENDS = [*_BREAKS[1:], "\n\n", "\n \t\n", "#\n", " # c 0 0 0 1\n", "\t#x\r\n"]
_good_line = _good_entry.map(lambda f: " ".join(["c", *f]))


@st.composite
def _separated_documents(draw):
    """A good header and up to ten 'c' lines, at most two of them drawn from
    _entry or _lines; fields are joined by spaces and lines ended by '\n',
    or by a few other separators, line breaks and comments drawn per document."""
    n = draw(st.sampled_from([4, 4, 4, 2]))
    lines = draw(st.lists(_good_line, max_size=10, unique_by=lambda line: line[:8]))
    for bad in draw(st.lists(st.one_of(_entry, _lines), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    gaps = [" "] * 8 + draw(st.lists(st.sampled_from(_GAPS), max_size=2))
    ends = ["\n"] * 8 + draw(st.lists(st.sampled_from(_ENDS), max_size=2))
    text = ""
    for line in ["hypergroup v1", f"n {n}", "e 0", "inv " + " ".join(map(str, range(n))), *lines]:
        fields = line.split(" ")
        text += fields[0] + "".join(draw(st.sampled_from(gaps)) + field for field in fields[1:])
        text += draw(st.sampled_from(ends))
    return text


def _assert_read_is_parse(path, text):
    """read_hypergroup(path) gives parse_hypergroup(text)'s outcome, and neither warns."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _outcome(read_hypergroup, path) == _outcome(parse_hypergroup, text)
    assert not caught


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("read") / "doc.hg"


@given(doc=_separated_documents())
@settings(max_examples=300, deadline=None)
def test_read_matches_parse_of_the_text(doc_path, doc):
    """Reading the c block from the file gives the outcome of parsing the
    file's text: the same arrays byte for byte, or the same error class,
    line and message."""
    doc_path.write_bytes(doc.encode())
    with pytest.MonkeyPatch.context() as m:  # the file read, however short the document
        m.setattr(fileio, "_FILE_READ_BYTES", 0)
        _assert_read_is_parse(doc_path, doc_path.read_text())


@pytest.mark.parametrize("doc", [
    serialize_hypergroup(cosine_grid_hypergroup(6)),
    "hypergroup v1\nn 1\ne 0\ninv 0\n",
    "hypergroup v1\nn 1\ne 0\ninv 0\nc 0 0 0 1\fc 0 0 0 1\n",
    "hypergroup v1\nn 2\ne 0\ninv 0 1\nc 0 0 0 1\nc 1 1\f0 1\n",
    "hypergroup v1\nn 2\ne 0\ninv 0 1\nc 0 0 0 1\nc\0 1 1 1 1\n",
], ids=["grid", "no-entries", "formfeed-break", "formfeed-field", "nul-key"])
@pytest.mark.parametrize("name", ["doc.hg", "doc.gz", "doc.xz"])
def test_read_matches_parse_of_the_text_awkward(tmp_path, monkeypatch, doc, name):
    monkeypatch.setattr(fileio, "_FILE_READ_BYTES", 0)
    path = tmp_path / name
    path.write_text(doc)
    _assert_read_is_parse(path, doc)


def test_nul_key_is_an_unknown_directive(tmp_path):
    """A 'U2' key drops a trailing NUL, so a document holding one is read line by line."""
    doc = "hypergroup v1\nn 2\ne 0\ninv 0 1\nc 0 0 0 1\nc\0 1 1 1 1\n"
    with pytest.raises(ParseError, match=r"^line 6: unknown directive 'c\\x00'$"):
        parse_hypergroup(doc)


def _spy_loadtxt(monkeypatch, before=lambda: None):
    """Record the rows and skiprows of each np.loadtxt call, running before() first."""
    calls, loadtxt = [], np.loadtxt

    def spy(rows, **kwargs):
        calls.append((rows, kwargs.get("skiprows")))
        before()
        return loadtxt(rows, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


def test_read_takes_the_c_block_from_the_file(tmp_path, monkeypatch):
    """numpy reads a regular file's c block from the file, by name, past the header."""
    monkeypatch.setattr(fileio, "_FILE_READ_BYTES", 0)
    path = tmp_path / "grid.hg"
    path.write_text(serialize_hypergroup(cosine_grid_hypergroup(6)))
    calls = _spy_loadtxt(monkeypatch)
    h = read_hypergroup(path)
    assert calls == [(str(path), 4)]
    assert h.entries[3].tobytes() == parse_hypergroup(path.read_text()).entries[3].tobytes()


@pytest.mark.parametrize("line,message", [
    ("inv 0 1 2 3 4 4", "line 4: involution is not a permutation"),
    ("e 6", "line 3: identity index 6 out of range for n=6"),
], ids=["inv", "e"])
def test_read_refuses_a_broken_header_at_its_line(tmp_path, monkeypatch, line, message):
    """The file route's FiniteHypergroup refuses e or inv without a line, so the
    text is read line by line and the refusal names the directive's line."""
    monkeypatch.setattr(fileio, "_FILE_READ_BYTES", 0)
    lines = serialize_hypergroup(cosine_grid_hypergroup(6)).splitlines()
    key = line.split()[0]
    lines = [line if old.split()[0] == key else old for old in lines]
    path = tmp_path / "grid.hg"
    path.write_text("\n".join(lines) + "\n")
    calls = _spy_loadtxt(monkeypatch)
    with pytest.raises(RangeError, match=f"^{message}$"):
        read_hypergroup(path)
    assert calls[0] == (str(path), 4)  # then parse_hypergroup of the text


def test_read_of_a_file_that_changes_parses_the_text(tmp_path, monkeypatch):
    """A file rewritten between the two reads gives the first read's text."""
    monkeypatch.setattr(fileio, "_FILE_READ_BYTES", 0)
    path = tmp_path / "theta.hg"
    text = serialize_hypergroup(theta_hypergroup(0.5))
    path.write_text(text)
    calls = _spy_loadtxt(monkeypatch, lambda: path.write_text(text.replace("0.5", "0.25")))
    h = read_hypergroup(path)
    assert calls[0] == (str(path), 4)
    np.testing.assert_array_equal(dense(h), dense(theta_hypergroup(0.5)))


@pytest.mark.parametrize("n", [4, 64], ids=["cyclic-4", "cyclic-64"])
def test_read_of_a_short_document_parses_its_text(tmp_path, monkeypatch, n):
    """Below _FILE_READ_BYTES a document is parsed from its text, so numpy never
    opens the file; at or above it the c block is read from the file."""
    path = tmp_path / "doc.hg"
    path.write_text(serialize_hypergroup(cyclic_hypergroup(n)))
    calls = _spy_loadtxt(monkeypatch)
    h = read_hypergroup(path)
    short = path.stat().st_size < fileio._FILE_READ_BYTES
    assert short == (n == 4)
    # parse_hypergroup's bulk read hands np.loadtxt the lines, never the path
    assert [rows == str(path) for rows, _ in calls] == [not short]
    assert h.entries[3].tobytes() == parse_hypergroup(path.read_text()).entries[3].tobytes()


@pytest.mark.parametrize("kind", ["fifo", "pipe"])
@pytest.mark.parametrize("doc", [
    serialize_hypergroup(cyclic_hypergroup(4)),
    "hypergroup v1\nn 2\ne 0\ninv 0 1\nc 0 0 0 1\nc 1 1 1 x\n",
], ids=["z4", "bad-value"])
def test_read_of_a_fifo_or_pipe_reads_it_once(tmp_path, kind, doc):
    """A FIFO, or the /dev/fd/N of a pipe, gives its text's outcome; it cannot be read twice."""
    if kind == "fifo":
        path = write_end = str(tmp_path / "doc.fifo")
        os.mkfifo(path)
    else:
        r, write_end = os.pipe()
        path = f"/dev/fd/{r}"

    def write():
        with open(write_end, "w") as f:
            f.write(doc)

    # a FIFO opened a second time would wait for a writer: read in a thread
    outcome = []
    reader = threading.Thread(target=lambda: outcome.append(_outcome(read_hypergroup, path)),
                              daemon=True)
    threading.Thread(target=write, daemon=True).start()
    reader.start()
    reader.join(timeout=30)
    if kind == "pipe":
        os.close(r)
    assert outcome == [_outcome(parse_hypergroup, doc)]


def test_entry_routes_never_form_the_dense_tensor():
    """Parse, Jewett and the solve read c's entries only: on cyclic 512, whose
    dense tensor alone is 1 GiB, they stay under 64 MB and never form it."""
    text = serialize_hypergroup(cyclic_hypergroup(512))

    def run():
        h = parse_hypergroup(text)
        return h, jewett_haar(h).w, solve_invariance(h).w

    (h, jewett, solve), peak = traced_peak(run)
    assert peak < 64 * 2 ** 20
    np.testing.assert_array_equal(jewett, np.ones(512))
    np.testing.assert_allclose(solve, np.full(512, 1 / 512), rtol=1e-12)


class TestTraceCsv:
    def test_header_and_rows(self):
        h = theta_hypergroup(0.5)
        cfg = ApproximantConfig(Measure(np.ones(2), nonneg=True), Function.ones(2),
                                canonical_chain(h))
        _, trace = haar_net(h, cfg)
        out = io.StringIO()
        write_trace_csv(trace, out)
        lines = out.getvalue().strip().splitlines()
        assert lines[0].startswith("step,|U|,chi(f0)")
        assert lines[0].endswith("gap,rho,cauchy_diff")
        assert len(lines) == len(trace) + 1
        header = lines[0].split(",")
        col = 2 + len(trace.steps[0].chi_probe)
        assert header[col] == "bounds_ok"
        assert [row.split(",")[col] for row in lines[1:]] == [str(s.bounds_ok) for s in trace.steps]
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "2"
