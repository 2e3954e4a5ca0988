import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperhaar import (
    DuplicateEntry,
    FiniteHypergroup,
    ParseError,
    RangeError,
    parse_hypergroup,
    serialize_hypergroup,
)
from hyperhaar.approx import ApproximantConfig, canonical_chain, haar_net
from hyperhaar.core import Function, Measure
from hyperhaar.fileio import write_trace_csv
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
        with pytest.raises(RangeError, match="identity 5"):
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
        ("n 3\ne 5\ninv 0 1 2", RangeError, 3, "identity 5 out of range for n=3"),
        ("n 3\ninv 0 1 2\n# comment\n\ne 3", RangeError, 6, "identity 3 out of range for n=3"),
        ("n 3\ne 0\n\ninv 0 1", ParseError, 5, "inv must list 3 entries, got 2"),
        ("inv 0 1 7\nn 3\ne 0", RangeError, 2, "inv entry 7 out of range for n=3"),
    ], ids=["e-line-3", "e-line-6", "inv-length", "inv-entry"])
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
        with pytest.raises(RangeError,
                           match="^line 6: index 99999999999999999999 out of range for n=2$"):
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
    """The text form written one numpy scalar at a time, as a reference."""
    lines = ["hypergroup v1", f"n {h.n}", f"e {h.e}",
             "inv " + " ".join(str(int(x)) for x in h.inv)]
    c = dense(h)
    for s, t, u in zip(*np.nonzero(c)):
        lines.append(f"c {s} {t} {u} {c[s, t, u]:.17g}")
    return "\n".join(lines) + "\n"


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

    @pytest.mark.parametrize("entries", [
        {(0, 0, 0): 1.0, (0, 1, 1): -0.0, (1, 1, 0): -0.0, (2, 2, 2): 0.5},
        {(0, 0, 1): 5e-324, (0, 2, 1): -5e-324, (1, 0, 2): -2.5, (1, 1, 1): 1 / 3,
         (2, 0, 0): 1 / 3, (2, 2, 0): -1 / 3, (2, 2, 1): 2.2250738585072014e-308},
        {(0, 0, 0): np.inf, (0, 1, 0): -np.inf, (1, 0, 1): np.nan, (1, 2, 2): -np.nan,
         (2, 1, 0): np.nan, (2, 2, 2): 1.0},
        {},
    ], ids=["negative-zero", "subnormal-negative-third", "inf-nan", "empty"])
    def test_serialize_matches_per_entry_reference_awkward(self, entries):
        c = np.zeros((3, 3, 3))
        for key, value in entries.items():
            c[key] = value
        doc = serialize_hypergroup(FiniteHypergroup(3, 0, [0, 2, 1], c))
        assert doc == _per_entry_serialize(FiniteHypergroup(3, 0, [0, 2, 1], c))
        # -0.0 is omitted as 0.0 is; every NaN, whatever its sign, reads 'nan'
        assert doc.count("\nc ") == sum(1 for v in entries.values() if v != 0)
        assert "-0\n" not in doc and "-nan" not in doc

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
    """A document parses, or raises ParseError, or fails FiniteHypergroup's
    consistency checks with a ValueError: the three outcomes the CLI handles."""
    try:
        assert isinstance(parse_hypergroup(doc), FiniteHypergroup)
    except ParseError:
        pass
    except ValueError as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        assert tb.tb_frame.f_code.co_name == "__post_init__"


_MAGIC = "hypergroup v1"
_FIELDS = {"n": 2, "e": 2, "c": 5}


def _reference_parse(text):
    """The line-by-line parser that parse_hypergroup replaced, kept as a reference."""
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


def _outcome(parse, doc):
    """What parse makes of doc: the parsed arrays, or the error's class, line and message."""
    try:
        h = parse(doc)
    except ParseError as exc:
        return type(exc), exc.line, str(exc)
    except ValueError as exc:  # FiniteHypergroup's consistency checks, after every line
        return ValueError, math.inf, str(exc)
    return h.n, h.e, h.inv.tobytes(), dense(h).tobytes()


_GRAMMAR = re.compile(r"line (\d+): (?:index|value) '(.*)' must be written in ASCII digits "
                      r"without underscores")


def _assert_same_outcome(doc):
    got, expected = _outcome(parse_hypergroup, doc), _outcome(_reference_parse, doc)
    if got == expected:
        return
    # The one change: a 'c' token with an underscore or a non-ASCII character,
    # which Python's int or float read, is refused at its line.
    refused = _GRAMMAR.fullmatch(got[2])
    assert got[0] is ParseError and refused, (got, expected)
    token = refused.group(2)
    assert "_" in token or not token.isascii()
    assert token in doc.splitlines()[got[1] - 1].split()
    assert len(expected) == 4 or expected[1] >= got[1], (got, expected)


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
    """One bad line among many good ones, and a later one: the parser reports
    the first, as the reference does."""
    lines = _GOOD[:at] + [bad] + _GOOD[at:] + ["c 0 0 0 x", "c 0 0 0 1"]
    _assert_same_outcome("\n".join(lines) + "\n")


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
    with pytest.raises(ParseError, match="^line 4: inv must list 100000 entries, got 1$"):
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
