import io

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
from hyperhaar.oracles import conjugacy_class_hypergroup, symmetric_group_table, theta_hypergroup

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
        np.testing.assert_array_equal(h.c, ref.c)

    def test_unlisted_entries_are_zero(self):
        h = parse_hypergroup("hypergroup v1\nn 2\ne 0\ninv 0 1\n")
        assert h.c.sum() == 0.0

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

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_hypergroup("hypergroup v1\nn 2\ne 0\ninv 0 1\nq 1\n")


class TestRoundTrip:
    def test_s3_round_trip_is_stable(self):
        h = conjugacy_class_hypergroup(symmetric_group_table(3))
        doc = serialize_hypergroup(h)
        assert serialize_hypergroup(parse_hypergroup(doc)) == doc

    def test_values_bit_exact(self, bundled):
        again = parse_hypergroup(serialize_hypergroup(bundled))
        np.testing.assert_array_equal(again.c, bundled.c)
        np.testing.assert_array_equal(again.inv, bundled.inv)
        assert (again.n, again.e) == (bundled.n, bundled.e)

    def test_tolerance_survives(self, bundled):
        assert parse_hypergroup(serialize_hypergroup(bundled)).tol == bundled.tol

    def test_awkward_floats_survive(self):
        h = theta_hypergroup(1 / 3)
        again = parse_hypergroup(serialize_hypergroup(h))
        np.testing.assert_array_equal(again.c, h.c)


# Directive-like lines.  n stays at most 6: parse allocates n^3 floats.
_tokens = st.one_of(st.integers(-2, 8).map(str),
                    st.floats().map(repr),
                    st.sampled_from(["x", "", "1.5", "1e3", "0x1"]))
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
