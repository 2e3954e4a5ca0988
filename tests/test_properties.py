"""Property-based checks of the algebra axioms and identity suites, and a
fuzzer of the CLI over mutated documents."""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperhaar import (
    FiniteHypergroup,
    Function,
    Measure,
    build_family,
    convolve_measures,
    core,
    involute_measure,
    normalized_approximant,
    pair,
    support_product,
    validate,
)
from hyperhaar.approx import ApproximantConfig, canonical_chain, symmetrize
from hyperhaar.checks import identity_suite
from hyperhaar.cli import main
from hyperhaar.fileio import (DuplicateEntry, ParseError, RangeError, parse_hypergroup,
                              serialize_hypergroup)
from hyperhaar.oracles import cyclic_hypergroup, product_hypergroup, theta_hypergroup

from conftest import BUNDLED

thetas = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
weights2 = st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False),
                    min_size=2, max_size=2)


@given(thetas)
@settings(max_examples=50, deadline=None)
def test_theta_family_always_validates(theta):
    assert validate(theta_hypergroup(theta), 1e-12).passed


@given(thetas, thetas, st.integers(min_value=2, max_value=5))
@settings(max_examples=30, deadline=None)
def test_product_family_validates(t1, t2, n):
    h = product_hypergroup(theta_hypergroup(t1),
                           product_hypergroup(theta_hypergroup(t2), cyclic_hypergroup(n)))
    assert validate(h, 1e-11).passed


@given(thetas, weights2, weights2)
@settings(max_examples=100, deadline=None)
def test_anti_homomorphism(theta, wa, wb):
    h = theta_hypergroup(theta)
    mu, nu = Measure(wa), Measure(wb)
    lhs = involute_measure(h, convolve_measures(h, mu, nu))
    rhs = convolve_measures(h, involute_measure(h, nu), involute_measure(h, mu))
    np.testing.assert_allclose(lhs.w, rhs.w, atol=1e-12)


@given(thetas, st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_identity_suite_on_random_theta(theta, seed):
    h = theta_hypergroup(theta)
    results = identity_suite(h, np.random.default_rng(seed), trials=20)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=40, deadline=None)
def test_support_composition_cyclic(n, data):
    h = cyclic_hypergroup(n)
    a = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))
    b = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))
    mu = Measure(Function.indicator(n, a).v, nonneg=True)
    nu = Measure(Function.indicator(n, b).v, nonneg=True)
    got = convolve_measures(h, mu, nu).support(1e-14)
    assert got == support_product(h, a, b)
    assert got == frozenset((x + y) % n for x in a for y in b)


@given(thetas, st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_normalization_kills_bump_scale(theta, k, seed):
    h = theta_hypergroup(theta)
    rng = np.random.default_rng(seed)
    g = symmetrize(h, Function(rng.uniform(0.1, 1.0, 2)))
    cfg = ApproximantConfig(Measure(np.ones(2), nonneg=True), Function.ones(2),
                            canonical_chain(h))
    base = normalized_approximant(h, cfg, g)
    scaled = normalized_approximant(h, cfg, Function(k * g.v))
    np.testing.assert_allclose(scaled.w, base.w, atol=1e-12)
    assert abs(pair(cfg.f0, base) - 1.0) < 1e-14


@st.composite
def sparse_tensors(draw):
    """A tensor with n <= 6 and about half its points 0: a drawn set of s-rows
    is emptied, one point may hold NaN, inf or -inf, and inv is any permutation,
    an involution or not."""
    n = draw(st.integers(min_value=1, max_value=6))
    values = st.one_of(st.just(0.0), st.floats(min_value=-1, max_value=1))
    c = np.array(draw(st.lists(values, min_size=n ** 3, max_size=n ** 3))).reshape((n,) * 3)
    c[sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1))))] = 0.0
    point = draw(st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * 3))
    c[point] = draw(st.sampled_from([c[point], np.nan, np.inf, -np.inf]))
    return FiniteHypergroup(n, 0, draw(st.permutations(range(n))), c), c


@given(sparse_tensors(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_contract_is_the_dense_sum(tensor, m, seed):
    h, c = tensor
    x = np.random.default_rng(seed).uniform(-1, 1, (m, h.n))
    for axis, sums in enumerate(("stu,s->tu", "stu,t->su", "stu,u->st")):
        stack = np.array([np.einsum(sums, c, row) for row in x])
        rows = np.array([core._contract(h, row, axis) for row in x])
        np.testing.assert_allclose(rows, stack, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(core._contract(h, x, axis), stack, rtol=1e-13, atol=1e-14)
        with mock.patch.object(core, "_BLOCK_FLOATS", h.n ** 3 - 1):  # past the budget
            assert core._contract(h, x, axis).tobytes() == rows.tobytes()


# The bundled documents (n <= 8) the fuzzer mutates, and what it writes into them.
_DOCUMENTS = {name: serialize_hypergroup(build_family(*spec)) for name, spec in BUNDLED.items()}
_VALUES = ["0.5", "2", "-1", "1e300", "1e-300", "1e-310", "0"]
_JUNK = ["junk", "c 0 0", "c 0 0 0 x", "n 3", "e", "inv", "c 9 9 9 1", "hypergroup v1"]
_COMMANDS = [("validate",), ("haar", "--method", "net"), ("haar", "--method", "jewett"),
             ("haar", "--method", "solve"), ("compare",), ("check-lemmas", "--trials", "5")]


@st.composite
def mutated_documents(draw):
    """A bundled document after one to three mutations: a c line dropped,
    duplicated, retargeted to another index or given another value; n, e or an
    inv entry changed to an index in 0..n; or a junk line appended. A new value
    is drawn three times as often as the others, since most of them refuse the
    document before any command reads its values."""
    lines = _DOCUMENTS[draw(st.sampled_from(sorted(_DOCUMENTS)))].splitlines()
    index = st.integers(min_value=0, max_value=int(lines[1].split()[1])).map(str)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        # the c lines with four fields; an appended junk line such as "c 0 0" is not one
        cs = [i for i, line in enumerate(lines) if line.startswith("c ") and len(line.split()) == 5]
        kinds = ["n", "e", "inv", "junk"] + (["drop", "dup", "retarget"] + ["value"] * 3
                                             if cs else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "junk":
            lines.append(draw(st.sampled_from(_JUNK)))
        elif kind in ("n", "e", "inv"):
            i = next(i for i, line in enumerate(lines) if line.split()[0] == kind)
            fields = lines[i].split()
            fields[draw(st.integers(min_value=1, max_value=len(fields) - 1))] = draw(index)
            lines[i] = " ".join(fields)
        else:
            i = draw(st.sampled_from(cs))
            fields = lines[i].split()
            if kind == "drop":
                del lines[i]
            elif kind == "dup":
                lines.insert(i, lines[i])
            elif kind == "retarget":
                fields[draw(st.integers(min_value=1, max_value=3))] = draw(index)
            else:
                fields[4] = draw(st.sampled_from(_VALUES))
            if kind in ("retarget", "value"):
                lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def _run(argv) -> tuple:
    """cli.main(argv) in process: its exit code, its refusal (the message of a
    SystemExit, which the interpreter writes to stderr and exits 1 on) or None,
    what it wrote to stderr itself, and the warnings it raised."""
    err, refusal = io.StringIO(), None
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if isinstance(code, str):
        code, refusal = 1, code
    return code, refusal, err.getvalue(), caught


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.hg"


@given(mutated_documents())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_mutated_documents_exit_cleanly(fuzz_path, doc):
    """Every command ends in exit 0, 1 or 2, with no other exception and no
    warning, and a refusal is one stderr line. parse_hypergroup returns or
    raises a ParseError that names a line, and every command refuses a
    document that parse refuses with that line. An entry refused at its 'c'
    line holds an index >= n (RangeError) or repeats an earlier 'c' line's
    (s, t, u) (DuplicateEntry)."""
    try:
        parse_hypergroup(doc)
        expected = None
    except ParseError as exc:
        assert str(exc).startswith(f"line {exc.line}: ")
        expected = f"hypergroup file {fuzz_path}: {exc}"
        lines = [line.split() for line in doc.splitlines()]
        if isinstance(exc, (RangeError, DuplicateEntry)) and lines[exc.line - 1][:1] == ["c"]:
            n = int(next(fields[1] for fields in lines if fields[:1] == ["n"]))
            stu = [int(i) for i in lines[exc.line - 1][1:4]]
            earlier = [[int(i) for i in fields[1:4]] for fields in lines[:exc.line - 1]
                       if fields[:1] == ["c"]]
            assert max(stu) >= n if isinstance(exc, RangeError) else stu in earlier, exc
    fuzz_path.write_text(doc)
    for command in _COMMANDS:
        code, refusal, err, caught = _run([command[0], str(fuzz_path), *command[1:]])
        assert code in (0, 1, 2), (command, code)
        assert not caught, (command, [str(w.message) for w in caught])
        if code != 2:  # argparse writes its usage before its one error line
            assert err == "" and "\n" not in (refusal or ""), (command, err, refusal)
        if expected:
            assert refusal == expected, (command, refusal)
