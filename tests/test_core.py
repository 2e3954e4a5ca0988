import dataclasses

import numpy as np
import pytest

from hyperhaar import (
    FiniteHypergroup,
    Function,
    checks,
    core,
    Measure,
    NoCover,
    convolve_function_measure,
    convolve_measure_function,
    convolve_measures,
    find_dominating_measure,
    involute_function,
    involute_measure,
    pair,
    support_product,
    build_family,
    validate,
)
from hyperhaar.core import (
    AXIOM_TOL,
    MAX_N,
    _RuleError,
    _associativity,
    _contract,
    _cover,
    _indicator_peaks,
    _nonzeros,
    translates,
)
from hyperhaar.fileio import parse_hypergroup
from hyperhaar.oracles import (
    conjugacy_class_hypergroup,
    invariance_residual,
    cosine_grid_hypergroup,
    cyclic_hypergroup,
    symmetric_group_table,
    theta_hypergroup,
)

from conftest import BUNDLED, dense, s3_table, traced_peak


def brute_force_class_product(i, j):
    """Expand the product of two S3 class averages over all element pairs."""
    table, elems, _ = s3_table()

    def cycle_type(p):
        # 0 = identity, 1 = transposition, 2 = three-cycle
        fixed = sum(1 for k in range(3) if p[k] == k)
        return {3: 0, 1: 1, 0: 2}[fixed]

    classes = [[k for k, p in enumerate(elems) if cycle_type(p) == c] for c in range(3)]
    out = np.zeros(3)
    for x in classes[i]:
        for y in classes[j]:
            out[cycle_type(elems[table[x, y]])] += 1.0
    return out / (len(classes[i]) * len(classes[j]))


class TestConvolveMeasures:
    def test_s3_transposition_class_squared(self):
        h = conjugacy_class_hypergroup(s3_table()[0])
        got = convolve_measures(h, Measure.dirac(3, 1), Measure.dirac(3, 1))
        expected = brute_force_class_product(1, 1)
        np.testing.assert_allclose(expected, [1 / 3, 0, 2 / 3], atol=1e-15)
        np.testing.assert_allclose(got.w, expected, atol=1e-15)

    def test_identity_is_unit(self, bundled):
        rng = np.random.default_rng(3)
        mu = Measure(rng.uniform(-1, 1, bundled.n))
        e = Measure.dirac(bundled.n, bundled.e)
        np.testing.assert_allclose(convolve_measures(bundled, e, mu).w, mu.w, atol=1e-15)
        np.testing.assert_allclose(convolve_measures(bundled, mu, e).w, mu.w, atol=1e-15)

    def test_theta_half_structure(self):
        h = theta_hypergroup(0.5)
        got = convolve_measures(h, Measure.dirac(2, 1), Measure.dirac(2, 1))
        np.testing.assert_allclose(got.w, [0.5, 0.5])

    def test_probability_preserved(self, bundled):
        rng = np.random.default_rng(4)
        mu = Measure(rng.dirichlet(np.ones(bundled.n)), nonneg=True)
        nu = Measure(rng.dirichlet(np.ones(bundled.n)), nonneg=True)
        out = convolve_measures(bundled, mu, nu)
        assert out.w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.w >= 0)

    def test_dimension_mismatch(self):
        h = theta_hypergroup(0.5)
        with pytest.raises(ValueError, match="dimension"):
            convolve_measures(h, Measure(np.ones(3)), Measure(np.ones(2)))


class TestInvolution:
    def test_theta_identity_involution(self):
        h = theta_hypergroup(0.3)
        mu = Measure([0.2, 0.8])
        np.testing.assert_array_equal(involute_measure(h, mu).w, mu.w)

    def test_z4_permutes_weights(self):
        h = cyclic_hypergroup(4)
        got = involute_measure(h, Measure([0.0, 1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(got.w, [0.0, 0.0, 0.0, 1.0])

    def test_identity_dirac_fixed(self, bundled):
        e = Measure.dirac(bundled.n, bundled.e)
        np.testing.assert_array_equal(involute_measure(bundled, e).w, e.w)

    def test_function_z4(self):
        h = cyclic_hypergroup(4)
        got = involute_function(h, Function([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(got.v, [1.0, 4.0, 3.0, 2.0])

    def test_function_involution_squares_to_identity(self, bundled):
        rng = np.random.default_rng(5)
        f = Function(rng.uniform(-1, 1, bundled.n))
        twice = involute_function(bundled, involute_function(bundled, f))
        np.testing.assert_array_equal(twice.v, f.v)

    def test_constant_function_fixed(self, bundled):
        ones = Function.ones(bundled.n)
        np.testing.assert_array_equal(involute_function(bundled, ones).v, ones.v)


class TestPair:
    def test_dirac_pairing_evaluates(self, bundled):
        rng = np.random.default_rng(6)
        f = Function(rng.uniform(-1, 1, bundled.n))
        for s in bundled.points():
            assert pair(f, Measure.dirac(bundled.n, s)) == pytest.approx(f.v[s])

    def test_ones_pairing_is_norm(self):
        mu = Measure([0.25, 0.75], nonneg=True)
        assert pair(Function.ones(2), mu) == pytest.approx(mu.norm)

    def test_dot_product(self):
        assert pair(Function([2.0, 4.0]), Measure([0.5, 0.5])) == pytest.approx(3.0)


class TestMeasureFunctionConvolution:
    def test_theta_half_translate(self):
        h = theta_hypergroup(0.5)
        got = convolve_measure_function(h, Measure.dirac(2, 1), Function([1.0, 0.0]))
        np.testing.assert_allclose(got.v, [0.0, 0.5])

    def test_identity_translate(self, bundled):
        rng = np.random.default_rng(7)
        f = Function(rng.uniform(-1, 1, bundled.n))
        e = Measure.dirac(bundled.n, bundled.e)
        np.testing.assert_allclose(convolve_measure_function(bundled, e, f).v, f.v, atol=1e-15)
        np.testing.assert_allclose(convolve_function_measure(bundled, f, e).v, f.v, atol=1e-15)

    def test_matches_defining_double_sum(self, bundled):
        rng = np.random.default_rng(8)
        mu = Measure(rng.uniform(-1, 1, bundled.n))
        f = Function(rng.uniform(-1, 1, bundled.n))
        n, c, inv = bundled.n, dense(bundled), bundled.inv
        left = np.zeros(n)
        right = np.zeros(n)
        for t in range(n):
            for s in range(n):
                for u in range(n):
                    left[t] += mu.w[s] * c[inv[s], t, u] * f.v[u]
                    right[t] += mu.w[s] * c[t, inv[s], u] * f.v[u]
        np.testing.assert_allclose(convolve_measure_function(bundled, mu, f).v, left, atol=1e-13)
        np.testing.assert_allclose(convolve_function_measure(bundled, f, mu).v, right, atol=1e-13)

    def test_theta_half_right_translate(self):
        h = theta_hypergroup(0.5)
        got = convolve_function_measure(h, Function([1.0, 0.0]), Measure.dirac(2, 1))
        np.testing.assert_allclose(got.v, [0.0, 0.5])

    def test_support_composition_of_translates(self, bundled):
        # exhaustive: S(mu*f) composes the supports of mu and f, in that order
        for a in bundled.points():
            for b in bundled.points():
                mu = Measure.dirac(bundled.n, a)
                f = Function.indicator(bundled.n, [b])
                got = convolve_measure_function(bundled, mu, f).support(1e-14)
                assert got == support_product(bundled, [a], [b])


class TestSupportProduct:
    def test_z3_translation(self):
        h = cyclic_hypergroup(3)
        assert support_product(h, [1], [2]) == frozenset({0})

    def test_theta_self_product(self):
        h = theta_hypergroup(0.5)
        assert support_product(h, [1], [1]) == frozenset({0, 1})

    def test_identity_neutral(self, bundled):
        full = frozenset(bundled.points())
        assert support_product(bundled, [bundled.e], full) == full

    def test_out_of_range(self):
        h = theta_hypergroup(0.5)
        with pytest.raises(ValueError, match="out of range"):
            support_product(h, [5], [0])

    def test_measure_convolution_support(self, bundled):
        rng = np.random.default_rng(9)
        mu = Measure(rng.uniform(0.1, 1, bundled.n) * (rng.random(bundled.n) < 0.5), nonneg=True)
        nu = Measure(rng.uniform(0.1, 1, bundled.n) * (rng.random(bundled.n) < 0.5), nonneg=True)
        got = convolve_measures(bundled, mu, nu).support(1e-14)
        assert got == support_product(bundled, mu.support(), nu.support())


class TestValidate:
    def test_theta_valid(self):
        report = validate(theta_hypergroup(0.3))
        assert report.passed

    def test_bundled_families_valid(self, bundled):
        assert validate(bundled, 1e-12).passed

    def test_theta_zero_fails_h6(self):
        report = validate(theta_hypergroup(0.0))
        assert not report.passed
        check = report.checks["H6"]
        assert not check.passed
        assert check.witness == (1, 1)

    @pytest.mark.parametrize("where,witness", [((1, 1, 0), (1, 1)), ((0, 1, 0), (0, 1))],
                             ids=["diagonal", "off-diagonal"])
    def test_nan_fails_h6_with_witness(self, where, witness):
        c = dense(theta_hypergroup(0.5))
        c[where] = np.nan
        check = validate(FiniteHypergroup(2, 0, [0, 1], c)).checks["H6"]
        assert not check.passed
        assert check.witness == witness
        assert np.isnan(check.worst)

    def test_perturbed_z4_fails_h1_and_associativity(self):
        h = cyclic_hypergroup(4)
        c = dense(h)
        c[1, 1, 2] = 0.9
        broken = FiniteHypergroup(4, 0, h.inv, c)
        report = validate(broken)
        assert not report.checks["H1"].passed
        assert report.checks["H1"].worst == pytest.approx(0.1)
        assert report.checks["H1"].witness == (1, 1)
        assert not report.checks["associativity"].passed

    def test_topological_axioms_reported_automatic(self):
        report = validate(theta_hypergroup(0.5))
        for name in ("H2", "H3", "H7"):
            assert report.checks[name].passed
            assert "automatic" in report.checks[name].note


def dense_deviation(c):
    """|((s*t)*r - s*(t*r))[v]| built as one n^4 array, the form validate streams."""
    return np.abs(np.einsum("stu,urv->strv", c, c) - np.einsum("tru,suv->strv", c, c))


def blas_associativity(c):
    """The worst of dense_deviation(c) and its first (s, t, r, v) in C order, from
    two dense matrix products per s: O(n^5) time in O(n^3) memory, where the n^4
    array would take 134 MB at n=64.  For a finite c whose products do not overflow."""
    n = c.shape[0]
    pairs, rows = c.reshape(n * n, n), c.reshape(n, n * n)
    worst, witness = -np.inf, None
    for s in range(n):
        dev = np.abs(c[s] @ rows - (pairs @ c[s]).reshape(n, n * n)).reshape(n, n, n)
        top = float(dev.max())
        if top > worst:  # ties keep the first in C order
            worst = top
            witness = (s, *(int(i) for i in np.unravel_index(np.argmax(dev), dev.shape)))
    return worst, witness


def rowwise_associativity(h):
    """_associativity one left factor s at a time, with one n^3 accumulator: the
    per-s loop the block shapes must reproduce bit for bit."""
    n, (s_, t_, u_, val) = h.n, h.entries
    if not np.isfinite(val).all():
        i = int(np.argmin(np.isfinite(val)))
        return np.nan, (int(s_[i]), int(t_[i]), int(u_[i]))
    first = np.searchsorted(s_, np.arange(n + 1))
    rv = t_ * n + u_
    by_u = np.argsort(u_, kind="stable")
    third = np.searchsorted(u_[by_u], np.arange(n + 1))
    tr, val_u = (s_ * n + t_)[by_u] * n, val[by_u]
    acc = np.zeros(n ** 3)
    worst, witness = -np.inf, None
    for s in range(n):
        b, u, x = (a[first[s]:first[s + 1]] for a in (t_, u_, val))
        k = first[u + 1] - first[u]
        j = core._ranges(first[u], k)
        left = np.repeat(b * n * n, k) + rv[j]
        np.add.at(acc, left, np.repeat(x, k) * val[j])
        k = third[b + 1] - third[b]
        j = core._ranges(third[b], k)
        right = tr[j] + np.repeat(u, k)
        keys = np.concatenate([left, right])
        lhs = acc[keys]
        acc[left] = 0.0
        np.add.at(acc, right, val_u[j] * np.repeat(x, k))
        dev = np.abs(lhs - acc[keys])
        acc[right] = 0.0
        top = dev.max(initial=0.0)
        if np.isnan(top):
            dev[np.isnan(dev)] = top = np.inf
        if top > worst:
            key = core._first_key(keys, dev, top)
            worst, witness = float(top), (s, *map(int, np.unravel_index(key, (n,) * 3)))
    return worst, witness


def assert_outcome(deva, tol, passed, worst, witness):
    """passed, worst and witness are what the dense deviation array deva gives."""
    top = float(deva.max())
    assert passed == (top <= tol)
    assert witness == (None if top <= tol else
                       tuple(int(i) for i in np.unravel_index(np.argmax(deva), deva.shape)))
    if np.isnan(top):
        assert np.isnan(worst)
    else:
        assert abs(worst - top) <= 1e-15 * max(1.0, top)


def group_algebra(table):
    """The hypergroup of a group table's elements: c[a, b, ab] = 1."""
    n = len(table)
    e = int(np.flatnonzero((table == np.arange(n)).all(axis=1))[0])
    a, b = np.divmod(np.arange(n * n), n)
    return FiniteHypergroup.from_entries(n, e, np.argmax(table == e, axis=1), a, b, table[a, b],
                                         np.ones(n * n))


def dihedral_table(k):
    """D_k's table on f k + i, the map z -> (-1)^f z + i of Z_k."""
    f, i = np.divmod(np.arange(2 * k), k)
    return (f[:, None] ^ f) * k + (i[:, None] + (-1) ** f[:, None] * i) % k


# valid hypergroups; the group algebras are the non-commutative ones
STREAM_BASES = {
    "Z4": lambda: cyclic_hypergroup(4),
    "Z7": lambda: cyclic_hypergroup(7),
    "Z12": lambda: cyclic_hypergroup(12),
    "cosine-6": lambda: cosine_grid_hypergroup(6),
    "theta-0.3": lambda: theta_hypergroup(0.3),
    "S4-classes": lambda: conjugacy_class_hypergroup(symmetric_group_table(4)),
    "S3-group": lambda: group_algebra(symmetric_group_table(3)),
    "D4-group": lambda: group_algebra(dihedral_table(4)),
}


# every cyclic, cosine-grid and product size up to 24, and the named families
SMALL_SPECS = ([("cyclic", str(n)) for n in range(1, 25)]
               + [("cosine-grid", str(n)) for n in range(2, 25)]
               + [("theta2", "0.5"), ("conj-class", "s3"), ("conj-class", "s4")]
               + [("product", f"cyclic:{a},cosine-grid:{b}")
                  for a in range(2, 13) for b in range(2, 13) if a * b <= 24])


class TestAssociativityStream:
    """validate's streamed associativity check reports what the dense one does."""

    def assert_matches_dense(self, h, tol=1e-9):
        got = validate(h, tol).checks["associativity"]
        assert_outcome(dense_deviation(dense(h)), tol, got.passed, got.worst, got.witness)
        return got

    @pytest.mark.parametrize("name", sorted(STREAM_BASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_scaled_entries(self, name, seed):
        h = STREAM_BASES[name]()
        rng = np.random.default_rng(seed)
        self.assert_matches_dense(h)
        c = dense(h) * rng.uniform(0.9, 1.1, (h.n,) * 3)
        self.assert_matches_dense(FiniteHypergroup(h.n, h.e, h.inv, c))

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda spec: ":".join(spec))
    @pytest.mark.parametrize("scaled", [False, True], ids=["exact", "scaled"])
    def test_small_documents(self, spec, scaled):
        h = build_family(*spec)
        c = dense(h)
        if scaled:  # the nonzeros scaled, as in test_scaled_entries
            c = c * np.random.default_rng(0).uniform(0.9, 1.1, c.shape)
        got = self.assert_matches_dense(FiniteHypergroup(h.n, h.e, h.inv, c))
        assert got.passed or scaled

    # On two points an additive perturbation leaves several deviations equal up
    # to rounding, so the summation order, not the tensor, would pick the witness.
    @pytest.mark.parametrize("name", sorted(set(STREAM_BASES) - {"theta-0.3"}))
    @pytest.mark.parametrize("seed", range(3))
    def test_filled_zeros(self, name, seed):
        h = STREAM_BASES[name]()
        rng = np.random.default_rng(seed)
        c = dense(h) + rng.uniform(0.0, 1e-3, (h.n,) * 3)
        self.assert_matches_dense(FiniteHypergroup(h.n, h.e, h.inv, c))

    @pytest.mark.parametrize("name", sorted(STREAM_BASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_dirichlet_row(self, name, seed):
        h = STREAM_BASES[name]()
        rng = np.random.default_rng(seed)
        c = dense(h)
        s, t = rng.integers(h.n, size=2)
        c[s, t] = rng.dirichlet(np.ones(h.n))
        self.assert_matches_dense(FiniteHypergroup(h.n, h.e, h.inv, c))

    def test_exact_tie_keeps_first_witness(self):
        h = cyclic_hypergroup(4)
        c = dense(h)
        c[1, 1] = [0.0, 0.0, 0.5, 0.5]
        deva = dense_deviation(c)
        tied = np.argwhere(deva == deva.max())
        assert len(np.unique(tied[:, 0])) > 1  # the tie spans several s
        got = self.assert_matches_dense(FiniteHypergroup(4, 0, h.inv, c))
        assert got.witness == tuple(tied[0])

    # A non-finite entry forms no products: nan at the first such entry (s, t, u)
    # in C order, at whatever tolerance, the largest finite one too; a later
    # one, at `also`, does not move it.
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("n,where,also", [(4, (0, 0, 0), (3, 3, 2)),
                                              (4, (2, 1, 3), (3, 3, 2)),
                                              (4, (3, 3, 1), (3, 3, 2)),
                                              (64, (3, 5, 7), (40, 2, 9))],
                             ids=["n4-first", "n4-middle", "n4-last", "n64"])
    def test_non_finite_fails_at_first_non_finite_entry(self, value, n, where, also):
        h = cyclic_hypergroup(n)
        c = dense(h)
        c[where] = c[also] = value
        report = validate(FiniteHypergroup(n, 0, h.inv, c), tol=np.finfo(float).max)
        got = report.checks["associativity"]
        assert not got.passed and np.isnan(got.worst)
        assert got.witness == where
        assert f"associativity: FAIL worst=nan witness={where}" in report.summary()

    @pytest.mark.parametrize("name", sorted(STREAM_BASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_overflow_is_inf_at_first_non_finite(self, name, seed):
        # entries of 1e200 overflow where two of them meet in a product and
        # nowhere else, so both paths and the dense form agree on where
        h = STREAM_BASES[name]()
        c = dense(h) * 10.0 ** np.random.default_rng(seed).choice([0, 200], size=(h.n,) * 3)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = np.unravel_index(np.argmax(~np.isfinite(dense_deviation(c))), c.shape + (h.n,))
        got = validate(FiniteHypergroup(h.n, h.e, h.inv, c)).checks["associativity"]
        assert got.worst == np.inf
        assert got.witness == tuple(int(i) for i in ref)

    @staticmethod
    def validate_peak(h):
        report, peak = traced_peak(validate, h, 1e-12)
        assert report.passed
        return peak

    def test_peak_memory_below_one_n4_array(self):
        h = cosine_grid_hypergroup(48)
        assert self.validate_peak(h) < h.n ** 4 * 8

    # the accumulator, one block's products and the entries' index arrays, which
    # weigh 2.3 n^3 floats at n=48 and 1.6 and 1.5 at n=96 and n=128
    @pytest.mark.parametrize("n", [48], ids=["cosine-grid-48"])
    def test_peak_memory_below_four_n3_arrays(self, n):
        h = cosine_grid_hypergroup(n)
        assert self.validate_peak(h) < 4 * h.n ** 3 * 8

    @pytest.mark.parametrize("n", [96, 128], ids=["cosine-grid-96", "cosine-grid-128"])
    def test_peak_memory_below_two_n3_arrays(self, n):
        h = cosine_grid_hypergroup(n)
        assert self.validate_peak(h) < 2 * h.n ** 3 * 8

    def test_peak_memory_bounded_by_the_block_budget(self):
        # cyclic 256's n^3 floats are 8 budgets: the accumulator holds ranges of
        # t, one budget, beside index arrays of O(nnz + n^2); the n^3
        # accumulator peaked at 137 MB
        h = cyclic_hypergroup(256)
        assert h.n ** 3 > core._BLOCK_FLOATS
        assert self.validate_peak(h) < 2 * 8 * core._BLOCK_FLOATS


GRID64 = {
    "cyclic-64": lambda: cyclic_hypergroup(64),
    "cosine-grid-64": lambda: cosine_grid_hypergroup(64),
    "product-c8-g8": lambda: build_family("product", "cyclic:8,cosine-grid:8"),
    "D32-group": lambda: group_algebra(dihedral_table(32)),
}


class TestSparseAssociativity:
    """The associativity check against dense BLAS products at n=64, and the
    nonzeros it reads."""

    @pytest.mark.parametrize("name", sorted(GRID64))
    @pytest.mark.parametrize("scaled", [False, True], ids=["exact", "scaled"])
    def test_matches_blas_path(self, name, scaled):
        h = GRID64[name]()
        c = dense(h)
        if scaled:  # the nonzeros scaled, so the tensor keeps its sparsity
            c = c * np.random.default_rng(0).uniform(0.9, 1.1, c.shape)
        got, blas = _associativity(dataclasses.replace(h, c=c)), blas_associativity(c)
        assert (got[0] <= 1e-9) == (blas[0] <= 1e-9) == (not scaled)
        assert abs(got[0] - blas[0]) <= 1e-15 * max(1.0, blas[0])
        assert got[1] == blas[1]

    @pytest.mark.parametrize("name", sorted(GRID64))
    def test_nonzeros_match_np_nonzero(self, name):
        c = dense(GRID64[name]())
        c[0, 1, 2], c[1, 2, 3], c[2, 3, 4], c[3, 4, 5] = -0.0, np.nan, -np.inf, 5e-324
        nz = np.nonzero(c)
        got = _nonzeros(c)
        for a, b in zip(got, (*nz, c[nz])):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert (1, 2, 3) in zip(*got[:3]) and (0, 1, 2) not in zip(*got[:3])


# The budgets that force each block shape of _associativity on n points; "budget"
# keeps the real ones, which merge 4 or more t-slabs a block at n <= 24.  The
# s-ranges take the two-sided path on a commutative c too.
BLOCK_SHAPES = {
    "budget": lambda n: {},
    "merged-slabs": lambda n: {"_CACHE_FLOATS": 3 * n ** 3},
    "one-slab": lambda n: {"_CACHE_FLOATS": 0},
    "s-ranges-of-1": lambda n: {"_BLOCK_FLOATS": n * n},
    "s-ranges-of-3": lambda n: {"_BLOCK_FLOATS": 3 * n * n},
}


def block_of(n, s, t):
    """The block that holds the pair (s, t) under core's budgets: whole t-slabs,
    or one t and a range of s."""
    if n ** 3 <= core._BLOCK_FLOATS:
        return t // max(1, core._CACHE_FLOATS // n ** 3), 0
    return t, s // max(1, core._BLOCK_FLOATS // n ** 2)


def block_shapes(monkeypatch, n):
    """Yield each name of BLOCK_SHAPES with core's budgets set to force it."""
    for shape, budgets in BLOCK_SHAPES.items():
        with monkeypatch.context() as m:
            for name, value in budgets(n).items():
                m.setattr(core, name, value)
            yield shape


@np.errstate(over="ignore", invalid="ignore")
def assert_rowwise_in_every_block_shape(monkeypatch, h):
    worst, witness = rowwise_associativity(h)
    for shape in block_shapes(monkeypatch, h.n):
        got = _associativity(h)
        assert got[1] == witness, shape
        assert got[0] == worst or np.isnan(got[0]) and np.isnan(worst), shape


class CountingNumpy:
    """numpy with its np.add.at calls counted, to stand in for core's np."""

    def __init__(self):
        self.add, self.calls = self, 0

    def at(self, *args):
        self.calls += 1
        np.add.at(*args)

    def __getattr__(self, name):
        return getattr(np, name)


def sides_formed(monkeypatch, h):
    """How many sides _associativity(h) sums into its accumulator: its np.add.at
    calls, on n <= 12, where the budgets make one block."""
    assert h.n <= 12
    counting = CountingNumpy()
    with monkeypatch.context() as m:
        m.setattr(core, "np", counting)
        _associativity(h)
    return counting.calls


def dirichlet_row(c, rng):
    c = c.copy()
    s, t = rng.integers(len(c), size=2)
    c[s, t] = rng.dirichlet(np.ones(len(c)))
    return c


def non_finite_entry(c, rng):
    c = c.copy()
    c[tuple(rng.integers(len(c), size=3))] = rng.choice([np.nan, np.inf, -np.inf])
    return c


# the perturbations of TestAssociativityStream, on STREAM_BASES
PERTURBATIONS = {
    "filled-zeros": lambda c, rng: c + rng.uniform(0.0, 1e-3, c.shape),
    "dirichlet-row": dirichlet_row,
    "non-finite": non_finite_entry,
    "overflow": lambda c, rng: c * 10.0 ** rng.choice([0, 200], size=c.shape),
}


class TestBlockShapes:
    """_associativity over blocks of middle indices t, in every shape the
    budgets give, has the worst and witness of the per-s loop, bit for bit."""

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda spec: ":".join(spec))
    @pytest.mark.parametrize("scaled", [False, True], ids=["exact", "scaled"])
    def test_small_documents(self, monkeypatch, spec, scaled):
        h = build_family(*spec)
        if scaled:  # the nonzeros scaled, as in TestAssociativityStream
            c = dense(h) * np.random.default_rng(0).uniform(0.9, 1.1, (h.n,) * 3)
            h = FiniteHypergroup(h.n, h.e, h.inv, c)
        assert_rowwise_in_every_block_shape(monkeypatch, h)

    @pytest.mark.parametrize("perturb", sorted(PERTURBATIONS))
    @pytest.mark.parametrize("name", sorted(STREAM_BASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_perturbed_tensors(self, monkeypatch, perturb, name, seed):
        h = STREAM_BASES[name]()
        c = PERTURBATIONS[perturb](dense(h), np.random.default_rng(seed))
        assert_rowwise_in_every_block_shape(monkeypatch, FiniteHypergroup(h.n, h.e, h.inv, c))

    def test_exact_tie_across_a_block_boundary(self, monkeypatch):
        # the tie of test_exact_tie_keeps_first_witness: s = 1, 2, 3, and t = 1,
        # 2, 3 within s = 1, so blocks of t split it
        h = cyclic_hypergroup(4)
        c = dense(h)
        c[1, 1] = [0.0, 0.0, 0.5, 0.5]
        deva = dense_deviation(c)
        tied = np.argwhere(deva == deva.max())
        h = FiniteHypergroup(4, 0, h.inv, c)
        for shape in block_shapes(monkeypatch, h.n):
            if shape != "budget":  # which puts all of Z4 in one block
                assert len({block_of(4, s, t) for s, t, _, _ in tied}) > 1, shape
            assert _associativity(h) == (0.5, tuple(tied[0]))

    @pytest.mark.parametrize("name", sorted(STREAM_BASES))
    def test_one_side_exactly_when_commutative(self, monkeypatch, name):
        h = STREAM_BASES[name]()
        c = dense(h)
        assert sides_formed(monkeypatch, h) == (1 if (c == c.transpose(1, 0, 2)).all() else 2)

    # c' == c is decided bitwise: one ulp on one mirrored entry takes the two-sided
    # path, whose deviations must still be the per-s loop's
    @pytest.mark.parametrize("name", sorted(set(STREAM_BASES) - {"S3-group", "D4-group"}))
    def test_one_ulp_off_commutative(self, monkeypatch, name):
        h = STREAM_BASES[name]()
        c = dense(h)
        s, t, u = next(p for p in zip(*h.entries[:3]) if p[0] != p[1])
        c[t, s, u] = np.nextafter(c[t, s, u], np.inf)
        h = FiniteHypergroup(h.n, h.e, h.inv, c)
        assert sides_formed(monkeypatch, h) == 2
        assert_rowwise_in_every_block_shape(monkeypatch, h)


def argmax_witness(arr):
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(arr)), arr.shape))


@np.errstate(over="ignore", invalid="ignore")
def dense_axioms(c, e, inv, tol):
    """H1, H4, H5 and H6 as (passed, worst, witness), from the one-liners over the
    dense tensor c and its n^3 temporaries that validate used before it read c's
    entries."""
    n = c.shape[0]
    out = {}
    neg = np.maximum(-c, 0.0)
    rowdev = np.abs(c.sum(axis=2) - 1.0)
    worst = max(float(neg.max()), float(rowdev.max()))
    witness = argmax_witness(neg) if neg.max() > rowdev.max() else argmax_witness(rowdev)
    out["H1"] = (worst <= tol, worst, None if worst <= tol else witness)
    eye = np.eye(n)
    dev4 = np.maximum(np.abs(c[e] - eye), np.abs(c[:, e, :] - eye))
    worst = float(dev4.max())
    out["H4"] = (worst <= tol, worst, None if worst <= tol else argmax_witness(dev4))
    dev5 = np.abs(c - c[np.ix_(inv, inv, inv)].transpose(1, 0, 2))
    worst = float(dev5.max())
    out["H5"] = (worst <= tol, worst, None if worst <= tol else argmax_witness(dev5))
    diag = c[np.arange(n), inv, e]
    off = c[:, inv, e].copy()
    np.fill_diagonal(off, 0.0)
    if not np.all(diag > tol):
        t = int(np.argmin(diag))
        out["H6"] = (False, float(diag[t]), (t, t))
    elif not np.all(off <= tol):
        out["H6"] = (False, float(off.max()), argmax_witness(off))
    else:
        out["H6"] = (True, 0.0, None)
    return out


class TestAxiomsThroughEntries:
    """H1-H6 read c's entries and report what the dense one-liners report:
    pass/fail, witness, and worst within 1e-15 relative."""

    @staticmethod
    def assert_matches_dense(h, tol=1e-9):
        report = validate(h, tol)
        ref = dense_axioms(dense(h), h.e, h.inv, tol)
        for name, (passed, worst, witness) in ref.items():
            got = report.checks[name]
            assert (got.passed, got.witness) == (passed, witness), name
            if np.isnan(worst):
                assert np.isnan(got.worst), name
            elif got.worst != worst:  # inf matches inf only here
                assert abs(got.worst - worst) <= 1e-15 * max(1.0, abs(worst)), name
        return report

    @staticmethod
    def dense(c, base):
        return FiniteHypergroup(base.n, base.e, base.inv, c)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda spec: ":".join(spec))
    def test_small_documents(self, spec):
        assert self.assert_matches_dense(build_family(*spec)).passed

    def test_bundled_families(self, bundled):
        self.assert_matches_dense(bundled, 1e-12)

    @pytest.mark.parametrize("name", sorted(STREAM_BASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_scaled_filled_and_dirichlet(self, name, seed):
        h = STREAM_BASES[name]()
        rng = np.random.default_rng(seed)
        c = dense(h)
        self.assert_matches_dense(self.dense(c * rng.uniform(0.9, 1.1, c.shape), h))
        self.assert_matches_dense(self.dense(c + rng.uniform(0.0, 1e-3, c.shape), h))
        row = c.copy()
        s, t = rng.integers(h.n, size=2)
        row[s, t] = rng.dirichlet(np.ones(h.n))
        self.assert_matches_dense(self.dense(row, h))
        signed = c * rng.choice([-1.0, 0.0, 1.0, 2.0], size=c.shape)
        self.assert_matches_dense(self.dense(signed, h))
        balanced = c.copy()  # mass moved within a row: H1 fails on its negative part alone
        a, b = rng.choice(h.n, size=2, replace=False)
        moved = rng.uniform(1.5, 2.0)
        balanced[s, t, a] -= moved
        balanced[s, t, b] += moved
        self.assert_matches_dense(self.dense(balanced, h))

    def test_negative_entry_outweighs_the_row_sums(self):
        c = dense(cyclic_hypergroup(4))
        c[1, 1] = [-0.5, 0.0, 1.0, 0.5]  # sums to 1
        check = self.assert_matches_dense(self.dense(c, cyclic_hypergroup(4))).checks["H1"]
        assert (check.worst, check.witness) == (0.5, (1, 1, 0))

    @pytest.mark.parametrize("name", sorted(STREAM_BASES))
    @pytest.mark.parametrize("seed", range(4))
    def test_permutation_that_is_not_an_involution(self, name, seed):
        base = STREAM_BASES[name]()
        inv = np.random.default_rng(seed).permutation(base.n)  # an involution only by chance
        h = FiniteHypergroup.from_entries(base.n, base.e, inv, *base.entries)
        self.assert_matches_dense(h)
        c = dense(h) * np.random.default_rng(seed).uniform(0.9, 1.1, (h.n,) * 3)
        self.assert_matches_dense(self.dense(c, h))

    def test_three_cycle_inv(self):
        h = FiniteHypergroup.from_entries(3, 0, [1, 2, 0], *cyclic_hypergroup(3).entries)
        assert not self.assert_matches_dense(h).checks["H5"].passed

    def test_h5_worst_at_a_zero_entry_with_a_nonzero_image(self):
        # on Z4, (1, 2, 0) is no entry and its image (inv 2, inv 1, inv 0) = (2, 3, 0)
        # is given 5, so both deviate by 5 and the zero entry comes first in C order
        c = dense(cyclic_hypergroup(4))
        c[2, 3, 0] = 5.0
        h = FiniteHypergroup(4, 0, [0, 3, 2, 1], c)
        check = self.assert_matches_dense(h).checks["H5"]
        assert (check.worst, check.witness) == (5.0, (1, 2, 0))
        assert (1, 2, 0) not in zip(*map(list, h.entries[:3]))

    # Non-finite entries anywhere, on the slabs of e too: the worst is nan (or
    # inf) and the witness the first nan in C order, as np.argmax gives it.
    @pytest.mark.parametrize("name", sorted(STREAM_BASES))
    @pytest.mark.parametrize("seed", range(4))
    def test_non_finite_entries(self, name, seed):
        base = STREAM_BASES[name]()
        rng = np.random.default_rng(seed)
        n = base.n
        for _ in range(25):
            c = dense(base)
            for _ in range(rng.integers(1, 4)):
                where = tuple(rng.integers(n, size=3))
                if rng.random() < 0.3:
                    where = (rng.choice([where[0], base.e]), base.e, where[2])
                c[where] = rng.choice([np.nan, np.inf, -np.inf])
                if rng.random() < 0.5:  # the image too, so inf meets inf in H5
                    s, t, u = where
                    c[base.inv[t], base.inv[s], base.inv[u]] = rng.choice([np.inf, -np.inf])
            self.assert_matches_dense(self.dense(c, base),
                                      tol=rng.choice([1e-9, np.finfo(float).max]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_document_without_entries(self, n):
        h = parse_hypergroup(f"hypergroup v1\nn {n}\ne 0\ninv {' '.join(map(str, range(n)))}\n")
        report = self.assert_matches_dense(h)
        lines = report.summary().splitlines()
        assert "H1 row-stochastic: FAIL worst=1.000e+00 witness=(0, 0)" in lines
        assert "H4 identity: FAIL worst=1.000e+00 witness=(0, 0)" in lines
        assert "H6: FAIL witness=(0, 0)" in lines


def dense_cyclic(n):
    """Z_n's tensor as cyclic_hypergroup wrote it before it built entries."""
    c = np.zeros((n, n, n))
    idx = np.arange(n)
    c[idx[:, None], idx[None, :], (idx[:, None] + idx[None, :]) % n] = 1.0
    return c


def dense_cosine_grid(m):
    """The cosine grid's tensor as cosine_grid_hypergroup wrote it before it built entries."""
    x, y = np.indices((m, m))
    c = np.zeros((m, m, m))
    c[x, y, np.abs(x - y)] += 0.5
    c[x, y, np.minimum(x + y, 2 * (m - 1) - x - y)] += 0.5
    return c


class TestEntries:
    """c is stored as its entries in C order, and nothing else: no dense form."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 64])
    def test_builders_write_the_dense_formulas_entries(self, n):
        for h, ref in ((cyclic_hypergroup(n), dense_cyclic(n)),
                       (cosine_grid_hypergroup(max(n, 2)), dense_cosine_grid(max(n, 2)))):
            for a, b in zip(h.entries, _nonzeros(ref)):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
            assert dense(h).tobytes() == ref.tobytes()

    def test_entries_of_a_dense_tensor_derived_once(self, bundled):
        # the constructor lists the input's nonzeros and keeps no dense form
        c = dense(bundled)
        h = FiniteHypergroup(bundled.n, bundled.e, bundled.inv, c)
        assert set(vars(h)) == {"n", "e", "inv", "entries"}
        assert h.entries is h.entries
        for a, b in zip(h.entries, _nonzeros(c)):
            np.testing.assert_array_equal(a, b)
        assert dense(h).tobytes() == c.tobytes()

    def test_repr_and_equality_read_no_dense_view(self):
        h = cosine_grid_hypergroup(96)
        assert repr(h) == f"FiniteHypergroup(n=96, e=0, nnz={h.entries[3].size})"
        assert h == h and h != cosine_grid_hypergroup(96)
        assert len({h, h}) == 1

    def test_repr_counts_nonzero_values(self):
        h = FiniteHypergroup.from_entries(2, 0, [0, 1], [0, 0, 1], [0, 1, 1], [0, 1, 0],
                                          [1.0, 0.0, 1.0])
        assert repr(h) == "FiniteHypergroup(n=2, e=0, nnz=2)"

    def test_from_entries_sorts_into_c_order(self):
        s, t, u, v = [2, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0], [1.0, -0.0, 2.0, 3.0]
        h = FiniteHypergroup.from_entries(3, 0, [0, 1, 2], s, t, u, v)
        np.testing.assert_array_equal(np.array(h.entries[:3]).T,
                                      [[0, 1, 0], [0, 1, 1], [1, 1, 0], [2, 0, 1]])
        assert np.array(h.entries[3]).tobytes() == np.array([3.0, -0.0, 2.0, 1.0]).tobytes()
        expected = np.zeros((3, 3, 3))
        expected[s, t, u] = v
        assert dense(h).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("entries,message", [
        (([0, 1, 0], [1, 1, 1], [0, 0, 0], [1.0, 1.0, 2.0]), "listed twice"),
        (([0], [3], [0], [1.0]), "indices must lie in 0..2"),
        (([0], [0], [-1], [1.0]), "indices must lie in 0..2"),
        (([0, 1], [0], [0], [1.0]), "as many values as indices"),
    ], ids=["repeated", "too-large", "negative", "lengths"])
    def test_from_entries_refuses(self, entries, message):
        with pytest.raises(ValueError, match=message):
            FiniteHypergroup.from_entries(3, 0, [0, 1, 2], *entries)

    @pytest.mark.parametrize("entries,where,repeat", [
        (([0, 1, 2, 0], [0, 3, 0, 4], [0, 0, 0, 0]), 1, False),
        (([0, 0, 0], [0, 0, 0], [0, 0, 5]), 2, False),
        (([2, 0, 1, 0, 2], [0] * 5, [0] * 5), 3, True),
        ((np.array([0, 2 ** 63], dtype=np.uint64), [0, 0], [0, 0]), 1, False),
        (([0, 0], [1, 0], [0, -10 ** 30]), 1, False),
    ], ids=["first-outside", "outside-after-repeat", "first-later-listing", "uint64", "huge"])
    def test_refusal_names_the_entry(self, entries, where, repeat):
        """The first entry outside 0..n-1 in the order given, else the later
        listing of the first repeat; a reader places the refusal by it."""
        with pytest.raises(_RuleError) as err:
            FiniteHypergroup.from_entries(3, 0, [0, 1, 2], *entries, np.ones(len(entries[0])))
        assert (err.value.where, err.value.repeat) == (where, repeat)
        assert type(err.value.where) is int

    def test_from_entries_keeps_the_consistency_checks(self):
        with pytest.raises(ValueError, match="^involution is not a permutation$"):
            FiniteHypergroup.from_entries(2, 0, [0, 0], [], [], [], [])
        with pytest.raises(ValueError, match="not below"):
            FiniteHypergroup.from_entries(MAX_N, 0, np.arange(MAX_N), [], [], [], [])


def slab_peaks(h):
    """_indicator_peaks as the loop over the slabs c[inv[s]] wrote them."""
    c = dense(h)
    best = c[h.inv[0]].copy()
    s = np.zeros((h.n, h.n), dtype=int)
    for i in range(1, h.n):
        slab = c[h.inv[i]]
        np.copyto(s, i, where=slab > best)
        np.maximum(best, slab, out=best)
    return s.T, best.T


def signed_tensor(seed, n=5):
    """A tensor with negative entries, some columns of translates all <= 0, and ties:
    not a hypergroup, but every reader of c is defined on it."""
    rng = np.random.default_rng(seed)
    c = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, n, n), p=[0.2, 0.1, 0.4, 0.2, 0.1])
    return FiniteHypergroup(n, 0, [0, 2, 1, 3, 4][:n], c)


class TestEntryReaders:
    """The readers of one vector, one column or one diagonal of c, which go through
    c's entries, against the dense one-liners they replaced."""

    def peaks_match(self, h):
        s, best = _indicator_peaks(h)
        s_ref, best_ref = slab_peaks(h)
        pos = best_ref > 0
        np.testing.assert_array_equal(best[pos], best_ref[pos])
        np.testing.assert_array_equal(s[pos], s_ref[pos])
        # a column with no positive entry is uncovered either way, and _cover skips it
        assert np.all(best[~pos] <= 0)
        return pos

    def test_indicator_peaks_bundled(self, bundled):
        self.peaks_match(bundled)

    @pytest.mark.parametrize("family,param", [("conj-class", "s4"), ("cosine-grid", "24"),
                                              ("product", "cyclic:3,theta2:0.3")])
    def test_indicator_peaks_families(self, family, param):
        self.peaks_match(build_family(family, param))

    @pytest.mark.parametrize("seed", range(6))
    def test_indicator_peaks_negative_entries(self, seed):
        pos = self.peaks_match(signed_tensor(seed))
        assert not pos.all()

    def test_cover_never_reads_peaks_of_nonpositive_columns(self):
        best = np.array([0.5, 0.0, -1.0])
        for s in (np.array([1, 0, 2]), np.array([1, 99, -99])):
            w, uncovered = _cover(s, best, np.ones((1, 3)))
            np.testing.assert_array_equal(w, [[0.0, 4.0, 0.0]])
            np.testing.assert_array_equal(uncovered, [[False, True, True]])

    @pytest.mark.parametrize("seed", range(6))
    def test_support_product_against_dense(self, bundled, seed):
        rng = np.random.default_rng(seed)
        for h in (bundled, signed_tensor(seed)):
            a = rng.choice(h.n, size=rng.integers(1, h.n + 1), replace=False).tolist()
            b = rng.choice(h.n, size=rng.integers(1, h.n + 1), replace=False).tolist()
            ref = frozenset(np.flatnonzero(dense(h)[np.ix_(a, b)].max(axis=(0, 1)) > 0).tolist())
            assert support_product(h, a, b) == ref

    @pytest.mark.parametrize("seed", range(6))
    def test_invariance_residual_against_dense(self, bundled, seed):
        rng = np.random.default_rng(seed)
        for h in (bundled, signed_tensor(seed)):
            w = rng.uniform(-1.0, 1.0, h.n)
            ref = float(np.abs((w @ dense(h))[h.inv] - w).max())
            got = invariance_residual(h, Measure(w))
            assert abs(got - ref) <= 1e-15 * max(1.0, ref)

    def test_single_vector_kernels_read_no_dense_view(self):
        # each reads c's entries and holds O(nnz + n^2) floats, no slab of c
        h = cosine_grid_hypergroup(96)
        rng = np.random.default_rng(7)
        mu, f = Measure(rng.uniform(-1, 1, h.n)), Function(rng.uniform(-1, 1, h.n))

        def run():
            convolve_measures(h, mu, mu)
            convolve_measure_function(h, mu, f)
            convolve_function_measure(h, f, mu)
            find_dominating_measure(h, Function.ones(h.n), Function.indicator(h.n, [1]))
            support_product(h, [1, 2], [3])
            invariance_residual(h, mu)
            _indicator_peaks(h)
            for axis in range(3):
                _contract(h, f.v, axis)

        assert traced_peak(run)[1] < 0.25 * 8 * h.n ** 3


class TestTolerancePolicy:
    def test_fields_are_points_identity_involution_tensor(self):
        assert [f.name for f in dataclasses.fields(FiniteHypergroup)] == ["n", "e", "inv", "entries"]

    @pytest.mark.parametrize("excess", [5e-10, 2e-9], ids=["within", "beyond"])
    def test_validate_defaults_to_the_axiom_tolerance(self, excess):
        h = theta_hypergroup(0.5)
        c = dense(h)
        c[1, 1, 0] += excess  # row (1, 1) now sums to 1 + excess
        h = FiniteHypergroup(2, 0, h.inv, c)
        assert validate(h).checks["H1"].passed == (excess <= AXIOM_TOL)
        assert not validate(h, excess / 2).checks["H1"].passed


class TestFields:
    def test_replace_keeps_the_entries(self):
        h = cyclic_hypergroup(4)
        moved = dataclasses.replace(h, e=2)
        assert (moved.n, moved.e) == (4, 2)
        np.testing.assert_array_equal(moved.inv, h.inv)
        for got, want in zip(moved.entries, h.entries):
            np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError, match="identity index 4 out of range for n=4"):
            dataclasses.replace(h, e=4)

    def test_asdict_holds_the_declared_fields(self):
        h = theta_hypergroup(0.5)
        d = dataclasses.asdict(h)
        assert list(d) == ["n", "e", "inv", "entries"]
        assert (d["n"], d["e"]) == (2, 0)
        np.testing.assert_array_equal(d["inv"], h.inv)
        for got, want in zip(d["entries"], h.entries):
            np.testing.assert_array_equal(got, want)

    def test_replace_with_c_lists_its_nonzeros(self):
        h = cyclic_hypergroup(3)
        c = np.zeros((3, 3, 3))
        c[0, 0, 0], c[2, 1, 0], c[1, 2, 2] = 1.0, -0.5, np.nan
        got = dataclasses.replace(h, c=c)
        for a, b in zip(got.entries, _nonzeros(c)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(dense(got), c)

    def test_neither_c_nor_entries_is_a_type_error(self):
        with pytest.raises(TypeError):
            FiniteHypergroup(2, 0, [0, 1])


def greedy_loop(k, f):
    """The greedy cover as a loop over S(f) in increasing t."""
    w = np.zeros(k.shape[0])
    for t in sorted(f.support()):
        s = int(np.argmax(k[:, t]))
        w[s] += (f.v[t] + 1.0) / k[s, t]
    return w


class TestFindDominatingMeasure:
    def test_constant_reference(self, bundled):
        rng = np.random.default_rng(10)
        f = Function(rng.uniform(0, 2, bundled.n))
        mu = find_dominating_measure(bundled, f, Function.ones(bundled.n))
        dominated = convolve_measure_function(bundled, mu, Function.ones(bundled.n))
        assert np.all(dominated.v[list(f.support())] > f.v[list(f.support())])

    def test_theta_indicator_certificate(self):
        h = theta_hypergroup(0.5)
        f = Function([0.0, 1.0])
        f0 = Function([1.0, 0.0])
        mu = find_dominating_measure(h, f, f0)
        dominated = convolve_measure_function(h, mu, f0)
        assert dominated.v[1] > f.v[1]
        assert mu.nonneg

    def test_zero_function(self):
        h = theta_hypergroup(0.5)
        mu = find_dominating_measure(h, Function([0.0, 0.0]), Function.ones(2))
        np.testing.assert_array_equal(mu.w, [0.0, 0.0])

    def test_equals_greedy_loop(self, bundled):
        # ones f0 gives tied columns on groups, so one s collects several points
        rng = np.random.default_rng(11)
        n = bundled.n
        for f0 in (Function.ones(n), Function(rng.uniform(0.1, 1.0, n))):
            k = translates(bundled, f0)
            for _ in range(5):
                f = Function(rng.uniform(0, 2, n) * (rng.random(n) < 0.7))
                np.testing.assert_array_equal(find_dominating_measure(bundled, f, f0).w,
                                              greedy_loop(k, f))

    def test_no_cover_raises(self):
        # reducible 2-point example: dirac_1 * dirac_1 = dirac_1 fails H6, and
        # translates of an f0 living on point 0 never reach point 1
        c = np.zeros((2, 2, 2))
        c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = c[1, 1, 1] = 1.0
        h = FiniteHypergroup(2, 0, [0, 1], c)
        with pytest.raises(NoCover):
            find_dominating_measure(h, Function([0.0, 1.0]), Function([1.0, 0.0]))


def three_cycle_tensor():
    """inv a permutation that is not an involution: FiniteHypergroup accepts it,
    and the kernels must read inv in the direction the formulas state."""
    c = np.random.default_rng(31).uniform(0.0, 1.0, (3, 3, 3))
    return FiniteHypergroup(3, 0, [1, 2, 0], c / c.sum(axis=2, keepdims=True))


KERNEL_CASES = {
    "product-Z3xcosine-4": lambda: build_family("product", "cyclic:3,cosine-grid:4"),
    "three-cycle-inv": three_cycle_tensor,
}


@pytest.fixture(params=sorted(BUNDLED) + sorted(KERNEL_CASES))
def kernel_case(request):
    if request.param in KERNEL_CASES:
        return KERNEL_CASES[request.param]()
    return build_family(*BUNDLED[request.param])


def tensor_with_empty_row():
    """Z4's entries without s-row 2: an s-row of c may hold no entry."""
    s, t, u, value = cyclic_hypergroup(4).entries
    keep = s != 2
    return FiniteHypergroup.from_entries(4, 0, [0, 3, 2, 1], s[keep], t[keep], u[keep], value[keep])


def tensor_with_non_finite_entries():
    c = dense(cyclic_hypergroup(5))
    c[0, 1, 1], c[2, 3, 0], c[4, 4, 3], c[4, 0, 2] = np.nan, np.inf, -np.inf, -0.0
    return FiniteHypergroup(5, 0, [0, 4, 3, 2, 1], c)


@pytest.mark.parametrize("make", [
    lambda: build_family("product", "cyclic:3,cosine-grid:4"), three_cycle_tensor,
    tensor_with_empty_row, tensor_with_non_finite_entries],
    ids=["product-Z3xcosine-4", "three-cycle-inv", "empty-s-row", "non-finite"])
def test_dense_path_is_one_product_with_c(monkeypatch, make):
    # while c fits the budget, each stacked contraction of the identity suite is
    # one BLAS product with the c scattered from the entries: byte for byte the
    # product with dense(h)
    h = make()
    assert h.n ** 3 <= core._BLOCK_FLOATS
    contract = suite_contraction(monkeypatch, h)
    x, c = np.random.default_rng(32).uniform(-1, 1, (5, h.n)), dense(h)
    assert contract(x, 2).tobytes() == (x @ c.reshape(-1, h.n).T).tobytes()
    assert contract(x, 0).tobytes() == (x @ c.reshape(h.n, -1)).tobytes()


def suite_contraction(monkeypatch, h):
    """The contraction contract(x, axis) that identity_suite hands _identity_sides."""
    given, sides = [], checks._identity_sides
    monkeypatch.setattr(checks, "_identity_sides",
                        lambda h, contract, *draws: sides(h, given.append(contract) or contract, *draws))
    with np.errstate(all="ignore"):
        checks.identity_suite(h, np.random.default_rng(0), 1)
    return given[0]


def deleted_kernels(h, x):
    """The bincounts of the per-axis kernels that _contract replaced, summed over
    c's entries in C order for one vector x: over s (the stack's row, and at
    x = 1 the solve's block sum before its transpose), over t (the convolutions
    with a measure) and over u (the contractions with a function)."""
    n, (s, t, u, value) = h.n, h.entries
    return (np.bincount(t * n + u, weights=value * x[s], minlength=n * n).reshape(n, n),
            np.bincount(s * n + u, weights=value * x[t], minlength=n * n).reshape(n, n),
            np.bincount(s * n + t, weights=value * x[u], minlength=n * n).reshape(n, n))


def assert_vector_is_the_deleted_kernels(h):
    n, (_, t, u, value) = h.n, h.entries
    for x in (*np.random.default_rng(33).uniform(-1, 1, (3, n)), np.ones(n)):
        for axis, ref in enumerate(deleted_kernels(h, x)):
            assert _contract(h, x, axis).tobytes() == ref.tobytes()
    # the solve's block sum, whose weights were value, not value * 1
    total = np.bincount(t * n + u, weights=value, minlength=n * n).reshape(n, n).T
    assert _contract(h, np.ones(n), 0).T.tobytes() == total.tobytes()


def test_vector_is_the_deleted_kernels(kernel_case):
    # each single-vector sum is the bincount it replaced, byte for byte
    assert_vector_is_the_deleted_kernels(kernel_case)


@pytest.mark.parametrize("make", [tensor_with_empty_row, tensor_with_non_finite_entries],
                         ids=["empty-s-row", "non-finite"])
def test_vector_of_empty_and_non_finite_rows_is_the_deleted_kernels(make):
    assert_vector_is_the_deleted_kernels(make())


class TestBatchedKernels:
    """The stacked and the single-vector contractions of c, sums over its
    entries, against the defining sums over the dense c."""

    def draws(self, h, rows=5):
        rng = np.random.default_rng(32)
        return rng.uniform(-1, 1, (rows, h.n)), rng.uniform(-1, 1, (rows, h.n))

    @staticmethod
    def assert_close(got, ref):
        assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))

    def test_stacked_equals_row_by_row(self, kernel_case):
        # the stacked contractions against the sums over c's entries of one vector
        h = kernel_case
        a, b = self.draws(h)
        self.assert_close(_contract(h, a, 2), np.array([_contract(h, x, 2) for x in a]))
        self.assert_close((b[:, None, :] @ _contract(h, a, 0))[:, 0, :], np.array(
            [convolve_measures(h, Measure(x), Measure(y)).w for x, y in zip(a, b)]))

    def assert_defining_sums(self, h):
        a, c = self.draws(h)[0], dense(h)
        for got, ref in ((_contract(h, a, 2), np.einsum("stu,ru->rst", c, a)),
                         (_contract(h, a, 0), np.einsum("rs,stu->rtu", a, c))):
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-14)

    def test_defining_sums(self, kernel_case):
        # the single-vector kernels sum mu_s c[inv[s], ...], not a gather of mu
        # with inv: the two differ exactly when inv is not an involution
        h = kernel_case
        self.assert_defining_sums(h)
        c = dense(h)
        for x, y in zip(*self.draws(h)):
            for got, ref in (
                    (convolve_measures(h, Measure(x), Measure(y)).w, np.einsum("s,t,stu->u", x, y, c)),
                    (convolve_measure_function(h, Measure(x), Function(y)).v,
                     np.einsum("s,stu,u->t", x, c[h.inv], y)),
                    (convolve_function_measure(h, Function(x), Measure(y)).v,
                     np.einsum("u,tsu,s->t", x, c[:, h.inv], y))):
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("make", [tensor_with_empty_row, tensor_with_non_finite_entries],
                             ids=["empty-s-row", "non-finite"])
    def test_defining_sums_of_empty_and_non_finite_rows(self, make):
        self.assert_defining_sums(make())

    def test_stack_within_the_budget_is_the_single_vector_sum(self, kernel_case):
        # within the budget too a row of a stack is the vector path's bincount,
        # bit for bit: _contract forms no dense c at any n
        h = kernel_case
        assert h.n ** 3 <= core._BLOCK_FLOATS
        a = self.draws(h)[0]
        for axis in (2, 1, 0):
            rows = np.array([_contract(h, x, axis) for x in a])
            assert _contract(h, a, axis).tobytes() == rows.tobytes()
