import gc
import os
import re
import subprocess
import sys
import warnings
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperhaar import (
    DegenerateNullspace,
    FiniteHypergroup,
    H6Violation,
    Measure,
    NegativeSolution,
    build_family,
    invariance_residual,
    jewett_haar,
    solve_invariance,
    validate,
)
from hyperhaar.core import AXIOM_TOL, _contract
from hyperhaar.oracles import (
    _RANK_CUT,
    _check_group_table,
    _doeblin_margin,
    _generators,
    conjugacy_class_hypergroup,
    cosine_grid_hypergroup,
    cyclic_hypergroup,
    product_hypergroup,
    symmetric_group_table,
    theta_hypergroup,
)

from conftest import BUNDLED, dense, s3_table, traced_peak


def identity_translations():
    """Broken table where every left translation is the identity map: the
    invariance operator vanishes and the nullspace has dimension 2."""
    c = np.zeros((2, 2, 2))
    c[:, 0, 0] = 1.0
    c[:, 1, 1] = 1.0
    return FiniteHypergroup(2, 0, [0, 1], c)


def swap_translations():
    """Broken table where points 1 and 2 both act by swapping 1 and 2: the
    operator is nonzero and its nullspace, x1 = x2, has dimension 2."""
    swap = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return FiniteHypergroup(3, 0, [0, 1, 2], np.stack([np.eye(3), swap, swap]))


def dense_operator(h):
    """The n^2 x n invariance operator: rows (s, u) of sum_t c[inv[s], t, u] x_t - x_u."""
    n = h.n
    return dense(h)[h.inv].transpose(0, 2, 1).reshape(n * n, n) - np.tile(np.eye(n), (n, 1))


def dense_invariance(h):
    """Reference solve on the materialized operator: its singular values, the
    nullity by the rank cut relative to the largest, and the stacked
    least-squares weights."""
    n = h.n
    a = dense_operator(h)
    sv = np.linalg.svd(a, compute_uv=False)
    nullity = n if sv[0] == 0.0 else int(np.sum(sv < _RANK_CUT * sv[0]))
    rhs = np.zeros(n * n + 1)
    rhs[-1] = 1.0
    x, *_ = np.linalg.lstsq(np.vstack([a, np.ones((1, n))]), rhs, rcond=None)
    return sv, nullity, x


class TestJewettHaar:
    def test_cyclic_uniform(self):
        for n in (1, 2, 7):
            np.testing.assert_array_equal(jewett_haar(cyclic_hypergroup(n)).w, np.ones(n))

    def test_theta_weights(self):
        for theta in (0.1, 0.5, 1.0):
            got = jewett_haar(theta_hypergroup(theta))
            np.testing.assert_allclose(got.w, [1.0, 1.0 / theta], rtol=1e-15)

    def test_s3_class_sizes(self):
        got = jewett_haar(conjugacy_class_hypergroup(s3_table()[0]))
        np.testing.assert_allclose(got.w, [1.0, 3.0, 2.0], atol=1e-12)

    def test_h6_violation(self):
        with pytest.raises(H6Violation):
            jewett_haar(theta_hypergroup(0.0))

    def test_nan_diagonal_refused(self):
        c = dense(theta_hypergroup(0.5))
        c[1, 1, 0] = np.nan
        message = "(dirac_1 * dirac_1)(e) = nan is not a number"
        with pytest.raises(H6Violation, match=f"^{re.escape(message)}$"):
            jewett_haar(FiniteHypergroup(2, 0, [0, 1], c))


class TestSolveInvariance:
    def test_theta_half(self):
        got = solve_invariance(theta_hypergroup(0.5))
        np.testing.assert_allclose(got.w, [1 / 3, 2 / 3], atol=1e-12)

    def test_z4_uniform(self):
        got = solve_invariance(cyclic_hypergroup(4))
        np.testing.assert_allclose(got.w, np.full(4, 0.25), atol=1e-12)

    def test_cosine_grid_5(self):
        got = solve_invariance(cosine_grid_hypergroup(5))
        np.testing.assert_allclose(got.w, np.array([1, 2, 2, 2, 1]) / 8, atol=1e-12)
        j = jewett_haar(cosine_grid_hypergroup(5))
        np.testing.assert_allclose(got.w, j.w / j.w.sum(), atol=1e-12)

    def test_mass_one(self, bundled):
        assert solve_invariance(bundled).w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_nullspace(self):
        # every translation is the identity map: A = 0, M = I and the margin is 0
        message = ("Doeblin margin 0.000e+00 is not above 2e-08*||A||_F = 0.000e+00, so the "
                   "invariance nullspace is not certified one-dimensional")
        with pytest.raises(DegenerateNullspace, match=f"^{re.escape(message)}$"):
            solve_invariance(identity_translations())

    def test_degenerate_nullspace_names_threshold_and_spectrum_head(self):
        # ||A||_F = sqrt 8 sets the bar; the margin named bounds sigma_1(S) / sqrt 3
        # from below, and S = 2 (swap - I) has sigma_0 = 4 and sigma_1 = sigma_2 = 0
        h = swap_translations()
        pattern = (r"^Doeblin margin (\S+) is not above 2e-08\*\|\|A\|\|_F = 5\.657e-08, so "
                   r"the invariance nullspace is not certified one-dimensional$")
        with pytest.raises(DegenerateNullspace, match=pattern) as info:
            solve_invariance(h)
        margin = float(re.match(pattern, str(info.value)).group(1))
        sv = np.linalg.svd(dense(h).sum(axis=0).T - 3 * np.eye(3), compute_uv=False)
        np.testing.assert_allclose(sv, [4.0, 0.0, 0.0], rtol=0, atol=1e-15)
        assert margin <= sv[1] / np.sqrt(3)

    def test_negative_solution(self):
        # c[1] has rows of mass 1 and the Doeblin margin 0.05; its one fixed vector
        # of mass 1 is (3, -2)
        with pytest.raises(NegativeSolution,
                           match=r"^weight 1 is -2, below -tol \(tol = 1e-09\)$"):
            solve_invariance(two_point([[1.2, -0.2], [0.3, 0.7]]))
        # c[1] is not row-stochastic: the operator's only nonzero row is
        # 0.5 x0 + x1 = 0, so the mass-one solution is (2, -1), but the margin
        # is 0 and the input is refused before any solve
        with pytest.raises(DegenerateNullspace, match=r"^Doeblin margin 0\.000e\+00 is not above"):
            solve_invariance(two_point([[1.5, 0.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("excess", [5e-10, 2e-9], ids=["clamped", "refused"])
    def test_clamp_at_axiom_tolerance(self, excess):
        # c[1] = [[1 + p, -p], [1, 0]] has rows of mass 1 and the margin (1 - p) / 2;
        # it fixes (1, -p) / (1 - p), whose second weight is clamped to 0 within
        # AXIOM_TOL and refused beyond it
        h = two_point([[1.0 + excess, -excess], [1.0, 0.0]])
        if excess < AXIOM_TOL:
            np.testing.assert_allclose(solve_invariance(h).w, [1.0 / (1.0 - excess), 0.0],
                                       rtol=1e-12)
        else:
            with pytest.raises(NegativeSolution,
                               match=r"^weight 1 is -2e-09, below -tol \(tol = 1e-09\)$"):
                solve_invariance(h)

    def test_infinite_tensor_refused_before_any_svd(self):
        # Z3 with c[0, 0, 0] = c[0, 1, 1] = inf: a factorization of its infinite block
        # sum need not return, so the solve runs in a fresh interpreter with a timeout
        code = ("import numpy as np\n"
                "from hyperhaar import DegenerateNullspace, FiniteHypergroup, solve_invariance\n"
                "from hyperhaar.oracles import cyclic_hypergroup\n"
                "h = cyclic_hypergroup(3)\n"
                "s, t, u, v = h.entries\n"
                "v = v.copy()\n"
                "v[:2] = np.inf\n"
                "try:\n"
                "    solve_invariance(FiniteHypergroup.from_entries(3, 0, h.inv, s, t, u, v))\n"
                "except DegenerateNullspace as exc:\n"
                "    print(exc)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ("the invariance operator overflows: ||A||_F is not finite, "
                               "so its nullspace cannot be decided\n")

    def test_null_vector_without_mass_refused(self):
        # c[1].T - I = [[1, 1], [1, 1]]: the only null vector is (1, -1), of mass 0,
        # so no mass-one solution exists (the stacked least squares gives (1/6, 1/6));
        # the rows of c[1] have mass 3, and the margin 0 refuses it
        with pytest.raises(DegenerateNullspace, match=r"^Doeblin margin 0\.000e\+00 is not above"):
            solve_invariance(two_point([[2.0, 1.0], [1.0, 2.0]]))


class TestStreamedSolve:
    def check_against_dense(self, h):
        _, nullity, x = dense_invariance(h)
        if nullity != 1:
            with pytest.raises(DegenerateNullspace):
                solve_invariance(h)
            return
        np.testing.assert_allclose(solve_invariance(h).w, np.maximum(x, 0.0), rtol=0, atol=1e-12)

    def test_bundled(self, bundled):
        self.check_against_dense(bundled)

    @pytest.mark.parametrize("family,param", [
        ("cyclic", "12"),
        ("cosine-grid", "16"),
        ("product", "cyclic:3,cosine-grid:4"),
    ])
    def test_larger_families(self, family, param):
        self.check_against_dense(build_family(family, param))

    @pytest.mark.parametrize("make", [identity_translations, swap_translations])
    def test_degenerate_inputs(self, make):
        h = make()
        assert dense_invariance(h)[1] == 2
        self.check_against_dense(h)

    def test_peak_memory_below_one_n3_array(self):
        # the dense operator alone is one n^3 float64 array
        h = cosine_grid_hypergroup(48)
        _, peak = traced_peak(solve_invariance, h)
        assert peak < h.n ** 3 * 8

    def test_peak_memory_below_eight_n2_floats(self):
        h = cosine_grid_hypergroup(48)
        _, peak = traced_peak(solve_invariance, h)
        assert peak < 8 * h.n ** 2 * 8


def dense_solve_invariance(h):
    """solve_invariance as it ran on the dense tensor, kept as a reference: S
    from c.sum(axis=0), A B from one matmul of B with c, ||A||_F from vdot."""
    n, c = h.n, dense(h)
    frobenius = np.sqrt(max(np.vdot(c, c) - 2.0 * np.einsum("stt->", c) + n * n, 0.0))
    s = c.sum(axis=0).T
    s[np.diag_indices(n)] -= n
    _, sv_s, vt = np.linalg.svd(s)
    k = max(1, int(np.sum(sv_s <= np.sqrt(n) * _RANK_CUT * frobenius)))
    b = vt[n - k:]
    ab = np.matmul(b, c)
    ab -= b
    u, sv, _ = np.linalg.svd(ab.swapaxes(0, 1).reshape(k, n * n), full_matrices=False)
    threshold = _RANK_CUT * max(sv_s[0] / np.sqrt(n), sv[0], frobenius / np.sqrt(n))
    nullity = int(np.sum(sv <= threshold))
    if nullity != 1:
        smallest = ", ".join(f"{v:.3e}" for v in sv[::-1][:3])
        raise DegenerateNullspace(
            f"invariance nullspace has dimension {nullity}, expected 1 "
            f"(threshold {_RANK_CUT:g}*sigma_hat = {threshold:.3e}; "
            f"smallest singular values of the reduced operator {smallest})")
    x = b.T @ u[:, -1]
    x /= x.sum()
    worst = int(np.argmin(x))
    if x[worst] < -AXIOM_TOL:
        raise NegativeSolution(
            f"weight {worst} is {x[worst]:.6g}, below -tol (tol = {AXIOM_TOL:g})")
    return Measure(np.maximum(x, 0.0), nonneg=True)


def two_point(c1):
    """The two-point tensor with c[0] = I and c[1] = c1: TestSolveInvariance's
    negative and clamped cases."""
    return FiniteHypergroup(2, 0, [0, 1], np.stack([np.eye(2), c1]))


def block_sum_zero():
    """[I, Q, 2I - Q] with Q row-stochastic: it sums to 3I, so S = 0 and every
    direction reaches the reduced operator."""
    q = np.random.default_rng(5).uniform(0.1, 1.0, (3, 3))
    q /= q.sum(axis=1, keepdims=True)
    return FiniteHypergroup(3, 0, [0, 1, 2], np.stack([np.eye(3), q, 2 * np.eye(3) - q]))


def doubly_stochastic_sum(seed):
    """[I, P, Q, 3I - P - Q] with P, Q doubly stochastic: S is 0 up to rounding."""
    perms = np.eye(4)[list(permutations(range(4)))]
    rng = np.random.default_rng(seed)
    p, q = (np.einsum("k,kij->ij", rng.dirichlet(np.ones(24)), perms) for _ in range(2))
    return FiniteHypergroup(4, 0, [0, 1, 2, 3], np.stack([np.eye(4), p, q, 3 * np.eye(4) - p - q]))


def no_fixed_vector():
    """Two row-stochastic translations that share no fixed vector: the Doeblin
    margin is 0.7, so S's nullity is certified, and A still has no null vector."""
    return FiniteHypergroup(2, 0, [0, 1], np.array([[[0.9, 0.1], [0.1, 0.9]],
                                                    [[0.2, 0.8], [0.4, 0.6]]]))


def stochastic(n, seed):
    """A nonnegative tensor with rows of mass 1, sparse for small Dirichlet weights."""
    return np.random.default_rng(seed).dirichlet(np.full(n, 0.3), size=(n, n))


def perturbed(name, log_eps, seed):
    """A bundled tensor with every entry moved by up to 10**log_eps either way."""
    c = dense(build_family(*BUNDLED[name]))
    return c + 10.0 ** log_eps * np.random.default_rng(seed).uniform(-1.0, 1.0, c.shape)


def signed(n, seed):
    """A tensor with negative entries; its rows keep mass 1 for every other seed."""
    rng = np.random.default_rng(seed)
    c = stochastic(n, seed) + rng.uniform(-1.0, 1.0, (n, n, n))
    return c - (c.sum(axis=2, keepdims=True) - 1.0) / n if seed % 2 else c


seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
sizes = st.integers(min_value=2, max_value=6)


class TestEntrySolve:
    """The solve over c's entries against the dense route it replaced, one way:
    where the solve answers, the reference gives the same weights up to
    rounding, and where the reference refuses, so does the solve. The solve
    also refuses tensors that are not hypergroups and that the reference
    answers."""

    @staticmethod
    def check(h):
        """solve_invariance's weights, or None where it refuses, checked against
        dense_solve_invariance."""
        try:
            want = dense_solve_invariance(h).w
        except (DegenerateNullspace, NegativeSolution):
            want = None
        try:
            got = solve_invariance(h).w
        except (DegenerateNullspace, NegativeSolution):
            return None
        assert want is not None
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        return got

    def test_bundled(self, bundled):
        assert self.check(bundled) is not None

    @pytest.mark.parametrize("family,param", [
        ("cyclic", "12"), ("cosine-grid", "16"), ("conj-class", "s4"),
        ("product", "cyclic:3,cosine-grid:4"), ("cyclic", "64"), ("cosine-grid", "64"),
    ])
    def test_larger_families(self, family, param):
        assert self.check(build_family(family, param)) is not None

    @pytest.mark.parametrize("make,refusal", [
        (identity_translations, "Doeblin margin"),
        (swap_translations, "Doeblin margin"),
        (lambda: two_point([[1.5, 0.0], [1.0, 1.0]]), "Doeblin margin"),
        (lambda: two_point([[1.0 + 5e-10, 0.0], [1.0, 1.0]]), "Doeblin margin"),
        (lambda: two_point([[1.0 + 2e-9, 0.0], [1.0, 1.0]]), "Doeblin margin"),
        (lambda: two_point([[2.0, 1.0], [1.0, 2.0]]), "Doeblin margin"),
        (no_fixed_vector, "invariance residual"),
        (lambda: two_point([[1.2, -0.2], [0.3, 0.7]]), "weight 1 is -2,"),
    ], ids=["identity", "swap", "negative", "clamped", "refused", "massless", "no-fixed-vector",
            "certified-negative"])
    def test_degenerate_and_negative(self, make, refusal):
        # the first six have the Doeblin margin 0; the reference answers "clamped"
        h = make()
        assert self.check(h) is None
        with pytest.raises((DegenerateNullspace, NegativeSolution), match=f"^{refusal}"):
            solve_invariance(h)

    def test_block_sum_rounding_noise(self):
        # the reference answers; M = I up to rounding, so the margin refuses
        for seed in range(40):
            h = doubly_stochastic_sum(seed)
            assert self.check(h) is None
            with pytest.raises(DegenerateNullspace, match="^Doeblin margin"):
                solve_invariance(h)

    @pytest.mark.parametrize("eps", [1e-12, 1e-6])
    def test_perturbed(self, eps):
        # noise of 1e-6 leaves entries of -1e-6 and no common fixed vector: the
        # reference answers, and the residual refuses
        base = build_family("conj-class", "s3")
        for seed in range(10):
            noise = np.random.default_rng(seed).standard_normal((base.n,) * 3)
            h = FiniteHypergroup(base.n, base.e, base.inv, dense(base) + eps * noise)
            got = self.check(h)
            if eps < AXIOM_TOL:
                assert got is not None
                continue
            assert got is None
            with pytest.raises(DegenerateNullspace, match="^invariance residual"):
                solve_invariance(h)

    @given(st.sampled_from(sorted(BUNDLED)), st.floats(min_value=-16.0, max_value=-10.0), seeds)
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_validated_tensors_answer(self, name, log_eps, seed):
        # every entry moved by up to 1e-10, zeros included: a tensor validate
        # accepts is certified, and its weights are the bundled family's up to
        # the perturbation
        base = build_family(*BUNDLED[name])
        h = FiniteHypergroup(base.n, base.e, base.inv, perturbed(name, log_eps, seed))
        assume(validate(h).passed)
        got = solve_invariance(h).w
        np.testing.assert_allclose(got, solve_invariance(base).w, rtol=0, atol=1e-8)


class TestBlockSumReduction:
    """The solve reduces A through its block sum S = sum_s (c[s].T - I); these
    inputs are the ones where S alone says little."""

    def test_block_sum_zero(self):
        # A x = 0 says Q^T x = x, one stationary vector; but 2I - Q is signed, M = I,
        # and the margin 0 refuses the tensor
        h = block_sum_zero()
        assert np.array_equal(dense(h).sum(axis=0), 3 * np.eye(3))
        assert dense_invariance(h)[1] == 1
        with pytest.raises(DegenerateNullspace, match="^Doeblin margin 0.000e"):
            solve_invariance(h)

    def test_block_sum_rounding_noise(self):
        # S is 0 up to rounding, and the margin refuses every seed
        noisy = 0
        for seed in range(40):
            h = doubly_stochastic_sum(seed)
            noisy += not np.array_equal(dense(h).sum(axis=0), 4 * np.eye(4))
            assert dense_invariance(h)[1] == 1
            with pytest.raises(DegenerateNullspace, match="^Doeblin margin"):
                solve_invariance(h)
        assert noisy > 0

    @pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-6, 1e-3])
    @pytest.mark.parametrize("name", ["Z4", "S3-classes"])
    def test_perturbed_matches_dense(self, name, eps):
        base = build_family(*BUNDLED[name])
        for seed in range(10):
            noise = np.random.default_rng(seed).standard_normal((base.n,) * 3)
            h = FiniteHypergroup(base.n, base.e, base.inv, dense(base) + eps * noise)
            sv, nullity, x = dense_invariance(h)
            if nullity != 1:
                with pytest.raises(DegenerateNullspace, match="^invariance residual"):
                    solve_invariance(h)
                continue
            got = solve_invariance(h).w
            # A has no exact null vector here: the solve returns S's, the
            # reference A's least-squares one; by the residual over the gap their
            # angle is at most theta, which moves mass-one weights by at most
            # (1 + sqrt n) theta |x|_2 to first order
            theta = np.linalg.norm(dense_operator(h) @ got) / np.linalg.norm(got) / sv[-2]
            bound = 1e-12 + 2 * (1 + np.sqrt(h.n)) * theta * np.linalg.norm(x)
            assert np.abs(got - x).max() <= bound


def svd_calls(monkeypatch):
    """The shapes of the matrices np.linalg.svd is called on from here on."""
    calls, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


class TestCertifiedSolve:
    """The Doeblin margin proves the block sum's numerical nullity at most 1,
    and one bordered LU solve finds its null vector; every other input is
    refused, and no path computes an SVD."""

    @given(st.one_of(st.builds(stochastic, sizes, seeds),
                     st.builds(perturbed, st.sampled_from(sorted(BUNDLED)),
                               st.floats(min_value=-12.0, max_value=-3.0), seeds),
                     st.builds(signed, sizes, seeds)))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_margin_bounds_second_smallest_singular_value(self, c):
        n = len(c)
        total = c.sum(axis=0).T
        sv = np.linalg.svd(total - n * np.eye(n), compute_uv=False)
        assert np.sqrt(n) * _doeblin_margin(total) <= sv[n - 2] + 1e-12 * (1.0 + sv[0])

    def test_bundled_takes_certified_path(self, bundled, monkeypatch):
        calls = svd_calls(monkeypatch)
        solve_invariance(bundled)
        assert calls == []

    @pytest.mark.parametrize("family", ["cyclic", "cosine-grid"])
    def test_256_takes_certified_path(self, family, monkeypatch):
        h = build_family(family, "256")
        calls = svd_calls(monkeypatch)
        got = solve_invariance(h).w
        assert calls == []
        want = jewett_haar(h).w
        np.testing.assert_allclose(got, want / want.sum(), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("make", [
        identity_translations, swap_translations,
        lambda: two_point([[1.5, 0.0], [1.0, 1.0]]),
        lambda: two_point([[1.0 + 5e-10, 0.0], [1.0, 1.0]]),
        block_sum_zero,
        lambda: doubly_stochastic_sum(0),
    ], ids=["identity", "swap", "negative", "clamped", "block-sum-zero", "block-sum-noise"])
    def test_uncertified_inputs_take_svd_path(self, make, monkeypatch):
        # there is no SVD path: the margin refuses these inputs without one
        h = make()
        assert _doeblin_margin(_contract(h, np.ones(h.n), 0).T) < 1e-12
        calls = svd_calls(monkeypatch)
        with pytest.raises(DegenerateNullspace, match="^Doeblin margin .* is not above 2e-08"):
            solve_invariance(h)
        assert calls == []

    @pytest.mark.parametrize("make,margin,error,message", [
        (no_fixed_vector, 0.7, DegenerateNullspace,
         "invariance residual ||A x||/||x|| = 7.770e-02 is above 1e-08*||A||_F/sqrt(n) = "
         "9.055e-09: the translations share no fixed vector"),
        # c[1] fixes (3, -2) / 1, of mass 1; M = [[1.1, -0.1], [0.15, 0.85]]
        (lambda: two_point([[1.2, -0.2], [0.3, 0.7]]), 0.05, NegativeSolution,
         "weight 1 is -2, below -tol (tol = 1e-09)"),
    ], ids=["no-fixed-vector", "negative"])
    def test_certified_but_refused(self, make, margin, error, message, monkeypatch):
        # the margin certifies S, and the bordered solve's null vector is refused;
        # the reference refuses with the same class
        h = make()
        assert _doeblin_margin(_contract(h, np.ones(h.n), 0).T) == pytest.approx(margin, abs=1e-15)
        with pytest.raises(error):
            dense_solve_invariance(h)
        calls = svd_calls(monkeypatch)
        with pytest.raises(error) as got:
            solve_invariance(h)
        assert str(got.value) == message
        assert calls == []

    def test_singular_bordered_system_refused(self, monkeypatch):
        # an exactly zero LU pivot, which np.linalg.solve reports, is refused in one line
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        message = ("the bordered invariance system [[S, 1], [1^T, 0]] is singular, so no "
                   "null vector of mass 1 is found")
        with pytest.raises(DegenerateNullspace, match=f"^{re.escape(message)}$"):
            solve_invariance(theta_hypergroup(0.5))


class TestInvarianceResidual:
    def test_oracle_self_consistency(self, bundled):
        assert invariance_residual(bundled, jewett_haar(bundled)) < 1e-12

    def test_z4_dirac_maximally_off(self):
        h = cyclic_hypergroup(4)
        assert invariance_residual(h, Measure([1.0, 0.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_zero_measure_degenerate(self, bundled):
        assert invariance_residual(bundled, Measure(np.zeros(bundled.n))) == 0.0

    def check_against_operator(self, h):
        a = dense_operator(h)
        rng = np.random.default_rng(21)
        for _ in range(3):
            w = rng.uniform(0.0, 1.0, h.n)
            ref = float(np.abs(a @ w).max())
            assert ref > 0  # not invariant
            assert abs(invariance_residual(h, Measure(w)) - ref) <= 1e-15 * max(1.0, ref)

    def test_matches_operator_bundled(self, bundled):
        self.check_against_operator(bundled)

    def test_matches_operator_product(self):
        self.check_against_operator(build_family("product", "cyclic:3,cosine-grid:4"))


class TestBuildFamily:
    def test_theta_one_is_z2(self):
        h = build_family("theta2", "1")
        z2 = cyclic_hypergroup(2)
        np.testing.assert_allclose(dense(h), dense(z2), atol=1e-15)

    def test_s3_class_products(self):
        h = build_family("conj-class", "s3")
        assert h.n == 3
        np.testing.assert_allclose(dense(h)[1, 1], [1 / 3, 0, 2 / 3], atol=1e-15)
        np.testing.assert_allclose(dense(h)[1, 2], [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(dense(h)[2, 2], [1 / 2, 0, 1 / 2], atol=1e-15)

    def test_cosine_grid_3(self):
        h = build_family("cosine-grid", "3")
        np.testing.assert_allclose(dense(h)[1, 1], [0.5, 0.0, 0.5])
        np.testing.assert_allclose(dense(h)[2, 2], [1.0, 0.0, 0.0])
        assert validate(h, 1e-12).passed

    def test_product_haar(self):
        h = build_family("product", "cyclic:2,theta2:0.5")
        got = solve_invariance(h)
        np.testing.assert_allclose(got.w, np.array([1, 2, 1, 2]) / 6, atol=1e-12)

    def test_all_bundled_validate_tightly(self, bundled):
        assert validate(bundled, 1e-12).passed

    def test_bad_group_table(self):
        with pytest.raises(ValueError, match="associative|identity|inverse"):
            conjugacy_class_hypergroup(np.zeros((3, 3), dtype=int))

    def test_table_file_is_closed(self, tmp_path):
        table = s3_table()[0]
        path = tmp_path / "s3.txt"
        path.write_text("# S3\n" + "\n".join(" ".join(map(str, row)) for row in table) + "\n")
        # an unclosed file warns from its finalizer, where an "error" filter cannot raise
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            h = build_family("conj-class", str(path))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert_same_hypergroup(h, build_family("conj-class", "s3"))

    def test_parameter_out_of_range(self):
        with pytest.raises(ValueError):
            build_family("theta2", "0")
        with pytest.raises(ValueError):
            build_family("cosine-grid", "1")

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="^unknown family 'nope'$"):
            build_family("nope", "1")


def dihedral_table(k):
    """D_k of order 2k: element r + k f is rotation r, then reflection if f = 1."""
    a = np.arange(2 * k)
    r, f = a % k, a // k
    rot = (r[:, None] + np.where(f[:, None] == 0, 1, -1) * r[None, :]) % k
    return rot + k * (f[:, None] ^ f[None, :])


def reference_class_hypergroup(table):
    """The class hypergroup from its definition: conjugacy classes as indicator
    rows, ordered by smallest member, and the class-pair counts of products as
    one einsum."""
    n = len(table)
    e = next(a for a in range(n) if all(table[a, b] == b == table[b, a] for b in range(n)))
    ginv = [next(b for b in range(n) if table[a, b] == e) for a in range(n)]
    classes = sorted({frozenset(int(table[table[g, a], ginv[g]]) for g in range(n))
                      for a in range(n)}, key=min)
    ind = np.array([[x in k for x in range(n)] for k in classes], dtype=np.int64)
    lands = np.eye(n, dtype=np.int64)[table]  # lands[x, y, z] = [x y == z]
    counts = np.einsum("ix,jy,xyz,kz->ijk", ind, ind, lands, ind, optimize=True)
    sizes = ind.sum(axis=1).astype(float)
    c = counts / (sizes[:, None, None] * sizes[None, :, None])
    class_of = ind.argmax(axis=0)
    inv = class_of[[ginv[min(k)] for k in classes]]
    return FiniteHypergroup(len(classes), int(class_of[e]), inv, c)


def reference_symmetric_table(k):
    """S_k's table one product at a time: (p q)(x) = p[q[x]] looked up among
    the permutations in lexicographic order."""
    elems = sorted(permutations(range(k)))
    index = {p: i for i, p in enumerate(elems)}
    n = len(elems)
    table = np.zeros((n, n), dtype=int)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i, j] = index[tuple(p[x] for x in q)]
    return table


def reference_cosine_grid(m):
    """Half the mass at |x - y| and half at x + y reflected at m - 1."""
    c = np.zeros((m, m, m))
    for x in range(m):
        for y in range(m):
            hi = x + y if x + y <= m - 1 else 2 * (m - 1) - (x + y)
            c[x, y, abs(x - y)] += 0.5
            c[x, y, hi] += 0.5
    return FiniteHypergroup(m, 0, np.arange(m), c)


def assert_same_hypergroup(got, ref):
    assert (got.n, got.e) == (ref.n, ref.e)
    assert dense(got).tobytes() == dense(ref).tobytes()
    np.testing.assert_array_equal(got.inv, ref.inv)


class TestBuildersMatchDefinition:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_symmetric_group_table(self, k):
        got, ref = symmetric_group_table(k), reference_symmetric_table(k)
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_symmetric_groups(self, k):
        table = symmetric_group_table(k)
        assert_same_hypergroup(conjugacy_class_hypergroup(table),
                               reference_class_hypergroup(table))

    def test_dihedral_groups(self):
        for k in range(3, 31):
            table = dihedral_table(k)
            got = conjugacy_class_hypergroup(table)
            assert_same_hypergroup(got, reference_class_hypergroup(table))
            # D_k has (k + 3) / 2 classes for odd k and k / 2 + 3 for even k
            assert got.n == ((k + 3) // 2 if k % 2 else k // 2 + 3)

    def test_cyclic_groups(self):
        # the classes of Z_n are singletons and most are not their own inverse
        for n in range(1, 13):
            table = np.add.outer(np.arange(n), np.arange(n)) % n
            got = conjugacy_class_hypergroup(table)
            assert_same_hypergroup(got, reference_class_hypergroup(table))
            np.testing.assert_array_equal(got.inv, (-np.arange(n)) % n)

    def test_cosine_grids(self):
        for m in range(2, 65):
            assert_same_hypergroup(cosine_grid_hypergroup(m), reference_cosine_grid(m))

    @pytest.mark.parametrize("table,message", [
        ([[0, 2], [1, 0]], "group table must be n x n with entries in 0..n-1"),
        ([[0, 1, 0], [1, 0, 1]], "group table must be n x n with entries in 0..n-1"),
        ([[0, 1], [1]], "group table must be n x n with entries in 0..n-1"),
        ([[0, 10**20], [1, 0]], "group table must be n x n with entries in 0..n-1"),
        ([[0, 0, 0]] * 3, "group table has no identity"),
        ([[0, 1, 2], [1, 1, 1], [2, 1, 2]], "element 1 has no inverse"),
        ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], "group table not associative at (1, 1)"),
        ([[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
          [3, 2, 5, 4, 1, 0], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]],
         "group table not associative at (1, 3)"),
    ], ids=["range", "shape", "ragged", "past-int64", "no-identity", "no-inverse",
            "not-associative", "s3-two-entries-swapped"])
    def test_malformed_table(self, table, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            conjugacy_class_hypergroup(table)


def reference_check_group_table(table):
    """The group-table rules with associativity as a scan over every (a, b, c), one
    a at a time: the identity, or the text of the first rule broken."""
    n = table.shape[0]
    if table.shape != (n, n) or np.any(table < 0) or np.any(table >= n):
        return "group table must be n x n with entries in 0..n-1"
    idx = np.arange(n)
    is_e = np.all(table == idx, axis=1) & np.all(table.T == idx, axis=1)
    if not is_e.any():
        return "group table has no identity"
    e = int(np.argmax(is_e))
    no_inv = ~np.any(table == e, axis=1)
    if no_inv.any():
        return f"element {int(np.argmax(no_inv))} has no inverse"
    for a in range(n):
        bad = np.any(table[table[a]] != table[a][table], axis=1)
        if bad.any():
            return f"group table not associative at ({a}, {int(np.argmax(bad))})"
    return e


def check_outcome(table):
    """_check_group_table's identity, or the text it refuses the table with."""
    try:
        return _check_group_table(table)[1]
    except ValueError as exc:
        return str(exc)


def reduced_latin_squares(n):
    """Every loop of order n with identity 0 whose first row and column are 0..n-1,
    in lexicographic order of the rows: 56 of order 5, 9408 of order 6."""
    perms = np.array(list(permutations(range(n))))  # perms[0] is the first row
    clash = (perms[:, None, 1:] == perms[None, :, 1:]).any(axis=2)
    found = []

    def extend(rows, allowed):
        if len(rows) == n:
            found.append(perms[rows])
            return
        for p in np.flatnonzero(allowed & (perms[:, 0] == len(rows))):
            extend(rows + [p], allowed & ~clash[p])

    extend([0], ~clash[0])
    return found


def relabelled(table, rng):
    """The same table with element a renamed p[a], p a random permutation."""
    p = rng.permutation(len(table))
    out = np.empty_like(table)
    out[np.ix_(p, p)] = p[table]
    return out


MUTATIONS = ["none", "entry", "swap-in-row", "swap-rows"]


def mutated(table, kind, rng):
    """table with one entry changed, two values of a row swapped, or two rows swapped."""
    n, out = len(table), table.copy()
    a, b = rng.choice(n, 2, replace=False)
    if kind == "entry":
        out[a, b] = (out[a, b] + rng.integers(1, n)) % n
    elif kind == "swap-in-row":
        out[a, [b, (b + 1) % n]] = out[a, [(b + 1) % n, b]]
    else:
        out[[a, b]] = out[[b, a]]
    return out


def cayley_tables():
    """Cyclic, dihedral and symmetric groups of order up to 120, by name."""
    cyclic = {f"z{n}": np.add.outer(np.arange(n), np.arange(n)) % n
              for n in (1, 2, 3, 4, 6, 7, 12, 16, 30, 64, 120)}
    dihedral = {f"d{k}": dihedral_table(k) for k in (3, 4, 5, 6, 10, 15, 30, 60)}
    symmetric = {f"s{k}": symmetric_group_table(k) for k in (3, 4, 5)}
    return {**cyclic, **dihedral, **symmetric}


def reference_closure(table, elements):
    """The least set holding elements and closed under the table's product."""
    rows, closed = table.tolist(), set(elements)
    while True:
        grown = closed | {rows[a][b] for a in closed for b in closed}
        if grown == closed:
            return closed
        closed = grown


class TestLightsAssociativityTest:
    """_check_group_table tests associativity at a generating set only (Light's test);
    it must decide and name exactly what the scan over every (a, b, c) does."""

    def test_every_loop_of_order_5(self):
        loops = reduced_latin_squares(5)
        assert len(loops) == 56
        for table in loops:
            assert check_outcome(table) == reference_check_group_table(table)

    def test_loops_of_order_6(self):
        loops = reduced_latin_squares(6)
        assert len(loops) == 9408
        # the first generator is 1: every loop where it passes, and a sample of the rest
        first_passes = {i for i, t in enumerate(loops) if np.array_equal(t[t[:, 1]], t[:, t[1]])}
        sample = set(np.random.default_rng(6).choice(len(loops), 600, replace=False).tolist())
        expected = {i: reference_check_group_table(loops[i]) for i in first_passes | sample}
        for i, outcome in expected.items():
            assert check_outcome(loops[i]) == outcome
        # in 280 of them only a later generator fails
        assert sum(isinstance(expected[i], str) for i in first_passes) == 280

    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_relabelled_cayley_tables(self, kind):
        rng = np.random.default_rng(MUTATIONS.index(kind))
        for name, table in cayley_tables().items():
            if kind != "none" and len(table) < 3:
                continue  # Z1 has no two entries, and Z2 with its rows swapped is a group
            table = relabelled(table, rng)
            if kind != "none":
                table = mutated(table, kind, rng)
            expected = reference_check_group_table(table)
            assert check_outcome(table) == expected, name
            assert (kind == "none") == isinstance(expected, int), name

    def test_generators_are_least_outside_the_closure(self):
        rng = np.random.default_rng(1)
        groups = [cayley_tables()[name] for name in ("z12", "z16", "d6", "d15", "s4")]
        loops = [reduced_latin_squares(5)[17], reduced_latin_squares(6)[4321]]  # not groups
        for i, table in enumerate(relabelled(t, rng) for t in groups + loops):
            e = int(np.flatnonzero((table == np.arange(len(table))).all(axis=1))[0])
            gens = list(_generators(table, e))
            closures = [reference_closure(table, [e] + gens[:k]) for k in range(len(gens) + 1)]
            for g, closed in zip(gens, closures):
                assert g == min(set(range(len(table))) - closed, default=None)
            assert closures[-1] == set(range(len(table)))
            if i < len(groups):  # each generator at least doubles a subgroup
                assert 2 ** len(gens) <= len(table)


def assert_same_entries(got, ref):
    for a, b in zip(got.entries, ref.entries):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def reference_theta(theta):
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    c[1, 1, 0], c[1, 1, 1] = theta, 1.0 - theta
    return FiniteHypergroup(2, 0, [0, 1], c)


def reference_product(h1, h2):
    """The product's dense tensor as one einsum of the factors' dense tensors."""
    n = h1.n * h2.n
    c = np.einsum("abc,xyz->axbycz", dense(h1), dense(h2)).reshape(n, n, n)
    inv = (h1.inv[:, None] * h2.n + h2.inv[None, :]).reshape(-1)
    return FiniteHypergroup(n, h1.e * h2.n + h2.e, inv, c)


class TestBuildersMakeEntries:
    """Every builder makes c's entries and no dense form; the entries are the
    nonzeros of the dense tensor the definition gives."""

    @pytest.mark.parametrize("family,param", [
        ("cyclic", "12"), ("theta2", "0.3"), ("conj-class", "s4"), ("cosine-grid", "12"),
        ("product", "conj-class:s3,cosine-grid:4")])
    def test_no_dense_view(self, family, param):
        assert set(vars(build_family(family, param))) == {"n", "e", "inv", "entries"}

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1 / 3, 1.0])
    def test_theta(self, theta):
        got = theta_hypergroup(theta)
        assert_same_entries(got, reference_theta(theta))
        assert_same_hypergroup(got, reference_theta(theta))

    @pytest.mark.parametrize("table", [symmetric_group_table(3), symmetric_group_table(4),
                                       dihedral_table(5), dihedral_table(6)],
                             ids=["s3", "s4", "d5", "d6"])
    def test_class_hypergroup_is_counts_over_class_sizes(self, table):
        got = conjugacy_class_hypergroup(table)
        assert_same_entries(got, reference_class_hypergroup(table))

    @pytest.mark.parametrize("left", sorted(BUNDLED))
    @pytest.mark.parametrize("right", ["Z4", "theta-1", "S3-classes", "cosine-5"])
    def test_product_is_the_einsum(self, left, right):
        h1, h2 = build_family(*BUNDLED[left]), build_family(*BUNDLED[right])
        got = product_hypergroup(h1, h2)
        ref = reference_product(h1, h2)
        assert_same_entries(got, ref)
        assert_same_hypergroup(got, ref)


class TestOracleAgreement:
    def test_bundled(self, bundled):
        j = jewett_haar(bundled)
        s = solve_invariance(bundled)
        np.testing.assert_allclose(j.w / j.w.sum(), s.w, atol=1e-10)

    def test_random_theta_and_product_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            theta = rng.uniform(0.05, 1.0)
            hs = [theta_hypergroup(theta)]
            if rng.random() < 0.5:
                hs.append(product_hypergroup(theta_hypergroup(rng.uniform(0.05, 1.0)),
                                             cyclic_hypergroup(int(rng.integers(2, 5)))))
            for h in hs:
                j = jewett_haar(h)
                s = solve_invariance(h)
                np.testing.assert_allclose(j.w / j.w.sum(), s.w, atol=1e-10)

    def test_cosine_grid_trapezoid_weights(self):
        for m in (3, 5, 17):
            j = jewett_haar(cosine_grid_hypergroup(m))
            expected = np.full(m, 2.0)
            expected[0] = expected[-1] = 1.0
            np.testing.assert_allclose(j.w, expected, atol=1e-12)

    def test_conjugacy_weights_proportional_to_class_sizes(self):
        for k in (3, 4):
            table = symmetric_group_table(k)
            n = table.shape[0]
            ginv = [int(np.flatnonzero(table[a] == 0)[0]) for a in range(n)]
            orbits = sorted({tuple(sorted({int(table[table[g, a], ginv[g]])
                                           for g in range(n)})) for a in range(n)},
                            key=min)
            sizes = np.array([len(o) for o in orbits], dtype=float)
            h = conjugacy_class_hypergroup(table)
            j = jewett_haar(h)
            np.testing.assert_allclose(j.w, sizes, atol=1e-9)
            assert invariance_residual(h, j) < 1e-12

    def test_product_haar_is_tensor_of_factors(self):
        h1 = theta_hypergroup(0.3)
        h2 = cosine_grid_hypergroup(4)
        prod = product_hypergroup(h1, h2)
        expected = np.kron(jewett_haar(h1).w, jewett_haar(h2).w)
        np.testing.assert_allclose(jewett_haar(prod).w, expected, atol=1e-12)
