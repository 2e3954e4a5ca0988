import numpy as np
import pytest

from hyperhaar import (
    ApproximantConfig,
    FiniteHypergroup,
    Function,
    Measure,
    NoCover,
    NotConverged,
    ShrinkingChain,
    ZeroDenominator,
    approximant,
    bounds_certificate,
    build_family,
    canonical_chain,
    find_dominating_measure,
    haar_net,
    invariance_residual,
    main_identity_gap,
    normalized_approximant,
    pair,
    sandwich_ratio,
    symmetrize,
)
from hyperhaar.approx import _bounds, _ratio, _step, default_probes
from hyperhaar.checks import terminal_ratio_suite
from hyperhaar.core import convolve_measures
from hyperhaar.oracles import (
    conjugacy_class_hypergroup,
    cyclic_hypergroup,
    symmetric_group_table,
    theta_hypergroup,
)


def ones_measure(n):
    return Measure(np.ones(n), nonneg=True)


def terminal_bump(h):
    return Function.indicator(h.n, [h.e])


class TestSymmetrize:
    def test_identity_involution_noop(self):
        h = theta_hypergroup(0.4)
        g = Function([0.3, 0.7])
        np.testing.assert_array_equal(symmetrize(h, g).v, g.v)

    def test_z4_averages_with_reflection(self):
        h = cyclic_hypergroup(4)
        got = symmetrize(h, Function.indicator(4, [0, 1]))
        np.testing.assert_array_equal(got.v, [1.0, 0.5, 0.0, 0.5])

    def test_idempotent(self, bundled):
        rng = np.random.default_rng(11)
        g = Function(rng.uniform(0, 1, bundled.n))
        once = symmetrize(bundled, g)
        np.testing.assert_array_equal(symmetrize(bundled, once).v, once.v)


class TestApproximant:
    def test_theta_half_terminal(self):
        h = theta_hypergroup(0.5)
        got = approximant(h, ones_measure(2), terminal_bump(h))
        np.testing.assert_allclose(got.w, [1.0, 2.0])

    def test_bump_scaling_divides_out(self, bundled):
        rng = np.random.default_rng(12)
        mu0 = Measure(rng.uniform(0.5, 2, bundled.n), nonneg=True)
        g = Function(rng.uniform(0.1, 1, bundled.n))
        g = symmetrize(bundled, g)
        a = approximant(bundled, mu0, g)
        b = approximant(bundled, mu0, Function(3.0 * g.v))
        np.testing.assert_allclose(b.w, a.w / 3.0, rtol=1e-14)

    def test_cyclic_uniform(self):
        h = cyclic_hypergroup(6)
        got = approximant(h, Measure.uniform(6), terminal_bump(h))
        np.testing.assert_allclose(got.w, np.ones(6))

    def test_terminal_exactness_closed_form(self, bundled):
        # at the terminal bump, weights collapse to 1/c[inv[t], t, e]
        rng = np.random.default_rng(13)
        mu0 = Measure(rng.uniform(0.2, 3, bundled.n), nonneg=True)
        got = approximant(bundled, mu0, terminal_bump(bundled))
        diag = bundled.c[bundled.inv, np.arange(bundled.n), bundled.e]
        np.testing.assert_allclose(got.w, 1.0 / diag, atol=1e-12)

    def test_mu0_independence_at_terminal(self, bundled):
        rng = np.random.default_rng(14)
        ref = approximant(bundled, ones_measure(bundled.n), terminal_bump(bundled))
        for _ in range(20):
            mu0 = Measure(rng.uniform(0.05, 5, bundled.n), nonneg=True)
            got = approximant(bundled, mu0, terminal_bump(bundled))
            np.testing.assert_allclose(got.w, ref.w, atol=1e-12)

    def test_zero_denominator(self):
        h = theta_hypergroup(0.0)  # H6 fails: translate of 1_{e} misses point 1
        with pytest.raises(ZeroDenominator):
            approximant(h, ones_measure(2), terminal_bump(h))

    def test_full_support(self, bundled):
        got = approximant(bundled, ones_measure(bundled.n), terminal_bump(bundled))
        assert np.all(got.w > 0)


class TestNormalizedApproximant:
    def make_cfg(self, h, f0=None):
        return ApproximantConfig(ones_measure(h.n), f0 or Function.ones(h.n),
                                 canonical_chain(h))

    def test_theta_half_uniform_f0(self):
        h = theta_hypergroup(0.5)
        got = normalized_approximant(h, self.make_cfg(h), terminal_bump(h))
        np.testing.assert_allclose(got.w, [1 / 3, 2 / 3])

    def test_theta_half_dirac_f0(self):
        h = theta_hypergroup(0.5)
        cfg = self.make_cfg(h, Function.indicator(2, [0]))
        got = normalized_approximant(h, cfg, terminal_bump(h))
        np.testing.assert_allclose(got.w, [1.0, 2.0])

    def test_pairing_with_f0_is_one(self, bundled):
        cfg = self.make_cfg(bundled)
        for g in cfg.chain.bumps:
            chi = normalized_approximant(bundled, cfg, g)
            assert pair(cfg.f0, chi) == pytest.approx(1.0, abs=1e-14)

    def test_scale_invariance(self, bundled):
        rng = np.random.default_rng(15)
        cfg = self.make_cfg(bundled)
        g = symmetrize(bundled, Function(rng.uniform(0.1, 1, bundled.n)))
        base = normalized_approximant(bundled, cfg, g)
        for k in (0.5, 2.0, 10.0):
            scaled = normalized_approximant(bundled, cfg, Function(k * g.v))
            np.testing.assert_allclose(scaled.w, base.w, atol=1e-12)


class TestCanonicalChain:
    def test_two_point_family(self):
        chain = canonical_chain(theta_hypergroup(0.5))
        assert [sorted(u) for u in chain.neighborhoods] == [[0, 1], [0]]
        np.testing.assert_array_equal(chain.bumps[0].v, [1.0, 1.0])
        np.testing.assert_array_equal(chain.bumps[1].v, [1.0, 0.0])

    def test_z4_pairs_involution_partners(self):
        chain = canonical_chain(cyclic_hypergroup(4))
        assert [sorted(u) for u in chain.neighborhoods] == [[0, 1, 2, 3], [0, 1, 3], [0]]

    def test_terminal_bump_is_identity_indicator(self, bundled):
        chain = canonical_chain(bundled)
        np.testing.assert_array_equal(
            chain.bumps[-1].v, Function.indicator(bundled.n, [bundled.e]).v)

    def test_explicit_ordering(self):
        chain = canonical_chain(cyclic_hypergroup(4), ordering=[1, 2, 3])
        assert [sorted(u) for u in chain.neighborhoods] == [[0, 1, 2, 3], [0, 2], [0]]

    def test_invalid_ordering(self):
        with pytest.raises(ValueError, match="permutation"):
            canonical_chain(cyclic_hypergroup(4), ordering=[1, 2])


class TestMainIdentityGap:
    def test_zero_at_terminal_bump(self, bundled):
        mu0 = ones_measure(bundled.n)
        for f in default_probes(bundled.n):
            assert main_identity_gap(bundled, mu0, terminal_bump(bundled), f) < 1e-12

    def test_against_independent_double_sum(self):
        h = theta_hypergroup(0.5)
        mu0 = ones_measure(2)
        g = Function.ones(2)
        f = Function([1.0, 0.0])
        # independent re-expansion of f - ((f . approximant) * g)
        denom = np.array([sum(mu0.w[s] * h.c[h.inv[s], t].sum() for s in range(2))
                          for t in range(2)])
        chi_t = mu0.w / denom
        conv = np.array([sum(f.v[s] * chi_t[s] * h.c[h.inv[s], t, u] * g.v[u]
                             for s in range(2) for u in range(2)) for t in range(2)])
        expected = np.abs(f.v - conv).max()
        assert main_identity_gap(h, mu0, g, f) == pytest.approx(expected, abs=1e-15)

    def test_zero_function(self, bundled):
        zero = Function(np.zeros(bundled.n))
        g = canonical_chain(bundled).bumps[0]
        assert main_identity_gap(bundled, ones_measure(bundled.n), g, zero) == 0.0


class TestSandwichRatio:
    def test_terminal_bump_is_exact(self, bundled):
        rng = np.random.default_rng(16)
        mu0 = ones_measure(bundled.n)
        g = terminal_bump(bundled)
        for f in default_probes(bundled.n):
            for _ in range(5):
                mu = Measure(rng.uniform(0.01, 1, bundled.n), nonneg=True)
                assert sandwich_ratio(bundled, mu0, g, f, mu) == pytest.approx(1.0, abs=1e-12)

    def test_identity_dirac_any_bump(self, bundled):
        mu0 = ones_measure(bundled.n)
        e = Measure.dirac(bundled.n, bundled.e)
        for g in canonical_chain(bundled).bumps:
            for f in default_probes(bundled.n):
                assert sandwich_ratio(bundled, mu0, g, f, e) == pytest.approx(1.0, abs=1e-12)

    def test_certified_window_every_step(self, bundled):
        # |rho - 1| <= gap(1_Q) + gap(f) <1_Q, mu*chi~> / (|mu| chi~(f))
        rng = np.random.default_rng(17)
        mu0 = ones_measure(bundled.n)
        ones = Function.ones(bundled.n)
        for g in canonical_chain(bundled).bumps:
            chi_t = approximant(bundled, mu0, g)
            gap1 = main_identity_gap(bundled, mu0, g, ones)
            for t in bundled.points():
                f = Function.indicator(bundled.n, [t])
                gapf = main_identity_gap(bundled, mu0, g, f)
                mus = [Measure.dirac(bundled.n, s) for s in bundled.points()]
                mus.append(Measure(rng.uniform(0.01, 1, bundled.n), nonneg=True))
                for mu in mus:
                    rho = sandwich_ratio(bundled, mu0, g, f, mu)
                    eps = gap1 + gapf * pair(ones, convolve_measures(bundled, mu, chi_t)) \
                        / (mu.norm * pair(f, chi_t))
                    assert abs(rho - 1.0) <= eps + 1e-12

    def test_asymmetric_bump_rejected(self):
        h = cyclic_hypergroup(4)
        with pytest.raises(ValueError, match="symmetric"):
            sandwich_ratio(h, ones_measure(4), Function([1.0, 1.0, 0.0, 0.0]),
                           Function.ones(4), Measure.dirac(4, 0))


class TestBumpSymmetryIsExact:
    """Bump symmetry is a structural test: an asymmetry of any size is refused."""

    @staticmethod
    def nearly_symmetric():
        v = np.ones(4)
        v[1] += 1e-13  # Z4 pairs point 1 with point 3
        return Function(v)

    def test_chain_check(self):
        h = cyclic_hypergroup(4)
        chain = ShrinkingChain((range(4), [0]), (self.nearly_symmetric(), terminal_bump(h)))
        with pytest.raises(ValueError, match="^bump 0 is not symmetric$"):
            chain.check(h)

    def test_sandwich_ratio(self):
        h = cyclic_hypergroup(4)
        with pytest.raises(ValueError, match="^bump must be symmetric$"):
            sandwich_ratio(h, ones_measure(4), self.nearly_symmetric(),
                           Function.ones(4), Measure.dirac(4, 0))


class TestRatioKernel:
    def test_matches_defining_formula(self, bundled):
        # <f, mu * chi~> / (|mu| chi~(f)) with mu * chi~ expanded over the tensor
        rng = np.random.default_rng(19)
        g = canonical_chain(bundled).bumps[0]
        chi_t = _step(bundled, Measure(rng.uniform(0.5, 2.0, bundled.n)), g)[1]
        fs = rng.uniform(0.1, 1.0, (3, bundled.n))
        mus = rng.uniform(-1.0, 1.0, (4, bundled.n))
        conv = np.einsum("js,t,stu->ju", mus, chi_t, bundled.c)
        ref = (fs @ conv.T) / (np.abs(mus).sum(axis=1) * (fs @ chi_t)[:, None])
        np.testing.assert_allclose(_ratio(bundled, chi_t, fs, mus), ref, rtol=1e-14, atol=1e-14)

    def test_zero_pairing_raises(self, bundled):
        chi_t = _step(bundled, ones_measure(bundled.n), terminal_bump(bundled))[1]
        fs = np.vstack([np.ones(bundled.n), np.zeros(bundled.n)])
        with pytest.raises(ZeroDenominator):
            _ratio(bundled, chi_t, fs, np.ones((1, bundled.n)))


def per_pair_terminal_ratio(h, rng, trials=25):
    """terminal_ratio_suite's worst, one sandwich_ratio per (probe, measure)."""
    mu0, g = ones_measure(h.n), terminal_bump(h)
    mus = [Measure.dirac(h.n, s) for s in h.points()]
    mus += [Measure(rng.uniform(0.0, 1.0, h.n) + 1e-3, nonneg=True) for _ in range(trials)]
    return max(abs(sandwich_ratio(h, mu0, g, f, mu) - 1.0)
               for f in default_probes(h.n) for mu in mus)


class TestTerminalRatioSuite:
    def check(self, h, seed):
        # The suite checks only the diracs; by convexity the reference's 25 random
        # nonnegative measures must not lie farther from 1 beyond rounding.
        got = terminal_ratio_suite(h)
        ref = per_pair_terminal_ratio(h, np.random.default_rng(seed))
        assert abs(got.worst - ref) <= 1e-15
        assert got.passed == (ref <= 1e-12)
        assert per_pair_terminal_ratio(h, None, trials=0) >= ref - 1e-15
        return got

    @pytest.mark.parametrize("seed", [0, 5])
    def test_bundled(self, bundled, seed):
        assert self.check(bundled, seed).passed

    def test_perturbed_tensor_fails(self):
        h = cyclic_hypergroup(4)
        c = h.c * np.random.default_rng(20).uniform(0.9, 1.1, h.c.shape)
        assert not self.check(FiniteHypergroup(4, 0, h.inv, c), 3).passed


class TestBoundsCertificate:
    def make_cfg(self, h):
        return ApproximantConfig(ones_measure(h.n), Function.ones(h.n), canonical_chain(h))

    def test_f0_against_itself(self, bundled):
        cfg = self.make_cfg(bundled)
        cert = bounds_certificate(bundled, cfg, terminal_bump(bundled), cfg.f0)
        assert cert.value == pytest.approx(1.0, abs=1e-12)
        assert cert.a < 1.0 < cert.b
        assert cert.passed

    def test_theta_half_indicator(self):
        h = theta_hypergroup(0.5)
        cfg = self.make_cfg(h)
        cert = bounds_certificate(h, cfg, terminal_bump(h), Function.indicator(2, [1]))
        assert cert.value == pytest.approx(2 / 3, abs=1e-12)
        assert cert.passed

    def test_scaling_preserves_pass(self):
        h = theta_hypergroup(0.5)
        cfg = self.make_cfg(h)
        f = Function.indicator(2, [1])
        base = bounds_certificate(h, cfg, terminal_bump(h), f)
        scaled = bounds_certificate(h, cfg, terminal_bump(h), Function(10.0 * f.v))
        assert scaled.value == pytest.approx(10.0 * base.value, rel=1e-12)
        assert scaled.passed

    def test_all_steps_all_probes(self, bundled):
        cfg = self.make_cfg(bundled)
        for g in cfg.chain.bumps:
            for f in default_probes(bundled.n):
                assert bounds_certificate(bundled, cfg, g, f).passed

    def test_bounds_equal_per_probe_dominating_measures(self, bundled):
        f0 = Function(np.random.default_rng(3).uniform(0.5, 1.5, bundled.n))
        probes = default_probes(bundled.n)
        a, b = _bounds(bundled, f0, probes)
        np.testing.assert_array_equal(
            a, [1.0 / (2.0 * find_dominating_measure(bundled, f0, f).norm) for f in probes])
        np.testing.assert_array_equal(
            b, [2.0 * find_dominating_measure(bundled, f, f0).norm for f in probes])

    def test_bounds_no_cover_message(self):
        # dirac_1 * dirac_1 = dirac_1: no translate of an f0 on point 0 reaches point 1
        c = np.zeros((2, 2, 2))
        c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = c[1, 1, 1] = 1.0
        h = FiniteHypergroup(2, 0, [0, 1], c)
        with pytest.raises(NoCover, match="^no translate of f0 reaches point 1$"):
            _bounds(h, Function([1.0, 0.0]), [Function([0.0, 1.0])])


class TestHaarNet:
    def run(self, h, **kwargs):
        cfg = ApproximantConfig(ones_measure(h.n), Function.ones(h.n),
                                canonical_chain(h), **kwargs)
        return haar_net(h, cfg)

    def test_s3_class_weights(self):
        h = conjugacy_class_hypergroup(symmetric_group_table(3))
        chi, _ = self.run(h)
        np.testing.assert_allclose(chi.w / chi.w.sum(), [1 / 6, 1 / 2, 1 / 3], atol=1e-12)

    def test_cyclic_uniform(self):
        for n in (2, 5, 12):
            chi, _ = self.run(cyclic_hypergroup(n))
            np.testing.assert_allclose(chi.w / chi.w.sum(), np.full(n, 1 / n), atol=1e-12)

    def test_output_contract(self, bundled):
        chi, trace = self.run(bundled)
        assert np.all(chi.w > 0)
        assert invariance_residual(bundled, chi) < 1e-10
        assert pair(Function.ones(bundled.n), chi) == pytest.approx(1.0, abs=1e-12)
        assert len(trace) >= 1
        assert trace.steps[-1].bounds_ok

    def test_trace_records_every_executed_step(self, bundled):
        chi, trace = self.run(bundled)
        chain = canonical_chain(bundled)
        assert 1 <= len(trace) <= len(chain)
        sizes = [len(u) for u in chain.neighborhoods]
        assert [s.u_size for s in trace.steps] == sizes[:len(trace)]
        last = trace.steps[-1]
        # stopped either by the Cauchy criterion or at the exact terminal step
        assert last.cauchy_diff < 1e-12 or last.u_size == 1
        if last.u_size == 1:
            assert last.gap < 1e-12
            assert last.rho == pytest.approx(1.0, abs=1e-12)

    def test_nan_residual_refused(self):
        c = theta_hypergroup(0.5).c.copy()
        c[1, 1, 1] = np.nan
        with pytest.raises(NotConverged, match="^invariance residual nan above"):
            self.run(FiniteHypergroup(2, 0, [0, 1], c))


def reference_net(h, mu0, f0, chain, conv_tol=1e-12):
    """The chain step expanded one einsum per probe and per diagnostic,
    independent of the package's convolution kernels."""
    n = h.n
    ci = h.c[h.inv]
    probes = list(np.eye(n)) + [np.ones(n)]
    unif = np.full(n, 1.0 / n)

    def conv(w, g):  # (w * g)(t) = sum_s w_s sum_u c[inv[s], t, u] g(u)
        return np.einsum("s,stu,u->t", w, ci, g)

    def dominating_norm(f, f_ref):  # mass of the greedy measure with f < mu * f_ref
        tr = np.einsum("stu,u->st", ci, f_ref)
        return sum((f[t] + 1.0) / tr[:, t].max() for t in np.flatnonzero(f))

    bounds = [(1.0 / (2.0 * dominating_norm(f0, f)), 2.0 * dominating_norm(f, f0))
              for f in probes]
    rows, prev = [], None
    for g in chain.bumps:
        chi_t = mu0 / conv(mu0, g.v)
        chi = chi_t / (f0 @ chi_t)
        vals = np.array([f @ chi for f in probes])
        gap = max(np.abs(f - conv(f * chi_t, g.v)).max() for f in probes)
        rho = f0 @ np.einsum("s,t,stu->u", unif, chi_t, h.c) / (unif.sum() * (f0 @ chi_t))
        ok = all(a < v < b for v, (a, b) in zip(vals, bounds))
        diff = np.abs(vals - prev).max() if prev is not None else np.nan
        rows.append((vals, gap, rho, ok, diff))
        if diff < conv_tol:
            break
        prev = vals
    return chi, rows


class TestTraceParity:
    def check(self, h):
        rng = np.random.default_rng(18)
        mu0 = rng.uniform(0.5, 2.0, h.n)
        f0 = rng.uniform(0.1, 1.0, h.n)
        chain = canonical_chain(h)
        chi, trace = haar_net(h, ApproximantConfig(Measure(mu0, nonneg=True), Function(f0), chain))
        ref_chi, rows = reference_net(h, mu0, f0, chain)
        np.testing.assert_allclose(chi.w, ref_chi, rtol=0, atol=1e-14)
        assert len(trace) == len(rows)
        for step, (vals, gap, rho, ok, diff) in zip(trace.steps, rows):
            np.testing.assert_allclose(step.chi_probe, vals, rtol=0, atol=1e-14)
            assert abs(step.gap - gap) <= 1e-14
            assert abs(step.rho - rho) <= 1e-14
            assert step.bounds_ok == ok
            np.testing.assert_allclose(step.cauchy_diff, diff, rtol=0, atol=1e-14)

    def test_bundled(self, bundled):
        self.check(bundled)

    @pytest.mark.parametrize("family,param", [("cosine-grid", "16"),
                                              ("product", "cyclic:3,cosine-grid:4")])
    def test_larger(self, family, param):
        self.check(build_family(family, param))
