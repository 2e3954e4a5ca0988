import warnings

import numpy as np
import pytest

from hyperhaar import (
    ApproximantConfig,
    FiniteHypergroup,
    Function,
    Measure,
    NoChain,
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
from hyperhaar.approx import (_bounds, _gap, _net_steps, _probe_gap, _ratio, _step, _walk,
                              default_probes)
from hyperhaar.checks import terminal_ratio_suite
from hyperhaar.core import convolve_measures, translates
from hyperhaar.oracles import (
    conjugacy_class_hypergroup,
    cyclic_hypergroup,
    symmetric_group_table,
    theta_hypergroup,
)

from conftest import dense, traced_peak


EPS = np.finfo(float).eps


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
        diag = dense(bundled)[bundled.inv, np.arange(bundled.n), bundled.e]
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

    def test_matches_walk_with_skip(self, bundled):
        assert_chain_is_reference(canonical_chain(bundled), bundled)

    @pytest.mark.parametrize("family,param", [("cyclic", "12"), ("conj-class", "s4"),
                                              ("product", "cyclic:3,cosine-grid:4")])
    def test_matches_walk_with_skip_on_larger_families(self, family, param):
        h = build_family(family, param)
        assert_chain_is_reference(canonical_chain(h), h)

    @pytest.mark.parametrize("inv,message", [
        ([1, 2, 0], "neighborhood 1 is not involution-stable"),
        ([1, 0, 2], "neighborhood 2 does not contain the identity"),
    ], ids=["three-cycle", "moves-identity"])
    def test_non_involutive_inv_is_refused(self, inv, message):
        h = FiniteHypergroup(3, 0, inv, dense(cyclic_hypergroup(3)))
        with pytest.raises(NoChain, match=f"^{message}$"):
            canonical_chain(h)


def assert_chain_is_reference(chain, h):
    """The chain equals the walk canonical_chain used to make: orbit keys in
    descending order, skipping a point an earlier orbit already removed."""
    current = set(h.points())
    neighborhoods = [frozenset(current)]
    for p in sorted({min(p, int(h.inv[p])) for p in h.points() if p != h.e}, reverse=True):
        if p not in current:
            continue
        current.discard(p)
        current.discard(int(h.inv[p]))
        neighborhoods.append(frozenset(current))
    assert chain.neighborhoods == tuple(neighborhoods)
    assert [g.v.tobytes() for g in chain.bumps] == [
        symmetrize(h, Function.indicator(h.n, u)).v.tobytes() for u in neighborhoods]


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
        c = dense(h)
        denom = np.array([sum(mu0.w[s] * c[h.inv[s], t].sum() for s in range(2))
                          for t in range(2)])
        chi_t = mu0.w / denom
        conv = np.array([sum(f.v[s] * chi_t[s] * c[h.inv[s], t, u] * g.v[u]
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


def reference_check(chain, h):
    """ShrinkingChain.check as a loop over the neighborhoods, one set test at a time."""
    prev = None
    for k, (u, g) in enumerate(zip(chain.neighborhoods, chain.bumps)):
        if h.e not in u:
            raise ValueError(f"neighborhood {k} does not contain the identity")
        if any(not 0 <= p < h.n for p in u) or frozenset(int(h.inv[p]) for p in u) != u:
            raise ValueError(f"neighborhood {k} is not involution-stable")
        if prev is not None and not u <= prev:
            raise ValueError(f"neighborhood {k} is not contained in its predecessor")
        if not (g.is_nonneg() and g.sup_norm > 0):
            raise ValueError(f"bump {k} must be nonnegative and nonzero")
        if not g.support() <= u:
            raise ValueError(f"bump {k} not supported in its neighborhood")
        if not np.array_equal(g.v, g.v[h.inv]):
            raise ValueError(f"bump {k} is not symmetric")
        if g.v[h.e] <= 0:
            raise ValueError(f"bump {k} vanishes at the identity")
        prev = u
    if not chain.neighborhoods or chain.neighborhoods[-1] != frozenset({h.e}):
        raise ValueError("chain must terminate at the singleton identity neighborhood")


def z4_chain(neighborhoods, bumps=None):
    """A chain on Z4 (1 and 3 are involution partners), indicator bumps by default."""
    if bumps is None:
        bumps = [Function.indicator(4, u).v for u in neighborhoods]
    return ShrinkingChain(tuple(neighborhoods), tuple(Function(b) for b in bumps))


class TestChainCheck:
    Z4 = cyclic_hypergroup(4)

    @pytest.mark.parametrize("chain,message", [
        (z4_chain([{1, 3}, {0}]), "neighborhood 0 does not contain the identity"),
        (z4_chain([range(4), {0, 1, 3}, {0, 1}, {0}], [np.ones(4), [1, 1, 0, 1], [1, 1, 0, 1],
                                                         [1, 0, 0, 0]]),
         "neighborhood 2 is not involution-stable"),
        (z4_chain([range(4), {0, 5}, {0}], [np.ones(4), [1, 0, 0, 0], [1, 0, 0, 0]]),
         "neighborhood 1 is not involution-stable"),
        (z4_chain([range(4), {0}, {0, 2}, {0}]),
         "neighborhood 2 is not contained in its predecessor"),
        (z4_chain([range(4), {0, 2}, {0}], [np.ones(4), [1, 0, -1, 0], [1, 0, 0, 0]]),
         "bump 1 must be nonnegative and nonzero"),
        (z4_chain([range(4), {0}], [np.zeros(4), [1, 0, 0, 0]]),
         "bump 0 must be nonnegative and nonzero"),
        (z4_chain([range(4), {0, 2}, {0}], [np.ones(4), np.ones(4), [1, 0, 0, 0]]),
         "bump 1 not supported in its neighborhood"),
        (z4_chain([range(4), {0}], [[1, 1, 1, 0.5], [1, 0, 0, 0]]), "bump 0 is not symmetric"),
        (z4_chain([range(4), {0}], [[0, 1, 1, 1], [1, 0, 0, 0]]),
         "bump 0 vanishes at the identity"),
        (z4_chain([range(4), {0, 2}]),
         "chain must terminate at the singleton identity neighborhood"),
        (z4_chain([]), "chain must terminate at the singleton identity neighborhood"),
    ])
    def test_message(self, chain, message):
        for check in (chain.check, lambda h: reference_check(chain, h)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check(self.Z4)

    @pytest.mark.parametrize("chain,message", [
        # {0, 1} lacks 1's partner 3, and its indicator bump is not symmetric either
        (z4_chain([range(4), {0, 1}, {0}]), "neighborhood 1 is not involution-stable"),
        # bump 1 is asymmetric, and neighborhood 2 lacks the identity
        (z4_chain([range(4), {0, 1, 3}, {1, 3}, {0}],
                  [np.ones(4), [1, 1, 0, 0.5], [0, 1, 0, 1], [1, 0, 0, 0]]),
         "bump 1 is not symmetric"),
        # bump 1 is unsupported and vanishes at the identity
        (z4_chain([range(4), {0, 2}, {0}], [np.ones(4), [0, 1, 0, 1], [1, 0, 0, 0]]),
         "bump 1 not supported in its neighborhood"),
    ])
    def test_first_failure_wins(self, chain, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            chain.check(self.Z4)

    def test_wrong_bump_length(self):
        chain = z4_chain([range(4), {0}], [np.ones(4), [1.0, 0.0]])
        with pytest.raises(ValueError, match="^dimension mismatch: hypergroup has n=4, got 2$"):
            chain.check(self.Z4)

    def test_agrees_with_reference_on_damaged_chains(self, bundled):
        # damage one neighborhood or bump of the canonical chain at random, often
        # twice, and require the same message as the one-set-at-a-time loop
        rng = np.random.default_rng(21)
        base = canonical_chain(bundled)
        n = bundled.n
        for _ in range(60):
            us = [set(u) for u in base.neighborhoods]
            gs = [g.v.copy() for g in base.bumps]
            for _ in range(rng.integers(1, 3)):
                k, p = int(rng.integers(len(us))), int(rng.integers(n))
                damage = rng.integers(5)
                if damage == 0:
                    us[k].symmetric_difference_update({p})
                elif damage == 1:
                    gs[k][p] = -gs[k][p] if gs[k][p] else 1.0
                elif damage == 2:
                    gs[k][p] = 0.0
                elif damage == 3:
                    gs[k][p] += 0.25
                else:
                    del us[k], gs[k]
            chain = ShrinkingChain(tuple(us), tuple(Function(g) for g in gs))
            try:
                reference_check(chain, bundled)
                expected = None
            except ValueError as exc:
                expected = str(exc)
            if expected is None:
                chain.check(bundled)
            else:
                with pytest.raises(ValueError) as got:
                    chain.check(bundled)
                assert str(got.value) == expected


class TestRatioKernel:
    def test_matches_defining_formula(self, bundled):
        # <f, mu * chi~> / (|mu| chi~(f)) with mu * chi~ expanded over the tensor
        rng = np.random.default_rng(19)
        g = canonical_chain(bundled).bumps[0]
        chi_t = _step(bundled, Measure(rng.uniform(0.5, 2.0, bundled.n)), g)[1]
        fs = rng.uniform(0.1, 1.0, (3, bundled.n))
        mus = rng.uniform(-1.0, 1.0, (4, bundled.n))
        conv = np.einsum("js,t,stu->ju", mus, chi_t, dense(bundled))
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
        c = dense(h) * np.random.default_rng(20).uniform(0.9, 1.1, (h.n,) * 3)
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
        c = dense(theta_hypergroup(0.5))
        c[1, 1, 1] = np.nan
        with pytest.raises(NotConverged, match="^invariance residual nan above"):
            self.run(FiniteHypergroup(2, 0, [0, 1], c))

    def test_nan_entry_warns_nothing(self):
        # the entry readers skip a NaN where they take maxima over positive values
        c = dense(theta_hypergroup(0.5))
        c[1, 1, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged):
                self.run(FiniteHypergroup(2, 0, [0, 1], c))


class TestProbeDerivations:
    """The O(n^2) forms of the default probes' gap and bounds against the general ones."""

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_probe_gap_is_gap_over_default_probes(self, n):
        rng = np.random.default_rng(25)
        p = np.array([f.v for f in default_probes(n)])
        ones_binding = 0
        for scale in (0.1, 1.0, 3.0):
            k = rng.uniform(0.0, 1.0, (n, n))
            chi_t = rng.uniform(0.0, scale, n)
            rows = np.abs(p - (p * chi_t) @ k).max(axis=1)
            ones_binding += rows[-1] > rows[:-1].max()
            assert _probe_gap(k, chi_t) == pytest.approx(_gap(k, chi_t, p), rel=4 * n * EPS)
        assert n == 1 or ones_binding

    @pytest.mark.parametrize("family,param", [("cyclic", "64"), ("conj-class", "s4"),
                                              ("product", "cyclic:5,cosine-grid:6")])
    def test_bounds_equal_dominating_measures(self, family, param):
        h = build_family(family, param)
        f0 = Function(np.random.default_rng(26).uniform(0.5, 1.5, h.n))
        probes = default_probes(h.n)
        a, b = _bounds(h, f0, probes)
        np.testing.assert_array_equal(
            a, [1.0 / (2.0 * find_dominating_measure(h, f0, f).norm) for f in probes])
        np.testing.assert_array_equal(
            b, [2.0 * find_dominating_measure(h, f, f0).norm for f in probes])

    def test_invalid_probe_refused_before_later_cover_failure(self):
        h = theta_hypergroup(0.0)  # no translate of an f0 on point 0 reaches point 1
        with pytest.raises(ValueError, match="^f0 must be nonnegative and nonzero$"):
            _bounds(h, Function.ones(2), [Function([1.0, -1.0]), Function([0.0, 1.0])])
        with pytest.raises(NoCover, match="^no translate of f0 reaches point 1$"):
            _bounds(h, Function.ones(2), [Function([1.0, 0.0]), Function([1.0, -1.0])])


class TestApproximantConfigRefusals:
    Z4 = cyclic_hypergroup(4)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_mu0(self, value):
        mu0 = Measure([1.0, value, 1.0, 1.0])
        with pytest.raises(ValueError, match="^mu0 must be finite$"):
            ApproximantConfig(mu0, Function.ones(4), canonical_chain(self.Z4))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_f0(self, value):
        # with f0 = [1, inf, 1, 1] the chain ends in the all-zero measure, whose
        # invariance residual is 0, so haar_net would certify it
        f0 = Function([1.0, value, 1.0, 1.0])
        with pytest.raises(ValueError, match="^f0 must be finite$"):
            ApproximantConfig(ones_measure(4), f0, canonical_chain(self.Z4))

    def test_finite_accepted(self):
        cfg = ApproximantConfig(Measure([1.0, 2.0, 1.0, 2.0]), Function([1.0, 0.0, 1.0, 0.0]),
                                canonical_chain(self.Z4))
        chi, _ = haar_net(self.Z4, cfg)
        np.testing.assert_allclose(chi.w, np.full(4, 0.5), atol=1e-12)



def fresh_walk(h, mu0, f0, bumps):
    """Per bump: K = translates(h, g) contracted from scratch, and the step's
    normalized weights, probe values, gap and rho from the general kernels."""
    p = np.array([f.v for f in default_probes(h.n)])
    for g in bumps:
        k = translates(h, g)
        chi_t = mu0.w / (mu0.w @ k)
        w = chi_t / (f0.v @ chi_t)
        rho = _ratio(h, chi_t, f0.v[None], Measure.uniform(h.n).w[None])[0, 0]
        yield k, chi_t, w, p @ w, _gap(k, chi_t, p), rho


class TestWalkRounding:
    """_walk's updated K against a from-scratch contraction per bump.

    The bound: K_k is a sum of m_k = n + sum_{j<=k} |supp(g_j - g_{j-1})| rounded
    products, against n for the fresh contraction, so elementwise
    |K_walk - K_fresh| <= 2 m_k eps B_k, where B_k is the translate matrix of
    |g_0| + sum_{j<=k} |g_j - g_{j-1}| over the tensor |c|.  To first order this
    makes the denominator mu0 K of each weight off by a relative
    r = (mu0 B_k) 2 m_k eps / (mu0 K) + 2 n eps, the normalized weights and the
    probe values by 2 max(r) + 4 n eps, rho by 2 max(r) + 8 n eps, each entry
    1_i - chi_t[i] K[i, t] of the gap by chi_t[i] (dK + r_i K)[i, t] and the ones
    row's entry t by the sum of those over i, each plus 4 n eps.  The factor 2 in
    the asserts covers second-order terms.
    """

    def check(self, h, mu0, f0, chain):
        n = h.n
        s, t, u, value = h.entries
        habs = FiniteHypergroup.from_entries(n, h.e, h.inv, s, t, u, np.abs(value))
        cfg = ApproximantConfig(mu0, f0, chain)
        walked = list(zip(_walk(h, mu0, chain.bumps), _net_steps(h, cfg)))
        fresh = list(fresh_walk(h, mu0, f0, chain.bumps))
        assert len(walked) == len(fresh) == len(chain)
        m, mass = n, np.abs(chain.bumps[0].v)
        for j, (((k, chi_t), (w, vals, gap, rho)), ref) in enumerate(zip(walked, fresh)):
            if j:
                d = chain.bumps[j].v - chain.bumps[j - 1].v
                m += np.count_nonzero(d)
                mass = mass + np.abs(d)
            k_ref, chi_ref, w_ref, vals_ref, gap_ref, rho_ref = ref
            dk = 2 * m * EPS * translates(habs, Function(mass))
            assert np.all(np.abs(k - k_ref) <= dk)
            r = (mu0.w @ dk) / (mu0.w @ k_ref) + 2 * n * EPS
            rel = 2 * r.max() + 4 * n * EPS
            assert np.all(np.abs(chi_t - chi_ref) <= 2 * r * chi_ref)
            assert np.all(np.abs(w - w_ref) <= 2 * rel * w_ref)
            assert np.all(np.abs(vals - vals_ref) <= 2 * rel * np.abs(vals_ref))
            assert abs(rho - rho_ref) <= 2 * (rel + 4 * n * EPS) * abs(rho_ref)
            spread = chi_ref[:, None] * (dk + r[:, None] * np.abs(k_ref))
            gap_tol = max(spread.max(), spread.sum(axis=0).max()) + 4 * n * EPS
            assert abs(gap - gap_ref) <= 2 * gap_tol
        return walked, fresh

    def test_bundled(self, bundled):
        rng = np.random.default_rng(22)
        for mu0, f0 in [(ones_measure(bundled.n), Function.ones(bundled.n)),
                        (Measure(rng.uniform(0.5, 2.0, bundled.n)),
                         Function(rng.uniform(0.1, 1.0, bundled.n)))]:
            self.check(bundled, mu0, f0, canonical_chain(bundled))

    def test_perturbed_tensor(self):
        # entries away from 0, 1/2 and 1, so the updates round: not a hypergroup
        # any more, but the walk and its derived quantities are defined all the same
        h = conjugacy_class_hypergroup(symmetric_group_table(4))
        rng = np.random.default_rng(23)
        c = dense(h) * rng.uniform(0.99, 1.01, (h.n,) * 3)
        h = FiniteHypergroup(h.n, h.e, h.inv, c)
        walked, fresh = self.check(h, Measure(rng.uniform(0.5, 2.0, h.n)),
                                   Function(rng.uniform(0.1, 1.0, h.n)), canonical_chain(h))
        assert any(not np.array_equal(k, ref[0]) for ((k, _), _), ref in zip(walked, fresh))

    @pytest.mark.parametrize("family,param", [("cyclic", "6"), ("conj-class", "s4"),
                                              ("product", "cyclic:3,theta2:0.3"),
                                              ("cosine-grid", "24")])
    def test_full_support_deltas(self, family, param):
        # symmetric non-indicator bumps on the whole space: every change between
        # consecutive bumps has full support, so every update adds a term for
        # every entry of c
        h = build_family(family, param)
        rng = np.random.default_rng(24)
        bumps = [symmetrize(h, Function(rng.uniform(0.2, 1.0, h.n))) for _ in range(4)]
        bumps.append(Function.indicator(h.n, [h.e]))
        chain = ShrinkingChain((range(h.n),) * 4 + ({h.e},), tuple(bumps))
        for a, b in zip(bumps, bumps[1:]):
            assert np.all(a.v != b.v)
        self.check(h, ones_measure(h.n), Function.ones(h.n), chain)

    def test_haar_net_holds_no_n3_temporary(self):
        # the walk, the bounds and v0 hold O(n^2) floats and read c's entries
        h = build_family("cosine-grid", "96")
        cfg = ApproximantConfig(ones_measure(h.n), Function.ones(h.n), canonical_chain(h))
        (chi, trace), peak = traced_peak(haar_net, h, cfg)
        assert len(trace) == h.n
        assert peak < 0.25 * 8 * h.n ** 3


def reference_net(h, mu0, f0, chain, conv_tol=1e-12):
    """The chain step expanded one einsum per probe and per diagnostic,
    independent of the package's convolution kernels."""
    n = h.n
    c = dense(h)
    ci = c[h.inv]
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
        rho = f0 @ np.einsum("s,t,stu->u", unif, chi_t, c) / (unif.sum() * (f0 @ chi_t))
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
