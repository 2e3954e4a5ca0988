"""The lemma suites: identity_suite and run_all_suites against the per-trial loop
they replaced, and the memory the suites take."""

import numpy as np
import pytest

from hyperhaar import FiniteHypergroup, build_family, checks
from hyperhaar.approx import _gap, _step, default_probes
from hyperhaar.checks import (bounds_suite, identity_suite, run_all_suites, terminal_gap_suite,
                             terminal_ratio_suite)
from hyperhaar.core import EXACT_TOL, Function, Measure
from hyperhaar.oracles import cyclic_hypergroup

from conftest import BUNDLED, dense, traced_peak

IDENTITIES = [
    "(mu*f)ck = fck*muck", "(f*mu)ck = muck*fck", "<mu*f,nu> = <nu*fck,mu>",
    "<mu*f,sigma> = <f,muck*sigma>", "<f*mu,sigma> = <f,sigma*muck>",
    "(mu*nu)*f = mu*(nu*f)", "f*(mu*nu) = (f*mu)*nu", "(mu*nu)ck = nuck*muck"]


def reference_identity_suite(h, rng, trials=1000, tol=1e-12):
    """The per-trial loop identity_suite used to be, each convolution written as
    the single-vector formula it had then."""
    n, c, inv = h.n, dense(h), h.inv

    def mm(mu, nu):
        return np.einsum("s,t,stu->u", mu, nu, c)

    def mf(mu, f):
        return mu @ (c @ f)[inv]

    def fm(f, mu):
        return (c @ f)[:, inv] @ mu

    worst = dict.fromkeys(IDENTITIES, 0.0)
    for _ in range(trials):
        mu, nu, sigma, f = (rng.uniform(-1, 1, n) for _ in range(4))
        muck, nuck, fck = mu[inv], nu[inv], f[inv]
        muf, fmu, munu = mf(mu, f), fm(f, mu), mm(mu, nu)

        def hit(key, a, b):
            worst[key] = max(worst[key], float(np.max(np.abs(np.asarray(a) - np.asarray(b)))))

        hit(IDENTITIES[0], muf[inv], fm(fck, muck))
        hit(IDENTITIES[1], fmu[inv], mf(muck, fck))
        hit(IDENTITIES[2], muf @ nu, mf(nu, fck) @ mu)
        hit(IDENTITIES[3], muf @ sigma, f @ mm(muck, sigma))
        hit(IDENTITIES[4], fmu @ sigma, f @ mm(sigma, muck))
        hit(IDENTITIES[5], mf(munu, f), mf(mu, mf(nu, f)))
        hit(IDENTITIES[6], fm(f, munu), fm(fmu, nu))
        hit(IDENTITIES[7], munu[inv], mm(nuck, muck))
    return [(k, v <= tol, v) for k, v in worst.items()]


def reference_all_suites(h, seed, trials):
    """run_all_suites as it was: the per-trial identity loop, then a terminal
    sandwich ratio over the diracs and 25 random measures drawn after it."""
    rng = np.random.default_rng(seed)
    results = reference_identity_suite(h, rng, trials)
    gap = terminal_gap_suite(h)
    chi_t = _step(h, Measure(np.ones(h.n)), Function.indicator(h.n, [h.e]))[1]
    p = np.array([f.v for f in default_probes(h.n)])
    mus = np.vstack([np.eye(h.n), rng.uniform(0.0, 1.0, (25, h.n)) + 1e-3])
    conv = np.einsum("js,t,stu->ju", mus, chi_t, dense(h))
    ratio = (p @ conv.T) / (mus.sum(axis=1) * (p @ chi_t)[:, None])
    worst = float(np.abs(ratio - 1.0).max())
    bounds = bounds_suite(h)
    return results + [(gap.name, gap.passed, gap.worst),
                      ("terminal sandwich ratio", worst <= 1e-12, worst),
                      (bounds.name, bounds.passed, bounds.worst)]


def perturbed_z4():
    h = cyclic_hypergroup(4)
    c = dense(h) * np.random.default_rng(20).uniform(0.9, 1.1, (h.n,) * 3)
    return FiniteHypergroup(4, 0, h.inv, c)


PARITY = [(name, spec, i % 4) for i, (name, spec) in enumerate(sorted(BUNDLED.items()))] + [
    ("Z12", ("cyclic", "12"), 0),
    ("cosine-16", ("cosine-grid", "16"), 1),
    ("cosine-24", ("cosine-grid", "24"), 2),
    ("Z3xcosine-4", ("product", "cyclic:3,cosine-grid:4"), 3),
]


def assert_parity(got, ref):
    assert [(r.name, r.passed) for r in got] == [(name, passed) for name, passed, _ in ref]
    for r, (_, _, worst) in zip(got, ref):
        assert abs(r.worst - worst) <= max(1e-14, 1e-12 * abs(worst)), r.name


class TestCheckLemmasParity:
    @pytest.mark.parametrize("name,spec,seed", PARITY, ids=[p[0] for p in PARITY])
    def test_families(self, name, spec, seed):
        h = build_family(*spec)
        assert_parity(run_all_suites(h, seed, 1000), reference_all_suites(h, seed, 1000))

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_z4(self, seed):
        h = perturbed_z4()
        got = run_all_suites(h, seed, 1000)
        assert not all(r.passed for r in got)
        assert_parity(got, reference_all_suites(h, seed, 1000))


class TestIdentitySuite:
    def test_nan_entry_fails_every_identity(self):
        # every identity convolves on both sides, and every convolution reads all of c
        h = cyclic_hypergroup(4)
        c = dense(h)
        c[1, 2, 3] = np.nan
        results = identity_suite(FiniteHypergroup(4, 0, h.inv, c), np.random.default_rng(0), 20)
        assert [r.name for r in results] == IDENTITIES
        assert all(not r.passed and np.isnan(r.worst) for r in results)

    def test_zero_trials(self, bundled):
        results = identity_suite(bundled, np.random.default_rng(0), trials=0)
        assert [(r.name, r.passed, r.worst) for r in results] == [(k, True, 0.0) for k in IDENTITIES]

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_blocks_match_one_block(self, monkeypatch, block):
        h = build_family("cosine-grid", "5")
        one = np.random.default_rng(4)
        whole = identity_suite(h, one, trials=20)
        monkeypatch.setattr(checks, "_BLOCK_FLOATS", block * h.n * (2 * h.n + 48))
        split = np.random.default_rng(4)
        assert identity_suite(h, split, trials=20) == whole
        assert split.bit_generator.state == one.bit_generator.state

    def test_draws_are_the_per_trial_stream(self):
        h = build_family("cyclic", "8")
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        identity_suite(h, rng, trials=37)
        for _ in range(37 * 4):
            ref.uniform(-1, 1, h.n)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_peak_does_not_grow_with_trials(self):
        h = build_family("cosine-grid", "48")
        peaks = [traced_peak(identity_suite, h, np.random.default_rng(0), trials)[1]
                 for trials in (1000, 4000)]
        assert peaks[1] <= 1.05 * peaks[0]
        assert max(peaks) <= 8 * checks._BLOCK_FLOATS

    def test_peak_below_half_an_n3_array_when_c_spans_slabs(self):
        # c is 8 slabs at n = 256; the suite holds one slab and the block's stacks
        h = build_family("cosine-grid", "256")
        results, peak = traced_peak(identity_suite, h, np.random.default_rng(0), 20)
        assert all(r.passed for r in results)
        assert peak < 0.5 * 8 * h.n ** 3


# dirac_1 * dirac_e != dirac_1 (H4 fails), so the terminal gap is 0.4, not 0
NOT_INVARIANT = FiniteHypergroup(2, 0, [0, 1], [[[1.0, 0.0], [0.0, 1.0]],
                                                [[0.2, 0.8], [0.5, 0.5]]])
GAP_CASES = [(name, lambda spec=spec: build_family(*spec))
             for name, spec in sorted(BUNDLED.items())] + [
    ("cosine-24", lambda: build_family("cosine-grid", "24")),
    ("perturbed-Z4", perturbed_z4),
    ("not-invariant", lambda: NOT_INVARIANT),
]


@pytest.mark.parametrize("make", [m for _, m in GAP_CASES], ids=[name for name, _ in GAP_CASES])
def test_terminal_gap_suite_is_gap_over_stacked_probes(make):
    # the O(n^2) probe gap the suite reads against _gap over the (n+1) x n probe matrix
    h = make()
    p = np.array([f.v for f in default_probes(h.n)])
    ref = _gap(*_step(h, Measure(np.ones(h.n)), Function.indicator(h.n, [h.e])), p)
    got = terminal_gap_suite(h)
    assert abs(got.worst - ref) <= 4 * h.n * np.finfo(float).eps * max(1.0, ref)
    assert got.passed == (ref <= EXACT_TOL)


def test_terminal_ratio_suite_peak_below_quarter_n3():
    # n diracs against one approximant: the kernel contracts the approximant
    # first instead of holding n^2 floats per dirac
    h = build_family("cosine-grid", "48")
    result, peak = traced_peak(terminal_ratio_suite, h)
    assert result.passed
    assert peak < 0.25 * 8 * h.n ** 3
