"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import time

import numpy as np

from hyperhaar import (
    ApproximantConfig,
    Function,
    H6Violation,
    Measure,
    build_family,
    canonical_chain,
    haar_net,
    invariance_residual,
    jewett_haar,
    pair,
    solve_invariance,
    validate,
)
from hyperhaar.approx import (
    approximant,
    bounds_certificate,
    default_probes,
    main_identity_gap,
    normalized_approximant,
    sandwich_ratio,
    symmetrize,
)
from hyperhaar.checks import identity_suite
from hyperhaar.core import FiniteHypergroup, convolve_function_measure, convolve_measures
from hyperhaar.oracles import cyclic_hypergroup, product_hypergroup, theta_hypergroup

from conftest import BUNDLED, dense


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _ones_cfg(h, **kwargs):
    return ApproximantConfig(Measure(np.ones(h.n), nonneg=True), Function.ones(h.n),
                             canonical_chain(h), **kwargs)


def _net(h):
    chi, _ = haar_net(h, _ones_cfg(h))
    return chi.w / chi.w.sum()


AGREEMENT_SPECS = (
    [("cyclic", str(n)) for n in (2, 3, 5, 16, 64)]
    + [("theta2", t) for t in ("0.1", "0.5", "1")]
    + [("conj-class", "s3")]
    + [("cosine-grid", str(m)) for m in (3, 5, 17, 65)]
    + [("product", "cyclic:2,theta2:0.5")]
)


def test_criterion_1_three_way_agreement():
    start = time.monotonic()
    worst = 0.0
    for spec in AGREEMENT_SPECS:
        h = build_family(*spec)
        net = _net(h)
        jw = jewett_haar(h).w
        jw = jw / jw.sum()
        sv = solve_invariance(h).w
        worst = max(worst, float(np.abs(net - jw).max()), float(np.abs(net - sv).max()),
                    float(np.abs(jw - sv).max()))
    elapsed = time.monotonic() - start
    _report("1 three-way agreement (sup diff %.2e, %.1fs)" % (worst, elapsed),
            worst <= 1e-10 and elapsed < 10.0)


def test_criterion_2_known_haar_values():
    ok = True
    s3 = _net(build_family("conj-class", "s3"))
    ok &= np.abs(s3 - np.array([1 / 6, 1 / 2, 1 / 3])).max() <= 1e-12
    for m in (3, 5, 17, 65):
        got = _net(build_family("cosine-grid", str(m)))
        expected = np.full(m, 2.0)
        expected[0] = expected[-1] = 1.0
        expected /= 2.0 * (m - 1)
        ok &= np.abs(got - expected).max() <= 1e-12
    for n in (2, 7, 16):
        ok &= np.abs(_net(cyclic_hypergroup(n)) - 1.0 / n).max() <= 1e-12
    for theta in (0.1, 0.5, 1.0):
        got = _net(theta_hypergroup(theta))
        expected = np.array([theta, 1.0]) / (1.0 + theta)
        ok &= np.abs(got - expected).max() <= 1e-12
    _report("2 known Haar values", bool(ok))


def test_criterion_3_identity_suites():
    rng = np.random.default_rng(2024)
    ok = True
    worst = 0.0
    for spec in BUNDLED.values():
        results = identity_suite(build_family(*spec), rng, trials=1000, tol=1e-12)
        ok &= all(r.passed for r in results)
        worst = max(worst, max(r.worst for r in results))
    for _ in range(50):
        if rng.random() < 0.5:
            h = theta_hypergroup(rng.uniform(0.05, 1.0))
        else:
            h = product_hypergroup(theta_hypergroup(rng.uniform(0.05, 1.0)),
                                   cyclic_hypergroup(int(rng.integers(2, 5))))
        results = identity_suite(h, rng, trials=20, tol=1e-12)
        ok &= all(r.passed for r in results)
        worst = max(worst, max(r.worst for r in results))
    _report("3 identity suites (worst %.2e)" % worst, bool(ok))


def test_criterion_4_terminal_reconstruction_gap():
    ok = True
    worst = 0.0
    for spec in BUNDLED.values():
        h = build_family(*spec)
        mu0 = Measure(np.ones(h.n), nonneg=True)
        chain = canonical_chain(h)
        # per-step gap sequence is recorded; terminal gap must vanish
        per_step = [[main_identity_gap(h, mu0, g, f) for f in default_probes(h.n)]
                    for g in chain.bumps]
        assert len(per_step) == len(chain)
        worst = max(worst, max(per_step[-1]))
        ok &= max(per_step[-1]) < 1e-12
    _report("4 terminal reconstruction gap (worst %.2e)" % worst, bool(ok))


def test_criterion_5_sandwich_ratio():
    rng = np.random.default_rng(5)
    ok = True
    worst_terminal = 0.0
    for spec in BUNDLED.values():
        h = build_family(*spec)
        mu0 = Measure(np.ones(h.n), nonneg=True)
        chain = canonical_chain(h)
        ones = Function.ones(h.n)
        terminal = chain.bumps[-1]
        mus = [Measure.dirac(h.n, s) for s in h.points()]
        mus += [Measure(rng.uniform(0.01, 1, h.n), nonneg=True) for _ in range(5)]
        for f in default_probes(h.n):
            for mu in mus:
                worst_terminal = max(worst_terminal,
                                     abs(sandwich_ratio(h, mu0, terminal, f, mu) - 1.0))
        # nonterminal bumps: the (1-eps, 1+eps) window certified from the
        # achieved reconstruction gaps holds at every step once those gaps
        # meet the window's requirement (trivially including the terminal step)
        for g in chain.bumps:
            chi_t = approximant(h, mu0, g)
            gap1 = main_identity_gap(h, mu0, g, ones)
            for t in h.points():
                f = Function.indicator(h.n, [t])
                gapf = main_identity_gap(h, mu0, g, f)
                for mu in mus[:h.n + 2]:
                    rho = sandwich_ratio(h, mu0, g, f, mu)
                    eps = gap1 + gapf * pair(ones, convolve_measures(h, mu, chi_t)) \
                        / (mu.norm * pair(f, chi_t))
                    ok &= abs(rho - 1.0) <= eps + 1e-12
    ok &= worst_terminal <= 1e-12
    _report("5 sandwich ratio (terminal dev %.2e)" % worst_terminal, bool(ok))


def test_criterion_6_bounds_at_every_step():
    ok = True
    for spec in BUNDLED.values():
        h = build_family(*spec)
        cfg = _ones_cfg(h)
        for g in cfg.chain.bumps:
            for f in default_probes(h.n):
                ok &= bounds_certificate(h, cfg, g, f).passed
    _report("6 dominating-measure bounds at every step", bool(ok))


def test_criterion_7_scale_invariance():
    rng = np.random.default_rng(7)
    ok = True
    for spec in BUNDLED.values():
        h = build_family(*spec)
        cfg = _ones_cfg(h)
        for _ in range(5):
            g = symmetrize(h, Function(rng.uniform(0.1, 1.0, h.n)))
            base = normalized_approximant(h, cfg, g)
            for k in (0.5, 2.0, 10.0):
                scaled = normalized_approximant(h, cfg, Function(k * g.v))
                ok &= np.abs(scaled.w - base.w).max() <= 1e-12
    _report("7 bump scale invariance", bool(ok))


def test_criterion_8_theorem_properties():
    ok = True
    worst = 0.0
    for spec in BUNDLED.values():
        h = build_family(*spec)
        chi, _ = haar_net(h, _ones_cfg(h))
        residual = invariance_residual(h, chi)
        worst = max(worst, residual)
        ok &= residual < 1e-10
        ok &= bool(np.all(chi.w > 0))
        # involuted output is right invariant: <f * dirac_s, chi-check> = <f, chi-check>
        chick = Measure(chi.w[h.inv], nonneg=True)
        for s in h.points():
            e_s = Measure.dirac(h.n, s)
            for f in default_probes(h.n):
                lhs = pair(convolve_function_measure(h, f, e_s), chick)
                ok &= abs(lhs - pair(f, chick)) <= 1e-10
    _report("8 theorem properties (residual %.2e)" % worst, bool(ok))


def test_criterion_9_negative_controls():
    ok = True
    report = validate(theta_hypergroup(0.0))
    ok &= not report.checks["H6"].passed
    ok &= report.checks["H6"].witness == (1, 1)
    z4 = cyclic_hypergroup(4)
    c = dense(z4)
    c[1, 1, 2] = 0.9
    report = validate(FiniteHypergroup(4, 0, z4.inv, c))
    ok &= not report.checks["H1"].passed
    ok &= report.checks["H1"].witness == (1, 1)
    ok &= not report.checks["associativity"].passed
    try:
        jewett_haar(theta_hypergroup(0.0))
        ok = False
    except H6Violation:
        pass
    _report("9 negative controls", bool(ok))


def test_criterion_10_mu0_independence():
    rng = np.random.default_rng(10)
    ok = True
    worst = 0.0
    for spec in BUNDLED.values():
        h = build_family(*spec)
        terminal = Function.indicator(h.n, [h.e])
        ref = approximant(h, Measure(np.ones(h.n), nonneg=True), terminal)
        for _ in range(20):
            mu0 = Measure(rng.uniform(0.05, 5.0, h.n), nonneg=True)
            got = approximant(h, mu0, terminal)
            dev = float(np.abs(got.w - ref.w).max())
            worst = max(worst, dev)
            ok &= dev <= 1e-12
    _report("10 reference-measure independence (worst %.2e)" % worst, bool(ok))
