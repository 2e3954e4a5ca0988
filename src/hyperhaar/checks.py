"""Randomized identity and convergence suites, shared by the CLI and tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .core import (
    FiniteHypergroup,
    Function,
    Measure,
    convolve_function_measure,
    convolve_measure_function,
    convolve_measures,
    involute_function,
    involute_measure,
    pair,
)
from .approx import _bounds, _gap, _ratio, _step, canonical_chain, default_probes

__all__ = ["SuiteResult", "identity_suite", "terminal_gap_suite",
           "terminal_ratio_suite", "bounds_suite", "run_all_suites"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    detail: str = ""


def identity_suite(h: FiniteHypergroup, rng: np.random.Generator,
                   trials: int = 1000, tol: float = 1e-12) -> List[SuiteResult]:
    """Involution and pairing identities of the convolution algebra,
    checked on random signed measures and functions."""
    worst = {key: 0.0 for key in (
        "(mu*f)ck = fck*muck", "(f*mu)ck = muck*fck", "<mu*f,nu> = <nu*fck,mu>",
        "<mu*f,sigma> = <f,muck*sigma>", "<f*mu,sigma> = <f,sigma*muck>",
        "(mu*nu)*f = mu*(nu*f)", "f*(mu*nu) = (f*mu)*nu",
        "(mu*nu)ck = nuck*muck")}
    n = h.n
    for _ in range(trials):
        mu = Measure(rng.uniform(-1, 1, n))
        nu = Measure(rng.uniform(-1, 1, n))
        sigma = Measure(rng.uniform(-1, 1, n))
        f = Function(rng.uniform(-1, 1, n))

        muck = involute_measure(h, mu)
        nuck = involute_measure(h, nu)
        fck = involute_function(h, f)
        muf = convolve_measure_function(h, mu, f)
        fmu = convolve_function_measure(h, f, mu)
        munu = convolve_measures(h, mu, nu)

        def hit(key, a, b):
            worst[key] = max(worst[key], float(np.max(np.abs(np.asarray(a) - np.asarray(b)))))

        hit("(mu*f)ck = fck*muck", involute_function(h, muf).v,
            convolve_function_measure(h, fck, muck).v)
        hit("(f*mu)ck = muck*fck", involute_function(h, fmu).v,
            convolve_measure_function(h, muck, fck).v)
        hit("<mu*f,nu> = <nu*fck,mu>", pair(muf, nu),
            pair(convolve_measure_function(h, nu, fck), mu))
        hit("<mu*f,sigma> = <f,muck*sigma>", pair(muf, sigma),
            pair(f, convolve_measures(h, muck, sigma)))
        hit("<f*mu,sigma> = <f,sigma*muck>", pair(fmu, sigma),
            pair(f, convolve_measures(h, sigma, muck)))
        hit("(mu*nu)*f = mu*(nu*f)", convolve_measure_function(h, munu, f).v,
            convolve_measure_function(h, mu, convolve_measure_function(h, nu, f)).v)
        hit("f*(mu*nu) = (f*mu)*nu", convolve_function_measure(h, f, munu).v,
            convolve_function_measure(h, fmu, nu).v)
        hit("(mu*nu)ck = nuck*muck", involute_measure(h, munu).w,
            convolve_measures(h, nuck, muck).w)
    return [SuiteResult(k, v <= tol, v) for k, v in worst.items()]


def terminal_gap_suite(h: FiniteHypergroup, tol: float = 1e-12) -> SuiteResult:
    """Reconstruction gap at the terminal bump 1_{e} is exact."""
    p = np.array([f.v for f in default_probes(h.n)])
    worst = _gap(*_step(h, Measure(np.ones(h.n)), Function.indicator(h.n, [h.e])), p)
    return SuiteResult("terminal reconstruction gap", worst <= tol, worst)


def terminal_ratio_suite(h: FiniteHypergroup, rng: np.random.Generator,
                         trials: int = 25, tol: float = 1e-12) -> SuiteResult:
    """Sandwich ratio at the terminal bump equals 1 for all translates."""
    chi_t = _step(h, Measure(np.ones(h.n)), Function.indicator(h.n, [h.e]))[1]
    p = np.array([f.v for f in default_probes(h.n)])
    mus = np.vstack([np.eye(h.n), rng.uniform(0.0, 1.0, (trials, h.n)) + 1e-3])
    worst = float(np.abs(_ratio(h, chi_t, p, mus) - 1.0).max())
    return SuiteResult("terminal sandwich ratio", worst <= tol, worst)


def bounds_suite(h: FiniteHypergroup) -> SuiteResult:
    """Greedy two-sided bounds hold at every chain step for every probe."""
    mu0 = Measure(np.ones(h.n))
    f0 = Function.ones(h.n)
    probes = default_probes(h.n)
    a, b = _bounds(h, f0, probes)
    p = np.array([f.v for f in probes])
    chis = (_step(h, mu0, g)[1] for g in canonical_chain(h).bumps)
    vals = np.array([p @ (chi_t / (f0.v @ chi_t)) for chi_t in chis])
    return SuiteResult("dominating-measure bounds", bool(np.all((a < vals) & (vals < b))),
                       float(np.minimum(vals - a, b - vals).min()), "min margin to either bound")


def run_all_suites(h: FiniteHypergroup, seed: int = 0, trials: int = 1000) -> List[SuiteResult]:
    rng = np.random.default_rng(seed)
    results = identity_suite(h, rng, trials)
    results.append(terminal_gap_suite(h))
    results.append(terminal_ratio_suite(h, rng))
    results.append(bounds_suite(h))
    return results
