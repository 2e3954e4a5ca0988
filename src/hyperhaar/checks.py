"""Randomized identity and convergence suites, shared by the CLI and tests."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List

import numpy as np

from .core import (
    EXACT_TOL,
    FiniteHypergroup,
    Function,
    Measure,
    _convolve_function_measure,
    _convolve_measure_function,
    _convolve_measures,
)
from .approx import _bounds, _probe_gap, _ratio, _step, _walk, canonical_chain, default_probes

__all__ = ["SuiteResult", "identity_suite", "terminal_gap_suite",
           "terminal_ratio_suite", "bounds_suite", "run_all_suites"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    detail: str = ""


# Temporaries of one block of identity_suite trials stay below this many floats.
_BLOCK_FLOATS = 2 ** 21


def identity_suite(h: FiniteHypergroup, rng: np.random.Generator,
                   trials: int = 1000, tol: float = EXACT_TOL) -> List[SuiteResult]:
    """Involution and pairing identities of the convolution algebra,
    checked on random signed measures and functions.

    Trials are stacked into blocks of b rows, b set by _BLOCK_FLOATS (a trial
    holds one n x n kernel temporary and at most 48 n-vectors), and each block
    is drawn as one (b, 4, n) array: the same generator stream as drawing mu,
    nu, sigma and f one trial at a time.  A NaN on either side of an identity
    makes its worst NaN, which fails.
    """
    n, inv = h.n, h.inv
    mm, mf, fm = (partial(kernel, h) for kernel in (
        _convolve_measures, _convolve_measure_function, _convolve_function_measure))

    def dot(a, b):
        return (a * b).sum(axis=1)

    worst = dict.fromkeys((
        "(mu*f)ck = fck*muck", "(f*mu)ck = muck*fck", "<mu*f,nu> = <nu*fck,mu>",
        "<mu*f,sigma> = <f,muck*sigma>", "<f*mu,sigma> = <f,sigma*muck>",
        "(mu*nu)*f = mu*(nu*f)", "f*(mu*nu) = (f*mu)*nu",
        "(mu*nu)ck = nuck*muck"), 0.0)
    block = max(1, _BLOCK_FLOATS // (n * (n + 48)))
    for start in range(0, trials, block):
        draws = rng.uniform(-1, 1, (min(block, trials - start), 4, n))
        mu, nu, sigma, f = draws.transpose(1, 0, 2)
        muck, nuck, fck = mu[:, inv], nu[:, inv], f[:, inv]
        muf, fmu, munu = mf(mu, f), fm(f, mu), mm(mu, nu)
        sides = (
            (muf[:, inv], fm(fck, muck)),
            (fmu[:, inv], mf(muck, fck)),
            (dot(muf, nu), dot(mf(nu, fck), mu)),
            (dot(muf, sigma), dot(f, mm(muck, sigma))),
            (dot(fmu, sigma), dot(f, mm(sigma, muck))),
            (mf(munu, f), mf(mu, mf(nu, f))),
            (fm(f, munu), fm(fmu, nu)),
            (munu[:, inv], mm(nuck, muck)),
        )
        for key, (a, b) in zip(worst, sides):
            worst[key] = float(np.maximum(worst[key], np.abs(a - b).max()))
    return [SuiteResult(k, v <= tol, v) for k, v in worst.items()]


def terminal_gap_suite(h: FiniteHypergroup) -> SuiteResult:
    """Reconstruction gap at the terminal bump 1_{e} is exact."""
    worst = _probe_gap(*_step(h, Measure(np.ones(h.n)), Function.indicator(h.n, [h.e])))
    return SuiteResult("terminal reconstruction gap", worst <= EXACT_TOL, worst)


def terminal_ratio_suite(h: FiniteHypergroup) -> SuiteResult:
    """Sandwich ratio at the terminal bump equals 1 for all translates.

    The diracs suffice: for mu >= 0 both <f, mu * chi> and |mu| are linear in mu,
    so the ratio for mu is the mu-weighted mean sum_s (mu_s / |mu|) R_s of the
    dirac ratios R_s, and no nonnegative measure lies farther from 1 than the
    worst dirac.
    """
    chi_t = _step(h, Measure(np.ones(h.n)), Function.indicator(h.n, [h.e]))[1]
    p = np.array([f.v for f in default_probes(h.n)])
    worst = float(np.abs(_ratio(h, chi_t, p, np.eye(h.n)) - 1.0).max())
    return SuiteResult("terminal sandwich ratio", worst <= EXACT_TOL, worst)


def bounds_suite(h: FiniteHypergroup) -> SuiteResult:
    """Greedy two-sided bounds hold at every chain step for every probe."""
    mu0 = Measure(np.ones(h.n))
    f0 = Function.ones(h.n)
    probes = default_probes(h.n)
    a, b = _bounds(h, f0, probes)
    p = np.array([f.v for f in probes])
    chis = (chi_t for _, chi_t in _walk(h, mu0, canonical_chain(h).bumps))
    vals = np.array([p @ (chi_t / (f0.v @ chi_t)) for chi_t in chis])
    return SuiteResult("dominating-measure bounds", bool(np.all((a < vals) & (vals < b))),
                       float(np.minimum(vals - a, b - vals).min()), "min margin to either bound")


def run_all_suites(h: FiniteHypergroup, seed: int = 0, trials: int = 1000) -> List[SuiteResult]:
    results = identity_suite(h, np.random.default_rng(seed), trials)
    results.append(terminal_gap_suite(h))
    results.append(terminal_ratio_suite(h))
    results.append(bounds_suite(h))
    return results
