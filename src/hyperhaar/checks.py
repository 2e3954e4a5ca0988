"""Randomized identity and convergence suites, shared by the CLI and tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .core import (
    _BLOCK_FLOATS,
    EXACT_TOL,
    FiniteHypergroup,
    Function,
    Measure,
    _contract_s_stack,
    _contract_u_stack,
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


def identity_suite(h: FiniteHypergroup, rng: np.random.Generator,
                   trials: int = 1000, tol: float = EXACT_TOL) -> List[SuiteResult]:
    """Involution and pairing identities of the convolution algebra,
    checked on random signed measures and functions.

    Trials are stacked into blocks of b rows, b set by _BLOCK_FLOATS (a trial
    holds at most two n x n contractions, or a contraction and the product of
    one slab of c, and 48 n-vectors), and each block is drawn as one (b, 4, n)
    array: the same generator stream as drawing mu, nu, sigma and f one trial
    at a time.  A NaN on either side of an identity makes its worst NaN, which
    fails.
    """
    worst = dict.fromkeys((
        "(mu*f)ck = fck*muck", "(f*mu)ck = muck*fck", "<mu*f,nu> = <nu*fck,mu>",
        "<mu*f,sigma> = <f,muck*sigma>", "<f*mu,sigma> = <f,sigma*muck>",
        "(mu*nu)*f = mu*(nu*f)", "f*(mu*nu) = (f*mu)*nu",
        "(mu*nu)ck = nuck*muck"), 0.0)
    block = max(1, _BLOCK_FLOATS // (h.n * (2 * h.n + 48)))
    for start in range(0, trials, block):
        draws = rng.uniform(-1, 1, (min(block, trials - start), 4, h.n))
        for key, (a, b) in zip(worst, _identity_sides(h, *draws.transpose(1, 0, 2))):
            worst[key] = float(np.maximum(worst[key], np.abs(a - b).max()))
    return [SuiteResult(k, v <= tol, v) for k, v in worst.items()]


def _identity_sides(h: FiniteHypergroup, mu, nu, sigma, f) -> tuple:
    """Both sides of each identity for the rows of the (b, n) stacks mu, nu, sigma
    and f, from eight contractions of c with one stack each: over s for the left
    factors of the four measure products, over u for f, fck, f * mu and nu * f."""
    inv, back = h.inv, np.argsort(h.inv)  # m[inv[s]] = mu[s] for m = mu[:, back]
    muck, nuck, fck = mu[:, inv], nu[:, inv], f[:, inv]

    def mf(mu, k):  # mu * f, from the contraction k of f over u
        return (mu[:, back][:, None, :] @ k)[:, 0, :]

    def fm(k, mu):  # f * mu
        return (k @ mu[:, back][:, :, None])[:, :, 0]

    munu, muck_sigma, sigma_muck, nuck_muck = (  # x * y: x contracted over s, then with y
        (y[:, None, :] @ _contract_s_stack(h, x))[:, 0, :]
        for x, y in ((mu, nu), (muck, sigma), (sigma, muck), (nuck, muck)))
    k_f, k_fck = _contract_u_stack(h, f), _contract_u_stack(h, fck)
    muf, fmu, nuf, munu_f, f_munu = mf(mu, k_f), fm(k_f, mu), mf(nu, k_f), mf(munu, k_f), fm(k_f, munu)
    fck_muck, muck_fck, nu_fck = fm(k_fck, muck), mf(muck, k_fck), mf(nu, k_fck)
    del k_f, k_fck  # a trial holds two n x n contractions at once, not four
    k_fmu, k_nuf = _contract_u_stack(h, fmu), _contract_u_stack(h, nuf)
    return ((muf[:, inv], fck_muck),
            (fmu[:, inv], muck_fck),
            ((muf * nu).sum(axis=1), (nu_fck * mu).sum(axis=1)),
            ((muf * sigma).sum(axis=1), (f * muck_sigma).sum(axis=1)),
            ((fmu * sigma).sum(axis=1), (f * sigma_muck).sum(axis=1)),
            (munu_f, mf(mu, k_nuf)),
            (f_munu, fm(k_fmu, nu)),
            (munu[:, inv], nuck_muck))


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


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as an inf or nan worst
def run_all_suites(h: FiniteHypergroup, seed: int = 0, trials: int = 1000) -> List[SuiteResult]:
    results = identity_suite(h, np.random.default_rng(seed), trials)
    results.append(terminal_gap_suite(h))
    results.append(terminal_ratio_suite(h))
    results.append(bounds_suite(h))
    return results
