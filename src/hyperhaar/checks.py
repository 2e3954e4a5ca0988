"""Randomized identity and convergence suites, shared by the CLI and tests."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List

import numpy as np

from . import core
from .core import EXACT_TOL, FiniteHypergroup, Function, Measure
from .approx import _bounds, _probe_gap, _probes, _ratio, _step, _walk, canonical_chain

__all__ = ["SuiteResult", "identity_suite", "terminal_gap_suite",
           "terminal_ratio_suite", "bounds_suite", "run_all_suites"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    detail: str = ""


def identity_suite(h: FiniteHypergroup, rng: np.random.Generator,
                   trials: int = 1000) -> List[SuiteResult]:
    """Involution and pairing identities of the convolution algebra,
    checked on random signed measures and functions.

    Trials are stacked into blocks of b rows, b set by core._BLOCK_FLOATS (a
    trial holds at most two n x n contractions and 48 n-vectors), and each block
    is drawn as one (b, 4, n) array: the same generator stream as drawing mu,
    nu, sigma and f one trial at a time.  While c's n^3 floats fit in the same
    budget (n <= 128) the suite scatters the dense c once, and each of a block's
    eight contractions is one BLAS product with it; past that each is one
    _contract of a stack, O(nnz) a trial, with no n^3 term in time or memory.
    A NaN on either side of an identity makes its worst NaN, which fails.
    """
    _check_trials(trials)
    worst = dict.fromkeys((
        "(mu*f)ck = fck*muck", "(f*mu)ck = muck*fck", "<mu*f,nu> = <nu*fck,mu>",
        "<mu*f,sigma> = <f,muck*sigma>", "<f*mu,sigma> = <f,sigma*muck>",
        "(mu*nu)*f = mu*(nu*f)", "f*(mu*nu) = (f*mu)*nu",
        "(mu*nu)ck = nuck*muck"), 0.0)
    n, contract = h.n, partial(core._contract, h)
    if n ** 3 <= core._BLOCK_FLOATS:  # the dense c, scattered once for every block
        c = np.zeros((n,) * 3)
        c[h.entries[:3]] = h.entries[3]
        over = {0: c.reshape(n, -1), 2: c.reshape(-1, n).T}  # (n, n^2) views, over s and over u
        contract = lambda x, axis: (x @ over[axis]).reshape(len(x), n, n)
    block = max(1, core._BLOCK_FLOATS // (n * (2 * n + 48)))
    for start in range(0, trials, block):
        draws = rng.uniform(-1, 1, (min(block, trials - start), 4, n))
        for key, (a, b) in zip(worst, _identity_sides(h, contract, *draws.transpose(1, 0, 2))):
            worst[key] = float(np.maximum(worst[key], np.abs(a - b).max()))
    return [SuiteResult(k, v <= EXACT_TOL, v) for k, v in worst.items()]


def _check_trials(trials: int) -> None:
    """The rule on trials, for identity_suite, run_all_suites and the CLI's --trials."""
    if not trials >= 1:
        raise ValueError("trials must be at least 1")


def _identity_sides(h: FiniteHypergroup, contract, mu, nu, sigma, f) -> tuple:
    """Both sides of each identity for the rows of the (b, n) stacks mu, nu, sigma
    and f, from eight contractions contract(x, axis) of c with one stack each:
    over s for the left factors of the four measure products, over u for f, fck,
    f * mu and nu * f."""
    inv, back = h.inv, np.argsort(h.inv)  # m[inv[s]] = mu[s] for m = mu[:, back]
    muck, nuck, fck = mu[:, inv], nu[:, inv], f[:, inv]

    def mf(mu, k):  # mu * f, from the contraction k of f over u
        return (mu[:, back][:, None, :] @ k)[:, 0, :]

    def fm(k, mu):  # f * mu
        return (k @ mu[:, back][:, :, None])[:, :, 0]

    munu, muck_sigma, sigma_muck, nuck_muck = (  # x * y: x contracted over s, then with y
        (y[:, None, :] @ contract(x, 0))[:, 0, :]
        for x, y in ((mu, nu), (muck, sigma), (sigma, muck), (nuck, muck)))
    k_f, k_fck = contract(f, 2), contract(fck, 2)
    muf, fmu, nuf, munu_f, f_munu = mf(mu, k_f), fm(k_f, mu), mf(nu, k_f), mf(munu, k_f), fm(k_f, munu)
    fck_muck, muck_fck, nu_fck = fm(k_fck, muck), mf(muck, k_fck), mf(nu, k_fck)
    del k_f, k_fck  # a trial holds two n x n contractions at once, not four
    k_fmu, k_nuf = contract(fmu, 2), contract(nuf, 2)
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
    p = _probes(h.n)
    worst = float(np.abs(_ratio(h, chi_t, p, np.eye(h.n)) - 1.0).max())
    return SuiteResult("terminal sandwich ratio", worst <= EXACT_TOL, worst)


def bounds_suite(h: FiniteHypergroup) -> SuiteResult:
    """Greedy two-sided bounds hold at every chain step for every probe."""
    mu0 = Measure(np.ones(h.n))
    f0 = Function.ones(h.n)
    p = _probes(h.n)
    a, b = _bounds(h, f0, p)
    chis = (chi_t for _, chi_t in _walk(h, mu0, canonical_chain(h).bumps))
    vals = np.array([p @ (chi_t / (f0.v @ chi_t)) for chi_t in chis])
    return SuiteResult("dominating-measure bounds", bool(np.all((a < vals) & (vals < b))),
                       float(np.minimum(vals - a, b - vals).min()), "min margin to either bound")


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as an inf or nan worst
def run_all_suites(h: FiniteHypergroup, seed: int = 0, trials: int = 1000) -> List[SuiteResult]:
    return identity_suite(h, np.random.default_rng(seed), trials) + [
        terminal_gap_suite(h), terminal_ratio_suite(h), bounds_suite(h)]
