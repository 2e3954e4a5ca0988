"""Constructive invariant-measure pipeline.

The reference measure mu0 is reweighted by 1/(mu0 * g) for a symmetric bump g
supported near the identity; shrinking the bump support down a finite chain of
identity neighborhoods drives the normalized approximants to the invariant
measure.  In the discrete topology {e} is itself a neighborhood, so the chain
attains the limit at its terminal step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .core import (
    CERTIFY_TOL,
    EXACT_TOL,
    FiniteHypergroup,
    Function,
    Measure,
    _convolve_measures,
    _dominating_measure,
    find_dominating_measure,
    pair,
    translates,
)
from .oracles import invariance_residual

__all__ = [
    "ZeroDenominator",
    "NotConverged",
    "ShrinkingChain",
    "ApproximantConfig",
    "TraceStep",
    "ConvergenceTrace",
    "BoundsCertificate",
    "symmetrize",
    "approximant",
    "normalized_approximant",
    "canonical_chain",
    "main_identity_gap",
    "sandwich_ratio",
    "bounds_certificate",
    "default_probes",
    "haar_net",
]


class ZeroDenominator(Exception):
    """(mu0 * g) vanishes somewhere; g violates its positivity precondition."""


class NotConverged(Exception):
    """Chain exhausted with invariance residual above the certification threshold."""


@dataclass(frozen=True)
class ShrinkingChain:
    """Decreasing identity neighborhoods with symmetric bumps on each."""

    neighborhoods: tuple
    bumps: tuple

    def __post_init__(self):
        object.__setattr__(self, "neighborhoods",
                           tuple(frozenset(u) for u in self.neighborhoods))
        object.__setattr__(self, "bumps", tuple(self.bumps))
        if len(self.neighborhoods) != len(self.bumps):
            raise ValueError("need one bump per neighborhood")

    def __len__(self) -> int:
        return len(self.neighborhoods)

    def check(self, h: FiniteHypergroup) -> None:
        prev = None
        for k, (u, g) in enumerate(zip(self.neighborhoods, self.bumps)):
            if h.e not in u:
                raise ValueError(f"neighborhood {k} does not contain the identity")
            if frozenset(int(h.inv[p]) for p in u) != u:
                raise ValueError(f"neighborhood {k} is not involution-stable")
            if prev is not None and not u <= prev:
                raise ValueError(f"neighborhood {k} is not contained in its predecessor")
            if not (g.is_nonneg() and g.sup_norm > 0):
                raise ValueError(f"bump {k} must be nonnegative and nonzero")
            if not g.supported_in(u):
                raise ValueError(f"bump {k} not supported in its neighborhood")
            if not _symmetric(h, g):
                raise ValueError(f"bump {k} is not symmetric")
            if g.v[h.e] <= 0:
                raise ValueError(f"bump {k} vanishes at the identity")
            prev = u
        if self.neighborhoods[-1] != frozenset({h.e}):
            raise ValueError("chain must terminate at the singleton identity neighborhood")


def _symmetric(h: FiniteHypergroup, g: Function) -> bool:
    """g(s) == g(inv[s]) for every s, exactly."""
    return bool(np.array_equal(g.v, g.v[h.inv]))


def default_probes(n: int) -> List[Function]:
    """Coordinate indicators plus the constant-one function."""
    probes = [Function.indicator(n, [t]) for t in range(n)]
    probes.append(Function.ones(n))
    return probes


@dataclass(frozen=True)
class ApproximantConfig:
    mu0: Measure
    f0: Function
    chain: ShrinkingChain
    conv_tol: float = EXACT_TOL

    def __post_init__(self):
        if np.any(self.mu0.w <= 0):
            raise ValueError("mu0 must be strictly positive everywhere")
        if not (self.f0.is_nonneg() and self.f0.sup_norm > 0):
            raise ValueError("f0 must be nonnegative and nonzero")
        if self.conv_tol <= 0:
            raise ValueError("conv_tol must be positive")


@dataclass(frozen=True)
class TraceStep:
    step: int
    u_size: int
    chi_probe: np.ndarray
    gap: float
    rho: float
    bounds_ok: bool
    cauchy_diff: float


@dataclass(frozen=True)
class ConvergenceTrace:
    steps: List[TraceStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class BoundsCertificate:
    a: float
    b: float
    value: float
    passed: bool


def symmetrize(h: FiniteHypergroup, g: Function) -> Function:
    """(g + g-check)/2; fixed points of the involution stay fixed."""
    return Function(0.5 * (g.v + g.v[h.inv]))


def _step(h: FiniteHypergroup, mu0: Measure, g: Function) -> tuple:
    """The chain step's one contraction: the translate matrix K[s, t] = (dirac_s * g)(t)
    and the approximant weights mu0 / (mu0 * g) derived from it."""
    k = translates(h, g)
    denom = mu0.w @ k
    if np.any(denom <= 0):
        t = int(np.argmin(denom))
        raise ZeroDenominator(f"(mu0 * g)({t}) = {denom[t]} <= 0")
    return k, mu0.w / denom


def approximant(h: FiniteHypergroup, mu0: Measure, g: Function) -> Measure:
    """Reweight mu0 by 1/(mu0 * g); strictly positive with full support."""
    return Measure(_step(h, mu0, g)[1], nonneg=True)


def normalized_approximant(h: FiniteHypergroup, cfg: ApproximantConfig, g: Function) -> Measure:
    """Approximant scaled so its pairing with f0 is exactly 1."""
    chi_t = approximant(h, cfg.mu0, g)
    return Measure(chi_t.w / pair(cfg.f0, chi_t), nonneg=True)


def canonical_chain(h: FiniteHypergroup,
                    ordering: Optional[Sequence[int]] = None) -> ShrinkingChain:
    """Shrink from the whole space down to {e}, one involution-orbit at a time.

    Default removal order: orbits keyed by their smallest member, descending.
    An explicit ordering (a permutation of the non-identity points) is walked
    front to back; each point drags its involution partner along.
    """
    others = [p for p in h.points() if p != h.e]
    if ordering is not None:
        if sorted(ordering) != sorted(others):
            raise ValueError("ordering must be a permutation of the non-identity points")
        seq = list(ordering)
    else:
        orbits = {}
        for p in others:
            orbits.setdefault(min(p, int(h.inv[p])), None)
        seq = sorted(orbits, reverse=True)

    current = set(h.points())
    neighborhoods = [frozenset(current)]
    for p in seq:
        if p not in current:
            continue
        current.discard(p)
        current.discard(int(h.inv[p]))
        neighborhoods.append(frozenset(current))
    bumps = [symmetrize(h, Function.indicator(h.n, u)) for u in neighborhoods]
    chain = ShrinkingChain(tuple(neighborhoods), tuple(bumps))
    chain.check(h)
    return chain


def _gap(k: np.ndarray, chi_t: np.ndarray, fs: np.ndarray) -> float:
    """Sup-norm of f - ((f . approximant) * g) over f = fs, or over each row f of fs."""
    return float(np.abs(fs - (fs * chi_t) @ k).max())


def main_identity_gap(h: FiniteHypergroup, mu0: Measure, g: Function, f: Function) -> float:
    """Sup-norm of f - ((f . approximant) * g); vanishes at the terminal bump."""
    return _gap(*_step(h, mu0, g), f.v)


def _ratio(h: FiniteHypergroup, chi_t: np.ndarray, fs: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """R[i, j] = <f_i, mu_j * chi_t> / (|mu_j| chi_t(f_i)) over the rows f_i of fs
    and mu_j of mus, for approximant weights chi_t."""
    conv = _convolve_measures(h, mus, chi_t)
    denom = np.abs(mus).sum(axis=1) * (fs @ chi_t)[:, None]
    if np.any(denom == 0.0):
        raise ZeroDenominator("approximant pairs to zero against f")
    return (fs @ conv.T) / denom


def sandwich_ratio(h: FiniteHypergroup, mu0: Measure, g: Function,
                   f: Function, mu: Measure) -> float:
    """<f, mu * approximant> / (|mu| approximant(f)); tends to 1 as g shrinks."""
    if not _symmetric(h, g):
        raise ValueError("bump must be symmetric")
    if mu.norm == 0:
        raise ValueError("mu must be nonzero")
    return float(_ratio(h, _step(h, mu0, g)[1], f.v[None], mu.w[None])[0, 0])


def _bounds(h: FiniteHypergroup, f0: Function, fs: Sequence[Function]) -> np.ndarray:
    """Rows a, b: bounds on <f, normalized approximant> for each f in fs from greedy
    dominating measures; they hold for every bump."""
    k0 = translates(h, f0)
    return np.array([(1.0 / (2.0 * find_dominating_measure(h, f0, f).norm),
                      2.0 * _dominating_measure(k0, f).norm) for f in fs]).T


def bounds_certificate(h: FiniteHypergroup, cfg: ApproximantConfig,
                       g: Function, f: Function) -> BoundsCertificate:
    """Two-sided bounds on the normalized approximant via greedy dominating measures."""
    a, b = _bounds(h, cfg.f0, [f]).ravel().tolist()
    value = pair(f, normalized_approximant(h, cfg, g))
    return BoundsCertificate(a, b, value, a < value < b)


def haar_net(h: FiniteHypergroup, cfg: ApproximantConfig):
    """Drive the normalized approximants down the chain; certify the limit.

    Returns the final measure together with the full per-step trace.  Stops
    early once successive probe values differ by less than conv_tol, and
    raises NotConverged if the limit's invariance residual exceeds CERTIFY_TOL.
    """
    cfg.chain.check(h)
    probes = default_probes(h.n)
    p = np.array([f.v for f in probes])
    a, b = _bounds(h, cfg.f0, probes)

    steps = []
    chi = None
    prev_vals = None
    for step, (u, g) in enumerate(zip(cfg.chain.neighborhoods, cfg.chain.bumps)):
        k, chi_t = _step(h, cfg.mu0, g)
        z = cfg.f0.v @ chi_t
        chi = Measure(chi_t / z, nonneg=True)
        vals = p @ chi.w
        gap = _gap(k, chi_t, p)
        rho = float(_ratio(h, chi_t, cfg.f0.v[None], Measure.uniform(h.n).w[None])[0, 0])
        bounds_ok = bool(np.all((a < vals) & (vals < b)))
        diff = float(np.abs(vals - prev_vals).max()) if prev_vals is not None else np.inf
        steps.append(TraceStep(step, len(u), vals, gap, rho, bounds_ok,
                               diff if np.isfinite(diff) else np.nan))
        if diff < cfg.conv_tol:
            break
        prev_vals = vals

    residual = invariance_residual(h, chi)
    if not residual <= CERTIFY_TOL:  # a NaN residual certifies nothing
        raise NotConverged(
            f"invariance residual {residual:.3e} above {CERTIFY_TOL:.3e} "
            "after exhausting the chain")
    return chi, ConvergenceTrace(steps)
