"""Constructive invariant-measure pipeline.

The reference measure mu0 is reweighted by 1/(mu0 * g) for a symmetric bump g
supported near the identity; shrinking the bump support down a finite chain of
identity neighborhoods drives the normalized approximants to the invariant
measure.  In the discrete topology {e} is itself a neighborhood, so the chain
attains the limit at its terminal step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .core import (
    CERTIFY_TOL,
    EXACT_TOL,
    FiniteHypergroup,
    Function,
    Measure,
    NoCover,
    Refusal,
    _NONNEG_NONZERO,
    _breaks_nonneg_nonzero,
    _check_size,
    _contract,
    _cover,
    _indicator_peaks,
    _involution_witness,
    _peaks,
    involute_function,
    pair,
    translates,
)
from .oracles import invariance_residual

__all__ = [
    "ZeroDenominator",
    "NotConverged",
    "NoChain",
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


class ZeroDenominator(Refusal):
    """(mu0 * g) vanishes somewhere; g violates its positivity precondition."""


class NotConverged(Refusal):
    """Chain exhausted with invariance residual above the certification threshold."""


class NoChain(Refusal, ValueError):
    """inv is not an involution fixing e, so canonical_chain has no chain to build."""


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
        """Raise ValueError for the first neighborhood k that fails, naming the first of
        its conditions that fails; all of them are array tests over the whole chain."""
        _check_size(h, *self.bumps)
        sizes = [len(u) for u in self.neighborhoods]
        rows = np.repeat(np.arange(len(self)), sizes)
        points = np.fromiter(itertools.chain.from_iterable(self.neighborhoods), int, sum(sizes))
        outside = (points < 0) | (points >= h.n)
        member = np.zeros((len(self), h.n), dtype=bool)
        member[rows[~outside], points[~outside]] = True
        bumps = np.array([g.v for g in self.bumps]).reshape(len(self), h.n)
        contained = np.ones(len(self), dtype=bool)
        contained[1:] = ~(member[1:] & ~member[:-1]).any(axis=1)
        failed = np.stack([
            ~member[:, h.e],
            np.bincount(rows[outside], minlength=len(self)).astype(bool)
            | (member != member[:, h.inv]).any(axis=1),
            ~contained,
            _breaks_nonneg_nonzero(bumps),
            ((bumps != 0) & ~member).any(axis=1),
            ~_symmetric(h, bumps),
            bumps[:, h.e] <= 0,
        ], axis=1)
        if failed.any():
            k = int(np.argmax(failed.any(axis=1)))
            raise ValueError(_CHAIN_FAILURES[int(np.argmax(failed[k]))].format(k=k))
        if not self.neighborhoods or self.neighborhoods[-1] != frozenset({h.e}):
            raise ValueError("chain must terminate at the singleton identity neighborhood")


# ShrinkingChain.check's conditions on neighborhood k and its bump, in the order tested.
_CHAIN_FAILURES = (
    "neighborhood {k} does not contain the identity",
    "neighborhood {k} is not involution-stable",
    "neighborhood {k} is not contained in its predecessor",
    _NONNEG_NONZERO.format("bump {k}"),
    "bump {k} not supported in its neighborhood",
    "bump {k} is not symmetric",
    "bump {k} vanishes at the identity",
)


def _symmetric(h: FiniteHypergroup, g: np.ndarray) -> np.ndarray:
    """For each row of g, whether g(s) == g(inv[s]) for every s, exactly: a NaN
    is never symmetric, and -0.0 is 0.0. The bump-symmetry test's one reader."""
    return ~(g != g[..., h.inv]).any(axis=-1)


def default_probes(n: int) -> List[Function]:
    """Coordinate indicators plus the constant-one function."""
    return [Function(f) for f in _probes(n)]


def _probes(n: int) -> np.ndarray:
    """The default probes as the rows of one (n + 1) x n matrix."""
    return np.vstack([np.eye(n), np.ones((1, n))])


@dataclass(frozen=True)
class ApproximantConfig:
    mu0: Measure
    f0: Function
    chain: ShrinkingChain
    conv_tol: float = EXACT_TOL

    def __post_init__(self):
        _check_mu0(self.mu0.w)
        if _breaks_nonneg_nonzero(self.f0.v):
            raise ValueError(_NONNEG_NONZERO.format("f0"))
        _check_conv_tol(self.conv_tol)


def _check_conv_tol(conv_tol: float) -> None:
    """The rule on conv_tol, for ApproximantConfig and the CLI's haar --tol."""
    if not (0 < conv_tol < np.inf):
        raise ValueError("conv_tol must be a finite number > 0")


def _check_mu0(w: np.ndarray) -> None:
    """The rule on mu0, for ApproximantConfig, _walk and the CLI's mu0 file."""
    if not ((w > 0) & (w < np.inf)).all():
        raise ValueError("mu0 must be finite and positive everywhere")


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
    return Function(0.5 * (g.v + involute_function(h, g).v))


def _walk(h: FiniteHypergroup, mu0: Measure, bumps: Sequence[Function]):
    """Yield, bump by bump, the translate matrix K[s, t] = (dirac_s * g)(t) and the
    approximant weights mu0 / (mu0 * g) derived from it.

    K is linear in the bump: one contraction gives the first bump's K, and each
    later K adds d_p c[inv[s], t, p] to K[s, t] for every entry of c with u = p,
    at every point p where the bump changed by d_p, in increasing p: one term
    per entry met, O(nnz) at most, as a contraction.  K is updated in place, so
    a reader is done with each K before it asks for the next.
    """
    _check_size(h, mu0)
    _check_mu0(mu0.w)
    s, t, u, value = h.entries
    k = translates(h, bumps[0])
    for i, g in enumerate(bumps):
        if i == 1:  # the entries grouped by u, for the updates; a single bump needs none
            by_u = np.argsort(u, kind="stable")
            first = np.searchsorted(u[by_u], np.arange(h.n + 1))
            row, col, mass = np.argsort(h.inv)[s[by_u]], t[by_u], value[by_u]
        if i:
            d = g.v - bumps[i - 1].v
            for p in np.flatnonzero(d):
                j = slice(first[p], first[p + 1])
                k[row[j], col[j]] += d[p] * mass[j]  # row r of K reads c[inv[r]]
        denom = mu0.w @ k
        if np.any(denom <= 0):
            t = int(np.argmin(denom))
            raise ZeroDenominator(f"(mu0 * g)({t}) = {denom[t]} <= 0")
        yield k, mu0.w / denom


def _step(h: FiniteHypergroup, mu0: Measure, g: Function) -> tuple:
    """K and the approximant weights of the single bump g: _walk's first step."""
    return next(_walk(h, mu0, (g,)))


def approximant(h: FiniteHypergroup, mu0: Measure, g: Function) -> Measure:
    """Reweight mu0 by 1/(mu0 * g); strictly positive with full support."""
    return Measure(_step(h, mu0, g)[1], nonneg=True)


def normalized_approximant(h: FiniteHypergroup, cfg: ApproximantConfig, g: Function) -> Measure:
    """Approximant scaled so its pairing with f0 is exactly 1."""
    chi_t = approximant(h, cfg.mu0, g)
    return Measure(chi_t.w / pair(cfg.f0, chi_t), nonneg=True)


def canonical_chain(h: FiniteHypergroup) -> ShrinkingChain:
    """Shrink from the whole space down to {e}, one involution-orbit at a time:
    orbits keyed by their smallest member, removed in descending key order, in
    one pass that drops an orbit's points from the set and zeroes them in the
    indicator row, each bump being a copy of that row.  Raises NoChain when
    core's _involution_witness finds inv is not an involution fixing e.

    When it is one, each neighborhood is a union of orbits that holds e, so its
    bump is symmetric and the chain is valid by construction;
    ShrinkingChain.check names the failure otherwise.
    """
    inv = h.inv.tolist()
    current, row = set(h.points()), np.ones(h.n)
    neighborhoods, bumps = [frozenset(current)], [Function(row.copy())]
    for p in sorted({min(p, inv[p]) for p in h.points() if p != h.e}, reverse=True):
        current.difference_update((p, inv[p]))
        row[p] = row[inv[p]] = 0.0
        neighborhoods.append(frozenset(current))
        bumps.append(Function(row.copy()))
    chain = ShrinkingChain(tuple(neighborhoods), tuple(bumps))
    if _involution_witness(h) is not None:
        try:
            chain.check(h)
        except ValueError as exc:
            raise NoChain(str(exc)) from None
    return chain


def _gap(k: np.ndarray, chi_t: np.ndarray, fs: np.ndarray) -> float:
    """Sup-norm of f - ((f . approximant) * g) over f = fs, or over each row f of fs."""
    return float(np.abs(fs - (fs * chi_t) @ k).max())


def _probe_gap(k: np.ndarray, chi_t: np.ndarray) -> float:
    """_gap over default_probes in O(n^2): the row of probe 1_i is
    1_i - chi_t[i] K[i, :], the row of the ones probe is 1 - chi_t K."""
    rows = chi_t[:, None] * k
    rows.reshape(-1)[::k.shape[0] + 1] -= 1.0
    return float(np.maximum(np.abs(rows, out=rows).max(), np.abs(1.0 - chi_t @ k).max()))


def main_identity_gap(h: FiniteHypergroup, mu0: Measure, g: Function, f: Function) -> float:
    """Sup-norm of f - ((f . approximant) * g); vanishes at the terminal bump."""
    _check_size(h, f)
    return _gap(*_step(h, mu0, g), f.v)


def _ratio(h: FiniteHypergroup, chi_t: np.ndarray, fs: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """R[i, j] = <f_i, mu_j * chi_t> / (|mu_j| chi_t(f_i)) over the rows f_i of fs
    and mu_j of mus, for approximant weights chi_t."""
    conv = mus @ _contract(h, chi_t, 1)  # row j is mu_j * chi_t
    denom = np.abs(mus).sum(axis=1) * (fs @ chi_t)[:, None]
    if np.any(denom == 0.0):
        raise ZeroDenominator("approximant pairs to zero against f")
    return (fs @ conv.T) / denom


def sandwich_ratio(h: FiniteHypergroup, mu0: Measure, g: Function,
                   f: Function, mu: Measure) -> float:
    """<f, mu * approximant> / (|mu| approximant(f)); tends to 1 as g shrinks."""
    _check_size(h, g, f, mu)
    if not _symmetric(h, g.v):
        raise ValueError("bump must be symmetric")
    if not mu.norm > 0:  # a NaN norm fails too
        raise ValueError("mu must be nonzero")
    return float(_ratio(h, _step(h, mu0, g)[1], f.v[None], mu.w[None])[0, 0])


def _bounds(h: FiniteHypergroup, f0: Function, f: np.ndarray) -> np.ndarray:
    """Rows a, b: bounds on <f, normalized approximant> for each row f of the
    (m, n) matrix f from greedy dominating measures; they hold for every bump.

    a covers f0 by the translates of f, b covers f by the translates of f0, as
    find_dominating_measure(h, f0, f) and find_dominating_measure(h, f, f0) do,
    and a failure is raised for the first f, a's before b's.  The translates of an
    indicator probe 1_j are the slices c[inv, :, j], so _indicator_peaks serves
    all of them in one pass over c's entries; any other f costs a contraction.
    """
    n = h.n
    w_b, uncovered_b = _cover(*_peaks(translates(h, f0)), f)  # f0's size is checked first
    indicator = ((f == 1.0).sum(axis=1) == 1) & ((f == 0.0).sum(axis=1) == n - 1)
    s_a, best_a = np.zeros(f.shape, dtype=int), np.zeros(f.shape)
    if indicator.any():
        s_ind, best_ind = _indicator_peaks(h)
        j = np.argmax(f[indicator], axis=1)
        s_a[indicator], best_a[indicator] = s_ind[j], best_ind[j]
    for i in np.flatnonzero(~indicator):
        s_a[i], best_a[i] = _peaks(translates(h, Function(f[i])))
    w_a, uncovered_a = _cover(s_a, best_a, np.broadcast_to(f0.v, f.shape))
    failed = np.hstack([_breaks_nonneg_nonzero(f)[:, None], uncovered_a, uncovered_b])
    if failed.any():
        col = int(np.argmax(failed)) % (2 * n + 1)
        if col == 0:
            raise ValueError(_NONNEG_NONZERO.format("f"))
        raise NoCover(f"no translate of f0 reaches point {(col - 1) % n}")
    return np.array([1.0 / (2.0 * np.abs(w_a).sum(axis=1)), 2.0 * np.abs(w_b).sum(axis=1)])


def bounds_certificate(h: FiniteHypergroup, cfg: ApproximantConfig,
                       g: Function, f: Function) -> BoundsCertificate:
    """Two-sided bounds on the normalized approximant via greedy dominating measures."""
    value = pair(f, normalized_approximant(h, cfg, g))  # f's size is checked first
    a, b = _bounds(h, cfg.f0, f.v[None]).ravel().tolist()
    return BoundsCertificate(a, b, value, a < value < b)


def _net_steps(h: FiniteHypergroup, cfg: ApproximantConfig, p: np.ndarray):
    """Yield, bump by bump down cfg.chain, the normalized approximant's weights,
    its values on the default probes p = _probes(n), the gap over them and rho,
    all derived from _walk's K in O(n^2).

    rho = <f0, uniform * chi_t> / chi_t(f0), the sandwich ratio of the uniform
    measure, and <f0, uniform * chi_t> = v0 . chi_t for v0 = uniform . (c
    contracted over u with f0).
    """
    v0 = Measure.uniform(h.n).w @ _contract(h, cfg.f0.v, 2)
    for k, chi_t in _walk(h, cfg.mu0, cfg.chain.bumps):
        z = cfg.f0.v @ chi_t
        w = chi_t / z
        yield w, p @ w, _probe_gap(k, chi_t), float(v0 @ chi_t / z)


@np.errstate(all="ignore")  # an overflow is an inf or a nan in the trace and the residual
def haar_net(h: FiniteHypergroup, cfg: ApproximantConfig):
    """Drive the normalized approximants down the chain; certify the limit.

    Returns the final measure together with the full per-step trace.  Stops
    early once successive probe values differ by less than conv_tol, and
    raises NotConverged if the limit's invariance residual exceeds CERTIFY_TOL.
    A tensor whose contractions overflow writes no warning: the overflow
    shows as an inf or a nan, and an answer whose residual is not finite is
    refused with NotConverged.
    """
    cfg.chain.check(h)
    p = _probes(h.n)
    a, b = _bounds(h, cfg.f0, p)

    steps = []
    prev_vals = None
    walk = _net_steps(h, cfg, p)
    for step, (u, (w, vals, gap, rho)) in enumerate(zip(cfg.chain.neighborhoods, walk)):
        bounds_ok = bool(np.all((a < vals) & (vals < b)))
        diff = float(np.abs(vals - prev_vals).max()) if prev_vals is not None else np.inf
        steps.append(TraceStep(step, len(u), vals, gap, rho, bounds_ok,
                               diff if np.isfinite(diff) else np.nan))
        if diff < cfg.conv_tol:
            break
        prev_vals = vals

    chi = Measure(w, nonneg=True)  # mu0 > 0, and _walk refuses a denominator <= 0
    residual = invariance_residual(h, chi)
    if not residual <= CERTIFY_TOL:  # a NaN residual certifies nothing
        raise NotConverged(
            f"invariance residual {residual:.3e} above {CERTIFY_TOL:.3e} "
            "after exhausting the chain")
    return chi, ConvergenceTrace(steps)
