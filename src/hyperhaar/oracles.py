"""Independent ground truth: closed-form weights, the invariance linear system,
and builders for hypergroup families with known invariant measures."""

from __future__ import annotations

from itertools import permutations
from pathlib import Path

import numpy as np

from .core import (AXIOM_TOL, FiniteHypergroup, Measure, Refusal, _check_n, _check_size, _contract,
                   _identity_planes)

__all__ = [
    "H6Violation",
    "DegenerateNullspace",
    "NegativeSolution",
    "jewett_haar",
    "solve_invariance",
    "invariance_residual",
    "build_family",
    "cyclic_hypergroup",
    "theta_hypergroup",
    "conjugacy_class_hypergroup",
    "cosine_grid_hypergroup",
    "product_hypergroup",
    "symmetric_group_table",
]


# The solve's relative bars: the Doeblin margin must exceed 2 * _RANK_CUT * ||A||_F,
# and ||A x|| / ||x|| must be at most _RANK_CUT * ||A||_F / sqrt(n).
_RANK_CUT = 1e-8


class H6Violation(Refusal):
    """A diagonal mass at the identity is nonpositive, or so small that its
    reciprocal, Jewett's weight, overflows."""


class DegenerateNullspace(Refusal):
    """The invariance system is not certified to have a one-dimensional solution
    space: its Doeblin margin or the residual of its null vector misses its bar,
    or it overflows before its nullspace can be decided."""


class NegativeSolution(Refusal):
    """The invariance solve produced a significantly negative weight."""


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused, not warned
def jewett_haar(h: FiniteHypergroup) -> Measure:
    """Closed-form discrete invariant weights: 1 / (dirac_t * dirac_tcheck)({e}).

    Returned unnormalized; callers rescale as needed.
    """
    diag = _identity_planes(h)[2, np.arange(h.n), h.inv]  # c[t, inv t, e], as H6 reads it
    t = int(np.argmin(diag))  # the first NaN, if any, else the least mass: the largest weight
    if not (diag[t] > 0 and np.isfinite(1.0 / diag[t])):
        reason = ("<= 0" if diag[t] <= 0 else "is not a number" if np.isnan(diag[t])
                  else "has no finite reciprocal: its weight overflows")
        raise H6Violation(f"(dirac_{t} * dirac_{int(h.inv[t])})(e) = {diag[t]} {reason}")
    return Measure(1.0 / diag, nonneg=True)


def invariance_residual(h: FiniteHypergroup, chi: Measure) -> float:
    """Worst violation of left invariance, max over s, u of
    |sum_t c[inv[s], t, u] chi_t - chi_u|; inv permutes s, so the max runs
    over the rows c[s] in stored order."""
    _check_size(h, chi)
    return float(np.abs(_contract(h, chi.w, 1) - chi.w).max())


def _doeblin_margin(total: np.ndarray) -> float:
    """alpha - epsilon for M = total.T / n, where total[u, t] = sum_s c[s, t, u]:
    alpha = sum_u min_t M[t, u] is Doeblin's coefficient and epsilon =
    max_t |sum_u M[t, u] - 1| how far M's rows are from mass 1.

    For y of sum 0, M^T y = R^T y with R[t, u] = M[t, u] - min_t' M[t', u] >= 0,
    so ||M^T y||_1 <= (1 + epsilon - alpha) ||y||_1 (Seneta 1981, ch. 3). Then
    S = n (M^T - I) has ||S y||_2 >= sqrt(n) (alpha - epsilon) ||y||_2, and by
    Courant-Fischer sigma_{n-2}(S) >= sqrt(n) (alpha - epsilon).
    """
    n = len(total)
    return float(total.min(axis=1).sum() - np.abs(total.sum(axis=0) - n).max()) / n


@np.errstate(all="ignore")  # an overflow is refused, not warned
def solve_invariance(h: FiniteHypergroup) -> Measure:
    """The left-invariant measure of mass 1, from the invariance operator's nullspace.

    The n^2 x n operator A has the blocks c[s].T - I in some row order (inv
    permutes the points); it is never formed. Its nullspace must be
    one-dimensional: that is the uniqueness certificate for the returned
    measure. A x = 0 implies S x = 0 for the block sum S = sum_s (c[s].T - I).

    The _doeblin_margin of M = (S.T + n I) / n certifies that S's numerical
    nullity is at most 1 when it exceeds 2 _RANK_CUT ||A||_F; a hypergroup's
    margin is positive, as every entry of M is (Jewett 1975). S's mass-one
    null vector x is then one LU solve of [[S, 1], [1^T, 0]] [x; l] = [0; 1],
    and x spans A's nullspace when ||A x|| <= _RANK_CUT ||A||_F / sqrt(n) ||x||.
    Any other input is refused with DegenerateNullspace: a margin that is not
    above the bar, NaN included, a singular bordered system, or a residual
    above its bar. A weight below -AXIOM_TOL is refused with NegativeSolution;
    smaller negative weights are clamped to 0. S + n I and A x are _contract's
    sums of c over s against the ones vector and over t against x, O(nnz) time
    each; the LU takes n^3 / 3 multiply-adds, in O(nnz + n^2) memory.

    An ||A||_F that is not finite, as when c's squares overflow, is refused
    first. A finite ||A||_F is below sqrt of the largest float, and so is every
    entry of A; S, a sum of n such entries, is then finite too. A nearly
    singular system may overflow in x; its residual is then nan, and refused.
    """
    n, (_, t, u, v) = h.n, h.entries
    frobenius = np.sqrt(max(v @ v - 2.0 * v[t == u].sum() + n * n, 0.0))
    if not np.isfinite(frobenius):
        raise DegenerateNullspace("the invariance operator overflows: ||A||_F is not finite, "
                                  "so its nullspace cannot be decided")
    total = _contract(h, np.ones(n), 0).T  # total[u, t] = sum_s c[s, t, u]: S + n I
    # read before n is taken off the diagonal: adding n back would not be exact
    margin, bar = _doeblin_margin(total), 2 * _RANK_CUT * frobenius
    if not margin > bar:
        raise DegenerateNullspace(
            f"Doeblin margin {margin:.3e} is not above {2 * _RANK_CUT:g}*||A||_F = {bar:.3e}, "
            "so the invariance nullspace is not certified one-dimensional")
    bordered = np.ones((n + 1, n + 1))
    bordered[n, n] = 0.0
    bordered[:n, :n] = total
    del total
    bordered[np.diag_indices(n)] -= n
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    try:
        x = np.linalg.solve(bordered, rhs)[:n]
    except np.linalg.LinAlgError:  # an exactly zero pivot
        raise DegenerateNullspace("the bordered invariance system [[S, 1], [1^T, 0]] is "
                                  "singular, so no null vector of mass 1 is found") from None
    del bordered  # (n+1)^2 floats; the O(nnz) temporaries of A x below set the peak without it
    x /= x.sum()
    ax = _contract(h, x, 1)
    ax -= x
    residual = np.linalg.norm(ax) / np.linalg.norm(x)
    bar = _RANK_CUT * frobenius / np.sqrt(n)
    if not residual <= bar:
        raise DegenerateNullspace(
            f"invariance residual ||A x||/||x|| = {residual:.3e} is above "
            f"{_RANK_CUT:g}*||A||_F/sqrt(n) = {bar:.3e}: the translations share no fixed vector")
    worst = int(np.argmin(x))
    if x[worst] < -AXIOM_TOL:
        raise NegativeSolution(
            f"weight {worst} is {x[worst]:.6g}, below -tol (tol = {AXIOM_TOL:g})")
    return Measure(np.maximum(x, 0.0), nonneg=True)


def cyclic_hypergroup(n: int) -> FiniteHypergroup:
    """Cyclic group Z_n as a hypergroup."""
    _check_n(n)  # before any n x n array
    s, t = (a.ravel() for a in np.indices((n, n)))
    return FiniteHypergroup.from_entries(n, 0, (-np.arange(n)) % n, s, t, (s + t) % n,
                                         np.ones(n * n))


def theta_hypergroup(theta: float) -> FiniteHypergroup:
    """Two-point family: dirac_1 * dirac_1 = theta dirac_0 + (1-theta) dirac_1."""
    if not (0 <= theta <= 1):
        raise ValueError("theta must lie in [0, 1]")
    stu = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]]).T
    value = np.array([1.0, 1.0, 1.0, theta, 1.0 - theta])
    listed = value != 0  # theta 0 or 1 leaves one of the two masses at 1 1 empty
    return FiniteHypergroup.from_entries(2, 0, [0, 1], *stu[:, listed], value[listed])


def _check_group_table(table: np.ndarray) -> int:
    n = table.shape[0]
    if table.shape != (n, n) or np.any(table < 0) or np.any(table >= n):
        raise ValueError("group table must be n x n with entries in 0..n-1")
    idx = np.arange(n)
    is_e = np.all(table == idx, axis=1) & np.all(table.T == idx, axis=1)
    if not is_e.any():
        raise ValueError("group table has no identity")
    e = int(np.argmax(is_e))
    no_inv = ~np.any(table == e, axis=1)
    if no_inv.any():
        raise ValueError(f"element {int(np.argmax(no_inv))} has no inverse")
    # row b of each side is (a b) c and a (b c) over c: O(n^2) memory per a
    for a in range(n):
        bad = np.any(table[table[a]] != table[a][table], axis=1)
        if bad.any():
            raise ValueError(f"group table not associative at ({a}, {int(np.argmax(bad))})")
    return e


def conjugacy_class_hypergroup(table) -> FiniteHypergroup:
    """Class hypergroup of a finite group: points are conjugacy classes.

    Masses are counts of product pairs landing in each class, normalized by
    the sizes of the two source classes (exact rationals cast to float once).
    """
    table = np.asarray(table, dtype=int)
    ge = _check_group_table(table)
    ginv = np.argmax(table == ge, axis=1)
    # conj[g, a] = g a g^-1; classes are numbered in order of their smallest member
    conj = table[table, ginv[:, None]]
    reps, class_of = np.unique(conj.min(axis=0), return_inverse=True)
    m = len(reps)
    # one count per product x y at (class of x, class of y, class of x y)
    idx = (class_of[:, None] * m + class_of[None, :]) * m + class_of[table]
    keys, counts = np.unique(idx, return_counts=True)
    s, t, u = np.unravel_index(keys, (m,) * 3)
    sizes = np.bincount(class_of).astype(float)
    return FiniteHypergroup.from_entries(m, int(class_of[ge]), class_of[ginv[reps]], s, t, u,
                                         counts / (sizes[s] * sizes[t]))


def cosine_grid_hypergroup(m: int) -> FiniteHypergroup:
    """Reflection-orbit hypergroup on m grid points; identity involution.

    dirac_x * dirac_y puts half its mass at |x-y| and half at x+y reflected
    back into range; the halves merge when the two targets coincide.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    x, y = (a.ravel() for a in np.indices((m, m)))
    near, far = np.abs(x - y), np.minimum(x + y, 2 * (m - 1) - x - y)  # near <= far
    # two halves in C order, or one entry of mass 1 where the targets coincide
    split = near < far
    u = np.column_stack([near, far])[np.column_stack([np.ones_like(split), split])]
    count = 1 + split
    return FiniteHypergroup.from_entries(m, 0, np.arange(m), x.repeat(count), y.repeat(count),
                                         u, np.where(split, 0.5, 1.0).repeat(count))


def product_hypergroup(h1: FiniteHypergroup, h2: FiniteHypergroup) -> FiniteHypergroup:
    """Tensor product; point (i, j) maps to index i * h2.n + j."""
    n2 = h2.n
    stu = [np.add.outer(a * n2, b).ravel() for a, b in zip(h1.entries[:3], h2.entries[:3])]
    inv = np.add.outer(h1.inv * n2, h2.inv).ravel()
    return FiniteHypergroup.from_entries(h1.n * n2, h1.e * n2 + h2.e, inv, *stu,
                                         np.multiply.outer(h1.entries[3], h2.entries[3]).ravel())


def symmetric_group_table(k: int) -> np.ndarray:
    """Multiplication table of S_k with elements ordered lexicographically.

    Lexicographic order is the order of the base-k codes, so the product
    p q (x -> p[q[x]]) is found by its code among the sorted ones.
    """
    elems = np.array(sorted(permutations(range(k))), dtype=int)
    weights = k ** np.arange(k - 1, -1, -1)
    return np.searchsorted(elems @ weights, elems[:, elems] @ weights)


def _group_table(param: str) -> np.ndarray:
    """S3 or S4 by name, or the rows of a table file ('#' starts a comment line)."""
    if param.lower() in ("s3", "s4"):
        return symmetric_group_table(int(param[1]))
    lines = Path(param).read_text().splitlines()
    rows = [[int(x) for x in line.split()]
            for line in lines if line.strip() and not line.startswith("#")]
    return np.asarray(rows, dtype=int)


def _theta2(param: str) -> FiniteHypergroup:
    theta = float(param)
    if not (0 < theta <= 1):
        raise ValueError("theta must lie in (0, 1]")
    return theta_hypergroup(theta)


def _product(param: str) -> FiniteHypergroup:
    parts = [p.split(":", 1) for p in param.split(",")]
    if len(parts) != 2 or any(len(p) != 2 for p in parts):
        raise ValueError("product parameter must be '<family>:<param>,<family>:<param>'")
    return product_hypergroup(*(build_family(*p) for p in parts))


# gen's families in its --family order: each parses its parameter and builds
_FAMILIES = {
    "cyclic": lambda param: cyclic_hypergroup(int(param)),
    "theta2": _theta2,
    "conj-class": lambda param: conjugacy_class_hypergroup(_group_table(param)),
    "cosine-grid": lambda param: cosine_grid_hypergroup(int(param)),
    "product": _product,
}


def build_family(family: str, param: str) -> FiniteHypergroup:
    """A bundled family's hypergroup from gen's strings, e.g. ('product', 'cyclic:2,theta2:0.5')."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return _FAMILIES[family](param)
