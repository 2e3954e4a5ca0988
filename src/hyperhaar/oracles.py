"""Independent ground truth: closed-form weights, the invariance linear system,
and builders for hypergroup families with known invariant measures."""

from __future__ import annotations

from itertools import permutations
from pathlib import Path

import numpy as np

from .core import AXIOM_TOL, FiniteHypergroup, Measure, _dirac_convolutions, _gather

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


# Singular values up to this fraction of the largest (or of a lower bound on
# it) count toward the invariance nullspace.
_RANK_CUT = 1e-8


class H6Violation(Exception):
    """A diagonal mass at the identity is nonpositive."""


class DegenerateNullspace(Exception):
    """The invariance system does not have a one-dimensional solution space, or
    overflows before its nullspace can be decided."""


class NegativeSolution(Exception):
    """The invariance solve produced a significantly negative weight."""


def jewett_haar(h: FiniteHypergroup) -> Measure:
    """Closed-form discrete invariant weights: 1 / (dirac_t * dirac_tcheck)({e}).

    Returned unnormalized; callers rescale as needed.
    """
    diag = _gather(h, np.arange(h.n), h.inv, h.e)
    if not np.all(diag > 0):
        t = int(np.argmin(diag))  # the first NaN, if there is one
        raise H6Violation(f"(dirac_{t} * dirac_{int(h.inv[t])})(e) = {diag[t]} "
                          + ("<= 0" if diag[t] <= 0 else "is not a number"))
    return Measure(1.0 / diag, nonneg=True)


def invariance_residual(h: FiniteHypergroup, chi: Measure) -> float:
    """Worst violation of left invariance, max over s, u of
    |sum_t c[inv[s], t, u] chi_t - chi_u|; inv permutes s, so the max runs
    over the rows c[s] in stored order."""
    if chi.n != h.n:
        raise ValueError(f"dimension mismatch: {chi.n} vs {h.n}")
    return float(np.abs(_dirac_convolutions(h, chi.w) - chi.w).max())


def solve_invariance(h: FiniteHypergroup) -> Measure:
    """The left-invariant measure of mass 1, from the invariance operator's nullspace.

    The n^2 x n operator A has the blocks c[s].T - I in some row order (inv
    permutes the points). Its nullspace must be one-dimensional: that is the
    uniqueness certificate for the returned measure. A is never formed.
    A x = 0 implies S x = 0 for the block sum S = sum_s (c[s].T - I), so
    null(A) = B null(A B), with B an orthonormal basis of S's numerical
    nullspace from one n x n SVD, and A B is c contracted with the k columns
    of B. Singular values of A B up to _RANK_CUT * sigma_hat count
    toward the nullity; sigma_hat is the largest of sigma_0(S) / sqrt(n),
    sigma_0(A B) and ||A||_F / sqrt(n), each a lower bound on sigma_0(A).
    S, A B and ||A||_F are sums over c's nnz entries, so this costs O(k nnz)
    time and O(nnz + k n^2) memory besides two SVDs of n^2 floats, and k = 1
    for a hypergroup. A weight below -AXIOM_TOL is refused with NegativeSolution;
    smaller negative weights are clamped to 0.

    An ||A||_F that is not finite, as when c's squares overflow, is refused
    with DegenerateNullspace before any SVD, which may not return on an
    infinite matrix. A finite ||A||_F is below sqrt of the largest float, and
    so is every entry of A; S and A B, sums of at most n such entries with
    weights of at most 1 in magnitude, are then finite too.
    """
    n, (_, t, u, v) = h.n, h.entries
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        frobenius = np.sqrt(max(v @ v - 2.0 * v[t == u].sum() + n * n, 0.0))
    if not np.isfinite(frobenius):
        raise DegenerateNullspace("the invariance operator overflows: ||A||_F is not finite, "
                                  "so its nullspace cannot be decided")
    # S[u, t] = sum_s c[s, t, u] - n [t == u], added over s in increasing order
    block_sum = np.bincount(t * n + u, weights=v, minlength=n * n).reshape(n, n).T
    block_sum[np.diag_indices(n)] -= n
    sv_s, vt = np.linalg.svd(block_sum)[1:]
    del block_sum  # n^2 floats; the O(nnz) temporaries of A B below set the peak without it
    # ||S x|| <= sqrt(n) ||A x||, so this cut keeps every direction that A's cut
    # below can count, even where S is rounding noise; one column at least, so
    # the nullity is always decided, and reported, on A B
    k = max(1, int(np.sum(sv_s <= np.sqrt(n) * _RANK_CUT * frobenius)))
    b = vt[n - k:]
    # row j of ab is column j of A B: sum_t b[j, t] c[s, t, u] - b[j, u] over (s, u)
    ab = np.array([_dirac_convolutions(h, row).ravel() - np.tile(row, n) for row in b])
    left, sv, _ = np.linalg.svd(ab, full_matrices=False)
    threshold = _RANK_CUT * max(sv_s[0] / np.sqrt(n), sv[0], frobenius / np.sqrt(n))
    nullity = int(np.sum(sv <= threshold))
    if nullity != 1:
        smallest = ", ".join(f"{sigma:.3e}" for sigma in sv[::-1][:3])
        raise DegenerateNullspace(
            f"invariance nullspace has dimension {nullity}, expected 1 "
            f"(threshold {_RANK_CUT:g}*sigma_hat = {threshold:.3e}; "
            f"smallest singular values of the reduced operator {smallest})")
    x = b.T @ left[:, -1]
    x /= x.sum()
    worst = int(np.argmin(x))
    if x[worst] < -AXIOM_TOL:
        raise NegativeSolution(
            f"weight {worst} is {x[worst]:.6g}, below -tol (tol = {AXIOM_TOL:g})")
    return Measure(np.maximum(x, 0.0), nonneg=True)


def cyclic_hypergroup(n: int) -> FiniteHypergroup:
    """Cyclic group Z_n as a hypergroup."""
    if n < 1:
        raise ValueError("n must be at least 1")
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
