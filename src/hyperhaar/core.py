"""Finite hypergroups, measures, functions, and the convolution algebra.

Points are indices 0..n-1.  A hypergroup is given by its identity, the
involution permutation, and the structure tensor c, where c[s, t, u] is the
mass of (dirac_s * dirac_t) at u.  All operations are pure functions over
immutable values.

Tolerances follow one policy, owned here: the three constants below, and exact
comparisons with 0 for structural tests (denominators, covers, Jewett's
diagonal, supports, bump symmetry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

AXIOM_TOL = 1e-9  # validate's default and the invariance solve's clamp
EXACT_TOL = 1e-12  # rounding of quantities exact in theory: the suites, the Cauchy stop
CERTIFY_TOL = 1e-10  # the invariance residual that certifies haar_net's limit
# Below this n, 8 n^3 bytes (the dense tensor) are addressable and the flat keys
# of c's entries fit int64.
MAX_N = 2 ** 20
# A dense slab of c, and the temporaries of one block of identity-suite trials,
# stay below this many floats.
_BLOCK_FLOATS = 2 ** 21

__all__ = [
    "AXIOM_TOL",
    "EXACT_TOL",
    "CERTIFY_TOL",
    "FiniteHypergroup",
    "Measure",
    "Function",
    "AxiomCheck",
    "ValidationReport",
    "NoCover",
    "convolve_measures",
    "involute_measure",
    "involute_function",
    "pair",
    "translates",
    "convolve_measure_function",
    "convolve_function_measure",
    "support_product",
    "validate",
    "find_dominating_measure",
]


class NoCover(Exception):
    """No finite positive combination of translates dominates the target."""


@dataclass(frozen=True, repr=False, eq=False)
class FiniteHypergroup:
    """Finite hypergroup: identity e, involution inv, structure tensor c.

    c is stored as its entries, the arrays (s, t, u, value) in C order, which
    from_entries takes and FiniteHypergroup(n, e, inv, c) lists from a dense
    tensor; the dense c is not kept.  Only _slabs forms dense slabs of c, one
    bounded slab at a time.  Equality is identity.
    """

    n: int
    e: int
    inv: np.ndarray
    c: np.ndarray

    @classmethod
    def from_entries(cls, n: int, e: int, inv, s, t, u, value) -> "FiniteHypergroup":
        """The hypergroup whose tensor has c[s[i], t[i], u[i]] = value[i], in any
        order, and zeros elsewhere; an (s, t, u) listed twice is refused."""
        h = object.__new__(cls)
        for name, x in (("n", n), ("e", e), ("inv", inv), ("entries", (s, t, u, value))):
            object.__setattr__(h, name, x)
        h.__post_init__()
        return h

    def __post_init__(self):
        n = self.n
        object.__setattr__(self, "inv", np.asarray(self.inv, dtype=int))
        if not (0 <= self.e < n):
            raise ValueError(f"identity index {self.e} out of range for n={n}")
        if self.inv.shape != (n,):
            raise ValueError("involution must be a permutation vector of length n")
        if sorted(self.inv.tolist()) != list(range(n)):
            raise ValueError("involution is not a permutation")
        if "entries" not in self.__dict__:
            c = np.asarray(self.c, dtype=float)
            if c.shape != (n, n, n):
                raise ValueError(f"structure tensor must have shape {(n,) * 3}")
            object.__delattr__(self, "c")
            object.__setattr__(self, "entries", _nonzeros(c))
        if n >= MAX_N:
            raise ValueError(f"n={n} is not below {MAX_N}: the n^3 tensor is not addressable")
        if len(set(map(len, self.entries))) > 1:
            raise ValueError("entries must list as many values as indices")
        stu, value = np.array(self.entries[:3], dtype=np.intp), np.array(self.entries[3], float)
        try:
            keys = np.ravel_multi_index(stu, (n,) * 3)
        except ValueError:
            raise ValueError(f"entry indices must lie in 0..{n - 1}") from None
        if not (keys[1:] > keys[:-1]).all():  # out of C order, or repeated
            order = np.argsort(keys, kind="stable")
            stu, value, keys = stu[:, order], value[order], keys[order]
            if not (keys[1:] > keys[:-1]).all():
                raise ValueError("an entry (s, t, u) is listed twice")
        object.__setattr__(self, "entries", (*stu, value))

    def __repr__(self) -> str:
        return f"FiniteHypergroup(n={self.n}, e={self.e}, nnz={np.count_nonzero(self.entries[3])})"

    def points(self) -> range:
        return range(self.n)


def _gather(h: FiniteHypergroup, s, t, u) -> np.ndarray:
    """c[s, t, u] read from the entries, one binary search per index; 0 where no
    entry is listed."""
    keys = np.ravel_multi_index(h.entries[:3], (h.n,) * 3)
    want = np.ravel_multi_index((s, t, u), (h.n,) * 3)
    i = np.searchsorted(keys, want)
    hit = i < keys.size
    hit[hit] = keys[i[hit]] == want[hit]
    out = np.zeros(want.shape)
    out[hit] = h.entries[3][i[hit]]
    return out


@dataclass(frozen=True)
class Measure:
    """Weight vector over points; signed unless nonneg is asserted."""

    w: np.ndarray
    nonneg: bool = False

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.ndim != 1:
            raise ValueError("measure weights must be a 1-d vector")
        if self.nonneg and np.any(w < 0):
            raise ValueError("nonneg measure has a negative weight")

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def norm(self) -> float:
        return float(np.abs(self.w).sum())

    def support(self, threshold: float = 0.0) -> frozenset:
        return frozenset(np.flatnonzero(np.abs(self.w) > threshold).tolist())

    @staticmethod
    def dirac(n: int, s: int) -> "Measure":
        w = np.zeros(n)
        w[s] = 1.0
        return Measure(w, nonneg=True)

    @staticmethod
    def uniform(n: int) -> "Measure":
        return Measure(np.full(n, 1.0 / n), nonneg=True)


@dataclass(frozen=True)
class Function:
    """Real-valued test function: value vector over points."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "v", v)
        if v.ndim != 1:
            raise ValueError("function values must be a 1-d vector")

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.v).max()) if self.n else 0.0

    def support(self, threshold: float = 0.0) -> frozenset:
        return frozenset(np.flatnonzero(np.abs(self.v) > threshold).tolist())

    def is_nonneg(self) -> bool:
        return bool(np.all(self.v >= 0))

    @staticmethod
    def indicator(n: int, points: Iterable[int]) -> "Function":
        v = np.zeros(n)
        v[list(points)] = 1.0
        return Function(v)

    @staticmethod
    def ones(n: int) -> "Function":
        return Function(np.ones(n))


def _check_size(h: FiniteHypergroup, *objs) -> None:
    for o in objs:
        if o.n != h.n:
            raise ValueError(f"dimension mismatch: hypergroup has n={h.n}, got {o.n}")


def _dirac_convolutions(h: FiniteHypergroup, nu: np.ndarray) -> np.ndarray:
    """m[s, u] = (dirac_s * nu)[u] = sum_t c[s, t, u] nu[t] for one vector nu,
    summed over c's entries in C order: O(nnz)."""
    n, (s, t, u, value) = h.n, h.entries
    return np.bincount(s * n + u, weights=value * nu[t], minlength=n * n).reshape(n, n)


def _contract_u(h: FiniteHypergroup, f: np.ndarray) -> np.ndarray:
    """k[a, b] = sum_u c[a, b, u] f[u] for one vector f, summed over c's entries
    in C order: O(nnz)."""
    n, (s, t, u, value) = h.n, h.entries
    return np.bincount(s * n + t, weights=value * f[u], minlength=n * n).reshape(n, n)


def _slabs(h: FiniteHypergroup):
    """Yield (lo, slab), slab the dense c[lo:lo + len(slab)], for lo = 0, rows,
    2 rows, ...: as many s-rows as fit in _BLOCK_FLOATS floats, at least one,
    scattered from their run of C-order entries.  The slabs share one buffer,
    cleared at those entries when the next is drawn."""
    n, (s, t, u, value) = h.n, h.entries
    rows = max(1, _BLOCK_FLOATS // (n * n))
    buf = np.zeros((min(rows, n), n, n))
    for lo in range(0, n, rows):
        j = slice(*np.searchsorted(s, [lo, lo + rows]))
        slab, at = buf[:min(rows, n - lo)], (s[j] - lo, t[j], u[j])
        slab[at] = value[j]
        yield lo, slab
        slab[at] = 0.0


def _contract_u_stack(h: FiniteHypergroup, f: np.ndarray) -> np.ndarray:
    """k[r, a, b] = sum_u c[a, b, u] f[r, u] for the rows of an (m, n) stack f:
    one BLAS product per slab of c, written into k[:, slab's rows]."""
    n = h.n
    k = np.empty((len(f), n * n))
    for lo, slab in _slabs(h):
        np.matmul(f, slab.reshape(-1, n).T, out=k[:, lo * n:(lo + len(slab)) * n])
    return k.reshape(len(f), n, n)


def _contract_s_stack(h: FiniteHypergroup, mu: np.ndarray) -> np.ndarray:
    """l[r, t, u] = sum_s mu[r, s] c[s, t, u] for the rows of an (m, n) stack mu:
    one BLAS product per slab of c, each added to l and dropped in slab order."""
    n, l = h.n, None
    for lo, slab in _slabs(h):
        x = mu[:, lo:lo + len(slab)], slab.reshape(len(slab), n * n)
        l = np.matmul(*x) if l is None else np.add(l, np.matmul(*x), out=l)
    return l.reshape(len(mu), n, n)


def convolve_measures(h: FiniteHypergroup, mu: Measure, nu: Measure) -> Measure:
    """(mu * nu)[u] = sum_{s,t} mu_s nu_t c[s,t,u]."""
    _check_size(h, mu, nu)
    return Measure(mu.w @ _dirac_convolutions(h, nu.w), nonneg=mu.nonneg and nu.nonneg)


def involute_measure(h: FiniteHypergroup, mu: Measure) -> Measure:
    """mu-check: weight at u becomes the weight at inv[u]."""
    _check_size(h, mu)
    return Measure(mu.w[h.inv], nonneg=mu.nonneg)


def involute_function(h: FiniteHypergroup, f: Function) -> Function:
    """f-check(s) = f(inv[s])."""
    _check_size(h, f)
    return Function(f.v[h.inv])


def pair(f: Function, mu: Measure) -> float:
    """Integral of f against mu: sum_t f_t w_t."""
    if f.n != mu.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {mu.n}")
    return float(f.v @ mu.w)


def translates(h: FiniteHypergroup, f: Function) -> np.ndarray:
    """Translate matrix K[s, t] = (dirac_s * f)(t) = sum_u c[inv[s], t, u] f(u)."""
    _check_size(h, f)
    return _contract_u(h, f.v)[h.inv]


def convolve_measure_function(h: FiniteHypergroup, mu: Measure, f: Function) -> Function:
    """(mu * f)(t) = sum_s mu_s sum_u c[inv[s], t, u] f(u)."""
    _check_size(h, mu, f)
    return Function(mu.w[np.argsort(h.inv)] @ _contract_u(h, f.v))  # m[inv[s]] = mu[s]


def convolve_function_measure(h: FiniteHypergroup, f: Function, mu: Measure) -> Function:
    """(f * mu)(t) = sum_s mu_s sum_u c[t, inv[s], u] f(u)."""
    _check_size(h, mu, f)
    return Function(_contract_u(h, f.v) @ mu.w[np.argsort(h.inv)])  # m[inv[s]] = mu[s]


def support_product(h: FiniteHypergroup, a: Iterable[int], b: Iterable[int]) -> frozenset:
    """A . B: union of supports of dirac_a * dirac_b over a in A, b in B."""
    a = list(a)
    b = list(b)
    for p in a + b:
        if not (0 <= p < h.n):
            raise ValueError(f"point index {p} out of range for n={h.n}")
    s, t, u, value = h.entries
    hit = np.isin(s, a) & np.isin(t, b) & (value > 0)
    return frozenset(np.unique(u[hit]).tolist())


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    worst: float = 0.0
    witness: Optional[tuple] = None
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def summary(self) -> str:
        lines = []
        for c in self.checks.values():
            status = "pass" if c.passed else "FAIL"
            extra = f" worst={c.worst:.3e}" if c.worst else ""
            if c.witness is not None and not c.passed:
                extra += f" witness={c.witness}"
            if c.note:
                extra += f" ({c.note})"
            lines.append(f"{c.name}: {status}{extra}")
        return "\n".join(lines)


def _argmax_witness(arr: np.ndarray) -> tuple:
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(arr)), arr.shape))


def _first_key(keys: np.ndarray, dev: np.ndarray, top: float) -> int:
    """Where np.argmax finds top in an n^3 array that is dev at keys and 0
    elsewhere: the least key whose dev is top (nan, for a nan top), and key 0
    for a top of 0."""
    if top == 0:
        return 0
    return int(keys[np.isnan(dev) if np.isnan(top) else dev == top].min())


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported as inf, not warned
def validate(h: FiniteHypergroup, tol: float = AXIOM_TOL) -> ValidationReport:
    """Check the hypergroup axioms; failures become report content, not errors.

    H1-H6 read c's entries in O(nnz + n^2): H1's row sums are summed over
    the entries in C order, H4 and H6 read the n x n slabs c[e], c[:, e, :]
    and c[:, :, e], and H5 compares each entry with c at its image. Each worst
    and witness is what the dense check reports: the largest deviation over
    all n^3 points, nan if any is, at the first point in C order that reaches
    it. They form no dense view of c.

    The associativity check sets the cost. Its worst is the largest
    |((s*t)*r - s*(t*r))(v)| over all points, where s*t is dirac_s * dirac_t,
    and its witness is the first (s, t, r, v) in C order that reaches it. It
    forms only the P products of two nonzeros of c, one left factor s at a
    time, in O(P) time and O(n^3) peak memory; P is
    sum_w #{u = w} * (#{s = w} + #{t = w}) over the nonzeros c[s, t, u], which
    is O(n^3 d^2) when every c[s, t] has at most d nonzeros. A deviation that
    overflows counts as inf, so the worst is inf at the first non-finite
    deviation. A non-finite c forms no products: the worst is nan and the
    witness is c's first non-finite entry (s, t, u).
    """
    n, e, inv = h.n, h.e, h.inv
    checks = {}

    bad = inv[inv] != np.arange(n)
    inv_ok = not bad.any() and inv[e] == e
    witness = None
    if bad.any():
        witness = (int(np.flatnonzero(bad)[0]),)
    elif inv[e] != e:
        witness = (e,)
    checks["involution"] = AxiomCheck("involution", inv_ok, 0.0, witness)

    worst, witness = _row_stochastic(h)
    checks["H1"] = AxiomCheck("H1 row-stochastic", worst <= tol, worst,
                              None if worst <= tol else witness)

    checks["H2"] = AxiomCheck("H2", True, note="automatic (finite discrete)")
    checks["H3"] = AxiomCheck("H3", True, note="automatic (finite discrete)")

    slab = _identity_slabs(h)
    eye = np.eye(n)
    dev4 = np.maximum(np.abs(slab[0] - eye), np.abs(slab[1] - eye))
    worst = float(dev4.max())
    checks["H4"] = AxiomCheck("H4 identity", worst <= tol, worst,
                              None if worst <= tol else _argmax_witness(dev4))

    worst, witness = _anti_homomorphism(h)
    checks["H5"] = AxiomCheck("H5 anti-homomorphism", worst <= tol, worst,
                              None if worst <= tol else witness)

    # c[t, inv[s], e] > tol iff t == s
    diag = slab[2, np.arange(n), inv]
    off = slab[2][:, inv]
    np.fill_diagonal(off, 0.0)
    h6_ok = bool(np.all(diag > tol) and np.all(off <= tol))
    worst = 0.0
    witness = None
    if not np.all(diag > tol):
        t = int(np.argmin(diag))  # the first NaN, if there is one
        witness = (t, t)
        worst = float(diag[t])
    elif not np.all(off <= tol):
        witness = _argmax_witness(off)
        worst = float(off.max())
    checks["H6"] = AxiomCheck("H6", h6_ok, worst, witness)

    checks["H7"] = AxiomCheck("H7", True, note="automatic (finite discrete)")

    worst, witness = _associativity(h)
    checks["associativity"] = AxiomCheck("associativity", worst <= tol, worst,
                                         None if worst <= tol else witness)

    return ValidationReport(checks)


def _row_stochastic(h: FiniteHypergroup) -> tuple:
    """H1's worst, the larger of max(-c) and max |sum_u c[s, t, u] - 1|, and its
    witness: the first entry (s, t, u) that reaches the first, else the first
    (s, t) that reaches the second.  The row sums run over the entries in C order."""
    s, t, u, value = h.entries
    neg = np.maximum(-value, 0.0)
    rowdev = np.abs(_contract_u(h, np.ones(h.n)) - 1.0)
    negmax, rowmax = neg.max(initial=0.0), rowdev.max()
    if negmax > rowmax:
        i = int(np.argmax(neg))
        return float(negmax), (int(s[i]), int(t[i]), int(u[i]))
    return max(float(negmax), float(rowmax)), _argmax_witness(rowdev)


def _identity_slabs(h: FiniteHypergroup) -> np.ndarray:
    """c[e], c[:, e, :] and c[:, :, e] as one (3, n, n) array, scattered from
    the entries whose s, t or u is e."""
    (s, t, u, value), slab = h.entries, np.zeros((3, h.n, h.n))
    for k, (at, a, b) in enumerate(((s, t, u), (t, s, u), (u, s, t))):
        on = at == h.e
        slab[k, a[on], b[on]] = value[on]
    return slab


def _anti_homomorphism(h: FiniteHypergroup) -> tuple:
    """H5's worst, max |c[s, t, u] - c[inv t, inv s, inv u]|, and the first
    (s, t, u) that reaches it.  The deviation is read at each entry, whose image
    is found among the entries by binary search, and at each point off the
    entries whose image is an entry, where c is 0; it is 0 everywhere else."""
    n, inv, (s, t, u, value) = h.n, h.inv, h.entries
    keys, back = (s * n + t) * n + u, np.argsort(inv)
    img = (inv[t] * n + inv[s]) * n + inv[u]
    pre = (back[t] * n + back[s]) * n + back[u]  # the points whose image is an entry
    want = np.concatenate([img, pre])
    i = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    hit, m = keys[i] == want, keys.size
    dev = np.concatenate([np.abs(value - np.where(hit[:m], value[i[:m]], 0.0)),
                          np.abs(value[~hit[m:]])])
    worst = float(dev.max(initial=0.0))
    key = _first_key(np.concatenate([keys, pre[~hit[m:]]]), dev, worst)
    return worst, tuple(map(int, np.unravel_index(key, (n,) * 3)))


def _nonzeros(c: np.ndarray) -> tuple:
    """The indices s, t, u and the values of c's nonzeros (NaNs included), in C
    order, through one boolean mask: np.nonzero on the float tensor is slower."""
    flat = np.flatnonzero(c != 0)
    return (*np.unravel_index(flat, c.shape), c.ravel()[flat])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(a, a + k) over the pairs of starts and counts."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)


def _associativity(h: FiniteHypergroup) -> tuple:
    """Worst |((s*t)*r - s*(t*r))[v]| and its first (s, t, r, v) in C order,
    through c's nonzeros (Gustavson's row-by-row product).

    For each s, ((s*b)*r)(v) = sum_u c[s,b,u] c[u,r,v] and
    (s*(t*r))(v) = sum_b c[t,r,b] c[s,b,v] are formed from the nonzeros of c[s]
    met with those of c grouped by first index and by third index. Each side is
    summed in turn into one n^3 accumulator, read at the keys t*n^2 + r*n + v
    that either side touches and zeroed at those it touched, so the deviation
    is one subtraction of two sums. O(P) time for the P products (see
    validate) and n^3 floats of memory, plus the products of one s.
    A non-finite c forms no products and gives nan at its first non-finite
    entry (s, t, u): the dense sums would spread it through 0 * nan and
    0 * inf, which no product of two nonzeros forms.
    """
    n, (s_, t_, u_, val) = h.n, h.entries  # C order: grouped by first index
    if not np.isfinite(val).all():
        i = int(np.argmin(np.isfinite(val)))
        return np.nan, (int(s_[i]), int(t_[i]), int(u_[i]))
    first = np.searchsorted(s_, np.arange(n + 1))
    rv = t_ * n + u_  # the key part (r, v) of c[u, r, v]
    by_u = np.argsort(u_, kind="stable")
    third = np.searchsorted(u_[by_u], np.arange(n + 1))
    tr, val_u = (s_ * n + t_)[by_u] * n, val[by_u]  # the key part (t, r) of c[t, r, b]
    acc = np.zeros(n ** 3)
    worst, witness = -np.inf, None
    for s in range(n):
        b, u, x = (a[first[s]:first[s + 1]] for a in (t_, u_, val))  # c[s, b, u] = x
        k = first[u + 1] - first[u]  # c[s,b,u] c[u,r,v] goes to key (b, r, v)
        j = _ranges(first[u], k)
        left = np.repeat(b * n * n, k) + rv[j]
        np.add.at(acc, left, np.repeat(x, k) * val[j])
        k = third[b + 1] - third[b]  # c[t,r,b] c[s,b,u] goes to key (t, r, u)
        j = _ranges(third[b], k)
        right = tr[j] + np.repeat(u, k)
        keys = np.concatenate([left, right])
        lhs = acc[keys]
        acc[left] = 0.0
        np.add.at(acc, right, val_u[j] * np.repeat(x, k))
        dev = np.abs(lhs - acc[keys])
        acc[right] = 0.0
        top = dev.max(initial=0.0)
        if np.isnan(top):  # c is finite, so overflowed products: inf - inf
            dev[np.isnan(dev)] = top = np.inf
        if top > worst:  # ties keep the first in C order
            key = _first_key(keys, dev, top)
            worst, witness = float(top), (s, *map(int, np.unravel_index(key, (n,) * 3)))
    return worst, witness


def find_dominating_measure(h: FiniteHypergroup, f: Function, f0: Function) -> Measure:
    """Greedy nonnegative mu with f(t) < (mu * f0)(t) strictly on S(f).

    For each t in S(f) the translate dirac_s * f0 with the largest value at t
    receives mass (f(t)+1) / (dirac_s * f0)(t).
    """
    _check_size(h, f, f0)
    if not f.is_nonneg():
        raise ValueError("f must be nonnegative")
    if not (f0.is_nonneg() and f0.sup_norm > 0):
        raise ValueError("f0 must be nonnegative and nonzero")
    w, uncovered = _cover(*_peaks(translates(h, f0)), f.v[None])
    if uncovered.any():
        raise NoCover(f"no translate of f0 reaches point {np.argmax(uncovered)}")
    return Measure(w[0], nonneg=True)


def _peaks(k: np.ndarray) -> tuple:
    """For each column t of the translate matrix k: the first s with the largest
    k[s, t], and that largest value."""
    s = np.argmax(k, axis=0)
    return s, k[s, np.arange(k.shape[1])]


def _cover(s: np.ndarray, best: np.ndarray, f: np.ndarray) -> tuple:
    """Greedy cover weights w (m, n) for the rows f_i of f (m, n), from column peaks
    s, best of shape (n,) or (m, n): each t in S(f_i) puts (f_i(t) + 1) / best[t]
    on the point s[t].

    Mass is added in increasing t, as a loop over S(f_i) would, so the sums are
    rounded in the same order.  Also returns the (m, n) mask of the points of
    S(f_i) that no translate reaches (best <= 0); they receive no mass.
    """
    s, best = np.broadcast_to(s, f.shape), np.broadcast_to(best, f.shape)
    on = np.abs(f) > 0.0
    uncovered = on & (best <= 0.0)
    i, t = np.nonzero(on & ~uncovered)
    w = np.zeros(f.shape)
    np.add.at(w, (i, s[i, t]), (f[i, t] + 1.0) / best[i, t])
    return w, uncovered


def _indicator_peaks(h: FiniteHypergroup) -> tuple:
    """_peaks of translates(h, 1_j) for every j, as (n, n) arrays indexed [j, t].

    The translate of 1_j is K[r, t] = c[inv[r], t, j], so the peak of its
    column t is the largest positive value among c's entries (inv[r], t, j),
    and s the first r that reaches it; O(nnz).  A column with no positive entry
    gets best 0 and s n - 1, which _cover never reads.
    """
    n, (s, t, u, value) = h.n, h.entries
    pos = value > 0
    r, t, u, value = np.argsort(h.inv)[s[pos]], t[pos], u[pos], value[pos]
    best = np.zeros((n, n))
    np.maximum.at(best, (u, t), value)
    top = value == best[u, t]
    first = np.full((n, n), n - 1)
    np.minimum.at(first, (u[top], t[top]), r[top])
    return first, best
