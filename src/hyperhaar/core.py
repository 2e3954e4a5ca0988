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

from dataclasses import InitVar, dataclass, field
from typing import Iterable, Optional

import numpy as np

AXIOM_TOL = 1e-9  # validate's default and the invariance solve's clamp
EXACT_TOL = 1e-12  # rounding of quantities exact in theory: the suites, the Cauchy stop
CERTIFY_TOL = 1e-10  # the invariance residual that certifies haar_net's limit
# Below this n, 8 n^3 bytes (the dense tensor) are addressable and the flat keys
# of c's entries fit int64.
MAX_N = 2 ** 20
# The memory model.  The temporaries of one block of identity-suite trials and
# the associativity accumulator stay below _BLOCK_FLOATS floats, which also sets
# the suite's route (identity_suite); _associativity merges whole t-slabs of its
# accumulator while they fit in _CACHE_FLOATS, a cache-sized budget.  Of 2^14 to
# 2^18, 2^16 checked the 100 small-mix documents of seed 0 fastest (19-20 ms on
# one core of a 2-core x86-64; 29-31 ms at 2^14 and 20-21 ms at 2^18).
_BLOCK_FLOATS = 2 ** 21
_CACHE_FLOATS = 2 ** 16

__all__ = [
    "AXIOM_TOL",
    "EXACT_TOL",
    "CERTIFY_TOL",
    "FiniteHypergroup",
    "Measure",
    "Function",
    "AxiomCheck",
    "ValidationReport",
    "Refusal",
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


class Refusal(Exception):
    """An input that is not a hypergroup the requested computation can work with:
    the CLI reports each as a one-line diagnosis and exits 1."""


class NoCover(Refusal):
    """No finite positive combination of translates dominates the target."""


class _RuleError(ValueError):
    """A broken rule of FiniteHypergroup's input; where names its place for a document's
    reader: "n", "e", "inv" or an entry's position as given. repeat marks a repeated entry."""
    def __init__(self, where, text: str, repeat: bool = False):
        super().__init__(text)
        self.where, self.repeat = where, repeat


def _check_n(n: int) -> None:
    """The rule on n, for FiniteHypergroup and cyclic_hypergroup."""
    if n < 1:
        raise _RuleError("n", "n must be at least 1")
    if n >= MAX_N:
        raise _RuleError("n", f"n={n} is not below {MAX_N}: the n^3 tensor is not addressable")


@dataclass(frozen=True, repr=False, eq=False)
class FiniteHypergroup:
    """Finite hypergroup: identity e, involution inv, structure tensor c.

    c is stored as its entries, the arrays (s, t, u, value) in C order, which
    from_entries takes and FiniteHypergroup(n, e, inv, c) lists from a dense
    tensor, in place of any entries given with it; the dense c is not kept,
    and no reader in this module forms it.  Equality is identity.
    """

    n: int
    e: int
    inv: np.ndarray
    c: InitVar[Optional[np.ndarray]] = None
    entries: Optional[tuple] = field(default=None, kw_only=True)

    @classmethod
    def from_entries(cls, n: int, e: int, inv, s, t, u, value) -> "FiniteHypergroup":
        """The hypergroup whose tensor has c[s[i], t[i], u[i]] = value[i], in any
        order, and zeros elsewhere.  Refused: an index outside 0..n-1, then an (s, t, u)
        listed twice; the refusal names the first such i, for a repeat its later listing."""
        return cls(n, e, inv, entries=(s, t, u, value))

    def __post_init__(self, c):
        n, inv = self.n, np.asarray(self.inv)  # checked before its entries are cast to int
        _check_n(n)
        if not (0 <= self.e < n):
            raise _RuleError("e", f"identity index {self.e} out of range for n={n}")
        if inv.shape != (n,) or not np.array_equal(np.sort(inv), np.arange(n)):
            raise _RuleError("inv", "involution is not a permutation")
        object.__setattr__(self, "inv", inv.astype(int, copy=False))
        if c is not None:
            c = np.asarray(c, dtype=float)
            if c.shape != (n, n, n):
                raise ValueError(f"structure tensor must have shape {(n,) * 3}")
            object.__setattr__(self, "entries", _nonzeros(c))
        elif self.entries is None:
            raise TypeError("FiniteHypergroup needs the structure tensor c or its entries")
        if len(set(map(len, self.entries))) > 1:
            raise ValueError("entries must list as many values as indices")
        value = np.array(self.entries[3], float)
        try:  # an index past int64 fails the cast, one outside 0..n-1 the raveling
            stu = np.array(self.entries[:3], dtype=np.intp)
            keys = np.ravel_multi_index(stu, (n,) * 3)
        except (OverflowError, ValueError):  # the first entry outside, judged as given
            given = np.asarray(self.entries[:3])
            first = int(np.argmax(((given < 0) | (given >= n)).any(axis=0)))
            raise _RuleError(first, f"entry indices must lie in 0..{n - 1}") from None
        if not (keys[1:] > keys[:-1]).all():  # out of C order, or repeated
            order = np.argsort(keys, kind="stable")
            stu, value, keys = stu[:, order], value[order], keys[order]
            repeat = keys[1:] == keys[:-1]  # a stable sort keeps a repeat's listings in order
            if repeat.any():
                raise _RuleError(int(order[1:][repeat].min()), "an entry (s, t, u) is listed twice",
                                 repeat=True)
        object.__setattr__(self, "entries", (*stu, value))

    def __repr__(self) -> str:
        return f"FiniteHypergroup(n={self.n}, e={self.e}, nnz={np.count_nonzero(self.entries[3])})"

    def points(self) -> range:
        return range(self.n)


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
        return Measure(Function.indicator(n, [s]).v, nonneg=True)

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

    def support(self, threshold: float = 0.0) -> frozenset:
        return frozenset(np.flatnonzero(np.abs(self.v) > threshold).tolist())

    @staticmethod
    def indicator(n: int, points: Iterable[int]) -> "Function":
        """1 at points, 0 elsewhere; also the point rule of Measure.dirac and support_product."""
        points = list(points)
        for p in points:
            if not (0 <= p < n):
                raise ValueError(f"point index {p} out of range for n={n}")
        v = np.zeros(n)
        v[points] = 1.0
        return Function(v)

    @staticmethod
    def ones(n: int) -> "Function":
        return Function(np.ones(n))


def _check_size(ref, *objs) -> None:
    for o in objs:  # ref is a hypergroup, a measure or a function
        if o.n != ref.n:
            raise ValueError(f"dimension mismatch: expected n={ref.n}, got {o.n}")


_NONNEG_NONZERO = "{} must be nonnegative and nonzero, and finite"


def _breaks_nonneg_nonzero(v: np.ndarray) -> np.ndarray:
    """The rule on f0, the bumps and bounds' probes, refused with _NONNEG_NONZERO: for
    each row of v, whether it has a negative, infinite or NaN value, or no positive one."""
    return ~(((v >= 0) & (v < np.inf)).all(axis=-1) & (v > 0).any(axis=-1))


def _contract(h: FiniteHypergroup, x: np.ndarray, axis: int) -> np.ndarray:
    """The sums of c over its axis 0 (s), 1 (t) or 2 (u) against x, the other two
    axes kept in order: for each row of an (m, n) stack x one (n, n) bincount
    over c's entries in C order, O(m nnz). A vector is a stack of one row, and
    gives one (n, n) array. A row's n^2 sums stay in cache: one bincount over
    all m rows, offset by row, took 1.5-5 times as long."""
    n, (s, t, u, value) = h.n, h.entries
    kept = [s, t, u]
    at = kept.pop(axis)
    keys = kept[0] * n + kept[1]
    rows = x.reshape(-1, n)
    out = np.empty((len(rows), n * n))
    for r, row in enumerate(rows):
        out[r] = np.bincount(keys, value * row[at], n * n)
    return out.reshape(*x.shape[:-1], n, n)


def convolve_measures(h: FiniteHypergroup, mu: Measure, nu: Measure) -> Measure:
    """(mu * nu)[u] = sum_{s,t} mu_s nu_t c[s,t,u]."""
    _check_size(h, mu, nu)
    return Measure(mu.w @ _contract(h, nu.w, 1), nonneg=mu.nonneg and nu.nonneg)


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
    _check_size(mu, f)
    return float(f.v @ mu.w)


def translates(h: FiniteHypergroup, f: Function) -> np.ndarray:
    """Translate matrix K[s, t] = (dirac_s * f)(t) = sum_u c[inv[s], t, u] f(u)."""
    _check_size(h, f)
    return _contract(h, f.v, 2)[h.inv]


def convolve_measure_function(h: FiniteHypergroup, mu: Measure, f: Function) -> Function:
    """(mu * f)(t) = sum_s mu_s sum_u c[inv[s], t, u] f(u)."""
    _check_size(h, mu, f)
    return Function(mu.w[np.argsort(h.inv)] @ _contract(h, f.v, 2))  # m[inv[s]] = mu[s]


def convolve_function_measure(h: FiniteHypergroup, f: Function, mu: Measure) -> Function:
    """(f * mu)(t) = sum_s mu_s sum_u c[t, inv[s], u] f(u)."""
    _check_size(h, mu, f)
    return Function(_contract(h, f.v, 2) @ mu.w[np.argsort(h.inv)])  # m[inv[s]] = mu[s]


def support_product(h: FiniteHypergroup, a: Iterable[int], b: Iterable[int]) -> frozenset:
    """A . B: union of supports of dirac_a * dirac_b over a in A, b in B."""
    a, b = (Function.indicator(h.n, x).v > 0 for x in (a, b))
    s, t, u, value = h.entries
    return frozenset(np.unique(u[a[s] & b[t] & (value > 0)]).tolist())


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


def _graded(name: str, tol: float, worst: float, witness: tuple) -> AxiomCheck:
    """The check that passes when worst <= tol, and else names its witness."""
    passed = worst <= tol
    return AxiomCheck(name, passed, worst, None if passed else witness)


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
    the entries in C order, H4 and H6 read the n x n planes c[e], c[:, e, :]
    and c[:, :, e], and H5 compares each entry with c at its image. Each worst
    and witness is what the dense check reports: the largest deviation over
    all n^3 points, nan if any is, at the first point in C order that reaches
    it. They form no dense view of c.

    The associativity check (_associativity) sets the cost. Its worst is the
    largest |((s*t)*r - s*(t*r))(v)| over all points, where s*t is
    dirac_s * dirac_t, at the first (s, t, r, v) in C order that reaches it.
    It forms only the P products of two nonzeros of c, in O(P) time; P is
    sum_w #{u = w} * (#{s = w} + #{t = w}) over the nonzeros c[s, t, u], which
    is O(n^3 d^2) when every c[s, t] has at most d nonzeros, and half as many,
    sum_w #{u = w} * #{s = w}, for a commutative c (c[s, t] = c[t, s] bitwise)
    with n^3 at most _BLOCK_FLOATS. Its memory is O(nnz + n^2) beside one
    accumulator of at most max(_BLOCK_FLOATS, n^2) floats and the products of
    one block. A deviation that overflows counts as inf; a non-finite c gives
    nan at its first non-finite entry (s, t, u).
    """
    _check_tol(tol)
    n, inv = h.n, h.inv
    checks = {}

    witness = _involution_witness(h)
    checks["involution"] = AxiomCheck("involution", witness is None, 0.0, witness)
    checks["H1"] = _graded("H1 row-stochastic", tol, *_row_stochastic(h))
    checks["H2"] = AxiomCheck("H2", True, note="automatic (finite discrete)")
    checks["H3"] = AxiomCheck("H3", True, note="automatic (finite discrete)")

    planes = _identity_planes(h)
    eye = np.eye(n)
    dev4 = np.maximum(np.abs(planes[0] - eye), np.abs(planes[1] - eye))
    checks["H4"] = _graded("H4 identity", tol, float(dev4.max()), _argmax_witness(dev4))
    checks["H5"] = _graded("H5 anti-homomorphism", tol, *_anti_homomorphism(h))

    # c[t, inv[s], e] > tol iff t == s
    diag = planes[2, np.arange(n), inv]
    off = planes[2][:, inv]
    np.fill_diagonal(off, 0.0)
    worst, witness = 0.0, None
    if not np.all(diag > tol):
        t = int(np.argmin(diag))  # the first NaN, if there is one
        witness = (t, t)
        worst = float(diag[t])
    elif not np.all(off <= tol):
        witness = _argmax_witness(off)
        worst = float(off.max())
    checks["H6"] = AxiomCheck("H6", witness is None, worst, witness)

    checks["H7"] = AxiomCheck("H7", True, note="automatic (finite discrete)")
    checks["associativity"] = _graded("associativity", tol, *_associativity(h))

    return ValidationReport(checks)


def _check_tol(tol: float) -> None:
    """The rule on validate's tol, and on the CLI's --tol of validate and compare."""
    if not (0 <= tol < np.inf):
        raise ValueError("tol must be a finite number >= 0")


def _involution_witness(h: FiniteHypergroup) -> Optional[tuple]:
    """None when inv is an involution fixing e, else the first (p,) with
    inv[inv[p]] != p, else (e,): the involution check's one reader."""
    bad = np.flatnonzero(h.inv[h.inv] != np.arange(h.n))
    if bad.size:
        return (int(bad[0]),)
    return None if h.inv[h.e] == h.e else (h.e,)


def _row_stochastic(h: FiniteHypergroup) -> tuple:
    """H1's worst, the larger of max(-c) and max |sum_u c[s, t, u] - 1|, and its
    witness: the first entry (s, t, u) that reaches the first, else the first
    (s, t) that reaches the second.  The row sums run over the entries in C order."""
    s, t, u, value = h.entries
    neg = np.maximum(-value, 0.0)
    rowdev = np.abs(_contract(h, np.ones(h.n), 2) - 1.0)
    negmax, rowmax = neg.max(initial=0.0), rowdev.max()
    if negmax > rowmax:
        i = int(np.argmax(neg))
        return float(negmax), (int(s[i]), int(t[i]), int(u[i]))
    return max(float(negmax), float(rowmax)), _argmax_witness(rowdev)


def _identity_planes(h: FiniteHypergroup) -> np.ndarray:
    """c[e], c[:, e, :] and c[:, :, e] as one (3, n, n) array, scattered from
    the entries whose s, t or u is e."""
    (s, t, u, value), planes = h.entries, np.zeros((3, h.n, h.n))
    for k, (at, a, b) in enumerate(((s, t, u), (t, s, u), (u, s, t))):
        on = at == h.e
        planes[k, a[on], b[on]] = value[on]
    return planes


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
    through c's nonzeros (Gustavson's row-by-row product, over blocks of rows).

    Both sides are one kernel, the left product at middle index t,
    L_t[a, r, v] = sum_u X[a, t, u] X[u, r, v], summed in increasing u:
    ((s*t)*r)(v) = L_t[s, r, v] for X = c, and (s*(t*r))(v) = L_t[r, s, v] for
    the opposite tensor X = c', c'[a, b, w] = c[b, a, w]. The kernel meets X's
    entries grouped by middle index with X's rows, so two orderings of c's
    entries serve both sides: C order lists c's rows and c' grouped by middle
    index, and the (t, s, u) order of one stable sort lists c' in C order.

    A block is as many middle indices t as fit in _CACHE_FLOATS floats of
    accumulator, n^3 a slab (s, r, v), while n^3 is at most _BLOCK_FLOATS, and
    past that one t with s in ranges of max(1, _BLOCK_FLOATS // n^2). When
    c' == c bitwise over the entries (c is commutative) and whole slabs fit,
    side 2 is side 1 transposed and is not formed: the deviation at
    (s, t, r, v) is |L_t[s, r, v] - L_t[r, s, v]|, read at each key side 1
    touches and at its transpose. Otherwise each side is summed in turn into the
    one accumulator, keyed (t, s, r, v), read at the keys either side
    touches and zeroed at those it touched, so the deviation is one subtraction
    of two sums. Either way each key sums its terms in one order, by u on the
    left and by b on the right, and a tie keeps the first (s, t, r, v) in C
    order, within a block and across blocks, so neither the budgets nor the
    commutative shortcut move the worst or the witness. O(P) time for the P
    products (see validate).
    A non-finite c forms no products and gives nan at its first non-finite
    entry (s, t, u): the dense sums would spread it through 0 * nan and
    0 * inf, which no product of two nonzeros forms.
    """
    n, nn, (s_, t_, u_, val) = h.n, h.n * h.n, h.entries
    if not np.isfinite(val).all():
        i = int(np.argmin(np.isfinite(val)))
        return np.nan, (int(s_[i]), int(t_[i]), int(u_[i]))
    if n * nn <= _BLOCK_FLOATS:  # whole slabs: the key of (t, s, r, v) is (t - t0, s, r, v)
        ts, width, slab = min(n, max(1, _CACHE_FLOATS // (n * nn))), n, n * nn
    else:  # one t: the key of (t0, s, r, v) is (s - s0, r, v)
        ts, width, slab = 1, max(1, _BLOCK_FLOATS // nn), 0
    by_t = np.argsort(t_, kind="stable")
    c, ct = (s_, t_, u_, val), tuple(a[by_t] for a in (t_, s_, u_, val))  # c and c' in C order
    one = width == n and all(map(np.array_equal, c, ct))  # side 2 is side 1 transposed
    # c[a, b] is the run oc[a n + b]:oc[a n + b + 1], and c'[a, b] the run of oct
    oc, oct = (np.searchsorted(x[0] * n + x[1], np.arange(nn + 1)) for x in (c, ct))
    # Side 1 takes X = c and side 2 X = c'. A side's tuple: for the rows X[u, r, v],
    # X's offsets, the key part of (r, v) and the values; for X[a, t, u] = X'[t, a, u],
    # read in the C order of X', its offsets, u, the values and the key part of (t, a).
    sides = ((oc, t_ * n + u_, val, oct, ct[2], ct[3], ct[0] * slab + ct[1] * nn),
             (oct, ct[1] * nn + ct[2], ct[3], oc, u_, val, s_ * slab + t_ * n))
    acc = np.zeros(ts * width * nn)
    worst, witness = 0.0, (0, 0, 0, 0)
    for t0 in range(0, n, ts):
        t1 = min(t0 + ts, n)
        for s0 in range(0, n, width):
            s1 = min(s0 + width, n)
            base, keys, terms = t0 * slab + s0 * nn, [], []
            for (ox, rv, y, oxt, u, x, ta), (a0, a1), (r0, r1) in zip(
                    sides, ((s0, s1), (0, n)), ((0, n), (s0, s1))):
                if not (one and keys):  # else side 2 meets the entries side 1 met
                    lo, hi = oxt[t0 * n + a0], oxt[(t1 - 1) * n + a1]  # X[a, t, u], a0 <= a < a1
                    start = ox[r0::n][u[lo:hi]]  # times X[u, r, v], r0 <= r < r1
                    k = ox[r1::n][u[lo:hi]] - start
                    j = _ranges(start, k)
                    terms.append(np.repeat(x[lo:hi], k) * y[j])
                keys.append(np.repeat(ta[lo:hi] - base, k) + rv[j])
            left, right = keys
            np.add.at(acc, left, terms[0])
            if one:
                dev = np.abs(acc[left] - acc[right])
                acc[left] = 0.0
            else:
                keys = np.concatenate(keys)
                lhs = acc[keys]
                acc[left] = 0.0
                np.add.at(acc, right, terms[1])
                dev = np.abs(lhs - acc[keys])
                acc[right] = 0.0
            top = dev.max(initial=0.0)
            if np.isnan(top):  # c is finite, so overflowed products: inf - inf
                dev[np.isnan(dev)] = top = np.inf
            if top > 0 and top >= worst:  # the block's first key at top, in C order
                hit = dev == top
                q, tail = np.divmod(np.concatenate([left[hit], right[hit]]) if one else keys[hit], nn)
                s, t = s0 + q % n, t0 + q // n
                i = np.lexsort((tail, t, s))[0]
                first = (int(s[i]), int(t[i]), *divmod(int(tail[i]), n))
                if top > worst or first < witness:
                    worst, witness = float(top), first
    return worst, witness


def find_dominating_measure(h: FiniteHypergroup, f: Function, f0: Function) -> Measure:
    """Greedy nonnegative mu with f(t) < (mu * f0)(t) strictly on S(f).

    For each t in S(f) the translate dirac_s * f0 with the largest value at t
    receives mass (f(t)+1) / (dirac_s * f0)(t).
    """
    _check_size(h, f, f0)
    if not ((f.v >= 0) & (f.v < np.inf)).all():
        raise ValueError("f must be nonnegative and finite")
    if _breaks_nonneg_nonzero(f0.v):
        raise ValueError(_NONNEG_NONZERO.format("f0"))
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
