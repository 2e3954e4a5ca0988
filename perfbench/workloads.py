"""Workload definitions and independent reference weights.

A workload is a list of documents.  Each document names the ``gen`` family
and parameter that produce it, the commands run on it in every pass, and the
normalized Haar weights the commands must reproduce.  The reference weights
are built here from closed forms, without importing ``hyperhaar``, so a bug
shared by the package's three routes still shows as a wrong answer.

Only this module decides what a seed changes:

* ``grid64`` and ``large-sparse`` have a fixed composition; the seed only
  shuffles the order in which documents are processed.
* ``small-mix`` has a fixed composition too: each family contributes 20
  documents whose sizes follow a fixed ladder from 2 to 24, and the group,
  the product's split and its factor families are fixed per rung.  The seed
  draws only what leaves the work unchanged (theta, the lemma-suite seed and
  the document order), so the work per pass does not depend on the seed
  while every seed still gives different documents.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

MAX_SMALL_N = 24
PER_FAMILY = 20
LEMMA_TRIALS = 100


@dataclass(frozen=True)
class Doc:
    """One generated document and what is run and checked on it."""

    doc_id: str
    family: str
    param: str
    reference: Tuple[float, ...]
    commands: Tuple[Tuple[str, ...], ...]
    # Rows of the group table that ``gen`` reads from the file named by
    # ``param`` (conj-class documents of groups other than S3 and S4).
    table: Optional[Tuple[Tuple[int, ...], ...]] = None

    def gen_argv(self, workdir: str) -> List[str]:
        param = f"{workdir}/{self.param}" if self.table else self.param
        return ["gen", "--family", self.family, "--param", param,
                "-o", f"{workdir}/{self.doc_id}.hg"]


# --- independent reference weights -------------------------------------------

def ref_cyclic(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def ref_theta2(theta: float) -> np.ndarray:
    return np.array([theta, 1.0]) / (1.0 + theta)


def ref_cosine_grid(m: int) -> np.ndarray:
    w = np.full(m, 2.0)
    w[0] = w[-1] = 1.0
    return w / (2 * m - 2)


def ref_classes(table: np.ndarray) -> np.ndarray:
    """Class sizes over |G|, classes ordered by their smallest element."""
    order = table.shape[0]
    e = next(a for a in range(order) if all(table[a, x] == x for x in range(order)))
    inverse = [next(b for b in range(order) if table[a, b] == e) for a in range(order)]
    seen, sizes = set(), []
    for a in range(order):
        if a not in seen:
            orbit = {int(table[table[g, a], inverse[g]]) for g in range(order)}
            seen |= orbit
            sizes.append(len(orbit))
    return np.array(sizes, dtype=float) / order


def ref_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(a, b)


# --- group tables for conj-class documents ------------------------------------

def symmetric_table(k: int) -> np.ndarray:
    """S_k, permutations in lexicographic order, (p q)(x) = p(q(x))."""
    elems = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(elems)}
    return np.array([[index[tuple(p[x] for x in q)] for q in elems] for p in elems])


def dihedral_table(k: int) -> np.ndarray:
    """D_k as the maps x -> (-1)^f x + i on Z_k; element (f, i) has index f*k + i."""
    table = np.zeros((2 * k, 2 * k), dtype=int)
    for fa, ia, fb, ib in itertools.product(range(2), range(k), range(2), range(k)):
        table[fa * k + ia, fb * k + ib] = (fa ^ fb) * k + (ia + (-1) ** fa * ib) % k
    return table


def dihedral_classes(k: int) -> int:
    return (k + 3) // 2 if k % 2 else k // 2 + 3


_NAMED_GROUPS = {"s3": 3, "s4": 4}


def _ref_named(name: str) -> np.ndarray:
    return ref_classes(symmetric_table(_NAMED_GROUPS[name]))


# --- workloads -----------------------------------------------------------------

def make_doc(doc_id, family, param, reference, commands, table=None) -> Doc:
    return Doc(doc_id, family, param, tuple(float(x) for x in reference),
               tuple(tuple(c) for c in commands), table)


def grid64(rng: np.random.Generator) -> List[Doc]:
    cmds = [("validate",), ("compare",)]
    docs = [
        make_doc("cosine-grid-64", "cosine-grid", "64", ref_cosine_grid(64), cmds),
        make_doc("cyclic-64", "cyclic", "64", ref_cyclic(64), cmds),
        make_doc("product-c8-g8", "product", "cyclic:8,cosine-grid:8",
             ref_product(ref_cyclic(8), ref_cosine_grid(8)), cmds),
    ]
    return [docs[i] for i in rng.permutation(len(docs))]


def large_sparse(rng: np.random.Generator) -> List[Doc]:
    cmds = [("haar", "--method", "jewett"), ("haar", "--method", "solve")]
    docs = [
        make_doc("cyclic-256", "cyclic", "256", ref_cyclic(256), cmds),
        make_doc("cosine-grid-256", "cosine-grid", "256", ref_cosine_grid(256), cmds),
    ]
    return [docs[i] for i in rng.permutation(len(docs))]


def _size_ladder() -> List[int]:
    return [2 + round(i * (MAX_SMALL_N - 2) / (PER_FAMILY - 1)) for i in range(PER_FAMILY)]


def _theta(rng: np.random.Generator) -> str:
    return f"{rng.uniform(0.05, 1.0):.6g}"


def _factor(rng: np.random.Generator, size: int, rung: int) -> Tuple[str, np.ndarray]:
    """A product factor with ``size`` points, as ('family:param', reference).

    The family is fixed by ``rung``; only a theta2 factor draws from ``rng``.
    """
    choices = ["cyclic", "cosine-grid"]
    if size == 2:
        choices.append("theta2")
    choices += [name for name in _NAMED_GROUPS if _ref_named(name).size == size]
    family = choices[rung % len(choices)]
    if family == "cyclic":
        return f"cyclic:{size}", ref_cyclic(size)
    if family == "cosine-grid":
        return f"cosine-grid:{size}", ref_cosine_grid(size)
    if family == "theta2":
        theta = _theta(rng)
        return f"theta2:{theta}", ref_theta2(float(theta))
    return f"conj-class:{family}", _ref_named(family)


def _group_for(target: int):
    """The group whose class count is nearest ``target``: (name, table or None, reference)."""
    groups = [("s3", None, 3), ("s4", None, 5)]
    groups += [(f"d{k}", k, dihedral_classes(k)) for k in range(3, 2 * MAX_SMALL_N)]
    name, k, _ = min(groups, key=lambda g: abs(g[2] - target))
    if k is None:
        return name, None, _ref_named(name)
    table = dihedral_table(k)
    return name, table, ref_classes(table)


def small_mix(rng: np.random.Generator) -> List[Doc]:
    docs = []

    def cmds():
        return [("validate",), ("compare",),
                ("check-lemmas", "--trials", str(LEMMA_TRIALS),
                 "--seed", str(int(rng.integers(2 ** 31))))]

    for i, n in enumerate(_size_ladder()):
        docs.append(make_doc(f"cyclic-{n}-{i}", "cyclic", str(n), ref_cyclic(n), cmds()))
        docs.append(make_doc(f"cosine-grid-{n}-{i}", "cosine-grid", str(n),
                             ref_cosine_grid(n), cmds()))

        theta = _theta(rng)
        docs.append(make_doc(f"theta2-{i}", "theta2", theta, ref_theta2(float(theta)), cmds()))

        name, table, ref = _group_for(n)
        if table is None:
            docs.append(make_doc(f"conj-{name}-{i}", "conj-class", name, ref, cmds()))
        else:
            rows = tuple(tuple(int(x) for x in row) for row in table)
            docs.append(make_doc(f"conj-{name}-{i}", "conj-class", f"{name}.table", ref,
                                 cmds(), rows))

        size = max(n, 4)
        splits = [(a, size // a) for a in range(2, size) if size % a == 0]
        while not splits:
            size -= 1
            splits = [(a, size // a) for a in range(2, size) if size % a == 0]
        a, b = splits[i % len(splits)]
        (spec_a, ref_a), (spec_b, ref_b) = _factor(rng, a, i), _factor(rng, b, i + 1)
        docs.append(make_doc(f"product-{size}-{i}", "product", f"{spec_a},{spec_b}",
                             ref_product(ref_a, ref_b), cmds()))
    return [docs[i] for i in rng.permutation(len(docs))]


WORKLOADS = {"grid64": grid64, "small-mix": small_mix, "large-sparse": large_sparse}

# (n, repeats) of the calibration kernel (child.calibration_kernel) per
# workload: the scale of the workload's own work, where the interpreter and
# numpy's per-call cost dominate (n=16, small-mix) or numpy's and LAPACK's
# inner loops do (n=64).  Over five runs each on a 2-vCPU Xeon VM, the
# kernel of the other size tracked the machine worse: the quartile distance
# over median of the scaled pass time was 7.6 % against 9.4 % on small-mix
# and 4.3 % against 16 % on large-sparse.  Both sizes take about 25 ms.
CALIBRATION = {"grid64": (64, 52), "small-mix": (16, 1500), "large-sparse": (64, 52)}


def build(workload: str, seed: int) -> List[Doc]:
    """The documents of ``workload`` for ``seed``; equal seeds give equal documents."""
    return WORKLOADS[workload](np.random.default_rng(seed))


def describe(docs: List[Doc]) -> Dict[str, int]:
    """Document count per family, for the run record."""
    counts: Dict[str, int] = {}
    for d in docs:
        counts[d.family] = counts.get(d.family, 0) + 1
    return counts
