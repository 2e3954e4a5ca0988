import itertools
import tracemalloc

import numpy as np
import pytest

from hyperhaar import build_family


def s3_table():
    """S3 multiplication table, elements in lexicographic order (independent copy)."""
    elems = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    n = len(elems)
    table = np.zeros((n, n), dtype=int)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i, j] = index[tuple(p[x] for x in q)]
    return table, elems, index


def dense(h):
    """h's structure tensor as one n^3 array, scattered from its entries: a test
    reference only."""
    c = np.zeros((h.n,) * 3)
    s, t, u, value = h.entries
    c[s, t, u] = value
    return c


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BUNDLED = {
    "Z4": ("cyclic", "4"),
    "Z8": ("cyclic", "8"),
    "theta-0.1": ("theta2", "0.1"),
    "theta-0.5": ("theta2", "0.5"),
    "theta-1": ("theta2", "1"),
    "S3-classes": ("conj-class", "s3"),
    "cosine-3": ("cosine-grid", "3"),
    "cosine-5": ("cosine-grid", "5"),
    "Z2xtheta-0.5": ("product", "cyclic:2,theta2:0.5"),
}


@pytest.fixture(params=sorted(BUNDLED), ids=sorted(BUNDLED))
def bundled(request):
    return build_family(*BUNDLED[request.param])
