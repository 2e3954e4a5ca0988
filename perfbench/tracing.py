"""Spans around calls into hyperhaar's layers, recorded from outside the package.

The package's modules import each other's functions by name
(``from .core import validate``), so a function is wrapped in every module
namespace that holds it, which is where its callers look it up.  Each call
records one span: name, start, end, parent span, the operation (document and
command) it belongs to, and optionally a size and a tracemalloc peak.  Spans
stay in memory in flat arrays until the run writes them out.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

# (defining module, function): the public entry points of each layer.
LAYER_FUNCTIONS = [
    ("approx", "haar_net"),
    ("approx", "normalized_approximant"),
    ("approx", "main_identity_gap"),
    ("approx", "sandwich_ratio"),
    ("core", "validate"),
    ("core", "convolve_measure_function"),
    ("core", "convolve_measures"),
    ("core", "convolve_function_measure"),
    ("core", "find_dominating_measure"),
    ("checks", "identity_suite"),
    ("checks", "terminal_gap_suite"),
    ("checks", "terminal_ratio_suite"),
    ("checks", "bounds_suite"),
    ("fileio", "serialize_hypergroup"),
    ("fileio", "parse_hypergroup"),
    ("oracles", "solve_invariance"),
    ("oracles", "jewett_haar"),
    ("oracles", "invariance_residual"),
    ("oracles", "build_family"),
]
# Spans whose tracemalloc peak is recorded.  They never nest in each other,
# and they allocate few, large numpy arrays, so tracemalloc costs them little.
# (The parser allocates many small objects, which tracemalloc slows tenfold;
# its peak is measured outside the timed passes.)
PEAK_FUNCTIONS = {"core.validate", "oracles.solve_invariance"}
# Spans that record the size of their first argument (the document text).
SIZE_FUNCTIONS = {"fileio.parse_hypergroup"}
MODULES = ["cli", "approx", "core", "checks", "fileio", "oracles"]


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.size = array("q")
        self.peak = array("q")
        # 1 where an enclosing span has the same name (recursive calls).
        self.nested = array("b")
        self._depth: List[int] = []
        self._stack: List[int] = []
        self.current_op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.size.append(0)
        self.peak.append(0)
        self.nested.append(self._depth[nid] > 0)
        self._depth[nid] += 1
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._depth[self.name[i]] -= 1
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self._open(self._id(name))
        self.start[i] = time.perf_counter()
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        measure_peak = name in PEAK_FUNCTIONS
        measure_size = name in SIZE_FUNCTIONS

        def traced(*args, **kwargs):
            i = self._open(nid)
            if measure_size:
                self.size[i] = len(args[0])
            if measure_peak:
                tracemalloc.start()
            self.start[i] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
                if measure_peak:
                    self.peak[i] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, package) -> Iterator[None]:
        """Wrap every binding of the layer functions in the package's modules."""
        modules = [getattr(package, m) for m in MODULES]
        patched: List[Tuple[object, str, Callable]] = []
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(getattr(package, mod_name), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    patched.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        try:
            yield
        finally:
            for mod, fn_name, original in patched:
                setattr(mod, fn_name, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as columns, with duration and self time added."""
        cols = {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "size": np.array(self.size, dtype=np.int64),
            "peak": np.array(self.peak, dtype=np.int64),
            "nested": np.array(self.nested, dtype=bool),
        }
        dur = cols["end"] - cols["start"]
        child = np.zeros(dur.size)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], dur[has_parent])
        cols["dur"] = dur
        cols["self"] = dur - child
        return cols

    def save(self, path: str) -> None:
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)


def ancestor_with(cols: Dict[str, np.ndarray], nid: Optional[int]) -> np.ndarray:
    """For each span, the index of its nearest strict ancestor named ``nid`` (or -1)."""
    parent = cols["parent"].tolist()
    names = cols["name"].tolist()
    out = [-1] * len(parent)
    if nid is not None:
        # Parents precede their children, so one forward sweep suffices.
        for i, p in enumerate(parent):
            if p >= 0:
                out[i] = p if names[p] == nid else out[p]
    return np.array(out, dtype=np.int64)
