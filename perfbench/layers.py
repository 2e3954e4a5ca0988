"""Per-layer numbers from a traced run's spans.

Every value is for one pass over the workload: for each document, the
median over the passes in which it was traced, summed over documents (peaks:
the largest).  Set-up layers are per set-up, median over traced set-ups.
Names carry the module as a prefix.  Times are seconds: a span's total, or
its self time (the span minus the time its child spans cover).
"""

from __future__ import annotations

import statistics
from typing import Dict, List

import numpy as np

from tracing import ancestor_with

MB = 2 ** 20
KERNELS = ["convolve_measure_function", "convolve_measures",
           "convolve_function_measure", "find_dominating_measure"]
SUITES = ["identity_suite", "terminal_gap_suite", "terminal_ratio_suite", "bounds_suite"]


class _Spans:
    """The columns of a subset of spans."""

    def __init__(self, cols, names, parent_name, in_net, idx):
        self.ids = {n: i for i, n in enumerate(names)}
        self.name = cols["name"][idx]
        self.dur = cols["dur"][idx]
        self.self_time = cols["self"][idx]
        self.nested = cols["nested"][idx]
        self.size = cols["size"][idx]
        self.peak = cols["peak"][idx]
        self.parent_name = parent_name[idx]
        self.in_net = in_net[idx]

    def of(self, name: str) -> np.ndarray:
        return self.name == self.ids.get(name, -1)

    def total(self, name: str) -> float:
        return float(self.dur[self.of(name) & ~self.nested].sum())

    def calls(self, name: str) -> int:
        return int(self.of(name).sum())

    def peak_mb(self, name: str) -> float:
        sel = self.of(name)
        return float(self.peak[sel].max()) / MB if sel.any() else 0.0

    def under_net(self, name: str) -> np.ndarray:
        return self.of(name) & (self.parent_name == self.ids.get("approx.haar_net", -1))


def command_metrics(s: _Spans) -> Dict[str, float]:
    """Per-layer numbers for the commands covered by ``s``; all but peaks add up."""
    m = {
        "cli.command_s": s.total("cli.main"),
        "cli.self_s": float(s.self_time[s.of("cli.main")].sum()),
        "approx.haar_net_s": s.total("approx.haar_net"),
        "approx.haar_net_self_s": float(s.self_time[s.of("approx.haar_net")].sum()),
        "approx.step_estimate_s": float(s.dur[s.under_net("approx.normalized_approximant")].sum()),
        "approx.step_gap_s": float(s.dur[s.under_net("approx.main_identity_gap")].sum()),
        "approx.step_rho_s": float(s.dur[s.under_net("approx.sandwich_ratio")].sum()),
        "approx.chain_steps": int(s.under_net("approx.normalized_approximant").sum()),
        "approx.net_contractions": int((s.of("core.convolve_measure_function") & s.in_net).sum()),
        "core.validate_s": s.total("core.validate"),
        "core.validate_peak_mb": s.peak_mb("core.validate"),
        "fileio.parse_s": s.total("fileio.parse_hypergroup"),
        "fileio.parse_calls": s.calls("fileio.parse_hypergroup"),
        "fileio.parse_bytes": int(s.size[s.of("fileio.parse_hypergroup")].sum()),
        "oracles.solve_invariance_s": s.total("oracles.solve_invariance"),
        "oracles.solve_peak_mb": s.peak_mb("oracles.solve_invariance"),
        "oracles.jewett_haar_s": s.total("oracles.jewett_haar"),
        "oracles.invariance_residual_s": s.total("oracles.invariance_residual"),
    }
    for k in KERNELS:
        m[f"core.{k}_s"] = s.total(f"core.{k}")
        m[f"core.{k}_calls"] = s.calls(f"core.{k}")
    for k in SUITES:
        m[f"checks.{k}_s"] = s.total(f"checks.{k}")
    return m


def with_ratios(m: Dict[str, float]) -> Dict[str, float]:
    """Adds the per-step contraction count and its inverse."""
    steps = m["approx.chain_steps"]
    per_step = m["approx.net_contractions"] / steps if steps else 0.0
    return {**m, "approx.contractions_per_step": per_step,
            "approx.useful_contraction_frac": 1.0 / per_step if per_step else 0.0}


def setup_metrics(s: _Spans) -> Dict[str, float]:
    """Per-layer numbers for one traced set-up."""
    return {
        "cli.setup_s": s.total("cli.main"),
        "fileio.serialize_s": s.total("fileio.serialize_hypergroup"),
        "oracles.build_family_s": s.total("oracles.build_family"),
    }


def _medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def summarize(tracer, ops, doc_ids: List[str]) -> Dict[str, object]:
    """Per-layer numbers for one pass: per document the median over its traced
    samples, summed over documents; set-up layers: median over traced set-ups."""
    cols = tracer.arrays()
    names = tracer.names
    parent = cols["parent"]
    parent_name = np.where(parent >= 0, cols["name"][np.maximum(parent, 0)], -1)
    in_net = ancestor_with(cols, names.index("approx.haar_net")
                           if "approx.haar_net" in names else None) >= 0
    # Spans of one operation are contiguous and operations are recorded in order.
    bounds = np.searchsorted(cols["op"], np.arange(len(ops) + 1))

    def spans(op_ids: List[int]) -> _Spans:
        idx = np.concatenate([np.arange(bounds[k], bounds[k + 1]) for k in op_ids])
        return _Spans(cols, names, parent_name, in_net, idx)

    traced_docs: Dict[int, Dict[int, List[int]]] = {}   # doc -> pass -> ops
    traced_setups: Dict[int, List[int]] = {}            # set-up -> ops
    untraced_docs: Dict[int, Dict[int, float]] = {}     # doc -> pass -> seconds
    for i, op in enumerate(ops):
        if op.phase == "setup":
            if op.traced:
                traced_setups.setdefault(op.index, []).append(i)
        elif op.traced:
            traced_docs.setdefault(op.doc, {}).setdefault(op.index, []).append(i)
        else:
            per_pass = untraced_docs.setdefault(op.doc, {})
            per_pass[op.index] = per_pass.get(op.index, 0.0) + op.seconds

    per_doc = {d: _medians([command_metrics(spans(idx)) for idx in by_pass.values()])
               for d, by_pass in sorted(traced_docs.items())}
    metrics = {k: (max if k.endswith("_mb") else sum)(m[k] for m in per_doc.values())
               for k in next(iter(per_doc.values()))}
    metrics = with_ratios(metrics)
    metrics.update(_medians([setup_metrics(spans(idx)) for idx in traced_setups.values()]))
    untraced = sum(statistics.median(untraced_docs[d].values()) for d in per_doc)
    metrics["trace_overhead_frac"] = metrics["cli.command_s"] / untraced - 1.0
    return {
        "traced_docs": len(per_doc),
        "traced_setups": len(traced_setups),
        "spans": int(cols["name"].size),
        "metrics": metrics,
        "per_doc": {doc_ids[d]: with_ratios(m) for d, m in per_doc.items()},
    }
