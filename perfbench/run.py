"""hyperhaar benchmark: one closed-loop run of a named workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid64 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 1

Each run starts a fresh child process (``child.py``) with BLAS pinned to one
thread and its address space capped, which imports ``hyperhaar`` from this
checkout's ``src`` and drives the CLI in-process.  This process prints a
summary of every metric (median and quartiles over the run's passes, with
the count) and, as its last line, one JSON object with the metrics that
``BENCHMARK.json`` declares: the end-to-end ones with ``--trace 0``, the
per-layer ones with ``--trace 1``.  Records and spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["grid64", "small-mix", "large-sparse"]
CHILD_TIMEOUT_S = 170
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Reference speed: the calibration kernel (child.py) takes this long.  It is
# about the kernel's usual time on the 2-vCPU machine of the baseline, so
# times there read close to wall-clock seconds.
CALIBRATION_REFERENCE_S = 0.025


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(rec: dict) -> Dict[str, dict]:
    """Every end-to-end number of a run: name -> {samples, value, unit, ...}.

    Times are scaled to reference speed, at which the calibration kernel
    takes CALIBRATION_REFERENCE_S: each is multiplied by that over the mean
    calibration time of the run.  The raw wall-clock times are kept as
    ``setup_wall_s`` and ``commands_wall_s``.
    """
    # The mean, not the median: a pass time sums its commands, so it too
    # averages the machine's speed over the run.
    scale = CALIBRATION_REFERENCE_S / statistics.fmean(rec["calibration_s"])
    setups = [t for t, _ in rec["setups"]]
    out = {
        "setup_s": {"samples": [t * scale for t in setups], "unit": "s"},
        "commands_s": {"samples": [t * scale for t in rec["passes"]], "unit": "s"},
        "setup_wall_s": {"samples": setups, "unit": "s"},
        "commands_wall_s": {"samples": rec["passes"], "unit": "s"},
        "calibration_s": {"samples": rec["calibration_s"], "unit": "s"},
    }
    commands = [op for op in rec["ops"] if op["phase"] == "pass"]
    for kind in dict.fromkeys(op["kind"] for op in commands):
        per_pass: Dict[int, float] = {}
        for op in commands:
            if op["kind"] == kind:
                per_pass[op["index"]] = per_pass.get(op["index"], 0.0) + op["seconds"] * scale
        out[f"{kind}_s"] = {"samples": list(per_pass.values()), "unit": "s"}
    for m in out.values():
        m["value"] = statistics.median(m["samples"])
    compare = [op["seconds"] * scale for op in commands if op["kind"] == "compare"]
    if compare:
        for p in (50, 90):
            out[f"compare_doc_p{p}_s"] = {
                "samples": compare, "unit": "s", "value": percentile(compare, p),
                "note": f"nearest-rank p{p} over n={len(compare)} compare commands"}
    out["peak_rss_mb"] = {"samples": [rec["peak_rss_mb"]], "value": rec["peak_rss_mb"],
                          "unit": "MB"}
    return out


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_frac", "frac"), ("_mb", "MB"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(rec: dict) -> Dict[str, dict]:
    """Every per-layer number of a traced run, plus each time as a share.

    A command-phase time ``x_s`` also appears as ``x_frac``, its share of the
    traced command time (``cli.command_s``); set-up times are shares of the
    traced set-up time (``cli.setup_s``).
    """
    layers = rec["layers"]["metrics"]
    out = {name: {"value": v, "unit": _layer_unit(name)} for name, v in layers.items()}
    for name, v in layers.items():
        if name.endswith("_s") and name not in ("cli.command_s", "cli.setup_s"):
            base = layers["cli.setup_s"] if name in ("fileio.serialize_s",
                                                     "oracles.build_family_s") \
                else layers["cli.command_s"]
            out[name[:-2] + "_frac"] = {"value": v / base if base else 0.0, "unit": "frac"}
    return out


def summary(rec: dict, e2e: Dict[str, dict], layers: Dict[str, dict]) -> List[str]:
    env = rec["environment"]
    lines = [f"# workload {rec['workload']} seed {env['seed']}: documents {rec['docs']}",
             "# environment " + json.dumps(env),
             f"# {len(rec['setups'])} set-ups, {len(rec['passes'])} passes"
             f"{' (every other document traced)' if layers else ''}"]
    for name, m in e2e.items():
        q1, med, q3 = quartiles(m["samples"])
        extra = m.get("note", f"median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] "
                              f"over n={len(m['samples'])}")
        lines.append(f"{name:<22} {m['value']:>12.6g} {m['unit']:<6} {extra}")
    if layers:
        lay = rec["layers"]
        lines.append(f"# per layer: one pass over {lay['traced_docs']} traced documents, "
                     f"median over {lay['traced_setups']} traced set-ups, {lay['spans']} spans")
        for name in sorted(layers):
            lines.append(f"{name:<40} {layers[name]['value']:>14.6g} {layers[name]['unit']}")
        if len(lay["per_doc"]) <= 10:
            keys = ["approx.haar_net_s", "core.validate_s", "oracles.solve_invariance_s",
                    "fileio.parse_s", "approx.chain_steps", "approx.contractions_per_step"]
            lines.append("# per document: " + "  ".join(keys))
            for doc, m in lay["per_doc"].items():
                lines.append(f"{doc:<18} " + "  ".join(f"{m[k]:.6g}" for k in keys))
    errors = [op for op in rec["ops"] if op["error"]]
    lines.append(f"{'fail_frac':<22} {len(errors) / len(rec['ops']):>12.6g} frac   "
                 f"{len(errors)} failed of {len(rec['ops'])} attempted")
    for op in errors[:10]:
        lines.append(f"# FAILED {op['kind']} on {rec['doc_ids'][op['doc']]}: {op['error']}")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: int, declared: dict) -> int:
    out = HERE / "out" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}-{time.time_ns()}"
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED_ENV},
                              stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run of {workload} exceeded {CHILD_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run of {workload} exited with code {proc.returncode}", file=sys.stderr)
        return 1
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    # A traced run's command times include tracing: it reports layers only.
    e2e = {} if trace else end_to_end(rec)
    layers = per_layer(rec) if trace else {}
    rec["end_to_end"] = e2e
    rec["per_layer"] = layers
    (out / "result.json").write_text(json.dumps(rec, indent=1))
    print("\n".join(summary(rec, e2e, layers)))

    wanted = declared["per_layer" if trace else "end_to_end"]
    source = layers if trace else e2e
    missing = [m["name"] for m in wanted
               if source.get(m["name"], {}).get("unit") != m["unit"]]
    if missing:
        print(f"metrics declared in BENCHMARK.json but not measured in the declared unit: "
              f"{missing}", file=sys.stderr)
        return 1
    failed = sum(1 for op in rec["ops"] if op["error"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rec["ops"]),
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one hyperhaar benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes until this much command time has been spent")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hyperhaar" / "__init__.py").is_file():
        print(f"no hyperhaar sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    # SIGTERM becomes an exception, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        rc = run_one(workload, args.seed, args.seconds, args.trace, declared)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
