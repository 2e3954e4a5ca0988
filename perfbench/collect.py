"""Summarize the run records under perfbench/out into one JSON document.

For each workload: every end-to-end number over the untraced runs (median,
quartiles, quartile distance over median, run count, seeds), and the
per-layer numbers of its traced runs and, for workloads of at most ten
documents, their per-document table (medians over the traced runs).
``baseline.json`` was written this way:

    for w in grid64 small-mix large-sparse; do
      for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload $w --seed $seed --seconds 20 --trace 0
      done
      python3 perfbench/run.py --workload $w --seed 0 --seconds 20 --trace 1
    done
    python3 perfbench/collect.py > perfbench/baseline.json
"""

from __future__ import annotations

import json
import statistics
import sys

from run import HERE, quartiles

OUT = HERE / "out"


def spread(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*/result.json"))]
    if not records:
        print(f"no run records under {OUT}", file=sys.stderr)
        return 1
    env = {k: v for k, v in records[-1]["environment"].items() if k != "seed"}
    summary = {"environment": env, "workloads": {}}
    for workload in sorted({r["workload"] for r in records}):
        runs = sorted((r for r in records if r["workload"] == workload),
                      key=lambda r: r["environment"]["seed"])
        plain = [r for r in runs if not r["per_layer"]]
        traced = [r for r in runs if r["per_layer"]]
        entry = {"seeds": [r["environment"]["seed"] for r in plain],
                 "failed": sum(1 for r in runs for op in r["ops"] if op["error"]),
                 "attempted": sum(len(r["ops"]) for r in runs)}
        names = plain[0]["end_to_end"] if plain else {}
        entry["end_to_end"] = {n: {**spread([r["end_to_end"][n]["value"] for r in plain]),
                                   "unit": names[n]["unit"]} for n in names}
        if traced:
            entry["traced_seeds"] = [r["environment"]["seed"] for r in traced]
            entry["per_layer"] = {
                n: {"value": statistics.median(r["per_layer"][n]["value"] for r in traced),
                    "unit": u["unit"]}
                for n, u in traced[0]["per_layer"].items()}
            docs = traced[0]["layers"]["per_doc"]
            if len(docs) <= 10:
                entry["per_doc"] = {d: {k: statistics.median(r["layers"]["per_doc"][d][k]
                                                             for r in traced)
                                        for k in docs[d]} for d in docs}
        summary["workloads"][workload] = entry
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
