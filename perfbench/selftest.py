"""Self-test of the benchmark's output checks.

Runs real commands through the same runner the benchmark uses and requires
that a wrong reference, a non-zero exit and an escaping exception are each
counted as a failed operation, while correct documents count none.

Usage (from the root of a checkout): python3 perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import sys

from child import ROOT, Runner
from workloads import make_doc, ref_cosine_grid, ref_cyclic, ref_theta2

NOT_A_HYPERGROUP = "hypergroup v1\nn 2\ne 0\ninv 0 1\nc 0 0 0 1\nc 0 1 1 1\nc 1 0 1 1\nc 1 1 1 1\n"




def failures(runner: Runner, doc_id: str) -> list:
    index = [d.doc_id for d in runner.docs].index(doc_id)
    return [(op.kind, op.error) for op in runner.ops if op.doc == index and op.error]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import hyperhaar
    import hyperhaar.cli

    checked = [("validate",), ("compare",), ("haar", "--method", "jewett"),
               ("haar", "--method", "solve"), ("check-lemmas", "--trials", "5")]
    wrong = ref_cyclic(6).copy()
    wrong[0] *= 1 + 1e-9
    wrong /= wrong.sum()
    docs = [
        make_doc("right-cyclic", "cyclic", "6", ref_cyclic(6), checked),
        make_doc("right-theta", "theta2", "0.25", ref_theta2(0.25), checked),
        make_doc("right-grid", "cosine-grid", "5", ref_cosine_grid(5), checked),
        make_doc("wrong-reference", "cyclic", "6", wrong, checked),
        # Overwritten below with a semigroup that is not a hypergroup.
        make_doc("broken", "cyclic", "2", ref_cyclic(2),
             [("validate",), ("haar", "--method", "jewett")]),
    ]
    workdir = ROOT / "perfbench" / "out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(hyperhaar, docs, workdir)
        runner.setup(0, traced=False)
        (workdir / "broken.hg").write_text(NOT_A_HYPERGROUP)
        runner.run_pass(0, traced_doc=lambda i: False, before_doc=lambda traced: None)
        results = {d.doc_id: failures(runner, d.doc_id) for d in docs}
    finally:
        shutil.rmtree(workdir)

    problems = []
    for doc_id in ("right-cyclic", "right-theta", "right-grid"):
        if results[doc_id]:
            problems.append(f"{doc_id}: correct output counted as failed: {results[doc_id]}")
    kinds = [kind for kind, _ in results["wrong-reference"]]
    if kinds != ["compare", "haar", "haar"]:
        problems.append(f"wrong reference: expected compare and both haar runs to fail, "
                        f"got {results['wrong-reference']}")
    broken = dict(results["broken"])
    if not broken.get("validate", "").startswith("exit code"):
        problems.append(f"validate's non-zero exit was not counted: {results['broken']}")
    if "H6Violation" not in broken.get("haar", ""):
        problems.append(f"an escaping exception was not counted: {results['broken']}")
    for p in problems:
        print("selftest FAILED:", p)
    if not problems:
        print(f"selftest ok: {sum(len(r) for r in results.values())} deliberate failures "
              f"counted, none on correct documents")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
