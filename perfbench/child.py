"""One benchmark run, in the fresh process that ``run.py`` starts.

The run generates the workload's documents (set-up), then sends
closed-loop passes of commands through ``hyperhaar.cli.main(argv)`` in this
process until the time budget is spent, checking every output.  Further
set-ups are spread between documents, and a fixed calibration kernel is
timed between commands.  With ``--trace 1`` traced and
untraced documents alternate, so the per-layer numbers and the tracing
overhead come from the same run.  The result is one JSON object on standard
output.

Usage: python3 perfbench/child.py --workload NAME --seed N --seconds S
           --trace 0|1 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
MEMORY_CAP_BYTES = 2 * 1024 ** 3
# Set-up runs at least this many times, and takes about this share of the
# run when it is cheap.
MIN_SETUPS = 3
SETUP_SHARE = 0.1
REL_TOL = 1e-10
# A fixed calibration kernel runs between commands for about this share of the
# command time; see ``calibration_kernel``.
CALIBRATION_SHARE = 0.05

COMMAND_KINDS = {"validate": "validate", "compare": "compare", "haar": "haar",
                 "check-lemmas": "lemmas"}


@dataclass
class Op:
    """One operation: a gen during set-up or a command during a pass."""

    phase: str          # "setup" or "pass"
    index: int          # set-up or pass number
    traced: bool
    doc: int
    kind: str           # gen, validate, compare, haar, lemmas
    seconds: float = 0.0
    error: Optional[str] = None


def check_output(doc, argv: List[str], rc, out: str) -> Optional[str]:
    """None if the command's result is right for ``doc``, else the reason."""
    import numpy as np

    if rc != 0:
        return f"exit code {rc}"
    ref = np.array(doc.reference)
    if argv[0] == "compare":
        rows = {}
        for line in out.splitlines():
            name, sep, rest = line.partition(": ")
            if sep and name in ("net", "jewett", "solve"):
                rows[name] = rest
        if set(rows) != {"net", "jewett", "solve"}:
            return "compare printed no weights for some method"
        weights = rows.items()
    elif argv[0] == "haar":
        weights = [(argv[-1], out.strip())]
    else:
        return None
    for method, text in weights:
        w = np.array([float(x) for x in text.split()])
        if w.shape != ref.shape:
            return f"{method}: {w.size} weights, expected {ref.size}"
        w = w / w.sum()
        rel = float(np.max(np.abs(w - ref) / ref))
        if not rel <= REL_TOL:
            return f"{method}: relative error {rel:.3e} against the reference"
    return None


def calibration_inputs(n: int = 16, repeats: int = 1500) -> tuple:
    """Arguments of ``calibration_kernel`` for an n-point contraction."""
    import numpy as np

    rng = np.random.default_rng(0)
    return (rng.uniform(size=(n, n, n)), rng.permutation(n), rng.uniform(size=n),
            rng.uniform(size=n), repeats)


def calibration_kernel(c, inv, mu, f, repeats: int) -> float:
    """Fixed work shaped like the program's: the contraction ``core`` uses.

    The program never runs this code, so a change to the program cannot
    change its time; timed between commands all through a run, it measures
    how fast the machine runs such code while the commands run.  Each
    workload sets its size (``workloads.CALIBRATION``).
    """
    import numpy as np

    acc = 0.0
    for _ in range(repeats):
        v = np.einsum("s,stu,u->t", mu, c[inv], f)
        acc += float(np.abs(v).max()) + sum(x * 0.5 for x in range(16))
    return acc


@dataclass
class Runner:
    """Runs and checks operations on one workload's documents."""

    package: object
    docs: list
    workdir: Path
    tracer: Optional[object] = None
    ops: List[Op] = field(default_factory=list)
    command_seconds: float = 0.0
    calibration: List[float] = field(default_factory=list)
    calibration_args: tuple = field(default_factory=calibration_inputs)

    def keep_calibrating(self) -> None:
        """Time the calibration kernel until it has had its share of the command time."""
        while (not self.calibration
               or sum(self.calibration) < CALIBRATION_SHARE * self.command_seconds):
            start = time.perf_counter()
            calibration_kernel(*self.calibration_args)
            self.calibration.append(time.perf_counter() - start)

    def doc_path(self, d) -> str:
        return str(self.workdir / f"{d.doc_id}.hg")

    def _tracing(self, traced: bool):
        return self.tracer.installed(self.package) if traced else contextlib.nullcontext()

    def _call(self, op: Op, argv: List[str]) -> tuple:
        buf = io.StringIO()
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if op.traced:
                    self.tracer.current_op = len(self.ops)
                    with self.tracer.span("cli.main"):
                        rc = self.package.cli.main(argv)
                else:
                    rc = self.package.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # any escaping exception is a failed operation
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - start
        self.ops.append(op)
        return rc, buf.getvalue()

    def setup(self, index: int, traced: bool) -> float:
        """Generate every document once; returns the set-up time."""
        total = 0.0
        with self._tracing(traced):
            for i, d in enumerate(self.docs):
                op = Op("setup", index, traced, i, "gen")
                rc, _ = self._call(op, d.gen_argv(str(self.workdir)))
                path = Path(self.doc_path(d))
                written = path.is_file() and path.stat().st_size > 0
                if op.error is None and (rc != 0 or not written):
                    op.error = f"gen exit code {rc}, document {'' if written else 'not '}written"
                total += op.seconds
        return total

    def run_pass(self, index: int, traced_doc, before_doc) -> float:
        """Run every document's commands once, closed loop; returns command time.

        Document ``i`` is traced when ``traced_doc(i)``; ``before_doc(traced)``
        is called before each document's commands.
        """
        total = 0.0
        for i, d in enumerate(self.docs):
            traced = traced_doc(i)
            before_doc(traced)
            with self._tracing(traced):
                for cmd in d.commands:
                    argv = [cmd[0], self.doc_path(d), *cmd[1:]]
                    op = Op("pass", index, traced, i, COMMAND_KINDS[cmd[0]])
                    rc, out = self._call(op, argv)
                    if op.error is None:
                        op.error = check_output(d, argv, rc, out)
                    total += op.seconds
                    self.command_seconds += op.seconds
                    self.keep_calibrating()
        return total


def parse_peaks(parse, paths: List[str]) -> List[float]:
    """tracemalloc peak (MB) of parsing each document, outside the timed passes."""
    peaks = []
    for path in paths:
        text = Path(path).read_text()
        tracemalloc.start()
        try:
            parse(text)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
        finally:
            tracemalloc.stop()
    return peaks


def environment(seed: int) -> Dict[str, object]:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "ram_mb": _ram_mb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "memory_cap_mb": MEMORY_CAP_BYTES // 2 ** 20,
        "commit": _git_commit(),
        "seed": seed,
    }
    return info


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _ram_mb() -> Optional[int]:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) // 1024
    except OSError:
        pass
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(args) -> Dict[str, object]:
    sys.path.insert(0, str(ROOT / "src"))
    import hyperhaar
    import hyperhaar.cli

    if Path(hyperhaar.__file__).resolve().parent != ROOT / "src" / "hyperhaar":
        raise SystemExit(f"imported hyperhaar from {hyperhaar.__file__}, not this checkout")

    import layers
    import tracing
    import workloads

    docs = workloads.build(args.workload, args.seed)
    workdir = Path(args.out) / "docs"
    workdir.mkdir(parents=True, exist_ok=True)
    for d in docs:
        if d.table:
            (workdir / d.param).write_text("\n".join(" ".join(map(str, r)) for r in d.table) + "\n")
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(hyperhaar, docs, workdir, tracer,
                    calibration_args=calibration_inputs(*workloads.CALIBRATION[args.workload]))
    setups, passes = [], []

    def setup(traced: bool) -> None:
        setups.append((runner.setup(len(setups), traced), traced))

    def before_doc(traced: bool) -> None:
        # Set-ups are spread over the run, so that their median samples the
        # machine over the same stretch of time as the passes do.
        done = runner.command_seconds
        if len(setups) < MIN_SETUPS and done >= len(setups) / MIN_SETUPS * args.seconds:
            setup(traced)
        while sum(t for t, _ in setups) < SETUP_SHARE * done:
            setup(traced)

    setup(False)
    while True:
        # A traced run traces every other document, alternating between
        # passes, so traced and untraced commands share the same stretch of
        # time and every document is seen both ways after two passes.
        p = len(passes)
        passes.append(runner.run_pass(p, lambda i: bool(args.trace) and (i + p) % 2 == 1,
                                      before_doc))
        if runner.command_seconds >= args.seconds and (not args.trace or len(passes) >= 2):
            break
    while len(setups) < MIN_SETUPS:
        setup(False)
    if args.trace and not any(traced for _, traced in setups):
        setup(True)

    result = {
        "workload": args.workload,
        "docs": workloads.describe(docs),
        "environment": environment(args.seed),
        "setups": setups,
        "passes": passes,
        "ops": [op.__dict__ for op in runner.ops],
        "doc_ids": [d.doc_id for d in docs],
        "calibration_s": runner.calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        lay = layers.summarize(tracer, runner.ops, [d.doc_id for d in docs])
        peaks = parse_peaks(hyperhaar.fileio.parse_hypergroup, [runner.doc_path(d) for d in docs])
        for d, peak in zip(docs, peaks):
            lay["per_doc"][d.doc_id]["fileio.parse_peak_mb"] = peak
        lay["metrics"]["fileio.parse_peak_mb"] = max(peaks)
        result["layers"] = lay
        tracer.save(str(Path(args.out) / "spans.npz"))
    shutil.rmtree(workdir)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # Over-budget allocations raise MemoryError (a failed operation) instead
    # of reaching the machine's OOM killer.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
