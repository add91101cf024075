"""Benchmark of the qregames library: one workload per process, seeded inputs.

    python3 bench/run.py --workload paper-sweeps --seed 1 --seconds 45 --trace 0

Builds the package from ``src/`` of the checkout this file sits in, runs the
workload's fixed list of ops (one closed-loop caller) and checks every
output.  With ``--trace 0`` it repeats the list for ``--seconds`` (at least
once) and reports the end-to-end metrics, each op at its fastest time over
the passes; with ``--trace 1`` it runs the list, and the ``traced_only`` ops,
once traced and once untraced and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every figure by name and unit.  A copy of the result, with the
environment, is written to ``.bench_results/`` in the checkout, as are the
spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = ".bench_results"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import qregames\n"
    "print(time.perf_counter() - t)\n"
)
# A run must end within 180 s; the traced run's untraced reference pass stops
# starting ops after this many seconds.
TRACE_DEADLINE_S = 160.0
# Percentiles need enough ops beyond them to mean anything.
P90_MIN_OPS = 100

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The package cannot be built or imported from this checkout."""


@dataclass
class OpRecord:
    label: str
    latency_s: float
    failed: bool
    unconverged: bool
    counts: tuple = ()
    problems: list[str] = field(default_factory=list)


def single_blas_thread() -> None:
    """Run BLAS on one thread; must run before numpy loads.

    The one caller is single-threaded, and at m <= 300 a second BLAS thread
    saves little, while on a few shared cores its spinning makes the times
    depend on what else the host runs.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_package(root: Path) -> None:
    """Import qregames from the checkout's src/, refusing any other copy."""
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import qregames
    except ImportError as exc:
        raise SetupError(f"cannot import qregames from {src}: {exc}") from exc
    if not Path(qregames.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"qregames was imported from {qregames.__file__}, not {src}")


def import_seconds(root: Path) -> float:
    """Time `import qregames` in a fresh interpreter (numpy included)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        raise SetupError(f"import probe failed: {exc}") from exc


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"),
                 "threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "seed": seed,
    }


def untraced(obj):
    return obj


def run_op(op, wrap) -> OpRecord:
    t0 = perf_counter()
    try:
        out = op.run(wrap)
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        return OpRecord(op.label, perf_counter() - t0, failed=True, unconverged=False,
                        problems=[f"raised {type(exc).__name__}: {exc}"])
    latency = perf_counter() - t0
    try:
        problems = op.check(out)
    except Exception as exc:  # a check that cannot run rejects the output
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return OpRecord(op.label, latency, failed=bool(problems), unconverged=op.unconverged(out),
                    counts=op.counts(out), problems=problems)


def run_pass(ops, tracer=None) -> list[OpRecord]:
    wrap = tracer.wrap_objective if tracer is not None else untraced
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        records.append(run_op(op, wrap))
    return records


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload and return its result and report.

    ``smoke`` shrinks each workload to its smallest inputs; only the
    benchmark's own tests use it.
    """
    started = perf_counter()
    import_package(ROOT)
    sys.path.insert(0, str(BENCH_DIR))
    from spans import Tracer, per_layer_metric_units
    from workloads import WORKLOADS

    build = WORKLOADS[workload]
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds(ROOT))
        t0 = perf_counter()
        ops = build(seed, smoke=smoke)
        builds.append(perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)

    timed_ops = [op for op in ops if not op.traced_only]
    run_op(timed_ops[0], untraced)  # warm-up: lazy loading inside numpy, untimed

    report: dict = {}
    if not trace:
        start = perf_counter()
        passes: list[list[OpRecord]] = []
        # No pass starts that would end after `seconds`, save the first.
        while not passes or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
            passes.append(run_pass(timed_ops))
        records = [r for p in passes for r in p]
        latencies_ms = [r.latency_s * 1e3 for r in records]
        # Each op at its fastest over the passes: the ops are deterministic,
        # and the host's other load only ever adds to an op's time.
        wall_s = sum(min(p[i].latency_s for p in passes) for i in range(len(timed_ops)))
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END_UNITS)
        report["pass_s"] = [sum(r.latency_s for r in p) for p in passes]
        report["traced_only_ops"] = len(ops) - len(timed_ops)
        report["op_p50_ms"] = statistics.median(latencies_ms)
        if len(records) >= P90_MIN_OPS:
            report["op_p90_ms"] = statistics.quantiles(latencies_ms, n=10)[-1]
        consistent = True
    else:
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(ops, tracer)
        # The untraced reference pass stops early rather than overrun the
        # run's time limit; overhead and agreement cover the ops run both ways.
        reference: list[OpRecord] = []
        for op, rec in zip(ops, traced):
            if perf_counter() - started + rec.latency_s > TRACE_DEADLINE_S:
                break
            reference.append(run_op(op, untraced))
        matched = traced[:len(reference)]
        metrics = tracer.layer_metrics([op.size for op in ops])
        metrics["trace.overhead_s"] = (sum(r.latency_s for r in matched)
                                       - sum(r.latency_s for r in reference))
        units = per_layer_metric_units()
        consistent = ([(r.counts, r.failed, r.unconverged) for r in reference]
                      == [(r.counts, r.failed, r.unconverged) for r in matched])
        report["reference_ops"] = len(reference)
        report["traced_equals_untraced"] = consistent
        records = traced + reference
        (ROOT / RESULTS_DIR).mkdir(exist_ok=True)
        tracer.save(ROOT / RESULTS_DIR / f"spans-{workload}-seed{seed}.npz")

    attempted = len(records)
    failed = sum(r.failed for r in records)
    # Budget-exhausted designs pass their output checks but did not converge;
    # this fraction counts them with the ops that raised or failed a check.
    report["failed_frac"] = sum(r.failed or r.unconverged for r in records) / attempted
    report["unconverged"] = sum(r.unconverged for r in records)
    report["problems"] = [f"{r.label}: {p}" for r in records for p in r.problems][:20]
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return {
        "result": result,
        "report": report,
        "environment": environment(ROOT, seed),
        "workload": workload,
        "trace": int(trace),
    }


def main(argv=None, smoke: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-sweeps", "solve-scale", "mindesign-scale"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    single_blas_thread()
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), smoke=smoke)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = ROOT / RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(out, indent=1) + "\n")

    env = out["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} commit={env['commit']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']['name']} "
          f"{env['blas']['version']} threads={env['blas']['threads']} nproc={env['nproc']}")
    for metric, value in out["result"]["metrics"].items():
        print(f"{metric} {value['value']!r} {value['unit']}")
    for key, value in out["report"].items():
        if key != "problems":
            print(f"# {key} {value!r}")
    for problem in out["report"]["problems"]:
        print(f"# problem: {problem}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
