"""Benchmark of the ltsheat solver: time to solution, set-up time and memory
for four workloads, plus a traced run that gives per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in fresh single-threaded worker processes (``worker.py``):
set-up is repeated in ``SETUP_RUNS`` processes and ``setup_s`` is their
median time from process start to ready; the last of them then runs one
warm-up pass and timed passes back to back for ``--seconds``.  ``solve_s``
is the fastest pass time: the machine's speed drifts over minutes, and the
fastest pass repeats best between runs (see DESIGN.md).  Every output is
checked (see ``worker.py``); the last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 1``
the metrics are the per-layer numbers of BENCHMARK.json instead.
``--workload all`` runs every workload in turn and prints one JSON line per
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ladder", "single-sweep-s32", "oracle")
SETUP_RUNS = 5
#: everything one workload starts must end within this
WORKER_TIMEOUT_S = 170.0
#: single-threaded numerics, set before the worker imports numpy
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(root / ".perfbench")  # keep any library temp files in the checkout
    return env


def start_worker(args, root: Path, tmp: Path, extra: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it and its set-up time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(tmp), *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise BenchmarkError(f"worker set-up failed (exit code {proc.returncode})")
    return proc, setup_s


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_workload(args, root: Path) -> dict:
    """Set-up runs, then the measured run; returns the worker's result plus
    ``setup_s``."""
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    (root / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench"))
    try:
        setups = []
        for _ in range(SETUP_RUNS - 1):
            proc, setup_s = start_worker(args, root, tmp, ["--setup-only"], deadline)
            setups.append(setup_s)
            try:
                proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
            finally:
                stop(proc)
        spans_out = root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        extra = ["--spans-out", str(spans_out)] if args.trace else []
        proc, setup_s = start_worker(args, root, tmp, extra, deadline)
        setups.append(setup_s)
        try:
            out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        finally:
            stop(proc)
        if proc.returncode != 0 or not out.strip():
            raise BenchmarkError(f"worker failed (exit code {proc.returncode})")
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["setup_s"] = statistics.median(setups)
    return result


def summary(args, result: dict) -> dict:
    """The JSON line: end-to-end metrics, or per-layer metrics when traced."""
    if args.trace:
        layers = dict(result["layers"], **{"diagnostics.l2_error": result["l2_error"]})
        per_layer = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in per_layer}
    else:
        metrics = {
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "solve_s": {"value": min(result["pass_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    correct = result["failed"] == 0 and not result["check_failures"]
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def describe(args, result: dict) -> list[str]:
    """Human-readable lines: every end-to-end number by name and unit."""
    passes = result["pass_s"]
    lines = [
        f"{args.workload} seed={args.seed}: setup_s {result['setup_s']:.4f} s (median of {SETUP_RUNS} processes)",
        f"  solve_s {min(passes):.4f} s (fastest of {len(passes)} passes; median {statistics.median(passes):.4f}, "
        f"slowest {max(passes):.4f}; one warm-up pass excluded)",
        f"  l2_error {result['l2_error']:.6e} 1 (largest final L2 error against the exact solution)",
        f"  failed_ratio {result['failed'] / result['attempted']:.4f} 1 ({result['failed']} of {result['attempted']} operations)",
        f"  peak_rss_mb {result['peak_rss_mb']:.1f} MB",
    ]
    if args.trace:
        traced = result["traced_pass_s"]
        lines.append(f"  traced pass {statistics.median(traced):.4f} s (median of {len(traced)}, alternating with "
                     f"untraced ones); trace overhead {result['layers']['trace.overhead_s']:+.4f} s per pass "
                     f"(median of the pairs' differences)")
    lines += [f"  FAILED {f}" for f in result["failures"] + result["check_failures"]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    missing = [p for p in ("src/ltsheat/__init__.py", "configs/bump.cfg") if not (root / p).is_file()]
    if missing:
        print(f"run from the repository root: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            result = run_workload(one, root)
        except (BenchmarkError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        for line in describe(one, result):
            print(line, flush=True)
        lines.append(summary(one, result))
    if args.workload == "all":
        for name, line in zip(names, lines):
            print(json.dumps({"workload": name, **line}))
        return 0 if all(line["correct"] for line in lines) else 1
    print(json.dumps(lines[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
