"""Record the reference outputs the benchmark checks against.

Run from the repository root with the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes ``perfbench/reference/convergence-<variant>.csv`` (the ladder's
outputs) and ``perfbench/reference/recorded.json``: per-window iteration
counts of ``ladder``, and per variant the iteration counts and final L2
error of ``single-sweep-s32``.  Fails if a recorded pass has a failed
operation.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import ltsheat
import ltsheat.cli
import spans
import worker


def record(name: str, tmp: Path) -> worker.Workload:
    ctx = worker.Context(ltsheat, np, 0, tmp, {}, spans.Tracer())
    workload = worker.WORKLOADS[name](ctx)
    try:
        result = workload.run_pass()
    finally:
        ctx.unpatch()
    if result.failures:
        sys.exit(f"{name}: {result.failures}")
    return workload


def main() -> int:
    out = worker.REFERENCE
    out.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=Path.cwd()))
    try:
        for variant in worker.VARIANT_NAMES:
            scheme, master = variant.split("-")
            target = tmp / f"convergence-{variant}"
            code = ltsheat.cli.run_convergence(
                worker.CONFIG,
                {"variant.interface_scheme": scheme, "variant.master": master, "output_dir": str(target)},
            )
            if code != 0:
                sys.exit(f"run_convergence {variant} exit code {code}")
            shutil.copyfile(target / "convergence.csv", out / f"convergence-{variant}.csv")
        recorded = {name: record(name, tmp).recorded for name in ("ladder", "single-sweep-s32")}
    finally:
        shutil.rmtree(tmp)
    (out / "recorded.json").write_text(json.dumps(recorded, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
