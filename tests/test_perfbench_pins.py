"""The benchmark's tracer still sees every call its completeness rule counts.

``perfbench/worker.py`` wraps solver functions by module attribute name and
checks, per march, that ``solve_linear`` = predictor + sweeps (K + 1) and
``assemble_subdomain_step`` = sweeps (K + 1).  A refactor that renames one of
those calls or routes around it would otherwise show only in a traced
benchmark run."""

import importlib
import sys
from collections import Counter
from pathlib import Path

import ltsheat
import ltsheat.cli  # noqa: F401  (wrap_layers wraps attributes of ltsheat.cli)
from ltsheat import SolveMode, manufactured_problem
from ltsheat.scheme import VARIANTS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_trace_sees_every_counted_call(monkeypatch, bump_grid):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing into perfbench/
    worker = importlib.import_module("worker")
    sp = worker.sp
    tracer = sp.Tracer()
    worker.wrap_layers(tracer, ltsheat)
    try:
        for variant in VARIANTS:
            for mode in (SolveMode.converged(), SolveMode.single_iteration()):
                # through the module attribute, which is the wrapped one
                ltsheat.solver.march(bump_grid, variant, mode, manufactured_problem())
    finally:
        tracer.restore()
    spans = tracer.spans
    assert worker.completeness_failures(spans) == []

    # the rule is checked per march, so it must not pass for want of marches or calls
    per_march: dict[int, Counter] = {}
    for span, march in zip(spans, sp.ancestor_ids(spans, "solver.march")):
        per_march.setdefault(march, Counter())[span[sp.NAME]] += 1
    marches = [i for i, span in enumerate(spans) if span[sp.NAME] == "solver.march"]
    assert len(marches) == 2 * len(VARIANTS)
    for march in marches:
        calls = per_march[march]
        sweeps = calls["solver.corrector_sweep"]
        assert sweeps >= bump_grid.n_windows
        assert calls["scheme.assemble_subdomain_step"] == sweeps * (bump_grid.ratio + 1) > 0
