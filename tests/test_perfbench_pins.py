"""The benchmark's tracer still sees every call its completeness rule counts.

``perfbench/worker.py`` wraps solver functions by module attribute name and
checks, per march, that ``solve_linear`` = predictor + sweeps (K + 1) and
``assemble_subdomain_step`` = sweeps (K + 1).  A refactor that renames one of
those calls or routes around it would otherwise show only in a traced
benchmark run.  The benchmark's per-march checks and sweep statistics read
the marches' reports, ``windows`` and ``residual_history``, so they run here
on the same reports.  The ladder workload takes those reports from
``run_convergence`` by patching ``ltsheat.cli.march``, so the study must keep
calling it there."""

import importlib
import math
import statistics
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
    reports = []
    try:
        for variant in VARIANTS:
            for mode in (SolveMode.converged(), SolveMode.single_iteration()):
                # through the module attribute, which is the wrapped one
                _, report = ltsheat.solver.march(bump_grid, variant, mode, manufactured_problem())
                reports.append(report)
                assert worker.march_checks(report, must_converge=mode.kind == "converged") == []
    finally:
        tracer.restore()
    spans = tracer.spans
    assert worker.completeness_failures(spans) == []

    # the benchmark's sweep statistics read the reports' windows and residual histories
    metrics = worker.report_metrics(reports)
    iterations = [n for report in reports for n in report.iterations]
    assert metrics["solver.sweeps_per_window.mean"] == statistics.fmean(iterations)
    contraction = metrics["solver.contraction.mean"]
    assert math.isfinite(contraction) and 0.0 < contraction < 1.0

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
        # the projections are wrapped as solver attributes too; a march that
        # stops calling them there would read 0 in the traced projection metric
        assert calls["projection"] > 0


def test_ladder_capture_sees_each_level_march(monkeypatch, tmp_path):
    # mirrors ``perfbench/worker.py::Ladder.__init__``, which records each
    # level's report by patching ``ltsheat.cli.march``; a study that stops
    # calling it there leaves every level without a report, and the benchmark
    # fails.  Keep the two in step until the worker exposes its capture.
    reports = []
    original = ltsheat.cli.march

    def recording_march(*args, **kwargs):
        result = original(*args, **kwargs)
        reports.append(result[1])
        return result

    monkeypatch.setattr(ltsheat.cli, "march", recording_march)
    config = PERFBENCH.parent / "configs" / "bump.cfg"
    overrides = {"convergence.levels": "2", "output_dir": str(tmp_path / "convergence")}
    assert ltsheat.cli.run_convergence(config, overrides) == 0
    assert [len(report.windows) for report in reports] == [5, 10]
