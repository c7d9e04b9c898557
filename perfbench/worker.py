"""One benchmark process: set up one workload, run it in a closed loop and
check every output.  Started by ``run.py``, never run by hand.

Protocol: after set-up the worker prints ``READY``; with ``--setup-only`` it
then exits, otherwise it runs one warm-up pass and timed passes, and prints
one JSON object as its last line.  ``ltsheat`` is imported from ``src/`` of
the current directory (``run.py`` sets ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import spans as sp

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
CONFIG = Path("configs") / "bump.cfg"
VARIANT_NAMES = ("is1-fine", "is1-coarse", "is2-fine", "is2-coarse")
#: criterion 3 (conservativity) and criterion 4 (oracle) bounds of the acceptance suite
DEFECT_RTOL = 1e-12
ORACLE_TOL = 1e-8
#: relative tolerance when comparing recorded errors and orders with the reference
RECORDED_RTOL = 1e-10


@dataclass
class PassResult:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    l2_error: float = 0.0
    reports: list = field(default_factory=list)  # SolveReport of every march

    def op(self, label: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failures.append(f"{label}: {'; '.join(reasons)}")


def march_checks(report, expected_iterations=None, must_converge=False) -> list[str]:
    """Per-march correctness: conservativity of every window, iteration counts
    and (optionally) convergence of every window."""
    reasons = []
    for n, w in enumerate(report.windows, start=1):
        if not w.conservativity_defect <= DEFECT_RTOL * max(1.0, w.flux_scale):
            reasons.append(f"window {n} conservativity defect {w.conservativity_defect:.3e}")
    if must_converge and not report.all_converged:
        reasons.append(f"windows not converged: {[n for n, w in enumerate(report.windows, 1) if not w.converged]}")
    if expected_iterations is not None and report.iterations != expected_iterations:
        reasons.append(f"iteration counts {report.iterations} != recorded {expected_iterations}")
    return reasons


def jittered_widths(rng, n: int, length: float) -> tuple[float, ...]:
    """``n`` cell widths within about 20 % of uniform that tile ``length``."""
    w = 1.0 + rng.uniform(-0.2, 0.2, n)
    return tuple(float(v) for v in w * (length / w.sum()))


class Workload:
    """Set-up happens in ``__init__`` (timed as part of ``setup_s``);
    ``run_pass`` runs one full pass and checks its outputs."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx

    def config(self, overrides: dict[str, str]):
        cli = self.ctx.ltsheat.cli
        with self.ctx.tracer.span("cli.config"):
            pairs = cli.parse_config_file(CONFIG)
            pairs.update(overrides)
            config = cli.load_run_config(pairs)
        return config

    def grid(self, config):
        with self.ctx.tracer.span("grid.build_composite_grid"):
            return self.ctx.ltsheat.grid.build_composite_grid(config.grid)


class Ladder(Workload):
    """The refinement study as users run it: ``run_convergence`` on bump.cfg
    for all four variants, 4 levels each, output in a temp dir."""

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        lts = ctx.ltsheat
        # run_convergence parses and builds its own ladder; set-up still
        # parses, builds and validates the base configuration once
        config = self.config({})
        self.grid(config)
        lts.cli.build_problem(config)
        self.levels = config.levels
        self.reference_csv = {
            v: (REFERENCE / f"convergence-{v}.csv").read_text() for v in VARIANT_NAMES
        }
        self.recorded = dict(ctx.reference.get("ladder", {}))
        # run_convergence keeps its reports to itself: record march results
        self.captured: list = []
        original = lts.cli.march

        def recording_march(*args, **kwargs):
            result = original(*args, **kwargs)
            self.captured.append(result[1])
            return result

        ctx.patch(lts.cli, "march", recording_march)

    def run_pass(self) -> PassResult:
        lts = self.ctx.ltsheat
        result = PassResult()
        for name in VARIANT_NAMES:
            scheme, master = name.split("-")
            out = self.ctx.tmp / f"convergence-{name}"
            self.captured.clear()
            code = lts.cli.run_convergence(
                CONFIG,
                {"variant.interface_scheme": scheme, "variant.master": master, "output_dir": str(out)},
            )
            rows = _csv_rows((out / "convergence.csv").read_text()) if code == 0 else []
            expected = _csv_rows(self.reference_csv[name])
            iterations = self.recorded.setdefault(name, [r.iterations for r in self.captured])
            for level in range(self.levels):
                reasons = [] if code == 0 else [f"run_convergence exit code {code}"]
                if level < len(self.captured):
                    report = self.captured[level]
                    result.reports.append(report)
                    reasons += march_checks(report, iterations[level], must_converge=True)
                else:
                    reasons.append("march did not return")
                if code == 0:
                    mismatch = _row_mismatch(rows, expected, level)
                    reasons += mismatch
                    if not mismatch:
                        result.l2_error = max(result.l2_error, float(rows[level + 1][3]))
                result.op(f"{name} level {level}", reasons)
        return result


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()]


def _row_mismatch(rows: list[list[str]], expected: list[list[str]], level: int) -> list[str]:
    if len(rows) != len(expected) or rows[0] != expected[0]:
        return ["convergence.csv layout differs from the reference"]
    got, want = rows[level + 1], expected[level + 1]
    for a, b in zip(got, want):
        if (a == "") != (b == "") or (a and not math.isclose(float(a), float(b), rel_tol=RECORDED_RTOL, abs_tol=0.0)):
            return [f"convergence.csv row {got} != reference {want}"]
    return []


class SingleSweep(Workload):
    """The bump grid at refinement s = 32 in single-iteration mode: direct
    ``march`` + ``error_report`` for all four variants."""

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        lts = ctx.ltsheat
        s = 32
        config = self.config({
            "grid.n_cells_fine": str(25 * s),
            "grid.n_cells_coarse": str(15 * s),
            "grid.dt_fine": repr(0.002 / s),
            "grid.dt_coarse": repr(0.02 / s),
            "mode.type": "single_iteration",
        })
        self.grid_ = self.grid(config)
        self.problem = lts.cli.build_problem(config)
        self.mode = config.mode
        self.variants = [lts.scheme.Variant.parse(v) for v in VARIANT_NAMES]
        # outputs recorded at the reference commit; without a reference the
        # first pass records them and later passes must repeat them
        self.recorded = dict(ctx.reference.get("single-sweep-s32", {}))

    def run_pass(self) -> PassResult:
        lts = self.ctx.ltsheat
        result = PassResult()
        for variant in self.variants:
            try:
                trajectory, report = lts.solver.march(self.grid_, variant, self.mode, self.problem)
                series = lts.diagnostics.error_report(trajectory, self.problem)
            except lts.SolverError as exc:
                result.op(variant.name, [f"SolverError: {exc}"])
                continue
            result.reports.append(report)
            result.l2_error = max(result.l2_error, series.l2_final)
            expected = self.recorded.setdefault(
                variant.name, {"iterations": report.iterations, "l2_error": series.l2_final}
            )
            reasons = march_checks(report, expected["iterations"])
            if not math.isclose(series.l2_final, expected["l2_error"], rel_tol=RECORDED_RTOL, abs_tol=0.0):
                reasons.append(f"L2 error {series.l2_final!r} != recorded {expected['l2_error']!r}")
            result.op(variant.name, reasons)
        return result


class Oracle(Workload):
    """One window per case, K in {10, 20, 50} x four variants, checked against
    the monolithic direct solve.  Each case has seeded widths, interface and a
    seeded exact solution exp(a(t - t^2) - b x^2 + c x - 1)."""

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        lts, np = ctx.ltsheat, ctx.np
        rng = np.random.default_rng(ctx.seed)
        self.mode = lts.solver.SolveMode.converged(1e-12, 400)
        self.cases = []
        for ratio in (10, 20, 50):
            for name in VARIANT_NAMES:
                x_iface = float(rng.uniform(0.3, 0.7))
                config = self.config({
                    "grid.interface_x": repr(x_iface),
                    "grid.n_cells_fine": "100",
                    "grid.n_cells_coarse": "30",
                    "grid.widths_fine": ",".join(map(repr, jittered_widths(rng, 100, x_iface))),
                    "grid.widths_coarse": ",".join(map(repr, jittered_widths(rng, 30, 1.0 - x_iface))),
                    "grid.dt_fine": repr(0.01 / ratio),
                    "grid.dt_coarse": "0.01",
                    "grid.t_end": "0.01",
                    "variant.interface_scheme": name.split("-")[0],
                    "variant.master": name.split("-")[1],
                })
                problem = bump_family(lts, np, *rng.uniform((15.0, 30.0, 6.0), (25.0, 44.0, 10.0)))
                self.cases.append((f"K={ratio} {name}", self.grid(config), config.variant, problem))

    def run_pass(self) -> PassResult:
        lts, np = self.ctx.ltsheat, self.ctx.np
        result = PassResult()
        for label, grid, variant, problem in self.cases:
            try:
                trajectory, report = lts.solver.march(grid, variant, self.mode, problem)
                mono = lts.solver.solve_window_monolithic(
                    grid, 1, trajectory.fine[0], trajectory.coarse[0], variant, problem
                )
                series = lts.diagnostics.error_report(trajectory, problem)
            except lts.SolverError as exc:
                result.op(label, [f"SolverError: {exc}"])
                continue
            result.reports.append(report)
            result.l2_error = max(result.l2_error, series.l2_final)
            reasons = march_checks(report, must_converge=True)
            gap = oracle_gap(lts, np, grid, variant, trajectory, mono)
            if not gap <= ORACLE_TOL:
                reasons.append(f"|iterative - monolithic| = {gap:.3e}")
            result.op(label, reasons)
        return result


def bump_family(lts, np, a: float, b: float, c: float):
    """Manufactured problem p = exp(a(t - t^2) - b x^2 + c x - 1) with its source."""

    def exact(x, t):
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        return np.exp(a * (t - t * t) - b * x * x + c * x - 1.0)

    def source(x, t):
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        return exact(x, t) * (a * (1.0 - 2.0 * t) - (c - 2.0 * b * x) ** 2 + 2.0 * b)

    return lts.Problem(
        source=source,
        p0=lambda x: exact(x, 0.0),
        g_lo=lambda t: exact(0.0, t),
        g_hi=lambda t: exact(1.0, t),
        exact_solution=exact,
    )


def oracle_gap(lts, np, grid, variant, trajectory, mono) -> float:
    """Max |iterative - monolithic| over cells and, for is1, interface pressures."""
    lay = lts.scheme.WindowLayout(grid, variant)
    k, n1, n2 = grid.ratio, grid.n_fine, grid.n_coarse
    gap = max(
        float(np.max(np.abs(trajectory.fine[1:] - mono[: k * n1].reshape(k, n1)))),
        float(np.max(np.abs(trajectory.coarse[1] - mono[k * n1 : k * n1 + n2]))),
    )
    if lay.has_interface_unknowns:
        iface = mono[[lay.iface_fine(j) for j in range(1, k + 1)]]
        gap = max(
            gap,
            float(np.max(np.abs(trajectory.fine_face_pressure[0] - iface))),
            abs(float(trajectory.coarse_face_pressure[0]) - float(mono[lay.iface_coarse()])),
        )
    return gap


WORKLOADS = {"ladder": Ladder, "single-sweep-s32": SingleSweep, "oracle": Oracle}


class Context:
    """What a workload needs: the imported package, the seed, a temp dir,
    the recorded reference, the tracer for set-up spans, and patches of the
    package that are undone at the end."""

    def __init__(self, ltsheat, np, seed: int, tmp: Path, reference: dict, tracer) -> None:
        self.ltsheat, self.np, self.seed, self.tmp = ltsheat, np, seed, tmp
        self.reference, self.tracer = reference, tracer
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)


def wrap_layers(tracer: sp.Tracer, lts) -> None:
    """Wrap each layer's public functions under the names their callers use."""
    march_info = lambda grid, *a, **k: grid.ratio  # noqa: E731
    linear_info = lambda system: (system.n, system.bands is not None)  # noqa: E731
    cli, solver, scheme, diagnostics = lts.cli, lts.solver, lts.scheme, lts.diagnostics
    for module, attr, name, info in (
        (cli, "run_convergence", "cli.run_convergence", None),
        (cli, "march", "solver.march", march_info),
        (cli, "error_report", "diagnostics.error_report", None),
        (solver, "march", "solver.march", march_info),
        (diagnostics, "error_report", "diagnostics.error_report", None),
        (solver, "solve_window", "solver.solve_window", None),
        (solver, "predictor_step", "solver.predictor_step", None),
        (solver, "corrector_sweep", "solver.corrector_sweep", None),
        (solver, "solve_linear", "solver.solve_linear", linear_info),
        (solver, "precompute_window_inputs", "scheme.precompute_window_inputs", None),
        (scheme, "precompute_window_inputs", "scheme.precompute_window_inputs", None),
        (solver, "assemble_subdomain_step", "scheme.assemble_subdomain_step", None),
        (solver, "assemble_composite_step", "scheme.assemble_composite_step", None),
        (solver, "assemble_monolithic_window", "scheme.assemble_monolithic_window", None),
        (solver, "project_fine_to_coarse", "projection", None),
        (solver, "inject_coarse_to_fine", "projection", None),
    ):
        tracer.wrap(module, attr, name, info)


def layer_metrics(spans: list[list], pass_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer numbers of one pass's spans, and trace completeness failures.

    Layers that some workloads never call (the ladder's orchestration, the
    monolithic assembly, the sparse solve) are given as a share of the pass
    time, so that a workload that skips them reports 0 %, not a time."""
    own = sp.self_times(spans)
    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    unknowns = 0
    banded_s = sparse_s = 0.0
    window_ms = []
    for s, o in zip(spans, own):
        name, d = s[sp.NAME], s[sp.END] - s[sp.START]
        calls[name] += 1
        total[name] += d
        self_s[name] += o
        if name == "solver.solve_linear":
            unknowns += s[sp.INFO][0]
            if s[sp.INFO][1]:
                banded_s += d
            else:
                sparse_s += d
        elif name == "solver.solve_window":
            window_ms.append(1e3 * d)
    m = {
        "cli.run_convergence.self_share": 100.0 * self_s["cli.run_convergence"] / pass_s,
        "solver.solve_linear.unknowns": unknowns,
        "solver.solve_linear.banded_s": banded_s,
        "solver.solve_linear.sparse_share": 100.0 * sparse_s / pass_s,
        "solver.solve_window.p50_ms": statistics.median(window_ms),
        "solver.solve_window.p90_ms": statistics.quantiles(window_ms, n=10)[-1],
        "solver.predictor_step.self_s": self_s["solver.predictor_step"],
        "solver.corrector_sweep.self_s": self_s["solver.corrector_sweep"],
        "solver.march.self_s": self_s["solver.march"],
        "projection.calls": calls["projection"],
        "projection.s": total["projection"],
    }
    for name in (
        "scheme.precompute_window_inputs",
        "scheme.assemble_subdomain_step",
        "scheme.assemble_composite_step",
        "solver.solve_linear",
        "solver.corrector_sweep",
        "diagnostics.error_report",
    ):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
    m["scheme.assemble_monolithic_window.calls"] = calls["scheme.assemble_monolithic_window"]
    m["scheme.assemble_monolithic_window.share"] = 100.0 * total["scheme.assemble_monolithic_window"] / pass_s
    for name in ("solver.predictor_step", "solver.solve_window"):
        m[f"{name}.calls"] = calls[name]
    return m, completeness_failures(spans)


def completeness_failures(spans: list[list]) -> list[str]:
    """Every march must show solve_linear = predictor + sweeps (K + 1) and
    assemble_subdomain_step = sweeps (K + 1); a miss means a wrapper missed calls."""
    marches = sp.ancestor_ids(spans, "solver.march")
    per_march: dict[int, Counter] = defaultdict(Counter)
    for s, m in zip(spans, marches):
        if m >= 0:
            per_march[m][s[sp.NAME]] += 1
    failures = []
    for m, c in per_march.items():
        k = spans[m][sp.INFO]
        sweeps = c["solver.corrector_sweep"]
        if c["solver.solve_linear"] != c["solver.predictor_step"] + sweeps * (k + 1):
            failures.append(f"march {m}: solve_linear {c['solver.solve_linear']} != {c['solver.predictor_step']} + {sweeps} x {k + 1}")
        if c["scheme.assemble_subdomain_step"] != sweeps * (k + 1):
            failures.append(f"march {m}: assemble_subdomain_step {c['scheme.assemble_subdomain_step']} != {sweeps} x {k + 1}")
    return failures


def report_metrics(reports: list) -> dict[str, float]:
    """Sweep statistics from the solver's own window reports."""
    windows = [w for r in reports for w in r.windows]
    logs = []
    for w in windows:
        r = [max(pair) for pair in w.residual_history]
        logs += [math.log(b / a) for a, b in zip(r, r[1:]) if a > 0.0 and b > 0.0]
    return {
        "solver.sweeps_per_window.mean": statistics.fmean(w.iterations for w in windows),
        "solver.sweeps_per_window.max": max(w.iterations for w in windows),
        "solver.contraction.mean": math.exp(statistics.fmean(logs)) if logs else 0.0,
        "solver.converged_ratio": sum(w.converged for w in windows) / len(windows),
    }


def timed_passes(workload, seconds: float) -> tuple[list[float], list[PassResult]]:
    """Closed loop: passes back to back until the next one would end after
    ``seconds`` (judged by the previous pass), but at least three."""
    times, results = [], []
    while len(times) < 3 or sum(times) + times[-1] <= seconds:
        t0 = time.perf_counter()
        results.append(workload.run_pass())
        times.append(time.perf_counter() - t0)
    return times, results


def traced_passes(tracer: sp.Tracer, lts, workload, seconds: float):
    """Untraced and traced passes in turn, so that drift in machine speed
    hits both alike, for ``seconds`` but at least two pairs.  Returns the
    untraced and traced pass times, all results, the per-layer numbers
    (median over traced passes), the failed trace checks and each traced
    pass's spans."""
    plain, traced, results, per_pass, spans, failures = [], [], [], [], [], []
    while len(traced) < 2 or sum(plain) + sum(traced) + plain[-1] + traced[-1] <= seconds:
        t0 = time.perf_counter()
        results.append(workload.run_pass())
        plain.append(time.perf_counter() - t0)
        wrap_layers(tracer, lts)
        try:
            t0 = time.perf_counter()
            results.append(workload.run_pass())
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.restore()
        metrics, incomplete = layer_metrics(tracer.spans, traced[-1])
        metrics.update(report_metrics(results[-1].reports))
        per_pass.append(metrics)
        failures += [f"trace completeness: {f}" for f in incomplete]
        spans.append(tracer.spans[:])
        tracer.spans.clear()
    layers = {}
    for k in per_pass[0]:
        values = [p[k] for p in per_pass]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                failures.append(f"count {k} differs between traced passes: {values}")
            layers[k] = values[0]
        else:
            layers[k] = statistics.median(values)
    layers["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, plain))
    return plain, traced, results, layers, failures, spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = sp.Tracer()
    import numpy as np

    import ltsheat
    import ltsheat.cli

    if not Path(ltsheat.__file__).resolve().is_relative_to(Path("src").resolve()):
        print(f"ltsheat imported from {ltsheat.__file__}, not from ./src", file=sys.stderr)
        return 2
    reference = json.loads((REFERENCE / "recorded.json").read_text())
    ctx = Context(ltsheat, np, args.seed, Path(args.tmp), reference, tracer)
    workload = WORKLOADS[args.workload](ctx)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    setup_spans = tracer.spans[:]
    tracer.spans.clear()
    results = [workload.run_pass()]  # warm-up, excluded from timing
    out = {"check_failures": []}
    if args.trace:
        times, traced_times, timed, layers, out["check_failures"], spans = traced_passes(
            tracer, ltsheat, workload, args.seconds
        )
        own = sp.self_times(setup_spans)
        for name in ("cli.config", "grid.build_composite_grid"):
            layers[f"{name}.s"] = sum(d for s, d in zip(setup_spans, own) if s[sp.NAME] == name)
        out.update(layers=layers, traced_pass_s=traced_times)
        if args.spans_out:
            write_spans(Path(args.spans_out), setup_spans, spans)
    else:
        times, timed = timed_passes(workload, args.seconds)
    results += timed
    out["pass_s"] = times
    ctx.unpatch()
    failures = [f for r in results for f in r.failures]
    out.update(
        attempted=sum(r.attempted for r in results),
        failed=len(failures),
        failures=failures[:20],
        l2_error=max(r.l2_error for r in results),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out), flush=True)
    return 0


def write_spans(path: Path, setup_spans: list[list], passes: list[list[list]]) -> None:
    """Spans as JSON: per pass a list of [name, start, end, parent, window]
    where window is the id shared by every span of one solve_window call."""
    def rows(spans):
        windows = sp.ancestor_ids(spans, "solver.solve_window")
        return [[s[sp.NAME], s[sp.START], s[sp.END], s[sp.PARENT], w] for s, w in zip(spans, windows)]

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"setup": rows(setup_spans), "passes": [rows(p) for p in passes]}))


if __name__ == "__main__":
    sys.exit(main())
