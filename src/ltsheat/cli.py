"""Command line interface and experiment orchestration.

Configs are flat key-value text files with dotted keys (``grid.dt_fine =
0.002``), '#' comments and blank lines.  Three commands:

  ltsheat run <config>       one solve; writes summary.json, error_space.csv,
                             error_time.csv
  ltsheat converge <config>  refinement ladder; writes convergence.csv
  ltsheat compare <config>   four coupling variants, two uniform-time-step
                             baselines and the single-iteration comparison
                             method; writes compare.csv

Exit codes: 0 success, 2 configuration error, 3 non-convergence (converged
mode only; stderr says where), 1 unexpected solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .diagnostics import ErrorSeries, error_report, final_l2_error, observed_order
from .errors import ConfigurationError, SolverError
from .grid import CompositeGrid, GridConfig, build_composite_grid
from .projection import COARSE, FINE
from .scheme import IS1, IS2, VARIANTS, Problem, Variant, manufactured_problem, polynomial_problem, zero_problem
from .solver import CONVERGED, SolveMode, SolveReport, Trajectory, march

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

_GRID_KEYS = {
    "grid.domain_lo",
    "grid.domain_hi",
    "grid.interface_x",
    "grid.n_cells_fine",
    "grid.n_cells_coarse",
    "grid.dt_fine",
    "grid.dt_coarse",
    "grid.t_end",
    "grid.widths_fine",
    "grid.widths_coarse",
}
_KNOWN_KEYS = _GRID_KEYS | {
    "variant.interface_scheme",
    "variant.master",
    "mode.type",
    "mode.eps",
    "mode.max_iters",
    "problem",
    "problem.source_coeffs",
    "problem.initial_coeffs",
    "boundary_mode",
    "output_dir",
    "convergence.levels",
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key = value`` pairs; raises ConfigurationError on bad syntax."""
    pairs: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        pairs[key] = value
    return pairs


def _get_float(pairs: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in pairs:
        if default is None:
            raise ConfigurationError(f"missing required config key {key!r}")
        return default
    try:
        return float(pairs[key])
    except ValueError:
        raise ConfigurationError(f"config key {key!r} is not a number: {pairs[key]!r}") from None


def _get_int(pairs: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in pairs:
        if default is None:
            raise ConfigurationError(f"missing required config key {key!r}")
        return default
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigurationError(f"config key {key!r} is not an integer: {pairs[key]!r}") from None


def _get_choice(pairs: dict[str, str], key: str, choices: tuple[str, ...], default: str) -> str:
    value = pairs.get(key, default).strip().lower()
    if value not in choices:
        raise ConfigurationError(f"config key {key!r} must be one of {choices}, got {value!r}")
    return value


def _get_floats(pairs: dict[str, str], key: str) -> tuple[float, ...] | None:
    if key not in pairs:
        return None
    try:
        return tuple(float(v) for v in pairs[key].split(",") if v.strip())
    except ValueError:
        raise ConfigurationError(f"config key {key!r} is not a comma list of numbers") from None


def _get_coeffs(pairs: dict[str, str], key: str) -> tuple[float, ...] | None:
    values = _get_floats(pairs, key)
    if values is not None and not all(math.isfinite(v) for v in values):
        raise ConfigurationError(f"config key {key!r} entries must be finite, got {pairs[key]!r}")
    return values


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed run description."""

    grid: GridConfig
    variant: Variant
    mode: SolveMode
    problem_kind: str  # manufactured | zero | custom-coefficients
    boundary_mode: str  # exact | homogeneous
    output_dir: Path
    source_coeffs: tuple[float, ...] | None = None
    initial_coeffs: tuple[float, ...] | None = None
    levels: int = 4


def load_run_config(pairs: dict[str, str]) -> RunConfig:
    grid = GridConfig(
        domain_lo=_get_float(pairs, "grid.domain_lo", 0.0),
        domain_hi=_get_float(pairs, "grid.domain_hi", 1.0),
        interface_x=_get_float(pairs, "grid.interface_x"),
        n_cells_fine=_get_int(pairs, "grid.n_cells_fine"),
        n_cells_coarse=_get_int(pairs, "grid.n_cells_coarse"),
        dt_fine=_get_float(pairs, "grid.dt_fine"),
        dt_coarse=_get_float(pairs, "grid.dt_coarse"),
        t_end=_get_float(pairs, "grid.t_end"),
        widths_fine=_get_floats(pairs, "grid.widths_fine"),
        widths_coarse=_get_floats(pairs, "grid.widths_coarse"),
    )
    variant = Variant(
        _get_choice(pairs, "variant.interface_scheme", (IS1, IS2), IS2),
        _get_choice(pairs, "variant.master", (FINE, COARSE), FINE),
    )
    kind = _get_choice(pairs, "mode.type", ("converged", "single_iteration", "predictor_only"), "converged")
    mode = SolveMode(kind, eps=_get_float(pairs, "mode.eps", 1e-5), max_iters=_get_int(pairs, "mode.max_iters", 100))
    problem_kind = _get_choice(pairs, "problem", ("manufactured", "zero", "custom-coefficients"), "manufactured")
    boundary_mode = _get_choice(pairs, "boundary_mode", ("exact", "homogeneous"), "exact")
    if problem_kind == "custom-coefficients" and boundary_mode != "homogeneous":
        raise ConfigurationError(
            "problem 'custom-coefficients' has no exact solution; set boundary_mode = homogeneous"
        )
    levels = _get_int(pairs, "convergence.levels", 4)
    if levels < 1:
        raise ConfigurationError("convergence.levels must be at least 1")
    return RunConfig(
        grid=grid,
        variant=variant,
        mode=mode,
        problem_kind=problem_kind,
        boundary_mode=boundary_mode,
        output_dir=Path(pairs.get("output_dir", "out")),
        source_coeffs=_get_coeffs(pairs, "problem.source_coeffs"),
        initial_coeffs=_get_coeffs(pairs, "problem.initial_coeffs"),
        levels=levels,
    )


def _check_output_dir(out: Path) -> None:
    """Reject an output directory that cannot be made, creating nothing: the
    path or its nearest existing ancestor must be a directory."""
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        where = "" if existing == out else f"cannot be made: {str(existing)!r} "
        raise ConfigurationError(f"output_dir {str(out)!r} {where}is not a directory")


def _load_config(config_path: str | Path, overrides: dict[str, str] | None) -> RunConfig:
    """Parse a config file, apply command-line overrides and validate,
    including that the output directory can be made."""
    pairs = parse_config_file(config_path)
    pairs.update(overrides or {})
    config = load_run_config(pairs)
    _check_output_dir(config.output_dir)
    return config


def build_problem(config: RunConfig) -> Problem:
    if config.problem_kind == "manufactured":
        return manufactured_problem(homogeneous_boundary=config.boundary_mode == "homogeneous")
    if config.problem_kind == "zero":
        return zero_problem()
    return polynomial_problem(config.source_coeffs or (0.0,), config.initial_coeffs or (0.0,))


def _check_converged(mode: SolveMode, report: SolveReport, label: str) -> bool:
    """False when a converged-mode march left a window unconverged; stderr then names
    the first one, its sweeps, its last and first Dirichlet residuals and their
    last/previous ratio, next to the march's predicted contraction per sweep."""
    if mode.kind != CONVERGED or report.all_converged:
        return True
    window, failed = next((n, w) for n, w in enumerate(report.windows, start=1) if not w.converged)
    residuals = failed.dirichlet_residuals
    ratio = f"{residuals[-1] / residuals[-2]:.3g}" if len(residuals) > 1 else "n/a"
    predicted = "n/a" if report.contraction is None else f"{report.contraction:.3g}"
    print(
        f"corrector did not converge ({label}): window {window} of {len(report.windows)} "
        f"after {failed.iterations} sweeps, Dirichlet residual last {residuals[-1]:.3e}, "
        f"first {residuals[0]:.3e}, last/previous {ratio} (predicted contraction {predicted})",
        file=sys.stderr,
    )
    return False


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(path: Path, header: str, rows: list[list[str]]) -> None:
    lines = [header] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _summary_payload(
    config: RunConfig, grid: CompositeGrid, report: SolveReport, trajectory: Trajectory, series: ErrorSeries | None
) -> dict:
    payload = {
        "variant": config.variant.name,
        "mode": config.mode.kind,
        "eps": config.mode.eps,
        "max_iters": config.mode.max_iters,
        "problem": config.problem_kind,
        "boundary_mode": config.boundary_mode,
        "grid": {
            "n_cells_fine": grid.n_fine,
            "n_cells_coarse": grid.n_coarse,
            "dt_fine": grid.dt_fine,
            "dt_coarse": grid.dt_coarse,
            "ratio": grid.ratio,
            "n_windows": grid.n_windows,
            "interface_x": grid.interface_x,
        },
        "iterations": report.iterations,
        "mean_iterations": report.mean_iterations,
        "conservativity_defects": [w.conservativity_defect for w in report.windows],
        "max_conservativity_defect": report.max_defect,
        "all_converged": report.all_converged,
        "final_l2_norm": float(
            np.sqrt(
                np.sum(trajectory.fine[-1] ** 2 * grid.widths_fine)
                + np.sum(trajectory.coarse[-1] ** 2 * grid.widths_coarse)
            )
        ),
    }
    payload["final_l2_error"] = None if series is None else series.l2_final
    payload["final_h1_error"] = None if series is None else series.h1_final
    payload["h1_global_error"] = None if series is None else series.h1_global
    return payload


def _non_finite_keys(payload: dict) -> list[str]:
    """The keys of a summary payload whose value, or an entry of it, is a
    non-finite number, which JSON cannot hold."""
    bad = []
    for key, value in sorted(payload.items()):
        entries = value.values() if isinstance(value, dict) else value if isinstance(value, list) else [value]
        if any(isinstance(entry, float) and not math.isfinite(entry) for entry in entries):
            bad.append(key)
    return bad


def run_experiment(config_path: str | Path, overrides: dict[str, str] | None = None) -> int:
    """Single run: summary.json, error_space.csv, error_time.csv."""
    try:
        config = _load_config(config_path, overrides)
        grid = build_composite_grid(config.grid)
        problem = build_problem(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        trajectory, report = march(grid, config.variant, config.mode, problem)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    series = error_report(trajectory, problem) if problem.exact_solution is not None else None
    payload = _summary_payload(config, grid, report, trajectory, series)
    bad = _non_finite_keys(payload)
    if bad:
        print(f"solver error: summary values are not finite: {', '.join(bad)}", file=sys.stderr)
        return EXIT_ERROR
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")

    if series is not None:
        _write_csv(
            out / "error_space.csv",
            "x,error",
            [[_fmt(x), _fmt(e)] for x, e in zip(series.x, series.space_error)],
        )
        _write_csv(
            out / "error_time.csv",
            "t,l2_error",
            [[_fmt(t), _fmt(e)] for t, e in zip(series.window_times, series.l2_by_window)],
        )
    else:
        _write_csv(out / "error_space.csv", "x,error", [])
        _write_csv(out / "error_time.csv", "t,l2_error", [])

    return EXIT_OK if _check_converged(config.mode, report, config.variant.name) else EXIT_NO_CONVERGENCE


def _refine_grid(grid: GridConfig, factor: int) -> GridConfig:
    if grid.widths_fine is not None or grid.widths_coarse is not None:
        raise ConfigurationError("refinement ladders need uniform cell widths")
    return replace(
        grid,
        n_cells_fine=grid.n_cells_fine * factor,
        n_cells_coarse=grid.n_cells_coarse * factor,
        dt_fine=grid.dt_fine / factor,
        dt_coarse=grid.dt_coarse / factor,
    )


def run_convergence(config_path: str | Path, overrides: dict[str, str] | None = None) -> int:
    """Simultaneous factor-2 refinement ladder: convergence.csv."""
    try:
        config = _load_config(config_path, overrides)
        if config.problem_kind == "custom-coefficients":
            raise ConfigurationError("convergence study needs a problem with an exact solution")
        ladders = [
            build_composite_grid(_refine_grid(config.grid, 2**level))
            for level in range(config.levels)
        ]
        problem = build_problem(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rows_data = []
    any_nonconverged = False
    try:
        for level, grid in enumerate(ladders):
            trajectory, report = march(grid, config.variant, config.mode, problem)
            label = f"{config.variant.name}, ladder level {level}"
            any_nonconverged |= not _check_converged(config.mode, report, label)
            series = error_report(trajectory, problem)
            h = float(max(np.max(grid.widths_fine), np.max(grid.widths_coarse)))
            rows_data.append((h, grid.dt_coarse, series.l2_final, series.h1_global))
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    orders_l2 = observed_order([(h, dt, e) for h, dt, e, _ in rows_data])
    orders_h1 = observed_order([(h, dt, e) for h, dt, _, e in rows_data])
    rows = []
    for level, (h, dt, l2, h1) in enumerate(rows_data):
        o_l2 = orders_l2[level - 1] if level > 0 else None
        o_h1 = orders_h1[level - 1] if level > 0 else None
        rows.append(
            [
                str(level),
                _fmt(h),
                _fmt(dt),
                _fmt(l2),
                _fmt(h1),
                "" if o_l2 is None else _fmt(o_l2),
                "" if o_h1 is None else _fmt(o_h1),
            ]
        )
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "convergence.csv",
        "level,h,dt,l2_error,h1_error,observed_order_l2,observed_order_h1",
        rows,
    )
    return EXIT_NO_CONVERGENCE if any_nonconverged else EXIT_OK


def run_compare(config_path: str | Path, overrides: dict[str, str] | None = None) -> int:
    """Four variants, two uniform-time-step baselines on the same spatial mesh,
    and the single-iteration comparison method: compare.csv."""
    try:
        config = _load_config(config_path, overrides)
        base_grid = build_composite_grid(config.grid)  # validates before any run
        problem = build_problem(config)
        baseline = Variant(IS2, FINE)
        runs = [(variant.name, base_grid, variant, config.mode) for variant in VARIANTS]
        for side, dt in ((FINE, config.grid.dt_fine), (COARSE, config.grid.dt_coarse)):
            grid = build_composite_grid(replace(config.grid, dt_fine=dt, dt_coarse=dt))
            runs.append((f"uniform-{side}", grid, baseline, config.mode))
        runs.append((f"{baseline.name}-single-iteration", base_grid, baseline, SolveMode.single_iteration()))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rows = []
    any_nonconverged = False
    try:
        for label, grid, variant, mode in runs:
            trajectory, report = march(grid, variant, mode, problem)
            any_nonconverged |= not _check_converged(mode, report, label)
            if problem.exact_solution is not None:
                l2 = _fmt(final_l2_error(trajectory, problem))
            else:
                l2 = ""
            rows.append([label, l2, _fmt(report.mean_iterations), _fmt(report.max_defect)])
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "compare.csv",
        "method,final_l2_error,mean_iterations,max_conservativity_defect",
        rows,
    )
    return EXIT_NO_CONVERGENCE if any_nonconverged else EXIT_OK


def _overrides_from_args(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    if args.variant is not None:
        try:
            variant = Variant.parse(args.variant)
        except ConfigurationError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_CONFIG) from None
        overrides["variant.interface_scheme"] = variant.interface_scheme
        overrides["variant.master"] = variant.master
    if args.mode is not None:
        overrides["mode.type"] = args.mode
    if args.eps is not None:
        overrides["mode.eps"] = str(args.eps)
    if args.max_iters is not None:
        overrides["mode.max_iters"] = str(args.max_iters)
    if args.out is not None:
        overrides["output_dir"] = args.out
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ltsheat",
        description="Conservative local time stepping for the 1D heat equation on a composite grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "solve one configuration and write summary/error files"),
        ("converge", "run a factor-2 refinement ladder and write convergence.csv"),
        ("compare", "run all variants plus baselines and write compare.csv"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a key-value config file")
        p.add_argument("--variant", help=" | ".join(variant.name for variant in VARIANTS))
        p.add_argument("--mode", choices=["converged", "single_iteration", "predictor_only"])
        p.add_argument("--eps", type=float, help="corrector stopping tolerance")
        p.add_argument("--max-iters", type=int, help="corrector sweep limit")
        p.add_argument("--out", help="output directory")
    args = parser.parse_args(argv)
    overrides = _overrides_from_args(args)
    command = {"run": run_experiment, "converge": run_convergence, "compare": run_compare}[args.command]
    return command(args.config, overrides)


if __name__ == "__main__":
    sys.exit(main())
