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
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .diagnostics import ErrorSeries, error_report, observed_order
from .errors import ConfigurationError, SolverError
from .grid import CompositeGrid, GridConfig, build_composite_grid
from .projection import COARSE, FINE
from .scheme import IS1, IS2, VARIANTS, Problem, Variant, manufactured_problem, polynomial_problem, zero_problem
from .solver import CONVERGED, MODE_KINDS, SolveMode, SolveReport, Trajectory, march

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


def _number(kind: type[float] | type[int]) -> Callable[[str], float]:
    noun = "a number" if kind is float else "an integer"

    def read(text: str) -> float:
        try:
            return kind(text)
        except ValueError:
            raise ValueError(f"is not {noun}: {text!r}") from None

    return read


def _word(*choices: str) -> Callable[[str], str]:
    def read(text: str) -> str:
        word = text.lower()
        if word not in choices:
            raise ValueError(f"must be one of {choices}, got {word!r}")
        return word

    return read


def _floats(text: str) -> tuple[float, ...]:
    """A comma list of numbers; an empty entry is an error, not skipped."""
    try:
        return tuple(float(entry) for entry in text.split(","))
    except ValueError:
        raise ValueError("is not a comma list of numbers") from None


def _finite_floats(text: str) -> tuple[float, ...]:
    values = _floats(text)
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"entries must be finite, got {text!r}")
    return values


_REQUIRED = object()
# every config key: its reader (value text -> value; raises ValueError with
# the tail of the message) and its default; the grid keys are GridConfig's
# fields, prefixed with "grid."
_KEYS: dict[str, tuple[Callable[[str], object], object]] = {
    "grid.domain_lo": (_number(float), 0.0),
    "grid.domain_hi": (_number(float), 1.0),
    "grid.interface_x": (_number(float), _REQUIRED),
    "grid.n_cells_fine": (_number(int), _REQUIRED),
    "grid.n_cells_coarse": (_number(int), _REQUIRED),
    "grid.dt_fine": (_number(float), _REQUIRED),
    "grid.dt_coarse": (_number(float), _REQUIRED),
    "grid.t_end": (_number(float), _REQUIRED),
    "grid.widths_fine": (_floats, None),
    "grid.widths_coarse": (_floats, None),
    "variant.interface_scheme": (_word(IS1, IS2), IS2),
    "variant.master": (_word(FINE, COARSE), FINE),
    "mode.type": (_word(*MODE_KINDS), CONVERGED),
    "mode.eps": (_number(float), 1e-5),
    "mode.max_iters": (_number(int), 100),
    "problem": (_word("manufactured", "zero", "custom-coefficients"), "manufactured"),
    "problem.source_coeffs": (_finite_floats, None),
    "problem.initial_coeffs": (_finite_floats, None),
    "output_dir": (Path, Path("out")),
    "convergence.levels": (_number(int), 4),
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key = value`` pairs; raises ConfigurationError on bad syntax,
    an unknown key or a key given twice."""
    pairs: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in pairs:
            raise ConfigurationError(f"{path}:{lineno}: config key {key!r} given twice")
        pairs[key] = value
    return pairs


def _value(pairs: dict[str, str], key: str) -> object:
    """The value of ``key`` by its reader in ``_KEYS``, or its default when
    it is absent; a required key that is absent, an empty value and a value
    the reader rejects are configuration errors."""
    read, default = _KEYS[key]
    if key not in pairs:
        if default is _REQUIRED:
            raise ConfigurationError(f"missing required config key {key!r}")
        return default
    text = pairs[key].strip()
    if not text:
        raise ConfigurationError(f"config key {key!r} has no value")
    try:
        return read(text)
    except ValueError as exc:
        raise ConfigurationError(f"config key {key!r} {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed run description."""

    grid: GridConfig
    variant: Variant
    mode: SolveMode
    problem_kind: str  # manufactured | zero | custom-coefficients
    output_dir: Path
    source_coeffs: tuple[float, ...] | None
    initial_coeffs: tuple[float, ...] | None
    levels: int


def load_run_config(pairs: dict[str, str]) -> RunConfig:
    unknown = sorted(set(pairs) - set(_KEYS))
    if unknown:
        raise ConfigurationError(f"unknown config key {unknown[0]!r}")
    value = {key: _value(pairs, key) for key in _KEYS}
    grid = GridConfig(**{key.removeprefix("grid."): v for key, v in value.items() if key.startswith("grid.")})
    problem = value["problem"]
    for key in ("problem.source_coeffs", "problem.initial_coeffs"):
        if key in pairs and problem != "custom-coefficients":
            raise ConfigurationError(f"config key {key!r} is only for problem 'custom-coefficients', not {problem!r}")
    if value["convergence.levels"] < 1:
        raise ConfigurationError("convergence.levels must be at least 1")
    return RunConfig(
        grid=grid,
        variant=Variant(value["variant.interface_scheme"], value["variant.master"]),
        mode=SolveMode(value["mode.type"], eps=value["mode.eps"], max_iters=value["mode.max_iters"]),
        problem_kind=problem,
        output_dir=value["output_dir"],
        source_coeffs=value["problem.source_coeffs"],
        initial_coeffs=value["problem.initial_coeffs"],
        levels=value["convergence.levels"],
    )


def _check_output_dir(out: Path) -> None:
    """Reject an output directory that cannot be made, creating nothing: the
    path must hold no NUL byte and be one the system can look up, its nearest
    existing ancestor must be a directory, and each name to be made below
    that must fit its file system."""
    if "\0" in str(out):
        raise ConfigurationError(f"output_dir {str(out)!r} holds a NUL byte")
    try:
        existing = next(path for path in (out, *out.parents) if path.exists())
        name_max = os.pathconf(existing, "PC_NAME_MAX")
    except OSError as exc:
        raise ConfigurationError(f"output_dir {str(out)!r} cannot be used: {exc.strerror}") from None
    if not existing.is_dir():
        where = "" if existing == out else f"cannot be made: {str(existing)!r} "
        raise ConfigurationError(f"output_dir {str(out)!r} {where}is not a directory")
    if any(len(os.fsencode(name)) > name_max for name in out.relative_to(existing).parts):
        raise ConfigurationError(f"output_dir {str(out)!r} cannot be made: a name is over {name_max} bytes")


def build_problem(config: RunConfig) -> Problem:
    """The problem ``problem`` names; it also decides the boundary data: the
    exact solution at the domain ends for ``manufactured``, zero otherwise."""
    if config.problem_kind == "manufactured":
        return manufactured_problem(config.grid.domain_lo, config.grid.domain_hi)
    if config.problem_kind == "zero":
        return zero_problem()
    return polynomial_problem(config.source_coeffs or (0.0,), config.initial_coeffs or (0.0,))


def _check_converged(mode: SolveMode, report: SolveReport, label: str) -> bool:
    """False when a converged-mode march left a window unconverged; stderr then names
    the first one, its sweeps, its last and first Dirichlet residuals and their
    last/previous ratio, next to the march's interface gain g, the damping theta
    chosen from it and the predicted contraction rho = 1 - theta + theta g per
    sweep, and whether the residual stopped falling before ``max_iters``."""
    if mode.kind != CONVERGED or report.all_converged:
        return True
    window, failed = next((n, w) for n, w in enumerate(report.windows, start=1) if not w.converged)
    residuals = failed.dirichlet_residuals
    ratio = f"{residuals[-1] / residuals[-2]:.3g}" if len(residuals) > 1 else "n/a"
    gain, theta, rho = (
        "n/a" if value is None else f"{value:.3g}" for value in (report.gain, report.damping, report.contraction)
    )
    # an unconverged window ends early only when its residual stopped falling
    stalled = (
        f"; the residual stopped falling at the datum's roundoff, above eps {mode.eps:.3g}"
        if failed.iterations < mode.max_iters
        else ""
    )
    print(
        f"corrector did not converge ({label}): window {window} of {len(report.windows)} "
        f"after {failed.iterations} sweeps, Dirichlet residual last {residuals[-1]:.3e}, "
        f"first {residuals[0]:.3e}, last/previous {ratio} "
        f"(interface gain g = {gain}, damping theta = {theta}, contraction rho = {rho}){stalled}",
        file=sys.stderr,
    )
    return False


def _labelled_march(
    label: str, grid: CompositeGrid, variant: Variant, mode: SolveMode, problem: Problem
) -> tuple[Trajectory, SolveReport]:
    """``march``, with a solver error prefixed by ``label`` unless that is
    the variant the error already names, so that a command of several
    marches says which one failed: the ladder level, or a baseline method."""
    try:
        return march(grid, variant, mode, problem)
    except SolverError as exc:
        if label == variant.name:
            raise
        raise SolverError(f"{label}: {exc}") from exc


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write(path: Path, text: str) -> None:
    """Write one output file, making the output directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_csv(path: Path, header: str, rows: list[list[str]]) -> None:
    lines = [header] + [",".join(row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _summary_payload(
    config: RunConfig, grid: CompositeGrid, report: SolveReport, trajectory: Trajectory, series: ErrorSeries | None
) -> dict:
    payload = {
        "variant": config.variant.name,
        "mode": config.mode.kind,
        "eps": config.mode.eps,
        "max_iters": config.mode.max_iters,
        "problem": config.problem_kind,
        "boundary_mode": "homogeneous" if config.problem_kind == "custom-coefficients" else "exact",
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


def _run(body: Callable[[RunConfig], int], config_path: str | Path, overrides: dict[str, str] | None) -> int:
    """Parse a config file, apply command-line overrides and validate,
    including that the output directory can be made, then run ``body`` on
    the config and return its exit code.  A configuration error, or a run too
    large for the memory there is, exits 2 and a solver error 1, each with
    one line on stderr and no warning before it."""
    try:
        pairs = parse_config_file(config_path)
        pairs.update(overrides or {})
        config = load_run_config(pairs)
        _check_output_dir(config.output_dir)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return body(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a grid within its size checks can still need more than there is
        print(f"configuration error: the run does not fit in memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run_experiment(config_path: str | Path, overrides: dict[str, str] | None = None) -> int:
    """Single run: summary.json, error_space.csv, error_time.csv."""
    return _run(_experiment, config_path, overrides)


def _experiment(config: RunConfig) -> int:
    grid = build_composite_grid(config.grid)
    problem = build_problem(config)
    trajectory, report = march(grid, config.variant, config.mode, problem)
    series = error_report(trajectory, problem) if problem.exact_solution is not None else None
    payload = _summary_payload(config, grid, report, trajectory, series)
    bad = _non_finite_keys(payload)
    if bad:
        raise SolverError(f"summary values are not finite: {', '.join(bad)}")
    out = config.output_dir
    _write(out / "summary.json", json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    space = [] if series is None else zip(series.x, series.space_error)
    times = [] if series is None else zip(series.window_times, series.l2_by_window)
    _write_csv(out / "error_space.csv", "x,error", [[_fmt(x), _fmt(e)] for x, e in space])
    _write_csv(out / "error_time.csv", "t,l2_error", [[_fmt(t), _fmt(e)] for t, e in times])
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
    return _run(_convergence, config_path, overrides)


def _convergence(config: RunConfig) -> int:
    if config.problem_kind == "custom-coefficients":
        raise ConfigurationError("convergence study needs a problem with an exact solution")
    ladders = [build_composite_grid(_refine_grid(config.grid, 2**level)) for level in range(config.levels)]
    problem = build_problem(config)
    rows_data = []
    any_nonconverged = False
    for level, grid in enumerate(ladders):
        trajectory, report = _labelled_march(f"ladder level {level}", grid, config.variant, config.mode, problem)
        label = f"{config.variant.name}, ladder level {level}"
        any_nonconverged |= not _check_converged(config.mode, report, label)
        series = error_report(trajectory, problem)
        h = float(max(np.max(grid.widths_fine), np.max(grid.widths_coarse)))
        rows_data.append((h, grid.dt_coarse, series.l2_final, series.h1_global))

    # the first level has no order
    orders_l2 = [None, *observed_order([(h, dt, e) for h, dt, e, _ in rows_data])]
    orders_h1 = [None, *observed_order([(h, dt, e) for h, dt, _, e in rows_data])]
    rows = []
    for level, ((h, dt, l2, h1), o_l2, o_h1) in enumerate(zip(rows_data, orders_l2, orders_h1)):
        orders = ("" if o is None else _fmt(o) for o in (o_l2, o_h1))
        rows.append([str(level), _fmt(h), _fmt(dt), _fmt(l2), _fmt(h1), *orders])
    _write_csv(
        config.output_dir / "convergence.csv",
        "level,h,dt,l2_error,h1_error,observed_order_l2,observed_order_h1",
        rows,
    )
    return EXIT_NO_CONVERGENCE if any_nonconverged else EXIT_OK


def run_compare(config_path: str | Path, overrides: dict[str, str] | None = None) -> int:
    """Four variants, two uniform-time-step baselines on the same spatial mesh,
    and the single-iteration comparison method: compare.csv."""
    return _run(_compare, config_path, overrides)


def _compare(config: RunConfig) -> int:
    base_grid = build_composite_grid(config.grid)  # validates before any run
    problem = build_problem(config)
    baseline = Variant(IS2, FINE)
    runs = [(variant.name, base_grid, variant, config.mode) for variant in VARIANTS]
    for side, dt in ((FINE, config.grid.dt_fine), (COARSE, config.grid.dt_coarse)):
        grid = build_composite_grid(replace(config.grid, dt_fine=dt, dt_coarse=dt))
        runs.append((f"uniform-{side}", grid, baseline, config.mode))
    runs.append((f"{baseline.name}-single-iteration", base_grid, baseline, SolveMode.single_iteration()))

    rows = []
    any_nonconverged = False
    for label, grid, variant, mode in runs:
        trajectory, report = _labelled_march(label, grid, variant, mode, problem)
        any_nonconverged |= not _check_converged(mode, report, label)
        l2 = "" if problem.exact_solution is None else _fmt(error_report(trajectory, problem).l2_final)
        rows.append([label, l2, _fmt(report.mean_iterations), _fmt(report.max_defect)])
    _write_csv(
        config.output_dir / "compare.csv",
        "method,final_l2_error,mean_iterations,max_conservativity_defect",
        rows,
    )
    return EXIT_NO_CONVERGENCE if any_nonconverged else EXIT_OK


def _overrides_from_args(args: argparse.Namespace) -> dict[str, str]:
    """The config keys the flags set: each flag but ``--variant`` has its
    key as its ``dest``; ``--variant`` sets both ``variant.*`` keys."""
    overrides = {key: str(value) for key, value in vars(args).items() if key in _KEYS and value is not None}
    if args.variant is not None:
        try:
            variant = Variant.parse(args.variant)
        except ConfigurationError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_CONFIG) from None
        overrides["variant.interface_scheme"] = variant.interface_scheme
        overrides["variant.master"] = variant.master
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
        p.add_argument("--mode", dest="mode.type", choices=MODE_KINDS)
        p.add_argument("--eps", dest="mode.eps", type=float, help="corrector stopping tolerance")
        p.add_argument("--max-iters", dest="mode.max_iters", type=int, help="corrector sweep limit")
        p.add_argument("--out", dest="output_dir", help="output directory")
    args = parser.parse_args(argv)
    overrides = _overrides_from_args(args)
    command = {"run": run_experiment, "converge": run_convergence, "compare": run_compare}[args.command]
    return command(args.config, overrides)


if __name__ == "__main__":
    sys.exit(main())
