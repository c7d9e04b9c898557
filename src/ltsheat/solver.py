"""Window solves for the composite grid: direct linear algebra, the coarse
predictor, and the multiplicative Dirichlet-Neumann corrector.

Each coarse window is solved by (1) a predictor: one implicit step of size
dt_coarse on the union mesh, and (2) corrector sweeps alternating subdomain
solves: the slave subdomain receives the master's pressure quantity as
Dirichlet data (projected to its time resolution), then the master receives
the slave's interface flux as Neumann data (projected likewise).  Because a
sweep ends with the Neumann-side solve and both projections preserve the
time-weighted flux sum exactly, the coupling is conservative after every
whole sweep, including the single-iteration mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .errors import ConfigurationError, SolverError
from .grid import CompositeGrid
from .projection import (
    COARSE,
    FINE,
    Trace,
    coarse_trace,
    fine_trace,
    inject_coarse_to_fine,
    project_fine_to_coarse,
)
from .scheme import (
    IS1,
    InterfaceClosure,
    LinearSystem,
    Problem,
    StepOperators,
    TridiagonalLU,
    Variant,
    WindowInputs,
    assemble_composite_step,
    assemble_monolithic_window,
    assemble_subdomain_step,
    precompute_window_inputs,
)

#: direct-solve residual acceptance factor
SOLVE_RTOL = 1e-10

#: fixed damping of the Dirichlet-trace update between corrector sweeps.  The
#: raw update overshoots: on the reference composite grid the interface gain
#: per sweep is negative for all four coupling variants (about -0.7 to -1.15,
#: oscillatory and divergent for the interface-unknown scheme with a coarse
#: master), so the new Dirichlet datum is blended with the previous one.  The
#: Neumann data is never damped: the master always receives the exactly
#: projected slave flux, which keeps every sweep conservative.
DIRICHLET_RELAXATION = 0.45

CONVERGED = "converged"
SINGLE_ITERATION = "single_iteration"
PREDICTOR_ONLY = "predictor_only"


@dataclass(frozen=True)
class SolveMode:
    """How far to drive the corrector within each window."""

    kind: str
    eps: float = 1e-5
    max_iters: int = 100

    def __post_init__(self) -> None:
        if self.kind not in (CONVERGED, SINGLE_ITERATION, PREDICTOR_ONLY):
            raise ConfigurationError(f"unknown solve mode {self.kind!r}")
        if not self.eps > 0.0:
            raise ConfigurationError("eps must be positive")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")

    @classmethod
    def converged(cls, eps: float = 1e-5, max_iters: int = 100) -> "SolveMode":
        return cls(CONVERGED, eps=eps, max_iters=max_iters)

    @classmethod
    def single_iteration(cls) -> "SolveMode":
        return cls(SINGLE_ITERATION)

    @classmethod
    def predictor_only(cls) -> "SolveMode":
        return cls(PREDICTOR_ONLY)


@dataclass
class SubdomainState:
    """One subdomain's iterate over the current window: cell values at its
    time levels plus its interface pressure and flux traces."""

    cells: np.ndarray  # fine: (K, n_fine); coarse: (n_coarse,)
    pressure: Trace  # interface face pressure at own resolution
    flux: Trace  # interface flux (left-to-right) at own resolution


@dataclass
class WindowState:
    """Full corrector iterate for one window."""

    fine_start: np.ndarray
    coarse_start: np.ndarray
    fine: SubdomainState
    coarse: SubdomainState
    dirichlet_used: Trace | None = None  # data of the latest slave solve
    neumann_used: Trace | None = None  # data of the latest master solve


@dataclass
class WindowReport:
    iterations: int
    residual_history: list[tuple[float, float]]  # (dirichlet, neumann) max-norms
    conservativity_defect: float
    flux_scale: float
    converged: bool


@dataclass
class SolveReport:
    windows: list[WindowReport] = field(default_factory=list)

    @property
    def iterations(self) -> list[int]:
        return [w.iterations for w in self.windows]

    @property
    def mean_iterations(self) -> float:
        return float(np.mean(self.iterations)) if self.windows else 0.0

    @property
    def max_defect(self) -> float:
        return max((w.conservativity_defect for w in self.windows), default=0.0)

    @property
    def all_converged(self) -> bool:
        return all(w.converged for w in self.windows)


@dataclass
class Trajectory:
    """Space-time record of a run: all cell values at all levels (row 0 is the
    initial condition) plus the interface traces of every window."""

    grid: CompositeGrid
    fine: np.ndarray  # (N1 + 1, n_fine)
    coarse: np.ndarray  # (N2 + 1, n_coarse)
    fine_face_pressure: np.ndarray  # (N2, K)
    coarse_face_pressure: np.ndarray  # (N2,)
    fine_flux: np.ndarray  # (N2, K)
    coarse_flux: np.ndarray  # (N2,)

    def fine_level(self, window: int, k: int) -> int:
        """Row index of fine sub-level (window, k) in ``fine``."""
        return (window - 1) * self.grid.ratio + k


def solve_linear(system: LinearSystem) -> np.ndarray:
    """Direct solve (tridiagonal or sparse LU, partial pivoting) with a
    residual acceptance check.  A banded system is factored here unless it
    carries its matrix's shared factors."""
    if system.bands is not None:
        lu = system.lu if system.lu is not None else TridiagonalLU.factor(system.bands)
        x = lu.solve(system.rhs)
        lower, diag, upper = system.bands
        residual = diag * x
        residual -= system.rhs
        residual[:-1] += upper[:-1] * x[1:]
        residual[1:] += lower[1:] * x[:-1]
        norm_a = lu.norm_inf
    else:
        try:
            x = scipy.sparse.linalg.splu(system.sparse.tocsc()).solve(system.rhs)
        except RuntimeError as exc:
            raise SolverError(f"sparse LU failed: {exc}") from exc
        residual = system.sparse @ x - system.rhs
        norm_a = float(np.max(np.abs(system.sparse).sum(axis=1)))
    # a NaN or infinity anywhere in x makes x_max non-finite
    x_max = float(np.abs(x).max(initial=0.0))
    bound = SOLVE_RTOL * (norm_a * x_max + float(np.abs(system.rhs).max(initial=0.0)))
    if not math.isfinite(x_max) or float(np.abs(residual).max(initial=0.0)) > max(bound, 1e-300):
        raise SolverError("direct solve residual exceeds the acceptance bound")
    return x


def predictor_step(
    grid: CompositeGrid,
    window: int,
    fine_start: np.ndarray,
    coarse_start: np.ndarray,
    problem: Problem,
    inputs: WindowInputs | None = None,
) -> np.ndarray:
    """Approximate window-end values on the union mesh from one dt_coarse step."""
    system = assemble_composite_step(grid, window, fine_start, coarse_start, problem, inputs)
    return solve_linear(system)


def init_window_state(
    grid: CompositeGrid,
    window: int,
    fine_start: np.ndarray,
    coarse_start: np.ndarray,
    problem: Problem,
    inputs: WindowInputs | None = None,
) -> WindowState:
    """Initialize the corrector iterate from the predictor: fine values are
    replicated across sub-levels, interface traces are injected in time, and
    the interface pressure is the distance-weighted interpolant of the two
    adjacent predictor values."""
    union = predictor_step(grid, window, fine_start, coarse_start, problem, inputs)
    n1 = grid.n_fine
    pf, pc = union[:n1], union[n1:]
    u_iface = (pc[0] - pf[-1]) / grid.d_across
    p_iface = (grid.d_coarse * pf[-1] + grid.d_fine * pc[0]) / grid.d_across
    ratio = grid.ratio
    return WindowState(
        fine_start=np.asarray(fine_start, dtype=float),
        coarse_start=np.asarray(coarse_start, dtype=float),
        fine=SubdomainState(
            cells=np.tile(pf, (ratio, 1)),
            pressure=fine_trace(np.full(ratio, p_iface), grid.dt_fine),
            flux=fine_trace(np.full(ratio, u_iface), grid.dt_fine),
        ),
        coarse=SubdomainState(
            cells=pc.copy(),
            pressure=coarse_trace(p_iface, grid.dt_coarse),
            flux=coarse_trace(u_iface, grid.dt_coarse),
        ),
    )


def _master_pressure_quantity(grid: CompositeGrid, variant: Variant, state: WindowState) -> Trace:
    """The master-side quantity whose projection is the slave's Dirichlet data:
    the interface pressure for is1, the interface-adjacent cell value for is2."""
    if variant.master == FINE:
        if variant.interface_scheme == IS1:
            return state.fine.pressure
        return fine_trace(state.fine.cells[:, -1], grid.dt_fine)
    if variant.interface_scheme == IS1:
        return state.coarse.pressure
    return coarse_trace(float(state.coarse.cells[0]), grid.dt_coarse)


def _dirichlet_data(grid: CompositeGrid, variant: Variant, state: WindowState) -> Trace:
    quantity = _master_pressure_quantity(grid, variant, state)
    if variant.master == FINE:
        return project_fine_to_coarse(quantity, grid.ratio)
    return inject_coarse_to_fine(quantity, grid.ratio)


def _neumann_data(grid: CompositeGrid, variant: Variant, state: WindowState) -> Trace:
    if variant.master == FINE:
        return inject_coarse_to_fine(state.coarse.flux, grid.ratio)
    return project_fine_to_coarse(state.fine.flux, grid.ratio)


def interface_residuals(
    grid: CompositeGrid, variant: Variant, state: WindowState
) -> tuple[float, float]:
    """Max-norm violation of the variant's two interface conditions by the
    current iterate, in pressure and flux units respectively."""
    if state.dirichlet_used is None or state.neumann_used is None:
        raise SolverError("residuals need at least one completed sweep")
    res_d = float(np.max(np.abs(state.dirichlet_used.values - _dirichlet_data(grid, variant, state).values)))
    master_flux = state.fine.flux if variant.master == FINE else state.coarse.flux
    res_n = float(np.max(np.abs(master_flux.values - _neumann_data(grid, variant, state).values)))
    return res_d, res_n


def _solve_fine_levels(
    grid: CompositeGrid,
    window: int,
    state: WindowState,
    closure_kind: str,
    data: Trace,
    problem: Problem,
    inputs: WindowInputs,
) -> None:
    """March the fine subdomain through its K sub-levels with the given
    interface closure, updating cells and interface traces in place."""
    closure = InterfaceClosure(closure_kind, data)
    prev = state.fine_start
    cells = state.fine.cells
    for k in range(1, grid.ratio + 1):
        system = assemble_subdomain_step(grid, FINE, window, k, prev, closure, problem, inputs)
        cells[k - 1] = solve_linear(system)
        prev = cells[k - 1]
    p_edge = cells[:, -1]
    if closure_kind == "dirichlet_interface":
        flux = (data.values - p_edge) / grid.d_fine
        pressure = data.values.copy()
    elif closure_kind == "dirichlet_neighbor":
        flux = (data.values - p_edge) / grid.d_across
        pressure = p_edge + grid.d_fine * flux
    else:
        flux = data.values.copy()
        pressure = p_edge + grid.d_fine * flux
    state.fine.flux = fine_trace(flux, grid.dt_fine)
    state.fine.pressure = fine_trace(pressure, grid.dt_fine)


def _solve_coarse_level(
    grid: CompositeGrid,
    window: int,
    state: WindowState,
    closure_kind: str,
    data: Trace,
    problem: Problem,
    inputs: WindowInputs,
) -> None:
    closure = InterfaceClosure(closure_kind, data)
    system = assemble_subdomain_step(
        grid, COARSE, window, None, state.coarse_start, closure, problem, inputs
    )
    state.coarse.cells = solve_linear(system)
    p_edge = float(state.coarse.cells[0])
    value = float(data.values[0])
    if closure_kind == "dirichlet_interface":
        u = (p_edge - value) / grid.d_coarse
        pressure = value
    elif closure_kind == "dirichlet_neighbor":
        u = (p_edge - value) / grid.d_across
        pressure = p_edge - grid.d_coarse * u
    else:
        u = value
        pressure = p_edge - grid.d_coarse * u
    state.coarse.flux = coarse_trace(u, grid.dt_coarse)
    state.coarse.pressure = coarse_trace(pressure, grid.dt_coarse)


def corrector_sweep(
    grid: CompositeGrid,
    window: int,
    state: WindowState,
    variant: Variant,
    problem: Problem,
    inputs: WindowInputs | None = None,
) -> tuple[WindowState, tuple[float, float]]:
    """One multiplicative sweep: slave solve with the master's projected
    pressure, then master solve with the slave's projected flux.  Returns the
    updated state and the residuals of the new iterate."""
    if inputs is None:
        inputs = precompute_window_inputs(grid, window, problem)
    dirichlet_kind = (
        "dirichlet_interface" if variant.interface_scheme == IS1 else "dirichlet_neighbor"
    )
    fresh = _dirichlet_data(grid, variant, state)
    if state.dirichlet_used is None:
        state.dirichlet_used = fresh
    else:
        theta = DIRICHLET_RELAXATION
        state.dirichlet_used = Trace(
            (1.0 - theta) * state.dirichlet_used.values + theta * fresh.values,
            fresh.resolution,
            fresh.dt,
        )
    if variant.slave == FINE:
        _solve_fine_levels(grid, window, state, dirichlet_kind, state.dirichlet_used, problem, inputs)
    else:
        _solve_coarse_level(grid, window, state, dirichlet_kind, state.dirichlet_used, problem, inputs)
    state.neumann_used = _neumann_data(grid, variant, state)
    if variant.master == FINE:
        _solve_fine_levels(grid, window, state, "neumann", state.neumann_used, problem, inputs)
    else:
        _solve_coarse_level(grid, window, state, "neumann", state.neumann_used, problem, inputs)
    return state, interface_residuals(grid, variant, state)


def conservativity_defect_of(state: WindowState, grid: CompositeGrid) -> tuple[float, float]:
    """(defect, flux scale) of the current iterate's interface fluxes."""
    total_fine = 0.0
    for v in state.fine.flux.values:
        total_fine += grid.dt_fine * float(v)
    defect = abs(grid.dt_coarse * float(state.coarse.flux.values[0]) - total_fine)
    scale = max(
        float(np.max(np.abs(state.fine.flux.values))),
        abs(float(state.coarse.flux.values[0])),
    )
    return defect, scale


def solve_window(
    grid: CompositeGrid,
    window: int,
    fine_start: np.ndarray,
    coarse_start: np.ndarray,
    variant: Variant,
    mode: SolveMode,
    problem: Problem,
    inputs: WindowInputs | None = None,
) -> tuple[WindowState, WindowReport]:
    """Advance one coarse window in the requested mode."""
    if inputs is None:
        inputs = precompute_window_inputs(grid, window, problem)
    state = init_window_state(grid, window, fine_start, coarse_start, problem, inputs)
    history: list[tuple[float, float]] = []
    converged = False
    if mode.kind == PREDICTOR_ONLY:
        iterations = 0
    elif mode.kind == SINGLE_ITERATION:
        state, residuals = corrector_sweep(grid, window, state, variant, problem, inputs)
        history.append(residuals)
        iterations = 1
    else:
        iterations = 0
        for _ in range(mode.max_iters):
            state, residuals = corrector_sweep(grid, window, state, variant, problem, inputs)
            history.append(residuals)
            iterations += 1
            if residuals[0] <= mode.eps and residuals[1] <= mode.eps:
                converged = True
                break
    defect, scale = conservativity_defect_of(state, grid)
    report = WindowReport(
        iterations=iterations,
        residual_history=history,
        conservativity_defect=defect,
        flux_scale=scale,
        converged=converged,
    )
    return state, report


def march(
    grid: CompositeGrid, variant: Variant, mode: SolveMode, problem: Problem
) -> tuple[Trajectory, SolveReport]:
    """Solve all windows in order from the initial condition p0(x_K)."""
    n1, n2, ratio, n_windows = grid.n_fine, grid.n_coarse, grid.ratio, grid.n_windows
    fine = np.zeros((ratio * n_windows + 1, n1))
    coarse = np.zeros((n_windows + 1, n2))
    fine[0] = np.asarray(problem.p0(grid.centers_fine), dtype=float)
    coarse[0] = np.asarray(problem.p0(grid.centers_coarse), dtype=float)
    fine_face_pressure = np.zeros((n_windows, ratio))
    coarse_face_pressure = np.zeros(n_windows)
    fine_flux = np.zeros((n_windows, ratio))
    coarse_flux = np.zeros(n_windows)
    report = SolveReport()
    fine_start, coarse_start = fine[0], coarse[0]
    operators = StepOperators(grid)
    for window in range(1, n_windows + 1):
        inputs = precompute_window_inputs(grid, window, problem, operators)
        state, wreport = solve_window(
            grid, window, fine_start, coarse_start, variant, mode, problem, inputs
        )
        rows = slice((window - 1) * ratio + 1, window * ratio + 1)
        fine[rows] = state.fine.cells
        coarse[window] = state.coarse.cells
        fine_face_pressure[window - 1] = state.fine.pressure.values
        coarse_face_pressure[window - 1] = float(state.coarse.pressure.values[0])
        fine_flux[window - 1] = state.fine.flux.values
        coarse_flux[window - 1] = float(state.coarse.flux.values[0])
        report.windows.append(wreport)
        fine_start, coarse_start = fine[window * ratio], coarse[window]
    trajectory = Trajectory(
        grid=grid,
        fine=fine,
        coarse=coarse,
        fine_face_pressure=fine_face_pressure,
        coarse_face_pressure=coarse_face_pressure,
        fine_flux=fine_flux,
        coarse_flux=coarse_flux,
    )
    return trajectory, report


def solve_window_monolithic(
    grid: CompositeGrid,
    window: int,
    fine_start: np.ndarray,
    coarse_start: np.ndarray,
    variant: Variant,
    problem: Problem,
    inputs: WindowInputs | None = None,
) -> np.ndarray:
    """Direct solution of the coupled window system (reference path)."""
    system = assemble_monolithic_window(
        grid, window, fine_start, coarse_start, variant, problem, inputs
    )
    return solve_linear(system)
