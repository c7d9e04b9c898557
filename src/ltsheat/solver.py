"""Window solves for the composite grid: direct linear algebra, the coarse
predictor, and the multiplicative Dirichlet-Neumann corrector.

Each coarse window is solved by corrector sweeps alternating subdomain
solves: the slave subdomain receives the master's pressure quantity as
Dirichlet data, then the master receives the slave's interface flux as
Neumann data.  The predictor, one implicit step of size dt_coarse on the
union mesh, only gives the first sweep's datum; every cell and trace a
window stores comes from a sweep.  A side's interface traces hold one value
per own time level (K fine, 1 coarse), and the piecewise constant
projections in time make every datum one number per window: the average of
K fine values for the coarse side, a coarse value taken at each of the K
levels for the fine side.  Because a sweep ends with the Neumann-side solve and both projections
preserve the time-weighted flux sum exactly, the coupling is conservative
after every whole sweep, including the single-iteration mode.

One sweep body serves the real, the unit-datum and the superposed sweeps:
it closes the slave with its Dirichlet datum, then the master with the
projected slave flux, and sets each side's traces from the cells it is
given.  A sweep is affine in the slave's datum: from datum x the master's
new Dirichlet datum is f1 + g (x - x0), where x0 is the first sweep's datum,
f1 the datum after it, and g the interface gain, the response of one sweep
to a unit datum on the homogeneous problem (the Steklov-Poincare form of the
coupling in one unknown).  So only sweep 1 marches the subdomains, and
sweeps 2..n run that recursion with the same stopping test, each datum
relaxed by a damping theta chosen from g.
A sweep's residual is |datum - fresh|, fresh being the master's projected
Dirichlet datum after it; the master's flux is its Neumann datum, so there
is no Neumann residual.  Every step matrix is an M-matrix, so g < 0 and the
contraction rho = 1 - theta + theta g lies in [0, 0.55) (README gives the
argument).  The recursion shrinks each residual by exactly rho, so a window
stops converged, or unconverged where its residual does not fall: there it
is roundoff of the datum, above eps.  A window that ran more sweeps then goes
once more through the sweep body with sweep 1's cells plus (x - x0) times
the unit-datum sweep's cells, which keeps it conservative.  The unit-datum
sweep (``interface_gain``) runs once per march, the first time a window
needs a second sweep.
"""

from __future__ import annotations

import math
import numbers
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SolverError
from .grid import CompositeGrid, Side
from .projection import COARSE, FINE, conservativity_defect, inject_coarse_to_fine, project_fine_to_coarse
from .scheme import (
    LinearSystem,
    Problem,
    StepOperators,
    Variant,
    WindowInputs,
    _broadcast_return,
    _fblas,
    _window_blocks,
    assemble_composite_step,
    assemble_monolithic_window,
    assemble_subdomain_step,
    interface_traces,
    precompute_window_inputs,
)

#: direct-solve residual acceptance factor
SOLVE_RTOL = 1e-10

#: damping of the Dirichlet-trace update between corrector sweeps, and its
#: cap.  The raw update overshoots: on the reference composite grid the
#: interface gain g (``interface_gain``) is negative for all four coupling
#: variants, -0.76 (is1-fine), -1.15 (is1-coarse), -0.70 (is2-fine) and -0.81
#: (is2-coarse), so undamped sweeps oscillate, and diverge for is1-coarse.
#: The new Dirichlet datum is therefore blended with the previous one by
#: theta, and the error contracts by r = 1 - theta + theta g per sweep (0.21,
#: 0.033, 0.23, 0.19 with theta = 0.45).  Where g < 1 - 1/0.45, about -1.22,
#: that r would be negative, and below 1 - 2/0.45 it would exceed 1 in
#: magnitude; there theta = 1 / (1 - g) (``_damping``), which makes r = 0.
#: The Neumann data is never damped: the master always receives the exactly
#: projected slave flux, which keeps every sweep conservative.
DIRICHLET_RELAXATION = 0.45

CONVERGED = "converged"
SINGLE_ITERATION = "single_iteration"
MODE_KINDS = (CONVERGED, SINGLE_ITERATION)


@dataclass(frozen=True)
class SolveMode:
    """How far to drive the corrector within each window."""

    kind: str
    eps: float = 1e-5
    max_iters: int = 100

    def __post_init__(self) -> None:
        if self.kind not in MODE_KINDS:
            raise ConfigurationError(f"unknown solve mode {self.kind!r}")
        if not 0.0 < self.eps < math.inf:
            raise ConfigurationError(f"eps must be positive and finite, got {self.eps!r}")
        if not isinstance(self.max_iters, numbers.Integral) or isinstance(self.max_iters, bool):
            raise ConfigurationError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")

    @classmethod
    def converged(cls, eps: float = 1e-5, max_iters: int = 100) -> "SolveMode":
        return cls(CONVERGED, eps=eps, max_iters=max_iters)

    @classmethod
    def single_iteration(cls) -> "SolveMode":
        return cls(SINGLE_ITERATION)


@dataclass
class SubdomainState:
    """One subdomain's iterate over the current window: its window-start
    values, and from the first sweep on its cell values at its time levels
    plus its interface pressure and flux traces."""

    start: np.ndarray
    cells: np.ndarray = field(init=False)  # fine: (K, n_fine); coarse: (n_coarse,)
    pressure: np.ndarray = field(init=False)  # (levels,): interface face pressure at each own time level
    flux: np.ndarray = field(init=False)  # (levels,): interface flux (left-to-right) at each own time level


@dataclass
class WindowState:
    """Full corrector iterate for one window; ``state.fine`` and
    ``state.coarse`` are also reached by side name.  The data are projected
    traces of the other side, one number per window."""

    fine: SubdomainState
    coarse: SubdomainState


@dataclass(slots=True)
class WindowReport:
    """How one window's corrector went.  ``solve_window`` returns one, and
    ``SolveReport.windows`` builds them as views of a march's columns.  Every
    window runs at least one sweep (the predictor only gives its first
    datum), so the defect is that of the traces of the cells it stores."""

    dirichlet_residuals: array  # |datum - fresh| of each sweep
    conservativity_defect: float
    flux_scale: float
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.dirichlet_residuals)

    @property
    def residual_history(self) -> list[tuple[float, float]]:
        """The (dirichlet, neumann) residual pair of each sweep.  The master
        is solved with the projected slave flux as its Neumann datum, so its
        flux meets that datum exactly and the Neumann residual is 0.0 by
        construction; it is not stored.  Kept for its one reader, the
        benchmark's ``perfbench/worker.py::report_metrics``."""
        return [(r, 0.0) for r in self.dirichlet_residuals]


class SolveReport:
    """How a march's corrector went, window by window, kept as columns: one
    typed array per ``WindowReport`` field and one flat array of every
    sweep's Dirichlet residual, window after window, so a march of any
    length holds the same five containers and no per-window object."""

    __slots__ = ("_iterations", "_residuals", "_defects", "_flux_scales", "_converged", "gain")

    def __init__(self) -> None:
        self._iterations = array("q")
        self._residuals = array("d")
        self._defects = array("d")
        self._flux_scales = array("d")
        self._converged = array("b")
        #: the interface gain g of the march's corrector; None when no window
        #: needed a second sweep, so it was never computed
        self.gain: float | None = None

    def append(self, window: WindowReport) -> None:
        self._iterations.append(window.iterations)
        self._residuals.extend(window.dirichlet_residuals)
        self._defects.append(window.conservativity_defect)
        self._flux_scales.append(window.flux_scale)
        self._converged.append(window.converged)

    @property
    def windows(self) -> list[WindowReport]:
        """A view of each window's report, built on every access."""
        views, start = [], 0
        for iterations, defect, scale, converged in zip(
            self._iterations, self._defects, self._flux_scales, self._converged
        ):
            end = start + iterations
            views.append(WindowReport(self._residuals[start:end], defect, scale, bool(converged)))
            start = end
        return views

    @property
    def damping(self) -> float | None:
        """The damping theta of the Dirichlet datum chosen from the gain g."""
        return None if self.gain is None else _damping(self.gain)

    @property
    def contraction(self) -> float | None:
        """The per-sweep contraction 1 - theta + theta g of the corrector."""
        if self.gain is None:
            return None
        theta = _damping(self.gain)
        return 1.0 - theta + theta * self.gain

    @property
    def iterations(self) -> list[int]:
        return self._iterations.tolist()

    @property
    def mean_iterations(self) -> float:
        return float(np.mean(self._iterations)) if self._iterations else 0.0

    @property
    def max_defect(self) -> float:
        return max(self._defects, default=0.0)

    @property
    def all_converged(self) -> bool:
        return all(self._converged)


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


def _max_abs(v: np.ndarray) -> float:
    """max |v_i| by BLAS ``idamax``: exact unless v holds a NaN, which it may
    skip, so it is no finiteness test."""
    return abs(float(v[_fblas.idamax(v)]))


def solve_linear(system: LinearSystem) -> np.ndarray:
    """Direct solve by the system's own matrix (``matrix.solve``) with a
    residual acceptance check: x is accepted when it is finite and
    ||A x - b||_inf <= SOLVE_RTOL (||A||_inf ||x||_inf + ||b||_inf), and a
    ``SolverError`` is raised otherwise, which names a b that is not finite."""
    x, residual = system.matrix.solve(system.rhs)
    # a NaN or infinity anywhere in x makes x_max non-finite; _max_abs may skip a NaN
    x_max = float(np.abs(x).max())
    bound = SOLVE_RTOL * (system.matrix.norm_inf * x_max + _max_abs(system.rhs))
    if not math.isfinite(x_max) or _max_abs(residual) > max(bound, 1e-300):
        if not np.isfinite(system.rhs).all():
            raise SolverError("direct solve right-hand side is not finite")
        raise SolverError("direct solve residual exceeds the acceptance bound")
    return x


def predictor_step(
    grid: CompositeGrid, fine_start: np.ndarray, coarse_start: np.ndarray, inputs: WindowInputs
) -> np.ndarray:
    """Approximate window-end values on the union mesh from one dt_coarse step."""
    return solve_linear(assemble_composite_step(grid, fine_start, coarse_start, inputs))


def init_window_state(
    grid: CompositeGrid, fine_start: np.ndarray, coarse_start: np.ndarray, variant: Variant, inputs: WindowInputs
) -> tuple[WindowState, float]:
    """The corrector's start: a state that holds only the two window-start
    vectors, and the slave's first Dirichlet datum x0 from the predictor, one
    coarse step on the union mesh.  x0 is the master's projected face
    pressure (the distance-weighted interpolant of the two predictor values
    next to the interface) or interface-cell value, as ``variant`` takes it,
    with the predictor value injected to each of the master's time levels."""
    union = predictor_step(grid, fine_start, coarse_start, inputs)
    fine, coarse, master = grid.sides[FINE], grid.sides[COARSE], grid.sides[variant.master]
    edge = {FINE: union[: grid.n_fine][fine.iface], COARSE: union[grid.n_fine :][coarse.iface]}
    if variant.face_datum:
        value = (coarse.d_own * edge[FINE] + fine.d_own * edge[COARSE]) / grid.d_across
    else:
        value = edge[variant.master]
    state = WindowState(
        SubdomainState(np.asarray(fine_start, dtype=float)), SubdomainState(np.asarray(coarse_start, dtype=float))
    )
    return state, _project(grid, master, inject_coarse_to_fine(value, master.levels))


def _project(grid: CompositeGrid, side: Side, values: np.ndarray) -> float:
    """The other side's datum from a trace of ``side``: the average of the K
    fine values, or the coarse value, which the fine side takes at each of
    its K levels."""
    if side.name == FINE:
        return project_fine_to_coarse(values, grid.ratio)
    return float(values[0])


def _damping(gain: float) -> float:
    """The damping theta of the Dirichlet datum for an interface gain g:
    ``DIRICHLET_RELAXATION`` where g >= 1 - 1 / DIRICHLET_RELAXATION, and
    1 / (1 - g) below that, where it is smaller and makes the contraction
    1 - theta + theta g zero (to rounding)."""
    if gain >= 1.0 - 1.0 / DIRICHLET_RELAXATION:
        return DIRICHLET_RELAXATION
    return 1.0 / (1.0 - gain)


def _dirichlet_data(grid: CompositeGrid, variant: Variant, state: WindowState) -> float:
    """The slave's Dirichlet datum: the projected master face pressure or
    interface-cell value, as ``variant`` takes it."""
    side, master = grid.sides[variant.master], getattr(state, variant.master)
    values = master.pressure if variant.face_datum else master.cells.reshape(side.levels, -1)[:, side.iface]
    return _project(grid, side, values)


def _sweep(
    grid: CompositeGrid,
    state: WindowState,
    variant: Variant,
    datum: float,
    cells: Callable[[str, float], np.ndarray],
) -> None:
    """One Dirichlet-Neumann sweep from the slave's Dirichlet ``datum``: the
    slave is closed with the datum, then the master with the projected slave
    flux as its Neumann datum.  ``cells(name, datum)`` gives a side's cells at
    its time levels, closed as ``variant`` closes it with that datum; they and
    the interface traces they give are stored in ``state``."""

    def close(name: str, datum: float) -> None:
        side, sub = grid.sides[name], getattr(state, name)
        levels = cells(name, datum).reshape(side.levels, -1)
        sub.cells = levels if name == FINE else levels[0]
        sub.flux, sub.pressure = interface_traces(grid, side, variant, datum, levels[:, side.iface])

    close(variant.slave, datum)
    close(variant.master, _project(grid, grid.sides[variant.slave], getattr(state, variant.slave).flux))


def corrector_sweep(
    grid: CompositeGrid, state: WindowState, variant: Variant, inputs: WindowInputs, datum: float
) -> float:
    """One real sweep from the slave's Dirichlet ``datum``: each side is
    marched through its time levels of the window, slave first, and ``state``
    is updated in place.  Returns the master's projected Dirichlet datum
    after the sweep."""

    def marched(name: str, datum: float) -> np.ndarray:
        side = grid.sides[name]
        levels = np.empty((side.levels, side.widths.size))
        prev = getattr(state, name).start
        for k in range(1, side.levels + 1):
            system = assemble_subdomain_step(grid, name, k, prev, variant, datum, inputs)
            levels[k - 1] = solve_linear(system)
            prev = levels[k - 1]
        return levels

    _sweep(grid, state, variant, datum, marched)
    return _dirichlet_data(grid, variant, state)


def interface_gain(
    grid: CompositeGrid, variant: Variant, operators: StepOperators
) -> tuple[float, dict[str, np.ndarray]]:
    """The corrector's interface gain g for ``variant`` on ``grid``, and the
    read-only cells of the sweep it is read from by side name: one sweep from
    a unit datum on the homogeneous problem (zero start, source and boundary
    values), whose master's Dirichlet data is g.  The sweep runs on the first
    call and reuses the factors of ``operators``, which keeps both."""
    if variant not in operators.gains:
        ratio, n_fine, n_coarse = grid.ratio, grid.n_fine, grid.n_coarse
        inputs = WindowInputs(
            1, np.zeros((ratio, n_fine)), np.zeros(n_coarse), np.zeros(ratio), 0.0, 0.0, operators
        )
        state = WindowState(SubdomainState(np.zeros(n_fine)), SubdomainState(np.zeros(n_coarse)))
        gain = corrector_sweep(grid, state, variant, inputs, 1.0)
        for sub in (state.fine, state.coarse):
            sub.cells.setflags(write=False)  # every window of the march reads them
        operators.gains[variant] = (gain, {FINE: state.fine.cells, COARSE: state.coarse.cells})
    return operators.gains[variant]


def solve_window(
    grid: CompositeGrid,
    fine_start: np.ndarray,
    coarse_start: np.ndarray,
    variant: Variant,
    mode: SolveMode,
    inputs: WindowInputs,
) -> tuple[WindowState, WindowReport]:
    """Advance the window of ``inputs`` in the requested mode: a real sweep 1
    from the predictor's datum, then sweeps 2..n on the scalar datum,
    superposed onto sweep 1 at the end.  The window stops converged, at
    ``mode.max_iters`` sweeps, or unconverged where a residual is not below
    the previous one.  Sweeps 2..n raise nothing: the fixed point lies
    between x0 and f1, and so does every datum and fresh datum after them,
    so their residuals are finite whenever sweep 1's is.  A direct solve
    that fails raises a ``SolverError``."""
    state, x0 = init_window_state(grid, fine_start, coarse_start, variant, inputs)
    sweeps = 1 if mode.kind == SINGLE_ITERATION else mode.max_iters
    f1 = fresh = corrector_sweep(grid, state, variant, inputs, x0)
    datum, residuals = x0, array("d", [abs(x0 - f1)])  # |datum - fresh| of each sweep
    converged, stalled = mode.kind == CONVERGED and residuals[0] <= mode.eps, False
    # a window that needs sweep 2 runs sweeps 2..n on the scalar datum, then
    # superposes the unit response; no other window fetches the gain
    if not converged and sweeps > 1:
        gain, unit = interface_gain(grid, variant, inputs.operators)
        theta = _damping(gain)
        while not (converged or stalled) and len(residuals) < sweeps:
            # the relaxed Dirichlet-Neumann update of Funaro, Quarteroni & Zanolli (1988)
            datum = (1.0 - theta) * datum + theta * fresh
            fresh = f1 + gain * (datum - x0)
            residuals.append(abs(datum - fresh))
            converged = mode.kind == CONVERGED and residuals[-1] <= mode.eps
            # the residual shrinks by rho in [0, 0.55) per sweep, so one that
            # does not fall is roundoff of the datum, above eps
            stalled = residuals[-1] >= residuals[-2]
        step = datum - x0
        _sweep(grid, state, variant, datum, lambda name, _: getattr(state, name).cells + step * unit[name])
    coarse_flux = float(state.coarse.flux[0])
    defect = conservativity_defect(state.fine.flux, coarse_flux, grid.dt_fine, grid.dt_coarse)
    scale = max(float(np.max(np.abs(state.fine.flux))), abs(coarse_flux))
    return state, WindowReport(residuals, defect, scale, converged)


def march(
    grid: CompositeGrid, variant: Variant, mode: SolveMode, problem: Problem
) -> tuple[Trajectory, SolveReport]:
    """Solve all windows in order from the initial condition p0(x_K)."""
    n1, n2, ratio, n_windows = grid.n_fine, grid.n_coarse, grid.ratio, grid.n_windows
    fine = np.zeros((ratio * n_windows + 1, n1))
    coarse = np.zeros((n_windows + 1, n2))
    fine[0] = _broadcast_return(problem.p0(grid.centers_fine), (n1,), "p0")
    coarse[0] = _broadcast_return(problem.p0(grid.centers_coarse), (n2,), "p0")
    fine_face_pressure = np.zeros((n_windows, ratio))
    coarse_face_pressure = np.zeros(n_windows)
    fine_flux = np.zeros((n_windows, ratio))
    coarse_flux = np.zeros(n_windows)
    report = SolveReport()
    fine_start, coarse_start = fine[0], coarse[0]
    operators = StepOperators(grid)
    # the problem is evaluated a block of consecutive windows at a time
    for block in _window_blocks(grid):
        for inputs in precompute_window_inputs(grid, block, problem, operators):
            window = inputs.window
            try:
                state, window_report = solve_window(grid, fine_start, coarse_start, variant, mode, inputs)
            except SolverError as exc:
                raise SolverError(f"{variant.name}, window {window} of {n_windows}: {exc}") from exc
            rows = slice((window - 1) * ratio + 1, window * ratio + 1)
            fine[rows] = state.fine.cells
            coarse[window] = state.coarse.cells
            fine_face_pressure[window - 1] = state.fine.pressure
            coarse_face_pressure[window - 1] = state.coarse.pressure[0]
            fine_flux[window - 1] = state.fine.flux
            coarse_flux[window - 1] = state.coarse.flux[0]
            report.append(window_report)
            fine_start, coarse_start = fine[window * ratio], coarse[window]
    if variant in operators.gains:
        report.gain, _ = operators.gains[variant]
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
) -> np.ndarray:
    """Direct solution of the coupled window system (reference path)."""
    inputs = precompute_window_inputs(grid, window, problem)
    return solve_linear(assemble_monolithic_window(grid, fine_start, coarse_start, variant, inputs))
