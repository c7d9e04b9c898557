"""Window solves for the composite grid: direct linear algebra, the coarse
predictor, and the multiplicative Dirichlet-Neumann corrector.

Each coarse window is solved by (1) a predictor: one implicit step of size
dt_coarse on the union mesh, and (2) corrector sweeps alternating subdomain
solves: the slave subdomain receives the master's pressure quantity as
Dirichlet data, then the master receives the slave's interface flux as
Neumann data.  A side's interface traces hold one value per own time level
(K fine, 1 coarse), and the piecewise constant projections in time make
every datum one number per window: the average of K fine values for the
coarse side, a coarse value taken at each of the K levels for the fine
side.  Because a sweep ends with the Neumann-side solve and both projections
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
sweeps 2..n run that recursion with the same relaxation and stopping test.
A sweep's residual is |datum - fresh|, fresh being the master's projected
Dirichlet datum after it; the master's flux is its Neumann datum, so there
is no Neumann residual.  A window that ran more sweeps then goes once more
through the sweep body with sweep 1's cells plus (x - x0) times the
unit-datum sweep's cells, which keeps it conservative.  The unit-datum
sweep (``interface_gain``) runs once per grid and variant, the first time a
window needs a second sweep.
"""

from __future__ import annotations

import math
import numbers
from array import array
from collections.abc import Callable
from dataclasses import dataclass

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
    _scipy_extension,
    _window_blocks,
    assemble_composite_step,
    assemble_monolithic_window,
    assemble_subdomain_step,
    interface_traces,
    precompute_window_inputs,
)

#: direct-solve residual acceptance factor
SOLVE_RTOL = 1e-10

#: fixed damping of the Dirichlet-trace update between corrector sweeps.  The
#: raw update overshoots: on the reference composite grid the interface gain g
#: (``interface_gain``) is negative for all four coupling variants, -0.76
#: (is1-fine), -1.15 (is1-coarse), -0.70 (is2-fine) and -0.81 (is2-coarse), so
#: undamped sweeps oscillate, and diverge for is1-coarse.  The new Dirichlet
#: datum is therefore blended with the previous one, and the error contracts
#: by r = 1 - theta + theta g per sweep (0.21, 0.033, 0.23, 0.19).  The
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

    @classmethod
    def predictor_only(cls) -> "SolveMode":
        return cls(PREDICTOR_ONLY)


@dataclass
class SubdomainState:
    """One subdomain's iterate over the current window: its window-start
    values, cell values at its time levels plus its interface pressure and
    flux traces."""

    start: np.ndarray
    cells: np.ndarray  # fine: (K, n_fine); coarse: (n_coarse,)
    pressure: np.ndarray  # (levels,): interface face pressure at each own time level
    flux: np.ndarray  # (levels,): interface flux (left-to-right) at each own time level


@dataclass
class WindowState:
    """Full corrector iterate for one window; ``state.fine`` and
    ``state.coarse`` are also reached by side name.  The data are projected
    traces of the other side, one number per window."""

    fine: SubdomainState
    coarse: SubdomainState
    dirichlet_used: float | None = None  # datum of the latest slave solve


@dataclass(slots=True)
class WindowReport:
    """How one window's corrector went.  ``solve_window`` returns one, and
    ``SolveReport.windows`` builds them as views of a march's columns.  In
    predictor-only mode no sweep runs, and the defect compares the traces the
    predictor injects into both sides (zero to roundoff), not balances that
    the stored cells satisfy."""

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

    __slots__ = ("_iterations", "_residuals", "_defects", "_flux_scales", "_converged", "contraction")

    def __init__(self) -> None:
        self._iterations = array("q")
        self._residuals = array("d")
        self._defects = array("d")
        self._flux_scales = array("d")
        self._converged = array("b")
        #: per-sweep contraction 1 - theta + theta g of the march's corrector;
        #: None when no window needed a second sweep, so the gain g was never
        #: computed
        self.contraction: float | None = None

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
    """Direct solve (tridiagonal or sparse LU, partial pivoting) with a
    residual acceptance check: x is accepted when it is finite and
    ||A x - b||_inf <= SOLVE_RTOL (||A||_inf ||x||_inf + ||b||_inf), and a
    ``SolverError`` is raised otherwise.  A tridiagonal system brings its
    matrix's factors and band storage, and its residual is one BLAS banded
    product at every order.  A ``CSC`` one is factored here by SuperLU's
    ``gstrf``, the factorization ``scipy.sparse.linalg.splu`` calls, from
    scipy's ``_superlu`` extension alone, loaded on first use; its residual
    and row sums are formed from the CSC arrays."""
    lu = system.lu
    if lu is not None:
        x, residual = lu.solve(system.rhs)
        norm_a = lu.norm_inf
    else:
        data, rowind, colptr = system.sparse
        n = system.n
        superlu = _scipy_extension("scipy.sparse.linalg._dsolve._superlu")
        # minimum-degree ordering on A^T + A: the window system is a chain of
        # tridiagonal level blocks plus a few coupling rows and columns, which
        # it factors with less fill and time than the default COLAMD
        try:
            lu = superlu.gstrf(
                n, data.size, data, rowind, colptr, csc_construct_func=None, options={"ColPerm": "MMD_AT_PLUS_A"}
            )
            x = lu.solve(system.rhs)
        except RuntimeError as exc:
            raise SolverError(f"sparse LU failed: {exc}") from exc
        products = data * x[np.repeat(np.arange(n), np.diff(colptr))]
        residual = np.bincount(rowind, weights=products, minlength=n) - system.rhs
        norm_a = float(np.bincount(rowind, weights=np.abs(data), minlength=n).max())
    # a NaN or infinity anywhere in x makes x_max non-finite; _max_abs may skip a NaN
    x_max = float(np.abs(x).max())
    bound = SOLVE_RTOL * (norm_a * x_max + _max_abs(system.rhs))
    if not math.isfinite(x_max) or _max_abs(residual) > max(bound, 1e-300):
        raise SolverError("direct solve residual exceeds the acceptance bound")
    return x


def predictor_step(
    grid: CompositeGrid, fine_start: np.ndarray, coarse_start: np.ndarray, inputs: WindowInputs
) -> np.ndarray:
    """Approximate window-end values on the union mesh from one dt_coarse step."""
    return solve_linear(assemble_composite_step(grid, fine_start, coarse_start, inputs))


def init_window_state(
    grid: CompositeGrid, fine_start: np.ndarray, coarse_start: np.ndarray, inputs: WindowInputs
) -> WindowState:
    """Initialize the corrector iterate from the predictor, one coarse step:
    fine values are replicated across sub-levels, the coarse interface values
    are injected to the fine side's levels, and the interface pressure is the
    distance-weighted interpolant of the two adjacent predictor values."""
    union = predictor_step(grid, fine_start, coarse_start, inputs)
    fine, coarse = grid.sides[FINE], grid.sides[COARSE]
    pf, pc = union[: grid.n_fine], union[grid.n_fine :]
    edge_f, edge_c = pf[fine.iface], pc[coarse.iface]
    u_iface = (edge_c - edge_f) / grid.d_across
    p_iface = (coarse.d_own * edge_f + fine.d_own * edge_c) / grid.d_across
    ratio = grid.ratio
    return WindowState(
        fine=SubdomainState(
            start=np.asarray(fine_start, dtype=float),
            cells=np.tile(pf, (ratio, 1)),
            pressure=inject_coarse_to_fine(p_iface, ratio),
            flux=inject_coarse_to_fine(u_iface, ratio),
        ),
        coarse=SubdomainState(
            start=np.asarray(coarse_start, dtype=float),
            cells=pc.copy(),
            pressure=np.array([p_iface]),
            flux=np.array([u_iface]),
        ),
    )


def _project(grid: CompositeGrid, side: Side, values: np.ndarray) -> float:
    """The other side's datum from a trace of ``side``: the average of the K
    fine values, or the coarse value, which the fine side takes at each of
    its K levels."""
    if side.name == FINE:
        return project_fine_to_coarse(values, grid.ratio)
    return float(values[0])


def _relax(used: float, fresh: float) -> float:
    """The damped Dirichlet datum of the next sweep: the relaxed
    Dirichlet-Neumann update of Funaro, Quarteroni & Zanolli (SIAM J. Numer.
    Anal. 25, 1988)."""
    theta = DIRICHLET_RELAXATION
    return (1.0 - theta) * used + theta * fresh


def _contraction(gain: float) -> float:
    """The per-sweep contraction 1 - theta + theta g of the damped datum."""
    return 1.0 - DIRICHLET_RELAXATION + DIRICHLET_RELAXATION * gain


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
        sub.cells = levels.reshape(sub.cells.shape)
        sub.flux, sub.pressure = interface_traces(grid, side, variant, datum, levels[:, side.iface])

    state.dirichlet_used = datum
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
) -> tuple[float, WindowState]:
    """The corrector's interface gain g for ``variant`` on ``grid``, and the
    window state it is read from: one sweep from a unit datum on the
    homogeneous problem (zero start, source and boundary values), whose
    master's Dirichlet data is g.  The sweep runs on the first call and
    reuses the factors of ``operators``, which keeps both."""
    if variant not in operators.gains:
        ratio, n_fine, n_coarse = grid.ratio, grid.n_fine, grid.n_coarse
        inputs = WindowInputs(
            1, np.zeros((ratio, n_fine)), np.zeros(n_coarse), np.zeros(ratio), 0.0, 0.0, operators
        )
        state = WindowState(
            fine=SubdomainState(np.zeros(n_fine), np.zeros((ratio, n_fine)), np.zeros(ratio), np.zeros(ratio)),
            coarse=SubdomainState(np.zeros(n_coarse), np.zeros(n_coarse), np.zeros(1), np.zeros(1)),
        )
        gain = corrector_sweep(grid, state, variant, inputs, 1.0)
        for sub in (state.fine, state.coarse):
            sub.cells.setflags(write=False)  # every window of the march reads them
        operators.gains[variant] = (gain, state)
    return operators.gains[variant]


def solve_window(
    grid: CompositeGrid,
    fine_start: np.ndarray,
    coarse_start: np.ndarray,
    variant: Variant,
    mode: SolveMode,
    inputs: WindowInputs,
) -> tuple[WindowState, WindowReport]:
    """Advance the window of ``inputs`` in the requested mode: a real sweep 1,
    then sweeps 2..n on the scalar datum, superposed onto sweep 1 at the end.
    A residual that is not finite raises a ``SolverError``."""
    state = init_window_state(grid, fine_start, coarse_start, inputs)
    sweeps = {PREDICTOR_ONLY: 0, SINGLE_ITERATION: 1}.get(mode.kind, mode.max_iters)
    residuals = array("d")  # |datum - fresh| of each sweep
    converged = False
    while not converged and len(residuals) < sweeps:
        if not residuals:
            x0 = datum = _dirichlet_data(grid, variant, state)
            f1 = fresh = corrector_sweep(grid, state, variant, inputs, datum)
        else:
            gain, unit = interface_gain(grid, variant, inputs.operators)
            datum = _relax(datum, fresh)
            fresh = f1 + gain * (datum - x0)
        residuals.append(abs(datum - fresh))
        if not math.isfinite(residuals[-1]):
            predicted = f"{_contraction(gain):.3g}" if len(residuals) > 1 else "n/a"
            raise SolverError(
                f"Dirichlet residual is not finite after {len(residuals)} sweeps (predicted contraction {predicted})"
            )
        converged = mode.kind == CONVERGED and residuals[-1] <= mode.eps
    if len(residuals) > 1:
        step = datum - x0
        _sweep(
            grid, state, variant, datum, lambda name, _: getattr(state, name).cells + step * getattr(unit, name).cells
        )
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
    # the problem is evaluated once per block of consecutive windows
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
        gain, _ = operators.gains[variant]
        report.contraction = _contraction(gain)
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
