"""Discrete norms, error reporting and observed-order estimation.

Errors are measured against point values of the exact solution at the cell
centers: L2 errors at the window-end times, H1 seminorm errors at the time
slab midpoints, with interface and boundary face terms entering the discrete
H1 seminorm through half-cell difference quotients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .grid import Side
from .projection import COARSE, FINE
from .scheme import Problem, _broadcast_return, _window_blocks
from .solver import Trajectory


def discrete_norms(
    field: np.ndarray,
    widths: np.ndarray,
    boundary_values: tuple = (None, None),
    interface_values: tuple = (None, None),
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(L2 norm, H1 seminorm) of a cell field on one subdomain, or of each
    field in a stack of shape (..., n), giving two arrays of shape (...).

    ``boundary_values`` holds Dirichlet face data and ``interface_values``
    interface face pressures for the (left, right) ends: one value, one value
    per field, or ``None`` when the end carries no face term.  Each given end
    value v adds (v - p_end)^2 / (h_end / 2); interior faces add
    (dp)^2 / d(x_K, x_K').
    """
    field = np.asarray(field, dtype=float)
    widths = np.asarray(widths, dtype=float)
    if widths.ndim != 1 or field.shape[-1:] != widths.shape:
        raise DimensionError(f"field shape {field.shape} does not end in widths shape {widths.shape}")
    l2 = np.sqrt(np.sum(field * field * widths, axis=-1))
    return l2, _h1_seminorm(field, widths, boundary_values, interface_values)


def _h1_seminorm(field: np.ndarray, widths: np.ndarray, boundary_values: tuple, interface_values: tuple):
    """The H1 seminorm of ``discrete_norms``, of float arrays it has checked."""
    # squared and divided in place: a stack of fields holds one difference array
    diff = np.diff(field)
    diff *= diff
    diff /= 0.5 * (widths[:-1] + widths[1:])
    h1_sq = np.sum(diff, axis=-1)
    for end, value in zip((0, -1, 0, -1), (*boundary_values, *interface_values)):
        if value is not None:
            # C pow, as a scalar's ``** 2``: an array's ``** 2`` multiplies, which
            # rounds differently about once in 1000 and could move recorded errors
            h1_sq = h1_sq + np.float_power(field[..., end] - value, 2) / (0.5 * widths[end])
    return np.sqrt(h1_sq)


@dataclass(frozen=True)
class ErrorSeries:
    """Errors of a trajectory against the exact solution.

    L2 quantities compare the window-end states against the exact solution at
    the window-end times (the quantities the error curves plot); the H1
    seminorms compare against slab-midpoint values, consistent with the
    piecewise-constant-in-time solution representation.
    """

    x: np.ndarray  # cell centers, fine then coarse
    space_error: np.ndarray  # signed per-cell error at t_end
    window_times: np.ndarray  # (N2 + 1,), window-end times (0 first)
    l2_by_window: np.ndarray  # (N2 + 1,) global spatial L2 error norms
    l2_final: float  # == l2_by_window[-1]
    h1_final: float
    h1_global: float  # sqrt(sum_i sum_n dt_i * h1(level)^2), levels >= 1


def _exact(problem: Problem, x, t) -> np.ndarray:
    """The exact solution at ``x`` and ``t``, as an array of their broadcast shape."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(t))
    return _broadcast_return(problem.exact_solution(x, t), shape, "exact_solution")


def _end_errors(trajectory: Trajectory, problem: Problem, side: Side, windows: np.ndarray) -> np.ndarray:
    """Errors of one side's cells at the end of each of ``windows`` (0 =
    initial), one row per window, against the exact solution at the
    window-end times."""
    cells = getattr(trajectory, side.name)[windows * side.levels]
    return cells - _exact(problem, side.centers, (windows * trajectory.grid.dt_coarse)[:, None])


def _level_h1(trajectory: Trajectory, problem: Problem, side: Side, block: range) -> np.ndarray:
    """H1 seminorm errors of one side at each of its time levels in the
    windows of ``block``, in time order, against the exact solution at the
    slab midpoints."""
    grid = trajectory.grid
    windows = np.arange(block.start, block.stop)
    if side.name == FINE:
        t = grid.fine_midtime(windows[:, None], np.arange(1, side.levels + 1)).reshape(-1)
        x_bnd, g, face = grid.domain_lo, "g_lo", trajectory.fine_face_pressure[windows - 1].reshape(-1)
    else:
        t = grid.coarse_midtime(windows)
        x_bnd, g, face = grid.domain_hi, "g_hi", trajectory.coarse_face_pressure[windows - 1]
    rows = slice((block.start - 1) * side.levels + 1, (block.stop - 1) * side.levels + 1)
    cells = getattr(trajectory, side.name)[rows]
    # the exterior and interface cell indices (0 or -1) pick the (left, right) end
    boundary, interface = [None, None], [None, None]
    boundary[side.exterior] = _broadcast_return(getattr(problem, g)(t), t.shape, g) - _exact(problem, x_bnd, t)
    interface[side.iface] = face - _exact(problem, grid.interface_x, t)
    return _h1_seminorm(cells - _exact(problem, side.centers, t[:, None]), side.widths, boundary, interface)


def error_report(trajectory: Trajectory, problem: Problem) -> ErrorSeries:
    """Error series of a trajectory; the problem must carry an exact solution.

    The exact solution is evaluated once per side on each block of
    consecutive windows; the global H1 error is still summed level by level
    in time order (per window: fine levels k = 1..K, then the coarse level)."""
    if problem.exact_solution is None:
        raise ValueError("error_report needs a problem with an exact solution")
    grid = trajectory.grid
    sides = (grid.sides[FINE], grid.sides[COARSE])

    window_times = np.arange(grid.n_windows + 1) * grid.dt_coarse
    l2_by_window = np.zeros(grid.n_windows + 1)
    h1_global_sq = 0.0
    for block in _window_blocks(grid):
        ends = np.arange(0 if block.start == 1 else block.start, block.stop)  # window 0 is the initial state
        end_errors = [_end_errors(trajectory, problem, side, ends) for side in sides]
        fine_sq, coarse_sq = (np.sum(e * e * side.widths, axis=-1) for e, side in zip(end_errors, sides))
        l2_by_window[ends] = np.sqrt(fine_sq + coarse_sq)
        h1 = {side.name: _level_h1(trajectory, problem, side, block).tolist() for side in sides}
        for i in range(len(block)):
            for side in sides:
                for value in h1[side.name][i * side.levels : (i + 1) * side.levels]:
                    h1_global_sq += side.dt * value ** 2

    return ErrorSeries(
        x=np.concatenate([grid.centers_fine, grid.centers_coarse]),
        space_error=np.concatenate([e[-1] for e in end_errors]),  # the last window's end
        window_times=window_times,
        l2_by_window=l2_by_window,
        l2_final=float(l2_by_window[-1]),
        h1_final=math.sqrt(h1[FINE][-1] ** 2 + h1[COARSE][-1] ** 2),  # the last window's last levels
        h1_global=math.sqrt(h1_global_sq),
    )


def subdomain_l2_error(trajectory: Trajectory, problem: Problem, subdomain: str) -> float:
    """L2 error over one subdomain at the final time."""
    if problem.exact_solution is None:
        raise ValueError("subdomain_l2_error needs a problem with an exact solution")
    side = trajectory.grid.sides.get(subdomain)
    if side is None:
        raise DimensionError(f"subdomain must be 'fine' or 'coarse', got {subdomain!r}")
    e = _end_errors(trajectory, problem, side, np.array([trajectory.grid.n_windows]))[0]
    return math.sqrt(float(np.sum(e * e * side.widths)))


def observed_order(errors: list[tuple[float, float, float]]) -> list[float | None]:
    """Order estimates from a refinement ladder of (h, dt, error) triples.

    Consecutive levels must refine h and dt by one common factor r; the k-th
    estimate is log(e_k / e_{k+1}) / log(r).  A zero error on either side
    makes the estimate undefined (None).
    """
    if len(errors) < 2:
        return []
    h0, dt0, _ = errors[0]
    h1, dt1, _ = errors[1]
    r = h0 / h1
    if r <= 1.0:
        raise ConfigurationError("levels must be ordered from coarsest to finest")
    orders: list[float | None] = []
    for (h_a, dt_a, e_a), (h_b, dt_b, e_b) in zip(errors, errors[1:]):
        for ratio, name in ((h_a / h_b, "h"), (dt_a / dt_b, "dt")):
            if abs(ratio - r) > 1e-9 * r:
                raise ConfigurationError(
                    f"{name} refinement factor {ratio} differs from the ladder factor {r}"
                )
        if e_a == 0.0 or e_b == 0.0:
            orders.append(None)
        else:
            orders.append(math.log(e_a / e_b) / math.log(r))
    return orders
