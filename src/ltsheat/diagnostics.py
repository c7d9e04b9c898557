"""Discrete norms, conservativity defect, error reporting and observed-order
estimation.

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
from .projection import conservativity_defect  # noqa: F401  (part of this module's interface)
from .scheme import Problem
from .solver import Trajectory


def discrete_norms(
    field: np.ndarray,
    widths: np.ndarray,
    boundary_values: tuple[float | None, float | None] = (None, None),
    interface_values: tuple[float | None, float | None] = (None, None),
) -> tuple[float, float]:
    """(L2 norm, H1 seminorm) of a cell field on one subdomain.

    ``boundary_values`` holds Dirichlet face data and ``interface_values``
    interface face pressures for the (left, right) ends; ``None`` means the
    end carries no face term.  Each given end value v adds
    (v - p_end)^2 / (h_end / 2); interior faces add (dp)^2 / d(x_K, x_K').
    """
    field = np.asarray(field, dtype=float)
    widths = np.asarray(widths, dtype=float)
    if field.shape != widths.shape:
        raise DimensionError(f"field shape {field.shape} != widths shape {widths.shape}")
    l2_sq = float(np.sum(field * field * widths))
    h1_sq = 0.0
    if field.size > 1:
        dist = 0.5 * (widths[:-1] + widths[1:])
        diff = np.diff(field)
        h1_sq += float(np.sum(diff * diff / dist))
    for end, value in ((0, boundary_values[0]), (-1, boundary_values[1])):
        if value is not None:
            h1_sq += (field[end] - value) ** 2 / (0.5 * widths[end])
    for end, value in ((0, interface_values[0]), (-1, interface_values[1])):
        if value is not None:
            h1_sq += (field[end] - value) ** 2 / (0.5 * widths[end])
    return math.sqrt(l2_sq), math.sqrt(h1_sq)


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


def _level_errors(
    trajectory: Trajectory, problem: Problem, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """(fine error, coarse error) fields at the end of ``window`` (0 = initial),
    against the exact solution at the window-end time."""
    grid = trajectory.grid
    exact = problem.exact_solution
    t = window * grid.dt_coarse
    e_f = trajectory.fine[window * grid.ratio] - np.asarray(exact(grid.centers_fine, t), dtype=float)
    e_c = trajectory.coarse[window] - np.asarray(exact(grid.centers_coarse, t), dtype=float)
    return e_f, e_c


def _fine_level_h1(trajectory: Trajectory, problem: Problem, window: int, k: int) -> float:
    grid = trajectory.grid
    exact = problem.exact_solution
    t = grid.fine_midtime(window, k)
    e = trajectory.fine[trajectory.fine_level(window, k)] - np.asarray(
        exact(grid.centers_fine, t), dtype=float
    )
    e_bnd = float(problem.g_lo(t)) - float(exact(grid.domain_lo, t))
    e_iface = trajectory.fine_face_pressure[window - 1, k - 1] - float(
        exact(grid.interface_x, t)
    )
    _, h1 = discrete_norms(
        e, grid.widths_fine, boundary_values=(e_bnd, None), interface_values=(None, e_iface)
    )
    return h1


def _coarse_level_h1(trajectory: Trajectory, problem: Problem, window: int) -> float:
    grid = trajectory.grid
    exact = problem.exact_solution
    t = grid.coarse_midtime(window)
    e = trajectory.coarse[window] - np.asarray(exact(grid.centers_coarse, t), dtype=float)
    e_bnd = float(problem.g_hi(t)) - float(exact(grid.domain_hi, t))
    e_iface = trajectory.coarse_face_pressure[window - 1] - float(exact(grid.interface_x, t))
    _, h1 = discrete_norms(
        e, grid.widths_coarse, boundary_values=(None, e_bnd), interface_values=(e_iface, None)
    )
    return h1


def error_report(trajectory: Trajectory, problem: Problem) -> ErrorSeries:
    """Error series of a trajectory; the problem must carry an exact solution."""
    if problem.exact_solution is None:
        raise ValueError("error_report needs a problem with an exact solution")
    grid = trajectory.grid
    n_windows = grid.n_windows

    l2_by_window = np.zeros(n_windows + 1)
    window_times = np.zeros(n_windows + 1)
    for n in range(n_windows + 1):
        e_f, e_c = _level_errors(trajectory, problem, n)
        l2_sq = float(np.sum(e_f * e_f * grid.widths_fine)) + float(
            np.sum(e_c * e_c * grid.widths_coarse)
        )
        l2_by_window[n] = math.sqrt(l2_sq)
        window_times[n] = n * grid.dt_coarse

    e_f, e_c = _level_errors(trajectory, problem, n_windows)
    space_error = np.concatenate([e_f, e_c])

    h1_final_sq = (
        _fine_level_h1(trajectory, problem, n_windows, grid.ratio) ** 2
        + _coarse_level_h1(trajectory, problem, n_windows) ** 2
    )

    h1_global_sq = 0.0
    for window in range(1, n_windows + 1):
        for k in range(1, grid.ratio + 1):
            h1_global_sq += grid.dt_fine * _fine_level_h1(trajectory, problem, window, k) ** 2
        h1_global_sq += grid.dt_coarse * _coarse_level_h1(trajectory, problem, window) ** 2

    return ErrorSeries(
        x=np.concatenate([grid.centers_fine, grid.centers_coarse]),
        space_error=space_error,
        window_times=window_times,
        l2_by_window=l2_by_window,
        l2_final=float(l2_by_window[-1]),
        h1_final=math.sqrt(h1_final_sq),
        h1_global=math.sqrt(h1_global_sq),
    )


def subdomain_l2_error(trajectory: Trajectory, problem: Problem, subdomain: str) -> float:
    """L2 error over one subdomain at the final time."""
    if problem.exact_solution is None:
        raise ValueError("subdomain_l2_error needs a problem with an exact solution")
    e_f, e_c = _level_errors(trajectory, problem, trajectory.grid.n_windows)
    if subdomain == "fine":
        return math.sqrt(float(np.sum(e_f * e_f * trajectory.grid.widths_fine)))
    if subdomain == "coarse":
        return math.sqrt(float(np.sum(e_c * e_c * trajectory.grid.widths_coarse)))
    raise DimensionError(f"subdomain must be 'fine' or 'coarse', got {subdomain!r}")


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
