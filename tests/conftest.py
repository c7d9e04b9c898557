from __future__ import annotations

import functools

import numpy as np
import pytest

from ltsheat import GridConfig, SolveMode, build_composite_grid, manufactured_problem, march
from ltsheat.scheme import Variant

#: the reference composite grid: fine [0, 0.25] dx=0.01 dt=0.002,
#: coarse [0.25, 1] dx=0.05 dt=0.02, horizon 0.1
BUMP_CONFIG = GridConfig(
    domain_lo=0.0,
    domain_hi=1.0,
    interface_x=0.25,
    n_cells_fine=25,
    n_cells_coarse=15,
    dt_fine=0.002,
    dt_coarse=0.02,
    t_end=0.1,
)


def tridiagonal_matrix(system):
    """The scipy matrix of a banded ``LinearSystem``."""
    import scipy.sparse

    lower, diag, upper = system.bands
    return scipy.sparse.diags([lower[1:], diag, upper[:-1]], offsets=[-1, 0, 1], format="csr")


@pytest.fixture(scope="session")
def bump_grid():
    return build_composite_grid(BUMP_CONFIG)


@pytest.fixture(scope="session")
def bump_problem():
    return manufactured_problem()


@functools.lru_cache(maxsize=None)
def _bump_run(variant_name: str, mode_kind: str, dt_fine: float, dt_coarse: float):
    from dataclasses import replace

    grid = build_composite_grid(replace(BUMP_CONFIG, dt_fine=dt_fine, dt_coarse=dt_coarse))
    problem = manufactured_problem()
    if mode_kind == "converged":
        mode = SolveMode.converged(1e-5, 100)
    elif mode_kind == "single_iteration":
        mode = SolveMode.single_iteration()
    else:
        mode = SolveMode.predictor_only()
    trajectory, report = march(grid, Variant.parse(variant_name), mode, problem)
    return grid, trajectory, report


@pytest.fixture(scope="session")
def bump_run():
    """Cached runs on the reference grid: bump_run(variant, mode, dts...)."""

    def run(variant_name: str, mode_kind: str = "converged", dt_fine: float = 0.002, dt_coarse: float = 0.02):
        return _bump_run(variant_name, mode_kind, dt_fine, dt_coarse)

    return run


def random_smooth_problem(rng: np.random.Generator):
    """Smooth random source and initial value with homogeneous Dirichlet data."""
    from ltsheat import Problem

    cs = rng.uniform(-1.0, 1.0, size=4)
    ci = rng.uniform(-1.0, 1.0, size=4)

    def source(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return (cs[0] + cs[1] * np.sin(np.pi * x) + cs[2] * x * x + cs[3] * np.cos(3.0 * x)) * (
            1.0 + 0.5 * np.sin(3.0 * t)
        )

    def p0(x):
        x = np.asarray(x, dtype=float)
        return sum(ci[j] * np.sin((j + 1) * np.pi * x) for j in range(4))

    def zero_t(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return Problem(source=source, p0=p0, g_lo=zero_t, g_hi=zero_t, exact_solution=None)
