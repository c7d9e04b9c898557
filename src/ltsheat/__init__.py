"""Conservative local time stepping for the 1D heat equation on a composite
grid: two subdomains with different meshes and time steps, coupled through
projection-based interface conditions and solved by an iterative
predictor-corrector Dirichlet-Neumann method.

The package exports what a caller of the method uses.  The types that
``march`` and ``error_report`` return, and the per-step functions, are
imported from their submodules (``ltsheat.solver``, ``ltsheat.diagnostics``,
``ltsheat.scheme``)."""

from .errors import ConfigurationError, DimensionError, SolverError
from .grid import GridConfig, build_composite_grid
from .projection import inject_coarse_to_fine, interface_pairing, project_fine_to_coarse
from .scheme import (
    VARIANTS,
    Problem,
    Variant,
    WindowLayout,
    assemble_monolithic_window,
    manufactured_problem,
    precompute_window_inputs,
    zero_problem,
)
from .solver import SolveMode, march, solve_linear, solve_window, solve_window_monolithic
from .diagnostics import discrete_norms, error_report, observed_order, subdomain_l2_error

__all__ = [
    "ConfigurationError",
    "DimensionError",
    "GridConfig",
    "Problem",
    "SolveMode",
    "SolverError",
    "VARIANTS",
    "Variant",
    "WindowLayout",
    "assemble_monolithic_window",
    "build_composite_grid",
    "discrete_norms",
    "error_report",
    "inject_coarse_to_fine",
    "interface_pairing",
    "manufactured_problem",
    "march",
    "observed_order",
    "precompute_window_inputs",
    "project_fine_to_coarse",
    "solve_linear",
    "solve_window",
    "solve_window_monolithic",
    "subdomain_l2_error",
    "zero_problem",
]

__version__ = "0.1.0"
