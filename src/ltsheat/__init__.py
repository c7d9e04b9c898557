"""Conservative local time stepping for the 1D heat equation on a composite
grid: two subdomains with different meshes and time steps, coupled through
projection-based interface conditions and solved by an iterative
predictor-corrector Dirichlet-Neumann method."""

from .errors import ConfigurationError, DimensionError, SolverError
from .grid import CompositeGrid, GridConfig, build_composite_grid
from .projection import (
    conservativity_defect,
    inject_coarse_to_fine,
    interface_pairing,
    project_fine_to_coarse,
)
from .scheme import (
    VARIANTS,
    LinearSystem,
    Problem,
    Variant,
    WindowLayout,
    assemble_composite_step,
    assemble_monolithic_window,
    assemble_subdomain_step,
    manufactured_problem,
    polynomial_problem,
    precompute_window_inputs,
    zero_problem,
)
from .solver import (
    SolveMode,
    SolveReport,
    Trajectory,
    WindowReport,
    corrector_sweep,
    march,
    predictor_step,
    solve_linear,
    solve_window,
    solve_window_monolithic,
)
from .diagnostics import (
    ErrorSeries,
    discrete_norms,
    error_report,
    observed_order,
    subdomain_l2_error,
)

__all__ = [
    "CompositeGrid",
    "ConfigurationError",
    "DimensionError",
    "ErrorSeries",
    "GridConfig",
    "LinearSystem",
    "Problem",
    "SolveMode",
    "SolveReport",
    "SolverError",
    "Trajectory",
    "VARIANTS",
    "Variant",
    "WindowLayout",
    "WindowReport",
    "assemble_composite_step",
    "assemble_monolithic_window",
    "assemble_subdomain_step",
    "build_composite_grid",
    "conservativity_defect",
    "corrector_sweep",
    "discrete_norms",
    "error_report",
    "inject_coarse_to_fine",
    "interface_pairing",
    "manufactured_problem",
    "march",
    "observed_order",
    "polynomial_problem",
    "precompute_window_inputs",
    "predictor_step",
    "project_fine_to_coarse",
    "solve_linear",
    "solve_window",
    "solve_window_monolithic",
    "subdomain_l2_error",
    "zero_problem",
]

__version__ = "0.1.0"
