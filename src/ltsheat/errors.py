"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A run or grid configuration violates a precondition."""


class DimensionError(ValueError):
    """An array or linear system of the wrong shape or size, or a window,
    time level or subdomain outside its range."""


class SolverError(RuntimeError):
    """A direct linear solve failed (LAPACK or SuperLU reported a failed
    factorization or solve, or the residual check rejected the solution),
    or a corrector sweep's Dirichlet residual was not finite."""
