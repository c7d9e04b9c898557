"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A run or grid configuration violates a precondition."""


class DimensionError(ValueError):
    """An array or linear system of the wrong shape or size, or a window,
    time level or subdomain outside its range."""


class SolverError(RuntimeError):
    """A direct linear solve failed (LAPACK reported a failed factorization
    or solve, or the residual check rejected the solution, naming a
    right-hand side that is not finite), or a run's summary values were not
    finite.  The corrector's sweeps 2..n raise none: they contract, and stay
    finite whenever sweep 1 is."""
