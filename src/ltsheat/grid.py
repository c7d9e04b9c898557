"""Composite space-time grid: two 1D cell-centered meshes with a shared
interface face and a nested pair of time steps.

The fine subdomain lies left of the interface and carries the small time
step ``dt_fine``; the coarse subdomain lies right of it with ``dt_coarse``.
``dt_coarse`` must be an integer multiple K of ``dt_fine``, and the horizon
``t_end`` an integer multiple of ``dt_coarse``, so the simulation splits
into coarse windows of K fine sub-steps each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .projection import COARSE, FINE

#: relative tolerance for the integer-ratio checks (K and window count)
RATIO_RTOL = 1e-12


def _as_integer_ratio(value: float, name: str) -> int:
    """Round ``value`` to the nearest integer, rejecting non-integer ratios
    (an infinite or nan ratio among them)."""
    n = int(round(value)) if np.isfinite(value) else 0
    if n < 1 or abs(value - n) > RATIO_RTOL * max(1.0, abs(value)):
        raise ConfigurationError(
            f"{name} = {value!r} is not a positive integer (relative tolerance {RATIO_RTOL})"
        )
    return n


@dataclass(frozen=True)
class GridConfig:
    """User-facing description of the composite grid.

    Cell widths default to uniform per subdomain; explicit width lists may
    be given for nonuniform meshes and must tile the subdomain exactly.
    """

    domain_lo: float
    domain_hi: float
    interface_x: float
    n_cells_fine: int
    n_cells_coarse: int
    dt_fine: float
    dt_coarse: float
    t_end: float
    widths_fine: tuple[float, ...] | None = None
    widths_coarse: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for end, name in ((self.domain_lo, "domain_lo"), (self.domain_hi, "domain_hi")):
            if not np.isfinite(end):
                raise ConfigurationError(f"{name} must be finite, got {end!r}")
        if not (self.domain_lo < self.interface_x < self.domain_hi):
            raise ConfigurationError(
                f"interface_x must lie strictly inside the domain: "
                f"{self.domain_lo} < {self.interface_x} < {self.domain_hi} fails"
            )
        if self.n_cells_fine < 1 or self.n_cells_coarse < 1:
            raise ConfigurationError("each subdomain needs at least one cell")
        for dt, name in ((self.dt_fine, "dt_fine"), (self.dt_coarse, "dt_coarse")):
            if not (dt > 0.0 and np.isfinite(dt)):
                raise ConfigurationError(f"{name} must be positive and finite, got {dt!r}")
        if not (self.t_end > 0.0 and np.isfinite(self.t_end)):
            raise ConfigurationError(f"t_end must be positive and finite, got {self.t_end!r}")
        for widths, n, name in (
            (self.widths_fine, self.n_cells_fine, "widths_fine"),
            (self.widths_coarse, self.n_cells_coarse, "widths_coarse"),
        ):
            if widths is not None:
                if len(widths) != n:
                    raise ConfigurationError(f"{name} has {len(widths)} entries, expected {n}")
                if not all(w > 0.0 and np.isfinite(w) for w in widths):
                    raise ConfigurationError(f"{name} entries must be positive and finite")


@dataclass(frozen=True)
class Side:
    """One subdomain as its interface solve sees it.  The fine side lies left
    of the interface and takes K time levels per window, the coarse side lies
    right of it and takes one; otherwise the two are the same problem."""

    name: str  # FINE or COARSE
    widths: np.ndarray
    centers: np.ndarray
    dt: float
    levels: int  # time levels per coarse window
    iface: int  # index of the cell at the interface
    exterior: int  # index of the cell at the exterior Dirichlet boundary
    sign: float  # sign of the left-to-right interface flux in the iface cell's balance
    d_own: float = field(init=False)  # distance from the interface to the iface cell's center
    mass: np.ndarray = field(init=False)  # widths / dt, the mass term of every step

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_own", 0.5 * float(self.widths[self.iface]))
        mass = self.widths / self.dt
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)


@dataclass(frozen=True)
class CompositeGrid:
    """Built composite grid: geometry per subdomain plus the time structure.

    ``d_fine`` and ``d_coarse`` are the distances from the interface face to
    the adjacent fine/coarse cell centers (half the touching cell widths).
    ``sides`` describes both subdomains for the iterative solver; the
    monolithic reference deliberately uses the fields above instead.  All
    arrays are read-only.
    """

    domain_lo: float
    domain_hi: float
    interface_x: float
    widths_fine: np.ndarray
    widths_coarse: np.ndarray
    centers_fine: np.ndarray
    centers_coarse: np.ndarray
    faces_fine: np.ndarray
    faces_coarse: np.ndarray
    dt_fine: float
    dt_coarse: float
    t_end: float
    ratio: int
    n_windows: int
    sides: dict[str, Side] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fine = Side(FINE, self.widths_fine, self.centers_fine, self.dt_fine,
                    levels=self.ratio, iface=-1, exterior=0, sign=1.0)
        coarse = Side(COARSE, self.widths_coarse, self.centers_coarse, self.dt_coarse,
                      levels=1, iface=0, exterior=-1, sign=-1.0)
        object.__setattr__(self, "sides", {FINE: fine, COARSE: coarse})
        for arr in (
            self.widths_fine,
            self.widths_coarse,
            self.centers_fine,
            self.centers_coarse,
            self.faces_fine,
            self.faces_coarse,
        ):
            arr.setflags(write=False)

    @property
    def n_fine(self) -> int:
        return self.widths_fine.size

    @property
    def n_coarse(self) -> int:
        return self.widths_coarse.size

    @property
    def d_fine(self) -> float:
        """Distance from the interface to the last fine cell center."""
        return 0.5 * float(self.widths_fine[-1])

    @property
    def d_coarse(self) -> float:
        """Distance from the interface to the first coarse cell center."""
        return 0.5 * float(self.widths_coarse[0])

    @property
    def d_across(self) -> float:
        """Center-to-center distance across the interface."""
        return self.d_fine + self.d_coarse

    # -- time slabs ---------------------------------------------------------
    # Window n (1-based) covers ((n-1)*dt_coarse, n*dt_coarse]; its k-th fine
    # slab (k = 1..K) covers the matching dt_fine subinterval.  ``k`` may be an
    # array of levels, giving arrays of times.

    def coarse_slab(self, window: int) -> tuple[float, float]:
        t0 = (window - 1) * self.dt_coarse
        return t0, t0 + self.dt_coarse

    def fine_slab(self, window: int, k: int) -> tuple[float, float]:
        t0 = (window - 1) * self.dt_coarse + (k - 1) * self.dt_fine
        return t0, t0 + self.dt_fine

    def coarse_midtime(self, window: int) -> float:
        return (window - 0.5) * self.dt_coarse

    def fine_midtime(self, window: int, k: int) -> float:
        return (window - 1) * self.dt_coarse + (k - 0.5) * self.dt_fine


def _build_widths(widths: tuple[float, ...] | None, n: int, length: float, name: str) -> np.ndarray:
    if widths is None:
        return np.full(n, length / n)
    w = np.asarray(widths, dtype=float)
    total = float(np.sum(w))
    if abs(total - length) > 1e-12 * max(1.0, abs(length)):
        raise ConfigurationError(
            f"{name} sum {total!r} does not tile the subdomain of length {length!r}"
        )
    # rescale so the faces land exactly on the subdomain ends
    return w * (length / total)


def build_composite_grid(config: GridConfig) -> CompositeGrid:
    """Build and validate the composite grid from a configuration.

    Raises ConfigurationError when dt_coarse/dt_fine or t_end/dt_coarse is
    not an integer within the relative tolerance, when a side's trajectory
    (its cell values at every time level) is too large for one array, when
    the geometry is invalid, or when an entry of a side's step matrix (its
    mass h / dt, or a 1 / d over a center distance or half cell) is not
    finite.
    """
    ratio = _as_integer_ratio(config.dt_coarse / config.dt_fine, "dt_coarse / dt_fine")
    n_windows = _as_integer_ratio(config.t_end / config.dt_coarse, "t_end / dt_coarse")
    for name, levels, n_cells in ((FINE, ratio, config.n_cells_fine), (COARSE, 1, config.n_cells_coarse)):
        values = (levels * n_windows + 1) * n_cells
        if values * np.dtype(float).itemsize > np.iinfo(np.intp).max:
            raise ConfigurationError(
                f"the {name} trajectory has (levels * n_windows + 1) * n_cells = "
                f"({levels} * {n_windows} + 1) * {n_cells} = {values} values, "
                f"more than one array of floats can hold"
            )

    len_fine = config.interface_x - config.domain_lo
    len_coarse = config.domain_hi - config.interface_x
    widths_fine = _build_widths(config.widths_fine, config.n_cells_fine, len_fine, "widths_fine")
    widths_coarse = _build_widths(
        config.widths_coarse, config.n_cells_coarse, len_coarse, "widths_coarse"
    )

    faces_fine = config.domain_lo + np.concatenate(([0.0], np.cumsum(widths_fine)))
    faces_fine[-1] = config.interface_x
    faces_coarse = config.interface_x + np.concatenate(([0.0], np.cumsum(widths_coarse)))
    faces_coarse[-1] = config.domain_hi
    if np.any(np.diff(faces_fine) <= 0.0) or np.any(np.diff(faces_coarse) <= 0.0):
        raise ConfigurationError("cell faces are not strictly increasing")
    # every entry of a step matrix is a mass h / dt or a 1 / d over a center
    # distance or a half cell; one that overflows leaves no solvable step
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        centers_fine = 0.5 * (faces_fine[:-1] + faces_fine[1:])
        centers_coarse = 0.5 * (faces_coarse[:-1] + faces_coarse[1:])
        for name, widths, centers, dt in (
            (FINE, widths_fine, centers_fine, config.dt_fine),
            (COARSE, widths_coarse, centers_coarse, config.dt_coarse),
        ):
            if not np.isfinite(np.concatenate((widths / dt, 2.0 / widths, 1.0 / np.diff(centers)))).all():
                raise ConfigurationError(
                    f"the {name} step matrix is not finite: h / dt, 2 / h or 1 / (center distance) overflows "
                    f"(h from {float(widths.min())!r} to {float(widths.max())!r}, dt = {dt!r})"
                )

    return CompositeGrid(
        domain_lo=config.domain_lo,
        domain_hi=config.domain_hi,
        interface_x=config.interface_x,
        widths_fine=widths_fine,
        widths_coarse=widths_coarse,
        centers_fine=centers_fine,
        centers_coarse=centers_coarse,
        faces_fine=faces_fine,
        faces_coarse=faces_coarse,
        dt_fine=config.dt_fine,
        dt_coarse=config.dt_coarse,
        t_end=config.t_end,
        ratio=ratio,
        n_windows=n_windows,
    )
