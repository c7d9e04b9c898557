"""Piecewise-constant-in-time trace algebra on the interface.

A trace holds the interface values over one coarse window: K values at fine
resolution or a single value at coarse resolution. The two projections are
adjoint with respect to the time-weighted interface pairing: averaging fine
values to one coarse value, and replicating a coarse value to K fine slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

FINE = "fine"
COARSE = "coarse"


@dataclass(frozen=True)
class Trace:
    """Interface values over one coarse window at one time resolution."""

    values: np.ndarray
    resolution: str  # FINE or COARSE
    dt: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.atleast_1d(np.asarray(self.values, dtype=float)))
        if self.resolution not in (FINE, COARSE):
            raise DimensionError(f"unknown trace resolution {self.resolution!r}")
        if self.resolution == COARSE and self.values.size != 1:
            raise DimensionError(f"coarse trace must hold 1 value, got {self.values.size}")

    def require(self, resolution: str, ratio: int | None = None) -> None:
        if self.resolution != resolution:
            raise DimensionError(f"expected a {resolution} trace, got {self.resolution}")
        if ratio is not None and resolution == FINE and self.values.size != ratio:
            raise DimensionError(f"fine trace must hold {ratio} values, got {self.values.size}")


def fine_trace(values, dt_fine: float) -> Trace:
    return Trace(np.asarray(values, dtype=float), FINE, dt_fine)


def coarse_trace(value: float, dt_coarse: float) -> Trace:
    return Trace(np.array([value], dtype=float), COARSE, dt_coarse)


def project_fine_to_coarse(t: Trace, ratio: int) -> Trace:
    """Average the K fine values: the L2 projection onto coarse resolution."""
    t.require(FINE, ratio)
    total = 0.0
    for v in t.values:  # fixed ascending order for determinism
        total += float(v)
    return coarse_trace(total / ratio, t.dt * ratio)


def inject_coarse_to_fine(t: Trace, ratio: int) -> Trace:
    """Replicate the coarse value to K fine slots: the L2 projection is the
    identity on functions constant over the window."""
    t.require(COARSE)
    return fine_trace(np.full(ratio, t.values[0]), t.dt / ratio)


def conservativity_defect(fine_flux: Trace, coarse_flux: Trace, dt1: float, dt2: float) -> float:
    """|dt2 * u_coarse - sum_k dt1 * u_fine_k| over one window."""
    fine_flux.require(FINE)
    coarse_flux.require(COARSE)
    total = 0.0
    for v in fine_flux.values:  # fixed ascending order for determinism
        total += dt1 * float(v)
    return abs(dt2 * float(coarse_flux.values[0]) - total)


def interface_pairing(a: Trace, b: Trace, face_measure: float = 1.0) -> float:
    """Time-weighted pairing sum(dt * a_n * b_n) * face_measure over the window."""
    if a.resolution != b.resolution or a.values.size != b.values.size:
        raise DimensionError(
            f"pairing needs matching resolutions, got {a.resolution}[{a.values.size}] "
            f"and {b.resolution}[{b.values.size}]"
        )
    total = 0.0
    for x, y in zip(a.values, b.values):
        total += a.dt * float(x) * float(y) * face_measure
    return total
