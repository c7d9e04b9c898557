"""Piecewise-constant-in-time trace algebra on the interface.

A trace holds a side's interface values over one coarse window, one per
time level of that side: an array of K values on the fine side, of one value
on the coarse side.  Its time step is its side's.  The two projections are
adjoint with respect to the time-weighted interface pairing: averaging K
fine values to one coarse value, and replicating a coarse value to K fine
slots.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

FINE = "fine"
COARSE = "coarse"


def project_fine_to_coarse(values: np.ndarray, ratio: int) -> float:
    """Average the K fine values: the L2 projection onto coarse resolution."""
    if np.shape(values) != (ratio,):
        raise DimensionError(f"fine trace must hold {ratio} values, got shape {np.shape(values)}")
    total = 0.0
    for v in values:  # fixed ascending order for determinism
        total += float(v)
    return total / ratio


def inject_coarse_to_fine(value: float, ratio: int) -> np.ndarray:
    """Replicate the coarse value to K fine slots: the L2 projection is the
    identity on functions constant over the window."""
    return np.full(ratio, value, dtype=float)


def conservativity_defect(fine_flux: np.ndarray, coarse_flux: float, dt1: float, dt2: float) -> float:
    """|dt2 * u_coarse - sum_k dt1 * u_fine_k| over one window."""
    total = 0.0
    for v in fine_flux:  # fixed ascending order for determinism
        total += dt1 * float(v)
    return abs(dt2 * float(coarse_flux) - total)


def interface_pairing(a: np.ndarray, b: np.ndarray, dt: float, face_measure: float = 1.0) -> float:
    """Time-weighted pairing sum(dt * a_n * b_n) * face_measure over the
    window of two traces at one resolution with time step ``dt``."""
    if np.shape(a) != np.shape(b):
        raise DimensionError(f"pairing needs traces of one resolution, got shapes {np.shape(a)} and {np.shape(b)}")
    total = 0.0
    for x, y in zip(a, b):
        total += dt * float(x) * float(y) * face_measure
    return total
