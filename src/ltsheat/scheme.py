"""Implicit cell-centered finite volume assembly for the composite grid.

Each subdomain advances the heat equation with its own time step using
backward Euler and two-point fluxes.  The interface between the fine and
coarse subdomains is closed in one of four ways: the coupling either
introduces explicit interface pressure/flux unknowns on the face ("is1") or
expresses interface fluxes through the neighbor cell values across the face
("is2", overlapping), and either subdomain may act as the master whose
pressure supplies the Dirichlet data, the other returning its flux as
Neumann data.  The window system collecting all fine sub-levels, the coarse
level and (for "is1") the interface unknowns is also assembled monolithically
as a direct-solve reference.

Sign convention: fluxes are oriented left to right, u = (p_right - p_left) / d.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .solver import WindowState

from .errors import ConfigurationError, DimensionError, SolverError
from .grid import CompositeGrid, Side
from .projection import COARSE, FINE

IS1 = "is1"  # interface-unknown coupling
IS2 = "is2"  # overlapping coupling


@dataclass(frozen=True)
class Variant:
    """One of the four interface coupling schemes, and the one place that says
    how each closes a side: the master by its Neumann datum, the projected
    slave flux; the slave by a Dirichlet datum with flux (datum - p_K) / d,
    over its own half cell for is1 (datum: the master's face pressure) or
    across the interface for is2 (the master's interface-cell value)."""

    interface_scheme: str  # IS1 or IS2
    master: str  # FINE or COARSE

    def __post_init__(self) -> None:
        if self.interface_scheme not in (IS1, IS2):
            raise ConfigurationError(f"unknown interface scheme {self.interface_scheme!r}")
        if self.master not in (FINE, COARSE):
            raise ConfigurationError(f"master must be {FINE!r} or {COARSE!r}, got {self.master!r}")

    @property
    def slave(self) -> str:
        return COARSE if self.master == FINE else FINE

    @property
    def name(self) -> str:
        return f"{self.interface_scheme}-{self.master}"

    @property
    def face_datum(self) -> bool:
        """True when the slave's datum is the master's face pressure (is1),
        False when it is the master's interface-cell value (is2)."""
        return self.interface_scheme == IS1

    def closure(self, grid: CompositeGrid, side: Side) -> float | None:
        """The distance d of ``side``'s Dirichlet closure, or None for the
        master, which is closed by its Neumann datum."""
        if side.name == self.master:
            return None
        return side.d_own if self.face_datum else grid.d_across

    @classmethod
    def parse(cls, name: str) -> "Variant":
        try:
            scheme, master = name.strip().lower().split("-")
            return cls(scheme, master)
        except (ValueError, ConfigurationError):
            names = ", ".join(variant.name for variant in VARIANTS)
            raise ConfigurationError(f"variant must be one of {names}; got {name!r}") from None


VARIANTS = (
    Variant(IS1, FINE),
    Variant(IS1, COARSE),
    Variant(IS2, FINE),
    Variant(IS2, COARSE),
)


@dataclass(frozen=True)
class Problem:
    """Data of the continuous problem dp/dt - d2p/dx2 = f.

    The callables are evaluated pointwise on numpy arrays (or floats) whose
    shapes and layout the solver chooses; ``source`` and ``exact_solution``
    get x and t arrays that broadcast against each other.  One call may
    cover a block of several consecutive windows: the t arrays then span
    all of them, and ``g_lo`` and ``g_hi`` get an array of the blocks'
    coarse midtimes, not one float.  A return only has to broadcast to the
    shape of the arguments, so ``lambda x, t: 3.0`` and
    ``lambda x, t: np.sin(3 * x)`` are valid sources, and ``lambda t: 0.0``
    a valid boundary value; a return of any callable that does not
    broadcast raises ``DimensionError``.  When ``exact_solution`` is set,
    the other fields are derived from it (manufactured mode) except that
    the boundary data may be zeroed.
    """

    source: Callable
    p0: Callable
    g_lo: Callable
    g_hi: Callable
    exact_solution: Callable | None = None


def manufactured_problem(homogeneous_boundary: bool = False) -> Problem:
    """Bump solution p = exp(20(t - t^2) - 37x^2 + 8x - 1) with its induced
    source f = p * (20(1 - 2t) - (8 - 74x)^2 + 74) and boundary traces."""

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return np.exp(20.0 * (t - t * t) - 37.0 * x * x + 8.0 * x - 1.0)

    def source(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return exact(x, t) * (20.0 * (1.0 - 2.0 * t) - (8.0 - 74.0 * x) ** 2 + 74.0)

    if homogeneous_boundary:
        g_lo = _zero_of_t
        g_hi = _zero_of_t
    else:
        g_lo = lambda t: exact(0.0, t)  # noqa: E731
        g_hi = lambda t: exact(1.0, t)  # noqa: E731

    return Problem(
        source=source,
        p0=lambda x: exact(x, 0.0),
        g_lo=g_lo,
        g_hi=g_hi,
        exact_solution=exact,
    )


def _zero_of_t(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def _zero_of_x(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def zero_problem() -> Problem:
    """All data zero; the exact solution is identically zero."""
    return Problem(
        source=lambda x, t: np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape),
        p0=_zero_of_x,
        g_lo=_zero_of_t,
        g_hi=_zero_of_t,
        exact_solution=lambda x, t: np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape),
    )


def polynomial_problem(source_coeffs, initial_coeffs) -> Problem:
    """Source f(x) and initial value p0(x) given as ascending polynomial
    coefficients in x; homogeneous Dirichlet data, no exact solution."""
    sc = np.asarray(source_coeffs, dtype=float)
    ic = np.asarray(initial_coeffs, dtype=float)
    return Problem(
        source=lambda x, t: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), sc)
        + 0.0 * np.asarray(t, dtype=float),
        p0=lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), ic),
        g_lo=_zero_of_t,
        g_hi=_zero_of_t,
        exact_solution=None,
    )


def _broadcast_return(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A problem callable's return as a read-only float array of ``shape``.
    A float64 array of that shape comes back as a read-only view, so an
    array the callable keeps is never written."""
    if type(value) is np.ndarray and value.shape == shape and value.dtype == np.float64:
        view = value.view()
        view.setflags(write=False)
        return view
    try:
        return np.broadcast_to(np.asarray(value, dtype=float), shape)
    except ValueError:
        raise DimensionError(
            f"{name} returned shape {np.shape(value)}, which does not broadcast to {shape}"
        ) from None


# -- source quadrature --------------------------------------------------------

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(3)

#: tensor weights w_i w_j of the 9 Gauss points, x node i major, one per row
_TENSOR_WEIGHTS = np.outer(_GAUSS_WEIGHTS, _GAUSS_WEIGHTS).reshape(9, 1)


def slab_source_averages(
    problem: Problem, faces: np.ndarray, t0: float | np.ndarray, t1: float | np.ndarray
) -> np.ndarray:
    """Space-time averages of the source over each cell of ``faces`` times
    the slab (t0, t1), by 3-point tensor Gauss-Legendre quadrature.  Scalar
    bounds give (n,); arrays of bounds give (levels, n), one row per slab,
    from a single source evaluation.

    The source is evaluated on x nodes (3, 1, *levels, n) and t nodes
    (1, 3, *levels, 1), so the cells are the innermost, contiguous axis; its
    return needs only to broadcast to the shape of the two.  Each average is
    the sum of (w_i w_j) f over x node i, then t node j, divided by 4."""
    faces = np.asarray(faces, dtype=float)
    xc = 0.5 * (faces[:-1] + faces[1:])
    hx = np.diff(faces)
    t0, t1 = np.asarray(t0, dtype=float)[..., None], np.asarray(t1, dtype=float)[..., None]
    nodes = _GAUSS_NODES.reshape((3,) + (1,) * max(t0.ndim, t1.ndim))
    xs = (xc + 0.5 * hx * nodes)[:, None]  # (3, 1, 1 per level axis, n)
    ts = (0.5 * (t0 + t1) + 0.5 * (t1 - t0) * nodes)[None]  # (1, 3, *levels, 1)
    shape = np.broadcast_shapes(xs.shape, ts.shape)
    vals = _broadcast_return(problem.source(xs, ts), shape, "source")
    weighted = _TENSOR_WEIGHTS * vals.reshape(9, -1)
    total = sum(weighted[1:], weighted[0])
    # weights sum to 2 per axis on [-1, 1]; averaging divides the 4 back out
    return total.reshape(shape[2:]) / 4.0


@dataclass(frozen=True)
class WindowInputs:
    """Per-window precomputed data: slab-averaged sources and boundary values,
    shared by the predictor, the corrector sweeps and the monolithic system,
    plus the grid's factored step matrices, shared by every window of a march.
    ``per_side`` holds, per side name, the two data terms of each subdomain
    time level's right-hand side, formed once per window: the load
    widths * source (levels, n) and the exterior boundary term
    g / (h_exterior / 2) (levels,).  Zero sources and boundary values give
    zero terms."""

    window: int
    fine_source: np.ndarray  # (K, n_fine)
    coarse_source: np.ndarray  # (n_coarse,)
    g_lo_fine: np.ndarray  # (K,) left boundary value at fine slab midpoints
    g_lo_coarse: float  # left boundary value at the coarse slab midpoint
    g_hi_coarse: float  # right boundary value at the coarse slab midpoint
    operators: StepOperators
    per_side: dict[str, tuple[np.ndarray, np.ndarray]] = field(init=False)

    def __post_init__(self) -> None:
        per_side = {}
        data = ((FINE, self.fine_source, self.g_lo_fine), (COARSE, self.coarse_source, self.g_hi_coarse))
        for name, source, g in data:
            side = self.operators.grid.sides[name]
            load = (side.widths * source).reshape(side.levels, -1)
            per_side[name] = (load, np.atleast_1d(g / (0.5 * side.widths[side.exterior])))
        object.__setattr__(self, "per_side", per_side)

    @property
    def predictor_fine_source(self) -> np.ndarray:
        # coarse-slab average on fine cells = mean of the fine-slab averages
        return self.fine_source.mean(axis=0)


#: the most points a problem callable is evaluated on at once when windows
#: are stacked into blocks; a window that needs more is evaluated alone
_BLOCK_POINTS = 2**16


def _window_blocks(grid: CompositeGrid, points_per_cell: int = _TENSOR_WEIGHTS.size) -> list[range]:
    """Windows 1..n_windows as blocks of consecutive windows, each as long as
    keeps one stacked evaluation within ``_BLOCK_POINTS``, at
    ``points_per_cell`` points per cell and time level of a window (9 for
    the source quadrature, 1 for point values); a window over the budget is
    a block of one."""
    per_window = points_per_cell * max(side.levels * side.widths.size for side in grid.sides.values())
    size = max(1, _BLOCK_POINTS // per_window)
    last = grid.n_windows
    return [range(first, min(first + size, last + 1)) for first in range(1, last + 1, size)]


def precompute_window_inputs(
    grid: CompositeGrid, window: int | range, problem: Problem, operators: StepOperators | None = None
) -> WindowInputs | list[WindowInputs]:
    """Source averages and boundary values of one window, the only place a
    problem becomes window data.  Given a ``range`` of consecutive windows,
    each callable is evaluated once on arrays stacked over the whole block,
    and the result is one ``WindowInputs`` per window, holding views of the
    block's arrays; each equals, bit for bit, that of its own call.
    ``operators`` carries step matrices already factored for ``grid``
    (``march`` passes one set to all its windows); without it the windows
    get a fresh set."""
    if isinstance(window, range):
        if window.step != 1 or not window or not 1 <= window[0] <= window[-1] <= grid.n_windows:
            raise DimensionError(f"windows {window!r} are not consecutive windows in 1..{grid.n_windows}")
        windows = np.arange(window.start, window.stop)
    else:
        if not isinstance(window, numbers.Integral) or not 1 <= window <= grid.n_windows:
            raise DimensionError(f"window {window!r} is not an integer in 1..{grid.n_windows}")
        windows = np.asarray(window)
    if operators is None:
        operators = StepOperators(grid)
    elif operators.grid is not grid:
        raise DimensionError("step operators belong to another grid")
    # one leading axis per window of a range, none for a single window
    levels = np.arange(1, grid.ratio + 1)
    fine_source = slab_source_averages(problem, grid.faces_fine, *grid.fine_slab(windows[..., None], levels))
    coarse_source = slab_source_averages(problem, grid.faces_coarse, *grid.coarse_slab(windows))
    mid_fine = grid.fine_midtime(windows[..., None], levels)
    mid_coarse = grid.coarse_midtime(windows)
    g_lo_fine = _broadcast_return(problem.g_lo(mid_fine), mid_fine.shape, "g_lo")
    g_lo_coarse = _broadcast_return(problem.g_lo(mid_coarse), np.shape(mid_coarse), "g_lo")
    g_hi_coarse = _broadcast_return(problem.g_hi(mid_coarse), np.shape(mid_coarse), "g_hi")
    inputs = [
        WindowInputs(number, fine, coarse, lo_fine, lo, hi, operators)
        for number, fine, coarse, lo_fine, lo, hi in zip(
            windows.reshape(-1).tolist(),
            fine_source.reshape(-1, grid.ratio, grid.n_fine),
            coarse_source.reshape(-1, grid.n_coarse),
            g_lo_fine.reshape(-1, grid.ratio),
            g_lo_coarse.reshape(-1).tolist(),
            g_hi_coarse.reshape(-1).tolist(),
        )
    ]
    return inputs if isinstance(window, range) else inputs[0]


# -- linear systems -----------------------------------------------------------

Bands = tuple[np.ndarray, np.ndarray, np.ndarray]  # (lower, diag, upper); lower[0], upper[-1] unused

#: scipy's ``dgttrf``/``dgttrs`` wrappers reject matrices of order below 3
_LAPACK_MIN_ORDER = 3


def _scipy_extension(fullname: str) -> ModuleType:
    """scipy's compiled wrapper module ``fullname`` (say
    ``scipy.linalg._flapack``), loaded from its extension file without
    running the packages above it.

    Importing ``scipy.linalg`` costs about 0.3 s and 22 MB (its array-API
    layer pulls in ``numpy.f2py`` and ``numpy.testing``), and
    ``scipy.sparse.linalg`` about as much again, while ltsheat needs only a
    few compiled functions.  The module is registered under its own
    ``sys.modules`` name, and one already there is reused, so a later
    ``import scipy.linalg`` or ``import scipy.sparse.linalg`` finds the same
    module and never loads the file twice.  Not even the ``scipy`` package
    is imported (it adds 23 modules and 16-20 ms): its directory comes from
    its import spec.  Checked only against scipy 1.17.1, while ``pyproject.toml``
    allows scipy >= 1.10; a missing file is an ``ImportError`` naming where
    it was looked for."""
    if fullname in sys.modules:
        return sys.modules[fullname]
    *packages, name = fullname.split(".")
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("no module named 'scipy'", name="scipy")
    directory = Path(scipy.origin).parent.joinpath(*packages[1:])
    paths = [directory / (name + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((path for path in paths if path.is_file()), None)
    if path is None:
        raise ImportError(f"no extension file for {fullname}: tried {', '.join(map(str, paths))}", name=fullname)
    loader = importlib.machinery.ExtensionFileLoader(fullname, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(fullname, path, loader=loader))
    loader.exec_module(module)
    sys.modules[fullname] = module
    return module


_flapack = _scipy_extension("scipy.linalg._flapack")
_fblas = _scipy_extension("scipy.linalg._fblas")


@dataclass(frozen=True)
class TridiagonalLU:
    """A tridiagonal matrix's bands, their LU factors with partial pivoting
    (LAPACK ``dgttrf``), the matrix in LAPACK band storage for the residual
    product (BLAS ``dgbmv``), and its infinity norm.  A matrix of order below
    3 is factored and stored with decoupled identity rows appended, which
    leaves its own factors, solutions and residuals unchanged, so every
    order takes one path."""

    bands: Bands
    factors: tuple  # (dl, d, du, du2, ipiv) of the padded matrix
    storage: np.ndarray  # (3, max(n, 3)) rows upper, diagonal, lower of the padded matrix; read-only
    norm_inf: float

    @property
    def n(self) -> int:
        return self.bands[1].size

    @classmethod
    def factor(cls, bands: Bands) -> "TridiagonalLU":
        lower, diag, upper = bands
        if diag.size == 0:
            raise DimensionError("a tridiagonal matrix needs at least one unknown")
        pad = np.zeros(max(0, _LAPACK_MIN_ORDER - diag.size))
        dl, du = np.concatenate([lower[1:], pad]), np.concatenate([upper[:-1], pad])
        d = np.concatenate([diag, pad + 1.0])
        storage = np.zeros((3, d.size), order="F")
        storage[0, 1:], storage[1], storage[2, :-1] = du, d, dl
        storage.setflags(write=False)
        *factors, info = _flapack.dgttrf(dl, d, du)
        if info != 0:
            raise SolverError(f"tridiagonal factorization failed (dgttrf info={info})")
        norm_inf = float(np.max(np.abs(lower) + np.abs(diag) + np.abs(upper)))
        return cls(bands, tuple(factors), storage, norm_inf)

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The solution x of A x = rhs and its residual A x - rhs."""
        n = self.n
        b = rhs if n >= _LAPACK_MIN_ORDER else np.concatenate([rhs, np.zeros(_LAPACK_MIN_ORDER - n)])
        x, info = _flapack.dgttrs(*self.factors, b)
        if info != 0:
            raise SolverError(f"tridiagonal solve failed (dgttrs info={info})")
        # positional: incx, offx, beta, y; y is copied, so rhs is not written
        residual = _fblas.dgbmv(b.size, b.size, 1, 1, 1.0, self.storage, x, 1, 0, -1.0, b)
        return (x, residual) if n >= _LAPACK_MIN_ORDER else (x[:n], residual[:n])


#: a sparse matrix in compressed sparse column form, as SuperLU takes it:
#: float64 values and intc row indices of the nonzeros, column by column, and
#: the intc offsets where each column starts in them, ending at their count
CSC = tuple[np.ndarray, np.ndarray, np.ndarray]  # (data, rowind, colptr)


@dataclass
class LinearSystem:
    """Square system: a right-hand side with either a factored tridiagonal
    matrix (subdomain and predictor steps) or a ``CSC`` matrix (monolithic
    window systems).  A CSC triple reaches SuperLU's C code unchecked, so a
    malformed one is a ``DimensionError`` here."""

    rhs: np.ndarray
    lu: TridiagonalLU | None = None
    sparse: CSC | None = None

    def __post_init__(self) -> None:
        if (self.lu is None) == (self.sparse is None):
            raise DimensionError("LinearSystem needs exactly one of lu or sparse")
        if self.lu is not None:
            if self.lu.n != self.n:
                raise DimensionError("matrix and right-hand side sizes differ")
            return
        if not isinstance(self.sparse, tuple) or len(self.sparse) != 3:
            raise DimensionError("a sparse matrix is a CSC triple (data, rowind, colptr)")
        if self.n == 0:
            raise DimensionError("a sparse system needs at least one unknown")
        data, rowind, colptr = self.sparse
        if not all(
            isinstance(a, np.ndarray) and a.dtype == t and a.ndim == 1 and a.flags.c_contiguous
            for a, t in ((data, np.float64), (rowind, np.intc), (colptr, np.intc))
        ):
            raise DimensionError("a CSC matrix is contiguous 1-D float64 values, intc row indices and column pointers")
        if rowind.size != data.size:
            raise DimensionError("CSC row indices and values differ in number")
        if colptr.size != self.n + 1:
            raise DimensionError("matrix and right-hand side sizes differ")
        if colptr[0] != 0 or colptr[-1] != data.size or np.any(colptr[1:] < colptr[:-1]):
            raise DimensionError("CSC column pointers must rise from 0 to the number of nonzeros")
        if data.size and not 0 <= rowind.min() <= rowind.max() < self.n:
            raise DimensionError(f"CSC row indices must lie in 0..{self.n - 1}")

    @property
    def n(self) -> int:
        return self.rhs.size

    @property
    def bands(self) -> Bands | None:
        return None if self.lu is None else self.lu.bands


UNION = "union"  # the predictor's single-domain mesh: fine cells, then coarse cells


def interface_traces(
    grid: CompositeGrid, side: Side, variant: Variant, datum: float, p_edge: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(left-to-right interface flux, face pressure) at each time level of a
    subdomain closed by ``variant`` with interface ``datum``, given its
    interface-cell values ``p_edge``.  The face pressure is the datum itself
    only for an is1 slave; otherwise it is extrapolated from the cell."""
    d = variant.closure(grid, side)
    flux = np.full(side.levels, datum) if d is None else side.sign * (datum - p_edge) / d
    if d is not None and variant.face_datum:
        return flux, np.full(side.levels, datum)
    return flux, p_edge + side.sign * side.d_own * flux


def _step_bands(grid: CompositeGrid, side: str, closure: float | None) -> Bands:
    """Matrix of one implicit step: mass, interior fluxes and, at each closed
    end (cell index, distance d), a Dirichlet flux u = (g - p_K) / d: the
    half-cell flux at each exterior end and, at a subdomain's interface, a
    Dirichlet ``closure`` distance (None for a Neumann closure)."""
    if side == UNION:
        widths = np.concatenate([grid.widths_fine, grid.widths_coarse])
        centers = np.concatenate([grid.centers_fine, grid.centers_coarse])
        dt = grid.dt_coarse
        closed_ends = [(0, 0.5 * widths[0]), (-1, 0.5 * widths[-1])]
    else:
        s = grid.sides[side]
        widths, centers, dt = s.widths, s.centers, s.dt
        closed_ends = [(s.exterior, 0.5 * widths[s.exterior])]
        if closure is not None:
            closed_ends.append((s.iface, closure))
    n = widths.size
    lower = np.zeros(n)
    diag = widths / dt
    upper = np.zeros(n)
    if n > 1:
        inv_d = 1.0 / np.diff(centers)
        diag[:-1] += inv_d
        diag[1:] += inv_d
        upper[:-1] -= inv_d
        lower[1:] -= inv_d
    for end, d in closed_ends:
        diag[end] += 1.0 / d
    return lower, diag, upper


class StepOperators:
    """The factored step matrices of one grid, each built on first use.

    A step matrix depends only on the side (fine, coarse, or the predictor's
    union mesh) and its interface closure distance (``Variant.closure``),
    never on the window, the time level or the sweep: every step of a march
    reuses its side's factors and forms only its right-hand side.  The bands are read-only because all those
    systems share them.  ``gains`` holds, per coupling variant, the
    corrector's interface gain g on this grid and the window state of the
    sweep it comes from (from a unit datum on the homogeneous problem), which
    the solver computes on first use and superposes onto every window that
    needs more than one sweep.
    """

    def __init__(self, grid: CompositeGrid):
        self.grid = grid
        self._factored: dict[tuple[str, float | None], TridiagonalLU] = {}
        self.gains: dict[Variant, tuple[float, WindowState]] = {}

    def get(self, side: str, closure: float | None = None) -> TridiagonalLU:
        key = (side, closure)
        if key not in self._factored:
            bands = _step_bands(self.grid, side, closure)
            for band in bands:
                band.setflags(write=False)
            self._factored[key] = TridiagonalLU.factor(bands)
        return self._factored[key]


def assemble_subdomain_step(
    grid: CompositeGrid,
    subdomain: str,
    k: int,
    state_prev: np.ndarray,
    variant: Variant,
    datum: float,
    inputs: WindowInputs,
) -> LinearSystem:
    """Tridiagonal system for time level ``k`` of one subdomain in the window
    of ``inputs``: its right-hand side plus its side's factored matrix.

    ``k`` runs over the side's time levels, 1..K on the fine side and 1 on
    the coarse side, and ``state_prev`` holds the values at level k - 1 (the
    window-start values for k = 1).  The exterior end gets the half-cell
    Dirichlet flux u = (g - p_K) / (h/2); the interface end is closed as
    ``variant`` closes this side (``Variant.closure``) with ``datum``: the other
    side's projected trace, constant over the window, so one number serves
    every level.  Which end is which, and the sign of the interface flux,
    come from ``grid.sides``.  The load and exterior boundary term come from
    ``inputs.per_side``, the mass from the side, the matrix and its factors
    from ``inputs.operators``; only the right-hand side load + mass * prev +
    the two end terms is formed here.
    """
    side = grid.sides.get(subdomain)
    if side is None:
        raise DimensionError(f"subdomain must be 'fine' or 'coarse', got {subdomain!r}")
    if k is None or not 1 <= k <= side.levels:
        raise DimensionError(f"{subdomain} time level k={k!r} outside 1..{side.levels}")
    d = variant.closure(grid, side)
    level = k - 1
    load, exterior = inputs.per_side[subdomain]
    rhs = load[level] + side.mass * state_prev
    rhs[side.exterior] += exterior[level]
    rhs[side.iface] += side.sign * datum if d is None else datum / d
    return LinearSystem(rhs=rhs, lu=inputs.operators.get(subdomain, d))


def assemble_composite_step(
    grid: CompositeGrid, fine_prev: np.ndarray, coarse_prev: np.ndarray, inputs: WindowInputs
) -> LinearSystem:
    """One implicit step of size dt_coarse on the union mesh (fine spatial cells
    kept) over the window of ``inputs``: the predictor system, equal to the
    conforming single-domain scheme."""
    source = np.concatenate([inputs.predictor_fine_source, inputs.coarse_source])
    widths = np.concatenate([grid.widths_fine, grid.widths_coarse])
    prev = np.concatenate([np.asarray(fine_prev, dtype=float), np.asarray(coarse_prev, dtype=float)])
    rhs = widths * source + (widths / grid.dt_coarse) * prev
    rhs[0] += inputs.g_lo_coarse * 2.0 / widths[0]
    rhs[-1] += inputs.g_hi_coarse * 2.0 / widths[-1]
    return LinearSystem(rhs=rhs, lu=inputs.operators.get(UNION))


# -- monolithic window system -------------------------------------------------


class WindowLayout:
    """Unknown numbering of the monolithic window system: fine cells at all K
    sub-levels, coarse cells at the window end, then (is1 only) the interface
    pressures at the K fine sub-levels and at the coarse level."""

    def __init__(self, grid: CompositeGrid, variant: Variant):
        self.ratio = grid.ratio
        self.n_fine = grid.n_fine
        self.n_coarse = grid.n_coarse
        self.has_interface_unknowns = variant.interface_scheme == IS1
        self.n_unknowns = self.ratio * self.n_fine + self.n_coarse
        if self.has_interface_unknowns:
            self.n_unknowns += self.ratio + 1

    def fine(self, k: int, j: int) -> int:
        """Fine cell j at sub-level k (1-based k)."""
        return (k - 1) * self.n_fine + j

    def coarse(self, j: int) -> int:
        return self.ratio * self.n_fine + j

    def iface_fine(self, k: int) -> int:
        return self.ratio * self.n_fine + self.n_coarse + (k - 1)

    def iface_coarse(self) -> int:
        return self.ratio * self.n_fine + self.n_coarse + self.ratio


def assemble_monolithic_window(
    grid: CompositeGrid,
    fine_start: np.ndarray,
    coarse_start: np.ndarray,
    variant: Variant,
    inputs: WindowInputs,
) -> LinearSystem:
    """The exact coupled system of the window of ``inputs``: subdomain
    schemes at all levels plus the variant's two interface conditions.

    The entries are built as index arrays, one block per kind of equation,
    in this order: the fine cells at all K sub-levels (diagonal, previous
    sub-level, left and right neighbors, interface coupling), the coarse
    cells (diagonal, right and left neighbors, interface coupling), then the
    is1 interface rows.  Each cell's diagonal is summed here in the order of
    its balance: (mass + left face) + right face for a fine cell, (mass +
    exterior-side face) + interface-side face for a coarse cell.  The
    entries are then ordered by column and row into the ``CSC`` triple, and
    equal positions summed: only where the is2-fine ghost-mean block
    (1/K)/dd meets a fine interface cell's diagonal or previous sub-level,
    two terms, the same float in either order.  Each right-hand side entry
    adds, onto zero, mass times start value (first level only), width times
    source, then the exterior boundary value over the half cell.  It reads
    only the grid's widths, centers and interface distances, never the
    iterative path's step matrices."""
    lay = WindowLayout(grid, variant)
    K, n1, n2 = lay.ratio, lay.n_fine, lay.n_coarse
    d1, d2, dd = grid.d_fine, grid.d_coarse, grid.d_across
    dt1, dt2 = grid.dt_fine, grid.dt_coarse
    h1, h2 = grid.widths_fine, grid.widths_coarse
    inv1, inv2 = 1.0 / np.diff(grid.centers_fine), 1.0 / np.diff(grid.centers_coarse)
    fine = np.arange(K * n1).reshape(K, n1)  # row k - 1, column j: fine cell j at sub-level k
    coarse = K * n1 + np.arange(n2)
    edge, c0 = fine[:, -1], coarse[0]  # the cells next to the interface
    iface_fine, iface_coarse = K * n1 + n2 + np.arange(K), K * n1 + n2 + K  # is1 only
    is1, fine_master = variant.interface_scheme == IS1, variant.master == FINE

    # fine interface face: own distance (is1), ghost = coarse value (is2-coarse),
    # or ghost = time mean of the fine interface cell, added below (is2-fine)
    fine_iface = 1.0 / d1 if is1 else 0.0 if fine_master else 1.0 / dd
    left1 = np.concatenate([[1.0 / (0.5 * h1[0])], inv1])
    diag1 = (h1 / dt1 + left1) + np.concatenate([inv1, [fine_iface]])
    right2 = np.concatenate([inv2, [1.0 / (0.5 * h2[-1])]])
    diag2 = (h2 / dt2 + right2) + np.concatenate([[1.0 / d2 if is1 else 1.0 / dd], inv2])
    blocks = [
        (fine, fine, diag1),
        (fine[1:], fine[:-1], -h1 / dt1),
        (fine[:, 1:], fine[:, :-1], -inv1),
        (fine[:, :-1], fine[:, 1:], -inv1),
        (coarse, coarse, diag2),
        (coarse[:-1], coarse[1:], -inv2),
        (coarse[1:], coarse[:-1], -inv2),
    ]
    if is1:
        blocks += [(edge, iface_fine, -1.0 / d1), (c0, iface_coarse, -1.0 / d2)]
        if fine_master:
            # equal fluxes at each sub-level; time-averaged pressures
            blocks += [
                (iface_fine, iface_fine, 1.0 / d1),
                (iface_fine, edge, -1.0 / d1),
                (iface_fine, c0, -1.0 / d2),
                (iface_fine, iface_coarse, 1.0 / d2),
                (iface_coarse, iface_coarse, dt2),
                (iface_coarse, iface_fine, -dt1),
            ]
        else:
            # equal pressures at each sub-level; time-integrated flux continuity
            blocks += [
                (iface_fine, iface_fine, 1.0),
                (iface_fine, iface_coarse, -1.0),
                (iface_coarse, c0, dt2 / d2),
                (iface_coarse, iface_coarse, -dt2 / d2),
                (iface_coarse, iface_fine, -dt1 / d1),
                (iface_coarse, edge, dt1 / d1),
            ]
    else:
        # coarse flux (coarse cell - time mean of the fine interface cell) / dd
        blocks += [(c0, edge, -(1.0 / K) / dd), (edge, c0, -1.0 / dd)]
        if fine_master:
            blocks.append((edge[:, None], edge[None, :], (1.0 / K) / dd))

    rhs = np.zeros(lay.n_unknowns)
    rhs_fine = rhs[: K * n1].reshape(K, n1)
    rhs_fine[0] += (h1 / dt1) * np.asarray(fine_start, dtype=float)
    rhs_fine += h1 * inputs.fine_source
    rhs_fine[:, 0] += inputs.g_lo_fine / (0.5 * h1[0])
    rhs_coarse = rhs[K * n1 : K * n1 + n2]
    rhs_coarse += (h2 / dt2) * np.asarray(coarse_start, dtype=float) + h2 * inputs.coarse_source
    rhs_coarse[-1] += inputs.g_hi_coarse / (0.5 * h2[-1])

    entries = [np.broadcast_arrays(*block) for block in blocks]
    rows, cols, vals = (np.concatenate([entry[i].ravel() for entry in entries]) for i in range(3))
    order = np.lexsort((rows, cols))  # by column, then row
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.flatnonzero(np.concatenate([[True], (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])]))
    colptr = np.zeros(lay.n_unknowns + 1, dtype=np.intc)
    np.cumsum(np.bincount(cols[first], minlength=lay.n_unknowns), out=colptr[1:])
    matrix = (np.add.reduceat(vals, first), rows[first].astype(np.intc), colptr)
    return LinearSystem(rhs=rhs, sparse=matrix)
