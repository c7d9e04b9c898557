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
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

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
    cover a run of consecutive windows, as many as fit in 2^16 points (a
    window that needs more alone): the t arrays then span all of them, and
    ``g_lo`` and ``g_hi`` get arrays of midtimes, not one float.  Window data
    are evaluated side by side, with one axis for the windows and one for
    the side's time levels, K on the fine side and one on the coarse side.
    A return only has to broadcast to the shape of the arguments, so
    ``lambda x, t: 3.0`` and ``lambda x, t: np.sin(3 * x)`` are valid
    sources, and ``lambda t: 0.0`` a valid boundary value; a return of any
    callable that does not broadcast raises ``DimensionError``.  Errors are
    measured against ``exact_solution`` when it is set, and no field is
    derived from it: ``manufactured_problem`` sets the boundary data to its
    traces at the domain ends, a hand-built ``Problem`` keeps its own.

    ``source_terms`` may give the same source as a tuple of pairs (of_t,
    of_x) of callables whose products of_t(t) * of_x(x) add up to
    ``source(x, t)``; the slab source averages then come from 1-D Gauss
    rules on the factors, and without them from the tensor rule on
    ``source`` (``slab_source_averages``).  Construction checks that form
    but calls nothing, so the terms' sum is not checked against ``source``.
    """

    source: Callable
    p0: Callable
    g_lo: Callable
    g_hi: Callable
    exact_solution: Callable | None = None
    source_terms: tuple[tuple[Callable, Callable], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.source_terms, tuple):
            raise ConfigurationError(f"source_terms must be a tuple of (of_t, of_x) pairs, got {self.source_terms!r}")
        for k, term in enumerate(self.source_terms):
            if not (isinstance(term, tuple) and len(term) == 2 and all(map(callable, term))):
                raise ConfigurationError(f"source_terms[{k}] must be a pair (of_t, of_x) of callables, got {term!r}")


def manufactured_problem(domain_lo: float = 0.0, domain_hi: float = 1.0) -> Problem:
    """Bump solution p = exp(20(t - t^2) - 37x^2 + 8x - 1) with its induced
    source f = p * (20(1 - 2t) - (8 - 74x)^2 + 74) and its traces at the
    domain ends ``domain_lo`` and ``domain_hi`` as boundary data, the only
    boundary data its errors are measured against.  With p = T(t) X(x), the
    source's terms are [T (20(1 - 2t) + 74)] X and (-T) [X (8 - 74x)^2]."""

    # p is a time factor exp(20(t - t^2)) <= e^5 times a space factor
    # exp(8x - 37x^2 - 1) <= e^-0.567, so neither overflows and there is no
    # inf * 0; the bracket is a time term minus a space term.  Each exp and
    # term runs on its own argument's array, a quadrature's small node rows,
    # and only the products and the difference are full size.  Scalar
    # arguments give a scalar
    def of_t(t):
        t = np.asarray(t, dtype=float)
        return np.exp(20.0 * (t - t * t))

    def of_x(x):
        x = np.asarray(x, dtype=float)
        return np.exp(8.0 * x - 37.0 * x * x - 1.0)

    def exact(x, t):
        return of_t(t) * of_x(x)

    def source(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        out = exact(x, t)
        out *= np.subtract(20.0 * (1.0 - 2.0 * t) + 74.0, (8.0 - 74.0 * x) ** 2)
        return out

    def growth(t):
        return of_t(t) * (20.0 * (1.0 - 2.0 * np.asarray(t, dtype=float)) + 74.0)

    def spread(x):
        return of_x(x) * (8.0 - 74.0 * np.asarray(x, dtype=float)) ** 2

    return Problem(
        source=source,
        p0=lambda x: exact(x, 0.0),
        g_lo=lambda t: exact(domain_lo, t),
        g_hi=lambda t: exact(domain_hi, t),
        exact_solution=exact,
        source_terms=((growth, of_x), (lambda t: -of_t(t), spread)),
    )


def _zero(*args) -> float:
    return 0.0


def zero_problem() -> Problem:
    """All data zero; the exact solution is identically zero.  Each callable
    returns the scalar 0.0, which the solver broadcasts like any return."""
    return Problem(source=_zero, p0=_zero, g_lo=_zero, g_hi=_zero, exact_solution=_zero)


def polynomial_problem(source_coeffs, initial_coeffs) -> Problem:
    """Source f(x) and initial value p0(x) given as ascending polynomial
    coefficients in x, one source term with a unit t factor; homogeneous
    Dirichlet data, no exact solution.  Only these problems load ``numpy.polynomial``."""
    from numpy.polynomial.polynomial import polyval

    sc = np.asarray(source_coeffs, dtype=float)
    ic = np.asarray(initial_coeffs, dtype=float)

    def of_x(x):
        return polyval(np.asarray(x, dtype=float), sc)

    return Problem(
        source=lambda x, t: of_x(x),
        p0=lambda x: polyval(np.asarray(x, dtype=float), ic),
        g_lo=_zero,
        g_hi=_zero,
        exact_solution=None,
        source_terms=((lambda t: 1.0, of_x),),
    )


def _broadcast_return(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A problem callable's return as a read-only float array of ``shape``.
    A float64 array of that shape comes back as a read-only view, so an
    array the callable keeps is never written.  A return that is not real
    numbers (strings, objects, complex values), is ragged or does not
    broadcast to ``shape`` raises ``DimensionError``."""
    if type(value) is np.ndarray and value.shape == shape and value.dtype == np.float64:
        view = value.view()
        view.setflags(write=False)
        return view
    try:
        array = np.asarray(value)
    except ValueError as error:
        raise DimensionError(f"{name} returned values that form no array: {error}") from None
    if array.dtype.kind not in "biuf":
        raise DimensionError(f"{name} returned values of dtype {array.dtype}, which are not real numbers")
    try:
        return np.broadcast_to(array.astype(float, copy=False), shape)
    except ValueError:
        raise DimensionError(f"{name} returned shape {array.shape}, which does not broadcast to {shape}") from None


# -- source quadrature --------------------------------------------------------

#: 3-point Gauss-Legendre nodes and weights on [-1, 1], bit for bit those of
#: ``numpy.polynomial.legendre.leggauss(3)`` (whose outer weights are one ulp
#: above 5/9), written out so that importing ltsheat loads no
#: ``numpy.polynomial`` and runs no eigensolver
_GAUSS_NODES = np.array([-0.7745966692414834, 0.0, 0.7745966692414834])
_GAUSS_WEIGHTS = np.array([0.5555555555555557, 0.8888888888888888, 0.5555555555555557])

#: tensor weights w_i w_j of the 9 Gauss points, x node i major, one per row
_TENSOR_WEIGHTS = np.outer(_GAUSS_WEIGHTS, _GAUSS_WEIGHTS).reshape(9, 1)


def _gauss_average(values: np.ndarray) -> np.ndarray:
    """Half the 3-point Gauss sum over the first axis, in node order and elementwise, as for every block of windows."""
    return 0.5 * (_GAUSS_WEIGHTS[0] * values[0] + _GAUSS_WEIGHTS[1] * values[1] + _GAUSS_WEIGHTS[2] * values[2])


def slab_source_averages(
    problem: Problem, faces: np.ndarray, t0: float | np.ndarray, t1: float | np.ndarray
) -> np.ndarray:
    """Space-time averages of the source over each cell of ``faces`` times
    the slab (t0, t1), by 3-point tensor Gauss-Legendre quadrature.  Scalar
    bounds give (n,); arrays of bounds give (levels, n), one row per slab.

    With ``problem.source_terms``, each term's tensor rule is the product of
    its factors' 1-D rules: of_t on t nodes (3, *levels, 1) times of_x on x
    nodes (3, n), each called once.  The first term's product is the
    result, and each later one is added into it a row of cells at a time, a
    float times the x averages, which holds no second full-size product nor
    a broadcasting ufunc's buffers.  Otherwise ``source`` is evaluated
    once, on x nodes (3, 1, 1 per level axis, n) and t nodes
    (1, 3, *levels, 1), so the cells are the innermost, contiguous axis;
    each average is the sum of (w_i w_j) f over x node i, then t node j,
    divided by 4.  A return needs only to broadcast to its arguments."""
    faces = np.asarray(faces, dtype=float)
    xc = 0.5 * (faces[:-1] + faces[1:])
    hx = np.diff(faces)
    t0, t1 = np.asarray(t0, dtype=float)[..., None], np.asarray(t1, dtype=float)[..., None]
    nodes = _GAUSS_NODES.reshape((3,) + (1,) * max(t0.ndim, t1.ndim))
    ts = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * nodes  # (3, *levels, 1)
    if problem.source_terms:
        xs = xc + 0.5 * hx * _GAUSS_NODES[:, None]  # (3, n)
        total = None
        for k, (of_t, of_x) in enumerate(problem.source_terms):
            in_t = _gauss_average(_broadcast_return(of_t(ts), ts.shape, f"source_terms[{k}] t factor"))
            in_x = _gauss_average(_broadcast_return(of_x(xs), xs.shape, f"source_terms[{k}] x factor"))
            if total is None:
                total = np.multiply(in_t, in_x, order="C")  # C order: its rows below are views, whatever of_t returns
            else:
                for row, factor in zip(total.reshape(-1, total.shape[-1]), in_t.ravel().tolist()):
                    row += factor * in_x
        return total
    xs = (xc + 0.5 * hx * nodes)[:, None]  # (3, 1, 1 per level axis, n)
    ts = ts[None]  # (1, 3, *levels, 1)
    shape = np.broadcast_shapes(xs.shape, ts.shape)
    vals = _broadcast_return(problem.source(xs, ts), shape, "source")
    weighted = _TENSOR_WEIGHTS * vals.reshape(9, -1)
    # the rows are added in order, also for one column, where numpy's reduce would sum pairwise
    total = weighted[0].copy()
    for row in weighted[1:]:
        total += row
    # weights sum to 2 per axis on [-1, 1]; averaging divides the 4 back out
    return np.divide(total, 4.0, out=total).reshape(shape[2:])


@dataclass(frozen=True)
class WindowInputs:
    """Per-window precomputed data: slab-averaged sources and boundary values,
    shared by the predictor, the corrector sweeps and the monolithic system,
    plus the grid's factored step matrices, shared by every window of a march.
    The data of each side are keyed by its name and hold one row or value per
    time level of the side, K on the fine side and one on the coarse side."""

    window: int
    source: dict[str, np.ndarray]  # (levels, n) source averages over each slab of the side
    exterior: dict[str, np.ndarray]  # (levels,) exterior boundary value at each slab midtime
    g_lo_coarse: float  # the predictor's left boundary value at the coarse slab midtime
    operators: StepOperators


#: the most points a problem callable is evaluated on at once when windows
#: are stacked into runs; a window that needs more is evaluated alone
_BLOCK_POINTS = 2**16


def _runs(windows: range, points: int) -> list[range]:
    """``windows`` (numbers, or positions in a block) in runs of consecutive
    windows, each as long as keeps ``points`` per window within
    ``_BLOCK_POINTS``; a window over the budget is a run of one."""
    size = max(1, _BLOCK_POINTS // points)
    return [windows[i : i + size] for i in range(0, len(windows), size)]


def _window_blocks(grid: CompositeGrid) -> list[range]:
    """Windows 1..n_windows in runs that keep one window-level array (time
    levels x cells of the larger side) within ``_BLOCK_POINTS``: the blocks
    of a march's window inputs and of ``error_report``."""
    return _runs(range(1, grid.n_windows + 1), max(side.levels * side.widths.size for side in grid.sides.values()))


def precompute_window_inputs(
    grid: CompositeGrid, window: int | range, problem: Problem, operators: StepOperators | None = None
) -> WindowInputs | list[WindowInputs]:
    """Source averages and boundary values of a ``range`` of consecutive
    windows at each side's time levels (``Side.slab``, ``Side.midtime``),
    the only place a problem becomes window data.  Each datum is
    evaluated in as few runs of them (``_runs``) as keep the values a call
    makes within ``_BLOCK_POINTS``: 1 a cell and level for a source with
    ``source_terms`` (the factors' product; the t nodes make 3 a level), so
    a block of ``_window_blocks`` is one call per factor, 9 for a source
    without them and 1 a level for a boundary value.  Each window's
    ``WindowInputs`` holds views of one array per datum: the call's own
    for one run, else the one the runs are written into.  One window ``w``
    is evaluated exactly as the block of one ``range(w, w + 1)``, and its
    one ``WindowInputs`` is returned.
    ``operators`` carries step matrices already factored for ``grid``
    (``march`` passes one set to all its windows), or a fresh set is made."""
    if isinstance(window, range):
        if window.step != 1 or not window or not 1 <= window[0] <= window[-1] <= grid.n_windows:
            raise DimensionError(f"windows {window!r} are not consecutive windows in 1..{grid.n_windows}")
    elif not isinstance(window, numbers.Integral) or not 1 <= window <= grid.n_windows:
        raise DimensionError(f"window {window!r} is not an integer in 1..{grid.n_windows}")
    block = window if isinstance(window, range) else range(window, window + 1)
    windows = np.arange(block.start, block.stop)
    if operators is None:
        operators = StepOperators(grid)
    elif operators.grid is not grid:
        raise DimensionError("step operators belong to another grid")

    def evaluate(shape: tuple[int, ...], points: int, datum: Callable) -> np.ndarray:
        runs = _runs(range(windows.size), points)
        if len(runs) == 1:
            return datum(windows)
        out = np.empty(windows.shape + shape)
        for run in runs:
            out[run.start : run.stop] = datum(windows[run.start : run.stop])
        return out

    def boundary(name: str, t: np.ndarray) -> np.ndarray:
        # a copy: the callable may keep the array it returned
        return np.array(_broadcast_return(getattr(problem, name)(t), np.shape(t), name))

    source, exterior = {}, {}
    for side in grid.sides.values():
        levels, n = side.levels, side.widths.size
        points = levels * max(n, 3) if problem.source_terms else 9 * levels * n
        source[side.name] = evaluate((levels, n), points, lambda w: slab_source_averages(
            problem, side.faces, *side.slab(w)))
        exterior[side.name] = evaluate((levels,), levels, lambda w: boundary(side.boundary, side.midtime(w)))
    g_lo_coarse = evaluate((1,), 1, lambda w: boundary("g_lo", grid.sides[COARSE].midtime(w)))
    inputs = [
        WindowInputs(number, {name: data[i] for name, data in source.items()},
                     {name: data[i] for name, data in exterior.items()}, lo, operators)
        for i, (number, lo) in enumerate(zip(block, g_lo_coarse[:, 0].tolist()))
    ]
    return inputs if isinstance(window, range) else inputs[0]


# -- linear systems -----------------------------------------------------------

#: scipy's ``dgbmv`` wrapper needs an order of at least kl + ku + 1 = 3, and its ``dpttrf`` wrapper rejects order 1
_LAPACK_MIN_ORDER = 3


def _scipy_extension(fullname: str) -> ModuleType:
    """scipy's compiled wrapper module ``fullname`` (say
    ``scipy.linalg._flapack``), loaded from its extension file without
    running the packages above it.

    Importing ``scipy.linalg`` costs about 0.3 s and 22 MB (its array-API
    layer pulls in ``numpy.f2py`` and ``numpy.testing``) for a few compiled
    functions.  The module is registered under its own ``sys.modules`` name,
    and one already there is reused, so a later ``import scipy.linalg``
    never loads the file twice.  Not even the ``scipy`` package is imported
    (23 modules, 16-20 ms): its directory comes from its import spec.  A
    missing file is an ``ImportError`` naming where it was looked for."""
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
    """A symmetric positive definite tridiagonal matrix's bands, their
    L D L^T factors (LAPACK ``dpttrf``, no pivoting), the matrix in LAPACK
    band storage for the residual product (BLAS ``dgbmv``), and its infinity
    norm.  A matrix of order below 3 is factored and stored with decoupled
    identity rows appended, which leaves its own factors, solutions and
    residuals unchanged, so every order takes one path."""

    bands: tuple[np.ndarray, np.ndarray]  # (diag, off): the diagonal and the n - 1 entries beside it
    factors: tuple  # (d, e) of the padded matrix: D's diagonal, L's subdiagonal
    storage: np.ndarray  # (3, max(n, 3)) rows upper, diagonal, lower of the padded matrix; read-only
    norm_inf: float

    @property
    def n(self) -> int:
        return self.bands[0].size

    @classmethod
    def factor(cls, diag: np.ndarray, off: np.ndarray) -> "TridiagonalLU":
        if diag.size == 0:
            raise DimensionError("a tridiagonal matrix needs at least one unknown")
        pad = np.zeros(max(0, _LAPACK_MIN_ORDER - diag.size))
        e = np.concatenate([off, pad])
        d = np.concatenate([diag, pad + 1.0])
        storage = np.zeros((3, d.size), order="F")
        storage[0, 1:], storage[1], storage[2, :-1] = e, d, e
        storage.setflags(write=False)
        *factors, info = _flapack.dpttrf(d, e)
        if info != 0:
            raise SolverError(f"tridiagonal factorization failed (dpttrf info={info})")
        beside = np.concatenate([[0.0], np.abs(off), [0.0]])  # row i: |A[i, i - 1]| + |A[i, i]| + |A[i, i + 1]|
        norm_inf = float(np.max(beside[:-1] + np.abs(diag) + beside[1:]))
        return cls((diag, off), tuple(factors), storage, norm_inf)

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The solution x of A x = rhs and its residual A x - rhs."""
        n = self.n
        b = rhs if n >= _LAPACK_MIN_ORDER else np.concatenate([rhs, np.zeros(_LAPACK_MIN_ORDER - n)])
        x, info = _flapack.dpttrs(*self.factors, b)
        if info != 0:
            raise SolverError(f"tridiagonal solve failed (dpttrs info={info})")
        # positional: incx, offx, beta, y; y is copied, so rhs is not written
        residual = _fblas.dgbmv(b.size, b.size, 1, 1, 1.0, self.storage, x, 1, 0, -1.0, b)
        return (x, residual) if n >= _LAPACK_MIN_ORDER else (x[:n], residual[:n])


@dataclass
class BandMatrix:
    """A square matrix in LAPACK band storage: entry (i, j) of the matrix in
    band order (``order[p]`` is the unknown at position p) at row
    kl + ku + i - j, column j of the Fortran-ordered (2 kl + ku + 1, n)
    ``storage``; ``entries`` are its triplets in the unknowns' own numbering.
    The first ``solve`` factors ``storage`` in place and keeps the ``pivots``."""

    storage: np.ndarray
    kl: int
    ku: int
    order: np.ndarray
    entries: tuple[np.ndarray, np.ndarray, np.ndarray]
    pivots: np.ndarray | None = None
    bands = None  # not a field: a band system has no tridiagonal bands

    def __post_init__(self) -> None:
        if np.ndim(self.storage) != 2 or not self.storage.shape[1] == self.order.size > 0:
            raise DimensionError("a band matrix needs at least one unknown and a storage column for each")

    @property
    def n(self) -> int:
        return self.order.size

    @property
    def norm_inf(self) -> float:
        """||A||_inf from the triplets; entries that share a position count apart."""
        rows, _, vals = self.entries
        return float(np.bincount(rows, weights=np.abs(vals), minlength=self.n).max())

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x solving A x = rhs, and A x - rhs from the triplets.  The first call factors ``storage``
        in place (LAPACK ``dgbtrf``): a negative info is a ``DimensionError``, a positive one a ``SolverError``."""
        if self.pivots is None:
            factors, pivots, info = _flapack.dgbtrf(self.storage, self.kl, self.ku, overwrite_ab=1)
            if info:
                raise (DimensionError if info < 0 else SolverError)(f"band factorization failed (dgbtrf info={info})")
            self.storage, self.pivots = factors, pivots
        x = np.empty(self.n)
        b = rhs[self.order]  # a copy, solved in place
        x[self.order], _ = _flapack.dgbtrs(self.storage, self.kl, self.ku, b, self.pivots, overwrite_b=1)
        rows, cols, vals = self.entries
        return x, np.bincount(rows, weights=vals * x[cols], minlength=self.n) - rhs

    @classmethod
    def from_entries(cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, order: np.ndarray) -> "BandMatrix":
        """The band of the triplets, kl and ku as small as they allow: one
        ``np.bincount`` over the flat positions adds those that share one;
        unequal triplet lengths or an index outside 0..n-1 is a ``DimensionError``."""
        if not rows.shape == cols.shape == vals.shape == (vals.size,):
            raise DimensionError("row indices, column indices and values differ in number")
        if min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= order.size:
            raise DimensionError(f"row and column indices must lie in 0..{order.size - 1}")
        position = np.argsort(order)
        i, j = position[rows], position[cols]
        kl, ku = max(int((i - j).max()), 0), max(int((j - i).max()), 0)
        height = 2 * kl + ku + 1
        storage = np.bincount(i - j + kl + ku + height * j, weights=vals, minlength=height * order.size)
        return cls(storage.reshape(-1, height).T, kl, ku, order, (rows, cols, vals))


@dataclass
class LinearSystem:
    """Square system: a right-hand side and its matrix, a ``TridiagonalLU``
    (subdomain and predictor steps) or a ``BandMatrix`` (monolithic window
    systems), which solves itself: ``matrix.solve(rhs)`` is (x, A x - rhs)."""

    rhs: np.ndarray
    matrix: TridiagonalLU | BandMatrix

    def __post_init__(self) -> None:
        if self.matrix.n != self.n:
            raise DimensionError("matrix and right-hand side sizes differ")

    @property
    def n(self) -> int:
        return self.rhs.size

    @property
    def bands(self) -> tuple[np.ndarray, np.ndarray] | None:
        return self.matrix.bands


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


def _step_bands(grid: CompositeGrid, side: str, closure: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Bands (diag, off) of one implicit step: mass, interior fluxes (-1/d
    off the diagonal for centers d apart) and, at each closed end (cell
    index, distance d), a Dirichlet flux u = (g - p_K) / d: the half-cell
    flux at each exterior end and, at a subdomain's interface, a Dirichlet
    ``closure`` distance (None for a Neumann closure)."""
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
    diag = widths / dt
    inv_d = 1.0 / np.diff(centers)
    diag[:-1] += inv_d
    diag[1:] += inv_d
    for end, d in closed_ends:
        diag[end] += 1.0 / d
    return diag, -inv_d


class StepOperators:
    """The factored step matrices of one grid, each built on first use.

    A step matrix depends only on the side (fine, coarse, or the predictor's
    union mesh) and its interface closure distance (``Variant.closure``),
    never on the window, the time level or the sweep: every step of a march
    reuses its side's factors and forms only its right-hand side.  The bands are read-only because all those
    systems share them.  ``gains`` holds, per coupling variant, the
    corrector's interface gain g on this grid and the cells of the sweep it
    comes from by side name (from a unit datum on the homogeneous problem),
    which the solver computes on first use and superposes onto every window
    that needs more than one sweep.
    """

    def __init__(self, grid: CompositeGrid):
        self.grid = grid
        self._factored: dict[tuple[str, float | None], TridiagonalLU] = {}
        self.gains: dict[Variant, tuple[float, dict[str, np.ndarray]]] = {}

    def get(self, side: str, closure: float | None = None) -> TridiagonalLU:
        key = (side, closure)
        if key not in self._factored:
            bands = _step_bands(self.grid, side, closure)
            for band in bands:
                band.setflags(write=False)
            self._factored[key] = TridiagonalLU.factor(*bands)
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
    come from ``grid.sides``.  The source and exterior boundary value of
    level k come from ``inputs``, the mass from the side, the matrix and its
    factors from ``inputs.operators``; only the right-hand side
    widths * source + mass * prev + the two end terms is formed here.
    """
    side = grid.sides.get(subdomain)
    if side is None:
        raise DimensionError(f"subdomain must be 'fine' or 'coarse', got {subdomain!r}")
    if k is None or not 1 <= k <= side.levels:
        raise DimensionError(f"{subdomain} time level k={k!r} outside 1..{side.levels}")
    d = variant.closure(grid, side)
    rhs = side.widths * inputs.source[subdomain][k - 1] + side.mass * state_prev
    rhs[side.exterior] += inputs.exterior[subdomain][k - 1] / (0.5 * side.widths[side.exterior])
    rhs[side.iface] += side.sign * datum if d is None else datum / d
    return LinearSystem(rhs, inputs.operators.get(subdomain, d))


def assemble_composite_step(
    grid: CompositeGrid, fine_prev: np.ndarray, coarse_prev: np.ndarray, inputs: WindowInputs
) -> LinearSystem:
    """One implicit step of size dt_coarse on the union mesh (fine spatial cells
    kept) over the window of ``inputs``: the predictor system, equal to the
    conforming single-domain scheme."""
    # coarse-slab average on fine cells = mean of the fine-slab averages
    source = np.concatenate([inputs.source[FINE].mean(axis=0), inputs.source[COARSE][0]])
    widths = np.concatenate([grid.widths_fine, grid.widths_coarse])
    prev = np.concatenate([np.asarray(fine_prev, dtype=float), np.asarray(coarse_prev, dtype=float)])
    rhs = widths * source + (widths / grid.dt_coarse) * prev
    rhs[0] += inputs.g_lo_coarse * 2.0 / widths[0]
    rhs[-1] += inputs.exterior[COARSE][0] * 2.0 / widths[-1]
    return LinearSystem(rhs, inputs.operators.get(UNION))


# -- monolithic window system -------------------------------------------------


class WindowLayout:
    """Unknown numbering of the monolithic window system: fine cells at all K
    sub-levels, coarse cells at the window end, then (is1 only) the interface
    pressures at the K fine sub-levels and at the coarse level.  The index
    methods take ints or integer arrays, which broadcast; ``band_order``
    gives the order in which the system's matrix is banded."""

    def __init__(self, grid: CompositeGrid, variant: Variant):
        self.ratio = grid.ratio
        self.n_fine = grid.n_fine
        self.n_coarse = grid.n_coarse
        self.has_interface_unknowns = variant.interface_scheme == IS1
        self.n_unknowns = self.ratio * self.n_fine + self.n_coarse
        if self.has_interface_unknowns:
            self.n_unknowns += self.ratio + 1

    def fine(self, k: int | np.ndarray, j: int | np.ndarray) -> int | np.ndarray:
        """Fine cell j at sub-level k (1-based k)."""
        return (k - 1) * self.n_fine + j

    def coarse(self, j: int | np.ndarray) -> int | np.ndarray:
        return self.ratio * self.n_fine + j

    def iface_fine(self, k: int | np.ndarray) -> int | np.ndarray:
        return self.ratio * self.n_fine + self.n_coarse + (k - 1)

    def iface_coarse(self) -> int:
        return self.ratio * self.n_fine + self.n_coarse + self.ratio

    def band_order(self) -> np.ndarray:
        """The unknown at each band position: the fine cells cell by cell with
        the K levels innermost, then (is1 only) the coarse interface pressure
        and the K fine ones, then the coarse cells.  Equations then couple
        unknowns at most K (is2) or K + 1 (is1) positions apart."""
        levels = np.arange(1, self.ratio + 1)
        parts = [self.fine(levels, np.arange(self.n_fine)[:, None]).ravel()]
        if self.has_interface_unknowns:
            parts += [[self.iface_coarse()], self.iface_fine(levels)]
        parts.append(self.coarse(np.arange(self.n_coarse)))
        return np.concatenate(parts)


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
    entries then go into band storage in ``WindowLayout.band_order``, equal
    positions summed: only where the is2-fine ghost-mean block (1/K)/dd
    meets a fine interface cell's diagonal or previous sub-level, two terms,
    the same float in either order.  Each right-hand side entry
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
    levels = np.arange(1, K + 1)
    fine = lay.fine(levels[:, None], np.arange(n1))  # row k - 1, column j: fine cell j at sub-level k
    coarse = lay.coarse(np.arange(n2))
    edge, c0 = fine[:, -1], coarse[0]  # the cells next to the interface
    iface_fine, iface_coarse = lay.iface_fine(levels), lay.iface_coarse()  # is1 only
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
    rhs_fine += h1 * inputs.source[FINE]
    rhs_fine[:, 0] += inputs.exterior[FINE] / (0.5 * h1[0])
    rhs_coarse = rhs[K * n1 : K * n1 + n2]
    rhs_coarse += (h2 / dt2) * np.asarray(coarse_start, dtype=float) + h2 * inputs.source[COARSE][0]
    rhs_coarse[-1] += inputs.exterior[COARSE][0] / (0.5 * h2[-1])

    entries = [np.broadcast_arrays(*block) for block in blocks]
    rows, cols, vals = (np.concatenate([entry[i].ravel() for entry in entries]) for i in range(3))
    return LinearSystem(rhs, BandMatrix.from_entries(rows, cols, vals, lay.band_order()))
