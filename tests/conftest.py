from __future__ import annotations

import functools
import types

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from ltsheat import GridConfig, SolveMode, build_composite_grid, manufactured_problem, march
from ltsheat.scheme import COARSE, FINE, IS1, Variant, WindowLayout

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

# the same examples on every run, and no deadline: a march's first call builds its factors
settings.register_profile("ltsheat", deadline=None, derandomize=True, database=None)
settings.load_profile("ltsheat")


@st.composite
def grid_space(draw, windows: int) -> GridConfig:
    """A config of the property tests' grid space, ``windows`` coarse windows
    on [0, 1]: ratio K, cells (fine, coarse) with the size jump either way and
    one-cell sides, interface, and dt_coarse 1e-2..1e-5 (dt/h^2 from 3e-7 to
    256 with uniform widths); widths uniform, or jittered from a drawn seed."""
    ratio = draw(st.sampled_from([1, 2, 5, 10, 20, 50]))
    n_fine, n_coarse = draw(st.sampled_from([(10, 10), (20, 5), (5, 20), (40, 8), (1, 3), (3, 1)]))
    x_iface = draw(st.sampled_from([0.25, 0.5, 0.8]))
    dt_coarse = draw(st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5]))
    seed = draw(st.none() | st.integers(0, 2**16))
    widths = (None, None)
    if seed is not None:
        rng = np.random.default_rng(seed)
        widths = (jittered_widths(rng, n_fine, x_iface), jittered_widths(rng, n_coarse, 1.0 - x_iface))
    return GridConfig(0.0, 1.0, x_iface, n_fine, n_coarse, dt_coarse / ratio, dt_coarse, windows * dt_coarse, *widths)


#: the data scales of the properties that scale a problem (``scaled_problem``)
data_scales = st.sampled_from([2.0**-20, 2.0**20])
#: converged, stopped after 3 sweeps (some windows unconverged), and one sweep
solve_modes = st.sampled_from([SolveMode.converged(1e-8), SolveMode.converged(1e-8, 3), SolveMode.single_iteration()])


def tridiagonal_matrix(system):
    """The scipy matrix of a banded ``LinearSystem``."""
    import scipy.sparse

    diag, off = system.bands
    return scipy.sparse.diags([off, diag, off], offsets=[-1, 0, 1], format="csr")


def band_entries(system, rows, cols):
    """Entries (rows, cols) of a band ``LinearSystem``'s matrix, in its
    unknowns' own numbering, read from the band storage through the band
    positions of ``system.matrix.order``; an entry outside the band reads 0."""
    band = system.matrix
    position = np.argsort(band.order)
    i, j = position[np.asarray(rows)], position[np.asarray(cols)]
    offset = band.ku + i - j  # the entry's row in the storage below its kl fill rows
    inside = (offset >= 0) & (offset <= band.kl + band.ku)
    return np.where(inside, band.storage[band.kl + np.where(inside, offset, 0), j], 0.0)


def band_dense(system):
    """The dense matrix of a band ``LinearSystem``, read through ``band_entries``."""
    rows, cols = np.indices((system.n, system.n))
    return band_entries(system, rows, cols)


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
    else:
        mode = SolveMode.single_iteration()
    trajectory, report = march(grid, Variant.parse(variant_name), mode, problem)
    return grid, trajectory, report


@pytest.fixture(scope="session")
def bump_run():
    """Cached runs on the reference grid: bump_run(variant, mode, dts...)."""

    def run(variant_name: str, mode_kind: str = "converged", dt_fine: float = 0.002, dt_coarse: float = 0.02):
        return _bump_run(variant_name, mode_kind, dt_fine, dt_coarse)

    return run


def jittered_widths(rng, n, length):
    """n cell widths drawn from [0.8, 1.2] and rescaled to tile ``length``."""
    widths = rng.uniform(0.8, 1.2, size=n)
    return tuple(widths * (length / widths.sum()))


def scaled_problem(problem, c):
    """``problem`` with its source, initial and boundary data times c."""
    from ltsheat import Problem

    return Problem(
        source=lambda x, t: c * problem.source(x, t),
        p0=lambda x: c * problem.p0(x),
        g_lo=lambda t: c * problem.g_lo(t),
        g_hi=lambda t: c * problem.g_hi(t),
    )


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


def reference_slab_source_averages(problem, faces, t0, t1):
    """``slab_source_averages`` summing its 9 weighted rows with Python's
    ``sum``, a temporary per row: the form that ``np.add.reduce`` replaced,
    kept as its reference."""
    from ltsheat.scheme import _GAUSS_NODES, _TENSOR_WEIGHTS, _broadcast_return

    faces = np.asarray(faces, dtype=float)
    xc = 0.5 * (faces[:-1] + faces[1:])
    hx = np.diff(faces)
    t0, t1 = np.asarray(t0, dtype=float)[..., None], np.asarray(t1, dtype=float)[..., None]
    nodes = _GAUSS_NODES.reshape((3,) + (1,) * max(t0.ndim, t1.ndim))
    xs = (xc + 0.5 * hx * nodes)[:, None]
    ts = (0.5 * (t0 + t1) + 0.5 * (t1 - t0) * nodes)[None]
    shape = np.broadcast_shapes(xs.shape, ts.shape)
    vals = _broadcast_return(problem.source(xs, ts), shape, "source")
    weighted = _TENSOR_WEIGHTS * vals.reshape(9, -1)
    total = sum(weighted[1:], weighted[0])
    return total.reshape(shape[2:]) / 4.0


def reference_subdomain_rhs(grid, subdomain, k, state_prev, variant, datum, inputs):
    """The right-hand side of one subdomain step formed from the window's
    sources and boundary values at level k, written apart from the library
    as the reference of ``assemble_subdomain_step``."""
    side, level = grid.sides[subdomain], k - 1
    source, g_exterior = {
        FINE: (inputs.fine_source, inputs.g_lo_fine),
        COARSE: (inputs.coarse_source[None, :], np.array([inputs.g_hi_coarse])),
    }[subdomain]
    rhs = side.widths * source[level] + (side.widths / side.dt) * np.asarray(state_prev, dtype=float)
    rhs[side.exterior] += float(g_exterior[level]) / (0.5 * side.widths[side.exterior])
    d = variant.closure(grid, side)
    rhs[side.iface] += side.sign * datum if d is None else datum / d
    return rhs


def reference_monolithic_window(grid, fine_start, coarse_start, variant, inputs):
    """The monolithic window system assembled entry by entry, one ``add``
    per matrix term in the order of each cell's balance: the loop that
    ``assemble_monolithic_window`` replaced, kept as its reference.  The
    terms of each entry are summed in the order the loop adds them.  Returns
    ``rhs`` and ``sparse``, a scipy CSR matrix, built independently of the
    band storage the library factors."""
    import scipy.sparse

    lay = WindowLayout(grid, variant)
    K, n1, n2 = lay.ratio, lay.n_fine, lay.n_coarse
    d1, d2, dd = grid.d_fine, grid.d_coarse, grid.d_across
    dt1, dt2 = grid.dt_fine, grid.dt_coarse
    h1, h2 = grid.widths_fine, grid.widths_coarse
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs = np.zeros(lay.n_unknowns)

    def add(r: int, c: int, v: float) -> None:
        rows.append(r)
        cols.append(c)
        vals.append(v)

    inv_dist1 = 1.0 / np.diff(grid.centers_fine) if n1 > 1 else np.empty(0)
    inv_dist2 = 1.0 / np.diff(grid.centers_coarse) if n2 > 1 else np.empty(0)

    # fine cell equations, sub-levels k = 1..K
    for k in range(1, K + 1):
        for j in range(n1):
            r = lay.fine(k, j)
            add(r, r, h1[j] / dt1)
            if k == 1:
                rhs[r] += (h1[j] / dt1) * fine_start[j]
            else:
                add(r, lay.fine(k - 1, j), -h1[j] / dt1)
            rhs[r] += h1[j] * inputs.fine_source[k - 1, j]
            if j > 0:
                add(r, r, inv_dist1[j - 1])
                add(r, lay.fine(k, j - 1), -inv_dist1[j - 1])
            else:
                d_bnd = 0.5 * h1[0]
                add(r, r, 1.0 / d_bnd)
                rhs[r] += float(inputs.g_lo_fine[k - 1]) / d_bnd
            if j < n1 - 1:
                add(r, r, inv_dist1[j])
                add(r, lay.fine(k, j + 1), -inv_dist1[j])
            else:
                # interface flux of the fine side at sub-level k
                if variant.interface_scheme == IS1:
                    add(r, r, 1.0 / d1)
                    add(r, lay.iface_fine(k), -1.0 / d1)
                elif variant.master == COARSE:
                    # ghost neighbor equals the coarse value at the window end
                    add(r, r, 1.0 / dd)
                    add(r, lay.coarse(0), -1.0 / dd)
                else:
                    # flux equals the coarse-side flux with ghost = time mean
                    add(r, lay.coarse(0), -1.0 / dd)
                    for kk in range(1, K + 1):
                        add(r, lay.fine(kk, n1 - 1), (1.0 / K) / dd)

    # coarse cell equations at the window end
    for j in range(n2):
        r = lay.coarse(j)
        add(r, r, h2[j] / dt2)
        rhs[r] += (h2[j] / dt2) * coarse_start[j] + h2[j] * inputs.coarse_source[j]
        if j < n2 - 1:
            add(r, r, inv_dist2[j])
            add(r, lay.coarse(j + 1), -inv_dist2[j])
        else:
            d_bnd = 0.5 * h2[-1]
            add(r, r, 1.0 / d_bnd)
            rhs[r] += inputs.g_hi_coarse / d_bnd
        if j > 0:
            add(r, r, inv_dist2[j - 1])
            add(r, lay.coarse(j - 1), -inv_dist2[j - 1])
        else:
            # interface flux of the coarse side (enters with + sign)
            if variant.interface_scheme == IS1:
                add(r, r, 1.0 / d2)
                add(r, lay.iface_coarse(), -1.0 / d2)
            else:
                # both masters: flux (coarse cell - time mean of fine cell) / d
                add(r, r, 1.0 / dd)
                for kk in range(1, K + 1):
                    add(r, lay.fine(kk, n1 - 1), -(1.0 / K) / dd)

    # interface conditions (is1 only; is2 has them substituted above)
    if variant.interface_scheme == IS1:
        if variant.master == COARSE:
            for k in range(1, K + 1):
                r = lay.iface_fine(k)
                add(r, lay.iface_fine(k), 1.0)
                add(r, lay.iface_coarse(), -1.0)
            r = lay.iface_coarse()
            add(r, lay.coarse(0), dt2 / d2)
            add(r, lay.iface_coarse(), -dt2 / d2)
            for k in range(1, K + 1):
                add(r, lay.iface_fine(k), -dt1 / d1)
                add(r, lay.fine(k, n1 - 1), dt1 / d1)
        else:
            for k in range(1, K + 1):
                r = lay.iface_fine(k)
                add(r, lay.iface_fine(k), 1.0 / d1)
                add(r, lay.fine(k, n1 - 1), -1.0 / d1)
                add(r, lay.coarse(0), -1.0 / d2)
                add(r, lay.iface_coarse(), 1.0 / d2)
            r = lay.iface_coarse()
            add(r, lay.iface_coarse(), dt2)
            for k in range(1, K + 1):
                add(r, lay.iface_fine(k), -dt1)

    # not scipy's CSR conversion: it sums the duplicates of a long row in no
    # fixed order (its index sort is not stable)
    summed: dict[tuple[int, int], float] = {}
    for r, c, v in zip(rows, cols, vals):
        summed[r, c] = summed[r, c] + v if (r, c) in summed else v
    (rows, cols), vals = zip(*summed), list(summed.values())
    matrix = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(lay.n_unknowns, lay.n_unknowns)).tocsr()
    return types.SimpleNamespace(rhs=rhs, sparse=matrix)


def reference_error_report(trajectory, problem):
    """The error report evaluated one window at a time: the loop that
    ``error_report`` replaced with blocks of windows, kept as its reference.
    Each window-end L2 error sums each side as a Python float; each window's
    H1 errors come from one ``discrete_norms`` call per side, summed into the
    global H1 error level by level with Python's ``** 2`` (C ``pow``)."""
    import math

    from ltsheat.diagnostics import ErrorSeries, discrete_norms

    grid, exact = trajectory.grid, problem.exact_solution
    sides = (grid.sides[FINE], grid.sides[COARSE])

    def end_error(side, window):
        cells = getattr(trajectory, side.name)[window * side.levels]
        return cells - exact(side.centers, window * grid.dt_coarse)

    def level_h1(side, window):
        if side.name == FINE:
            t = grid.fine_midtime(window, np.arange(1, side.levels + 1))
            x_bnd, g, face = grid.domain_lo, problem.g_lo, trajectory.fine_face_pressure[window - 1]
        else:
            t = np.array([grid.coarse_midtime(window)])
            x_bnd, g, face = grid.domain_hi, problem.g_hi, trajectory.coarse_face_pressure[window - 1 : window]
        cells = getattr(trajectory, side.name)[(window - 1) * side.levels + 1 : window * side.levels + 1]
        boundary, interface = [None, None], [None, None]
        boundary[side.exterior] = g(t) - exact(x_bnd, t)
        interface[side.iface] = face - exact(grid.interface_x, t)
        _, h1 = discrete_norms(cells - exact(side.centers, t[:, None]), side.widths, boundary, interface)
        return h1

    l2_by_window = np.zeros(grid.n_windows + 1)
    for n in range(grid.n_windows + 1):
        ends = [end_error(side, n) for side in sides]
        l2_by_window[n] = math.sqrt(sum(float(np.sum(e * e * side.widths)) for e, side in zip(ends, sides)))
    h1_global_sq = 0.0
    for window in range(1, grid.n_windows + 1):
        h1 = {side.name: level_h1(side, window).tolist() for side in sides}
        for side in sides:
            for value in h1[side.name]:
                h1_global_sq += side.dt * value ** 2
    return ErrorSeries(
        x=np.concatenate([grid.centers_fine, grid.centers_coarse]),
        space_error=np.concatenate(ends),
        window_times=np.arange(grid.n_windows + 1) * grid.dt_coarse,
        l2_by_window=l2_by_window,
        l2_final=float(l2_by_window[-1]),
        h1_final=math.sqrt(h1[FINE][-1] ** 2 + h1[COARSE][-1] ** 2),
        h1_global=math.sqrt(h1_global_sq),
    )


def window_energy_balance(trajectory, variant, window):
    """The energy balance 1/2 dE + D = I of one window of a march with zero
    source and boundary data, E = sum h p^2 over both sides.  Summing each
    implicit step's cell balance times dt p^k (by parts over the faces) gives,
    per step of a side, the dissipation 1/2 sum h (p^k - p^(k-1))^2 +
    dt (sum over interior faces of (dp)^2 / d + p_ext^2 / (h_ext / 2)), and
    the interface term dt p_edge u times the side's flux sign, u being the
    stored interface flux.  Returns ``half_delta_e``, ``dissipation`` and
    ``interface``; ``jump``, the form that I takes where the slave's datum
    equals the master's fresh datum, minus the time-weighted squared interface
    fluxes over each side's own half cell, and for is2-coarse also over the
    coarse half cell the spread of the fine fluxes about their mean; and
    ``scale``, the sum of the magnitudes of every product in the steps'
    balances, dt |p^k| (|A| |p^k| + |b|), on which each cell's solve residual
    is a few roundoffs."""
    grid = trajectory.grid
    half_delta_e = dissipation = interface = scale = 0.0
    flux = {FINE: trajectory.fine_flux[window - 1], COARSE: trajectory.coarse_flux[window - 1 : window]}
    for side in grid.sides.values():
        cells = getattr(trajectory, side.name)[(window - 1) * side.levels : window * side.levels + 1]
        new, old, u = cells[1:], cells[:-1], flux[side.name]
        edge, ext, h_ext = new[:, side.iface], new[:, side.exterior], 0.5 * side.widths[side.exterior]
        inv_d = 1.0 / np.diff(side.centers)
        half_delta_e += 0.5 * float((cells[-1] ** 2 - cells[0] ** 2) @ side.widths)
        dissipation += float(np.sum(0.5 * (new - old) ** 2 @ side.widths))
        dissipation += side.dt * float(np.sum(np.diff(new) ** 2 @ inv_d) + np.sum(ext**2) / h_ext)
        interface += side.sign * side.dt * float(edge @ u)
        size, pair = np.abs(new), np.abs(new[:, 1:]) + np.abs(new[:, :-1])
        scale += float(np.sum((size * (size + np.abs(old))) @ side.widths))
        scale += side.dt * float(np.sum(pair**2 @ inv_d) + np.sum(ext**2) / h_ext)
        scale += side.dt * float(np.abs(edge) @ (np.abs(u) + 2.0 * np.abs(edge) / side.d_own))
    fine_u, coarse_u = flux[FINE], float(flux[COARSE][0])
    jump = grid.d_fine * grid.dt_fine * float(fine_u @ fine_u) + grid.d_coarse * grid.dt_coarse * coarse_u**2
    if variant == Variant("is2", COARSE):
        jump += grid.d_coarse * grid.dt_fine * float(np.sum((fine_u - coarse_u) ** 2))
    return types.SimpleNamespace(
        half_delta_e=half_delta_e, dissipation=dissipation, interface=interface, jump=-jump, scale=scale
    )
