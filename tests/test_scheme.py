import math
import types

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ltsheat import (
    DimensionError,
    GridConfig,
    SolveMode,
    WindowLayout,
    assemble_composite_step,
    assemble_monolithic_window,
    assemble_subdomain_step,
    build_composite_grid,
    manufactured_problem,
    march,
    precompute_window_inputs,
    solve_linear,
    zero_problem,
)
from ltsheat import scheme
from ltsheat.scheme import VARIANTS, Problem, Variant, WindowInputs, _broadcast_return, slab_source_averages
from tests.conftest import (
    jittered_widths,
    reference_monolithic_window,
    reference_subdomain_rhs,
    scaled_problem,
    tridiagonal_matrix,
)


# -- manufactured problem ------------------------------------------------------


def test_manufactured_point_values(bump_problem):
    assert float(bump_problem.exact_solution(0.15, 0.1)) == pytest.approx(math.exp(1.1675), rel=1e-14)
    assert float(bump_problem.source(0.0, 0.0)) == pytest.approx(30.0 / math.e, rel=1e-14)
    x = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(bump_problem.p0(x), bump_problem.exact_solution(x, 0.0), rtol=1e-15)
    assert float(bump_problem.g_lo(0.1)) == pytest.approx(math.exp(0.8), rel=1e-14)
    assert float(bump_problem.g_hi(0.0)) == pytest.approx(math.exp(-30.0), rel=1e-12)


def test_manufactured_source_matches_derivatives(bump_problem):
    # finite differences of the exact solution reproduce f = dp/dt - d2p/dx2
    p = bump_problem.exact_solution
    x, t, eps = 0.3, 0.05, 1e-5
    dpdt = (p(x, t + eps) - p(x, t - eps)) / (2 * eps)
    d2pdx2 = (p(x + eps, t) - 2 * p(x, t) + p(x - eps, t)) / eps**2
    assert float(bump_problem.source(x, t)) == pytest.approx(dpdt - d2pdx2, rel=1e-5)


def test_homogeneous_boundary_mode():
    prob = manufactured_problem(homogeneous_boundary=True)
    assert float(prob.g_lo(0.05)) == 0.0
    assert float(prob.g_hi(0.05)) == 0.0
    assert float(prob.exact_solution(0.0, 0.05)) != 0.0


# -- source quadrature ---------------------------------------------------------


def test_cell_average_constant_source():
    prob = Problem(
        source=lambda x, t: np.full(np.broadcast(np.asarray(x), np.asarray(t)).shape, 3.5),
        p0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        g_lo=lambda t: 0.0 * np.asarray(t),
        g_hi=lambda t: 0.0 * np.asarray(t),
    )
    assert slab_source_averages(prob, np.array([0.2, 0.3]), 0.0, 0.01)[0] == pytest.approx(3.5, rel=1e-15)


def test_cell_average_bilinear_exact():
    prob = Problem(
        source=lambda x, t: np.asarray(x) * np.asarray(t),
        p0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        g_lo=lambda t: 0.0 * np.asarray(t),
        g_hi=lambda t: 0.0 * np.asarray(t),
    )
    assert slab_source_averages(prob, np.array([0.0, 1.0]), 0.0, 1.0)[0] == pytest.approx(0.25, rel=1e-14)


def test_cell_average_matches_adaptive_quadrature(bump_grid, bump_problem):
    cell, slab = (0.14, 0.15), (0.098, 0.1)
    value = float(slab_source_averages(bump_problem, np.array(cell), *slab)[0])
    f = lambda t, x: float(bump_problem.source(x, t))  # noqa: E731
    integral, est = scipy.integrate.dblquad(f, cell[0], cell[1], slab[0], slab[1], epsabs=1e-13, epsrel=1e-13)
    expected = integral / ((cell[1] - cell[0]) * (slab[1] - slab[0]))
    assert value == pytest.approx(expected, abs=1e-10 * max(1.0, abs(expected)))
    # all K = 10 fine slabs of a window at once equal one call per slab, bitwise
    levels = np.arange(1, bump_grid.ratio + 1)
    stacked = slab_source_averages(bump_problem, bump_grid.faces_fine, *bump_grid.fine_slab(3, levels))
    per_slab = [
        slab_source_averages(bump_problem, bump_grid.faces_fine, *bump_grid.fine_slab(3, k)) for k in levels
    ]
    assert stacked.shape == (10, 25)
    assert stacked.tobytes() == np.array(per_slab).tobytes()


def _reference_averages(problem, faces, t0, t1):
    """Slab source averages summed node by node in the documented order: x
    node i, then t node j, adding (w_i w_j) f in turn, then dividing by 4."""
    nodes, weights = np.polynomial.legendre.leggauss(3)
    faces = np.asarray(faces, dtype=float)
    xc, hx = 0.5 * (faces[:-1] + faces[1:]), np.diff(faces)
    t0, t1 = np.asarray(t0, dtype=float)[..., None], np.asarray(t1, dtype=float)[..., None]
    total = None
    for i in range(3):
        x = xc + 0.5 * hx * nodes[i]
        for j in range(3):
            t = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * nodes[j]
            f = np.broadcast_to(problem.source(x, t), np.broadcast_shapes(x.shape, t.shape))
            term = (weights[i] * weights[j]) * f
            total = term if total is None else total + term
    return total / 4.0


def _quadrature_cases():
    rng = np.random.default_rng(9)
    jittered = np.concatenate([[0.0], np.cumsum(rng.uniform(0.8, 1.2, 13))]) * 0.03
    levels = np.arange(1, 11)
    fine_32 = build_composite_grid(GridConfig(0.0, 1.0, 0.25, 800, 480, 0.002 / 32, 0.02 / 32, 0.1))  # s = 32
    return {
        "scalar-bounds": (np.linspace(0.0, 0.25, 26), 0.038, 0.04),
        "level-bounds": (np.linspace(0.0, 0.25, 26), 0.02 + 0.002 * (levels - 1), 0.02 + 0.002 * levels),
        "jittered-faces": (jittered, 0.05 + 0.0013 * (levels - 1), 0.05 + 0.0013 * levels),
        "one-cell": (np.array([0.14, 0.15]), np.array([0.0, 0.5]), np.array([0.5, 1.0])),
        "one-cell-one-slab": (np.array([0.14, 0.15]), 0.038, 0.04),  # a single column to sum
        "s32-fine-mesh": (fine_32.faces_fine, *fine_32.fine_slab(7, levels)),
    }


@pytest.mark.parametrize("case", list(_quadrature_cases()))
def test_slab_averages_sum_the_gauss_points_in_the_documented_order(bump_problem, case):
    faces, t0, t1 = _quadrature_cases()[case]
    got = slab_source_averages(bump_problem, faces, t0, t1)
    want = _reference_averages(bump_problem, faces, t0, t1)
    assert got.shape == want.shape == np.broadcast_shapes(np.shape(t0), np.shape(t1)) + (faces.size - 1,)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ratio", [1, 10, 50])
def test_window_inputs_evaluate_the_source_twice_per_block(monkeypatch, ratio):
    # a march evaluates the source once per side and block of consecutive
    # windows, a block holding as many windows of 9 K n_fine points as fit in
    # the budget: 2 evaluations per block, ceil(n_windows / block) blocks
    grid = build_composite_grid(GridConfig(0.0, 1.0, 0.25, 25, 15, 0.02 / ratio, 0.02, 0.1))
    bump, calls = manufactured_problem(), []

    def source(x, t):
        calls.append(np.broadcast_shapes(np.shape(x), np.shape(t)))
        return bump.source(x, t)

    problem = Problem(source, bump.p0, bump.g_lo, bump.g_hi)
    points = 9 * ratio * grid.n_fine
    for budget in (2**16, points - 1, 2 * points, 3 * points + 1):
        monkeypatch.setattr(scheme, "_BLOCK_POINTS", budget)
        block = max(1, budget // points)
        del calls[:]
        march(grid, VARIANTS[0], SolveMode.single_iteration(), problem)
        assert len(calls) == 2 * math.ceil(grid.n_windows / block)
        sizes = [min(block, grid.n_windows - first) for first in range(0, grid.n_windows, block)]
        assert calls == [shape for b in sizes for shape in ((3, 3, b, ratio, 25), (3, 3, b, 15))]


def test_window_inputs_of_a_block_are_views_of_one_evaluation(bump_grid, bump_problem):
    block = precompute_window_inputs(bump_grid, range(2, 5), bump_problem)
    assert [inputs.window for inputs in block] == [2, 3, 4]
    assert block[0].fine_source.base is block[2].fine_source.base
    assert block[0].operators is block[2].operators
    single = precompute_window_inputs(bump_grid, 3, bump_problem)
    assert block[1].fine_source.tobytes() == single.fine_source.tobytes()
    assert (block[1].g_lo_coarse, block[1].g_hi_coarse) == (single.g_lo_coarse, single.g_hi_coarse)


def _problem_with_source(source):
    zero = zero_problem()
    return Problem(source, zero.p0, zero.g_lo, zero.g_hi)


def test_source_of_x_only_broadcasts_to_the_nodes(bump_grid):
    returned = []

    def x_only(x, t):
        value = np.sin(3.0 * x)
        returned.append((value, value.copy()))
        return value

    both = _problem_with_source(lambda x, t: np.sin(3.0 * x) + 0.0 * t)
    for window in (1, bump_grid.n_windows):
        got = precompute_window_inputs(bump_grid, window, _problem_with_source(x_only))
        want = precompute_window_inputs(bump_grid, window, both)
        assert got.fine_source.shape == (bump_grid.ratio, bump_grid.n_fine)
        assert got.fine_source.tobytes() == want.fine_source.tobytes()
        assert got.coarse_source.tobytes() == want.coarse_source.tobytes()
    # the returned arrays are read, never written
    assert all(array.tobytes() == copy.tobytes() for array, copy in returned)


def test_scalar_data_drive_a_march(bump_grid):
    problem = Problem(lambda x, t: 3.0, lambda x: 0.0, lambda t: 0.0, lambda t: 0.0)
    inputs = precompute_window_inputs(bump_grid, 2, problem)
    assert inputs.fine_source.shape == (bump_grid.ratio, bump_grid.n_fine)
    np.testing.assert_allclose(inputs.fine_source, 3.0, rtol=1e-15)
    np.testing.assert_allclose(inputs.coarse_source, 3.0, rtol=1e-15)
    assert inputs.g_lo_fine.shape == (bump_grid.ratio,)
    trajectory, report = march(bump_grid, VARIANTS[0], SolveMode.converged(1e-8), problem)
    assert report.all_converged
    assert np.all(trajectory.fine[1:] > 0.0) and np.all(trajectory.coarse[1:] > 0.0)


def test_source_of_the_wrong_shape_raises(bump_grid):
    problem = _problem_with_source(lambda x, t: np.zeros(7))
    with pytest.raises(DimensionError, match=r"source returned shape \(7,\).*\(3, 3, 10, 25\)"):
        precompute_window_inputs(bump_grid, 1, problem)
    zero = zero_problem()
    problem = Problem(zero.source, zero.p0, lambda t: np.zeros(3), zero.g_hi)
    with pytest.raises(DimensionError, match=r"g_lo returned shape \(3,\).*\(10,\)"):
        precompute_window_inputs(bump_grid, 1, problem)


def test_initial_value_of_the_wrong_shape_raises(bump_grid):
    zero = zero_problem()
    problem = Problem(zero.source, lambda x: np.zeros(3), zero.g_lo, zero.g_hi)
    with pytest.raises(DimensionError, match=r"p0 returned shape \(3,\).*\(25,\)"):
        march(bump_grid, VARIANTS[0], SolveMode.converged(), problem)


def test_left_boundary_value_of_the_wrong_shape_raises_at_the_coarse_midtime(bump_grid):
    # K values broadcast to the K fine midtimes, not to the one coarse midtime
    zero = zero_problem()
    problem = Problem(zero.source, zero.p0, lambda t: np.zeros(bump_grid.ratio), zero.g_hi)
    with pytest.raises(DimensionError, match=r"g_lo returned shape \(10,\).*\(\)"):
        precompute_window_inputs(bump_grid, 1, problem)


def test_right_boundary_value_of_the_wrong_shape_raises(bump_grid):
    zero = zero_problem()
    problem = Problem(zero.source, zero.p0, zero.g_lo, lambda t: np.zeros(2))
    with pytest.raises(DimensionError, match=r"g_hi returned shape \(2,\).*\(\)"):
        precompute_window_inputs(bump_grid, 1, problem)


# -- subdomain assembly --------------------------------------------------------


def one_cell_grid():
    # single fine cell of width 1 with unit time step
    return build_composite_grid(GridConfig(0.0, 2.0, 1.0, 1, 2, 1.0, 1.0, 1.0))


def test_single_cell_hand_assembly():
    grid = one_cell_grid()
    system = assemble_subdomain_step(
        grid, "fine", 1, np.array([1.0]), Variant("is1", "coarse"), 0.0,
        precompute_window_inputs(grid, 1, zero_problem()),
    )
    _, diag, _ = system.bands
    assert diag[0] == pytest.approx(1.0 + 2.0 / 0.5)
    assert system.rhs[0] == pytest.approx(1.0)
    assert solve_linear(system)[0] == pytest.approx(0.2, rel=1e-14)


def test_zero_data_gives_zero_solution(bump_grid):
    inputs = precompute_window_inputs(bump_grid, 1, zero_problem())
    system = assemble_subdomain_step(
        bump_grid, "fine", 1, np.zeros(bump_grid.n_fine), Variant("is2", "fine"), 0.0, inputs
    )
    assert np.all(system.rhs == 0.0)
    assert np.all(solve_linear(system) == 0.0)


def test_time_level_outside_range_raises(bump_grid):
    # k runs over 1..levels on both sides: K on the fine side (1 on the one-cell
    # grid), always 1 on the coarse side
    for grid in (one_cell_grid(), bump_grid):
        inputs = precompute_window_inputs(grid, 1, zero_problem())
        for name, side in grid.sides.items():
            prev = np.zeros(side.widths.size)
            for k in (None, 0, side.levels + 1):
                with pytest.raises(DimensionError, match="time level"):
                    assemble_subdomain_step(grid, name, k, prev, VARIANTS[0], 0.0, inputs)
            assemble_subdomain_step(grid, name, side.levels, prev, VARIANTS[0], 0.0, inputs)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_each_variant_closes_the_slave_by_dirichlet_and_the_master_by_neumann(bump_grid, variant):
    # the slave's interface cell gets 1/d_own (is1) or 1/d_across (is2) on its
    # diagonal and the master nothing; only an is1 slave's face pressure is
    # its datum, every other one is extrapolated from the interface cell
    inputs = precompute_window_inputs(bump_grid, 1, zero_problem())
    rng = np.random.default_rng(7)
    for name, side in bump_grid.sides.items():
        slave = name == variant.slave
        d = {"is1": side.d_own, "is2": bump_grid.d_across}[variant.interface_scheme]
        diag = assemble_subdomain_step(bump_grid, name, 1, np.zeros(side.widths.size), variant, 0.0, inputs).bands[1]
        neumann = inputs.operators.get(name).bands[1]
        assert diag[side.iface] == (neumann[side.iface] + 1.0 / d if slave else neumann[side.iface])
        assert np.delete(diag, side.iface).tobytes() == np.delete(neumann, side.iface).tobytes()
        datum, p_edge = 0.3, rng.uniform(-1.0, 1.0, side.levels)
        flux, pressure = scheme.interface_traces(bump_grid, side, variant, datum, p_edge)
        want = side.sign * (datum - p_edge) / d if slave else np.full(side.levels, datum)
        assert flux.tobytes() == want.tobytes()
        assert np.all(pressure == datum) == (slave and variant.interface_scheme == "is1")


def test_interior_flux_antisymmetry(bump_grid, bump_problem):
    # column sums of the flux part vanish: what remains is mass plus closure terms
    inputs = precompute_window_inputs(bump_grid, 1, bump_problem)
    system = assemble_subdomain_step(
        bump_grid, "coarse", 1, np.zeros(bump_grid.n_coarse), Variant("is2", "coarse"), 0.3, inputs
    )
    col_sums = np.asarray(tridiagonal_matrix(system).sum(axis=0)).ravel()
    expected = bump_grid.widths_coarse / bump_grid.dt_coarse
    expected = expected.copy()
    expected[-1] += 1.0 / (0.5 * bump_grid.widths_coarse[-1])  # exterior Dirichlet face
    np.testing.assert_allclose(col_sums, expected, rtol=1e-12, atol=1e-12)


# -- monolithic window system --------------------------------------------------


def test_monolithic_unknown_counts(bump_grid, bump_problem):
    start = (bump_problem.p0(bump_grid.centers_fine), bump_problem.p0(bump_grid.centers_coarse))
    inputs = precompute_window_inputs(bump_grid, 1, bump_problem)
    is1 = assemble_monolithic_window(bump_grid, *start, Variant("is1", "coarse"), inputs)
    is2 = assemble_monolithic_window(bump_grid, *start, Variant("is2", "coarse"), inputs)
    assert is1.n == 25 * 10 + 15 + (10 + 1) == 276
    assert is2.n == 25 * 10 + 15 == 265


def test_monolithic_zero_data_is_zero():
    grid = build_composite_grid(GridConfig(0.0, 1.0, 0.4, 4, 4, 0.01, 0.03, 0.06))
    inputs = precompute_window_inputs(grid, 1, zero_problem())
    for variant in VARIANTS:
        system = assemble_monolithic_window(grid, np.zeros(4), np.zeros(4), variant, inputs)
        assert np.all(system.rhs == 0.0)
        assert np.all(solve_linear(system) == 0.0)


def _oracle_like_grid(rng, ratio):
    """One window of 100 fine and 30 coarse cells with widths jittered by up to
    20 % and a random interface, as the benchmark's oracle cases are built."""

    def jittered(n, length):
        w = 1.0 + rng.uniform(-0.2, 0.2, n)
        return tuple(float(v) for v in w * (length / w.sum()))

    x_iface = float(rng.uniform(0.3, 0.7))
    return build_composite_grid(GridConfig(
        0.0, 1.0, x_iface, 100, 30, 0.01 / ratio, 0.01, 0.01, jittered(100, x_iface), jittered(30, 1.0 - x_iface)
    ))


def _assembly_cases():
    rng = np.random.default_rng(401)
    yield from (_oracle_like_grid(rng, ratio) for ratio in (10, 20, 50))
    for n_fine, n_coarse in ((1, 6), (6, 1), (1, 1)):
        yield build_composite_grid(GridConfig(0.0, 1.0, 0.4, n_fine, n_coarse, 0.01, 0.03, 0.06))
    yield build_composite_grid(GridConfig(0.0, 1.0, 0.25, 25, 15, 0.02, 0.02, 0.1))  # K = 1


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_array_assembly_matches_the_loop_reference(bump_problem, variant):
    for grid in _assembly_cases():
        start = (bump_problem.p0(grid.centers_fine), bump_problem.p0(grid.centers_coarse))
        inputs = precompute_window_inputs(grid, 1, bump_problem)
        got = assemble_monolithic_window(grid, *start, variant, inputs)
        want = reference_monolithic_window(grid, *start, variant, inputs)
        assert got.rhs.tobytes() == want.rhs.tobytes()
        want_csc = want.sparse.tocsc()
        data, rowind, colptr = got.sparse
        assert colptr.tobytes() == want_csc.indptr.astype(np.intc).tobytes()
        assert rowind.tobytes() == want_csc.indices.astype(np.intc).tobytes()
        assert data.tobytes() == want_csc.data.tobytes()


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_monolithic_solve_matches_scipy_splu(bump_problem, variant):
    # scipy's splu runs the same SuperLU factorization with the same ordering,
    # so it is the bit-for-bit reference of the direct gstrf call
    for grid in _assembly_cases():
        start = (bump_problem.p0(grid.centers_fine), bump_problem.p0(grid.centers_coarse))
        system = assemble_monolithic_window(grid, *start, variant, precompute_window_inputs(grid, 1, bump_problem))
        matrix = scipy.sparse.csc_matrix(system.sparse, shape=(system.n, system.n))
        want = scipy.sparse.linalg.splu(matrix, permc_spec="MMD_AT_PLUS_A").solve(system.rhs)
        assert solve_linear(system).tobytes() == want.tobytes()


def test_monolithic_assembly_stays_off_the_iterative_path():
    # the oracle checks the iterative solver, so it shares none of its step code
    names, codes = set(), [assemble_monolithic_window.__code__]
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes += [const for const in code.co_consts if isinstance(const, types.CodeType)]
    iterative = {
        "_step_bands", "StepOperators", "closure", "face_datum", "interface_traces",
        "assemble_subdomain_step", "sides", "operators",
    }
    assert not names & iterative


def recover_interface_fluxes(grid, problem, window, fine_start, coarse_start, mono, variant):
    """Recover both sides' interface fluxes from the cell balance equations of
    the monolithic solution: independent of the assembly internals."""
    inputs = precompute_window_inputs(grid, window, problem)
    lay = WindowLayout(grid, variant)
    K, n1 = grid.ratio, grid.n_fine
    fine = np.array([[mono[lay.fine(k, j)] for j in range(n1)] for k in range(1, K + 1)])
    coarse = np.array([mono[lay.coarse(j)] for j in range(grid.n_coarse)])
    u_fine = np.zeros(K)
    prev = np.asarray(fine_start, dtype=float)
    for k in range(1, K + 1):
        p = fine[k - 1]
        # left boundary flux, then cascade the balance across cells
        u = (p[0] - float(inputs.g_lo_fine[k - 1])) / (0.5 * grid.widths_fine[0])
        for j in range(n1):
            u = (grid.widths_fine[j] / grid.dt_fine) * (p[j] - prev[j]) - grid.widths_fine[j] * inputs.fine_source[k - 1, j] + u
        u_fine[k - 1] = u
        prev = p
    u = (inputs.g_hi_coarse - coarse[-1]) / (0.5 * grid.widths_coarse[-1])
    for j in range(grid.n_coarse - 1, -1, -1):
        u = u - (
            (grid.widths_coarse[j] / grid.dt_coarse) * (coarse[j] - coarse_start[j])
            - grid.widths_coarse[j] * inputs.coarse_source[j]
        )
    u_coarse = u
    return fine, coarse, u_fine, u_coarse


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_monolithic_satisfies_interface_conditions(bump_grid, bump_problem, variant):
    grid = bump_grid
    start_f = bump_problem.p0(grid.centers_fine)
    start_c = bump_problem.p0(grid.centers_coarse)
    inputs = precompute_window_inputs(grid, 1, bump_problem)
    mono = solve_linear(assemble_monolithic_window(grid, start_f, start_c, variant, inputs))
    fine, coarse, u_fine, u_coarse = recover_interface_fluxes(
        grid, bump_problem, 1, start_f, start_c, mono, variant
    )
    lay = WindowLayout(grid, variant)
    K = grid.ratio
    dt1, dt2, dd = grid.dt_fine, grid.dt_coarse, grid.d_across
    scale = max(1.0, np.max(np.abs(u_fine)), abs(u_coarse))
    flux_balance = abs(dt2 * u_coarse - dt1 * np.sum(u_fine))
    if variant.master == "coarse":
        # coarse master: integrated flux continuity plus constant pressure data
        assert flux_balance <= 1e-12 * scale
        if variant.interface_scheme == "is1":
            pe_f = mono[[lay.iface_fine(k) for k in range(1, K + 1)]]
            pe_c = mono[lay.iface_coarse()]
            assert np.max(np.abs(pe_f - pe_c)) <= 1e-12 * max(1.0, abs(pe_c))
        else:
            ghosts = fine[:, -1] + dd * u_fine
            assert np.max(np.abs(ghosts - coarse[0])) <= 1e-12 * max(1.0, abs(coarse[0]))
    else:
        # fine master: equal fluxes plus averaged pressure data
        assert np.max(np.abs(u_fine - u_coarse)) <= 1e-12 * scale
        if variant.interface_scheme == "is1":
            pe_f = mono[[lay.iface_fine(k) for k in range(1, K + 1)]]
            pe_c = mono[lay.iface_coarse()]
            assert abs(dt2 * pe_c - dt1 * np.sum(pe_f)) <= 1e-12 * max(1.0, abs(pe_c))
        else:
            ghost_c = coarse[0] - dd * u_coarse
            assert abs(dt2 * ghost_c - dt1 * np.sum(fine[:, -1])) <= 1e-12 * max(1.0, abs(ghost_c))


def test_ratio_one_is2_matches_single_domain_rows(bump_problem):
    grid = build_composite_grid(GridConfig(0.0, 1.0, 0.25, 25, 15, 0.02, 0.02, 0.1))
    start_f = bump_problem.p0(grid.centers_fine)
    start_c = bump_problem.p0(grid.centers_coarse)
    inputs = precompute_window_inputs(grid, 1, bump_problem)
    for master in ("fine", "coarse"):
        mono = assemble_monolithic_window(grid, start_f, start_c, Variant("is2", master), inputs)
        single = assemble_composite_step(grid, start_f, start_c, inputs)
        dense = scipy.sparse.csc_matrix(mono.sparse, shape=(mono.n, mono.n)).toarray()
        np.testing.assert_allclose(dense, tridiagonal_matrix(single).toarray(), rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(mono.rhs, single.rhs, rtol=1e-13, atol=0.0)


def test_ratio_one_is1_matches_single_domain_solution(bump_problem):
    grid = build_composite_grid(GridConfig(0.0, 1.0, 0.25, 25, 15, 0.02, 0.02, 0.1))
    start_f = bump_problem.p0(grid.centers_fine)
    start_c = bump_problem.p0(grid.centers_coarse)
    inputs = precompute_window_inputs(grid, 1, bump_problem)
    single = solve_linear(assemble_composite_step(grid, start_f, start_c, inputs))
    for master in ("fine", "coarse"):
        mono = solve_linear(assemble_monolithic_window(grid, start_f, start_c, Variant("is1", master), inputs))
        np.testing.assert_allclose(mono[: grid.n_fine + grid.n_coarse], single, rtol=1e-12, atol=1e-14)


def test_variant_parsing():
    from ltsheat import ConfigurationError

    assert Variant.parse("IS2-Fine").name == "is2-fine"
    with pytest.raises(ConfigurationError):
        Variant.parse("is3-fine")
    assert Variant("is1", "coarse").slave == "fine"


def test_steps_of_a_window_share_one_factored_matrix(bump_grid, bump_problem):
    inputs = precompute_window_inputs(bump_grid, 1, bump_problem)
    prev = bump_problem.p0(bump_grid.centers_fine)
    first, second = (
        assemble_subdomain_step(bump_grid, "fine", k, prev, Variant("is2", "coarse"), 1.0, inputs) for k in (1, 2)
    )
    other = assemble_subdomain_step(bump_grid, "fine", 1, prev, Variant("is2", "fine"), 1.0, inputs)
    assert first.lu is second.lu and first.lu is not other.lu
    assert first.lu is inputs.operators.get("fine", bump_grid.d_across)
    assert not first.bands[1].flags.writeable
    # the shared factors solve exactly like a fresh factorization
    fresh = type(first)(rhs=first.rhs, lu=scheme.TridiagonalLU.factor(tuple(b.copy() for b in first.bands)))
    assert solve_linear(first).tobytes() == solve_linear(fresh).tobytes()
    other_grid = build_composite_grid(GridConfig(0.0, 1.0, 0.25, 25, 15, 0.002, 0.02, 0.1))
    with pytest.raises(DimensionError):
        precompute_window_inputs(other_grid, 1, bump_problem, inputs.operators)


def test_window_outside_the_horizon_raises(bump_grid, bump_problem):
    # slabs before t = 0, after t_end or between windows are no window of the
    # grid, and a window number is an integer even where a float names one
    for window in (0, -3, bump_grid.n_windows + 1, bump_grid.n_windows + 5, 1.5, 2.0):
        with pytest.raises(DimensionError, match="window"):
            precompute_window_inputs(bump_grid, window, bump_problem)
    assert precompute_window_inputs(bump_grid, bump_grid.n_windows, bump_problem).window == bump_grid.n_windows
    assert precompute_window_inputs(bump_grid, np.int64(2), bump_problem).window == 2
    n = bump_grid.n_windows
    for windows in (range(0, 3), range(n, n + 2), range(3, 3), range(1, n + 1, 2)):
        with pytest.raises(DimensionError, match="windows"):
            precompute_window_inputs(bump_grid, windows, bump_problem)
    assert len(precompute_window_inputs(bump_grid, range(1, n + 1), bump_problem)) == n


@settings(max_examples=40, deadline=None)
@given(
    ratio=st.sampled_from([1, 2, 5, 10, 20, 50]),
    cells=st.sampled_from([(10, 10), (20, 5), (5, 20), (40, 8), (1, 3), (3, 1)]),
    x_iface=st.sampled_from([0.25, 0.5, 0.8]),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([1.0, 2.0**-20, 2.0**20]),
)
def test_step_right_hand_sides_match_the_level_by_level_reference(ratio, cells, x_iface, seed, scale):
    # the convergence tests' grid space with one-cell sides, jittered widths
    # and scaled data: every variant, side and level, bit for bit
    rng = np.random.default_rng(seed)
    widths = (jittered_widths(rng, cells[0], x_iface), jittered_widths(rng, cells[1], 1.0 - x_iface))
    grid = build_composite_grid(GridConfig(0.0, 1.0, x_iface, *cells, 0.01 / ratio, 0.01, 0.03, *widths))
    problem = scaled_problem(manufactured_problem(), scale)
    for inputs in precompute_window_inputs(grid, range(1, grid.n_windows + 1), problem):
        for name, side in grid.sides.items():
            prev = scale * rng.uniform(-1.0, 1.0, side.widths.size)
            datum = scale * float(rng.uniform(-1.0, 1.0))
            for variant in VARIANTS:
                for k in range(1, side.levels + 1):
                    args = (grid, name, k, prev, variant, datum, inputs)
                    assert assemble_subdomain_step(*args).rhs.tobytes() == reference_subdomain_rhs(*args).tobytes()


def test_zero_window_data_give_zero_loads(bump_grid):
    # the homogeneous window of the interface gain
    ratio, n_fine, n_coarse = bump_grid.ratio, bump_grid.n_fine, bump_grid.n_coarse
    operators = scheme.StepOperators(bump_grid)
    inputs = WindowInputs(1, np.zeros((ratio, n_fine)), np.zeros(n_coarse), np.zeros(ratio), 0.0, 0.0, operators)
    for name, side in bump_grid.sides.items():
        load, exterior = inputs.per_side[name]
        assert load.shape == (side.levels, side.widths.size) and exterior.shape == (side.levels,)
        assert not load.any() and not exterior.any()


def test_a_float_array_of_the_shape_comes_back_as_a_read_only_view():
    kept = np.arange(6.0).reshape(2, 3)
    got = _broadcast_return(kept, (2, 3), "source")
    assert np.shares_memory(got, kept) and not got.flags.writeable and kept.flags.writeable
    # other returns are converted or broadcast, never written
    assert _broadcast_return(np.arange(6).reshape(2, 3), (2, 3), "source").dtype == np.float64
    assert not _broadcast_return(np.arange(3.0), (2, 3), "source").flags.writeable
    with pytest.raises(DimensionError, match="source returned shape"):
        _broadcast_return(kept.T, (2, 3), "source")


def test_a_problem_that_keeps_its_returns_gets_them_back_unwritten(bump_grid):
    kept = []

    def keep(value, *args):
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        kept.append(np.full(shape, value))
        return kept[-1]

    problem = Problem(
        source=lambda x, t: keep(2.0, x, t),
        p0=lambda x: keep(0.5, x),
        g_lo=lambda t: keep(0.25, t),
        g_hi=lambda t: keep(-0.25, t),
    )
    trajectory, _ = march(bump_grid, VARIANTS[0], SolveMode.converged(), problem)
    assert kept and all(a.flags.writeable and np.all(a == a.flat[0]) for a in kept)
    # the same data as broadcast scalars give the same march
    scalars = Problem(source=lambda x, t: 2.0, p0=lambda x: 0.5, g_lo=lambda t: 0.25, g_hi=lambda t: -0.25)
    expected, _ = march(bump_grid, VARIANTS[0], SolveMode.converged(), scalars)
    assert trajectory.fine.tobytes() == expected.fine.tobytes()
    assert trajectory.coarse.tobytes() == expected.coarse.tobytes()
