import decimal
import math
import types
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltsheat import (
    DimensionError,
    GridConfig,
    SolveMode,
    WindowLayout,
    assemble_monolithic_window,
    build_composite_grid,
    error_report,
    manufactured_problem,
    march,
    observed_order,
    precompute_window_inputs,
    project_fine_to_coarse,
    solve_linear,
    zero_problem,
)
from ltsheat import scheme
from ltsheat.projection import conservativity_defect
from ltsheat.scheme import (
    COARSE,
    FINE,
    VARIANTS,
    Problem,
    StepOperators,
    Variant,
    WindowInputs,
    _broadcast_return,
    assemble_composite_step,
    assemble_subdomain_step,
    interface_traces,
    slab_source_averages,
)
from ltsheat.solver import Trajectory
from tests.conftest import (
    BUMP_CONFIG,
    band_dense,
    band_entries,
    data_scales,
    grid_space,
    jittered_widths,
    reference_monolithic_window,
    reference_slab_source_averages,
    reference_subdomain_rhs,
    scaled_problem,
    solve_modes,
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


def _bump_as_one_expression(x, t):
    """The bump's exact solution and source each as one numpy expression:
    the accuracy and robustness baseline of ``manufactured_problem``'s
    factored form."""
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    exact = np.exp(20.0 * (t - t * t) - 37.0 * x * x + 8.0 * x - 1.0)
    return exact, exact * (20.0 * (1.0 - 2.0 * t) - (8.0 - 74.0 * x) ** 2 + 74.0)


def _worst_errors(x, t, exact, source):
    """The largest error, in eps, of the bump's ``exact`` and ``source``
    values at the float points (x, t) against a 40-digit reference: relative
    to p for the exact solution, and for the source, whose bracket cancels,
    relative to p (|20(1 - 2t)| + (8 - 74x)^2 + 74)."""
    worst = [0, 0]
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for xi, ti, pi, fi in zip(*(map(decimal.Decimal, a.tolist()) for a in (x, t, exact, source))):
            p = (20 * (ti - ti * ti) - 37 * xi * xi + 8 * xi - 1).exp()
            of_t, of_x = 20 * (1 - 2 * ti), (8 - 74 * xi) ** 2
            worst[0] = max(worst[0], abs(pi - p) / p)
            worst[1] = max(worst[1], abs(fi - p * (of_t - of_x + 74)) / (p * (abs(of_t) + of_x + 74)))
    return [float(w) / np.finfo(float).eps for w in worst]


def test_bump_data_are_as_accurate_as_one_expression(bump_problem):
    # the argument shapes a march passes: the quadrature nodes of an s = 1 and
    # an s = 32 window, p0 on cell centers, boundary values on midtimes; plus
    # random points of the domain.  Each case is evaluated in its own shape,
    # and a seeded sample of at most 2000 of its points is checked against a
    # 40-digit reference
    rng = np.random.default_rng(7)
    fine_32 = build_composite_grid(GridConfig(0.0, 1.0, 0.25, 800, 480, 0.002 / 32, 0.02 / 32, 0.1))
    levels = np.arange(1, 11)
    nodes = scheme._GAUSS_NODES.reshape(3, 1, 1)
    cases = []
    for grid in (build_composite_grid(GridConfig(0.0, 1.0, 0.25, 25, 15, 0.002, 0.02, 0.1)), fine_32):
        t0, t1 = (bound[:, None] for bound in grid.fine_slab(3, levels))
        xc, hx = grid.centers_fine, grid.widths_fine
        cases.append(((xc + 0.5 * hx * nodes)[:, None], (0.5 * (t0 + t1) + 0.5 * (t1 - t0) * nodes)[None]))
        cases.append((grid.centers_fine, 0.0))
    midtimes = np.linspace(0.0, 0.1, 33).reshape(3, 11)
    cases += [(0.0, midtimes), (1.0, midtimes), (rng.uniform(0.0, 1.0, 2000), rng.uniform(0.0, 0.1, 2000))]
    points, factored, one = [], [], []
    for x, t in cases:
        shape = np.broadcast_shapes(np.shape(x), np.shape(t))
        pick = rng.choice(math.prod(shape), size=min(2000, math.prod(shape)), replace=False)
        points.append([np.broadcast_to(a, shape).ravel()[pick] for a in (x, t)])
        factored.append([f(x, t).ravel()[pick] for f in (bump_problem.exact_solution, bump_problem.source)])
        one.append([value.ravel()[pick] for value in _bump_as_one_expression(x, t)])
    x, t = (np.concatenate(column) for column in zip(*points))
    got, old = (_worst_errors(x, t, *map(np.concatenate, zip(*form))) for form in (factored, one))
    assert got[0] <= old[0] and got[1] <= old[1], (got, old)
    # scalar arguments give a scalar, as the expression does
    for x, t in ((0.15, 0.1), (np.float64(0.7), 0.0)):
        got = (bump_problem.exact_solution(x, t), bump_problem.source(x, t))
        assert [type(value) for value in got] == [np.float64, np.float64]
        np.testing.assert_allclose(got, _bump_as_one_expression(x, t), rtol=1e-13)


def test_bump_data_are_non_finite_only_where_one_expression_is(bump_problem):
    # each factor is bounded above (by e^5 in t, e^-0.567 in x), so it can
    # only underflow to 0 and never meets an inf
    pool = np.array([0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 1.0, 0.1])
    x, t = pool[:, None], pool[None, :]
    with np.errstate(all="ignore"):
        got = (bump_problem.exact_solution(x, t), bump_problem.source(x, t))
        old = _bump_as_one_expression(x, t)
    for new, ref in zip(got, old):
        assert np.all(np.isfinite(new) | ~np.isfinite(ref))


def test_gauss_rule_is_numpys_bit_for_bit():
    # written out so that no import loads numpy.polynomial; 5/9 would be one ulp off
    nodes, weights = np.polynomial.legendre.leggauss(3)
    assert scheme._GAUSS_NODES.tobytes() == nodes.tobytes()
    assert scheme._GAUSS_WEIGHTS.tobytes() == weights.tobytes()
    assert scheme._GAUSS_WEIGHTS[0] != 5.0 / 9.0


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


@settings(max_examples=40)
@given(config=grid_space(windows=3), scale=data_scales)
def test_slab_averages_keep_the_bytes_of_the_row_by_row_sum(config, scale):
    # one window's fine levels, a block of windows, and the coarse slab with
    # scalar bounds, whose one-cell sides give the single column to sum
    grid = build_composite_grid(config)
    problem = scaled_problem(manufactured_problem(), scale)
    windows, levels = np.arange(1, grid.n_windows + 1), np.arange(1, grid.ratio + 1)
    cases = [
        (grid.faces_fine, *grid.fine_slab(2, levels)),
        (grid.faces_fine, *grid.fine_slab(windows[:, None], levels)),
        (grid.faces_coarse, *grid.coarse_slab(3)),
        (grid.faces_coarse, *grid.coarse_slab(windows)),
    ]
    for faces, t0, t1 in cases:
        got = slab_source_averages(problem, faces, t0, t1)
        assert got.tobytes() == reference_slab_source_averages(problem, faces, t0, t1).tobytes()


def _runs_of(count, size):
    """The lengths of ``count`` windows in runs of ``size`` (at least 1)."""
    size = max(1, size)
    return [min(size, count - first) for first in range(0, count, size)]


@pytest.mark.parametrize("ratio", [1, 10, 50])
def test_window_inputs_evaluate_each_datum_in_budgeted_runs(monkeypatch, ratio):
    # a block holds as many windows of K n_fine = 25 K points as fit in the
    # budget; within it, the fine source (9 x 25 K points a window), the
    # coarse source (9 x 15) and the boundary values (K, 1 and 1) are each
    # evaluated in runs of as many windows as fit, a window over it alone
    grid = build_composite_grid(GridConfig(0.0, 1.0, 0.25, 25, 15, 0.02 / ratio, 0.02, 0.1))
    bump, calls = manufactured_problem(), []

    def recorded(name, f):
        def evaluate(*args):
            calls.append((name, np.broadcast_shapes(*map(np.shape, args))))
            return f(*args)
        return evaluate

    problem = Problem(
        recorded("source", bump.source), bump.p0, recorded("g_lo", bump.g_lo), recorded("g_hi", bump.g_hi)
    )
    window = 25 * ratio
    for budget in (2**16, window - 1, 2 * window, 9 * window - 1, 27 * window + 1):
        monkeypatch.setattr(scheme, "_BLOCK_POINTS", budget)
        del calls[:]
        march(grid, VARIANTS[0], SolveMode.single_iteration(), problem)
        expected = []
        for b in _runs_of(grid.n_windows, budget // window):
            expected += [("source", (3, 3, r, ratio, 25)) for r in _runs_of(b, budget // (9 * window))]
            expected += [("source", (3, 3, r, 15)) for r in _runs_of(b, budget // (9 * 15))]
            expected += [("g_lo", (b, ratio)), ("g_lo", (b,)), ("g_hi", (b,))]
        assert calls == expected
        # however many runs, a block's windows hold views of one array per datum
        block = precompute_window_inputs(grid, range(1, grid.n_windows + 1), problem)
        assert len({id(inputs.fine_source.base) for inputs in block}) == 1
    if ratio == 10:
        # the last budget in words: one block of all 5 windows, fine runs of
        # 3 and 2, and one call for each other datum
        assert calls[:5] == [
            ("source", (3, 3, 3, 10, 25)), ("source", (3, 3, 2, 10, 25)), ("source", (3, 3, 5, 15)),
            ("g_lo", (5, 10)), ("g_lo", (5,)),
        ]


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
    diag, _ = system.bands
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
        diag = assemble_subdomain_step(bump_grid, name, 1, np.zeros(side.widths.size), variant, 0.0, inputs).bands[0]
        neumann = inputs.operators.get(name).bands[0]
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
    # every entry of the loop's matrix, read from the band storage, and no
    # other nonzero in it, the kl fill rows included
    for grid in _assembly_cases():
        start = (bump_problem.p0(grid.centers_fine), bump_problem.p0(grid.centers_coarse))
        inputs = precompute_window_inputs(grid, 1, bump_problem)
        got = assemble_monolithic_window(grid, *start, variant, inputs)
        want = reference_monolithic_window(grid, *start, variant, inputs)
        assert got.rhs.tobytes() == want.rhs.tobytes()
        want_coo = want.sparse.tocoo()
        assert band_entries(got, want_coo.row, want_coo.col).tobytes() == want_coo.data.tobytes()
        assert np.count_nonzero(got.matrix.storage) == np.count_nonzero(want_coo.data)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_monolithic_band_widths(bump_problem, variant):
    # in band order every equation couples unknowns at most K positions apart
    # for is2 and K + 1 for is1, and no fewer, and the storage is the
    # Fortran-ordered array LAPACK factors without a copy
    for grid in _assembly_cases():
        start = (bump_problem.p0(grid.centers_fine), bump_problem.p0(grid.centers_coarse))
        band = assemble_monolithic_window(grid, *start, variant, precompute_window_inputs(grid, 1, bump_problem)).matrix
        width = grid.ratio + (variant.interface_scheme == "is1")
        assert (band.kl, band.ku) == (width, width)
        assert band.storage.shape == (3 * width + 1, WindowLayout(grid, variant).n_unknowns)
        assert band.storage.flags.f_contiguous
        assert sorted(band.order.tolist()) == list(range(band.order.size))


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_monolithic_solve_matches_scipy_splu(bump_problem, variant):
    # scipy's splu factors the same matrix, built from the triplets, by a
    # sparse LU with its own column ordering, a reference independent of the
    # band order and storage; the two agree to rounding (4.3e-13 relative at
    # most here, for is1-fine)
    for grid in _assembly_cases():
        start = (bump_problem.p0(grid.centers_fine), bump_problem.p0(grid.centers_coarse))
        system = assemble_monolithic_window(grid, *start, variant, precompute_window_inputs(grid, 1, bump_problem))
        rows, cols, vals = system.matrix.entries
        matrix = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(system.n, system.n))
        want = scipy.sparse.linalg.splu(matrix, permc_spec="MMD_AT_PLUS_A").solve(system.rhs)
        assert np.max(np.abs(solve_linear(system) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_monolithic_solve_matches_scipy_solve_banded(bump_problem, variant):
    # scipy's solve_banded runs LAPACK's gbsv, the same dgbtrf and dgbtrs, on
    # the same band, so it is the bit-for-bit reference; for a band of one
    # diagonal on either side it runs gtsv instead, another elimination
    for grid in _assembly_cases():
        start = (bump_problem.p0(grid.centers_fine), bump_problem.p0(grid.centers_coarse))
        system = assemble_monolithic_window(grid, *start, variant, precompute_window_inputs(grid, 1, bump_problem))
        band = system.matrix
        want = scipy.linalg.solve_banded((band.kl, band.ku), band.storage[band.kl :].copy(), system.rhs[band.order])
        got = solve_linear(system)[band.order]
        if (band.kl, band.ku) == (1, 1):
            assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))
        else:
            assert got.tobytes() == want.tobytes()


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


def recover_interface_fluxes(grid, inputs, fine_start, coarse_start, fine, coarse):
    """Each side's interface flux recovered from its stored cells and the
    window's ``inputs`` alone, independent of the assembly and of the traces
    a march records: the cell balances h (p - p_prev) / dt - h f = u_right -
    u_left run inward from the half-cell flux at the exterior boundary,
    through every face.  Takes the fine cells at the K levels (K, n_fine)
    and the coarse cells (n_coarse,); returns the fine interface flux at each
    level, the coarse one, and the scale of the recovery's roundoff: the
    largest magnitude of any mass term, load or face flux the balances add,
    or of an operand (h / dt) p of a mass term's difference."""
    h1, h2 = grid.widths_fine, grid.widths_coarse
    fine_levels = np.vstack([fine_start, fine])
    mass1 = (h1 / grid.dt_fine) * np.diff(fine_levels, axis=0)
    load1 = h1 * inputs.fine_source
    exterior = (fine[:, 0] - inputs.g_lo_fine) / (0.5 * h1[0])
    u_fine = np.cumsum(np.column_stack([exterior, mass1 - load1]), axis=1)  # faces left to right
    mass2 = (h2 / grid.dt_coarse) * (coarse - coarse_start)
    load2 = h2 * inputs.coarse_source
    exterior = (inputs.g_hi_coarse - coarse[-1]) / (0.5 * h2[-1])
    u_coarse = np.cumsum(np.concatenate([[exterior], (load2 - mass2)[::-1]]))  # faces right to left
    operands = ((h1 / grid.dt_fine) * fine_levels, (h2 / grid.dt_coarse) * np.array([coarse_start, coarse]))
    terms = (mass1, load1, u_fine, mass2, load2, u_coarse, *operands)
    scale = max(float(np.max(np.abs(term))) for term in terms)
    return u_fine[:, -1], float(u_coarse[-1]), scale


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_monolithic_satisfies_interface_conditions(bump_grid, bump_problem, variant):
    grid = bump_grid
    start_f = bump_problem.p0(grid.centers_fine)
    start_c = bump_problem.p0(grid.centers_coarse)
    inputs = precompute_window_inputs(grid, 1, bump_problem)
    mono = solve_linear(assemble_monolithic_window(grid, start_f, start_c, variant, inputs))
    lay = WindowLayout(grid, variant)
    K, n1, n2 = grid.ratio, grid.n_fine, grid.n_coarse
    fine, coarse = mono[: K * n1].reshape(K, n1), mono[K * n1 : K * n1 + n2]
    u_fine, u_coarse, _ = recover_interface_fluxes(grid, inputs, start_f, start_c, fine, coarse)
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


def test_fine_master_variants_are_one_scheme():
    # With the fine side as master, the two interface schemes give the same
    # window: eliminating is1's face pressures from its equal-flux and
    # time-averaged-pressure rows leaves the flux (c_0 - mean_k p_K,k) / d
    # across the interface at every level, which is is2's ghost-mean flux.
    # Measured here: 2.3e-14 relative at most.  The coarse-master pair is no
    # such identity (3.7e-2 apart at most here; all four agree at K = 1),
    # which shows that the comparison can fail.
    rng = np.random.default_rng(26)
    problem = manufactured_problem()
    coarse_gap = 0.0
    for ratio in (1, 2, 10, 50):
        for cells in ((10, 10), (20, 5), (1, 3), (3, 1)):
            for x_iface in (0.25, 0.5, 0.8):
                widths = (jittered_widths(rng, cells[0], x_iface), jittered_widths(rng, cells[1], 1.0 - x_iface))
                grid = build_composite_grid(GridConfig(0.0, 1.0, x_iface, *cells, 0.01 / ratio, 0.01, 0.01, *widths))
                start = (problem.p0(grid.centers_fine), problem.p0(grid.centers_coarse))
                inputs = precompute_window_inputs(grid, 1, problem)
                n_cells = ratio * grid.n_fine + grid.n_coarse
                solved = {
                    variant.name: solve_linear(assemble_monolithic_window(grid, *start, variant, inputs))[:n_cells]
                    for variant in VARIANTS
                }
                fine_gap = np.max(np.abs(solved["is1-fine"] - solved["is2-fine"]))
                assert fine_gap <= 1e-12 * np.max(np.abs(solved["is2-fine"])), (ratio, cells, x_iface)
                coarse_gap = max(coarse_gap, float(np.max(np.abs(solved["is1-coarse"] - solved["is2-coarse"]))))
    assert coarse_gap > 1e-3


def _coarse_master_fixed_points(grid, variant, problem, interpolate):
    """A coarse-master march with each window at the exact fixed point of its
    sweep, and the largest conservativity defect over the flux scale.  The
    fine slave's datum is frozen over the window, as in the solver, or with
    ``interpolate`` runs linearly in time from the previous window's datum
    x_prev to this one's x: x_prev + (k/K)(x - x_prev) at fine level k.
    Window 1's x_prev is the master's datum at t = 0: the initial pressure at
    the interface (is1) or in the coarse interface cell (is2).  A sweep is
    affine in x, so two sweeps give its fixed point and a third the window."""
    fine, coarse, K = grid.sides[FINE], grid.sides[COARSE], grid.ratio
    fine_cells, coarse_cells = [problem.p0(fine.centers)], [problem.p0(coarse.centers)]
    x_prev = float(problem.p0(grid.interface_x)) if variant.face_datum else coarse_cells[0][coarse.iface]
    operators, traces, worst = StepOperators(grid), [], 0.0
    for window in range(1, grid.n_windows + 1):
        inputs = precompute_window_inputs(grid, window, problem, operators)

        def sweep(x):
            data = x_prev + np.arange(1, K + 1) / K * (x - x_prev) if interpolate else np.full(K, x)
            levels, prev = np.empty((K, grid.n_fine)), fine_cells[-1]
            for k in range(1, K + 1):
                levels[k - 1] = prev = solve_linear(
                    assemble_subdomain_step(grid, FINE, k, prev, variant, data[k - 1], inputs)
                )
            fine_flux, fine_pressure = interface_traces(grid, fine, variant, data, levels[:, fine.iface])
            neumann = project_fine_to_coarse(fine_flux, K)
            end = solve_linear(assemble_subdomain_step(grid, COARSE, 1, coarse_cells[-1], variant, neumann, inputs))
            coarse_flux, coarse_pressure = interface_traces(grid, coarse, variant, neumann, end[[coarse.iface]])
            fresh = coarse_pressure[0] if variant.face_datum else end[coarse.iface]
            return fresh, levels, end, (fine_pressure, coarse_pressure[0], fine_flux, coarse_flux[0])

        f_prev, f_next = sweep(x_prev)[0], sweep(x_prev + 1.0)[0]
        x = x_prev + (f_prev - x_prev) / (1.0 - (f_next - f_prev))
        _, levels, end, window_traces = sweep(x)
        fine_cells.extend(levels)
        coarse_cells.append(end)
        traces.append(window_traces)
        fine_flux, coarse_flux = window_traces[2:]
        defect = conservativity_defect(fine_flux, coarse_flux, grid.dt_fine, grid.dt_coarse)
        worst = max(worst, defect / max(np.max(np.abs(fine_flux)), abs(coarse_flux)))
        x_prev = x
    trajectory = Trajectory(grid, np.array(fine_cells), np.array(coarse_cells), *map(np.array, zip(*traces)))
    return trajectory, worst


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v.master == COARSE], ids=lambda v: v.name)
def test_time_interpolated_slave_datum_restores_the_coarse_master_h1_order(variant):
    # Criterion 5's cause, by counterfactual: the coarse-master variants give
    # the fine slave a Dirichlet datum frozen over each coarse window, and
    # their H1 orders on the criterion-5 ladder (s = 1, 2, 4, 8) fall below
    # 0.8.  Interpolating that datum linearly in time, and changing nothing
    # else, lifts them above it.  Measured: frozen 0.79, 0.76, 0.76
    # (is1-coarse) and 0.57, 0.59, 0.63 (is2-coarse); interpolated 1.09,
    # 1.04, 1.01 and 0.96, 0.95, 0.97; defects at most 3.3e-18 of the flux
    # scale with either datum.
    problem = manufactured_problem()
    # the frozen rule is the shipped scheme: it gives the converged march, to
    # 3.5e-14 of each field's largest value
    grid = build_composite_grid(BUMP_CONFIG)
    fixed, _ = _coarse_master_fixed_points(grid, variant, problem, interpolate=False)
    marched, report = march(grid, variant, SolveMode.converged(1e-13, 200), problem)
    assert report.all_converged
    for name in ("fine", "coarse", "fine_face_pressure", "coarse_flux"):
        want = getattr(marched, name)
        np.testing.assert_allclose(getattr(fixed, name), want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
    orders = {}
    for interpolate in (False, True):
        rows = []
        for s in (1, 2, 4, 8):
            grid = build_composite_grid(
                replace(BUMP_CONFIG, n_cells_fine=25 * s, n_cells_coarse=15 * s, dt_fine=0.002 / s, dt_coarse=0.02 / s)
            )
            trajectory, worst = _coarse_master_fixed_points(grid, variant, problem, interpolate)
            assert worst <= 1e-15
            rows.append((0.05 / s, 0.02 / s, error_report(trajectory, problem).h1_global))
        orders[interpolate] = observed_order(rows)
    assert min(orders[False]) < 0.8, orders
    assert min(orders[True]) >= 0.8, orders


@settings(max_examples=30)
@given(config=grid_space(windows=3), variant=st.sampled_from(VARIANTS), mode=solve_modes)
# where a scale without the mass differences' operands read 55 and 147 times the bounds
@example(GridConfig(0.0, 1.0, 0.5, 1, 3, 1e-5 / 50, 1e-5, 3e-5), Variant("is1", "coarse"), SolveMode.converged(1e-8))
def test_stored_cells_are_conservative_over_the_grid_space(config, variant, mode):
    # Conservativity after every whole sweep, checked from the cells a march
    # stores rather than from the traces it records: the fluxes recovered from
    # each window's cell balances satisfy dt_c u_c = dt_f sum u_f and equal the
    # recorded ones.  Over 31 104 windows of this space (widths uniform, or
    # jittered with seed 1) the largest defects were 4.4e-14 of dt_c times the
    # recovery's scale and 5.7e-14 of that scale.
    grid = build_composite_grid(config)
    problem, K = manufactured_problem(), grid.ratio
    trajectory, _ = march(grid, variant, mode, problem)
    for window in range(1, grid.n_windows + 1):
        inputs = precompute_window_inputs(grid, window, problem)
        fine = trajectory.fine[(window - 1) * K : window * K + 1]
        coarse = trajectory.coarse[window - 1 : window + 1]
        u_fine, u_coarse, scale = recover_interface_fluxes(grid, inputs, fine[0], coarse[0], fine[1:], coarse[1])
        balance = abs(grid.dt_coarse * u_coarse - grid.dt_fine * np.sum(u_fine))
        assert balance <= 2.5e-13 * grid.dt_coarse * scale
        gap = max(
            float(np.max(np.abs(u_fine - trajectory.fine_flux[window - 1]))),
            abs(u_coarse - trajectory.coarse_flux[window - 1]),
        )
        assert gap <= 4e-13 * scale


def test_ratio_one_is2_matches_single_domain_rows(bump_problem):
    grid = build_composite_grid(GridConfig(0.0, 1.0, 0.25, 25, 15, 0.02, 0.02, 0.1))
    start_f = bump_problem.p0(grid.centers_fine)
    start_c = bump_problem.p0(grid.centers_coarse)
    inputs = precompute_window_inputs(grid, 1, bump_problem)
    for master in ("fine", "coarse"):
        mono = assemble_monolithic_window(grid, start_f, start_c, Variant("is2", master), inputs)
        single = assemble_composite_step(grid, start_f, start_c, inputs)
        np.testing.assert_allclose(band_dense(mono), tridiagonal_matrix(single).toarray(), rtol=1e-12, atol=1e-13)
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
    assert first.matrix is second.matrix and first.matrix is not other.matrix
    assert first.matrix is inputs.operators.get("fine", bump_grid.d_across)
    assert not any(band.flags.writeable for band in first.bands)
    # the shared factors solve exactly like a fresh factorization
    fresh = type(first)(rhs=first.rhs, matrix=scheme.TridiagonalLU.factor(*(b.copy() for b in first.bands)))
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


@settings(max_examples=40)
@given(config=grid_space(windows=3), seed=st.integers(0, 2**16), scale=data_scales)
def test_step_right_hand_sides_match_the_level_by_level_reference(config, seed, scale):
    # every variant, side and level of the grid space, with scaled data and
    # random previous cells and datum, bit for bit
    rng = np.random.default_rng(seed)
    grid = build_composite_grid(config)
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
    # the homogeneous window of the interface gain: with zero previous cells
    # and datum, every level's right-hand side is zero
    ratio, n_fine, n_coarse = bump_grid.ratio, bump_grid.n_fine, bump_grid.n_coarse
    operators = scheme.StepOperators(bump_grid)
    inputs = WindowInputs(1, np.zeros((ratio, n_fine)), np.zeros(n_coarse), np.zeros(ratio), 0.0, 0.0, operators)
    for name, side in bump_grid.sides.items():
        for variant in VARIANTS:
            for k in range(1, side.levels + 1):
                rhs = assemble_subdomain_step(bump_grid, name, k, np.zeros(side.widths.size), variant, 0.0, inputs).rhs
                assert rhs.shape == (side.widths.size,) and not rhs.any()


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
