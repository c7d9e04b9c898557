import dataclasses
import gc
import inspect
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltsheat import (
    ConfigurationError,
    DimensionError,
    GridConfig,
    Problem,
    SolveMode,
    SolverError,
    WindowLayout,
    build_composite_grid,
    error_report,
    manufactured_problem,
    march,
    precompute_window_inputs,
    project_fine_to_coarse,
    solve_linear,
    solve_window,
    solve_window_monolithic,
    zero_problem,
)
import ltsheat.diagnostics
import ltsheat.scheme
import ltsheat.solver
from ltsheat.diagnostics import ErrorSeries
from ltsheat.scheme import COARSE, FINE, VARIANTS, BandMatrix, LinearSystem, StepOperators, TridiagonalLU, Variant
from ltsheat.solver import (
    DIRICHLET_RELAXATION,
    Trajectory,
    _damping,
    corrector_sweep,
    init_window_state,
    interface_gain,
    predictor_step,
)
from tests.conftest import (
    assert_same_inputs,
    code_names,
    data_scales,
    grid_space,
    jittered_widths,
    random_smooth_problem,
    scaled_problem,
    solve_modes,
    tridiagonal_matrix,
    window_energy_balance,
)


# -- window data ---------------------------------------------------------------


@pytest.mark.parametrize(
    "function",
    [
        ltsheat.solver.predictor_step,
        ltsheat.solver.init_window_state,
        ltsheat.solver.corrector_sweep,
        ltsheat.solver.solve_window,
        ltsheat.scheme.assemble_subdomain_step,
        ltsheat.scheme.assemble_composite_step,
        ltsheat.scheme.assemble_monolithic_window,
    ],
    ids=lambda f: f.__name__,
)
def test_window_data_comes_only_from_inputs(function):
    # one carrier of a window's data: no window number or problem beside it
    parameters = inspect.signature(function).parameters
    assert parameters["inputs"].default is inspect.Parameter.empty
    assert "window" not in parameters and "problem" not in parameters


@pytest.mark.parametrize(
    "function",
    [
        ltsheat.scheme.assemble_subdomain_step,
        ltsheat.diagnostics._level_h1,
        ltsheat.solver.interface_gain,
        ltsheat.solver._dirichlet_data,
    ],
    ids=lambda f: f.__name__,
)
def test_the_side_generic_path_names_no_side(function):
    # a side's levels, data, ends and projection come from its Side and its
    # name, so these functions handle either side without naming one
    assert not code_names(function) & {"FINE", "COARSE"}


# -- direct solves -------------------------------------------------------------


def test_each_matrix_solves_itself_and_scheme_needs_no_solver(bump_grid):
    # the LAPACK calls, factors and storage of a band belong to BandMatrix, so
    # solve_linear only accepts or rejects what the system's matrix returns,
    # with no branch on its kind; the gain cache holds plain arrays, so scheme
    # needs no solver type, not even for an annotation
    assert not code_names(solve_linear) & {"_flapack", "dgbtrf", "dgbtrs", "pivots", "storage", "lu", "band"}
    assert "_flapack" not in vars(ltsheat.solver)
    assert not {"solver", "WindowState"} & set(vars(ltsheat.scheme))
    assert not any(value is ltsheat.solver for value in vars(ltsheat.scheme).values())
    source = inspect.getsource(ltsheat.scheme)
    assert "WindowState" not in source and ".solver import" not in source
    gain, cells = interface_gain(bump_grid, VARIANTS[0], StepOperators(bump_grid))
    assert isinstance(gain, float) and set(cells) == {"fine", "coarse"}
    assert all(type(values) is np.ndarray and not values.flags.writeable for values in cells.values())


def test_solve_identity():
    system = LinearSystem(
        rhs=np.array([3.0, -1.0, 2.0]),
        matrix=TridiagonalLU.factor(np.ones(3), np.zeros(2)),
    )
    np.testing.assert_array_equal(solve_linear(system), system.rhs)


def _band(dense):
    """The band matrix of a dense matrix's nonzeros, in their own order."""
    dense = np.asarray(dense, dtype=float)
    rows, cols = np.nonzero(dense)
    return BandMatrix.from_entries(rows, cols, dense[rows, cols], np.arange(dense.shape[0]))


def test_solve_symmetric_2x2():
    system = LinearSystem(rhs=np.array([3.0, 3.0]), matrix=_band([[2.0, 1.0], [1.0, 2.0]]))
    x = solve_linear(system)
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-14)
    # the first solve factored the storage in place; the second reuses it
    assert solve_linear(system).tobytes() == x.tobytes()


def test_solve_random_tridiagonal_residual():
    rng = np.random.default_rng(7)
    n = 50
    rhs = rng.uniform(-5, 5, n)
    system = LinearSystem(rhs=rhs, matrix=TridiagonalLU.factor(*_dominant_bands(rng, n)))
    x = solve_linear(system)
    matrix = tridiagonal_matrix(system)
    residual = matrix @ x - rhs
    norm_a = np.max(np.abs(matrix).sum(axis=1))
    assert np.max(np.abs(residual)) <= 1e-10 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(rhs)))


def test_singular_system_raises():
    system = LinearSystem(rhs=np.array([1.0, 1.0]), matrix=_band([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError, match=re.escape("band factorization failed (dgbtrf info=2)")):
        solve_linear(system)


_TRIDIAGONAL_3 = [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]
_BAND_3 = _band(_TRIDIAGONAL_3)  # kl = ku = 1: storage of 4 rows, the first one fill
_COLUMNS, _INFO = "a storage column for each", "band factorization failed (dgbtrf info=-"
#: the band of ``_TRIDIAGONAL_3`` broken in one way each, and the error each must raise
_MALFORMED_BAND = {
    "flat-storage": (dict(storage=_BAND_3.storage.ravel()), _COLUMNS),
    "extra-column": (dict(storage=np.hstack([_BAND_3.storage, np.zeros((4, 1))])), _COLUMNS),
    "short-order": (dict(order=np.arange(2)), _COLUMNS),
    "storage-without-fill-row": (dict(storage=_BAND_3.storage[1:]), _INFO),
    "negative-kl": (dict(kl=-1), _INFO),
    "negative-ku": (dict(ku=-1), _INFO),
    "kl-past-storage": (dict(kl=2), _INFO),
    "ku-past-storage": (dict(ku=2), _INFO),
}


def _band_with(**fields):
    """A fresh band of ``_TRIDIAGONAL_3`` with some of its fields replaced;
    ``_BAND_3`` itself is never solved, which would factor it in place."""
    return dataclasses.replace(_band(_TRIDIAGONAL_3), **fields)


@pytest.mark.parametrize("form", list(_MALFORMED_BAND))
def test_malformed_band_is_a_dimension_error(form):
    # storage that has not one column per unknown of the order is rejected
    # when the band is made; storage too short for kl and ku, or a negative
    # kl or ku, by dgbtrf, whose negative info names the argument (LAPACK's
    # error handler prints that line too)
    rhs = np.array([3.0, 4.0, 3.0])
    np.testing.assert_allclose(solve_linear(LinearSystem(rhs=rhs, matrix=_band_with())), 1.0, rtol=1e-14)
    fields, message = _MALFORMED_BAND[form]
    with pytest.raises(DimensionError, match=re.escape(message)):
        solve_linear(LinearSystem(rhs=rhs, matrix=_band_with(**fields)))


_ROWS, _COLS = np.nonzero(_TRIDIAGONAL_3)  # its 7 entries: rows 0 0 | 1 1 1 | 2 2
_VALS = np.asarray(_TRIDIAGONAL_3)[_ROWS, _COLS]
_RANGE = "indices must lie in 0..2"
#: the entry triplets of ``_TRIDIAGONAL_3`` broken in one way each, and the error each must raise
_MALFORMED_TRIPLE = {
    "short-rowind": ((_ROWS[:-1], _COLS, _VALS), "row indices, column indices and values differ in number"),
    "negative-row": ((np.array([0, 0, 1, 1, -1, 2, 2]), _COLS, _VALS), _RANGE),
    "row-past-n": ((np.array([0, 0, 1, 1, 1, 2, 3]), _COLS, _VALS), _RANGE),
    "negative-column": ((_ROWS, np.array([0, 1, 0, 1, 2, 1, -1]), _VALS), _RANGE),
}


@pytest.mark.parametrize("form", list(_MALFORMED_TRIPLE))
def test_malformed_csc_triple_raises_before_any_solve(form):
    # the (row, column, value) triplets a band is built from: numpy would
    # wrap a negative index into a wrong band, and reject one past n or a
    # short array only with its own error, so a malformed triple never
    # becomes a band
    rhs = np.array([3.0, 4.0, 3.0])
    good = BandMatrix.from_entries(_ROWS, _COLS, _VALS, np.arange(3))
    np.testing.assert_allclose(solve_linear(LinearSystem(rhs=rhs, matrix=good)), 1.0, rtol=1e-14)
    triple, message = _MALFORMED_TRIPLE[form]
    with pytest.raises(DimensionError, match=re.escape(message)):
        BandMatrix.from_entries(*triple, np.arange(3))


def test_band_read_with_the_wrong_kl_fails_the_residual_check():
    # kl = 0, ku = 2 fit the storage, so LAPACK takes them and factors the
    # upper triangle alone; the residual, formed from the triplets rather
    # than the storage, rejects the solution of that matrix
    with pytest.raises(SolverError, match="residual exceeds the acceptance bound"):
        solve_linear(LinearSystem(rhs=np.array([3.0, 4.0, 3.0]), matrix=_band_with(kl=0, ku=2)))


def test_tridiagonal_matrix_without_unknowns_is_a_dimension_error():
    with pytest.raises(DimensionError, match="needs at least one unknown"):
        TridiagonalLU.factor(np.zeros(0), np.zeros(0))


def test_sparse_system_without_unknowns_is_a_dimension_error():
    # an empty band would otherwise be well formed, and dgbtrf would take it
    with pytest.raises(DimensionError, match="needs at least one unknown"):
        BandMatrix(np.zeros((1, 0), order="F"), 0, 0, np.zeros(0, dtype=np.intp), (np.zeros(0),) * 3)


@pytest.mark.parametrize("kind", ["tridiagonal", "band"])
def test_right_hand_side_of_another_size_is_a_dimension_error(kind):
    if kind == "tridiagonal":
        matrix = TridiagonalLU.factor(*_dominant_bands(np.random.default_rng(6), 3))
    else:
        matrix = _band_with()
    solve_linear(LinearSystem(np.ones(3), matrix))
    for n in (2, 4):
        with pytest.raises(DimensionError, match="matrix and right-hand side sizes differ"):
            LinearSystem(np.ones(n), matrix)


@pytest.mark.parametrize("n", [1, 2, 3, 50])
def test_factored_tridiagonal_solve_matches_solve_banded(n):
    # scipy's solve_banded (LAPACK gbsv, pivoted LU) is the reference of the
    # dpttrf/dpttrs path; each matrix is L D L^T with a unit bidiagonal L and
    # a positive D, so symmetric positive definite but not diagonally dominant
    rng = np.random.default_rng(1000 + n)
    for _ in range(20):
        d = rng.uniform(0.5, 1.5, n)
        ell = rng.uniform(-1.0, 1.0, n - 1)
        diag = d.copy()
        diag[1:] += ell * ell * d[:-1]
        off = ell * d[:-1]
        rhs = rng.uniform(-5.0, 5.0, n)
        ab = np.zeros((3, n))
        ab[0, 1:] = off
        ab[1] = diag
        ab[2, :-1] = off
        expected = scipy.linalg.solve_banded((1, 1), ab, rhs)
        x = solve_linear(LinearSystem(rhs=rhs, matrix=TridiagonalLU.factor(diag, off)))
        assert np.max(np.abs(x - expected)) <= 4 * np.finfo(float).eps * np.max(np.abs(expected))


def _tridiagonal_bands(dense):
    """The (diag, off) bands of a dense symmetric tridiagonal matrix."""
    a = np.array(dense)
    return np.diag(a).copy(), np.diag(a, -1).copy()


@pytest.mark.parametrize(
    ("dense", "info"),
    [([[0.0]], 1), ([[1.0, 1.0], [1.0, 1.0]], 2), ([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]], 3)],
    ids=["n1", "n2", "n3"],
)
def test_singular_banded_system_raises(dense, info):
    # symmetric and singular: L D L^T meets a zero pivot at row ``info``
    with pytest.raises(SolverError, match=re.escape(f"tridiagonal factorization failed (dpttrf info={info})")):
        TridiagonalLU.factor(*_tridiagonal_bands(dense))


def _dominant_bands(rng, n):
    """The (diag, off) bands of a symmetric, diagonally dominant tridiagonal matrix of order n."""
    off = rng.uniform(-1.0, 1.0, n - 1)
    return 3.0 + rng.uniform(0.0, 1.0, n), off


@pytest.mark.parametrize("n", [1, 2, 3, 50])
def test_banded_check_rejects_factors_of_another_matrix(n):
    # x solves the matrix with twice the diagonal, so A x - b is of the size of b
    rng = np.random.default_rng(3000 + n)
    diag, off = _dominant_bands(rng, n)
    lu = TridiagonalLU.factor(diag, off)
    mismatched = dataclasses.replace(lu, factors=TridiagonalLU.factor(2.0 * diag, off).factors)
    rhs = rng.uniform(1.0, 5.0, n)
    solve_linear(LinearSystem(rhs=rhs, matrix=lu))
    with pytest.raises(SolverError, match="residual exceeds the acceptance bound"):
        solve_linear(LinearSystem(rhs=rhs, matrix=mismatched))


@pytest.mark.parametrize("bad", ["nan-last", "inf"])
@pytest.mark.parametrize("n", [1, 2, 3, 50])
def test_banded_check_rejects_a_non_finite_rhs(n, bad):
    # x is not finite, and neither is its residual, which the bound alone
    # would let pass: NaN > bound is false; the error names the cause
    rng = np.random.default_rng(4000 + n)
    lu = TridiagonalLU.factor(*_dominant_bands(rng, n))
    rhs = rng.uniform(1.0, 5.0, n)
    if bad == "nan-last":
        rhs[-1] = np.nan
    else:
        rhs[n // 2] = -np.inf
    with pytest.raises(SolverError, match="direct solve right-hand side is not finite"):
        solve_linear(LinearSystem(rhs=rhs, matrix=lu))


def test_banded_solve_writes_neither_rhs_nor_matrix():
    rng = np.random.default_rng(5)
    lu = TridiagonalLU.factor(*_dominant_bands(rng, 2))
    rhs = np.array([1.0, -2.0])
    solve_linear(LinearSystem(rhs=rhs, matrix=lu))
    assert rhs.tolist() == [1.0, -2.0]
    assert lu.storage.shape == (3, 3) and not lu.storage.flags.writeable
    diag, off = lu.bands
    np.testing.assert_array_equal(lu.storage, [[0.0, off[0], 0.0], [diag[0], diag[1], 1.0], [off[0], 0.0, 0.0]])


def test_solve_mode_validation():
    # a non-number is rejected before it is compared
    for eps in (0.0, -1e-5, math.nan, math.inf, "1e-5", None, True):
        with pytest.raises(ConfigurationError, match="eps must be positive and finite"):
            SolveMode("converged", eps=eps)
    with pytest.raises(ConfigurationError, match="eps must be positive and finite, got '1e-5'"):
        SolveMode.converged("1e-5", 10)
    with pytest.raises(ConfigurationError):
        SolveMode("converged", max_iters=0)
    # a sweep count is a whole number: no float, even an integral one, and no bool
    for max_iters in (2.5, 3.0, np.float64(3.0), True):
        with pytest.raises(ConfigurationError, match="max_iters must be an integer"):
            SolveMode("converged", max_iters=max_iters)
    assert SolveMode("converged", max_iters=np.int64(3)).max_iters == 3
    with pytest.raises(ConfigurationError):
        SolveMode("newton")
    # predictor-only mode is gone, with no alias
    with pytest.raises(ConfigurationError, match="unknown solve mode 'predictor_only'"):
        SolveMode("predictor_only")


# -- predictor -----------------------------------------------------------------


def test_predictor_zero_data(bump_grid):
    inputs = precompute_window_inputs(bump_grid, 1, zero_problem())
    union = predictor_step(bump_grid, np.zeros(25), np.zeros(15), inputs)
    assert np.all(union == 0.0)


def test_predictor_matches_independent_dense_assembly(bump_grid, bump_problem):
    # hand-built dense matrix for one coarse step on the union mesh
    grid, prob = bump_grid, bump_problem
    widths = np.concatenate([grid.widths_fine, grid.widths_coarse])
    centers = np.concatenate([grid.centers_fine, grid.centers_coarse])
    n = widths.size
    dt = grid.dt_coarse
    inputs = precompute_window_inputs(grid, 1, prob)
    source = np.concatenate([inputs.source[FINE].mean(axis=0), inputs.source[COARSE][0]])
    prev = np.concatenate([prob.p0(grid.centers_fine), prob.p0(grid.centers_coarse)])
    A = np.zeros((n, n))
    b = np.zeros(n)
    for j in range(n):
        A[j, j] += widths[j] / dt
        b[j] += widths[j] / dt * prev[j] + widths[j] * source[j]
        if j == 0:
            A[j, j] += 1.0 / (0.5 * widths[0])
            b[j] += inputs.g_lo_coarse / (0.5 * widths[0])
        else:
            d = centers[j] - centers[j - 1]
            A[j, j] += 1.0 / d
            A[j, j - 1] -= 1.0 / d
        if j == n - 1:
            A[j, j] += 1.0 / (0.5 * widths[-1])
            b[j] += inputs.exterior[COARSE][0] / (0.5 * widths[-1])
        else:
            d = centers[j + 1] - centers[j]
            A[j, j] += 1.0 / d
            A[j, j + 1] -= 1.0 / d
    expected = np.linalg.solve(A, b)
    union = predictor_step(grid, prev[:25], prev[25:], inputs)
    np.testing.assert_allclose(union, expected, rtol=1e-12, atol=1e-14)


def test_ratio_one_predictor_equals_window_solution(bump_problem):
    grid = build_composite_grid(GridConfig(0.0, 1.0, 0.25, 25, 15, 0.02, 0.02, 0.1))
    p0f = bump_problem.p0(grid.centers_fine)
    p0c = bump_problem.p0(grid.centers_coarse)
    inputs = precompute_window_inputs(grid, 1, bump_problem)
    union = predictor_step(grid, p0f, p0c, inputs)
    for variant in VARIANTS:
        mono = solve_window_monolithic(grid, 1, p0f, p0c, variant, bump_problem)
        np.testing.assert_allclose(mono[: grid.n_fine + grid.n_coarse], union, rtol=1e-12, atol=1e-14)
        state, report = solve_window(grid, p0f, p0c, variant, SolveMode.converged(1e-5, 50), inputs)
        assert report.iterations == 1 and report.converged


# -- corrector sweeps ----------------------------------------------------------


def test_zero_data_is_fixed_point(bump_grid):
    inputs = precompute_window_inputs(bump_grid, 1, zero_problem())
    for variant in VARIANTS:
        state, report = solve_window(
            bump_grid, np.zeros(25), np.zeros(15), variant, SolveMode.converged(1e-5, 10), inputs
        )
        assert report.converged and report.iterations == 1
        assert report.residual_history[0] == (0.0, 0.0)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_neumann_condition_exact_after_sweep(bump_grid, bump_problem, variant):
    p0f = bump_problem.p0(bump_grid.centers_fine)
    p0c = bump_problem.p0(bump_grid.centers_coarse)
    inputs = precompute_window_inputs(bump_grid, 1, bump_problem)
    state, report = solve_window(bump_grid, p0f, p0c, variant, SolveMode.single_iteration(), inputs)
    res_d, res_n = report.residual_history[-1]
    assert res_n <= 1e-12 * max(1.0, report.flux_scale)
    assert res_d > 0.0


def test_residual_history_strictly_decreasing(bump_run):
    _, _, report = bump_run("is2-fine")
    for window in report.windows:
        res_d = [r[0] for r in window.residual_history]
        assert all(a > b for a, b in zip(res_d, res_d[1:]))
        assert res_d[-1] <= 1e-5


# -- window solves against the monolithic reference -----------------------------


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_converged_window_matches_monolithic(variant):
    # two uniform grids with K <= 3, then K = 10, 20, 50 on nonuniform grids
    rng = np.random.default_rng(42)
    for wide_ratio in (None, None, 10, 20, 50):
        n1 = int(rng.integers(4, 9))
        n2 = int(rng.integers(4, 9))
        ratio = int(rng.choice([1, 2, 3])) if wide_ratio is None else wide_ratio
        dt_coarse = float(rng.uniform(0.01, 0.08))
        x_iface = float(rng.uniform(0.3, 0.7))
        widths = (None, None)
        if wide_ratio is not None:
            widths = (jittered_widths(rng, n1, x_iface), jittered_widths(rng, n2, 1.0 - x_iface))
        cfg = GridConfig(0.0, 1.0, x_iface, n1, n2, dt_coarse / ratio, dt_coarse, dt_coarse, *widths)
        grid = build_composite_grid(cfg)
        prob = random_smooth_problem(rng)
        p0f = prob.p0(grid.centers_fine)
        p0c = prob.p0(grid.centers_coarse)
        inputs = precompute_window_inputs(grid, 1, prob)
        state, report = solve_window(grid, p0f, p0c, variant, SolveMode.converged(1e-12, 400), inputs)
        assert report.converged
        mono = solve_window_monolithic(grid, 1, p0f, p0c, variant, prob)
        lay = WindowLayout(grid, variant)
        mono_fine = mono[: ratio * n1].reshape(ratio, n1)
        mono_coarse = mono[ratio * n1 : ratio * n1 + n2]
        assert np.max(np.abs(state.fine.cells - mono_fine)) <= 1e-8
        assert np.max(np.abs(state.coarse.cells - mono_coarse)) <= 1e-8
        if lay.has_interface_unknowns:
            pe_f = mono[[lay.iface_fine(k) for k in range(1, ratio + 1)]]
            assert np.max(np.abs(state.fine.pressure - pe_f)) <= 1e-8
            assert abs(float(state.coarse.pressure[0]) - mono[lay.iface_coarse()]) <= 1e-8


# -- modes and marching ---------------------------------------------------------


def test_mode_iteration_counts(bump_grid, bump_problem):
    p0f = bump_problem.p0(bump_grid.centers_fine)
    p0c = bump_problem.p0(bump_grid.centers_coarse)
    variant, inputs = Variant("is2", "fine"), precompute_window_inputs(bump_grid, 1, bump_problem)
    _, single = solve_window(bump_grid, p0f, p0c, variant, SolveMode.single_iteration(), inputs)
    assert single.iterations == 1 and not single.converged


def test_nonconvergence_is_flagged_not_raised(bump_grid, bump_problem):
    p0f = bump_problem.p0(bump_grid.centers_fine)
    p0c = bump_problem.p0(bump_grid.centers_coarse)
    inputs = precompute_window_inputs(bump_grid, 1, bump_problem)
    _, report = solve_window(bump_grid, p0f, p0c, Variant("is2", "fine"), SolveMode.converged(1e-14, 2), inputs)
    assert not report.converged
    assert report.iterations == 2


def _bits(*values: float) -> bytes:
    return array("d", values).tobytes()


@settings(max_examples=40)
@given(config=grid_space(windows=2), variant=st.sampled_from(VARIANTS), mode=solve_modes)
def test_report_columns_give_back_every_window_report(config, variant, mode):
    grid = build_composite_grid(config)
    returned, neumann = [], []

    def recording_solve_window(*args):
        state, report = solve_window(*args)
        returned.append(report)
        return state, report

    def recording_sweep(grid, state, variant, inputs, datum):
        fresh = corrector_sweep(grid, state, variant, inputs, datum)
        neumann.append(_neumann_residual(grid, variant, state))
        return fresh

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ltsheat.solver, "solve_window", recording_solve_window)
        mp.setattr(ltsheat.solver, "corrector_sweep", recording_sweep)
        _, report = ltsheat.solver.march(grid, variant, mode, manufactured_problem())
    views = report.windows
    assert len(views) == len(returned) == grid.n_windows
    for view, window in zip(views, returned):
        assert view.iterations == window.iterations
        assert view.converged is window.converged
        assert _bits(view.conservativity_defect, view.flux_scale) == _bits(window.conservativity_defect, window.flux_scale)
        assert _bits(*(r for pair in view.residual_history for r in pair)) == _bits(
            *(r for pair in window.residual_history for r in pair)
        )
    assert report.iterations == [w.iterations for w in returned]
    assert report.mean_iterations == float(np.mean([w.iterations for w in returned]))
    assert report.max_defect == max(w.conservativity_defect for w in returned)
    assert report.all_converged == all(w.converged for w in returned)
    # the one fact that lets the report drop the Neumann residual: every real
    # sweep (sweep 1 of a window, or the gain's unit-datum sweep) leaves it 0.0
    assert len(neumann) >= sum(w.iterations > 0 for w in returned)
    assert _bits(*neumann) == _bits(*[0.0] * len(neumann))


def _held(report) -> list:
    """Every object ``report`` refers to, directly or through another, its
    class excluded."""
    held, todo = [], list(gc.get_referents(report))
    while todo:
        obj = todo.pop()
        if not isinstance(obj, type):
            held.append(obj)
            todo += gc.get_referents(obj)
    return held


def test_report_holds_five_containers_and_few_bytes_per_window(bump_problem):
    # the s = 8 converged bump march (is2-fine, 40 windows, 253 sweeps) retains
    # 94.3 bytes per window in its report: 8 per sweep plus 25 per window, and
    # the arrays' headers and spare room; one report object per window took 318
    for s in (1, 8):
        config = GridConfig(0.0, 1.0, 0.25, 25 * s, 15 * s, 0.002 / s, 0.02 / s, 0.1)
        grid = build_composite_grid(config)
        gc.collect()
        tracemalloc.start()
        try:
            _, report = march(grid, Variant("is2", "fine"), SolveMode.converged(), bump_problem)
            containers = [obj for obj in _held(report) if not isinstance(obj, (float, type(None)))]
            assert len(containers) == 5 and all(isinstance(obj, array) for obj in containers)
            windows = len(report.iterations)
            del containers
            gc.collect()
            with_report = tracemalloc.get_traced_memory()[0]
            del report
            gc.collect()
            retained = with_report - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        if s == 8:
            assert windows == 40
            assert retained / windows < 100


@settings(max_examples=40)
@given(config=grid_space(windows=2), variant=st.sampled_from(VARIANTS), scale=data_scales)
# a one-cell coarse side whose gain g = -7.73 lies below 1 - 1/0.45
@example(GridConfig(0.0, 1.0, 0.25, 3, 1, 2e-4, 1e-3, 2e-3), Variant("is1", "coarse"), 2.0**20)
def test_every_window_converges_over_the_grid_space(config, variant, scale):
    grid = build_composite_grid(config)
    problem, eps = manufactured_problem(), 1e-8
    base, report = march(grid, variant, SolveMode.converged(eps), problem)
    assert report.all_converged
    for window in report.windows:
        assert window.conservativity_defect <= 1e-12 * max(1.0, window.flux_scale)
    # every step matrix is an M-matrix, so a unit datum gives the slave cells
    # in (0, 1) and a flux of one sign, and the master a datum g < 0; then the
    # contraction rho = 1 - theta (1 - g) lies in [0, 0.55) (README)
    gain, unit = interface_gain(grid, variant, StepOperators(grid))
    theta = _damping(gain)
    rho = 1.0 - theta + theta * gain
    assert ((0.0 < unit[variant.slave]) & (unit[variant.slave] < 1.0)).all() and (unit[variant.master] <= 0.0).all()
    assert gain < 0.0
    assert -2 * np.finfo(float).eps <= rho < 1.0 - DIRICHLET_RELAXATION
    # the march fetches the gain in a window that needs sweep 2, and reports it
    assert (report.gain is None) == (max(report.iterations) == 1)
    if report.gain is not None:
        assert report.gain == gain and report.damping == theta and report.contraction == rho
    # below 1 - 1/0.45 the damping 1 / (1 - g) makes the contraction zero, so
    # sweep 2's datum is the fixed point (a damping of 0.45 diverged there)
    if gain < 1.0 - 1.0 / DIRICHLET_RELAXATION:
        assert max(report.iterations) <= 2 and abs(rho) <= 2 * np.finfo(float).eps
    # sweep n's residual is r1 rho^(n - 1), so a window stops after
    # p = 1 + ceil(log(eps / r1) / log rho) sweeps, one more where rounding
    # leaves r1 rho^(p - 1) just above eps
    for window in report.windows:
        r1 = window.dirichlet_residuals[0]
        if window.iterations > 1 and rho > 0.0:
            p = 1 + math.ceil(math.log(eps / r1) / math.log(rho))
            assert window.iterations in (p, p + 1), (window.iterations, p)
    # the data a side receives are one number per window: the fine slave's face
    # pressure (is1-coarse) and the fine master's flux are its datum at every level
    rows = {"is1-coarse": base.fine_face_pressure, "is1-fine": base.fine_flux, "is2-fine": base.fine_flux}
    if variant.name in rows:
        bits = rows[variant.name].view(np.uint64)
        assert (bits == bits[:, :1]).all()
    # data and eps scaled by a power of two scale the whole march exactly
    scaled, scaled_report = march(grid, variant, SolveMode.converged(scale * eps), scaled_problem(problem, scale))
    assert scaled_report.iterations == report.iterations
    for name in (f.name for f in dataclasses.fields(Trajectory) if f.name != "grid"):
        assert getattr(scaled, name).tobytes() == (scale * getattr(base, name)).tobytes(), name


@settings(max_examples=25)
@given(
    config=grid_space(windows=2),
    variant=st.sampled_from(VARIANTS),
    size=st.sampled_from([1e305, 1e306, 1e307, 1e308, np.finfo(float).max]),
    coarse=st.sampled_from([-1.0, 0.0, 1.0]),
)
# sweeps 2..n from data of 1e305 that end finite, and data of 1e307 that fail a
# direct solve's residual bound
@example(GridConfig(0.0, 1.0, 0.25, 10, 10, 0.01, 0.01, 0.02), Variant("is1", "fine"), 1e305, -1.0)
@example(GridConfig(0.0, 1.0, 0.25, 10, 10, 0.01, 0.01, 0.02), Variant("is1", "fine"), 1e307, -1.0)
def test_data_near_the_largest_float_fail_a_direct_solve_or_stay_finite(config, variant, size, coarse):
    # sweeps 2..n need no finiteness check of their own: each datum and fresh
    # datum lies between sweep 1's x0 and f1, so an overflow fails a direct
    # solve in window 1 or the march returns finite numbers (a search of 4608
    # such marches, K 1..50 and data 1e305..max, found 3690 right-hand sides
    # not finite, 300 residuals over the bound and 618 finite marches)
    grid, zero = build_composite_grid(config), zero_problem()
    p0 = lambda x: np.where(x < config.interface_x, size, coarse * size)  # noqa: E731
    problem = Problem(zero.source, p0, zero.g_lo, zero.g_hi)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            trajectory, _ = march(grid, variant, SolveMode.converged(1e-8), problem)
    except SolverError as exc:
        failed = r"direct solve (right-hand side is not finite|residual exceeds the acceptance bound)"
        assert re.fullmatch(rf"{variant.name}, window 1 of 2: {failed}", str(exc)), str(exc)
    else:
        for name in (f.name for f in dataclasses.fields(Trajectory) if f.name != "grid"):
            assert np.isfinite(getattr(trajectory, name)).all(), name


def _neumann_residual(grid, variant, state):
    """max |master flux - projected slave flux| of a state after a sweep."""
    slave_flux = project_fine_to_coarse(getattr(state, variant.slave).flux, grid.sides[variant.slave].levels)
    return float(np.max(np.abs(getattr(state, variant.master).flux - slave_flux)))


def _sweep_until_eps(grid, fine_start, coarse_start, variant, mode, inputs):
    """The corrector as real sweeps, each datum relaxed against the last by
    the damping of the grid's interface gain, until both residuals reach eps:
    the reference for ``solve_window``'s reduced sweeps 2..n."""
    state, datum = init_window_state(grid, fine_start, coarse_start, variant, inputs)
    history = []
    for _ in range(mode.max_iters):
        fresh = corrector_sweep(grid, state, variant, inputs, datum)
        history.append((abs(datum - fresh), _neumann_residual(grid, variant, state)))
        if max(history[-1]) <= mode.eps:
            break
        theta = _damping(interface_gain(grid, variant, inputs.operators)[0])
        datum = (1.0 - theta) * datum + theta * fresh
    return state, history


def _record_sweep_data(monkeypatch):
    """Wrap ``solver._sweep`` so that the Dirichlet datum of each call is
    appended to the list returned."""
    data, original = [], ltsheat.solver._sweep

    def recording(grid, state, variant, datum, cells):
        data.append(datum)
        original(grid, state, variant, datum, cells)

    monkeypatch.setattr(ltsheat.solver, "_sweep", recording)
    return data


def _state_fields(state):
    """Cells, interface pressure and interface flux of both sides."""
    return [
        array
        for sub in (state.fine, state.coarse)
        for array in (sub.cells, sub.pressure, sub.flux)
    ]


@settings(max_examples=40)
@given(config=grid_space(windows=2), variant=st.sampled_from(VARIANTS))
# the corner of the largest residual gap, 64.5 ulp of the datum, at g = -9.0
@example(GridConfig(0.0, 1.0, 0.25, 3, 1, 1e-5 / 50, 1e-5, 2e-5), Variant("is1", "coarse"))
def test_reduced_sweeps_match_real_sweeps_over_the_grid_space(config, variant):
    grid = build_composite_grid(config)
    problem, mode = manufactured_problem(), SolveMode.converged(1e-8)
    operators = StepOperators(grid)
    gain, _ = interface_gain(grid, variant, operators)
    fine_start, coarse_start = problem.p0(grid.centers_fine), problem.p0(grid.centers_coarse)
    for window in range(1, grid.n_windows + 1):
        inputs = precompute_window_inputs(grid, window, problem, operators)
        args = (grid, fine_start, coarse_start, variant, mode, inputs)
        state, report = solve_window(*args)
        with pytest.MonkeyPatch.context() as mp:
            data = _record_sweep_data(mp)
            expected, history = _sweep_until_eps(*args)
        assert report.iterations == len(history)
        # a real sweep's residual carries the roundoff of its datum amplified
        # by the gain: it scatters about the geometric sequence res_1 r^(n-1),
        # which the reduced sweeps follow, by up to 11 ulp (1 + |g|) of the
        # datum over this space (64.5 ulp at g = -9.0); residuals near eps are
        # compared on that scale
        ulp = np.finfo(float).eps * max(1.0, abs(data[-1]))
        floor = 32 * ulp * (1.0 + abs(gain))
        np.testing.assert_allclose(report.residual_history, history, rtol=1e-12, atol=floor)
        for got, want in zip(_state_fields(state), _state_fields(expected)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        fine_start, coarse_start = state.fine.cells[-1], state.coarse.cells


def _single_window_march(grid, variant, mode, problem):
    """``march`` with each window's inputs from its own single-window call."""
    blocked = ltsheat.solver.precompute_window_inputs

    def one_at_a_time(grid, windows, problem, operators):
        return [blocked(grid, window, problem, operators) for window in windows]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ltsheat.solver, "precompute_window_inputs", one_at_a_time)
        return march(grid, variant, mode, problem)


@settings(max_examples=40)
@given(
    config=grid_space(windows=7),
    variant=st.sampled_from(VARIANTS),
    budget=st.sampled_from([1, 900, 4000, 2**16]),
)
def test_blocks_of_windows_match_single_windows_bit_for_bit(config, variant, budget):
    # budgets from one window per block to all windows in one
    from tests.conftest import reference_error_report

    grid = build_composite_grid(config)
    problem, mode = manufactured_problem(), SolveMode.converged(1e-8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ltsheat.scheme, "_BLOCK_POINTS", budget)
        for block in ltsheat.scheme._window_blocks(grid):
            for inputs in precompute_window_inputs(grid, block, problem):
                assert_same_inputs(inputs, precompute_window_inputs(grid, inputs.window, problem))
        trajectory, report = march(grid, variant, mode, problem)
        series = error_report(trajectory, problem)
    expected, expected_report = _single_window_march(grid, variant, mode, problem)
    assert report.iterations == expected_report.iterations
    for name in (f.name for f in dataclasses.fields(Trajectory) if f.name != "grid"):
        assert getattr(trajectory, name).tobytes() == getattr(expected, name).tobytes(), name
    reference = reference_error_report(trajectory, problem)
    for name in (f.name for f in dataclasses.fields(ErrorSeries)):
        assert np.asarray(getattr(series, name)).tobytes() == np.asarray(getattr(reference, name)).tobytes(), name


@pytest.mark.parametrize("budget", [60, 100, 360, 540])
def test_no_problem_evaluation_exceeds_the_block_budget(monkeypatch, budget):
    # 7 windows of 20 values per side and level (fine: K = 2 levels of 10
    # cells; coarse: 8 cells): the budgets give blocks of 3, 5, 7 and 7
    # windows, ragged where 7 does not divide, for the boundary values and
    # the exact solution, and fine source runs of 1, 1, 2 and 3 windows
    # (9 x 20 points each, over the budget of 60 and 100 alone), the
    # largest source calls (the coarse source's take 9 x 8 points a window)
    grid = build_composite_grid(GridConfig(0.0, 1.0, 0.5, 10, 8, 0.005, 0.01, 0.07))
    monkeypatch.setattr(ltsheat.scheme, "_BLOCK_POINTS", budget)
    bump, sizes = manufactured_problem(), Counter()

    def counted(name, f):
        def evaluate(*args):
            value = f(*args)
            sizes[name] = max(sizes[name], int(np.prod(np.broadcast_shapes(*map(np.shape, args)))))
            return value
        return evaluate

    problem = Problem(
        counted("source", bump.source), bump.p0, counted("g_lo", bump.g_lo), counted("g_hi", bump.g_hi),
        counted("exact_solution", bump.exact_solution),
    )
    trajectory, _ = march(grid, VARIANTS[0], SolveMode.converged(), problem)
    error_report(trajectory, problem)
    window_points = grid.ratio * grid.n_fine  # more than n_coarse
    block = min(grid.n_windows, budget // window_points)
    assert sizes["source"] == 9 * window_points * max(1, budget // (9 * window_points))
    assert sizes["exact_solution"] == window_points * block
    # K fine midtimes a window, and one coarse midtime
    assert (sizes["g_lo"], sizes["g_hi"]) == (grid.ratio * block, block)
    for name, size in sizes.items():
        assert size <= max(budget, (9 if name == "source" else 1) * window_points), name

    # with source terms the largest values of a call are the factors'
    # product, one a cell and level, so a block is one call per factor: of_t
    # on the K fine t nodes of the block's windows, of_x on the fine x nodes
    sizes.clear()
    terms = tuple((counted("of_t", of_t), counted("of_x", of_x)) for of_t, of_x in bump.source_terms)
    march(grid, VARIANTS[0], SolveMode.converged(), dataclasses.replace(problem, source_terms=terms))
    assert "source" not in sizes
    assert (sizes["of_t"], sizes["of_x"]) == (3 * grid.ratio * block, 3 * grid.n_fine)
    assert block * window_points <= budget and max(sizes["of_t"], sizes["of_x"]) <= budget


def test_factor_calls_on_a_one_cell_fine_side_keep_the_block_budget(monkeypatch):
    # one fine cell and K = 10 levels: 10 values a window, so a budget of 60
    # gives blocks of 6 windows, whose t nodes (3 a level) would be 180
    # values in one call; the fine of_t runs take 2 windows (60 values) instead
    grid = build_composite_grid(GridConfig(0.0, 1.0, 0.5, 1, 5, 0.001, 0.01, 0.12))
    monkeypatch.setattr(ltsheat.scheme, "_BLOCK_POINTS", 60)
    shapes = []

    def recorded(f):
        def evaluate(t):
            shapes.append(np.shape(t))
            return f(t)
        return evaluate

    bump = manufactured_problem()
    terms = tuple((recorded(of_t), of_x) for of_t, of_x in bump.source_terms)
    march(grid, VARIANTS[0], SolveMode.single_iteration(), dataclasses.replace(bump, source_terms=terms))
    fine = [shape for shape in shapes if shape[2] == grid.ratio]
    assert [shape[1] for shape in fine[::2]] == [2, 2, 2] * 2
    assert max(map(np.prod, shapes)) <= 60


@pytest.mark.parametrize("mode", [SolveMode.single_iteration(), SolveMode.converged(1e-14, 1)], ids=["single", "one"])
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_one_sweep_windows_are_one_real_sweep(bump_grid, bump_problem, variant, mode):
    # a window that stops after sweep 1 gives today's results bit for bit
    p0f, p0c = bump_problem.p0(bump_grid.centers_fine), bump_problem.p0(bump_grid.centers_coarse)
    inputs = precompute_window_inputs(bump_grid, 1, bump_problem)
    state, report = solve_window(bump_grid, p0f, p0c, variant, mode, inputs)
    one_sweep = SolveMode.converged(1e-14, 1)
    fresh_inputs = precompute_window_inputs(bump_grid, 1, bump_problem)
    expected, history = _sweep_until_eps(bump_grid, p0f, p0c, variant, one_sweep, fresh_inputs)
    assert report.residual_history == history
    for got, want in zip(_state_fields(state), _state_fields(expected)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_only_one_sweep_per_window_marches_the_subdomains(monkeypatch, bump_grid, bump_problem, variant):
    calls = Counter()
    for name in ("solve_linear", "predictor_step", "corrector_sweep"):

        def counted(*args, _original=getattr(ltsheat.solver, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ltsheat.solver, name, counted)
    _, report = ltsheat.solver.march(bump_grid, variant, SolveMode.converged(1e-5, 100), bump_problem)
    windows = len(report.windows)
    assert max(report.iterations) > 2
    assert calls["predictor_step"] == windows
    assert calls["solve_linear"] == calls["predictor_step"] + (bump_grid.ratio + 1) * calls["corrector_sweep"]
    # sweep 1 of every window and the one gain sweep of the march
    reduced = sum(n > 1 for n in report.iterations)
    assert calls["corrector_sweep"] == windows + (reduced > 0)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_superposed_windows_match_a_real_sweep_from_the_last_datum(monkeypatch, bump_grid, bump_problem, variant):
    mode = SolveMode.converged(1e-5, 100)
    data = _record_sweep_data(monkeypatch)
    operators = StepOperators(bump_grid)
    fine_start, coarse_start = bump_problem.p0(bump_grid.centers_fine), bump_problem.p0(bump_grid.centers_coarse)
    for window in range(1, bump_grid.n_windows + 1):
        inputs = precompute_window_inputs(bump_grid, window, bump_problem, operators)
        args = (bump_grid, fine_start, coarse_start)
        state, report = solve_window(*args, variant, mode, inputs)
        assert report.iterations > 1
        expected, _ = init_window_state(*args, variant, inputs)
        # the last datum of the window is that of its superposed sweep
        corrector_sweep(bump_grid, expected, variant, inputs, data[-1])
        for got, want in zip(_state_fields(state), _state_fields(expected)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # the master's flux is the projected slave flux, bit for bit at every level
        neumann = project_fine_to_coarse(getattr(state, variant.slave).flux, bump_grid.sides[variant.slave].levels)
        master = getattr(state, variant.master)
        assert master.flux.tobytes() == np.full(master.flux.size, neumann).tobytes()
        assert report.conservativity_defect <= 1e-12 * max(1.0, report.flux_scale)
        fine_start, coarse_start = state.fine.cells[-1], state.coarse.cells


@pytest.mark.parametrize("c", [2.0**-20, 2.0**20], ids=["2^-20", "2^20"])
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_scaled_data_scale_the_march_exactly(bump_grid, bump_problem, variant, c):
    # the scheme is linear in its data and eps is absolute, so data and eps
    # scaled by a power of two scale every float of the march exactly
    eps = 1e-5
    base, base_report = march(bump_grid, variant, SolveMode.converged(eps, 100), bump_problem)
    scaled, report = march(bump_grid, variant, SolveMode.converged(c * eps, 100), scaled_problem(bump_problem, c))
    assert report.iterations == base_report.iterations
    for name in (f.name for f in dataclasses.fields(Trajectory) if f.name != "grid"):
        assert getattr(scaled, name).tobytes() == (c * getattr(base, name)).tobytes(), name


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_predicted_contraction_matches_the_observed_ratio(bump_run, variant):
    grid, _, report = bump_run(variant.name)
    gain, _ = interface_gain(grid, variant, StepOperators(grid))
    assert report.contraction == 1.0 - DIRICHLET_RELAXATION + DIRICHLET_RELAXATION * gain
    for window in report.windows:
        r = [max(pair) for pair in window.residual_history]
        for a, b in zip(r, r[1:]):
            assert b / a == pytest.approx(abs(report.contraction), rel=1e-8)
    assert bump_run(variant.name, "single_iteration")[2].contraction is None


def test_march_zero_data(bump_grid):
    prob = zero_problem()
    for variant in VARIANTS:
        trajectory, report = march(bump_grid, variant, SolveMode.converged(1e-5, 100), prob)
        assert np.max(np.abs(trajectory.fine)) <= 1e-13
        assert np.max(np.abs(trajectory.coarse)) <= 1e-13
        assert report.all_converged


@settings(max_examples=40)
@given(
    config=grid_space(windows=3),
    variant=st.sampled_from(VARIANTS),
    mode=st.sampled_from([SolveMode.converged(1e-8), SolveMode.single_iteration()]),
    seed=st.integers(0, 2**16),
)
def test_composite_energy_falls_window_by_window_over_the_grid_space(config, variant, mode, seed):
    # discrete stability: with zero source and boundary data, sum h p^2 over
    # both sides at the window ends falls from a rough random p0 on; over
    # 6912 marches of this space (widths uniform, or jittered with seed 1) the
    # largest ratio of one window's to the last was 0.99937
    grid, zero = build_composite_grid(config), zero_problem()
    p0 = lambda x: np.random.default_rng(seed).uniform(-1.0, 1.0, np.shape(x))  # noqa: E731
    trajectory, report = march(grid, variant, mode, Problem(zero.source, p0, zero.g_lo, zero.g_hi))
    energy = trajectory.fine[:: grid.ratio] ** 2 @ grid.widths_fine + trajectory.coarse**2 @ grid.widths_coarse
    assert np.all(energy[1:] < energy[:-1]), energy
    # and how it falls: each window's 1/2 dE + D = I (``window_energy_balance``)
    # closes to a few roundoffs of the sum of its products' magnitudes (at most
    # 0.68 of one over 20736 windows of this space's axes).  I is its
    # fixed-point form, never positive, plus +-dt_coarse u_coarse (fresh -
    # datum) of the stored sweep, so it exceeds 0 by at most dt_coarse
    # |u_coarse| times the last residual: eps in a converged window, r1 in
    # single-iteration mode
    roundoff = 4 * np.finfo(float).eps
    for window, window_report in enumerate(report.windows, start=1):
        balance = window_energy_balance(trajectory, variant, window)
        closure = balance.half_delta_e + balance.dissipation - balance.interface
        assert abs(closure) <= roundoff * balance.scale, (window, closure, balance)
        stop = grid.dt_coarse * abs(trajectory.coarse_flux[window - 1]) * window_report.dirichlet_residuals[-1]
        assert balance.jump <= 0.0 < balance.dissipation
        assert abs(balance.interface - balance.jump) <= stop + roundoff * balance.scale, (window, balance)


def test_march_conservativity(bump_run):
    for variant in ("is1-fine", "is1-coarse", "is2-fine", "is2-coarse"):
        _, _, report = bump_run(variant)
        for window in report.windows:
            assert window.conservativity_defect <= 1e-12 * max(1.0, window.flux_scale)


def test_march_is_deterministic(bump_grid, bump_problem):
    t1, _ = march(bump_grid, Variant("is2", "coarse"), SolveMode.converged(1e-5, 100), bump_problem)
    t2, _ = march(bump_grid, Variant("is2", "coarse"), SolveMode.converged(1e-5, 100), bump_problem)
    assert t1.fine.tobytes() == t2.fine.tobytes()
    assert t1.coarse.tobytes() == t2.coarse.tobytes()
    assert t1.fine_flux.tobytes() == t2.fine_flux.tobytes()


def test_trajectory_records_all_levels(bump_run):
    grid, trajectory, _ = bump_run("is2-fine")
    assert trajectory.fine.shape == (51, 25)
    assert trajectory.coarse.shape == (6, 15)
    assert trajectory.fine_level(1, grid.ratio) == 10
    assert trajectory.fine_flux.shape == (5, 10)


#: equal cell counts, so step factors reused on the wrong grid would fit silently
_REUSE_GRIDS = (
    GridConfig(0.0, 1.0, 0.25, 25, 15, 0.002, 0.02, 0.06),
    GridConfig(0.0, 1.0, 0.5, 25, 15, 0.005, 0.015, 0.045),
)


def _run_marches(order, out_path=None):
    """March each (grid index, variant index) of ``order`` in turn; returns the
    trajectories and iteration counts flattened, one array per march."""
    problem = manufactured_problem()
    grids = [build_composite_grid(config) for config in _REUSE_GRIDS]
    results = []
    for g, v in order:
        trajectory, report = march(grids[g], VARIANTS[v], SolveMode.converged(1e-8, 200), problem)
        results.append(np.concatenate([
            trajectory.fine.ravel(),
            trajectory.coarse.ravel(),
            trajectory.fine_face_pressure.ravel(),
            trajectory.coarse_face_pressure,
            trajectory.fine_flux.ravel(),
            trajectory.coarse_flux,
            report.iterations,
        ]))
    if out_path is not None:
        np.savez(out_path, *results)
    return results


def test_interleaved_marches_match_marches_run_in_another_order(tmp_path):
    # A march may depend only on its own grid and variant.  A fresh interpreter
    # running the same marches in the opposite order starts from another grid
    # and other closures, so a factor reused across either would show.
    order = [(g, v) for v in range(len(VARIANTS)) for g in range(len(_REUSE_GRIDS))]
    interleaved = _run_marches(order + order)
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "reversed.npz"
    code = f"from tests.test_solver import _run_marches; _run_marches({order[::-1]!r}, {str(out)!r})"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True, timeout=120)
    with np.load(out) as saved:
        alone = {key: saved[f"arr_{i}"] for i, key in enumerate(order[::-1])}
    for key, result in zip(order + order, interleaved):
        assert result.tobytes() == alone[key].tobytes(), f"grid {key[0]}, {VARIANTS[key[1]].name}"


_SCIPY_IMPORT_PROBE = """
import sys
import numpy as np
import ltsheat.cli
from ltsheat import (
    GridConfig, SolveMode, build_composite_grid, error_report, manufactured_problem, march, solve_window_monolithic,
)
from ltsheat import scheme
from ltsheat.scheme import VARIANTS
grid = build_composite_grid(GridConfig(0.0, 1.0, 0.25, 25, 15, 0.002, 0.02, 0.1))
problem = manufactured_problem()
trajectory, _ = march(grid, VARIANTS[0], SolveMode.converged(), problem)
error_report(trajectory, problem)
solve_window_monolithic(grid, 1, trajectory.fine[0], trajectory.coarse[0], VARIANTS[0], problem)
packages = ("scipy", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg", "numpy.f2py", "numpy.testing")
print(*(name in sys.modules for name in packages))
print("scipy.sparse.linalg._dsolve._superlu" in sys.modules)
import scipy.linalg.blas, scipy.linalg.lapack
print(
    scipy.linalg.lapack.dpttrf is scheme._flapack.dpttrf,
    scipy.linalg.lapack.dpttrs is scheme._flapack.dpttrs,
    scipy.linalg.lapack.dgbtrf is scheme._flapack.dgbtrf,
    scipy.linalg.lapack.dgbtrs is scheme._flapack.dgbtrs,
    scipy.linalg.blas.dgbmv is scheme._fblas.dgbmv,
    scipy.linalg.blas.idamax is scheme._fblas.idamax,
)
"""


def test_no_ltsheat_call_imports_scipy_packages():
    # Every run would pay the import time and memory of scipy.sparse, of the
    # scipy.linalg package and of the scipy package itself if a call loaded
    # them, so a fresh interpreter shows that none does: the iterative path
    # and the monolithic reference reach LAPACK and BLAS through scipy's
    # extension modules alone, and SuperLU's is never loaded.  Once a user
    # imports the packages, their functions must be the ones ltsheat calls,
    # each extension loaded once.  A scipy that lacks a wrapper ltsheat calls
    # fails the probe, and its error, which names the symbol, is the failure
    # message.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    probe = subprocess.run(
        [sys.executable, "-c", _SCIPY_IMPORT_PROBE], cwd=root, env=env, timeout=120, capture_output=True, text=True
    )
    assert probe.returncode == 0, f"the scipy probe exited {probe.returncode}:\n{probe.stderr}"
    assert probe.stdout.split() == ["False"] * 7 + ["True"] * 6


_POLYNOMIAL_IMPORT_PROBE = """
import sys
import ltsheat.cli
from ltsheat import (
    GridConfig, SolveMode, build_composite_grid, error_report, manufactured_problem, march, solve_window_monolithic,
)
from ltsheat.scheme import VARIANTS
grid = build_composite_grid(GridConfig(0.0, 1.0, 0.25, 25, 15, 0.002, 0.02, 0.1))
problem = manufactured_problem()
trajectory, _ = march(grid, VARIANTS[0], SolveMode.converged(), problem)
error_report(trajectory, problem)
solve_window_monolithic(grid, 1, trajectory.fine[0], trajectory.coarse[0], VARIANTS[0], problem)
print("numpy.polynomial" in sys.modules)
ltsheat.cli.polynomial_problem((1.0,), (0.0,))
print("numpy.polynomial" in sys.modules)
"""


def test_only_custom_coefficient_problems_import_numpy_polynomial():
    # numpy.polynomial costs every process about 1.2 MB, and the Gauss rule it
    # would give is written out, so a fresh interpreter shows that importing
    # the CLI and a bump march, its error report and the monolithic reference
    # leave it unloaded, until a custom-coefficient problem is built
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    probe = subprocess.run(
        [sys.executable, "-c", _POLYNOMIAL_IMPORT_PROBE], cwd=root, env=env, timeout=120, capture_output=True, text=True
    )
    assert probe.returncode == 0, f"the probe exited {probe.returncode}:\n{probe.stderr}"
    assert probe.stdout.split() == ["False", "True"]


def test_scipy_extension_loader_reuses_a_loaded_module_and_names_a_missing_file(monkeypatch):
    # a registered module is returned untouched: loading the file again would
    # refill its namespace from the extension; a wrapper of a nested package
    # (SuperLU's, which ltsheat does not load) is looked for in its own
    # directory
    for package, name in (("scipy.linalg", "_fblas"), ("scipy.sparse.linalg._dsolve", "_superlu")):
        registered = types.ModuleType(f"{package}.{name}")
        monkeypatch.setitem(sys.modules, f"{package}.{name}", registered)
        assert ltsheat.scheme._scipy_extension(f"{package}.{name}") is registered
        assert vars(registered).keys() == vars(types.ModuleType("")).keys()
        directory = Path(scipy.__file__).parent.joinpath(*package.split(".")[1:])
        missing = f"{package}._no_such_wrapper"
        with pytest.raises(ImportError, match=re.escape(f"{missing}: tried {directory / '_no_such_wrapper'}")):
            ltsheat.scheme._scipy_extension(missing)
        assert missing not in sys.modules
