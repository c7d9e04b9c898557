import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltsheat import (
    ConfigurationError,
    DimensionError,
    Problem,
    discrete_norms,
    error_report,
    observed_order,
    subdomain_l2_error,
    zero_problem,
)
from ltsheat.projection import conservativity_defect
from ltsheat.solver import Trajectory


def test_norms_zero_field():
    l2, h1 = discrete_norms(np.zeros(4), np.full(4, 0.25), (0.0, 0.0), (None, None))
    assert l2 == 0.0 and h1 == 0.0


def test_norms_constant_two_cells():
    c = 1.7
    l2, h1 = discrete_norms(np.full(2, c), np.full(2, 0.5), (0.0, 0.0), (None, None))
    assert l2 == pytest.approx(abs(c))
    assert h1**2 == pytest.approx(8.0 * c * c)


def test_norms_linear_field_against_direct_summation():
    n = 16
    widths = np.full(n, 1.0 / n)
    centers = (np.arange(n) + 0.5) / n
    field = centers.copy()
    l2, h1 = discrete_norms(field, widths, (0.0, 1.0), (None, None))
    # independent accumulation with compensated summation
    terms = [(field[j + 1] - field[j]) ** 2 / (1.0 / n) for j in range(n - 1)]
    terms.append((field[0] - 0.0) ** 2 / (0.5 / n))
    terms.append((field[-1] - 1.0) ** 2 / (0.5 / n))
    assert h1**2 == pytest.approx(math.fsum(terms), rel=1e-13)
    assert l2**2 == pytest.approx(math.fsum(f * f / n for f in field), rel=1e-13)


def test_norms_interface_term():
    widths = np.array([0.5, 0.5])
    _, h1_without = discrete_norms(np.array([1.0, 1.0]), widths, (None, None), (None, None))
    _, h1_with = discrete_norms(np.array([1.0, 1.0]), widths, (None, None), (None, 2.0))
    assert h1_without == 0.0
    assert h1_with**2 == pytest.approx((2.0 - 1.0) ** 2 / 0.25)
    # a stack of fields with per-field end values equals one call per field, bitwise
    rng = np.random.default_rng(3)
    stack, widths = rng.standard_normal((7, 5)), rng.uniform(0.5, 1.5, 5)
    bnd, iface = rng.standard_normal((2, 7)), rng.standard_normal((2, 7))
    l2, h1 = discrete_norms(stack, widths, (bnd[0], bnd[1]), (iface[0], iface[1]))
    assert l2.shape == h1.shape == (7,)
    for row in range(7):
        one = discrete_norms(stack[row], widths, (bnd[0, row], bnd[1, row]), (iface[0, row], iface[1, row]))
        assert (l2[row], h1[row]) == one


def test_norms_shape_mismatch():
    with pytest.raises(DimensionError):
        discrete_norms(np.zeros(3), np.zeros(4))
    with pytest.raises(DimensionError):
        discrete_norms(np.zeros((2, 3)), np.zeros(4))


@settings(max_examples=60)
@given(alpha=st.floats(-10, 10, allow_nan=False), data=st.data())
def test_norms_absolutely_homogeneous(alpha, data):
    n = data.draw(st.integers(2, 8))
    field = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
    widths = np.full(n, 1.0 / n)
    l2, h1 = discrete_norms(field, widths, (0.0, 0.0), (None, None))
    l2a, h1a = discrete_norms(alpha * field, widths, (0.0, 0.0), (None, None))
    assert l2a == pytest.approx(abs(alpha) * l2, rel=1e-12, abs=1e-12)
    assert h1a == pytest.approx(abs(alpha) * h1, rel=1e-12, abs=1e-12)


def test_zero_h1_means_zero_field_with_homogeneous_data():
    widths = np.full(3, 1.0 / 3)
    _, h1 = discrete_norms(np.zeros(3), widths, (0.0, 0.0), (None, None))
    assert h1 == 0.0
    _, h1 = discrete_norms(np.full(3, 0.1), widths, (0.0, 0.0), (None, None))
    assert h1 > 0.0


def test_conservativity_defect_values():
    assert conservativity_defect(np.array([1.0, 2.0]), 1.5, 0.5, 1.0) == pytest.approx(0.0)
    assert conservativity_defect(np.array([1.0, 1.0]), 2.0, 0.5, 1.0) == pytest.approx(1.0)


def test_conservativity_defect_shift_invariance():
    rng = np.random.default_rng(5)
    ratio, dt1 = 4, 0.25
    fine_vals = rng.uniform(-1, 1, ratio)
    coarse_val = float(np.mean(fine_vals))
    base = conservativity_defect(fine_vals, coarse_val, dt1, 1.0)
    c = 3.7  # dt2 * c == ratio * dt1 * c, so adding c to both traces is neutral
    shifted = conservativity_defect(fine_vals + c, coarse_val + c, dt1, 1.0)
    assert shifted == pytest.approx(base, abs=1e-14)


def test_error_report_requires_exact(bump_grid, bump_problem, bump_run):
    _, trajectory, _ = bump_run("is2-fine")
    from tests.conftest import random_smooth_problem

    prob = random_smooth_problem(np.random.default_rng(0))
    with pytest.raises(ValueError):
        error_report(trajectory, prob)
    with pytest.raises(ValueError):
        subdomain_l2_error(trajectory, prob, "fine")


def test_exact_solution_of_the_wrong_shape_raises(bump_run):
    _, trajectory, _ = bump_run("is2-fine")
    zero = zero_problem()
    bad = Problem(zero.source, zero.p0, zero.g_lo, zero.g_hi, lambda x, t: np.zeros(4))
    for report in (error_report, lambda tr, p: subdomain_l2_error(tr, p, "fine")):
        with pytest.raises(DimensionError, match=r"exact_solution returned shape \(4,\).*\(\d+, 25\)"):
            report(trajectory, bad)
    # a scalar return broadcasts: the same report as the zero array
    scalar = Problem(zero.source, zero.p0, zero.g_lo, zero.g_hi, lambda x, t: 0.0)
    got, want = error_report(trajectory, scalar), error_report(trajectory, zero)
    for name in ("space_error", "l2_by_window", "l2_final", "h1_final", "h1_global"):
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes()
    assert got.l2_final > 0.0
    assert subdomain_l2_error(trajectory, scalar, "coarse") == subdomain_l2_error(trajectory, zero, "coarse")


def test_error_report_zero_for_exact_interpolant(bump_grid):
    # the zero problem's exact solution is zero: its interpolant is all zeros
    prob = zero_problem()
    g = bump_grid
    trajectory = Trajectory(
        grid=g,
        fine=np.zeros((g.ratio * g.n_windows + 1, g.n_fine)),
        coarse=np.zeros((g.n_windows + 1, g.n_coarse)),
        fine_face_pressure=np.zeros((g.n_windows, g.ratio)),
        coarse_face_pressure=np.zeros(g.n_windows),
        fine_flux=np.zeros((g.n_windows, g.ratio)),
        coarse_flux=np.zeros(g.n_windows),
    )
    series = error_report(trajectory, prob)
    assert np.all(series.space_error == 0.0)
    assert np.all(series.l2_by_window == 0.0)
    assert series.h1_global == 0.0


def test_error_report_shapes(bump_run, bump_problem):
    grid, trajectory, _ = bump_run("is2-fine")
    series = error_report(trajectory, bump_problem)
    assert series.x.shape == (40,)
    assert series.space_error.shape == (40,)
    assert series.l2_by_window.shape == (6,)
    assert series.window_times[0] == 0.0
    assert series.window_times[-1] == pytest.approx(0.1)
    assert series.l2_by_window[0] == 0.0  # exact initial data
    assert series.l2_final == series.l2_by_window[-1]
    assert series.l2_final > 0.0 and series.h1_final > 0.0 and series.h1_global > 0.0
    assert subdomain_l2_error(trajectory, bump_problem, "fine") <= series.l2_final


def test_fine_master_beats_coarse_baseline_in_refined_zone(bump_run, bump_problem):
    _, lts_traj, _ = bump_run("is2-fine")
    _, coarse_traj, _ = bump_run("is2-fine", "converged", 0.02, 0.02)  # coarse dt everywhere
    lts = subdomain_l2_error(lts_traj, bump_problem, "fine")
    baseline = subdomain_l2_error(coarse_traj, bump_problem, "fine")
    assert lts < baseline


def test_observed_order_exact_halving():
    orders = observed_order([(0.4, 0.04, 0.4), (0.2, 0.02, 0.2), (0.1, 0.01, 0.1)])
    assert orders == pytest.approx([1.0, 1.0])


def test_observed_order_flat_errors():
    orders = observed_order([(0.4, 0.04, 0.25), (0.2, 0.02, 0.25)])
    assert orders == pytest.approx([0.0])


def test_observed_order_zero_error_flagged():
    orders = observed_order([(0.4, 0.04, 0.0), (0.2, 0.02, 1e-3)])
    assert orders == [None]


def test_observed_order_single_level():
    assert observed_order([(0.4, 0.04, 0.1)]) == []


def test_observed_order_rejects_inconsistent_refinement():
    with pytest.raises(ConfigurationError):
        observed_order([(0.4, 0.04, 0.4), (0.2, 0.013, 0.2)])
    with pytest.raises(ConfigurationError):
        observed_order([(0.2, 0.02, 0.2), (0.4, 0.04, 0.4)])
