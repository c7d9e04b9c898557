import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltsheat import ConfigurationError, GridConfig, build_composite_grid
from tests.conftest import BUMP_CONFIG


def test_reference_grid_counts(bump_grid):
    assert bump_grid.n_fine == 25
    assert bump_grid.n_coarse == 15
    assert bump_grid.ratio == 10
    assert bump_grid.n_windows == 5
    assert bump_grid.d_fine == pytest.approx(0.005)
    assert bump_grid.d_coarse == pytest.approx(0.025)
    assert bump_grid.d_across == pytest.approx(0.03)


def test_matching_time_steps_give_ratio_one():
    cfg = GridConfig(0.0, 1.0, 0.5, 4, 4, 0.01, 0.01, 0.1)
    grid = build_composite_grid(cfg)
    assert grid.ratio == 1
    assert grid.n_windows == 10


def test_non_integer_ratio_rejected():
    cfg_kwargs = dict(domain_lo=0.0, domain_hi=1.0, interface_x=0.5, n_cells_fine=4, n_cells_coarse=4, t_end=0.1)
    with pytest.raises(ConfigurationError, match="dt_coarse / dt_fine"):
        build_composite_grid(GridConfig(dt_fine=0.008, dt_coarse=0.02, **cfg_kwargs))
    with pytest.raises(ConfigurationError, match="t_end / dt_coarse"):
        build_composite_grid(GridConfig(dt_fine=0.015, dt_coarse=0.015, **cfg_kwargs))
    # a ratio that overflows to inf is no integer either, and no traceback
    with pytest.raises(ConfigurationError, match="dt_coarse / dt_fine = inf is not a positive integer"):
        build_composite_grid(GridConfig(dt_fine=1e-320, dt_coarse=0.02, **cfg_kwargs))
    with pytest.raises(ConfigurationError, match="t_end / dt_coarse = inf is not a positive integer"):
        build_composite_grid(GridConfig(dt_fine=1e-320, dt_coarse=1e-320, **cfg_kwargs))


@pytest.mark.parametrize("name", ["domain_lo", "domain_hi"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_domain_end_rejected(name, value):
    ends = {"domain_lo": 0.0, "domain_hi": 1.0, name: value}
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        GridConfig(interface_x=0.5, n_cells_fine=4, n_cells_coarse=4, dt_fine=0.01, dt_coarse=0.01, t_end=0.1, **ends)


def test_interface_must_be_interior():
    with pytest.raises(ConfigurationError, match="interface_x"):
        GridConfig(0.0, 1.0, 1.0, 4, 4, 0.01, 0.01, 0.1)
    with pytest.raises(ConfigurationError, match="interface_x"):
        GridConfig(0.0, 1.0, -0.2, 4, 4, 0.01, 0.01, 0.1)


def test_explicit_widths():
    cfg = GridConfig(0.0, 1.0, 0.5, 3, 2, 0.01, 0.01, 0.1, widths_fine=(0.1, 0.2, 0.2), widths_coarse=(0.3, 0.2))
    grid = build_composite_grid(cfg)
    assert grid.faces_fine[-1] == 0.5
    assert grid.faces_coarse[-1] == 1.0
    np.testing.assert_allclose(grid.widths_fine, [0.1, 0.2, 0.2], rtol=1e-15)
    with pytest.raises(ConfigurationError, match="widths_fine"):
        build_composite_grid(
            GridConfig(0.0, 1.0, 0.5, 3, 2, 0.01, 0.01, 0.1, widths_fine=(0.1, 0.2, 0.3), widths_coarse=(0.3, 0.2))
        )
    # every comparison with NaN is false: non-finite widths must still be rejected
    for bad in ((0.2, float("nan"), 0.1), (0.2, float("inf"), 0.1)):
        with pytest.raises(ConfigurationError, match="widths_fine entries must be positive and finite"):
            GridConfig(0.0, 1.0, 0.5, 3, 2, 0.01, 0.01, 0.1, widths_fine=bad)


def test_time_slabs(bump_grid):
    assert bump_grid.coarse_slab(1) == (0.0, 0.02)
    assert bump_grid.fine_slab(1, 1) == (0.0, 0.002)
    t0, t1 = bump_grid.fine_slab(3, 10)
    assert t1 == pytest.approx(0.06)
    assert bump_grid.coarse_midtime(2) == pytest.approx(0.03)
    assert bump_grid.fine_midtime(1, 1) == pytest.approx(0.001)


@settings(max_examples=60)
@given(
    n_fine=st.integers(1, 40),
    n_coarse=st.integers(1, 40),
    iface=st.floats(0.05, 0.95),
    ratio=st.integers(1, 12),
)
def test_cell_widths_tile_subdomains(n_fine, n_coarse, iface, ratio):
    cfg = GridConfig(0.0, 1.0, iface, n_fine, n_coarse, 0.01 / ratio, 0.01, 0.05)
    grid = build_composite_grid(cfg)
    assert abs(np.sum(grid.widths_fine) - iface) <= 1e-13 * max(1.0, iface)
    assert abs(np.sum(grid.widths_coarse) - (1.0 - iface)) <= 1e-13
    assert np.all(np.diff(grid.faces_fine) > 0)
    assert np.all(np.diff(grid.faces_coarse) > 0)
    assert grid.ratio == ratio


def test_rebuild_is_bitwise_deterministic():
    a = build_composite_grid(BUMP_CONFIG)
    b = build_composite_grid(BUMP_CONFIG)
    assert a.widths_fine.tobytes() == b.widths_fine.tobytes()
    assert a.centers_coarse.tobytes() == b.centers_coarse.tobytes()
    assert a.faces_fine.tobytes() == b.faces_fine.tobytes()


def test_grid_arrays_are_read_only(bump_grid):
    with pytest.raises(ValueError):
        bump_grid.widths_fine[0] = 1.0


@pytest.mark.parametrize(
    "override, message",
    [
        (dict(t_end=1e300), r"the fine trajectory has \(levels \* n_windows \+ 1\) \* n_cells = \(10 \* 5"),
        (dict(n_cells_fine=10**19), r"the fine trajectory .* = \(10 \* 5 \+ 1\) \* 10{19} = 510{19} values"),
        (dict(n_cells_coarse=2**62), r"the coarse trajectory .* = \(1 \* 5 \+ 1\) \* 4611686018427387904 = "),
    ],
    ids=["horizon", "fine-cells", "coarse-cells"],
)
def test_a_trajectory_too_large_for_one_array_is_rejected(override, message):
    with pytest.raises(ConfigurationError, match=message):
        build_composite_grid(replace(BUMP_CONFIG, **override))


@pytest.mark.parametrize(
    "override, side",
    [
        (dict(domain_lo=-1e308, domain_hi=1e308), "fine"),
        (dict(interface_x=1e-310), "fine"),
        (dict(domain_hi=1e306, dt_fine=2e-6, dt_coarse=2e-5, t_end=1e-4), "coarse"),
    ],
    ids=["mass", "half-cell", "coarse-mass"],
)
def test_a_step_matrix_entry_that_overflows_is_rejected_without_a_warning(override, side):
    # the overflowing sums and quotients warn nothing before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=f"the {side} step matrix is not finite"):
            build_composite_grid(replace(BUMP_CONFIG, **override))
