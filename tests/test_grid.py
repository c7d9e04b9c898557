import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltsheat import ConfigurationError, GridConfig, build_composite_grid
from ltsheat.projection import COARSE, FINE
from tests.conftest import BUMP_CONFIG, ReferenceTimes, grid_space


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


@pytest.mark.parametrize("name", ["n_cells_fine", "n_cells_coarse"])
@pytest.mark.parametrize("value", [2.5, 4.0, True, float("nan"), "4"])
def test_a_cell_count_that_is_no_integer_is_rejected(name, value):
    counts = {"n_cells_fine": 4, "n_cells_coarse": 4, name: value}
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer, got {value!r}"):
        GridConfig(0.0, 1.0, 0.5, dt_fine=0.01, dt_coarse=0.01, t_end=0.1, **counts)
    assert build_composite_grid(GridConfig(0.0, 1.0, 0.5, 4, np.int64(4), 0.01, 0.01, 0.1)).n_coarse == 4


#: the real-number fields of a valid ``GridConfig``
_REAL_FIELDS = dict(domain_lo=0.0, domain_hi=1.0, interface_x=0.5, dt_fine=0.01, dt_coarse=0.01, t_end=0.1)


@pytest.mark.parametrize(
    "name, value",
    [(name, value) for name in _REAL_FIELDS for value in ("0.5", None, True)]
    + [(name, value) for name in ("widths_fine", "widths_coarse") for value in (5, "abcd", (0.125, "a", 0.125, 0.125))],
)
def test_a_field_that_is_no_real_number_is_rejected(name, value):
    # checked before any comparison, so no raw TypeError escapes
    fields = dict(_REAL_FIELDS, n_cells_fine=4, n_cells_coarse=4, **{name: value})
    with pytest.raises(ConfigurationError, match=f"{name} must be a (real number|sequence of real numbers), got "):
        GridConfig(**fields)
    numpy_reals = dict(_REAL_FIELDS, domain_hi=np.float64(1.0), dt_fine=np.float32(0.01), t_end=np.int64(1))
    assert GridConfig(n_cells_fine=4, n_cells_coarse=4, widths_fine=np.full(4, 0.125), **numpy_reals).t_end == 1


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
    fine, coarse = bump_grid.sides[FINE], bump_grid.sides[COARSE]
    assert [t.tolist() for t in coarse.slab(1)] == [[0.0], [0.02]]
    assert [t[0] for t in fine.slab(1)] == [0.0, 0.002]
    assert fine.slab(3)[1][-1] == pytest.approx(0.06)
    assert coarse.midtime(2).tolist() == [pytest.approx(0.03)]
    assert fine.midtime(1)[0] == pytest.approx(0.001)
    assert fine.midtime(np.arange(1, 6)).shape == (5, 10) and coarse.slab(np.arange(1, 6))[0].shape == (5, 1)


@settings(max_examples=60)
@given(config=grid_space(windows=40))
@example(GridConfig(0.0, 1.0, 0.25, 25, 15, 0.0025, 0.0025, 0.1))  # K = 1, 40 windows
def test_side_time_levels_keep_the_bytes_of_the_grid_formulas(config):
    # each side's slabs and midtimes, for every window at once and for one,
    # equal the grid's former fine and coarse formulas bit for bit
    grid = build_composite_grid(config)
    times, windows, levels = ReferenceTimes(grid), np.arange(1, grid.n_windows + 1), np.arange(1, grid.ratio + 1)
    for w, at in ((windows, windows[:, None]), (grid.n_windows, grid.n_windows)):
        reference = {
            FINE: (*times.fine_slab(at, levels), times.fine_midtime(at, levels)),
            COARSE: (*times.coarse_slab(at), times.coarse_midtime(at)),
        }
        for name, side in grid.sides.items():
            for got, want in zip((*side.slab(w), side.midtime(w)), reference[name]):
                assert got.shape == np.shape(w) + (side.levels,)
                assert got.tobytes() == np.broadcast_to(want, got.shape).tobytes(), name


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
