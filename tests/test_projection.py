import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltsheat import DimensionError, inject_coarse_to_fine, interface_pairing, project_fine_to_coarse

values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def test_project_is_mean():
    assert project_fine_to_coarse(np.array([1.0, 2.0, 3.0, 4.0]), 4) == pytest.approx(2.5)


def test_project_preserves_constants():
    for ratio in (1, 2, 5):
        assert project_fine_to_coarse(np.full(ratio, 3.75), ratio) == 3.75


def test_project_against_compensated_summation():
    vals = [0.1, -0.3, 0.7]
    t = project_fine_to_coarse(np.array(vals), 3)
    expected = math.fsum(vals) / 3.0
    assert abs(t - expected) <= 1e-16 * max(1.0, abs(expected))


def test_project_rejects_wrong_length():
    with pytest.raises(DimensionError):
        project_fine_to_coarse(np.array([1.0, 2.0]), 3)
    with pytest.raises(DimensionError):
        project_fine_to_coarse(np.array([1.0]), 3)


def test_inject_replicates():
    np.testing.assert_array_equal(inject_coarse_to_fine(7.0, 3), [7.0, 7.0, 7.0])


def test_roundtrip_identity_on_coarse():
    assert project_fine_to_coarse(inject_coarse_to_fine(-2.5, 4), 4) == -2.5


def test_pairing_window_measure():
    ones = np.ones(10)
    assert interface_pairing(ones, ones, 0.002, 1.0) == pytest.approx(0.02)
    assert interface_pairing(np.zeros(10), ones, 0.002, 1.0) == 0.0


def test_pairing_rejects_mixed_resolution():
    with pytest.raises(DimensionError):
        interface_pairing(np.array([1.0, 2.0]), np.array([1.0]), 0.1, 1.0)


@settings(max_examples=200)
@given(
    ratio=st.sampled_from([1, 2, 3, 10]),
    u2=values,
    data=st.data(),
    dt1=st.floats(1e-4, 1.0),
)
def test_adjointness(ratio, u2, data, dt1):
    u1_vals = data.draw(st.lists(values, min_size=ratio, max_size=ratio))
    u1 = np.array(u1_vals)
    lhs = interface_pairing(inject_coarse_to_fine(u2, ratio), u1, dt1, 1.0)
    rhs = interface_pairing(np.array([u2]), np.array([project_fine_to_coarse(u1, ratio)]), dt1 * ratio, 1.0)
    scale = max(abs(lhs), abs(rhs), dt1 * sum(abs(u2 * v) for v in u1_vals), 1e-300)
    assert abs(lhs - rhs) <= 1e-14 * scale


@settings(max_examples=100)
@given(ratio=st.sampled_from([1, 2, 3, 10]), data=st.data())
def test_projection_nonexpansive_in_max_norm(ratio, data):
    vals = data.draw(st.lists(values, min_size=ratio, max_size=ratio))
    coarse = project_fine_to_coarse(np.array(vals), ratio)
    assert abs(coarse) <= max(abs(v) for v in vals) + 1e-12


def test_ratio_one_operators_are_identity():
    assert project_fine_to_coarse(np.array([4.25]), 1) == 4.25
    assert inject_coarse_to_fine(4.25, 1)[0] == 4.25
