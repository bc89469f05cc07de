"""Grid functions: quadrature arithmetic, invariants, and serialization."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipcrypt.grid import (
    GridFunction,
    axpy,
    from_bytes,
    inner_product,
    make_grid_function,
    midpoints,
    norm,
    to_bytes,
    zeros,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64)
value_lists = st.lists(finite, min_size=1, max_size=64)
paired_lists = st.lists(st.tuples(finite, finite), min_size=1, max_size=64)


def test_midpoints_hand_values():
    np.testing.assert_array_equal(midpoints(4), [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_array_equal(midpoints(1), [0.5])


def test_midpoints_rejects_nonpositive():
    with pytest.raises(ValueError):
        midpoints(0)
    with pytest.raises(ValueError):
        midpoints(-3)


def test_grid_function_basic_properties():
    u = make_grid_function([1.0, 2.0, 3.0])
    assert u.n == 3
    assert len(u) == 3
    assert u.h == pytest.approx(1.0 / 3.0)
    assert u.values.dtype == np.float64
    assert not u.values.flags.writeable


def test_grid_function_copies_input():
    raw = np.array([1.0, 2.0])
    u = make_grid_function(raw)
    raw[0] = 99.0
    assert u.values[0] == 1.0


def test_grid_function_is_frozen():
    u = make_grid_function([1.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.values = np.array([2.0])


def test_grid_function_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        make_grid_function([])


def test_grid_function_rejects_non_finite_with_index():
    with pytest.raises(ValueError, match="index 2"):
        make_grid_function([0.0, 1.0, float("nan")])
    with pytest.raises(ValueError, match="index 0"):
        make_grid_function([float("inf"), 1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("index", [0, 6])
def test_grid_function_names_the_first_non_finite_index(bad, index):
    values = np.arange(7, dtype=np.float64)
    values[index] = bad
    with pytest.raises(ValueError, match=f"^non-finite sample at index {index}$"):
        GridFunction(values)
    values[-1] = bad
    with pytest.raises(ValueError, match=f"^non-finite sample at index {index}$"):
        make_grid_function(values)


def test_grid_function_rejects_multidimensional():
    with pytest.raises(ValueError):
        make_grid_function(np.zeros((2, 2)))


def test_inner_product_hand_value():
    # h * (1*3 + 2*4) = 0.5 * 11 = 5.5 on the two-point grid.
    u = make_grid_function([1.0, 2.0])
    v = make_grid_function([3.0, 4.0])
    assert inner_product(u, v) == 5.5


def test_inner_product_constant_one_is_exact_quadrature():
    for n in (1, 2, 3, 7, 17, 49, 64, 200, 256):
        ones = make_grid_function(np.ones(n))
        assert abs(inner_product(ones, ones) - 1.0) < 1e-15


def test_inner_product_rejects_mismatched_grids():
    with pytest.raises(ValueError, match="mismatch"):
        inner_product(make_grid_function([1.0]), make_grid_function([1.0, 2.0]))


def test_norm_hand_value():
    # sqrt(h * 4) = sqrt(0.25 * 4) = 1 exactly.
    assert norm(make_grid_function([2.0, 0.0, 0.0, 0.0])) == 1.0


def test_norm_of_constant_one():
    for n in (1, 5, 128):
        assert norm(make_grid_function(np.ones(n))) == pytest.approx(1.0, abs=1e-15)


def test_axpy_hand_value():
    u = make_grid_function([1.0, 1.0])
    v = make_grid_function([0.5, -0.5])
    np.testing.assert_array_equal(axpy(2.0, u, v).values, [2.5, 1.5])


def test_axpy_rejects_mismatched_grids():
    with pytest.raises(ValueError, match="mismatch"):
        axpy(1.0, make_grid_function([1.0]), make_grid_function([1.0, 2.0]))


def test_zeros():
    z = zeros(5)
    assert z.n == 5
    assert not z.values.any()
    with pytest.raises(ValueError):
        zeros(0)


@given(paired_lists)
def test_cauchy_schwarz(pairs):
    u = make_grid_function([a for a, _ in pairs])
    v = make_grid_function([b for _, b in pairs])
    bound = norm(u) * norm(v)
    assert abs(inner_product(u, v)) <= bound * (1.0 + 1e-9) + 1e-12


@given(paired_lists)
def test_inner_product_symmetry(pairs):
    u = make_grid_function([a for a, _ in pairs])
    v = make_grid_function([b for _, b in pairs])
    lhs = inner_product(u, v)
    rhs = inner_product(v, u)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(paired_lists)
def test_add_then_subtract_recovers_exactly(pairs):
    """Masking with a grid function and unmasking must be lossless in practice."""
    x = make_grid_function([a for a, _ in pairs])
    e = make_grid_function([b for _, b in pairs])
    masked = axpy(1.0, e, x)
    recovered = axpy(-1.0, e, masked)
    np.testing.assert_allclose(recovered.values, x.values, atol=1e-12)


def test_serialized_layout_is_frozen():
    blob = to_bytes(make_grid_function([1.0]))
    assert blob == struct.pack("<I", 1) + struct.pack("<d", 1.0)
    assert len(blob) == 12


def test_serialization_length():
    u = make_grid_function(np.arange(7, dtype=np.float64))
    assert len(to_bytes(u)) == 4 + 7 * 8


@given(value_lists)
def test_serialization_roundtrip(values):
    u = make_grid_function(values)
    v = from_bytes(to_bytes(u))
    assert v.n == u.n
    np.testing.assert_array_equal(v.values, u.values)


def test_from_bytes_rejects_truncation_and_trailing():
    blob = to_bytes(make_grid_function([1.0, 2.0]))
    with pytest.raises(ValueError):
        from_bytes(blob[:-1])
    with pytest.raises(ValueError):
        from_bytes(blob + b"\x00")
    with pytest.raises(ValueError):
        from_bytes(b"\x01")
    with pytest.raises(ValueError):
        from_bytes(struct.pack("<I", 0))
