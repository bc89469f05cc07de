"""Grid functions: the quadrature norm and the validated body type.

The body's byte layout lives in the IPC1 container; its tests are in
test_formats.py.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipcrypt.grid import GridFunction, midpoints, norm

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64)
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
    u = GridFunction([1.0, 2.0, 3.0])
    assert u.n == 3
    assert len(u) == 3
    assert u.h == pytest.approx(1.0 / 3.0)
    assert u.values.dtype == np.float64
    assert not u.values.flags.writeable


def test_grid_function_copies_input():
    raw = np.array([1.0, 2.0])
    u = GridFunction(raw)
    raw[0] = 99.0
    assert u.values[0] == 1.0


def test_grid_function_is_frozen():
    u = GridFunction([1.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.values = np.array([2.0])


def test_grid_function_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        GridFunction([])


def test_grid_function_rejects_non_finite_with_index():
    with pytest.raises(ValueError, match="index 2"):
        GridFunction([0.0, 1.0, float("nan")])
    with pytest.raises(ValueError, match="index 0"):
        GridFunction([float("inf"), 1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("index", [0, 6])
def test_grid_function_names_the_first_non_finite_index(bad, index):
    values = np.arange(7, dtype=np.float64)
    values[index] = bad
    with pytest.raises(ValueError, match=f"^non-finite sample at index {index}$"):
        GridFunction(values)
    values[-1] = bad
    with pytest.raises(ValueError, match=f"^non-finite sample at index {index}$"):
        GridFunction(values)


@pytest.mark.parametrize("big", [1e200, 1.7e308])
def test_grid_function_accepts_finite_samples_whose_squares_overflow(big):
    """The sum of squares overflows to +inf, yet every sample is finite."""
    values = np.array([big, -big, 0.0, 1.0, -big])
    u = GridFunction(values)
    assert np.array_equal(u.values, values)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("rest", [1.0, 1.7e308])
def test_grid_function_refuses_non_finite_at_any_index(bad, where, rest):
    """Among ordinary samples and among samples whose squares overflow alike."""
    n = 257
    index = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    values = np.full(n, rest)
    values[1::2] *= -1
    values[index] = bad
    with pytest.raises(ValueError, match=f"^non-finite sample at index {index}$"):
        GridFunction(values)


def test_grid_function_refuses_complex_samples():
    """Casting would drop the imaginary part (with a ComplexWarning); refuse instead."""
    for values in (np.array([1 + 2j, 2]), [1.0, 2j], np.zeros(4, dtype=np.complex64)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                GridFunction(values)
        assert str(exc.value) == "grid function samples must be real, got complex"


def test_grid_function_rejects_multidimensional():
    with pytest.raises(ValueError):
        GridFunction(np.zeros((2, 2)))


def test_norm_hand_value():
    # sqrt(h * 4) = sqrt(0.25 * 4) = 1 exactly.
    assert norm(np.array([2.0, 0.0, 0.0, 0.0])) == 1.0


def test_norm_of_constant_one():
    for n in (1, 5, 128):
        assert norm(np.ones(n)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 255, 256, 2048])
def test_norm_equals_the_linalg_norm_formula_exactly(n):
    """One dot product is the ddot np.linalg.norm makes; integers are converted first."""
    rng = np.random.default_rng(n)
    for u in (
        rng.standard_normal(n),
        1e150 * rng.standard_normal(n),
        rng.integers(-1000, 1000, n),
        rng.integers(-(1 << 40), 1 << 40, n),  # squares overflow an int64 dot
    ):
        assert norm(u) == float(np.sqrt(1 / n) * np.linalg.norm(u))
        assert type(norm(u)) is float


def test_norm_rejects_non_vector_samples():
    with pytest.raises(ValueError, match="1-d"):
        norm(np.ones((2, 4)))
    with pytest.raises(ValueError, match="nonempty"):
        norm(np.array([]))


@given(paired_lists)
def test_cauchy_schwarz(pairs):
    """The grid norm bounds the midpoint-rule inner product h <u, v>."""
    u = np.array([a for a, _ in pairs])
    v = np.array([b for _, b in pairs])
    bound = norm(u) * norm(v)
    assert abs(np.dot(u, v) / u.size) <= bound * (1.0 + 1e-9) + 1e-12


@given(paired_lists)
def test_add_then_subtract_recovers_exactly(pairs):
    """Masking samples into a body and unmasking them must be lossless in practice."""
    x = np.array([a for a, _ in pairs])
    e = np.array([b for _, b in pairs])
    masked = GridFunction(x + e)
    np.testing.assert_allclose(masked.values - e, x, atol=1e-12)

