"""Discretized model of L2[0,1] on a uniform midpoint grid.

A function u is represented by its samples at the n midpoints
y_i = (i + 0.5) / n, and integrals by the midpoint rule with weight
h = 1/n.  All downstream linear algebra (operator application, SVD,
inversion) lives in this geometry, so norms here approximate their
continuum counterparts to O(h^2).

The library computes on plain float64 arrays of samples.  GridFunction
is the validated form of such an array: 1-d, nonempty, real, finite and
frozen.  It is the type of a ciphertext body, where samples may arrive
from outside the program.  The constructor checks outside samples and
keeps a read-only copy.  Its finiteness check is one dot product of the
samples with themselves, and only a body whose dot is not finite gets
the element-wise pass that accepts it or names its first non-finite
index.  Encryption, whose fresh body holds those properties by
construction, wraps it as it is (`GridFunction._of_samples`).
This module has no byte layout of its own (the ciphertext file reader in
`formats` builds the body through the constructor).  Its `_integer`,
`_real` and byte gates check the fields of every layer where they enter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridFunction",
    "midpoints",
    "norm",
]


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real-valued function sampled at the n midpoints of [0,1].

    values is a read-only float64 array of the samples, 1-d, nonempty,
    real and finite: the constructor checks them and keeps a copy, and
    `_of_samples` wraps a fresh array.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.values):
            raise ValueError("grid function samples must be real, got complex")
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"grid function must be 1-d, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("grid function must not be empty")
        # Finite samples have a finite sum of squares, or one that overflows
        # to +inf; a nan or an infinity makes it nan or +inf.  So a finite
        # dot accepts the samples whatever order BLAS sums in, and only a
        # body that fails it pays for the pass that finds the index.  vdot,
        # unlike dot, warns of no overflow in a body it then accepts.
        if not math.isfinite(np.vdot(arr, arr)):
            finite = np.isfinite(arr)
            if not np.logical_and.reduce(finite):
                raise ValueError(f"non-finite sample at index {int(np.argmin(finite))}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def _of_samples(cls, values: np.ndarray) -> "GridFunction":
        """GridFunction of a fresh 1-d, nonempty, finite float64 array, with no copy and no check.

        sym_encrypt builds its body so from a checked key and message.
        """
        values.flags.writeable = False
        u = object.__new__(cls)
        object.__setattr__(u, "values", values)
        return u

    @property
    def n(self) -> int:
        return self.values.size


def _integer(value, what: str) -> int:
    """value as a plain int; a bool or a numpy integer is taken, a float or a str refused."""
    if type(value) is int:
        return value
    if not isinstance(value, numbers.Integral):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """value as a float; an int or a bool is taken (+-inf past a float's range), a str refused."""
    if type(value) is float:
        return value
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _refuse_non_integer(arr: np.ndarray, what: str) -> None:
    """Refuse an array that casting to int64 would truncate (floats, NaN, complex, bool)."""
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers")


def _as_bytes(value, what: str) -> bytes:
    """value as bytes: a bytes object as it is, any other byte buffer copied.

    A copy keeps a frozen object's field from changing with a mutable
    buffer it was given.  What is not a flat buffer of single bytes (a
    str, a list, a float64 array) is refused, so that a length counts items.
    """
    if type(value) is bytes:
        return value
    try:
        view = memoryview(value)
    except TypeError:
        view = None
    if view is None or view.itemsize != 1 or view.ndim != 1:
        raise TypeError(f"{what} must be bytes, got {type(value).__name__}")
    return view.tobytes()


def _fixed_bytes(value, size: int, what: str) -> bytes:
    """value as bytes of length size (see _as_bytes), with no call for a bytes object."""
    if type(value) is not bytes:
        value = _as_bytes(value, what)
    if len(value) != size:
        raise ValueError(f"{what} must be {size} bytes, got {len(value)}")
    return value


def midpoints(n: int) -> np.ndarray:
    """Grid nodes y_i = (i + 0.5)/n for i = 0..n-1."""
    if n < 1:
        raise ValueError(f"grid size must be positive, got {n}")
    return (np.arange(n) + 0.5) / n


def norm(u: np.ndarray) -> float:
    """Midpoint-rule L2 norm sqrt(h) ||u|| of the samples u.

    ||u|| is sqrt(u . u) from one dot product, the same ddot that
    np.linalg.norm makes for 1-d float64 samples, so the value is the
    same to the bit; samples of any other dtype are converted to float64
    first, as np.linalg.norm converts integers.
    """
    if u.ndim != 1 or u.size == 0:
        raise ValueError(f"samples must be 1-d and nonempty, got shape {u.shape}")
    if u.dtype != np.float64:
        u = u.astype(np.float64)
    return math.sqrt(1.0 / u.size) * math.sqrt(u.dot(u))

