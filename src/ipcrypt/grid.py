"""Discretized model of L2[0,1] on a uniform midpoint grid.

A function u is represented by its samples at the n midpoints
y_i = (i + 0.5) / n, and integrals by the midpoint rule with weight
h = 1/n.  All downstream linear algebra (operator application, SVD,
inversion) lives in this geometry, so norms and inner products here
approximate their continuum counterparts to O(h^2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridFunction",
    "midpoints",
    "make_grid_function",
    "zeros",
    "inner_product",
    "norm",
    "axpy",
    "to_bytes",
    "from_bytes",
]

_HEADER = struct.Struct("<I")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real-valued function sampled at the n midpoints of [0,1].

    values is a read-only float64 array; h = 1/n is the quadrature
    weight shared by every integral below.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"grid function must be 1-d, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("grid function must not be empty")
        if not np.isfinite(arr).all():
            bad = np.flatnonzero(~np.isfinite(arr))
            raise ValueError(f"non-finite sample at index {int(bad[0])}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return 1.0 / self.values.size

    def __len__(self) -> int:
        return self.values.size


def midpoints(n: int) -> np.ndarray:
    """Grid nodes y_i = (i + 0.5)/n for i = 0..n-1."""
    if n < 1:
        raise ValueError(f"grid size must be positive, got {n}")
    return (np.arange(n) + 0.5) / n


def make_grid_function(values) -> GridFunction:
    return GridFunction(np.asarray(values, dtype=np.float64))


def zeros(n: int) -> GridFunction:
    if n < 1:
        raise ValueError(f"grid size must be positive, got {n}")
    return GridFunction(np.zeros(n))


def _check_same_grid(u: GridFunction, v: GridFunction) -> None:
    if u.n != v.n:
        raise ValueError(f"grid size mismatch: {u.n} vs {v.n}")


def inner_product(u: GridFunction, v: GridFunction) -> float:
    """Midpoint-rule approximation of the L2 inner product."""
    _check_same_grid(u, v)
    return float(u.h * np.dot(u.values, v.values))


def norm(u: GridFunction) -> float:
    return float(np.sqrt(u.h) * np.linalg.norm(u.values))


def axpy(a: float, u: GridFunction, v: GridFunction) -> GridFunction:
    """a*u + v on a shared grid."""
    _check_same_grid(u, v)
    return GridFunction(a * u.values + v.values)


def to_bytes(u: GridFunction) -> bytes:
    """u32 LE sample count, then n float64 LE samples."""
    return _HEADER.pack(u.n) + u.values.astype("<f8").tobytes()


def from_bytes(data: bytes) -> GridFunction:
    """Inverse of to_bytes; rejects truncated or oversized payloads."""
    if len(data) < _HEADER.size:
        raise ValueError("grid function payload too short for header")
    (n,) = _HEADER.unpack_from(data)
    if n < 1:
        raise ValueError(f"grid size must be positive, got {n}")
    expected = _HEADER.size + 8 * n
    if len(data) != expected:
        raise ValueError(
            f"grid function payload length {len(data)} != expected {expected}"
        )
    values = np.frombuffer(data, dtype="<f8", count=n, offset=_HEADER.size)
    return GridFunction(values.astype(np.float64))
