"""Shared fixtures: cached singular systems, independent spectrum and coin oracles, seed rngs."""

import numpy as np
import pytest

from ipcrypt import hso


@pytest.fixture(scope="session")
def svd256():
    return hso.hso_svd(256)


@pytest.fixture(scope="session")
def svd512():
    return hso.hso_svd(512)


@pytest.fixture(scope="session")
def reference_spectrum_2048():
    """Dense eigenvalue oracle at n = 2048, built without the library.

    The grid, kernel, and decomposition are spelled out from scratch here so
    that the operator module is checked against an independent construction
    rather than against itself.
    """
    n = 2048
    y = (np.arange(n) + 0.5) / n
    kernel = np.exp(-np.abs(y[:, None] - y[None, :])) / n
    eigenvalues = np.linalg.eigvalsh(kernel)
    return np.sort(eigenvalues)[::-1]


@pytest.fixture(scope="session")
def sample_poly_cbd():
    """FIPS 203 SamplePolyCBD for any eta, bit by bit in pure Python: the coin oracle.

    Bit j of the byte string is bit j % 8 of byte j // 8; value i is the
    sum of bits 2 i eta .. 2 i eta + eta - 1 minus the sum of the next
    eta bits.  The streams it reads come from hashlib.shake_256 in the
    tests, never from the library.
    """

    def draw(data: bytes, count: int, eta: int) -> list[int]:
        def bit(j):
            return (data[j // 8] >> (j % 8)) & 1

        return [
            sum(bit(2 * i * eta + k) for k in range(eta))
            - sum(bit(2 * i * eta + eta + k) for k in range(eta))
            for i in range(count)
        ]

    return draw


class _SeedRng:
    """An rng stand-in with only `bytes`: each bytes(32) call returns the next seed."""

    def __init__(self, *seeds: bytes) -> None:
        self._seeds = list(seeds)

    def bytes(self, length: int) -> bytes:
        assert length == 32, length
        return self._seeds.pop(0)


@pytest.fixture(scope="session")
def seed_rng():
    """Factory of rngs that hand out the given 32-byte seeds, in order, and nothing else."""
    return _SeedRng
