"""Shared fixtures: cached singular systems and independent spectrum and coin oracles."""

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
def integers_cbd():
    """Centered binomial draws written on Generator.integers, the coin oracle.

    This is how kem.cbd drew before it read raw PCG64 words: two
    integers(0, 2) calls, positive terms first, summed over a last axis
    of length eta.
    """

    def draw(rng, shape, eta):
        size = tuple(np.atleast_1d(shape)) + (eta,)
        a = rng.integers(0, 2, size=size, dtype=np.int64)
        b = rng.integers(0, 2, size=size, dtype=np.int64)
        return (a - b).sum(axis=-1)

    return draw
