"""Grid-valued error terms: lattice-style discrete noise, keyed derivation.

Errors take values scale * k with integer k drawn per grid point from a
centered binomial (parameter eta) or a truncated discrete Gaussian
(parameter sigma).  A key is a 32-byte seed plus the distribution
parameters; derive_error expands (seed, nonce) through the XOF into a
deterministic generator seed, so equal nonces reproduce the same error
and distinct nonces give independent-looking ones.

The distribution must carry enough entropy that enumerating error
candidates is hopeless: ErrorParams enforces a 128-bit floor on
n * (per-point entropy) at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, make_grid_function
from .kem import cbd, xof_expand

__all__ = [
    "DISCRETE_GAUSSIAN",
    "CENTERED_BINOMIAL",
    "ErrorParams",
    "ErrorKey",
    "point_distribution",
    "entropy_bits",
    "sample_error",
    "keygen",
    "derive_error",
    "NONCE_BYTES",
    "ENTROPY_FLOOR_BITS",
]

DISCRETE_GAUSSIAN = "discrete_gaussian"
CENTERED_BINOMIAL = "centered_binomial"

NONCE_BYTES = 16
ENTROPY_FLOOR_BITS = 128.0

# Gaussian tails beyond 6 sigma carry ~1e-8 of the mass; cut them there.
_GAUSS_TAIL_SIGMAS = 6.0

# Largest |k| a point draw may take.  point_distribution lists the whole
# support and weights it in float64, where comb(2 eta, eta) overflows from
# eta = 512 on; parameters read from a key file are bounded here first.
_MAX_SUPPORT = 256


@dataclass(frozen=True)
class ErrorParams:
    """Shape of the per-point integer noise and its grid placement."""

    n: int
    scale: float
    distribution: str = CENTERED_BINOMIAL
    eta: int = 2
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"grid size must be positive, got {self.n}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.distribution == CENTERED_BINOMIAL:
            if not 1 <= self.eta <= _MAX_SUPPORT:
                raise ValueError(f"eta must be in [1, {_MAX_SUPPORT}], got {self.eta}")
        elif self.distribution == DISCRETE_GAUSSIAN:
            # Also rejects nan and inf.
            if not (0 < self.sigma and _GAUSS_TAIL_SIGMAS * self.sigma < _MAX_SUPPORT + 1):
                raise ValueError(
                    f"sigma must be positive with {_GAUSS_TAIL_SIGMAS:g}*sigma < "
                    f"{_MAX_SUPPORT + 1}, got {self.sigma}"
                )
        else:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        total = self.n * entropy_bits(self)
        if total < ENTROPY_FLOOR_BITS:
            raise ValueError(
                f"error space entropy {total:.1f} bits is below the "
                f"{ENTROPY_FLOOR_BITS:.0f}-bit floor; enlarge n or the distribution"
            )


@dataclass(frozen=True)
class ErrorKey:
    """Symmetric key: secret seed plus public noise parameters."""

    seed: bytes = field(repr=False)
    params: ErrorParams

    def __post_init__(self) -> None:
        if len(self.seed) != 32:
            raise ValueError(f"key seed must be 32 bytes, got {len(self.seed)}")


def point_distribution(params: ErrorParams) -> tuple[np.ndarray, np.ndarray]:
    """Integer support and probabilities of the per-point draw."""
    if params.distribution == CENTERED_BINOMIAL:
        eta = params.eta
        support = np.arange(-eta, eta + 1)
        probs = np.array(
            [math.comb(2 * eta, eta + k) for k in support], dtype=np.float64
        )
    else:
        cut = int(math.floor(_GAUSS_TAIL_SIGMAS * params.sigma))
        support = np.arange(-cut, cut + 1)
        probs = np.exp(-0.5 * (support / params.sigma) ** 2)
    return support, probs / probs.sum()


def entropy_bits(params: ErrorParams) -> float:
    """Shannon entropy of one point draw, in bits."""
    _, probs = point_distribution(params)
    probs = probs[probs > 0]
    return float(-np.sum(probs * np.log2(probs)))


def sample_error(params: ErrorParams, rng: np.random.Generator) -> GridFunction:
    """One grid error: n iid integer draws, scaled."""
    if params.distribution == CENTERED_BINOMIAL:
        values = cbd(rng, params.n, params.eta)
    else:
        support, probs = point_distribution(params)
        values = rng.choice(support, size=params.n, p=probs)
    return make_grid_function(params.scale * values.astype(np.float64))


def keygen(params: ErrorParams, rng: np.random.Generator) -> ErrorKey:
    return ErrorKey(seed=rng.bytes(32), params=params)


def derive_error(key: ErrorKey, nonce: bytes) -> GridFunction:
    """Deterministic error for (key, nonce), distributed per key.params.

    The XOF output over seed || nonce seeds a fresh generator, so the
    draw goes through the same sample_error path as direct sampling.
    """
    if len(nonce) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} bytes, got {len(nonce)}")
    stream_seed = int.from_bytes(xof_expand(key.seed + nonce, 32), "little")
    return sample_error(key.params, np.random.default_rng(stream_seed))
