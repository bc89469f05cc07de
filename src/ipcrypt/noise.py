"""Grid-valued error terms: lattice-style discrete noise, keyed derivation.

Errors take values scale * k with integer k drawn per grid point from a
centered binomial (parameter eta) or a truncated discrete Gaussian
(parameter sigma).  A key is a 32-byte seed plus the distribution
parameters; derive_error expands (seed, nonce) through the XOF into the
integer seed of a PCG64 bit generator, so equal nonces reproduce the same
error and distinct nonces give independent-looking ones.

The draws read raw 64-bit PCG64 words and call no `Generator` method, so
a derived error rests on two NumPy guarantees only: the SeedSequence
seeding and the PCG64 output stream, which NumPy keeps fixed across
releases (NEP 19), unlike the streams of `Generator` methods.  The
binomial coins and the Gaussian inversion reproduce, word for word, what
`Generator.integers(0, 2)` and `Generator.choice` returned on a fresh
generator, so keys and ciphertexts from earlier releases decrypt as they
did.

The distribution must carry enough entropy that enumerating error
candidates is hopeless: ErrorParams enforces a 128-bit floor on
n * (per-point entropy) at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import GridFunction, make_grid_function
from .kem import _centered_binomial, _word_coins, xof_expand

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

# A uniform double from a raw word, as PCG64's next_double makes it.
_DOUBLE_STEP = 1.0 / (1 << 53)


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


@lru_cache(maxsize=64)
def _point_table(
    distribution: str, eta: int, sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Support, probabilities, cdf and entropy of one point draw, read-only.

    The cdf is built as `Generator.choice` builds it, so inverting it
    reproduces that method's draws.
    """
    if distribution == CENTERED_BINOMIAL:
        support = np.arange(-eta, eta + 1)
        probs = np.array(
            [math.comb(2 * eta, eta + k) for k in support], dtype=np.float64
        )
    else:
        cut = int(math.floor(_GAUSS_TAIL_SIGMAS * sigma))
        support = np.arange(-cut, cut + 1)
        probs = np.exp(-0.5 * (support / sigma) ** 2)
    probs = probs / probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    nonzero = probs[probs > 0]
    entropy = float(-np.sum(nonzero * np.log2(nonzero)))
    for arr in (support, probs, cdf):
        arr.flags.writeable = False
    return support, probs, cdf, entropy


def point_distribution(params: ErrorParams) -> tuple[np.ndarray, np.ndarray]:
    """Integer support and probabilities of the per-point draw (read-only, cached)."""
    support, probs, _, _ = _point_table(params.distribution, params.eta, params.sigma)
    return support, probs


def entropy_bits(params: ErrorParams) -> float:
    """Shannon entropy of one point draw, in bits."""
    return _point_table(params.distribution, params.eta, params.sigma)[3]


def sample_error(params: ErrorParams, rng: np.random.Generator) -> GridFunction:
    """One grid error: n iid integer draws, scaled.

    The draws read raw 64-bit words of rng's PCG64 bit generator and call
    no `Generator` method.  A binomial coin is bit 31 of each 32-bit
    half-word, low half first, which is the coin `Generator.integers(0, 2)`
    returns; the first n * eta coins are the positive terms of the n
    points, eta apiece, and the next n * eta the negative ones, as in
    `kem.cbd`.  A Gaussian draw inverts the cached cdf at the uniform
    double (word >> 11) * 2^-53, as `Generator.choice` does.  The coins
    start at a word boundary: a half-word that an earlier `integers` call
    left buffered in the generator is not used, where `kem.cbd` would use
    it first.  Other bit generators are refused: MT19937's raw words, for
    one, carry only 32 bits.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise ValueError(
            f"sample_error reads 64-bit PCG64 words, got a {type(bits).__name__} bit generator"
        )
    support, _, cdf, _ = _point_table(params.distribution, params.eta, params.sigma)
    if params.distribution == CENTERED_BINOMIAL:
        coins = _word_coins(bits.random_raw(params.n * params.eta))
        values = _centered_binomial(coins, params.eta)
    else:
        uniform = (bits.random_raw(params.n) >> np.uint64(11)) * _DOUBLE_STEP
        values = support[np.searchsorted(cdf, uniform, side="right")]
    return make_grid_function(params.scale * values.astype(np.float64))


def keygen(params: ErrorParams, rng: np.random.Generator) -> ErrorKey:
    return ErrorKey(seed=rng.bytes(32), params=params)


def derive_error(key: ErrorKey, nonce: bytes) -> GridFunction:
    """Deterministic error for (key, nonce), distributed per key.params.

    The first 32 bytes of SHAKE-256 over seed || nonce, read as a little
    endian integer, seed a fresh PCG64 through SeedSequence, and
    sample_error draws from its raw words.  The error therefore depends
    on the key, the nonce and those two NumPy guarantees alone, and on no
    `Generator` method.
    """
    if len(nonce) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} bytes, got {len(nonce)}")
    stream_seed = int.from_bytes(xof_expand(key.seed + nonce, 32), "little")
    return sample_error(key.params, np.random.default_rng(stream_seed))
