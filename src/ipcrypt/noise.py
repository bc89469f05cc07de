"""Grid-valued error terms: lattice-style discrete noise, keyed derivation.

Errors take values scale * k with integer k drawn per grid point from a
centered binomial (parameter eta) or a truncated discrete Gaussian
(parameter sigma).  A key is a 32-byte seed plus the distribution
parameters; derive_error reads its coins straight from SHAKE-256 over
seed || nonce, so equal nonces reproduce the same error, distinct
nonces give independent-looking ones, and the error depends on the key,
the nonce and SHAKE-256 alone.  Binomial coins are read as FIPS 203's
SamplePolyCBD reads them.  When 2 eta divides 8 each coin byte indexes
one row of a cached 256-row table of its 4 / eta draws already times the
scale, so the error is one table lookup of the SHAKE-256 bytes; any other
eta sums bit planes (`kem.cbd`) and scales after.  A Gaussian point looks
a 53-bit uniform up in a cumulative distribution table, as FrodoKEM
samples its noise.

The distribution must carry enough entropy that enumerating error
candidates is hopeless: ErrorParams enforces a 128-bit floor on
n * (per-point entropy) at construction time, computed from the table
the sampler reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kem import _cbd_bytes, _cbd_table, _fixed_bytes, _integer, cbd, xof_expand

__all__ = [
    "DISCRETE_GAUSSIAN",
    "CENTERED_BINOMIAL",
    "ErrorParams",
    "ErrorKey",
    "point_distribution",
    "entropy_bits",
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

# The uniform double (w >> 11) * 2^-53 of a 64-bit word w.
_DOUBLE_STEP = 1.0 / (1 << 53)


@dataclass(frozen=True)
class ErrorParams:
    """Shape of the per-point integer noise and its grid placement.

    The binomial reads eta and the Gaussian sigma; the parameter the
    distribution does not read must keep its default (eta = 2, sigma =
    1.0), since a key file stores only the one that is read.  scale
    times the largest draw must be finite, so every error sample is.
    """

    n: int
    scale: float
    distribution: str = CENTERED_BINOMIAL
    eta: int = 2
    sigma: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "grid size"))
        object.__setattr__(self, "eta", _integer(self.eta, "eta"))
        if self.n < 1:
            raise ValueError(f"grid size must be positive, got {self.n}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.distribution == CENTERED_BINOMIAL:
            if not 1 <= self.eta <= _MAX_SUPPORT:
                raise ValueError(f"eta must be in [1, {_MAX_SUPPORT}], got {self.eta}")
            if self.sigma != 1.0:
                raise ValueError(f"sigma is unused by the binomial; keep 1.0, got {self.sigma}")
        elif self.distribution == DISCRETE_GAUSSIAN:
            if self.eta != 2:
                raise ValueError(f"eta is unused by the Gaussian; keep 2, got {self.eta}")
            # Also rejects nan and inf.
            if not (0 < self.sigma and _GAUSS_TAIL_SIGMAS * self.sigma < _MAX_SUPPORT + 1):
                raise ValueError(
                    f"sigma must be positive with {_GAUSS_TAIL_SIGMAS:g}*sigma < "
                    f"{_MAX_SUPPORT + 1}, got {self.sigma}"
                )
        else:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        support, _, _, entropy = _point_table(self.distribution, self.eta, self.sigma)
        # Every error sample scale * k is then finite, and so is every
        # ciphertext body, which sym_encrypt wraps without a check.
        largest = int(support[-1])
        if not math.isfinite(self.scale * largest):
            raise ValueError(f"scale {self.scale} times the largest draw {largest} is not finite")
        total = self.n * entropy
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
        object.__setattr__(self, "seed", _fixed_bytes(self.seed, 32, "key seed"))


@lru_cache(maxsize=1)
def _point_table(
    distribution: str, eta: int, sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Support, probabilities, cdf and entropy of one point draw, read-only.

    The cdf is the table derive_error looks Gaussian draws up in; the
    probabilities are its steps, and the entropy is theirs.  Cached
    (BENCH_caches.json, row `_point_table`).
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
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    probs = np.diff(cdf, prepend=0.0)
    nonzero = probs[probs > 0]
    entropy = float(-np.sum(nonzero * np.log2(nonzero)))
    for arr in (support, probs, cdf):
        arr.flags.writeable = False
    return support, probs, cdf, entropy


@lru_cache(maxsize=1, typed=True)
def _scaled_cbd_table(eta: int, scale: float) -> np.ndarray:
    """Read-only (256, 4 / eta) table, row b the draws of coin byte b times scale.

    Its entries are the products scale * k that scaling a `kem.cbd` draw
    makes, of the same types: the cache is typed, so a scale of another
    type gets a table of its own (BENCH_caches.json, row `_scaled_cbd_table`).
    """
    table = scale * _cbd_table(eta).view(np.int16).reshape(256, 4 // eta)
    table.flags.writeable = False
    return table


def point_distribution(params: ErrorParams) -> tuple[np.ndarray, np.ndarray]:
    """Integer support and probabilities of the per-point draw (read-only, cached)."""
    support, probs, _, _ = _point_table(params.distribution, params.eta, params.sigma)
    return support, probs


def entropy_bits(params: ErrorParams) -> float:
    """Shannon entropy of one point draw, in bits."""
    return _point_table(params.distribution, params.eta, params.sigma)[3]


def keygen(params: ErrorParams, rng) -> ErrorKey:
    """Key with a fresh seed rng.bytes(32); rng is a numpy Generator or anything with bytes(n)."""
    return ErrorKey(seed=rng.bytes(32), params=params)


def derive_error(key: ErrorKey, nonce: bytes) -> np.ndarray:
    """Deterministic error for (key, nonce): n float64 samples scale * k.

    The integers k are distributed per key.params, and their coins are
    the SHAKE-256 stream over seed || nonce.  A binomial key reads its
    first ceil(2 eta n / 8) bytes as `kem.cbd` does: when 2 eta divides 8
    each byte picks its row of the cached scaled table, and the first n
    entries of those rows, in order, are the error; any other eta scales
    the `kem.cbd` draw.  The result is a fresh array.  A Gaussian key reads
    n little-endian 64-bit words w and looks each uniform
    (w >> 11) * 2^-53 up in the cached cdf: the draw is the first support
    point whose cdf entry exceeds it.
    """
    nonce = _fixed_bytes(nonce, NONCE_BYTES, "nonce")
    p = key.params
    if p.distribution == CENTERED_BINOMIAL:
        coins = xof_expand(key.seed + nonce, _cbd_bytes(p.n, p.eta))
        if 8 % (2 * p.eta) == 0:
            rows = np.frombuffer(coins, dtype=np.uint8)
            return _scaled_cbd_table(p.eta, p.scale).take(rows, axis=0).reshape(-1)[: p.n]
        values = cbd(coins, p.n, p.eta)
    else:
        support, _, cdf, _ = _point_table(p.distribution, p.eta, p.sigma)
        words = np.frombuffer(xof_expand(key.seed + nonce, 8 * p.n), dtype="<u8")
        uniform = (words >> np.uint64(11)) * _DOUBLE_STEP
        values = support[np.searchsorted(cdf, uniform, side="right")]
    return p.scale * values
