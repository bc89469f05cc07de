"""Desk-scale key encapsulation from plain LWE over Z_q.

Parameters q = 3329, dimension 256, centered binomial eta = 2.  The
public matrix A is regenerated from a 32-byte seed through SHAKE-256
with rejection sampling, so public keys stay small; the first squeeze
is sized for the expected rejection rate and doubles only when too many
words are rejected (see `expand_matrix`).  The secret is a
matrix of 256 small columns, one per shared-secret bit, which keeps the
ciphertext a single (u, v) vector pair: encapsulation hides each bit in
v = B^T r + e + bit * round(q/2) and decapsulation thresholds
v - S^T u at q/4.  With these parameters the accumulated noise is
bounded well inside q/4, so decapsulation never fails.

All four matrix products (A S in keygen, A^T r and B^T r in encapsulation,
S^T u in decapsulation) run on float64 BLAS and are exact.  Each sums dim
terms of absolute value at most (q - 1) * eta, so with
dim * (q - 1) * eta < 2^53 every partial sum is an integer that float64
represents exactly, whatever order BLAS adds in; `KemParams` rejects
parameters outside that bound.  NumPy does not send int64 products to
BLAS, and at desk scale the float64 route is over 20 times faster.  The
key objects hold read-only float64 copies of A, B and S, made on first
use, so encapsulation and decapsulation convert only the short vectors.

Every coin (the shared-secret bits and the centered-binomial draws of
S, E, r, e_u and e_v) is read from raw 64-bit words of the caller's
PCG64 generator: a coin is bit 31 of a 32-bit half-word, low half first,
which is what `Generator.integers(0, 2)` returns.  The bit generator
buffers the high half of a word between 32-bit draws; a buffered
half-word gives the first coin, and an unused high half goes back into
the buffer, so the draws, and later draws on the same generator, equal
the `Generator.integers` ones bit for bit.  Encapsulation reads its coins
at once, keygen once per matrix.  Other bit generators are refused with
ValueError.

This is a teaching artifact: parameters are far below any real security
level and no claim is made beyond one-shot key transport in this toy
setting.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "KemParams",
    "DESK_PARAMS",
    "KemPublicKey",
    "KemSecretKey",
    "KemKeyPair",
    "KemCiphertext",
    "SharedSecret",
    "xof_expand",
    "expand_matrix",
    "cbd",
    "kem_keygen",
    "kem_encaps",
    "kem_decaps",
    "LweKem",
    "DEFAULT_KEM",
]


def xof_expand(data: bytes, out_len: int) -> bytes:
    """First out_len bytes of the SHAKE-256 stream over data.

    Longer requests extend shorter ones: the output for out_len = a is a
    prefix of the output for out_len = b whenever a <= b.
    """
    if out_len < 0:
        raise ValueError(f"output length must be nonnegative, got {out_len}")
    return hashlib.shake_256(data).digest(out_len)


def _exact_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Integer product of x and y on float64 BLAS, exact under the KemParams bound.

    Either operand may already be a float64 copy of an integer array; it
    is then used as it is.
    """
    return (np.asarray(x, dtype=np.float64) @ np.asarray(y, dtype=np.float64)).astype(np.int64)


def _float_copy(a: np.ndarray) -> np.ndarray:
    """Read-only float64 copy of an integer matrix, for `_exact_matmul`."""
    f = a.astype(np.float64)
    f.flags.writeable = False
    return f


@dataclass(frozen=True)
class KemParams:
    q: int = 3329
    dim: int = 256
    secret_bits: int = 256
    eta: int = 2

    def __post_init__(self) -> None:
        if self.q < 2 or self.dim < 1 or self.secret_bits < 1 or self.eta < 1:
            raise ValueError("KEM parameters must be positive")
        if self.secret_bits % 8 != 0:
            raise ValueError("secret_bits must be a multiple of 8")
        if self.dim * (self.q - 1) * self.eta >= 2**53:
            raise ValueError(
                f"dim * (q - 1) * eta must stay below 2^53 for exact float64 "
                f"products, got {self.dim} * {self.q - 1} * {self.eta}"
            )

    @property
    def half_q(self) -> int:
        return (self.q + 1) // 2


DESK_PARAMS = KemParams()
DESK_PARAM_ID = 0x01


@dataclass(frozen=True, eq=False)
class KemPublicKey:
    params: KemParams
    seed_a: bytes
    b_pub: np.ndarray

    def __post_init__(self) -> None:
        if len(self.seed_a) != 32:
            raise ValueError(f"matrix seed must be 32 bytes, got {len(self.seed_a)}")
        b = np.asarray(self.b_pub, dtype=np.int64)
        shape = (self.params.dim, self.params.secret_bits)
        if b.shape != shape:
            raise ValueError(f"public matrix shape {b.shape} != {shape}")
        if np.any(b < 0) or np.any(b >= self.params.q):
            raise ValueError("public matrix entries must lie in [0, q)")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "b_pub", b)

    @cached_property
    def a_f64(self) -> np.ndarray:
        """A = expand_matrix(seed_a) as read-only float64, expanded once per key."""
        return _float_copy(expand_matrix(self.seed_a, self.params))

    @cached_property
    def b_f64(self) -> np.ndarray:
        """b_pub as read-only float64."""
        return _float_copy(self.b_pub)


@dataclass(frozen=True, eq=False)
class KemSecretKey:
    params: KemParams
    s: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=np.int64)
        shape = (self.params.dim, self.params.secret_bits)
        if s.shape != shape:
            raise ValueError(f"secret matrix shape {s.shape} != {shape}")
        if np.any(np.abs(s) > self.params.eta):
            raise ValueError("secret entries must be bounded by eta")
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    @cached_property
    def s_f64(self) -> np.ndarray:
        """s as read-only float64."""
        return _float_copy(self.s)


@dataclass(frozen=True, eq=False)
class KemKeyPair:
    public: KemPublicKey
    secret: KemSecretKey


@dataclass(frozen=True, eq=False)
class KemCiphertext:
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        for name in ("u", "v"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError(f"ciphertext component {name} must be 1-d")
            if np.any(arr < 0):
                raise ValueError(f"ciphertext component {name} must be nonnegative")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SharedSecret:
    data: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.data) == 0:
            raise ValueError("shared secret must not be empty")


@lru_cache(maxsize=16)
def expand_matrix(seed: bytes, params: KemParams = DESK_PARAMS) -> np.ndarray:
    """Uniform dim x dim matrix mod q from the XOF stream over seed.

    16-bit words are read little endian and rejected above the largest
    multiple of q below 2^16, so accepted words reduce to exactly uniform
    residues.  The first squeeze holds need + need/16 words plus 64 bytes,
    enough whenever at most about 1/17 of the words are rejected (q = 3329
    rejects 3.5%, dozens of standard deviations short of that).  Otherwise
    the squeeze length doubles until enough words survive; a shorter
    squeeze is a prefix of a longer one, so the first need accepted words,
    and the matrix, depend on the seed alone.  A q above 2^16 would reject
    every word, so it is refused before any squeeze.  Results are cached
    (and frozen) since a public key rebuilt from its file expands the
    same seed again.
    """
    if params.q > 1 << 16:
        raise ValueError(f"matrix expansion reads 16-bit words and needs q <= 2^16, got {params.q}")
    need = params.dim * params.dim
    limit = (1 << 16) // params.q * params.q
    out_len = 2 * (need + need // 16) + 64
    while True:
        words = np.frombuffer(xof_expand(seed, out_len), dtype="<u2")
        accepted = words[words < limit]
        if accepted.size >= need:
            # Reduce before widening; uint32 because q may be 2^16.
            a = (accepted[:need] % np.uint32(params.q)).astype(np.int64)
            a = a.reshape(params.dim, params.dim)
            a.flags.writeable = False
            return a
        out_len *= 2


def _word_coins(words: np.ndarray) -> np.ndarray:
    """Coins of raw 64-bit words, as int32: bit 31 of each 32-bit half-word, low half first.

    Shifts the words in place.
    """
    halves = words.astype("<u8", copy=False).view("<u4")
    halves >>= 31
    return halves.view(np.int32)


def _centered_binomial(coins: np.ndarray, eta: int) -> np.ndarray:
    """coins.size // (2 eta) centered binomial values, each a sum of eta coin differences.

    The first half of the coins are the positive terms, eta per value in
    turn, and the second half the negative ones.  Adding the eta slices is
    several times faster than a reduction along that short axis.
    """
    half = coins.size // 2
    d = (coins[:half] - coins[half:]).reshape(-1, eta)
    out = d[:, 0].copy()
    for k in range(1, eta):
        out += d[:, k]
    return out


def _draw_coins(rng: np.random.Generator, count: int) -> np.ndarray:
    """count coins from rng, as int32, equal to rng.integers(0, 2, count, dtype=np.int64).

    That call takes each coin from the next 32-bit half-word of the PCG64
    stream, and a 64-bit word's high half waits in the bit generator's
    buffer (has_uint32, uinteger) until the next 32-bit draw.  Here the
    state is read once: a buffered half-word gives the first coin, the rest
    come from raw words, and when an odd number of their half-words is used
    the unused high half goes back into the buffer.  The generator is left
    where that call leaves it, so later draws on it go on as before.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise ValueError(
            f"KEM draws read 64-bit PCG64 words, got a {type(bits).__name__} bit generator"
        )
    state = bits.state
    used = min(state["has_uint32"], count)
    first = state["uinteger"] >> 31
    words = bits.random_raw((count - used + 1) // 2)
    spare = (count - used) % 2
    if used or spare:
        state["has_uint32"] = spare
        if spare:
            state["uinteger"] = int(words[-1] >> np.uint64(32))
        # Setting the state rewinds the words; stepping over them again
        # leaves the buffer alone.
        bits.state = state
        bits.random_raw(words.size, output=False)
    coins = _word_coins(words)
    if used:
        coins = np.concatenate((np.array([first], dtype=np.int32), coins))
    return coins[:count]


def cbd(rng: np.random.Generator, shape, eta: int) -> np.ndarray:
    """Centered binomial draws: sum of eta coin differences per entry.

    The coins are those of two `rng.integers(0, 2, size=shape + (eta,))`
    calls, the positive terms first: bit 31 of each 32-bit half-word of
    the PCG64 stream, low half first.  A half-word that an earlier 32-bit
    draw left buffered in the generator gives the first coin, and an unused
    high half goes back into the buffer, so later draws on rng go on as
    they did.  The coins are read from raw PCG64 words, so other bit
    generators are refused with ValueError.  A non-integer dimension raises
    TypeError and a negative one ValueError, before anything is drawn.
    """
    if eta < 1:
        raise ValueError(f"eta must be positive, got {eta}")
    shape = tuple(operator.index(d) for d in np.atleast_1d(shape))
    if any(d < 0 for d in shape):
        raise ValueError("negative dimensions are not allowed")
    coins = _draw_coins(rng, 2 * math.prod(shape) * eta)
    return _centered_binomial(coins, eta).astype(np.int64).reshape(shape)


def kem_keygen(params: KemParams = DESK_PARAMS, rng: np.random.Generator | None = None) -> KemKeyPair:
    if rng is None:
        rng = np.random.default_rng()
    seed_a = rng.bytes(32)
    a = expand_matrix(seed_a, params)
    s = cbd(rng, (params.dim, params.secret_bits), params.eta)
    e = cbd(rng, (params.dim, params.secret_bits), params.eta)
    b = (_exact_matmul(a, s) + e) % params.q
    public = KemPublicKey(params=params, seed_a=seed_a, b_pub=b)
    secret = KemSecretKey(params=params, s=s)
    return KemKeyPair(public=public, secret=secret)


def _pack_bits(bits: np.ndarray) -> bytes:
    return np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()


def kem_encaps(
    pk: KemPublicKey, rng: np.random.Generator | None = None
) -> tuple[SharedSecret, KemCiphertext]:
    """Draw fresh secret bits and hide them against pk."""
    if rng is None:
        rng = np.random.default_rng()
    params = pk.params
    # The coins of the bits and of the cbd draws of r, e_u and e_v, in
    # that order, read at once.
    m, eta = params.secret_bits, params.eta
    k = 2 * eta * params.dim
    coins = _draw_coins(rng, m + 2 * k + 2 * eta * m)
    bits = coins[:m]
    r = _centered_binomial(coins[m : m + k], eta)
    e_u = _centered_binomial(coins[m + k : m + 2 * k], eta)
    e_v = _centered_binomial(coins[m + 2 * k :], eta)
    u = (_exact_matmul(r, pk.a_f64) + e_u) % params.q
    v = (_exact_matmul(r, pk.b_f64) + e_v + bits * params.half_q) % params.q
    return SharedSecret(_pack_bits(bits)), KemCiphertext(u=u, v=v)


def kem_decaps(sk: KemSecretKey, ct: KemCiphertext) -> SharedSecret:
    """Threshold v - S^T u at q/4 to recover the encapsulated bits."""
    params = sk.params
    if ct.u.shape != (params.dim,) or ct.v.shape != (params.secret_bits,):
        raise ValueError(
            f"ciphertext shapes {ct.u.shape}/{ct.v.shape} do not match "
            f"({params.dim},)/({params.secret_bits},)"
        )
    if np.any(ct.u >= params.q) or np.any(ct.v >= params.q):
        raise ValueError("ciphertext entries must lie in [0, q)")
    c = (ct.v - _exact_matmul(ct.u, sk.s_f64)) % params.q
    c = np.where(c > params.q // 2, c - params.q, c)
    bits = (np.abs(c) > params.q / 4).astype(np.int64)
    return SharedSecret(_pack_bits(bits))


class LweKem:
    """Keygen / encaps / decaps bundle with fixed parameters.

    The hybrid scheme talks to this interface only, so any object with
    the same three methods can stand in (mocks in tests do exactly that).
    """

    def __init__(self, params: KemParams = DESK_PARAMS) -> None:
        self.params = params

    def keygen(self, rng: np.random.Generator | None = None) -> KemKeyPair:
        return kem_keygen(self.params, rng)

    def encaps(
        self, pk: KemPublicKey, rng: np.random.Generator | None = None
    ) -> tuple[SharedSecret, KemCiphertext]:
        return kem_encaps(pk, rng)

    def decaps(self, sk: KemSecretKey, ct: KemCiphertext) -> SharedSecret:
        return kem_decaps(sk, ct)


DEFAULT_KEM = LweKem(DESK_PARAMS)
