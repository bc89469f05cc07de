"""Desk-scale key encapsulation from plain LWE over Z_q.

Parameters q = 3329, dimension 256, centered binomial eta = 2.  The
public matrix A is regenerated from a 32-byte seed through SHAKE-256
with rejection sampling, so public keys stay small; the first squeeze
is sized for the expected rejection rate and doubles only when too many
words are rejected (see `expand_matrix`).  The secret is a
matrix of 256 small columns, one per shared-secret bit, which keeps the
ciphertext a single (u, v) vector pair: encapsulation hides each bit in
v = B^T r + e + bit * round(q/2) and decapsulation thresholds
v - S^T u at q/4.  With these parameters a decapsulated bit is wrong
with probability at most 2^-735.15, computed exactly by `failure_log2`.

All three matrix products (A S in keygen, r^T [A | B] in encapsulation,
S^T u in decapsulation) run on float32 BLAS and are exact.  Each sums dim
terms of absolute value at most (q - 1) * eta, so with
dim * (q - 1) * eta < 2^24 every product and partial sum is an integer
that float32 represents exactly, whatever order BLAS adds in (fused
multiply-adds included); `KemParams` rejects parameters outside that
bound.  At the desk q and eta this allows dim <= 2520.  NumPy does not
send int64 products to BLAS, and at desk scale the float32 route is
about 12 times faster for a vector times a matrix and over 20 times for
keygen's matrix product.  The vector products are bound by memory
traffic, and float32 operands are half the bytes of float64 ones.  The
key objects hold read-only float32 copies of [A | B] and S, made on first
use, so encapsulation is one product giving u and v side by side.
Results reduce as x - q * (x // q) (`_reduce`): integer x // q is exactly
floor(x / q), so this is x % q for every int64 x and q >= 2, and numpy
divides by a scalar with a multiply and a shift where % divides each value.

Keys and ciphertexts are checked once, where they enter the program.
Their public constructors refuse arrays of the wrong shape, with
non-integer entries or with entries out of range, and keep read-only
int64 copies.  Keygen and encapsulation build their arrays in range and
wrap them as they are, with no copy and no second check (the `_of_*`
classmethods); so does the IPQ1 reader, once it has checked the file's
words.

Every coin is a bit of one SHAKE-256 squeeze over a 32-byte seed.
Keygen takes d = rng.bytes(32) and splits SHAKE-256(d) into the matrix
seed (32 bytes) and one `cbd` draw of 2 dim secret_bits values: S, then
E, each filled row by row.  Encapsulation takes one more rng.bytes(32)
and splits its squeeze into the shared secret (secret_bits / 8 bytes,
whose bits, little endian within each byte, are the encapsulated ones)
and one `cbd` draw of 2 dim + secret_bits values: r, then e_u, then e_v.
At eta = 1, 2 or 4 a byte holds whole values, and `cbd` reads whole bytes
through a cached table of 256 entries; other eta sum the bits in planes.
The rng supplies those seeds and nothing else, so keys and ciphertexts
are functions of the seeds and SHAKE-256 alone; with no rng, each seed
is os.urandom(32).

This is a teaching artifact: parameters are far below any real security
level and no claim is made beyond one-shot key transport in this toy
setting.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import operator
import os
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
    "failure_log2",
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
    """Integer product of x and y on float32 BLAS, exact under the KemParams bound.

    Either operand may already be a float32 copy of an integer array; it
    is then used as it is.
    """
    return (np.asarray(x, dtype=np.float32) @ np.asarray(y, dtype=np.float32)).astype(np.int64)


def _float_copy(*blocks: np.ndarray) -> np.ndarray:
    """Read-only float32 copy of integer matrices side by side, for `_exact_matmul`."""
    f = np.concatenate(blocks, axis=1, dtype=np.float32)
    f.flags.writeable = False
    return f


def _refuse_non_integer(arr: np.ndarray, what: str) -> None:
    """Refuse an array that casting to int64 would truncate (floats, NaN, complex, bool)."""
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers")


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """x % q, computed in place on a fresh int64 array x (see the module docstring)."""
    x -= q * (x // q)
    return x


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


def _integer(value, what: str) -> int:
    """value as a plain int; what is not an integer (a float, a str) is refused."""
    if not isinstance(value, numbers.Integral):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class KemParams:
    """Modulus q, LWE dimension, shared-secret bits and the binomial eta.

    dim * (q - 1) * eta must stay below 2^24, the bound under which
    float32 products are exact; at q = 3329 and eta = 2 that is dim <= 2520.
    """

    q: int = 3329
    dim: int = 256
    secret_bits: int = 256
    eta: int = 2

    def __post_init__(self) -> None:
        for name in ("q", "dim", "secret_bits", "eta"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.q < 2 or self.dim < 1 or self.secret_bits < 1 or self.eta < 1:
            raise ValueError("KEM parameters must be positive")
        if self.secret_bits % 8 != 0:
            raise ValueError("secret_bits must be a multiple of 8")
        if self.dim * (self.q - 1) * self.eta >= 2**24:
            raise ValueError(
                f"dim * (q - 1) * eta must stay below 2^24 for exact float32 "
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
        object.__setattr__(self, "seed_a", _fixed_bytes(self.seed_a, 32, "matrix seed"))
        b = np.asarray(self.b_pub)
        shape = (self.params.dim, self.params.secret_bits)
        if b.shape != shape:
            raise ValueError(f"public matrix shape {b.shape} != {shape}")
        _refuse_non_integer(b, "public matrix entries")
        b = np.array(b, dtype=np.int64)
        if b.view(np.uint64).max() >= self.params.q:
            raise ValueError("public matrix entries must lie in [0, q)")
        b.flags.writeable = False
        object.__setattr__(self, "b_pub", b)

    @classmethod
    def _of_matrix(cls, params: KemParams, seed_a: bytes, b: np.ndarray) -> "KemPublicKey":
        """Public key of a fresh int64 matrix b in [0, q), with no copy and no check.

        Keygen reduces b mod q; the IPQ1 reader checks its words first.
        """
        b.flags.writeable = False
        pk = object.__new__(cls)
        object.__setattr__(pk, "params", params)
        object.__setattr__(pk, "seed_a", seed_a)
        object.__setattr__(pk, "b_pub", b)
        return pk

    @cached_property
    def ab_f32(self) -> np.ndarray:
        """[expand_matrix(seed_a) | b_pub] as read-only float32, made once per key.

        BENCH_kem_rotation.json, stage rows `first_use` and `encaps`;
        BENCH_caches.json, row `ab_f32`.
        """
        return _float_copy(expand_matrix(self.seed_a, self.params), self.b_pub)


@dataclass(frozen=True, eq=False)
class KemSecretKey:
    params: KemParams
    s: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        s = np.asarray(self.s)
        shape = (self.params.dim, self.params.secret_bits)
        if s.shape != shape:
            raise ValueError(f"secret matrix shape {s.shape} != {shape}")
        _refuse_non_integer(s, "secret entries")
        s = np.array(s, dtype=np.int64)
        if s.min() < -self.params.eta or s.max() > self.params.eta:
            raise ValueError("secret entries must be bounded by eta")
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    @classmethod
    def _of_matrix(cls, params: KemParams, s: np.ndarray) -> "KemSecretKey":
        """Secret key of a fresh int64 matrix s of `cbd` draws, bounded by eta by construction."""
        s.flags.writeable = False
        sk = object.__new__(cls)
        object.__setattr__(sk, "params", params)
        object.__setattr__(sk, "s", s)
        return sk

    @cached_property
    def s_f32(self) -> np.ndarray:
        """s as read-only float32, made once per key (BENCH_caches.json, row `s_f32`)."""
        return _float_copy(self.s)


@dataclass(frozen=True, eq=False)
class KemKeyPair:
    public: KemPublicKey
    secret: KemSecretKey


@dataclass(frozen=True, eq=False)
class KemCiphertext:
    """The (u, v) pair of one parameter set, checked once where it enters.

    u has shape (dim,) and v (secret_bits,), both with integer entries in
    [0, q) of params, held as read-only int64.  The constructor checks
    outside arrays and keeps copies; encapsulation and the IPQ1 reader
    build their pair in range and wrap it as it is (`_of_uv`).
    """

    params: KemParams
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        p = self.params
        for name, size in (("u", p.dim), ("v", p.secret_bits)):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1:
                raise ValueError(f"ciphertext component {name} must be 1-d")
            if arr.shape != (size,):
                raise ValueError(f"ciphertext component {name} shape {arr.shape} != ({size},)")
            _refuse_non_integer(arr, f"ciphertext component {name} entries")
            arr = np.array(arr, dtype=np.int64)
            # Negative entries view as uint64 values >= 2^63: one max() tests both ends.
            if arr.view(np.uint64).max() >= p.q:
                if arr.min() < 0:
                    raise ValueError(f"ciphertext component {name} must be nonnegative")
                raise ValueError(f"ciphertext component {name} entries must lie in [0, q)")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def _of_uv(cls, params: KemParams, uv: np.ndarray) -> "KemCiphertext":
        """Ciphertext of a fresh int64 u || v whose entries lie in [0, q) by construction.

        u and v become read-only views of uv, with no copy and no check.
        """
        uv.flags.writeable = False
        ct = object.__new__(cls)
        object.__setattr__(ct, "params", params)
        object.__setattr__(ct, "u", uv[: params.dim])
        object.__setattr__(ct, "v", uv[params.dim :])
        return ct


@dataclass(frozen=True)
class SharedSecret:
    """A nonempty byte string, kept as bytes; any other byte buffer is copied."""

    data: bytes = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _as_bytes(self.data, "shared secret"))
        if len(self.data) == 0:
            raise ValueError("shared secret must not be empty")


@lru_cache(maxsize=1)
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
    every word, so it is refused before any squeeze.  Results are frozen
    and the last one is cached, which a public key rebuilt from its file
    right after keygen reads (BENCH_kem_rotation.json, stage row
    `expand_matrix`; BENCH_caches.json, row `expand_matrix`).  Accepted
    words reduce as `_reduce` does.
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
            # Divide before widening; uint32 because q may be 2^16.
            kept = accepted[:need].reshape(params.dim, params.dim)
            a = kept.astype(np.int64)
            a -= params.q * (kept // np.uint32(params.q))
            a.flags.writeable = False
            return a
        out_len *= 2


def _cbd_bytes(count: int, eta: int) -> int:
    """Bytes `cbd` reads for count values: ceil(2 eta count / 8)."""
    return (2 * eta * count + 7) // 8


def _cbd_planes(coins: np.ndarray, count: int, eta: int) -> np.ndarray:
    """`cbd` by bit planes, for any eta, from its checked uint8 coin bytes."""
    bits = np.unpackbits(coins, count=2 * eta * count, bitorder="little")
    # Row k of the planes holds bit k of every value, so each sum adds
    # whole contiguous rows; int16 holds the sum exactly up to eta = 256.
    planes = np.ascontiguousarray(bits.reshape(count, 2 * eta).T).view(np.int8)
    return (planes[:eta] - planes[eta:]).sum(axis=0, dtype=np.int16)


@lru_cache(maxsize=1)
def _cbd_table(eta: int) -> np.ndarray:
    """Read-only table of 256 entries, one per byte, for an eta with 2 eta | 8.

    A byte holds 4 / eta whole values, and entry b packs byte b's values
    as that many int16 lanes in one unsigned word, so viewing the words
    of table.take(bytes) as int16 gives the draw in order.  The entries
    are the bit-plane draw of the bytes 0, 1, ..., 255 (BENCH_caches.json,
    row `_cbd_table`).
    """
    lanes = 4 // eta
    table = _cbd_planes(np.arange(256, dtype=np.uint8), 256 * lanes, eta)
    table = table.view(np.dtype(f"u{2 * lanes}"))
    table.flags.writeable = False
    return table


def cbd(data: bytes, count: int, eta: int) -> np.ndarray:
    """count centered binomial values from the bits of data, as int16.

    Bits are taken little endian within each byte, as FIPS 203's
    SamplePolyCBD takes them, generalized to any eta: with b the bit
    string of data, value i is b[2 i eta] + ... + b[2 i eta + eta - 1]
    minus the sum of the next eta bits.  The first ceil(2 eta count / 8)
    bytes are read and the rest ignored.  A non-integer count raises
    TypeError; a negative count, eta < 1 or too short data ValueError.

    When 2 eta divides 8 (eta = 1, 2 or 4) every byte holds whole values,
    so the draw reads whole bytes through a cached table of 256 entries,
    as Kyber's reference cbd2 does; any other eta sums the bits in
    planes.  Both give the same values, and the result is a fresh array.
    """
    count = operator.index(count)
    if eta < 1:
        raise ValueError(f"eta must be positive, got {eta}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    need = _cbd_bytes(count, eta)
    if len(data) < need:
        raise ValueError(f"{count} draws at eta = {eta} read {need} bytes, got {len(data)}")
    coins = np.frombuffer(data, dtype=np.uint8, count=need)
    if 8 % (2 * eta) == 0:
        return _cbd_table(eta).take(coins).view(np.int16)[:count]
    return _cbd_planes(coins, count, eta)


def kem_keygen(params: KemParams = DESK_PARAMS, rng: np.random.Generator | None = None) -> KemKeyPair:
    """Key pair from one 32-byte seed d = rng.bytes(32); see the module docstring."""
    seed = os.urandom(32) if rng is None else rng.bytes(32)
    count = params.dim * params.secret_bits
    stream = xof_expand(seed, 32 + _cbd_bytes(2 * count, params.eta))
    seed_a = stream[:32]
    s, e = cbd(stream[32:], 2 * count, params.eta).reshape(2, params.dim, params.secret_bits)
    b = _reduce(_exact_matmul(expand_matrix(seed_a, params), s) + e, params.q)
    public = KemPublicKey._of_matrix(params, seed_a, b)
    secret = KemSecretKey._of_matrix(params, s.astype(np.int64))
    return KemKeyPair(public=public, secret=secret)


def kem_encaps(
    pk: KemPublicKey, rng: np.random.Generator | None = None
) -> tuple[SharedSecret, KemCiphertext]:
    """Hide fresh secret bits against pk, all coins from one seed rng.bytes(32)."""
    seed = os.urandom(32) if rng is None else rng.bytes(32)
    params = pk.params
    m, dim = params.secret_bits // 8, params.dim
    stream = xof_expand(seed, m + _cbd_bytes(2 * dim + params.secret_bits, params.eta))
    secret = stream[:m]
    noise = cbd(stream[m:], 2 * dim + params.secret_bits, params.eta)
    bits = np.unpackbits(np.frombuffer(secret, dtype=np.uint8), bitorder="little")
    uv = _exact_matmul(noise[:dim], pk.ab_f32) + noise[dim:]
    uv[dim:] += params.half_q * bits.astype(np.int64)
    _reduce(uv, params.q)
    return SharedSecret(secret), KemCiphertext._of_uv(params, uv)


def _threshold(c: np.ndarray, q: int) -> np.ndarray:
    """Decapsulated bits of the int64 residues c in [0, q), as bools.

    Bit 1 is the centered residue farther than q/4 from 0, that is
    q//4 + 1 <= c <= q - q//4 - 1.  The interval is one unsigned
    comparison: below q//4 + 1, c - (q//4 + 1) wraps to a huge uint64.
    """
    lo = q // 4 + 1
    return (c - lo).view(np.uint64) <= q - q // 4 - 1 - lo


def kem_decaps(sk: KemSecretKey, ct: KemCiphertext) -> SharedSecret:
    """Threshold v - S^T u at q/4 to recover the encapsulated bits.

    The ciphertext's shapes and range against its own parameter set
    were checked where it entered, or hold by construction; only a set
    other than the key's is refused here.
    """
    params = sk.params
    if ct.params != params:
        raise ValueError(f"ciphertext parameters {ct.params} != key parameters {params}")
    c = _reduce(ct.v - _exact_matmul(ct.u, sk.s_f32), params.q)
    return SharedSecret(np.packbits(_threshold(c, params.q), bitorder="little").tobytes())


def failure_log2(params: KemParams = DESK_PARAMS) -> float:
    """log2 of the exact chance that one decapsulated bit is wrong, for the worse bit value.

    Bit j of v - S^T u is sum_i r_i E_ij - sum_i e_u,i S_ij + e_v,j + bit * half_q: 2 dim
    independent products of two cbd(eta) draws plus one cbd(eta) draw.  Their law is the
    product law raised to the 2 dim-fold convolution power by squaring, convolved once
    with cbd(eta), as Kyber's designers compute it (Bos et al., EuroS&P 2018).  Each
    support point plus bit * half_q is reduced mod q and read by `_threshold`, the
    decoder itself.  At DESK_PARAMS this gives 2^-736.08 for bit 0 and 2^-735.15 for
    bit 1, so by the union bound a whole encapsulation fails with probability at most
    secret_bits * 2^-735.15 = 2^-727.15.  A mass that underflows float64 gives -inf.
    """
    eta, q = params.eta, params.q
    k = np.arange(-eta, eta + 1)
    cbd_law = np.array([math.comb(2 * eta, eta + i) for i in k]) / 4.0**eta
    product = np.zeros(2 * eta * eta + 1)
    np.add.at(product, np.multiply.outer(k, k) + eta * eta, np.outer(cbd_law, cbd_law))
    law, power = np.ones(1), 2 * params.dim
    while power:
        if power & 1:
            law = np.convolve(law, product)
        power >>= 1
        if power:
            product = np.convolve(product, product)
    law = np.convolve(law, cbd_law)
    noise = np.arange(law.size) - law.size // 2
    worst = max(
        math.fsum(law[_threshold(_reduce(noise + b * params.half_q, q), q) != b]) for b in (0, 1)
    )
    return math.log2(worst) if worst > 0 else -math.inf
