"""Bit-string messages and their embeddings into grid functions.

Two embeddings are provided.  Map1 sends the t-bit message mu, read as
the integer k - 1, to the k-th member of an orthonormal basis: either
the trigonometric system {1, sqrt(2) cos(2 pi j y), sqrt(2) sin(2 pi j y)}
or the dyadic step system (Haar).  Map2 sends bit j to the indicator of
the j-th of t equal subintervals, so the message is a piecewise constant
0/1 profile.  An encoded message is the float64 array of its n
midpoint samples, and decoding reads such an array.  Map1 decodes by
maximal correlation, which an rfft (trigonometric) or the fast Haar
transform (dyadic) gives for all 2^t candidates in O(n log n) or O(n)
time and O(n) memory, with no table of candidates and no BLAS.  The Haar
transform is Mallat's pyramid kept as a heap: the 2^t block sums are the
leaves, each internal node is the sum of its two children, filled one
level per call, and every dyad's correlation is its left child minus its
right, scaled, in one subtraction over the heap.  Only constants (the
midpoints per n, the rfft's half-sample phase per n and t, the Haar
heights per t) are cached, read-only, and no returned array shares their
memory.  Both maps are exactly invertible from clean samples;
decoding tolerances against perturbation differ and are probed in the
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import _integer, midpoints

__all__ = [
    "Message",
    "EncodingScheme",
    "MAP1_FOURIER_ID",
    "MAP1_HAAR_ID",
    "MAP2_ID",
    "map1_capacity",
    "basis_vector",
    "encode",
    "decode",
    "encode_map1",
    "decode_map1",
    "encode_map2",
    "decode_map2",
    "map2_cell_means",
]

MAP1_FOURIER_ID = 0x01
MAP1_HAAR_ID = 0x02
MAP2_ID = 0x03

# Maps the digits of a binary numeral to the bit values 0 and 1.
_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class Message:
    """Immutable bit string, most significant bit first."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) == 0:
            raise ValueError("message must have at least one bit")
        if not set(self.bits) <= {0, 1}:
            raise ValueError("message bits must be 0 or 1")
        object.__setattr__(self, "bits", tuple(map(int, self.bits)))

    @property
    def t(self) -> int:
        return len(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def to_int(self) -> int:
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value

    @classmethod
    def from_int(cls, value: int, t: int) -> "Message":
        if t < 1:
            raise ValueError(f"bit length must be positive, got {t}")
        value = _integer(value, "message value")
        if not 0 <= value < (1 << t):
            raise ValueError(f"value {value} does not fit in {t} bits")
        return cls._of_bits(tuple(format(value, f"0{t}b").encode().translate(_BINARY_DIGITS)))

    @classmethod
    def random(cls, t: int, rng: np.random.Generator) -> "Message":
        if t < 1:
            raise ValueError(f"bit length must be positive, got {t}")
        return cls._of_bits(tuple(rng.integers(0, 2, size=t).tolist()))

    @classmethod
    def _of_bits(cls, bits: tuple[int, ...]) -> "Message":
        """Message of a nonempty tuple of int bits that are 0 or 1 by construction.

        The decoders and the constructors above build their bits so, and
        skip the validation pass that a Message of outside bits makes.
        """
        msg = object.__new__(cls)
        object.__setattr__(msg, "bits", bits)
        return msg


@dataclass(frozen=True)
class EncodingScheme:
    """Which embedding to use, with message length t and grid size n."""

    kind: str
    t: int
    n: int
    basis: str | None = field(default=None)

    def __post_init__(self) -> None:
        if self.kind not in ("map1", "map2"):
            raise ValueError(f"unknown encoding kind {self.kind!r}")
        # t and n are kept as plain ints, as a header's fields are: the typed
        # from_encoding_id must not meet a float, nor the capacity check a numpy int.
        object.__setattr__(self, "t", _integer(self.t, "message length"))
        if self.t < 1:
            raise ValueError(f"message length must be positive, got {self.t}")
        object.__setattr__(self, "n", _integer(self.n, "grid size"))
        if self.n < 1:
            raise ValueError(f"grid size must be positive, got {self.n}")
        if self.kind == "map1":
            if self.basis not in ("fourier", "haar"):
                raise ValueError(f"map1 basis must be fourier or haar, got {self.basis!r}")
            cap = map1_capacity(self.n, self.basis)
            # 2^t <= cap without building 2^t from a t read off a file header.
            if self.t >= cap.bit_length():
                raise ValueError(
                    f"map1 needs 2^t <= capacity {cap} of the n = {self.n} grid, got t = {self.t}"
                )
        else:
            if self.basis is not None:
                raise ValueError("map2 takes no basis")
            if self.n % self.t != 0:
                raise ValueError(
                    f"map2 needs t | n for exact subinterval cells, got t = {self.t}, n = {self.n}"
                )

    @classmethod
    def map1(cls, t: int, n: int, basis: str = "fourier") -> "EncodingScheme":
        return cls(kind="map1", t=t, n=n, basis=basis)

    @classmethod
    def map2(cls, t: int, n: int) -> "EncodingScheme":
        return cls(kind="map2", t=t, n=n)

    @property
    def encoding_id(self) -> int:
        if self.kind == "map2":
            return MAP2_ID
        return MAP1_FOURIER_ID if self.basis == "fourier" else MAP1_HAAR_ID

    @classmethod
    @lru_cache(maxsize=8, typed=True)
    def from_encoding_id(cls, encoding_id: int, t: int, n: int) -> "EncodingScheme":
        """The scheme an IPC1 header names, cached per (id, t, n) and argument types.

        A scheme is frozen, so every reader of one header shares one.  A
        miss validates as the constructors do, and a refusal is not
        cached; the cache is typed, so a float t or n never meets the
        entry of its integer and is refused.  Eight entries bound what
        headers from outside can pin; the sym-n256 workload alternates
        three schemes, and every size from three up keeps all its hits
        (BENCH_sym_fixed_cost.json, row `from_encoding_id`).  A stream
        that cycles through more than eight schemes gets no hits.
        """
        if encoding_id == MAP1_FOURIER_ID:
            return cls.map1(t, n, basis="fourier")
        if encoding_id == MAP1_HAAR_ID:
            return cls.map1(t, n, basis="haar")
        if encoding_id == MAP2_ID:
            return cls.map2(t, n)
        raise ValueError(f"unknown encoding id {encoding_id:#04x}")


def map1_capacity(n: int, basis: str) -> int:
    """Largest basis index that stays orthonormal on the n-point grid.

    The trigonometric system loses its top cosine at even n (it vanishes
    at every midpoint), and the dyadic system needs its half-cells to
    align with whole grid cells, which caps it at the largest power of
    two dividing n.
    """
    if basis == "fourier":
        return n - 1 if n % 2 == 0 else n
    if basis == "haar":
        return n & -n
    raise ValueError(f"map1 basis must be fourier or haar, got {basis!r}")


@lru_cache(maxsize=1)
def _midpoints(n: int) -> np.ndarray:
    """Read-only grid.midpoints(n), cached (BENCH_caches.json, row `_midpoints`)."""
    y = midpoints(n)
    y.flags.writeable = False
    return y


def _fourier_vector(k: int, n: int) -> np.ndarray:
    if k == 1:
        return np.ones(n)
    y = _midpoints(n)
    j = k // 2
    if k % 2 == 0:
        return np.sqrt(2.0) * np.cos(2.0 * np.pi * j * y)
    return np.sqrt(2.0) * np.sin(2.0 * np.pi * j * y)


def _haar_vector(k: int, n: int) -> np.ndarray:
    if k == 1:
        return np.ones(n)
    # k - 1 = 2^level + shift enumerates the mother-wavelet dyad.  Its
    # support is the shift-th of 2^level equal blocks of whole grid cells,
    # +sqrt(2^level) on the first half and -sqrt(2^level) on the second;
    # map1_capacity makes 2^(level + 1) divide n.
    level = (k - 1).bit_length() - 1
    shift = (k - 1) - (1 << level)
    half = n >> (level + 1)
    start = 2 * half * shift
    height = math.sqrt(float(1 << level))
    out = np.zeros(n)
    out[start : start + half] = height
    out[start + half : start + 2 * half] = -height
    return out


def basis_vector(k: int, scheme: EncodingScheme) -> np.ndarray:
    """Samples of the k-th (1-based) Map1 basis function at the midpoints."""
    if scheme.kind != "map1":
        raise ValueError("basis_vector applies to map1 schemes only")
    cap = map1_capacity(scheme.n, scheme.basis)
    if not 1 <= k <= cap:
        raise ValueError(
            f"basis index {k} outside grid capacity [1, {cap}] for n = {scheme.n}"
        )
    if scheme.basis == "fourier":
        return _fourier_vector(k, scheme.n)
    return _haar_vector(k, scheme.n)


def encode_map1(msg: Message, scheme: EncodingScheme) -> np.ndarray:
    if msg.t != scheme.t:
        raise ValueError(f"message length {msg.t} != scheme t = {scheme.t}")
    return basis_vector(msg.to_int() + 1, scheme)


@lru_cache(maxsize=1)
def _fourier_phase(n: int, count: int) -> np.ndarray:
    """Read-only sqrt(2) e^(-i pi j / n) for j = 1 ... count / 2, cached per (n, count).

    The midpoints sit half a cell past the DFT nodes, y = (m + 1/2) / n, so
    rfft bin j times this phase is sqrt(2) sum_m u_m e^(-2 pi i j y_m).
    BENCH_caches.json, row `_fourier_phase`.
    """
    j = np.arange(1, count // 2 + 1)
    phase = np.sqrt(2.0) * np.exp(-1j * np.pi * j / n)
    phase.flags.writeable = False
    return phase


@lru_cache(maxsize=1)
def _haar_heights(t: int) -> np.ndarray:
    """Read-only sqrt(2^level) of dyads k - 1 = 2^level + shift, k = 1 ... 2^t - 1, cached per t.

    BENCH_caches.json, row `_haar_heights`.
    """
    heights = np.repeat(
        [math.sqrt(float(1 << level)) for level in range(t)], [1 << level for level in range(t)]
    )
    heights.flags.writeable = False
    return heights


def _map1_correlations(u: np.ndarray, scheme: EncodingScheme) -> np.ndarray:
    """<u, basis_vector(k)> for k = 1 ... 2^t, by rfft or by pairwise block sums."""
    count = 1 << scheme.t
    corr = np.empty(count)
    corr[0] = u.sum()
    if scheme.basis == "fourier":
        spectrum = np.fft.rfft(u)[1 : count // 2 + 1] * _fourier_phase(scheme.n, count)
        corr[1::2] = spectrum.real
        corr[2::2] = -spectrum.imag[:-1]
        return corr
    # Fast Haar transform on a heap: node k >= 1 holds the sum over dyad
    # k - 1's support and its children 2k and 2k + 1 the sums over the two
    # halves; the 2^t leaves are the block sums.  Internal nodes are filled
    # a level at a time, finest first, apart from the root (corr[0] is
    # u.sum()).  Dyad k - 1 is node 2k minus node 2k + 1, times sqrt(2^level).
    heap = np.empty(2 * count)
    np.add.reduce(u.reshape(count, -1), axis=1, out=heap[count:])
    for level in reversed(range(1, scheme.t)):
        children = heap[2 << level : 4 << level]
        np.add(children[::2], children[1::2], out=heap[1 << level : 2 << level])
    dyads = corr[1:]
    np.subtract(heap[2::2], heap[3::2], out=dyads)
    dyads *= _haar_heights(scheme.t)
    return corr


def decode_map1(u: np.ndarray, scheme: EncodingScheme) -> Message:
    """Nearest-basis-element decoding by maximal correlation.

    Ties in the computed float correlations break toward the smaller
    index, so decoding is a deterministic function of the samples.  The
    correlations come from a transform, not exact arithmetic: where two
    candidates tie or nearly tie within rounding, the winner follows the
    transform's rounding.
    """
    if u.shape != (scheme.n,):
        raise ValueError(f"grid size mismatch: {u.shape} vs {(scheme.n,)}")
    corr = np.abs(_map1_correlations(u, scheme))
    return Message.from_int(int(np.argmax(corr)), scheme.t)


def encode_map2(msg: Message, scheme: EncodingScheme) -> np.ndarray:
    if msg.t != scheme.t:
        raise ValueError(f"message length {msg.t} != scheme t = {scheme.t}")
    bits = np.frombuffer(bytes(msg.bits), dtype=np.uint8)
    return bits.repeat(scheme.n // scheme.t).astype(np.float64)


def _map2_cell_sums(u: np.ndarray, scheme: EncodingScheme) -> np.ndarray:
    """Pairwise sum of the n samples u over each of the t map2 cells."""
    return np.add.reduce(u.reshape(scheme.t, -1), axis=1)


def map2_cell_means(u: np.ndarray, scheme: EncodingScheme) -> np.ndarray:
    """Mean of the n samples u over each of the t map2 cells.

    The same pairwise sum and division that `.mean(axis=1)` makes, without
    its wrapper.  u must lie on the scheme's grid, as decode_map2 checks.
    """
    if u.shape != (scheme.n,):
        raise ValueError(f"grid size mismatch: {u.shape} vs {(scheme.n,)}")
    return _map2_cell_sums(u, scheme) / (scheme.n // scheme.t)


def decode_map2(u: np.ndarray, scheme: EncodingScheme) -> Message:
    """Per-subinterval mean thresholded at 1/2.

    A cell's sum s is compared with c/2 for its c samples, which decides
    as the mean does: fl(s/c) >= 1/2 exactly when s >= c/2, for every
    double s (nan and infinities too) and integer c < 2^53, where c/2 is
    exact.  If s >= c/2 then s/c >= 1/2, and rounding keeps it there.
    Say c/2 lies in [2^e, 2^(e+1)): the doubles just below it are spaced
    2^(e-52), or 2^(e-53) when c/2 = 2^e, and either is at least c 2^-54.
    So s < c/2 gives s/c <= 1/2 - 2^-54, the double just below 1/2, which
    rounding to nearest does not carry up to 1/2.
    """
    if u.shape != (scheme.n,):
        raise ValueError(f"grid size mismatch: {u.shape} vs {(scheme.n,)}")
    above = _map2_cell_sums(u, scheme) >= 0.5 * (scheme.n // scheme.t)
    return Message._of_bits(tuple(above.tobytes()))


def encode(msg: Message, scheme: EncodingScheme) -> np.ndarray:
    if scheme.kind == "map1":
        return encode_map1(msg, scheme)
    return encode_map2(msg, scheme)


def decode(u: np.ndarray, scheme: EncodingScheme) -> Message:
    if scheme.kind == "map1":
        return decode_map1(u, scheme)
    return decode_map2(u, scheme)
