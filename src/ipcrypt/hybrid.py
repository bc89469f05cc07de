"""Public-key encryption by KEM-DEM composition.

The KEM transports a fresh 256-bit secret; the XOF stretches it into
the symmetric key seed and the nonce, and the noise-masked operator
cipher carries the message.  Ciphertexts are pairs (C1, C2).

Tampering with C1 lands decapsulation on a different shared secret,
which derails the derived error and reduces C2 to the no-key situation:
decryption returns garbage rather than an integrity error, as there is
no authentication anywhere in this construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The KEM is called as kem.kem_*, so a wrapper set on the kem module sees every call.
from . import kem
from .encoding import EncodingScheme, Message
from .kem import DESK_PARAMS, KemCiphertext, KemKeyPair, SharedSecret, xof_expand
from .noise import NONCE_BYTES, ErrorKey, ErrorParams
from .symmetric import SymCiphertext, recommended_error_params, sym_decrypt, sym_encrypt

__all__ = [
    "HybridCiphertext",
    "pke_keygen",
    "pke_encrypt",
    "pke_decrypt",
]


@dataclass(frozen=True, eq=False)
class HybridCiphertext:
    c1: KemCiphertext
    c2: SymCiphertext


def _dem_material(shared: SharedSecret, params: ErrorParams) -> tuple[ErrorKey, bytes]:
    """Stretch the shared secret into the symmetric key and the nonce.

    Domain separation by input length: the key expands the raw secret,
    the nonce expands secret || 0x01.
    """
    seed = xof_expand(shared.data, 32)
    nonce = xof_expand(shared.data + b"\x01", NONCE_BYTES)
    return ErrorKey(seed=seed, params=params), nonce


def pke_keygen(rng: np.random.Generator | None = None) -> KemKeyPair:
    return kem.kem_keygen(DESK_PARAMS, rng)


def pke_encrypt(
    pk: kem.KemPublicKey,
    msg: Message,
    scheme: EncodingScheme,
    rng: np.random.Generator | None = None,
) -> HybridCiphertext:
    shared, c1 = kem.kem_encaps(pk, rng)
    key, nonce = _dem_material(shared, recommended_error_params(n=scheme.n))
    c2 = sym_encrypt(key, msg, scheme, nonce)
    return HybridCiphertext(c1=c1, c2=c2)


def pke_decrypt(sk: kem.KemSecretKey, ct: HybridCiphertext) -> Message:
    """Decapsulate, rebuild the symmetric key, decrypt.

    C2's header fixes the encoding, so the caller passes no scheme.  A
    tampered C1 decapsulates to some other shared secret and hence a
    wrong error term; the result is then an arbitrary wrong message, not
    an exception, since nothing here authenticates the ciphertext.
    """
    shared = kem.kem_decaps(sk, ct.c1)
    key, _ = _dem_material(shared, recommended_error_params(n=ct.c2.scheme.n))
    return sym_decrypt(key, ct.c2)
