"""Hybrid known-answer vectors: KEM key files and IPH1 ciphertexts.

`tests/kat/hybrid.json` was computed once by `hybrid_vectors()` below from
the commit recorded in its `generated_at` field.  For each generator seed
it pins the SHA-256 digests of the IPQ1 key files written by
`pke_keygen(default_rng(seed))`, the digest of the IPH1 file that
`pke_encrypt` writes for a fixed message and generator (and of its
embedded IPQ1 ciphertext, so a mismatch shows which half moved), and the
message `pke_decrypt` returns.  A mismatch means the hybrid scheme's
output changed for the same seed; find out why, and never regenerate the
file to make a failure go away.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ipcrypt.encoding import EncodingScheme, Message
from ipcrypt.formats import (
    read_hybrid_ciphertext,
    write_hybrid_ciphertext,
    write_kem_ciphertext,
    write_kem_public_key,
    write_kem_secret_key,
)
from ipcrypt.hybrid import pke_decrypt, pke_encrypt, pke_keygen

KAT_PATH = Path(__file__).parent / "kat" / "hybrid.json"

KEYGEN_SEEDS = [0, 1, 2]
SCHEME = EncodingScheme.map2(32, 256)
MESSAGE = Message.from_int(0xC0FFEE42, 32)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encrypt_seed(seed: int) -> int:
    """Seed of the encryption generator, apart from the keygen stream."""
    return 1000 + seed


def _hybrid_case(seed: int) -> dict:
    pair = pke_keygen(np.random.default_rng(seed))
    ct = pke_encrypt(pair.public, MESSAGE, SCHEME, np.random.default_rng(_encrypt_seed(seed)))
    iph1 = write_hybrid_ciphertext(ct)
    decrypted = pke_decrypt(pair.secret, read_hybrid_ciphertext(iph1))
    return {
        "keygen_rng_seed": seed,
        "encrypt_rng_seed": _encrypt_seed(seed),
        "ipq1_public_key_sha256": _sha256(write_kem_public_key(pair.public)),
        "ipq1_secret_key_sha256": _sha256(write_kem_secret_key(pair.secret)),
        "ipq1_c1_sha256": _sha256(write_kem_ciphertext(ct.c1)),
        "iph1_sha256": _sha256(iph1),
        "decrypted": list(decrypted.bits),
    }


def hybrid_vectors() -> dict:
    """Every pinned value, computed from the library under test."""
    return {
        "scheme": [SCHEME.kind, SCHEME.t, SCHEME.n],
        "message": list(MESSAGE.bits),
        "pke": [_hybrid_case(seed) for seed in KEYGEN_SEEDS],
    }


@pytest.fixture(scope="module")
def stored():
    return json.loads(KAT_PATH.read_text())


@pytest.fixture(scope="module")
def computed():
    return hybrid_vectors()


def test_kat_file_records_its_source_commit(stored):
    assert len(stored["generated_at"]) == 40
    int(stored["generated_at"], 16)


def test_hybrid_kat_inputs(stored, computed):
    assert computed["scheme"] == stored["scheme"]
    assert computed["message"] == stored["message"]


@pytest.mark.parametrize("index", range(len(KEYGEN_SEEDS)))
def test_hybrid_keys_ciphertexts_and_decryption_kat(stored, computed, index):
    want, got = stored["pke"][index], computed["pke"][index]
    assert got["decrypted"] == computed["message"]
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key
