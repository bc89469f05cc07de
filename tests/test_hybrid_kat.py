"""Hybrid known-answer vectors: KEM key files and IPH1 ciphertexts (version 2).

`tests/kat/hybrid.json` was computed once by `hybrid_vectors()` below from
the commit recorded in its `generated_at` field.  For each pair of 32-byte
seeds, fed in through an rng whose bytes(32) returns them, it pins the
SHA-256 digests of the IPQ1 key files that `pke_keygen` writes from the
first seed, the digest of the IPH1 file that `pke_encrypt` writes for a
fixed message from the second (and of its embedded IPQ1 ciphertext, so a
mismatch shows which half moved), and the message `pke_decrypt` returns.  A mismatch means the hybrid scheme's
output changed for the same seed; find out why, and never regenerate the
file to make a failure go away.
"""

import hashlib
import json
from pathlib import Path

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

# (keygen seed, encryption seed) per case.
SEEDS = [(bytes([0x40 | k]) * 32, bytes([0xC0 | k]) * 32) for k in range(3)]
SCHEME = EncodingScheme.map2(32, 256)
MESSAGE = Message.from_int(0xC0FFEE42, 32)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hybrid_case(d: bytes, coins: bytes, seed_rng) -> dict:
    pair = pke_keygen(seed_rng(d))
    ct = pke_encrypt(pair.public, MESSAGE, SCHEME, seed_rng(coins))
    iph1 = write_hybrid_ciphertext(ct)
    decrypted = pke_decrypt(pair.secret, read_hybrid_ciphertext(iph1))
    return {
        "keygen_seed": d.hex(),
        "encrypt_seed": coins.hex(),
        "ipq1_public_key_sha256": _sha256(write_kem_public_key(pair.public)),
        "ipq1_secret_key_sha256": _sha256(write_kem_secret_key(pair.secret)),
        "ipq1_c1_sha256": _sha256(write_kem_ciphertext(ct.c1)),
        "iph1_sha256": _sha256(iph1),
        "decrypted": list(decrypted.bits),
    }


def hybrid_vectors(seed_rng) -> dict:
    """Every pinned value, computed from the library under test."""
    return {
        "scheme": [SCHEME.kind, SCHEME.t, SCHEME.n],
        "message": list(MESSAGE.bits),
        "pke": [_hybrid_case(d, coins, seed_rng) for d, coins in SEEDS],
    }


@pytest.fixture(scope="module")
def stored():
    return json.loads(KAT_PATH.read_text())


@pytest.fixture(scope="module")
def computed(seed_rng):
    return hybrid_vectors(seed_rng)


def test_kat_file_records_its_source_commit(stored):
    assert len(stored["generated_at"]) == 40
    int(stored["generated_at"], 16)


def test_hybrid_kat_inputs(stored, computed):
    assert computed["scheme"] == stored["scheme"]
    assert computed["message"] == stored["message"]


@pytest.mark.parametrize("index", range(len(SEEDS)))
def test_hybrid_keys_ciphertexts_and_decryption_kat(stored, computed, index):
    want, got = stored["pke"][index], computed["pke"][index]
    assert got["decrypted"] == computed["message"]
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key
