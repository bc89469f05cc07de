"""KEM known-answer vectors: matrix expansion, binomial draws, keys, files.

`tests/kat/kem.json` was computed once by `kem_vectors()` below from the
commit recorded in its `generated_at` field.  Every value is pinned
exactly: integers as lists, large arrays and files as SHA-256 digests of
their bytes.  Keys and ciphertexts are functions of 32-byte seeds, fed to
keygen and encapsulation through an rng whose bytes(32) returns them.  A
mismatch means the KEM's output changed for the same seed; find out why,
and never regenerate the file to make a failure go away.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ipcrypt.formats import (
    write_kem_ciphertext,
    write_kem_public_key,
    write_kem_secret_key,
)
from ipcrypt.kem import (
    DESK_PARAMS,
    KemParams,
    cbd,
    expand_matrix,
    kem_decaps,
    kem_encaps,
    kem_keygen,
)

KAT_PATH = Path(__file__).parent / "kat" / "kem.json"

MATRIX_SETS = {
    "desk": DESK_PARAMS,
    "small": KemParams(q=17, dim=8, secret_bits=8, eta=1),
    "half_rejected": KemParams(q=32771, dim=64, secret_bits=8, eta=1),
}
MATRIX_SEED = bytes(range(32))
# (eta, count): 87 one-bit coin pairs end inside a byte.
CBD_CASES = [(1, 16), (2, 16), (3, 16), (2, 12), (1, 87)]
# (keygen seed d, encapsulation seed) per case.
KEM_SEEDS = [(bytes([k]) * 32, bytes([0x80 | k]) * 32) for k in range(3)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cbd_data(eta: int, count: int) -> bytes:
    return hashlib.shake_256(f"cbd kat {eta} {count}".encode()).digest((2 * eta * count + 7) // 8)


def _kem_case(d: bytes, coins: bytes, seed_rng) -> dict:
    """Keygen from seed d, encaps from seed coins, then decaps."""
    pair = kem_keygen(DESK_PARAMS, seed_rng(d))
    secret, ct = kem_encaps(pair.public, seed_rng(coins))
    return {
        "keygen_seed": d.hex(),
        "encaps_seed": coins.hex(),
        "seed_a": pair.public.seed_a.hex(),
        "b_pub_sha256_u16le": _sha256(pair.public.b_pub.astype("<u2").tobytes()),
        "s_sha256_i8": _sha256(pair.secret.s.astype("<i1").tobytes()),
        "u": ct.u.tolist(),
        "v": ct.v.tolist(),
        "shared_secret": secret.data.hex(),
        "decaps": kem_decaps(pair.secret, ct).data.hex(),
        "ipq1_public_key_sha256": _sha256(write_kem_public_key(pair.public)),
        "ipq1_secret_key_sha256": _sha256(write_kem_secret_key(pair.secret)),
        "ipq1_ciphertext_sha256": _sha256(write_kem_ciphertext(ct)),
    }


def kem_vectors(seed_rng) -> dict:
    """Every pinned value, computed from the library under test."""
    return {
        "expand_matrix": {
            name: {
                "params": [p.q, p.dim, p.secret_bits, p.eta],
                "seed": MATRIX_SEED.hex(),
                "sha256_i64le": _sha256(
                    expand_matrix(MATRIX_SEED, p).astype("<i8").tobytes()
                ),
            }
            for name, p in MATRIX_SETS.items()
        },
        "cbd": [
            {
                "eta": eta,
                "count": count,
                "data": _cbd_data(eta, count).hex(),
                "values": cbd(_cbd_data(eta, count), count, eta).tolist(),
            }
            for eta, count in CBD_CASES
        ],
        "kem": [_kem_case(d, coins, seed_rng) for d, coins in KEM_SEEDS],
    }


@pytest.fixture(scope="module")
def stored():
    return json.loads(KAT_PATH.read_text())


@pytest.fixture(scope="module")
def computed(seed_rng):
    return kem_vectors(seed_rng)


def test_kat_file_records_its_source_commit(stored):
    assert len(stored["generated_at"]) == 40
    int(stored["generated_at"], 16)


@pytest.mark.parametrize("name", sorted(MATRIX_SETS))
def test_expand_matrix_kat(stored, computed, name):
    assert computed["expand_matrix"][name] == stored["expand_matrix"][name]


def test_cbd_kat(stored, computed):
    assert computed["cbd"] == stored["cbd"]


@pytest.mark.parametrize("index", range(len(KEM_SEEDS)))
def test_kem_keys_ciphertexts_and_files_kat(stored, computed, index):
    want, got = stored["kem"][index], computed["kem"][index]
    assert got["shared_secret"] == got["decaps"]
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key
