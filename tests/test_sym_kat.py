"""Symmetric known-answer vectors: keyed errors and IPC1 ciphertexts.

`tests/kat/sym.json` was computed once by `sym_vectors()` below from the
commit recorded in its `generated_at` field.  Integers, messages, headers
and nonces are pinned exactly.  Ciphertext bodies are floats and are
pinned to a relative tolerance of `BODY_RTOL` of their largest entry; the
stored IPC1 files themselves are kept whole, and each must still decrypt
to its message.  A mismatch means the cipher's output changed for the same
key and nonce; find out why, and never regenerate the file to make a
failure go away.

No error key exists at n = 8: the 128-bit entropy floor of `ErrorParams`
needs n >= 18 even for the widest distribution.  The n = 8 vectors are
therefore noise-free bodies S(encode(mu)), decrypted by the exact inverse
alone; they pin the operator and its singular system on a tiny grid.
"""

import base64
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ipcrypt import hso
from ipcrypt.encoding import EncodingScheme, Message, decode, encode
from ipcrypt.formats import read_sym_ciphertext, write_sym_ciphertext
from ipcrypt.grid import GridFunction
from ipcrypt.noise import (
    CENTERED_BINOMIAL,
    DISCRETE_GAUSSIAN,
    ErrorKey,
    ErrorParams,
    derive_error,
)
from ipcrypt.symmetric import SymCiphertext, sym_decrypt, sym_encrypt

KAT_PATH = Path(__file__).parent / "kat" / "sym.json"

BODY_RTOL = 1e-12

KEY_SEED = bytes(range(32))
ERROR_NONCES = [bytes(16), bytes(range(16, 32))]

# name -> (n, scheme kind, t, map1 basis, key kind or None for noise-free)
CIPHERTEXT_CASES = {
    "n8-map2": (8, "map2", 4, None, None),
    "n8-map1-fourier": (8, "map1", 2, "fourier", None),
    "n256-map2-cbd": (256, "map2", 32, None, "cbd"),
    "n256-map1-haar-gauss": (256, "map1", 8, "haar", "gauss"),
    "n2048-map2-cbd": (2048, "map2", 64, None, "cbd"),
    "n2048-map1-fourier-gauss": (2048, "map1", 10, "fourier", "gauss"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _key(kind: str, n: int) -> ErrorKey:
    if kind == "cbd":
        params = ErrorParams(n=n, scale=0.5, distribution=CENTERED_BINOMIAL, eta=2)
    else:
        params = ErrorParams(n=n, scale=0.25, distribution=DISCRETE_GAUSSIAN, sigma=3.0)
    return ErrorKey(seed=KEY_SEED, params=params)


def _error_ints(key: ErrorKey, nonce: bytes) -> np.ndarray:
    scaled = derive_error(key, nonce) / key.params.scale
    ints = np.rint(scaled).astype(np.int64)
    assert np.array_equal(ints, scaled)
    return ints


def _case_inputs(name: str):
    n, kind, t, basis, key_kind = CIPHERTEXT_CASES[name]
    scheme = EncodingScheme.map1(t, n, basis) if kind == "map1" else EncodingScheme.map2(t, n)
    digest = hashlib.sha256(name.encode()).digest()
    msg = Message.from_int(int.from_bytes(digest, "big") % (1 << t), t)
    nonce = digest[:16]
    key = None if key_kind is None else _key(key_kind, n)
    return scheme, msg, nonce, key


def _encrypt(name: str) -> SymCiphertext:
    scheme, msg, nonce, key = _case_inputs(name)
    if key is not None:
        return sym_encrypt(key, msg, scheme, nonce)
    body = GridFunction(hso.apply_operator(hso.build_hso(scheme.n), encode(msg, scheme)))
    return SymCiphertext(scheme=scheme, nonce=nonce, body=body)


def _decrypt(name: str, ct: SymCiphertext) -> Message:
    _, _, _, key = _case_inputs(name)
    if key is not None:
        return sym_decrypt(key, ct)
    recovered = hso.naive_inverse_apply(hso.build_hso(ct.scheme.n), ct.body.values)
    return decode(recovered, ct.scheme)


def sym_vectors() -> dict:
    """Every pinned value, computed from the library under test."""
    errors = []
    for kind in ("cbd", "gauss"):
        for n in (256, 2048):
            key = _key(kind, n)
            for nonce in ERROR_NONCES:
                ints = _error_ints(key, nonce)
                entry = {"key": kind, "n": n, "nonce": nonce.hex()}
                if n <= 256:
                    entry["values"] = ints.tolist()
                else:
                    entry["sha256_i8"] = _sha256(ints.astype("<i1").tobytes())
                errors.append(entry)
    ciphertexts = {}
    for name in CIPHERTEXT_CASES:
        _, msg, _, _ = _case_inputs(name)
        ct = _encrypt(name)
        ciphertexts[name] = {
            "message": list(msg.bits),
            "n": ct.scheme.n,
            "t": ct.scheme.t,
            "encoding_id": ct.scheme.encoding_id,
            "nonce": ct.nonce.hex(),
            "ipc1_base64": base64.b64encode(write_sym_ciphertext(ct)).decode(),
        }
    return {"key_seed": KEY_SEED.hex(), "derive_error": errors, "ciphertexts": ciphertexts}


@pytest.fixture(scope="module")
def stored():
    return json.loads(KAT_PATH.read_text())


def _stored_ciphertext(stored, name: str) -> SymCiphertext:
    return read_sym_ciphertext(base64.b64decode(stored["ciphertexts"][name]["ipc1_base64"]))


def test_kat_file_records_its_source_commit(stored):
    assert len(stored["generated_at"]) == 40
    int(stored["generated_at"], 16)
    assert stored["key_seed"] == KEY_SEED.hex()


def test_derive_error_kat(stored):
    want = stored["derive_error"]
    assert len(want) == 8
    for entry in want:
        key = _key(entry["key"], entry["n"])
        ints = _error_ints(key, bytes.fromhex(entry["nonce"]))
        if "values" in entry:
            assert ints.tolist() == entry["values"], entry["key"]
        else:
            assert _sha256(ints.astype("<i1").tobytes()) == entry["sha256_i8"], entry["key"]


@pytest.mark.parametrize("name", sorted(CIPHERTEXT_CASES))
def test_ciphertext_kat(stored, name):
    want = stored["ciphertexts"][name]
    _, msg, _, _ = _case_inputs(name)
    assert list(msg.bits) == want["message"]
    got = _encrypt(name)
    ref = _stored_ciphertext(stored, name)
    for ct in (got, ref):
        scheme = ct.scheme
        assert (scheme.n, scheme.t, scheme.encoding_id) == (want["n"], want["t"], want["encoding_id"])
    assert got.nonce.hex() == want["nonce"] == ref.nonce.hex()
    scale = np.abs(ref.body.values).max()
    assert np.abs(got.body.values - ref.body.values).max() <= BODY_RTOL * scale


@pytest.mark.parametrize("name", sorted(CIPHERTEXT_CASES))
def test_stored_ciphertext_decrypts_to_its_message(stored, name):
    ct = _stored_ciphertext(stored, name)
    assert list(_decrypt(name, ct).bits) == stored["ciphertexts"][name]["message"]
