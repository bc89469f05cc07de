"""Noise-masked operator cipher: roundtrips, key/nonce sensitivity."""

import tracemalloc

import numpy as np
import pytest

from ipcrypt import hso
from ipcrypt.attacks import (
    Tikhonov,
    Tsvd,
    attack_naive,
    attack_regularized,
    decode_difference,
    error_reuse_diff,
    known_plaintext_experiment,
)
from ipcrypt.encoding import EncodingScheme, Message
from ipcrypt.formats import read_sym_ciphertext, write_sym_ciphertext
from ipcrypt.grid import GridFunction, midpoints, norm
from ipcrypt.hso import apply_operator, build_hso
from ipcrypt.noise import derive_error
from ipcrypt.symmetric import (
    RECOMMENDED_N,
    RECOMMENDED_SCALE,
    SymCiphertext,
    recommended_error_params,
    sym_decrypt,
    sym_encrypt,
    sym_keygen,
)


def fresh_key(rng, n=256):
    return sym_keygen(recommended_error_params(n=n), rng)


def test_recommended_params():
    params = recommended_error_params()
    assert params.n == RECOMMENDED_N == 256
    assert params.scale == RECOMMENDED_SCALE == 0.5
    assert params.eta == 2


def test_recommended_params_are_built_once_per_argument_set():
    assert recommended_error_params() is recommended_error_params()
    assert recommended_error_params(n=128) is recommended_error_params(n=128)
    # A refused set is never cached: each call validates and raises again.
    for _ in range(2):
        with pytest.raises(ValueError, match="128-bit floor"):
            recommended_error_params(n=1)


@pytest.mark.parametrize(
    "scheme",
    [
        EncodingScheme.map2(32, 256),
        EncodingScheme.map2(8, 256),
        EncodingScheme.map1(8, 256, basis="haar"),
        EncodingScheme.map1(7, 256, basis="fourier"),
    ],
    ids=["map2-t32", "map2-t8", "map1-haar-t8", "map1-fourier-t7"],
)
def test_roundtrip_is_exact(scheme):
    rng = np.random.default_rng(1)
    key = fresh_key(rng)
    for _ in range(50):
        msg = Message.random(scheme.t, rng)
        ct = sym_encrypt(key, msg, scheme, rng.bytes(16))
        assert sym_decrypt(key, ct) == msg


def test_ciphertext_is_deterministic_in_key_nonce_message():
    rng = np.random.default_rng(2)
    key = fresh_key(rng)
    scheme = EncodingScheme.map2(8, 256)
    msg = Message.from_int(0xA5, 8)
    nonce = bytes(range(16))
    c1 = sym_encrypt(key, msg, scheme, nonce)
    c2 = sym_encrypt(key, msg, scheme, nonce)
    np.testing.assert_array_equal(c1.body.values, c2.body.values)
    assert (c1.scheme.n, c1.scheme.t, c1.scheme.encoding_id, c1.nonce) == (256, 8, 0x03, nonce)


def test_ciphertext_hides_the_plaintext_profile():
    """The body is dominated by noise: it is far from the smoothed message."""
    rng = np.random.default_rng(3)
    key = fresh_key(rng)
    scheme = EncodingScheme.map2(8, 256)
    msg = Message.from_int(0xF0, 8)
    ct = sym_encrypt(key, msg, scheme, rng.bytes(16))
    smoothed = apply_operator(build_hso(256), np.repeat(np.asarray(msg.bits, dtype=np.float64), 32))
    gap = norm(ct.body.values - smoothed)
    assert gap > 0.3  # eta=2, scale=0.5 noise has grid norm near 0.5


def test_wrong_key_decrypts_to_chance_level():
    """Mean bit accuracy under a mismatched key sits in [0.4, 0.6]."""
    rng = np.random.default_rng(4)
    key = fresh_key(rng)
    wrong = fresh_key(rng)
    scheme = EncodingScheme.map2(32, 256)
    accs = []
    for _ in range(100):
        msg = Message.random(32, rng)
        ct = sym_encrypt(key, msg, scheme, rng.bytes(16))
        got = sym_decrypt(wrong, ct)
        accs.append(np.mean([a == b for a, b in zip(msg.bits, got.bits)]))
    assert 0.4 <= float(np.mean(accs)) <= 0.6


def test_tampered_nonce_breaks_decryption():
    rng = np.random.default_rng(5)
    key = fresh_key(rng)
    scheme = EncodingScheme.map2(32, 256)
    for _ in range(100):
        msg = Message.random(32, rng)
        ct = sym_encrypt(key, msg, scheme, rng.bytes(16))
        bad_nonce = bytes([ct.nonce[0] ^ 0x01]) + ct.nonce[1:]
        tampered = SymCiphertext(scheme=ct.scheme, nonce=bad_nonce, body=ct.body)
        assert sym_decrypt(key, tampered) != msg


def test_nonce_reuse_cancels_the_error_term():
    """C1 - C2 under one nonce equals S(enc m1) - S(enc m2) to rounding."""
    rng = np.random.default_rng(6)
    key = fresh_key(rng)
    scheme = EncodingScheme.map2(8, 256)
    nonce = rng.bytes(16)
    m1, m2 = Message.from_int(0x0F, 8), Message.from_int(0x35, 8)
    c1 = sym_encrypt(key, m1, scheme, nonce)
    c2 = sym_encrypt(key, m2, scheme, nonce)
    op = build_hso(256)
    diff = c1.body.values - c2.body.values
    clean1 = apply_operator(op, np.repeat(np.asarray(m1.bits, float), 32))
    clean2 = apply_operator(op, np.repeat(np.asarray(m2.bits, float), 32))
    assert norm(diff - (clean1 - clean2)) < 1e-9


def test_body_is_smoothed_message_plus_derived_error():
    rng = np.random.default_rng(7)
    key = fresh_key(rng)
    scheme = EncodingScheme.map2(8, 256)
    msg = Message.from_int(3, 8)
    ct = sym_encrypt(key, msg, scheme, b"\x22" * 16)
    clean = apply_operator(build_hso(256), np.repeat(np.asarray(msg.bits, float), 32))
    np.testing.assert_allclose(
        ct.body.values - clean, derive_error(key, ct.nonce), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize(
    "scheme",
    [
        EncodingScheme.map2(64, 1 << 16),
        EncodingScheme.map1(16, 1 << 16, basis="haar"),
        EncodingScheme.map1(15, 1 << 16, basis="fourier"),
    ],
    ids=["map2-t64", "map1-haar-t16", "map1-fourier-t15"],
)
def test_large_grid_round_trip_is_linear_in_memory(monkeypatch, scheme):
    """A file round trip at n = 2^16 with no basis and no dense matrix.

    The tracemalloc peak of a map2 encrypt, write, read and decrypt
    measured 13.1 times the 8n-byte body with the cached singular values
    cold and 5.0 times warm; one n x n array alone would be n = 65536
    times, and so would a map1 table of all 2^16 haar candidates.
    """
    n = scheme.n

    def forbidden(*_):
        raise AssertionError("the keyed round trip built an O(n^2) array")

    monkeypatch.setattr(hso, "_kms_basis", forbidden)
    monkeypatch.setattr(hso.DiscretizedOperator, "matrix", property(forbidden))
    rng = np.random.default_rng(16)
    key = fresh_key(rng, n=n)
    msg = Message.random(scheme.t, rng)
    tracemalloc.start()
    try:
        ct = sym_encrypt(key, msg, scheme, rng.bytes(16))
        recovered = sym_decrypt(key, read_sym_ciphertext(write_sym_ciphertext(ct)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert recovered == msg
    assert peak <= 20 * 8 * n


def test_round_trip_builds_one_body_per_crossing(monkeypatch):
    """GridFunction is built only where samples cross the trust boundary.

    A file round trip builds the encrypted body (unchecked) and the body
    read back (checked); the attacks invert an existing body on plain
    arrays and build none.  Both constructors are counted.
    """
    rng = np.random.default_rng(17)
    key = fresh_key(rng)
    scheme = EncodingScheme.map2(32, 256)
    msg = Message.random(32, rng)
    factors = hso.hso_svd(256)
    built = []
    checked, unchecked = GridFunction.__post_init__, GridFunction._of_samples

    def counted_checked(self):
        built.append(self)
        checked(self)

    def counted_unchecked(cls, values):
        built.append(values)
        return unchecked(values)

    monkeypatch.setattr(GridFunction, "__post_init__", counted_checked)
    monkeypatch.setattr(GridFunction, "_of_samples", classmethod(counted_unchecked))
    ct = sym_encrypt(key, msg, scheme, rng.bytes(16))
    assert sym_decrypt(key, read_sym_ciphertext(write_sym_ciphertext(ct))) == msg
    assert len(built) == 2
    built.clear()
    attack_naive(ct, factors, truth=msg)
    attack_regularized(ct, factors, Tsvd(8), truth=msg)
    attack_regularized(ct, factors, Tikhonov(1e-4), truth=msg)
    assert built == []



def test_ciphertext_carries_its_scheme_and_nothing_rebuilds_it(monkeypatch):
    """Only the file reader builds an EncodingScheme, from the header, at most once.

    Encryption stores the caller's scheme in the ciphertext; decryption
    and the attacks decode with that object.  The reader's schemes are
    cached per header, so a second read of the same header builds none.
    """
    rng = np.random.default_rng(18)
    key = fresh_key(rng)
    scheme = EncodingScheme.map2(32, 256)
    msg = Message.random(32, rng)
    factors = hso.hso_svd(256)
    built = []
    original = EncodingScheme.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(EncodingScheme, "__post_init__", counted)
    ct = sym_encrypt(key, msg, scheme, rng.bytes(16))
    assert ct.scheme is scheme
    blob = write_sym_ciphertext(ct)
    parsed = read_sym_ciphertext(blob)
    assert sym_decrypt(key, parsed) == msg
    assert parsed.scheme == scheme
    assert len(built) <= 1 and all(b is parsed.scheme for b in built)
    built.clear()
    assert read_sym_ciphertext(blob).scheme is parsed.scheme
    assert built == []
    attack_naive(ct, factors, truth=msg)
    attack_regularized(ct, factors, Tsvd(8), truth=msg)
    attack_regularized(ct, factors, Tikhonov(1e-4), truth=msg)
    assert built == []


def test_ciphertext_keeps_its_own_bytes_of_a_mutable_nonce():
    rng = np.random.default_rng(19)
    key = fresh_key(rng)
    scheme = EncodingScheme.map2(32, 256)
    msg = Message.random(32, rng)
    body = sym_encrypt(key, msg, scheme, bytes(16)).body
    buffer = bytearray(16)
    ct = SymCiphertext(scheme=scheme, nonce=buffer, body=body)
    buffer[0] = 1
    assert type(ct.nonce) is bytes and ct.nonce == bytes(16)
    assert sym_decrypt(key, ct) == msg
    encrypted = sym_encrypt(key, msg, scheme, buffer)
    assert type(encrypted.nonce) is bytes and encrypted.nonce == bytes(buffer)
    with pytest.raises(TypeError, match="^nonce must be bytes, got str$"):
        sym_encrypt(key, msg, scheme, "n" * 16)


def test_exact_inverse_paths_never_compute_the_singular_system():
    """Attack and experiment paths that need only n never call hso_svd.

    The exact inverse reads only n, so these calls on a grid size missing
    from the cache leave it untouched.
    """
    n = 200
    rng = np.random.default_rng(18)
    key = fresh_key(rng, n=n)
    scheme = EncodingScheme.map2(8, n)
    m1, m2 = Message.random(8, rng), Message.random(8, rng)
    nonce = rng.bytes(16)
    before = hso.hso_svd.cache_info()
    diff = error_reuse_diff(sym_encrypt(key, m1, scheme, nonce), sym_encrypt(key, m2, scheme, nonce))
    assert decode_difference(diff, scheme) == tuple(a - b for a, b in zip(m1.bits, m2.bits))
    known_plaintext_experiment(key, [m1], scheme, rng, holdout_trials=2)
    profile = np.sin(2.0 * np.pi * midpoints(n))
    hso.noise_amplification_experiment(build_hso(n), profile, 0.01, trials=2, seed=0)
    assert hso.hso_svd.cache_info() == before


def test_encrypt_validation():
    rng = np.random.default_rng(8)
    key = fresh_key(rng)
    msg = Message.from_int(0, 8)
    with pytest.raises(ValueError, match="grid"):
        sym_encrypt(key, msg, EncodingScheme.map2(8, 128), b"\x00" * 16)
    with pytest.raises(ValueError, match="nonce"):
        sym_encrypt(key, msg, EncodingScheme.map2(8, 256), b"\x00" * 8)


def test_decrypt_validates_grid_match():
    rng = np.random.default_rng(9)
    key_small = sym_keygen(recommended_error_params(n=128), rng)
    key_big = fresh_key(rng)
    ct = sym_encrypt(
        key_small, Message.from_int(0, 8), EncodingScheme.map2(8, 128), b"\x01" * 16
    )
    with pytest.raises(ValueError, match="grid"):
        sym_decrypt(key_big, ct)


def test_ciphertext_header_validation():
    body = GridFunction(np.zeros(64))
    with pytest.raises(ValueError, match="header"):
        SymCiphertext(scheme=EncodingScheme.map2(8, 32), nonce=b"\x00" * 16, body=body)
    with pytest.raises(ValueError, match="nonce"):
        SymCiphertext(scheme=EncodingScheme.map2(8, 64), nonce=b"\x00" * 4, body=body)
    with pytest.raises(TypeError, match="^nonce must be bytes, got str$"):
        SymCiphertext(scheme=EncodingScheme.map2(8, 64), nonce="n" * 16, body=body)
    with pytest.raises(TypeError, match="^nonce must be bytes, got list$"):
        SymCiphertext(scheme=EncodingScheme.map2(8, 64), nonce=[0] * 16, body=body)
    for nonce in (np.zeros(2), np.zeros(8, np.uint16)):
        with pytest.raises(TypeError, match="^nonce must be bytes, got ndarray$"):
            SymCiphertext(scheme=EncodingScheme.map2(8, 64), nonce=nonce, body=body)
    # The header's (id, t, n) is checked where the scheme is built from it.
    with pytest.raises(ValueError, match="t \\| n"):
        EncodingScheme.from_encoding_id(0x03, 7, 64)
    with pytest.raises(ValueError, match="encoding id"):
        EncodingScheme.from_encoding_id(0x42, 8, 64)
