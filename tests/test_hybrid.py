"""KEM-DEM composition: roundtrips, tampering behavior, non-desk parameter sets."""

import numpy as np

from ipcrypt.attacks import bit_accuracy
from ipcrypt.encoding import EncodingScheme, Message
from ipcrypt.hybrid import HybridCiphertext, pke_decrypt, pke_encrypt, pke_keygen
from ipcrypt.kem import (
    DESK_PARAMS,
    KemCiphertext,
    KemParams,
    kem_decaps,
    kem_keygen,
)
from ipcrypt.noise import NONCE_BYTES, xof_expand

SCHEME = EncodingScheme.map2(32, 256)


def test_roundtrip_map2():
    rng = np.random.default_rng(0)
    pair = pke_keygen(rng)
    for _ in range(50):
        msg = Message.random(32, rng)
        ct = pke_encrypt(pair.public, msg, SCHEME, rng)
        assert pke_decrypt(pair.secret, ct) == msg


def test_roundtrip_map1_haar():
    rng = np.random.default_rng(1)
    pair = pke_keygen(rng)
    scheme = EncodingScheme.map1(8, 256, basis="haar")
    for _ in range(20):
        msg = Message.random(8, rng)
        ct = pke_encrypt(pair.public, msg, scheme, rng)
        assert pke_decrypt(pair.secret, ct) == msg


def test_encrypt_is_reproducible_from_generator():
    rng = np.random.default_rng(2)
    pair = pke_keygen(rng)
    msg = Message.from_int(0xDEADBEEF, 32)
    c1 = pke_encrypt(pair.public, msg, SCHEME, np.random.default_rng(3))
    c2 = pke_encrypt(pair.public, msg, SCHEME, np.random.default_rng(3))
    np.testing.assert_array_equal(c1.c1.u, c2.c1.u)
    np.testing.assert_array_equal(c1.c1.v, c2.c1.v)
    np.testing.assert_array_equal(c1.c2.body.values, c2.c2.body.values)
    assert c1.c2.nonce == c2.c2.nonce


def test_nonce_comes_from_shared_secret_stretch():
    """C2's nonce must equal the XOF stretch of (shared secret || 0x01)."""
    rng = np.random.default_rng(4)
    pair = pke_keygen(rng)
    ct = pke_encrypt(pair.public, Message.from_int(7, 32), SCHEME, rng)
    shared = kem_decaps(pair.secret, ct.c1)
    assert ct.c2.nonce == xof_expand(shared.data + b"\x01", NONCE_BYTES)
    assert len(ct.c2.nonce) == 16


def test_tampered_kem_ciphertext_yields_wrong_message_not_error():
    rng = np.random.default_rng(5)
    pair = pke_keygen(rng)
    for trial in range(20):
        msg = Message.random(32, rng)
        ct = pke_encrypt(pair.public, msg, SCHEME, rng)
        v = ct.c1.v.copy()
        j = int(rng.integers(0, v.size))
        v[j] = (v[j] + DESK_PARAMS.half_q) % DESK_PARAMS.q
        tampered = HybridCiphertext(c1=KemCiphertext(params=ct.c1.params, u=ct.c1.u, v=v), c2=ct.c2)
        got = pke_decrypt(pair.secret, tampered)  # must not raise
        assert got != msg


def test_tampering_u_also_breaks_recovery():
    rng = np.random.default_rng(6)
    pair = pke_keygen(rng)
    msg = Message.random(32, rng)
    ct = pke_encrypt(pair.public, msg, SCHEME, rng)
    u = ct.c1.u.copy()
    u[0] = (u[0] + 1000) % DESK_PARAMS.q
    tampered = HybridCiphertext(c1=KemCiphertext(params=ct.c1.params, u=u, v=ct.c1.v), c2=ct.c2)
    assert pke_decrypt(pair.secret, tampered) != msg


def test_mismatched_secret_key_decrypts_to_chance():
    rng = np.random.default_rng(7)
    pair = pke_keygen(rng)
    other = pke_keygen(rng)
    accs = []
    for _ in range(50):
        msg = Message.random(32, rng)
        ct = pke_encrypt(pair.public, msg, SCHEME, rng)
        got = pke_decrypt(other.secret, ct)
        accs.append(bit_accuracy(got, msg))
    assert 0.4 <= float(np.mean(accs)) <= 0.6


def test_keygen_delegates_to_kem():
    a = pke_keygen(np.random.default_rng(10))
    b = kem_keygen(DESK_PARAMS, np.random.default_rng(10))
    assert a.public.seed_a == b.public.seed_a
    np.testing.assert_array_equal(a.secret.s, b.secret.s)


def test_roundtrip_under_a_non_desk_parameter_set():
    params = KemParams(q=3329, dim=16, secret_bits=64, eta=2)
    rng = np.random.default_rng(11)
    pair = kem_keygen(params, rng)
    assert pair.public.params == params and pair.secret.params == params
    for _ in range(20):
        msg = Message.random(32, rng)
        ct = pke_encrypt(pair.public, msg, SCHEME, rng)
        assert ct.c1.params == params
        assert ct.c1.u.shape == (16,) and ct.c1.v.shape == (64,)
        assert pke_decrypt(pair.secret, ct) == msg
