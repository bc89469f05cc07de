"""Binary containers: frozen layouts, roundtrips, malformed-input rejection."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipcrypt.encoding import EncodingScheme, Message
from ipcrypt.formats import (
    read_error_key,
    read_hybrid_ciphertext,
    read_kem_ciphertext,
    read_kem_public_key,
    read_kem_secret_key,
    read_sym_ciphertext,
    write_error_key,
    write_hybrid_ciphertext,
    write_kem_ciphertext,
    write_kem_public_key,
    write_kem_secret_key,
    write_sym_ciphertext,
)
from ipcrypt.hybrid import pke_decrypt, pke_encrypt, pke_keygen
from ipcrypt.kem import DESK_PARAMS, KemParams, kem_encaps, kem_keygen
from ipcrypt.noise import CENTERED_BINOMIAL, DISCRETE_GAUSSIAN, ErrorKey, ErrorParams
from ipcrypt.grid import GridFunction
from ipcrypt.symmetric import SymCiphertext, recommended_error_params, sym_encrypt, sym_keygen

RNG = np.random.default_rng  # short alias for seeded generators


def binomial_key(seed_byte=0x11):
    return ErrorKey(seed=bytes([seed_byte]) * 32, params=recommended_error_params())


# ---------------------------------------------------------------- error keys


def test_error_key_layout_is_frozen():
    key = binomial_key()
    blob = write_error_key(key)
    expected = (
        b"IPK1"
        + b"\x02"  # version
        + b"\x02"  # binomial distribution id
        + struct.pack("<I", 2)  # eta
        + struct.pack("<d", 0.5)  # scale
        + struct.pack("<I", 256)  # grid size
        + key.seed
    )
    assert blob == expected
    assert len(blob) == 54


def test_error_key_roundtrip_binomial():
    key = binomial_key()
    again = read_error_key(write_error_key(key))
    assert again.seed == key.seed
    assert again.params == key.params


def test_error_key_roundtrip_gaussian():
    params = ErrorParams(n=256, scale=0.25, distribution=DISCRETE_GAUSSIAN, sigma=1.5)
    key = ErrorKey(seed=bytes(range(32)), params=params)
    blob = write_error_key(key)
    assert blob[5] == 0x01  # gaussian distribution id
    assert struct.unpack("<d", blob[6:14])[0] == 1.5
    again = read_error_key(blob)
    assert again.params == params
    assert again.seed == key.seed


@pytest.mark.parametrize(
    "distribution, used, unused",
    [(CENTERED_BINOMIAL, {"eta": 5}, {"sigma": 3.0}), (DISCRETE_GAUSSIAN, {"sigma": 3.0}, {"eta": 7})],
)
def test_error_key_file_keeps_every_parameter_of_the_key(distribution, used, unused):
    """The file stores only the parameter the distribution reads; the other keeps its default."""
    params = ErrorParams(n=256, scale=0.5, distribution=distribution, **used)
    again = read_error_key(write_error_key(ErrorKey(seed=bytes(32), params=params)))
    assert again.params == params
    (name,) = unused
    with pytest.raises(ValueError, match=f"{name} is unused"):
        ErrorParams(n=256, scale=0.5, distribution=distribution, **used, **unused)


def test_error_key_rejects_malformed_input():
    blob = write_error_key(binomial_key())
    with pytest.raises(ValueError, match="bad magic"):
        read_error_key(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="version"):
        read_error_key(blob[:4] + b"\x09" + blob[5:])
    with pytest.raises(ValueError, match="distribution id"):
        read_error_key(blob[:5] + b"\x07" + blob[6:])
    with pytest.raises(ValueError, match="truncated"):
        read_error_key(blob[:-5])
    with pytest.raises(ValueError, match="trailing"):
        read_error_key(blob + b"\x00")


# ---------------------------------------------------------------- symmetric ct


def sample_sym_ct():
    rng = RNG(0)
    key = sym_keygen(recommended_error_params(), rng)
    scheme = EncodingScheme.map2(8, 256)
    return key, sym_encrypt(key, Message.from_int(0xC3, 8), scheme, rng.bytes(16))


def test_sym_ciphertext_layout_and_roundtrip():
    _, ct = sample_sym_ct()
    blob = write_sym_ciphertext(ct)
    assert blob[:4] == b"IPC1"
    assert blob[4] == 1
    assert struct.unpack("<I", blob[5:9])[0] == 256
    assert struct.unpack("<I", blob[9:13])[0] == 8
    assert blob[13] == 0x03
    assert blob[14:30] == ct.nonce
    assert len(blob) == 30 + 4 + 8 * 256
    again = read_sym_ciphertext(blob)
    assert (again.scheme.n, again.scheme.t, again.scheme.encoding_id, again.nonce) == (
        ct.scheme.n,
        ct.scheme.t,
        ct.scheme.encoding_id,
        ct.nonce,
    )
    np.testing.assert_array_equal(again.body.values, ct.body.values)


def test_sym_ciphertext_rejects_malformed_input():
    _, ct = sample_sym_ct()
    blob = write_sym_ciphertext(ct)
    with pytest.raises(ValueError, match="bad magic"):
        read_sym_ciphertext(b"IPK1" + blob[4:])
    with pytest.raises(ValueError, match="encoding id"):
        read_sym_ciphertext(blob[:13] + b"\x42" + blob[14:])
    with pytest.raises(ValueError, match="truncated"):
        read_sym_ciphertext(blob[:20])
    # Header grid size contradicting the body is caught, not trusted.
    patched = blob[:5] + struct.pack("<I", 128) + blob[9:]
    with pytest.raises(ValueError, match="header"):
        read_sym_ciphertext(patched)
    with pytest.raises(ValueError):
        read_sym_ciphertext(blob + b"\x00\x01")


def body_ct(values):
    """Ciphertext whose body is the given samples (map2 with t = 1 fits any n)."""
    values = np.asarray(values, dtype=np.float64)
    return SymCiphertext(
        scheme=EncodingScheme.map2(1, values.size), nonce=bytes(16), body=GridFunction(values)
    )


def test_sym_ciphertext_body_layout_is_frozen():
    blob = write_sym_ciphertext(body_ct([1.0]))
    assert blob[30:] == struct.pack("<I", 1) + struct.pack("<d", 1.0)
    assert len(blob) == 30 + 12


def test_sym_ciphertext_body_length():
    assert len(write_sym_ciphertext(body_ct(np.arange(7)))) == 30 + 4 + 7 * 8


@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False, width=64), min_size=1, max_size=64))
def test_sym_ciphertext_body_roundtrip(values):
    ct = body_ct(values)
    again = read_sym_ciphertext(write_sym_ciphertext(ct))
    assert again.body.n == ct.body.n
    np.testing.assert_array_equal(again.body.values, ct.body.values)


def test_sym_ciphertext_body_rejects_truncation_trailing_and_zero_size():
    blob = write_sym_ciphertext(body_ct([1.0, 2.0]))
    with pytest.raises(ValueError, match="truncated"):
        read_sym_ciphertext(blob[:-1])
    with pytest.raises(ValueError, match="trailing"):
        read_sym_ciphertext(blob + b"\x00")
    with pytest.raises(ValueError, match="truncated .*body sample count"):
        read_sym_ciphertext(blob[:31])
    zero = blob[:5] + struct.pack("<I", 0) + blob[9:30] + struct.pack("<I", 0)
    with pytest.raises(ValueError, match="grid size must be positive"):
        read_sym_ciphertext(zero)


@pytest.mark.parametrize("big", [1e200, 1.7e308])
def test_sym_ciphertext_reader_accepts_finite_samples_whose_squares_overflow(big):
    values = [big, -big, 0.5, -big]
    again = read_sym_ciphertext(write_sym_ciphertext(body_ct(values)))
    assert np.array_equal(again.body.values, values)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("index", [0, 3, 6])
@pytest.mark.parametrize("rest", [1.0, 1.7e308])
def test_sym_ciphertext_reader_names_a_non_finite_sample(bad, index, rest):
    """A non-finite body sample is refused with its index, first, middle or last."""
    blob = write_sym_ciphertext(body_ct(np.full(7, rest)))
    at = 34 + 8 * index
    forged = blob[:at] + struct.pack("<d", bad) + blob[at + 8 :]
    with pytest.raises(ValueError, match=f"^non-finite sample at index {index}$"):
        read_sym_ciphertext(forged)


def test_sym_ciphertext_huge_header_n_is_refused_before_reading_the_body():
    """A short file claiming n = 2^31 fails as truncated without a 16 GiB buffer."""
    blob = write_sym_ciphertext(body_ct([1.0, 2.0]))
    huge = struct.pack("<I", 1 << 31)
    forged = blob[:5] + huge + blob[9:30] + huge + blob[34:]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated"):
            read_sym_ciphertext(forged)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------- KEM material


def test_kem_public_key_roundtrip():
    pair = kem_keygen(DESK_PARAMS, RNG(1))
    blob = write_kem_public_key(pair.public)
    assert blob[:4] == b"IPQ1"
    assert blob[4:7] == b"\x01\x01\x01"  # version, parameter id, public kind
    assert len(blob) == 7 + 32 + 256 * 256 * 2
    again = read_kem_public_key(blob)
    assert again.seed_a == pair.public.seed_a
    np.testing.assert_array_equal(again.b_pub, pair.public.b_pub)
    assert again.params == DESK_PARAMS


def test_kem_secret_key_roundtrip_preserves_signs():
    pair = kem_keygen(DESK_PARAMS, RNG(2))
    assert (pair.secret.s < 0).any()
    blob = write_kem_secret_key(pair.secret)
    assert blob[4:7] == b"\x01\x01\x02"
    assert len(blob) == 7 + 256 * 256
    again = read_kem_secret_key(blob)
    np.testing.assert_array_equal(again.s, pair.secret.s)


def test_kem_ciphertext_roundtrip():
    pair = kem_keygen(DESK_PARAMS, RNG(3))
    _, ct = kem_encaps(pair.public, RNG(4))
    blob = write_kem_ciphertext(ct)
    assert blob[4:7] == b"\x01\x01\x03"
    assert len(blob) == 7 + 2 * 256 + 2 * 256
    again = read_kem_ciphertext(blob)
    np.testing.assert_array_equal(again.u, ct.u)
    np.testing.assert_array_equal(again.v, ct.v)
    assert again.params == DESK_PARAMS


def test_kem_kind_and_param_id_checks():
    pair = kem_keygen(DESK_PARAMS, RNG(5))
    pk_blob = write_kem_public_key(pair.public)
    sk_blob = write_kem_secret_key(pair.secret)
    with pytest.raises(ValueError, match="expected a KEM public key"):
        read_kem_public_key(sk_blob)
    with pytest.raises(ValueError, match="expected a KEM secret key"):
        read_kem_secret_key(pk_blob)
    with pytest.raises(ValueError, match="parameter id"):
        read_kem_public_key(pk_blob[:5] + b"\x7f" + pk_blob[6:])
    with pytest.raises(ValueError, match="trailing"):
        read_kem_ciphertext(write_kem_ciphertext(kem_encaps(pair.public, RNG(6))[1]) + b"\x00")


def test_kem_writers_refuse_unregistered_parameters():
    """A key of a set with no IPQ1 id is refused, not labelled as the desk set."""
    params = KemParams(q=12289, dim=16, secret_bits=16, eta=1)
    pair = kem_keygen(params, RNG(8))
    _, ct = kem_encaps(pair.public, RNG(9))
    with pytest.raises(ValueError, match="no registered IPQ1 id"):
        write_kem_public_key(pair.public)
    with pytest.raises(ValueError, match="no registered IPQ1 id"):
        write_kem_secret_key(pair.secret)
    with pytest.raises(ValueError, match="no registered IPQ1 id"):
        write_kem_ciphertext(ct)


# ---------------------------------------------------------------- hybrid


def test_hybrid_roundtrip_end_to_end():
    rng = RNG(7)
    pair = pke_keygen(rng)
    msg = Message.random(32, rng)
    scheme = EncodingScheme.map2(32, 256)
    ct = pke_encrypt(pair.public, msg, scheme, rng)
    blob = write_hybrid_ciphertext(ct)
    assert blob[:4] == b"IPH1"
    again = read_hybrid_ciphertext(blob)
    np.testing.assert_array_equal(again.c1.u, ct.c1.u)
    np.testing.assert_array_equal(again.c1.v, ct.c1.v)
    np.testing.assert_array_equal(again.c2.body.values, ct.c2.body.values)
    assert again.c2.nonce == ct.c2.nonce
    assert pke_decrypt(pair.secret, again) == msg


def test_hybrid_rejects_malformed_input():
    rng = RNG(8)
    pair = pke_keygen(rng)
    ct = pke_encrypt(pair.public, Message.random(8, rng), EncodingScheme.map2(8, 256), rng)
    blob = write_hybrid_ciphertext(ct)
    with pytest.raises(ValueError, match="bad magic"):
        read_hybrid_ciphertext(b"IPC1" + blob[4:])
    with pytest.raises(ValueError, match="truncated"):
        read_hybrid_ciphertext(blob[:40])
    with pytest.raises(ValueError, match="version"):
        read_hybrid_ciphertext(blob[:4] + b"\x09" + blob[5:])


# ---------------------------------------------------------------- versions


def test_version_1_error_key_is_refused_by_version():
    """Version 1 keys belong to the earlier noise derivation and would decrypt wrongly."""
    blob = write_error_key(binomial_key())
    assert blob[4] == 2
    with pytest.raises(ValueError, match="^unsupported error key version 1$"):
        read_error_key(blob[:4] + b"\x01" + blob[5:])


def test_version_1_hybrid_ciphertext_is_refused_by_version():
    rng = RNG(9)
    pair = pke_keygen(rng)
    ct = pke_encrypt(pair.public, Message.random(8, rng), EncodingScheme.map2(8, 256), rng)
    blob = write_hybrid_ciphertext(ct)
    # Version 2 outside; the embedded IPQ1 and IPC1 blocks keep version 1.
    assert blob[4] == 2
    c1_len = struct.unpack("<I", blob[5:9])[0]
    assert blob[9:14] == b"IPQ1\x01"
    assert blob[9 + c1_len : 14 + c1_len] == b"IPC1\x01"
    with pytest.raises(ValueError, match="^unsupported hybrid ciphertext version 1$"):
        read_hybrid_ciphertext(blob[:4] + b"\x01" + blob[5:])
