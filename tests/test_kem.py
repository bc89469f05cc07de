"""Desk-scale LWE key encapsulation: XOF, matrix expansion, roundtrips."""

import ast
import hashlib
import inspect

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ipcrypt import kem, noise
from ipcrypt.formats import (
    read_kem_public_key,
    read_kem_secret_key,
    write_kem_public_key,
    write_kem_secret_key,
)
from ipcrypt.kem import (
    DEFAULT_KEM,
    DESK_PARAMS,
    KemCiphertext,
    KemParams,
    KemPublicKey,
    KemSecretKey,
    LweKem,
    cbd,
    expand_matrix,
    kem_decaps,
    kem_encaps,
    kem_keygen,
    xof_expand,
)

SMALL = KemParams(q=17, dim=8, secret_bits=8, eta=1)


# ---------------------------------------------------------------- XOF


def test_xof_matches_published_shake256_vector():
    """SHAKE-256 of the empty string, first 32 bytes (FIPS 202 test vector)."""
    assert (
        xof_expand(b"", 32).hex()
        == "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
    )


def test_xof_zero_length_and_validation():
    assert xof_expand(b"abc", 0) == b""
    with pytest.raises(ValueError):
        xof_expand(b"abc", -1)


@given(st.binary(max_size=64), st.integers(0, 128), st.integers(0, 128))
@settings(max_examples=100)
def test_xof_outputs_are_prefix_consistent(data, a, b):
    lo, hi = sorted((a, b))
    assert xof_expand(data, hi)[:lo] == xof_expand(data, lo)


def test_xof_distinct_inputs_diverge():
    assert xof_expand(b"a", 32) != xof_expand(b"b", 32)


# ---------------------------------------------------------------- matrix expansion


def test_expand_matrix_shape_range_and_determinism():
    seed = b"\x07" * 32
    a = expand_matrix(seed, DESK_PARAMS)
    assert a.shape == (256, 256)
    assert a.dtype == np.int64
    assert a.min() >= 0 and a.max() < 3329
    assert not a.flags.writeable
    np.testing.assert_array_equal(a, expand_matrix(seed, DESK_PARAMS))
    assert (a != expand_matrix(b"\x08" * 32, DESK_PARAMS)).any()


def test_expand_matrix_is_roughly_uniform():
    a = expand_matrix(b"\x01" * 32, DESK_PARAMS)
    # Mean of 65536 uniform residues: (q-1)/2 = 1664, sd of the mean ~ 3.75.
    assert abs(a.mean() - 1664.0) < 30.0


def test_expand_matrix_small_modulus():
    a = expand_matrix(b"\x02" * 32, SMALL)
    assert a.shape == (8, 8)
    assert a.min() >= 0 and a.max() < 17


def test_expand_matrix_doubling_path_matches_one_long_squeeze():
    """q = 32771 rejects about half the words, so the first squeeze is too short.

    The matrix must still be the first dim^2 accepted words of one long
    SHAKE-256 stream: the doubling loop relies on shorter squeezes being
    prefixes of longer ones.
    """
    params = KemParams(q=32771, dim=64, secret_bits=8, eta=1)
    need = params.dim * params.dim
    limit = (1 << 16) // params.q * params.q
    assert limit == params.q
    for seed in (b"\x03" * 32, bytes(range(32))):
        words = np.frombuffer(hashlib.shake_256(seed).digest(8 * need), dtype="<u2")
        accepted = words[words < limit].astype(np.int64)
        assert accepted.size >= need
        want = (accepted[:need] % params.q).reshape(params.dim, params.dim)
        np.testing.assert_array_equal(expand_matrix(seed, params), want)


def test_expand_matrix_rejects_modulus_above_16_bits(monkeypatch):
    """q > 2^16 would reject every 16-bit word; it fails before any squeeze."""
    top = expand_matrix(b"\x04" * 32, KemParams(q=1 << 16, dim=4, secret_bits=8, eta=1))
    assert top.min() >= 0 and top.max() < 1 << 16

    def no_squeeze(data, out_len):
        raise AssertionError("squeezed for an impossible modulus")

    monkeypatch.setattr(kem, "xof_expand", no_squeeze)
    wide = KemParams(q=70000, dim=4, secret_bits=8, eta=1)
    with pytest.raises(ValueError, match="q <= 2\\^16"):
        kem_keygen(wide, np.random.default_rng(0))
    with pytest.raises(ValueError, match="q <= 2\\^16"):
        expand_matrix(b"\x05" * 32, wide)


# ---------------------------------------------------------------- binomial draws


def test_cbd_bounds_and_shape():
    rng = np.random.default_rng(0)
    x = cbd(rng, (5, 7), 2)
    assert x.shape == (5, 7)
    assert np.abs(x).max() <= 2
    y = cbd(rng, 10, 3)
    assert y.shape == (10,)
    assert np.abs(y).max() <= 3
    with pytest.raises(ValueError):
        cbd(rng, 4, 0)


def test_cbd_histogram_matches_binomial_weights():
    rng = np.random.default_rng(1)
    draws = cbd(rng, 100_000, 2)
    freq = np.array([(draws == k).sum() for k in range(-2, 3)]) / draws.size
    np.testing.assert_allclose(freq, np.array([1, 4, 6, 4, 1]) / 16.0, atol=0.01)
    assert abs(draws.mean()) < 0.02


CBD_SHAPES = [0, (1,), (5, 7), 256, (2, 3, 5)]
OTHER_BIT_GENERATORS = [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox]


def primed(seed, prior):
    """A PCG64 generator after `prior` one-coin integers draws.

    Each such draw takes one 32-bit half-word, so an odd prior leaves the
    high half of a word buffered in the bit generator.
    """
    rng = np.random.default_rng(seed)
    for _ in range(prior):
        rng.integers(0, 2, dtype=np.int64)
    assert rng.bit_generator.state["has_uint32"] == prior % 2
    return rng


def assert_same_generator(got, want):
    """Same bit generator state and buffered half-word, and same next draws.

    A consumed half-word stays in `uinteger` with has_uint32 = 0, where
    no draw reads it; it is compared only while buffered.
    """
    g, w = got.bit_generator.state, want.bit_generator.state
    assert g["state"] == w["state"]
    assert g["has_uint32"] == w["has_uint32"]
    if w["has_uint32"]:
        assert g["uinteger"] == w["uinteger"]
    assert got.integers(0, 2, size=5).tolist() == want.integers(0, 2, size=5).tolist()
    assert got.bytes(7) == want.bytes(7)
    assert got.integers(0, 2**40, size=3).tolist() == want.integers(0, 2**40, size=3).tolist()


@pytest.mark.parametrize("prior", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", CBD_SHAPES, ids=str)
@pytest.mark.parametrize("eta", [1, 2, 3])
def test_cbd_matches_the_integers_draw_bit_for_bit(integers_cbd, eta, shape, prior):
    """Raw-word coins equal two Generator.integers(0, 2) calls, buffered half-word included."""
    seed = 100 * eta + prior
    got_rng, want_rng = primed(seed, prior), primed(seed, prior)
    got = cbd(got_rng, shape, eta)
    want = integers_cbd(want_rng, shape, eta)
    assert got.dtype == np.int64
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    assert_same_generator(got_rng, want_rng)


def integers_keygen(params, rng, integers_cbd):
    """kem_keygen written on Generator.integers, with an int64 product."""
    seed_a = rng.bytes(32)
    s = integers_cbd(rng, (params.dim, params.secret_bits), params.eta)
    e = integers_cbd(rng, (params.dim, params.secret_bits), params.eta)
    return seed_a, s, (expand_matrix(seed_a, params) @ s + e) % params.q


def integers_encaps(pk, rng, integers_cbd):
    """kem_encaps written on Generator.integers, with int64 products."""
    params = pk.params
    bits = rng.integers(0, 2, size=params.secret_bits, dtype=np.int64)
    r = integers_cbd(rng, params.dim, params.eta)
    e_u = integers_cbd(rng, params.dim, params.eta)
    e_v = integers_cbd(rng, params.secret_bits, params.eta)
    u = (r @ expand_matrix(pk.seed_a, params) + e_u) % params.q
    v = (r @ pk.b_pub + e_v + bits * params.half_q) % params.q
    return np.packbits(bits.astype(np.uint8), bitorder="little").tobytes(), u, v


@pytest.mark.parametrize("prior", [0, 1, 2, 3])
@pytest.mark.parametrize("params", [SMALL, DESK_PARAMS], ids=["small", "desk"])
def test_keygen_and_encaps_match_the_integers_draws(integers_cbd, params, prior):
    """One coin read per matrix in keygen and per encapsulation, bit for bit."""
    got_rng, want_rng = primed(7 + prior, prior), primed(7 + prior, prior)
    pair = kem_keygen(params, got_rng)
    seed_a, s, b = integers_keygen(params, want_rng, integers_cbd)
    assert pair.public.seed_a == seed_a
    np.testing.assert_array_equal(pair.secret.s, s)
    np.testing.assert_array_equal(pair.public.b_pub, b)
    assert_same_generator(got_rng, want_rng)

    for _ in range(prior):
        got_rng.integers(0, 2)
        want_rng.integers(0, 2)
    shared, ct = kem_encaps(pair.public, got_rng)
    want_shared, u, v = integers_encaps(pair.public, want_rng, integers_cbd)
    assert shared.data == want_shared
    np.testing.assert_array_equal(ct.u, u)
    np.testing.assert_array_equal(ct.v, v)
    assert_same_generator(got_rng, want_rng)


@pytest.mark.parametrize("bit_generator", OTHER_BIT_GENERATORS)
def test_kem_draws_refuse_other_bit_generators(bit_generator):
    public = kem_keygen(SMALL, np.random.default_rng(0)).public
    rng = np.random.Generator(bit_generator(0))
    with pytest.raises(ValueError, match="PCG64"):
        cbd(rng, 4, 2)
    with pytest.raises(ValueError, match="PCG64"):
        kem_keygen(SMALL, rng)
    with pytest.raises(ValueError, match="PCG64"):
        kem_encaps(public, rng)


@pytest.mark.parametrize(
    "shape,eta,error",
    [(2.5, 2, TypeError), ((2, 2.0), 2, TypeError), (-1, 2, ValueError),
     ((3, -1), 2, ValueError), (4, 0, ValueError)],
)
def test_cbd_rejects_bad_arguments_before_drawing(shape, eta, error):
    rng = primed(5, 1)
    before = rng.bit_generator.state
    with pytest.raises(error):
        cbd(rng, shape, eta)
    assert rng.bit_generator.state == before


# ---------------------------------------------------------------- exact products


@pytest.mark.parametrize("sign", [1, -1])
def test_exact_matmul_matches_int64_at_the_extremes(sign):
    """Every term at its bound (q - 1) * eta: float64 BLAS equals int64 exactly."""
    for q, dim, eta in ((3329, 256, 2), (2**45, 256, 1), (2**40 + 1, 4095, 2)):
        KemParams(q=q, dim=dim, secret_bits=8, eta=eta)
        a = np.full((3, dim), q - 1, dtype=np.int64)
        s = np.full((dim, 5), sign * eta, dtype=np.int64)
        s[0, 0] = -sign * eta
        want = a @ s
        assert np.abs(want).max() == dim * (q - 1) * eta
        got = kem._exact_matmul(a, s)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        got_vec = kem._exact_matmul(a[0], s)
        assert got_vec.shape == (5,)
        np.testing.assert_array_equal(got_vec, want[0])


def test_exact_matmul_is_the_only_matrix_product():
    """No int64 `@` slips back into the KEM: the one MatMult sits in the helper."""
    tree = ast.parse(inspect.getsource(kem))
    matmuls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
    ]
    helper = next(
        fn for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_exact_matmul"
    )
    assert len(matmuls) == 1
    assert matmuls[0] in list(ast.walk(helper))


def test_kem_and_noise_draw_without_generator_integers():
    """Coins come from raw PCG64 words: no `.integers(` call in kem or noise."""
    for module in (kem, noise):
        calls = [
            node
            for node in ast.walk(ast.parse(inspect.getsource(module)))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "integers"
        ]
        assert calls == [], module.__name__


# ---------------------------------------------------------------- keygen


def test_keygen_shapes_and_bounds():
    pair = kem_keygen(DESK_PARAMS, np.random.default_rng(2))
    assert len(pair.public.seed_a) == 32
    assert pair.public.b_pub.shape == (256, 256)
    assert pair.public.b_pub.min() >= 0 and pair.public.b_pub.max() < 3329
    assert np.abs(pair.secret.s).max() <= 2


def test_keygen_is_reproducible_from_generator():
    a = kem_keygen(DESK_PARAMS, np.random.default_rng(3))
    b = kem_keygen(DESK_PARAMS, np.random.default_rng(3))
    assert a.public.seed_a == b.public.seed_a
    np.testing.assert_array_equal(a.public.b_pub, b.public.b_pub)
    np.testing.assert_array_equal(a.secret.s, b.secret.s)


def test_keygen_implicit_error_is_small():
    """b - A s mod q, centered, is the keygen noise: bounded by eta every time."""
    for seed in range(5):
        pair = kem_keygen(DESK_PARAMS, np.random.default_rng(seed))
        a = expand_matrix(pair.public.seed_a, DESK_PARAMS)
        resid = (pair.public.b_pub - a @ pair.secret.s) % 3329
        centered = np.where(resid > 3329 // 2, resid - 3329, resid)
        assert np.abs(centered).max() <= 2


# ---------------------------------------------------------------- encaps / decaps


def test_roundtrip_many_keys():
    rng = np.random.default_rng(4)
    for _ in range(5):
        pair = kem_keygen(DESK_PARAMS, rng)
        for _ in range(20):
            secret, ct = kem_encaps(pair.public, rng)
            assert kem_decaps(pair.secret, ct).data == secret.data
            assert len(secret.data) == 32


def test_encaps_is_reproducible_from_generator():
    pair = kem_keygen(DESK_PARAMS, np.random.default_rng(5))
    s1, c1 = kem_encaps(pair.public, np.random.default_rng(6))
    s2, c2 = kem_encaps(pair.public, np.random.default_rng(6))
    assert s1.data == s2.data
    np.testing.assert_array_equal(c1.u, c2.u)
    np.testing.assert_array_equal(c1.v, c2.v)


def test_cached_float_operands_are_read_only_copies():
    pair = kem_keygen(DESK_PARAMS, np.random.default_rng(21))
    pk, sk = pair.public, pair.secret
    want = (
        (pk.a_f64, expand_matrix(pk.seed_a, DESK_PARAMS)),
        (pk.b_f64, pk.b_pub),
        (sk.s_f64, sk.s),
    )
    for cached, ints in want:
        assert cached.dtype == np.float64
        assert not cached.flags.writeable
        np.testing.assert_array_equal(cached, ints)
        assert not np.shares_memory(cached, ints)
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
    # One conversion per key: later reads return the same array.
    assert pk.a_f64 is pk.a_f64 and pk.b_f64 is pk.b_f64 and sk.s_f64 is sk.s_f64


def test_keys_rebuilt_from_files_encapsulate_and_decapsulate_alike():
    pair = kem_keygen(DESK_PARAMS, np.random.default_rng(22))
    pk = read_kem_public_key(write_kem_public_key(pair.public))
    sk = read_kem_secret_key(write_kem_secret_key(pair.secret))
    for seed in range(5):
        s1, c1 = kem_encaps(pair.public, np.random.default_rng(seed))
        s2, c2 = kem_encaps(pk, np.random.default_rng(seed))
        assert s1.data == s2.data
        np.testing.assert_array_equal(c1.u, c2.u)
        np.testing.assert_array_equal(c1.v, c2.v)
        assert kem_decaps(sk, c1).data == kem_decaps(pair.secret, c1).data == s1.data


def test_public_keys_sharing_a_matrix_seed_never_share_b():
    pair = kem_keygen(DESK_PARAMS, np.random.default_rng(23))
    pk = pair.public
    other_b = np.random.default_rng(24).integers(0, DESK_PARAMS.q, size=pk.b_pub.shape)
    twin = KemPublicKey(params=DESK_PARAMS, seed_a=pk.seed_a, b_pub=other_b)
    np.testing.assert_array_equal(twin.a_f64, pk.a_f64)
    np.testing.assert_array_equal(twin.b_f64, other_b)
    assert not np.array_equal(twin.b_f64, pk.b_f64)
    assert not np.shares_memory(twin.b_f64, pk.b_f64)
    # Encapsulating against each key sees its own B.
    _, ct = kem_encaps(twin, np.random.default_rng(0))
    _, ref = kem_encaps(pk, np.random.default_rng(0))
    np.testing.assert_array_equal(ct.u, ref.u)
    assert not np.array_equal(ct.v, ref.v)


def test_decoding_noise_margin_is_wide():
    """|v - S^T u| sits hundreds of units away from the q/4 threshold."""
    rng = np.random.default_rng(7)
    pair = kem_keygen(DESK_PARAMS, rng)
    threshold = 3329 / 4
    for _ in range(20):
        _, ct = kem_encaps(pair.public, rng)
        c = (ct.v - pair.secret.s.T @ ct.u) % 3329
        c = np.where(c > 3329 // 2, c - 3329, c)
        assert np.abs(np.abs(c) - threshold).min() > 600


def test_single_coefficient_tamper_flips_exactly_that_bit():
    rng = np.random.default_rng(8)
    pair = kem_keygen(DESK_PARAMS, rng)
    secret, ct = kem_encaps(pair.public, rng)
    for j in (0, 17, 255):
        tampered_v = ct.v.copy()
        tampered_v[j] = (tampered_v[j] + 1665) % 3329
        tampered = KemCiphertext(u=ct.u, v=tampered_v)
        got = kem_decaps(pair.secret, tampered)
        clean_bits = np.unpackbits(
            np.frombuffer(secret.data, dtype=np.uint8), bitorder="little"
        )
        got_bits = np.unpackbits(
            np.frombuffer(got.data, dtype=np.uint8), bitorder="little"
        )
        flipped = np.nonzero(clean_bits != got_bits)[0]
        np.testing.assert_array_equal(flipped, [j])


def test_shared_secret_bytes_are_uniform():
    """Byte histogram over 1000 shared secrets passes chi-square at 0.001."""
    rng = np.random.default_rng(9)
    pair = kem_keygen(DESK_PARAMS, rng)
    counts = np.zeros(256)
    total = 0
    for _ in range(1000):
        secret, _ = kem_encaps(pair.public, rng)
        arr = np.frombuffer(secret.data, dtype=np.uint8)
        counts += np.bincount(arr, minlength=256)
        total += arr.size
    expected = total / 256.0
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert statistic < scipy.stats.chi2.ppf(0.999, 255)


def test_decaps_validates_ciphertext():
    pair = kem_keygen(DESK_PARAMS, np.random.default_rng(10))
    _, ct = kem_encaps(pair.public, np.random.default_rng(11))
    with pytest.raises(ValueError, match="shape"):
        kem_decaps(pair.secret, KemCiphertext(u=ct.u[:100], v=ct.v))
    big_v = ct.v.copy()
    big_v[0] = 3329
    with pytest.raises(ValueError, match="\\[0, q\\)"):
        kem_decaps(pair.secret, KemCiphertext(u=ct.u, v=big_v))
    with pytest.raises(ValueError, match="nonnegative"):
        KemCiphertext(u=ct.u - 5000, v=ct.v)
    with pytest.raises(ValueError, match="1-d"):
        KemCiphertext(u=np.zeros((2, 2), dtype=np.int64), v=ct.v)


def test_small_parameter_set_roundtrip():
    rng = np.random.default_rng(12)
    # eta = 1 noise at q = 17 is too big for reliable transport; use a larger q.
    params = KemParams(q=12289, dim=16, secret_bits=16, eta=1)
    pair = kem_keygen(params, rng)
    for _ in range(20):
        secret, ct = kem_encaps(pair.public, rng)
        assert kem_decaps(pair.secret, ct).data == secret.data


def test_params_validation_and_half_q():
    assert DESK_PARAMS.half_q == 1665
    with pytest.raises(ValueError):
        KemParams(q=1)
    with pytest.raises(ValueError):
        KemParams(dim=0)
    with pytest.raises(ValueError):
        KemParams(secret_bits=12)
    with pytest.raises(ValueError):
        KemParams(eta=0)
    # Products stay exact in float64 only while dim * (q - 1) * eta < 2^53.
    KemParams(q=2**45, dim=256, eta=1)
    for q, dim, eta in ((2**45 + 1, 256, 1), (2**45 + 2, 256, 1), (3329, 2**42, 2)):
        with pytest.raises(ValueError, match="2\\^53"):
            KemParams(q=q, dim=dim, eta=eta)


def test_public_key_validation():
    with pytest.raises(ValueError, match="32 bytes"):
        KemPublicKey(params=SMALL, seed_a=b"\x00", b_pub=np.zeros((8, 8)))
    with pytest.raises(ValueError, match="shape"):
        KemPublicKey(params=SMALL, seed_a=b"\x00" * 32, b_pub=np.zeros((4, 8)))
    with pytest.raises(ValueError, match="\\[0, q\\)"):
        KemPublicKey(params=SMALL, seed_a=b"\x00" * 32, b_pub=np.full((8, 8), 17))
    with pytest.raises(ValueError, match="eta"):
        KemSecretKey(params=SMALL, s=np.full((8, 8), 2))


def test_kem_bundle_delegates():
    kem = LweKem(DESK_PARAMS)
    assert kem.params == DESK_PARAMS
    assert DEFAULT_KEM.params == DESK_PARAMS
    pair = kem.keygen(np.random.default_rng(13))
    secret, ct = kem.encaps(pair.public, np.random.default_rng(14))
    assert kem.decaps(pair.secret, ct).data == secret.data
