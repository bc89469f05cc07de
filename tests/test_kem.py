"""Desk-scale LWE key encapsulation: XOF, matrix expansion, roundtrips."""

import ast
import hashlib
import inspect
import itertools
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ipcrypt import kem
from ipcrypt.formats import (
    read_kem_public_key,
    read_kem_secret_key,
    write_kem_public_key,
    write_kem_secret_key,
)
from ipcrypt.kem import (
    DESK_PARAMS,
    KemCiphertext,
    KemParams,
    KemPublicKey,
    KemSecretKey,
    SharedSecret,
    expand_matrix,
    failure_log2,
    kem_decaps,
    kem_encaps,
    kem_keygen,
)
from ipcrypt.noise import cbd, xof_expand

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


@pytest.mark.parametrize("q", [3329, 1 << 16])
def test_expand_matrix_reduces_every_word_as_the_remainder(monkeypatch, q):
    """Fed every 16-bit word in order, the matrix is each accepted word % q.

    At q = 2^16 every word is accepted and the uint32 divisor matters; at
    3329 the words 0 .. 19 q - 1 are.  The uncached function runs, so the
    patched stream leaves the cache alone.
    """
    params = KemParams(q=q, dim=256, secret_bits=8, eta=1)
    ramp = np.arange(1 << 16, dtype="<u2").tobytes()
    monkeypatch.setattr(kem, "xof_expand", lambda data, n: (ramp * (n // len(ramp) + 1))[:n])
    words = np.frombuffer(ramp * 2, dtype="<u2")
    accepted = words[words < (1 << 16) // q * q][: 256 * 256]
    want = (accepted % np.uint32(q)).astype(np.int64).reshape(256, 256)
    got = expand_matrix.__wrapped__(b"\x09" * 32, params)
    assert got.dtype == np.int64 and not got.flags.writeable
    np.testing.assert_array_equal(got, want)
    assert np.unique(accepted).size == min(q * ((1 << 16) // q), 256 * 256)


def test_expand_matrix_cache_hits_once_per_key_rotation_and_holds_one_matrix():
    """A rotation is keygen, then the public key read back from IPQ1 and used.

    The read-back key expands the seed keygen just expanded, and no other
    call repeats a seed, so the cache hits once per rotation and needs to
    hold only the last matrix.
    """
    rng = np.random.default_rng(24)
    before = expand_matrix.cache_info()
    for _ in range(40):
        pair = kem_keygen(DESK_PARAMS, rng)
        public = read_kem_public_key(write_kem_public_key(pair.public))
        kem_encaps(public, rng)
    after = expand_matrix.cache_info()
    assert after.hits - before.hits == 40
    assert after.misses - before.misses == 40
    assert after.currsize <= 1


def test_expand_matrix_rejects_modulus_above_16_bits(monkeypatch):
    """q > 2^16 would reject every 16-bit word; it fails before any matrix squeeze."""
    top = expand_matrix(b"\x04" * 32, KemParams(q=1 << 16, dim=4, secret_bits=8, eta=1))
    assert top.min() >= 0 and top.max() < 1 << 16

    squeezes = []

    def counted(data, out_len):
        squeezes.append(out_len)
        return xof_expand(data, out_len)

    monkeypatch.setattr(kem, "xof_expand", counted)
    wide = KemParams(q=70000, dim=4, secret_bits=8, eta=1)
    with pytest.raises(ValueError, match="q <= 2\\^16"):
        kem_keygen(wide, np.random.default_rng(0))
    # Only keygen's own squeeze ran: the 32-byte matrix seed and 64 coin pairs.
    assert squeezes == [32 + 16]
    with pytest.raises(ValueError, match="q <= 2\\^16"):
        expand_matrix(b"\x05" * 32, wide)
    assert squeezes == [32 + 16]


# ---------------------------------------------------------------- binomial draws


def test_cbd_bounds_and_shape():
    data = xof_expand(b"cbd bounds", 64)
    x = cbd(data, 35, 2)
    assert x.shape == (35,)
    assert x.dtype == np.int16
    assert np.abs(x).max() <= 2
    y = cbd(data, 10, 3)
    assert y.shape == (10,)
    assert np.abs(y).max() <= 3
    assert cbd(b"", 0, 2).shape == (0,)
    with pytest.raises(ValueError):
        cbd(data, 4, 0)


def test_cbd_histogram_matches_binomial_weights():
    draws = cbd(xof_expand(b"cbd histogram", 50_000), 100_000, 2)
    freq = np.array([(draws == k).sum() for k in range(-2, 3)]) / draws.size
    np.testing.assert_allclose(freq, np.array([1, 4, 6, 4, 1]) / 16.0, atol=0.01)
    assert abs(draws.mean()) < 0.02


CBD_SHAPES = [0, (1,), (5, 7), 256, (2, 3, 5)]


@pytest.mark.parametrize("prior", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", CBD_SHAPES, ids=str)
@pytest.mark.parametrize("eta", [1, 2, 3, 4])
def test_cbd_matches_the_integers_draw_bit_for_bit(sample_poly_cbd, eta, shape, prior):
    """cbd equals the oracle's bit-by-bit integer draw, starting `prior` bytes into a squeeze.

    The KEM slices its coins out of one squeeze after other bytes (keygen's
    coins start after seed_a), so the draw must not depend on where in the
    stream its bytes begin.
    """
    count = int(np.prod(shape))
    need = (2 * eta * count + 7) // 8
    stream = hashlib.shake_256(f"cbd {eta} {shape}".encode()).digest(prior + need)
    got = cbd(stream[prior:], count, eta)
    assert got.dtype == np.int16
    assert got.shape == (count,)
    assert got.tolist() == sample_poly_cbd(stream[prior:], count, eta)


@pytest.mark.parametrize("eta", [1, 2, 3, 4])
def test_cbd_result_is_not_the_cached_table(eta):
    """Writing into one draw's result leaves the next draw of the same bytes unchanged."""
    data = xof_expand(b"cbd fresh", 64)
    first = cbd(data, 17, eta)
    expected = first.copy()
    first[:] = 99
    np.testing.assert_array_equal(cbd(data, 17, eta), expected)


# (count, eta): eta 256 is the ErrorParams cap, and 87 one-bit coin pairs
# fill 174 bits, which is not a whole number of bytes.
ORACLE_CASES = [(40, 256), (87, 1), (87, 3)]


@pytest.mark.parametrize("count,eta", ORACLE_CASES, ids=[f"n{c}-eta{e}" for c, e in ORACLE_CASES])
def test_cbd_matches_the_sample_poly_cbd_oracle(sample_poly_cbd, count, eta):
    """Bit for bit against pure-Python SamplePolyCBD; bytes past the draw are ignored."""
    need = (2 * eta * count + 7) // 8
    data = hashlib.shake_256(f"cbd {count} {eta}".encode()).digest(need + 5)
    got = cbd(data, count, eta)
    assert got.tolist() == sample_poly_cbd(data, count, eta)
    np.testing.assert_array_equal(cbd(data[:need], count, eta), got)
    if eta == 256:
        # All ones then all zeros reach the extremes, exactly.
        assert cbd(b"\xff" * 32 + bytes(32), 1, 256).tolist() == [256]
        assert cbd(bytes(32) + b"\xff" * 32, 1, 256).tolist() == [-256]


@pytest.mark.parametrize(
    "count,eta,error",
    [(2.5, 2, TypeError), (np.float64(2.0), 2, TypeError), (-1, 2, ValueError),
     (4, 0, ValueError)],
)
def test_cbd_rejects_bad_arguments_before_drawing(count, eta, error):
    """Non-integer counts, negative counts and eta < 1 are refused."""
    with pytest.raises(error):
        cbd(bytes(64), count, eta)


def test_cbd_refuses_short_data():
    with pytest.raises(ValueError, match="read 2 bytes, got 1"):
        cbd(bytes(1), 4, 2)
    # 87 one-bit coin pairs fill 174 bits: 22 bytes, the last one partly.
    cbd(bytes(22), 87, 1)
    with pytest.raises(ValueError, match="read 22 bytes, got 21"):
        cbd(bytes(21), 87, 1)


def oracle_keygen(params, d, sample_poly_cbd):
    """kem_keygen spelled out: SHAKE-256(d) = seed_a || coins of S then E."""
    count = params.dim * params.secret_bits
    stream = hashlib.shake_256(d).digest(32 + (4 * params.eta * count + 7) // 8)
    values = np.array(sample_poly_cbd(stream[32:], 2 * count, params.eta), dtype=np.int64)
    s, e = values.reshape(2, params.dim, params.secret_bits)
    seed_a = stream[:32]
    return seed_a, s, (expand_matrix(seed_a, params) @ s + e) % params.q


def oracle_encaps(pk, seed, sample_poly_cbd):
    """kem_encaps spelled out: SHAKE-256(seed) = secret || coins of r, e_u, e_v."""
    params = pk.params
    m, dim = params.secret_bits // 8, params.dim
    total = 2 * dim + params.secret_bits
    stream = hashlib.shake_256(seed).digest(m + (2 * params.eta * total + 7) // 8)
    secret = stream[:m]
    bits = np.array([(secret[j // 8] >> (j % 8)) & 1 for j in range(params.secret_bits)])
    noise = np.array(sample_poly_cbd(stream[m:], total, params.eta), dtype=np.int64)
    r, e_u, e_v = noise[:dim], noise[dim : 2 * dim], noise[2 * dim :]
    u = (r @ expand_matrix(pk.seed_a, params) + e_u) % params.q
    v = (r @ pk.b_pub + e_v + bits * params.half_q) % params.q
    return secret, u, v


# ODD fills 2 * (2 * 5 + 8) = 36 encapsulation coin bits, not a whole
# number of bytes.
ODD = KemParams(q=12289, dim=5, secret_bits=8, eta=1)
ORACLE_PARAMS = {"small": SMALL, "odd": ODD, "eta3": KemParams(dim=16, secret_bits=16, eta=3),
                 "dim16": KemParams(q=3329, dim=16, secret_bits=64, eta=2), "desk": DESK_PARAMS}


def oracle_decaps(s, u, v, q):
    """kem_decaps spelled out: bit j is |centered (v - S^T u) mod q| > q/4."""
    c = (v - u @ s) % q
    centered = np.where(c > q // 2, c - q, c)
    return np.packbits(np.abs(centered) > q / 4, bitorder="little").tobytes()


@pytest.mark.parametrize("name", list(ORACLE_PARAMS))
def test_keygen_and_encaps_match_the_shake_oracle(sample_poly_cbd, seed_rng, name):
    """S, E, r, e_u, e_v and the secret bits are SamplePolyCBD over SHAKE-256 of the seeds.

    Decapsulation equals the centered-threshold formula on the real
    ciphertext and on uniform (u, v), where its bits are not the secret's.
    """
    params = ORACLE_PARAMS[name]
    d, coins = hashlib.sha256(name.encode()).digest(), hashlib.sha256(name.encode() * 2).digest()
    pair = kem_keygen(params, seed_rng(d))
    seed_a, s, b = oracle_keygen(params, d, sample_poly_cbd)
    assert pair.public.seed_a == seed_a
    np.testing.assert_array_equal(pair.secret.s, s)
    np.testing.assert_array_equal(pair.public.b_pub, b)

    shared, ct = kem_encaps(pair.public, seed_rng(coins))
    secret, u, v = oracle_encaps(pair.public, coins, sample_poly_cbd)
    assert shared.data == secret
    np.testing.assert_array_equal(ct.u, u)
    np.testing.assert_array_equal(ct.v, v)

    q = params.q
    assert kem_decaps(pair.secret, ct).data == oracle_decaps(s, u, v, q)
    rng = np.random.default_rng(len(name))
    for _ in range(5):
        u, v = rng.integers(0, q, size=params.dim), rng.integers(0, q, size=params.secret_bits)
        got = kem_decaps(pair.secret, KemCiphertext(params=params, u=u, v=v))
        assert got.data == oracle_decaps(s, u, v, q)


def test_keygen_and_encaps_need_only_rng_bytes(seed_rng):
    """An rng with nothing but bytes(32) serves keygen and encapsulation, one call each."""
    rng = seed_rng(*(hashlib.sha256(bytes([i])).digest() for i in range(7)))
    kem_keygen(SMALL, rng)
    pair = kem_keygen(DESK_PARAMS, rng)
    for _ in range(5):
        secret, ct = kem_encaps(pair.public, rng)
        assert kem_decaps(pair.secret, ct).data == secret.data
    # All seven seeds were taken.
    with pytest.raises(IndexError):
        rng.bytes(32)


# ---------------------------------------------------------------- exact products


@pytest.mark.parametrize("sign", [1, -1])
def test_exact_matmul_matches_int64_at_the_extremes(sign):
    """Every term at its bound (q - 1) * eta: float32 BLAS equals int64 exactly."""
    for q, dim, eta in ((3329, 256, 2), (2**16, 128, 2), (4097, 4095, 1)):
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


def test_exact_matmul_matches_int64_on_random_operands():
    """Random entries of a parameter set just inside the 2^24 bound stay exact."""
    q, dim, eta = 2**16, 128, 2
    KemParams(q=q, dim=dim, secret_bits=8, eta=eta)
    rng = np.random.default_rng(31)
    for _ in range(5):
        a = rng.integers(0, q, size=(7, dim))
        s = rng.integers(-eta, eta + 1, size=(dim, 9))
        np.testing.assert_array_equal(kem._exact_matmul(a, s), a @ s)
        np.testing.assert_array_equal(kem._exact_matmul(a[0], s), a[0] @ s)


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


# ---------------------------------------------------------------- reduction


@pytest.mark.parametrize("q", [2, 3, 17, 3329, 65536])
def test_reduce_equals_the_remainder_over_the_exact_product_range(q):
    """_reduce(x, q) is x % q wherever a KEM result can lie, ends included.

    With dim as large as KemParams allows at eta = 2, a product plus noise
    and half_q, or a difference of two residues and a product, stays within
    dim (q - 1) eta + eta + q of zero.  The check covers both ends, every
    k q - 1, k q, k q + 1 on a grid of k, and random values between.
    """
    eta = 2
    dim = (2**24 - 1) // ((q - 1) * eta)
    KemParams(q=q, dim=dim, secret_bits=8, eta=eta)
    bound = dim * (q - 1) * eta + eta + q
    ks = np.unique(np.linspace(-bound // q, bound // q, 4097).astype(np.int64))
    x = np.concatenate([
        np.arange(-bound, -bound + 1000), np.arange(bound - 1000, bound + 1),
        (ks[:, None] * q + np.arange(-1, 2)).ravel(),
        np.random.default_rng(q).integers(-bound, bound + 1, size=100_000),
    ])
    x = x[np.abs(x) <= bound]
    assert x.dtype == np.int64 and x.min() == -bound and x.max() == bound
    got = x.copy()
    assert kem._reduce(got, q) is got
    np.testing.assert_array_equal(got, x % q)


def test_no_int64_remainder_is_left_in_the_kem():
    """Every KEM reduction goes through _reduce or the word reduction: no `%` on arrays."""
    tree = ast.parse(inspect.getsource(kem))
    mods = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
    ]
    assert sorted(mods) == ["self.secret_bits % 8"]


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
    """The public key holds [A | B] and the secret key S, each as one float32 array."""
    pair = kem_keygen(DESK_PARAMS, np.random.default_rng(21))
    pk, sk = pair.public, pair.secret
    a = expand_matrix(pk.seed_a, DESK_PARAMS)
    want = ((pk.ab_f32, np.hstack((a, pk.b_pub))), (sk.s_f32, sk.s))
    for cached, ints in want:
        assert cached.dtype == np.float32
        assert cached.shape == ints.shape
        assert not cached.flags.writeable
        np.testing.assert_array_equal(cached, ints)
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
    for ints in (a, pk.b_pub, sk.s):
        assert not np.shares_memory(pk.ab_f32, ints) and not np.shares_memory(sk.s_f32, ints)
    # One conversion per key: later reads return the same array.
    assert pk.ab_f32 is pk.ab_f32 and sk.s_f32 is sk.s_f32
    assert not hasattr(pk, "a_f32") and not hasattr(pk, "b_f32")


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
    dim = DESK_PARAMS.dim
    np.testing.assert_array_equal(twin.ab_f32[:, :dim], pk.ab_f32[:, :dim])
    np.testing.assert_array_equal(twin.ab_f32[:, dim:], other_b)
    assert not np.array_equal(twin.ab_f32[:, dim:], pk.ab_f32[:, dim:])
    assert not np.shares_memory(twin.ab_f32, pk.ab_f32)
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


@pytest.mark.parametrize("q", [2, 3, 17, 3329, 4097, 12289, 65536])
def test_threshold_equals_the_centered_formula_for_every_residue(q):
    """The one-interval test gives the centered |c| > q/4 bit at every c in [0, q)."""
    c = np.arange(q, dtype=np.int64)
    centered = np.where(c > q // 2, c - q, c)
    expected = np.abs(centered) > q / 4
    got = kem._threshold(c, q)
    assert got.dtype == np.bool_
    np.testing.assert_array_equal(got, expected)


def test_single_coefficient_tamper_flips_exactly_that_bit():
    rng = np.random.default_rng(8)
    pair = kem_keygen(DESK_PARAMS, rng)
    secret, ct = kem_encaps(pair.public, rng)
    for j in (0, 17, 255):
        tampered_v = ct.v.copy()
        tampered_v[j] = (tampered_v[j] + 1665) % 3329
        tampered = KemCiphertext(params=ct.params, u=ct.u, v=tampered_v)
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
    """The checks decapsulation relies on run when the ciphertext is built."""
    pair = kem_keygen(DESK_PARAMS, np.random.default_rng(10))
    _, ct = kem_encaps(pair.public, np.random.default_rng(11))
    with pytest.raises(ValueError, match="shape"):
        KemCiphertext(params=DESK_PARAMS, u=ct.u[:100], v=ct.v)
    big_v = ct.v.copy()
    big_v[0] = 3329
    with pytest.raises(ValueError, match="\\[0, q\\)"):
        KemCiphertext(params=DESK_PARAMS, u=ct.u, v=big_v)
    with pytest.raises(ValueError, match="\\[0, q\\)"):
        KemCiphertext(params=DESK_PARAMS, u=np.full(256, DESK_PARAMS.q), v=ct.v)
    with pytest.raises(ValueError, match="nonnegative"):
        KemCiphertext(params=DESK_PARAMS, u=ct.u - 5000, v=ct.v)
    with pytest.raises(ValueError, match="1-d"):
        KemCiphertext(params=DESK_PARAMS, u=np.zeros((2, 2), dtype=np.int64), v=ct.v)


def test_decaps_refuses_a_ciphertext_of_another_parameter_set():
    rng = np.random.default_rng(14)
    desk = kem_keygen(DESK_PARAMS, rng)
    _, small_ct = kem_encaps(kem_keygen(SMALL, rng).public, rng)
    assert small_ct.params == SMALL
    with pytest.raises(ValueError, match="ciphertext parameters"):
        kem_decaps(desk.secret, small_ct)


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
    # Products stay exact in float32 only while dim * (q - 1) * eta < 2^24.
    KemParams(q=2**16, dim=128, eta=2)
    KemParams(q=4097, dim=4095, eta=1)
    KemParams(q=3329, dim=2520, eta=2)
    for q, dim, eta in (
        (2**16 + 1, 256, 1), (3329, 2521, 2), (2**16, 257, 1), (3329, 2**42, 2)
    ):
        with pytest.raises(ValueError, match="2\\^24"):
            KemParams(q=q, dim=dim, eta=eta)


@pytest.mark.parametrize("field", ["q", "dim", "secret_bits", "eta"])
def test_params_refuse_a_count_that_is_not_an_integer(field):
    """A float modulus once gave failure_log2 ~ -3.7e-15, a failure probability of 1."""
    value = float(getattr(DESK_PARAMS, field))
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
        replace(DESK_PARAMS, **{field: value})
    params = replace(DESK_PARAMS, **{field: np.int64(getattr(DESK_PARAMS, field))})
    assert type(getattr(params, field)) is int and params == DESK_PARAMS


# Texts generated by the parent implementation, which tested min() and
# max() separately; "both" puts an entry >= q before a negative one.
PUBLIC_KEY_RANGE_TEXT = "public matrix entries must lie in [0, q)"
CIPHERTEXT_RANGE_TEXTS = {
    ("u", "negative"): "ciphertext component u must be nonnegative",
    ("u", "large"): "ciphertext component u entries must lie in [0, q)",
    ("u", "both"): "ciphertext component u must be nonnegative",
    ("v", "negative"): "ciphertext component v must be nonnegative",
    ("v", "large"): "ciphertext component v entries must lie in [0, q)",
    ("v", "both"): "ciphertext component v must be nonnegative",
}
BAD_ENTRIES = {"negative": {3: -1}, "large": {3: 3329}, "both": {0: 3329, 7: -1}}


@pytest.mark.parametrize("case", list(BAD_ENTRIES))
def test_public_key_range_refusal_text(case):
    b = np.zeros((256, 256), dtype=np.int64)
    for i, value in BAD_ENTRIES[case].items():
        b[i, i] = value
    with pytest.raises(ValueError) as exc:
        KemPublicKey(params=DESK_PARAMS, seed_a=bytes(32), b_pub=b)
    assert str(exc.value) == PUBLIC_KEY_RANGE_TEXT


def test_public_key_word_q_is_refused_and_q_minus_1_accepted():
    """The last accepted and the first refused IPQ1 word.

    Both go through the reader's fast path and through the checked constructor.
    """
    q = DESK_PARAMS.q
    zeros = np.zeros((DESK_PARAMS.dim, DESK_PARAMS.secret_bits), dtype=np.int64)
    pk = KemPublicKey(params=DESK_PARAMS, seed_a=bytes(32), b_pub=zeros)
    blob = bytearray(write_kem_public_key(pk))
    first_word = len(blob) - 2 * zeros.size + 2 * 5
    for word in (q - 1, q):
        blob[first_word : first_word + 2] = word.to_bytes(2, "little")
        b = zeros.copy()
        b[0, 5] = word
        if word < q:
            assert read_kem_public_key(bytes(blob)).b_pub[0, 5] == word
            assert KemPublicKey(params=DESK_PARAMS, seed_a=bytes(32), b_pub=b).b_pub[0, 5] == word
            continue
        with pytest.raises(ValueError) as exc:
            read_kem_public_key(bytes(blob))
        assert str(exc.value) == PUBLIC_KEY_RANGE_TEXT
        with pytest.raises(ValueError) as exc:
            KemPublicKey(params=DESK_PARAMS, seed_a=bytes(32), b_pub=b)
        assert str(exc.value) == PUBLIC_KEY_RANGE_TEXT


def test_secret_entry_minus_eta_is_accepted_and_minus_eta_minus_1_refused():
    """Both sides of the lower bound, through the IPQ1 reader and the constructor."""
    eta = DESK_PARAMS.eta
    zeros = np.zeros((DESK_PARAMS.dim, DESK_PARAMS.secret_bits), dtype=np.int64)
    blob = bytearray(write_kem_secret_key(KemSecretKey(params=DESK_PARAMS, s=zeros)))
    for entry in (-eta, -eta - 1):
        blob[-1:] = entry.to_bytes(1, "little", signed=True)
        s = zeros.copy()
        s[-1, -1] = entry
        if entry >= -eta:
            assert read_kem_secret_key(bytes(blob)).s[-1, -1] == entry
            assert KemSecretKey(params=DESK_PARAMS, s=s).s[-1, -1] == entry
            continue
        with pytest.raises(ValueError, match="^secret entries must be bounded by eta$"):
            read_kem_secret_key(bytes(blob))
        with pytest.raises(ValueError, match="^secret entries must be bounded by eta$"):
            KemSecretKey(params=DESK_PARAMS, s=s)


@pytest.mark.parametrize("name,case", list(CIPHERTEXT_RANGE_TEXTS), ids="-".join)
def test_ciphertext_range_refusal_text(name, case):
    parts = {"u": np.zeros(256, dtype=np.int64), "v": np.zeros(256, dtype=np.int64)}
    for i, value in BAD_ENTRIES[case].items():
        parts[name][i] = value
    with pytest.raises(ValueError) as exc:
        KemCiphertext(params=DESK_PARAMS, **parts)
    assert str(exc.value) == CIPHERTEXT_RANGE_TEXTS[name, case]


def test_ciphertext_checks_u_before_v():
    """With both components out of range, u's text wins, whichever kind each is."""
    for u_bad, v_bad, text in ((3329, -1, "u entries must lie"), (-1, 3329, "u must be nonneg")):
        u, v = np.zeros(256, dtype=np.int64), np.zeros(256, dtype=np.int64)
        u[0], v[0] = u_bad, v_bad
        with pytest.raises(ValueError, match=text):
            KemCiphertext(params=DESK_PARAMS, u=u, v=v)


NON_INTEGER_ENTRIES = {
    "float": lambda shape: np.full(shape, 1.9),
    "nan": lambda shape: np.full(shape, np.nan),
    "complex": lambda shape: np.ones(shape, dtype=np.complex128),
    "bool": lambda shape: np.ones(shape, dtype=bool),
}


@pytest.mark.parametrize("kind", list(NON_INTEGER_ENTRIES))
def test_constructors_refuse_non_integer_entries(kind):
    """Casting to int64 would truncate 3.9 to 3 (and NaN with a warning); refuse instead."""
    make = NON_INTEGER_ENTRIES[kind]
    zeros = np.zeros(256, dtype=np.int64)
    cases = (
        (lambda: KemCiphertext(params=DESK_PARAMS, u=make(256), v=zeros),
         "ciphertext component u entries must be integers"),
        (lambda: KemCiphertext(params=DESK_PARAMS, u=zeros, v=make(256)),
         "ciphertext component v entries must be integers"),
        (lambda: KemPublicKey(params=SMALL, seed_a=bytes(32), b_pub=make((8, 8))),
         "public matrix entries must be integers"),
        (lambda: KemSecretKey(params=SMALL, s=make((8, 8))), "secret entries must be integers"),
    )
    for build, text in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                build()
        assert str(exc.value) == text


def test_constructors_accept_every_integer_dtype():
    for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint64):
        ct = KemCiphertext(params=SMALL, u=np.arange(8, dtype=dtype), v=np.ones(8, dtype=dtype))
        assert ct.u.dtype == ct.v.dtype == np.int64
        pk = KemPublicKey(params=SMALL, seed_a=bytes(32), b_pub=np.ones((8, 8), dtype=dtype))
        sk = KemSecretKey(params=SMALL, s=np.ones((8, 8), dtype=dtype))
        assert pk.b_pub.dtype == sk.s.dtype == np.int64


def test_shared_secret_takes_only_byte_buffers():
    """A str was once kept as the secret and printed as SharedSecret()."""
    for value in ("abc", [1, 2, 3], np.ones(4)):
        with pytest.raises(TypeError, match="^shared secret must be bytes, got "):
            SharedSecret(value)
    with pytest.raises(ValueError, match="^shared secret must not be empty$"):
        SharedSecret(bytearray())
    buffer = bytearray(b"abc")
    shared = SharedSecret(buffer)
    buffer[0] = 0
    assert type(shared.data) is bytes and shared.data == b"abc"
    assert SharedSecret(memoryview(b"xyz")).data == b"xyz"


def test_shape_is_checked_before_the_entries_are_integers():
    with pytest.raises(ValueError, match="1-d"):
        KemCiphertext(params=SMALL, u=np.full((2, 4), 0.5), v=np.zeros(8, dtype=np.int64))
    with pytest.raises(ValueError, match="shape"):
        KemCiphertext(params=SMALL, u=np.full(7, 0.5), v=np.zeros(8, dtype=np.int64))
    with pytest.raises(ValueError, match="shape"):
        KemSecretKey(params=SMALL, s=np.full((4, 8), 0.5))


def test_public_key_validation():
    with pytest.raises(ValueError, match="32 bytes"):
        KemPublicKey(params=SMALL, seed_a=b"\x00", b_pub=np.zeros((8, 8)))
    with pytest.raises(ValueError, match="shape"):
        KemPublicKey(params=SMALL, seed_a=b"\x00" * 32, b_pub=np.zeros((4, 8)))
    with pytest.raises(ValueError, match="\\[0, q\\)"):
        KemPublicKey(params=SMALL, seed_a=b"\x00" * 32, b_pub=np.full((8, 8), 17))
    with pytest.raises(ValueError, match="eta"):
        KemSecretKey(params=SMALL, s=np.full((8, 8), 2))


def test_public_key_keeps_its_own_bytes_of_the_matrix_seed():
    b = np.zeros((8, 8), dtype=np.int64)
    with pytest.raises(TypeError, match="^matrix seed must be bytes, got str$"):
        KemPublicKey(params=SMALL, seed_a="s" * 32, b_pub=b)
    buffer = bytearray(range(32))
    pk = KemPublicKey(params=SMALL, seed_a=buffer, b_pub=b)
    buffer[0] ^= 0xFF
    assert type(pk.seed_a) is bytes and pk.seed_a == bytes(range(32))


# ---------------------------------------------------------------- exact failure probability


def test_failure_log2_at_the_desk_set():
    assert failure_log2() == failure_log2(DESK_PARAMS)
    assert abs(failure_log2(DESK_PARAMS) + 735.1485) < 1e-3
    # A numpy integer modulus is read as the int it holds.
    assert failure_log2(replace(DESK_PARAMS, q=np.int64(3329))) == failure_log2(DESK_PARAMS)
    # |noise| <= 3 never reaches q/4, so no mass fails at all.
    assert failure_log2(KemParams(q=3329, dim=1, secret_bits=8, eta=1)) == -math.inf


@pytest.mark.parametrize("q", [7, 12, 13])
def test_failure_log2_matches_an_exact_enumeration(q):
    """Every draw of r, E, e_u, S and e_v for one bit at dim = 2, eta = 1.

    A cbd(1) value x comes from comb(2, 1 + x) of its 4 coin pairs, so the
    nine draws weigh all 4^9 coin combinations exactly; a bit decodes as 1
    where the residue lies farther than q/4 from 0.
    """
    params = KemParams(q=q, dim=2, secret_bits=8, eta=1)
    wrong = [0, 0]
    for r0, r1, e0, e1, u0, u1, s0, s1, ev in itertools.product((-1, 0, 1), repeat=9):
        coins = math.prod(math.comb(2, 1 + x) for x in (r0, r1, e0, e1, u0, u1, s0, s1, ev))
        noise = r0 * e0 + r1 * e1 - u0 * s0 - u1 * s1 + ev
        for bit in (0, 1):
            c = (noise + bit * params.half_q) % q
            wrong[bit] += coins * ((4 * min(c, q - c) > q) != bit)
    exact = Fraction(max(wrong), 4**9)
    assert abs(Fraction(2 ** failure_log2(params)) - exact) <= exact * Fraction(1, 10**12)


def test_toy_set_failure_rate_lies_in_the_computed_band():
    """At q = 97 about one bit in 29 decodes wrong, bit 1 (the worse value) included.

    Bits under one key are correlated, so the key changes every 4 encapsulations.
    """
    toy = KemParams(q=97, dim=64, secret_bits=64, eta=2)
    p = 2 ** failure_log2(toy)
    rng = np.random.default_rng(0)
    ones = wrong = 0
    for _ in range(500):
        pair = kem_keygen(toy, rng)
        for _ in range(4):
            secret, ct = kem_encaps(pair.public, rng)
            sent, got = (
                np.unpackbits(np.frombuffer(s.data, dtype=np.uint8))
                for s in (secret, kem_decaps(pair.secret, ct))
            )
            ones += int(sent.sum())
            wrong += int(np.count_nonzero(got[sent == 1] == 0))
    assert abs(wrong - ones * p) <= 4 * math.sqrt(ones * p * (1 - p))
