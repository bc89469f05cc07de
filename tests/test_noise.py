"""Discrete error distributions, entropy accounting, keyed derivation."""

import ast
import hashlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipcrypt import kem, noise
from ipcrypt.noise import (
    CENTERED_BINOMIAL,
    DISCRETE_GAUSSIAN,
    ENTROPY_FLOOR_BITS,
    NONCE_BYTES,
    ErrorKey,
    ErrorParams,
    derive_error,
    entropy_bits,
    keygen,
    point_distribution,
)


def cb_params(n=256, scale=0.5, eta=2):
    return ErrorParams(n=n, scale=scale, distribution=CENTERED_BINOMIAL, eta=eta)


def dg_params(n=256, scale=0.5, sigma=1.0):
    return ErrorParams(n=n, scale=scale, distribution=DISCRETE_GAUSSIAN, sigma=sigma)


# ---------------------------------------------------------------- distributions


def test_binomial_eta2_point_distribution_exact():
    support, probs = point_distribution(cb_params())
    np.testing.assert_array_equal(support, [-2, -1, 0, 1, 2])
    np.testing.assert_allclose(probs, np.array([1, 4, 6, 4, 1]) / 16.0, atol=1e-15)


def test_gaussian_support_truncates_at_six_sigma():
    support, probs = point_distribution(dg_params(sigma=1.0))
    np.testing.assert_array_equal(support[[0, -1]], [-6, 6])
    support, _ = point_distribution(dg_params(sigma=2.5))
    np.testing.assert_array_equal(support[[0, -1]], [-15, 15])
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # Symmetric and unimodal around zero.
    np.testing.assert_allclose(probs, probs[::-1], atol=1e-15)


def test_entropy_bits_binomial_eta2_frozen_value():
    # H = 1.5 + (3/8) log2(8/3), computed by hand.
    assert entropy_bits(cb_params()) == pytest.approx(2.0306390622, abs=1e-9)


def test_entropy_floor_enforced_at_construction():
    cb_params(n=64)  # 64 * 2.0306 bits clears the floor
    with pytest.raises(ValueError, match="128-bit floor"):
        cb_params(n=32)
    assert ENTROPY_FLOOR_BITS == 128.0


def test_error_params_validation():
    with pytest.raises(ValueError, match="grid size"):
        cb_params(n=0)
    with pytest.raises(ValueError, match="scale"):
        cb_params(scale=0.0)
    with pytest.raises(ValueError, match="scale"):
        cb_params(scale=float("inf"))
    with pytest.raises(ValueError, match="eta"):
        cb_params(eta=0)
    with pytest.raises(ValueError, match="sigma"):
        dg_params(sigma=-1.0)
    with pytest.raises(ValueError, match="distribution"):
        ErrorParams(n=256, scale=0.5, distribution="uniform")
    # The support is tabulated in full, so it is capped at |k| <= 256
    # before any entropy is computed.
    assert point_distribution(cb_params(eta=256))[0][-1] == 256
    assert point_distribution(dg_params(sigma=42.83))[0][-1] == 256
    for eta in (257, 600, 2**32 - 1):
        with pytest.raises(ValueError, match="eta"):
            cb_params(eta=eta)
    for sigma in (257 / 6, 1e9, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="sigma"):
            dg_params(sigma=sigma)


def test_error_params_refuse_a_scale_whose_errors_overflow():
    """Every error sample, and so every body sym_encrypt wraps unchecked, is finite."""
    for build, text in (
        (lambda: cb_params(scale=1e308), "scale 1e+308 times the largest draw 2 is not finite"),
        (lambda: dg_params(scale=1e307, sigma=4.0), "scale 1e+307 times the largest draw 24 is not finite"),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == text
    largest = float(np.finfo(np.float64).max) / 2
    key = ErrorKey(seed=bytes(32), params=cb_params(scale=largest))
    assert np.isfinite(derive_error(key, bytes(16))).all()


# ---------------------------------------------------------------- sampling


def _draws(params, count, label=b"draws"):
    """derive_error over count nonces, one key: count * n point draws, scaled."""
    key = ErrorKey(seed=hashlib.sha256(label).digest(), params=params)
    return np.concatenate([derive_error(key, i.to_bytes(16, "little")) for i in range(count)])


def test_sample_error_values_live_on_scaled_support():
    e = _draws(cb_params(scale=0.25), 1)
    assert e.size == 256
    lattice = e / 0.25
    np.testing.assert_array_equal(lattice, np.round(lattice))
    assert np.abs(lattice).max() <= 2


def test_sample_error_gaussian_respects_truncation():
    e = _draws(dg_params(scale=1.0, sigma=1.0), 4)
    np.testing.assert_array_equal(e, np.round(e))
    assert np.abs(e).max() <= 6


def test_sample_error_moments():
    """1e5 draws: mean near 0, variance near eta/2 * scale^2 (within 5%)."""
    draws = _draws(cb_params(n=1000, scale=1.0), 100)
    assert abs(draws.mean()) < 0.02
    assert draws.var() == pytest.approx(1.0, rel=0.05)


def test_sample_error_gaussian_moments():
    draws = _draws(dg_params(n=1000, scale=1.0, sigma=1.5), 100)
    assert abs(draws.mean()) < 0.03
    assert draws.var() == pytest.approx(1.5**2, rel=0.05)


@given(st.sampled_from([0.125, 0.5, 1.0, 3.0]), st.binary(min_size=32, max_size=32))
@settings(max_examples=25, deadline=None)
def test_scale_factors_out_of_sampling(scale, seed):
    """Same seed and nonce: scaled params give exactly scaled values."""
    nonce = bytes(16)
    base = derive_error(ErrorKey(seed=seed, params=cb_params(scale=1.0)), nonce)
    scaled = derive_error(ErrorKey(seed=seed, params=cb_params(scale=scale)), nonce)
    np.testing.assert_array_equal(scaled, scale * base)


# ---------------------------------------------------------------- keys


def test_keygen_pulls_seed_from_generator():
    params = cb_params()
    k1 = keygen(params, np.random.default_rng(5))
    k2 = keygen(params, np.random.default_rng(5))
    assert k1.seed == k2.seed
    assert len(k1.seed) == 32
    assert k1.params == params


def test_key_seed_is_not_in_repr():
    key = keygen(cb_params(), np.random.default_rng(5))
    assert key.seed.hex() not in repr(key)


def test_key_validates_seed_length():
    with pytest.raises(ValueError, match="32 bytes"):
        ErrorKey(seed=b"\x00" * 16, params=cb_params())


@pytest.mark.parametrize(
    "seed",
    ["k" * 32, [0] * 32, None, 32, np.zeros(4), np.zeros(16, np.uint16), np.zeros((4, 8), np.uint8)],
)
def test_key_refuses_a_seed_that_is_not_bytes(seed):
    """Only a flat buffer of single bytes is a seed: 4 float64s are 32 bytes but not 32 items."""
    with pytest.raises(TypeError, match=f"^key seed must be bytes, got {type(seed).__name__}$"):
        ErrorKey(seed=seed, params=cb_params())


def test_key_keeps_its_own_bytes_of_a_mutable_seed():
    """A frozen key's errors do not change with the buffer it was given."""
    buffer = bytearray(range(32))
    key = ErrorKey(seed=buffer, params=cb_params())
    assert type(key.seed) is bytes and key.seed == bytes(range(32))
    before = derive_error(key, bytes(NONCE_BYTES))
    buffer[0] ^= 0xFF
    assert np.array_equal(derive_error(key, bytes(NONCE_BYTES)), before)
    assert ErrorKey(seed=memoryview(bytes(range(32))), params=cb_params()) == key


# ---------------------------------------------------------------- derivation


def test_derive_error_is_deterministic_per_nonce():
    key = keygen(cb_params(), np.random.default_rng(7))
    nonce = bytes(range(16))
    e1 = derive_error(key, nonce)
    e2 = derive_error(key, nonce)
    np.testing.assert_array_equal(e1, e2)


def test_derive_error_distinct_nonces_differ():
    """100 fresh nonce pairs never collide in the derived error."""
    key = keygen(cb_params(), np.random.default_rng(8))
    rng = np.random.default_rng(9)
    for _ in range(100):
        n1, n2 = rng.bytes(16), rng.bytes(16)
        assert n1 != n2
        e1, e2 = derive_error(key, n1), derive_error(key, n2)
        assert (e1 != e2).any()


def test_derive_error_depends_on_key_seed():
    params = cb_params()
    nonce = b"\x00" * 16
    e1 = derive_error(ErrorKey(seed=b"\x01" * 32, params=params), nonce)
    e2 = derive_error(ErrorKey(seed=b"\x02" * 32, params=params), nonce)
    assert (e1 != e2).any()


def test_derive_error_matches_declared_distribution():
    key = ErrorKey(seed=b"\x05" * 32, params=cb_params(scale=0.5))
    e = derive_error(key, b"\xaa" * 16)
    lattice = e / 0.5
    np.testing.assert_array_equal(lattice, np.round(lattice))
    assert np.abs(lattice).max() <= 2


def test_derive_error_rejects_bad_nonce():
    key = keygen(cb_params(), np.random.default_rng(1))
    assert NONCE_BYTES == 16
    with pytest.raises(ValueError, match="^nonce must be 16 bytes, got 8$"):
        derive_error(key, b"\x00" * 8)
    with pytest.raises(TypeError, match="^nonce must be bytes, got str$"):
        derive_error(key, "n" * 16)
    nonce = bytes(range(16))
    assert np.array_equal(derive_error(key, bytearray(nonce)), derive_error(key, nonce))


@pytest.mark.parametrize("field", ["n", "eta"])
def test_params_refuse_a_count_that_is_not_an_integer(field):
    what = {"n": "grid size", "eta": "eta"}[field]
    with pytest.raises(TypeError, match=f"^{what} must be an integer, got 2.0$"):
        ErrorParams(**{"n": 256, "scale": 0.5, field: 2.0})
    params = ErrorParams(n=np.int64(256), scale=0.5, eta=np.int64(2))
    assert type(params.n) is int and type(params.eta) is int
    assert params == cb_params()


@pytest.mark.parametrize("scale", [1, True, np.int64(1), np.float32(0.5)])
@pytest.mark.parametrize("eta", [2, 3])
def test_derive_error_is_float64_for_every_scale(eta, scale):
    """A scale of 1 once gave int16 errors through the typed table; the key keeps a float."""
    key = ErrorKey(seed=bytes(range(32)), params=cb_params(scale=scale, eta=eta))
    assert type(key.params.scale) is float
    got = derive_error(key, bytes(range(16)))
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, float(scale) * noise.cbd(
        noise.xof_expand(bytes(range(32)) + bytes(range(16)), (2 * eta * 256 + 7) // 8), 256, eta))


# SHA-256 of the error bytes of a scale = 0.5 key, seed 0..31 and nonce 0..15, per eta.
HALF_SCALE_ERROR_SHA256 = {
    2: "a27bba8e7e354cc967fb1d0e9cfe833b7b2a69c9a207549b3fe41a77b25296eb",
    3: "f1955e6c2079941d83f6c1852b8797ba99d94ba82e2a5bc2ec8bce93a2e57625",
}


@pytest.mark.parametrize("eta", sorted(HALF_SCALE_ERROR_SHA256))
def test_half_scale_error_bytes_are_pinned(eta):
    key = ErrorKey(seed=bytes(range(32)), params=cb_params(scale=0.5, eta=eta))
    got = derive_error(key, bytes(range(16)))
    assert hashlib.sha256(got.tobytes()).hexdigest() == HALF_SCALE_ERROR_SHA256[eta]


# ---------------------------------------------------------------- SHAKE-256 sampler


def _oracle_draw(key: ErrorKey, nonce: bytes, sample_poly_cbd) -> np.ndarray:
    """derive_error spelled out over hashlib.shake_256(seed || nonce).

    Binomial: SamplePolyCBD over the first ceil(2 eta n / 8) bytes.
    Gaussian: per little-endian 64-bit word w, the first support point
    whose cdf entry exceeds (w >> 11) / 2^53, found by a linear scan.
    """
    params = key.params
    xof = hashlib.shake_256(key.seed + nonce)
    if params.distribution == CENTERED_BINOMIAL:
        need = (2 * params.eta * params.n + 7) // 8
        values = sample_poly_cbd(xof.digest(need), params.n, params.eta)
    else:
        support, _, cdf, _ = noise._point_table(params.distribution, params.eta, params.sigma)
        stream = xof.digest(8 * params.n)
        values = []
        for i in range(params.n):
            u = (int.from_bytes(stream[8 * i : 8 * i + 8], "little") >> 11) / 2.0**53
            values.append(int(support[next(j for j, c in enumerate(cdf) if c > u)]))
    return params.scale * np.array(values, dtype=np.float64)


SAMPLER_SHAPES = [("eta", 1), ("eta", 2), ("eta", 3), ("eta", 256), ("sigma", 0.8), ("sigma", 3.0)]


@pytest.mark.parametrize("kind,value", SAMPLER_SHAPES, ids=[f"{k}{v}" for k, v in SAMPLER_SHAPES])
@pytest.mark.parametrize("n", [255, 256])
def test_derive_error_matches_the_shake_oracle(n, kind, value, sample_poly_cbd):
    """Odd and even n; every size here clears the 128-bit entropy floor."""
    if kind == "eta":
        params = cb_params(n=n, scale=0.37, eta=value)
    else:
        params = dg_params(n=n, scale=0.37, sigma=value)
    key = ErrorKey(seed=bytes(range(32, 64)), params=params)
    for i in range(5):
        nonce = hashlib.sha256(bytes([n % 256, i])).digest()[:16]
        got = derive_error(key, nonce)
        np.testing.assert_array_equal(got, _oracle_draw(key, nonce, sample_poly_cbd))


def _unchecked_params(n: int, scale: float, eta: int) -> ErrorParams:
    """Binomial ErrorParams built without its checks, so n may sit below the entropy floor.

    The short grids reach the sampler's partial last coin byte, which no
    key that clears the floor at n = 1, 2, 3 or 7 could.
    """
    params = object.__new__(ErrorParams)
    fields = dict(n=n, scale=scale, distribution=CENTERED_BINOMIAL, eta=eta, sigma=1.0)
    for name, value in fields.items():
        object.__setattr__(params, name, value)
    return params


@pytest.mark.parametrize("n", [1, 2, 3, 7, 256, 2048])
@pytest.mark.parametrize("eta", [1, 2, 3, 4, 5])
def test_derive_error_is_the_scaled_cbd_draw_exactly(eta, n):
    """derive_error equals scale * cbd(SHAKE-256(seed || nonce)) value for value and in dtype."""
    seed = bytes(range(64, 96))
    for scale in (0.5, 0.37, 3.25):
        key = ErrorKey(seed=seed, params=_unchecked_params(n, scale, eta))
        for i in range(3):
            nonce = bytes([eta, n % 256, i]) * 5 + b"\x00"
            coins = noise.xof_expand(seed + nonce, (2 * eta * n + 7) // 8)
            expected = scale * noise.cbd(coins, n, eta)
            got = derive_error(key, nonce)
            assert got.dtype == expected.dtype and got.shape == (n,)
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("eta", [1, 2, 4])
def test_scaled_table_is_read_only_and_results_are_fresh(eta):
    """The cached table refuses writes; writing into one error leaves the next unchanged."""
    table = noise._scaled_cbd_table(eta, 0.5)
    assert noise._scaled_cbd_table(eta, 0.5) is table
    assert table.shape == (256, 4 // eta) and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
    key = ErrorKey(seed=bytes(32), params=cb_params(n=257, eta=eta))
    first = derive_error(key, bytes(16))
    expected = first.copy()
    first[:] = 99.0
    assert not np.shares_memory(first, table)
    np.testing.assert_array_equal(derive_error(key, bytes(16)), expected)


def test_noise_module_does_not_use_numpy_random():
    """Errors and KEM coins are functions of SHAKE-256 and their seeds alone.

    Neither noise.py nor kem.py reaches np.random outside a type annotation
    or imports a random module.
    """
    for module in (noise, kem):
        tree = ast.parse(inspect.getsource(module))
        in_annotation = {
            id(sub)
            for node in ast.walk(tree)
            for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
            if ann is not None
            for sub in ast.walk(ann)
        }
        uses = [
            ast.unparse(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "random"
            and id(node) not in in_annotation
        ]
        imports = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if "random" in alias.name or "random" in (getattr(node, "module", None) or "")
        ]
        assert uses == [] and imports == [], (module.__name__, uses, imports)


def test_entropy_is_read_from_the_sampled_table():
    """The probabilities are the steps of the cdf derive_error looks up, and the entropy theirs."""
    for params in (cb_params(eta=3), dg_params(sigma=1.7)):
        _, probs, cdf, entropy = noise._point_table(params.distribution, params.eta, params.sigma)
        np.testing.assert_array_equal(probs, np.diff(cdf, prepend=0.0))
        assert entropy == entropy_bits(params) == float(-np.sum(probs * np.log2(probs)))


def test_point_table_is_cached_and_read_only():
    support, probs = point_distribution(dg_params(sigma=2.0))
    again = point_distribution(dg_params(n=999, scale=3.0, sigma=2.0))
    assert support is again[0] and probs is again[1]
    for arr in (support, probs):
        with pytest.raises(ValueError):
            arr[0] = 0
