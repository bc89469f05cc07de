"""Discrete error distributions, entropy accounting, keyed derivation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipcrypt.encoding import EncodingScheme, Message
from ipcrypt.kem import xof_expand
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
    sample_error,
)
from ipcrypt.symmetric import sym_decrypt, sym_encrypt


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


# ---------------------------------------------------------------- sampling


def test_sample_error_values_live_on_scaled_support():
    params = cb_params(scale=0.25)
    e = sample_error(params, np.random.default_rng(0))
    assert e.n == 256
    lattice = e.values / 0.25
    np.testing.assert_array_equal(lattice, np.round(lattice))
    assert np.abs(lattice).max() <= 2


def test_sample_error_gaussian_respects_truncation():
    params = dg_params(scale=1.0, sigma=1.0)
    e = sample_error(params, np.random.default_rng(1))
    np.testing.assert_array_equal(e.values, np.round(e.values))
    assert np.abs(e.values).max() <= 6


def test_sample_error_moments():
    """1e5 draws: mean near 0, variance near eta/2 * scale^2 (within 5%)."""
    params = cb_params(n=1000, scale=1.0)
    rng = np.random.default_rng(42)
    draws = np.concatenate([sample_error(params, rng).values for _ in range(100)])
    assert abs(draws.mean()) < 0.02
    assert draws.var() == pytest.approx(1.0, rel=0.05)


def test_sample_error_gaussian_moments():
    params = dg_params(n=1000, scale=1.0, sigma=1.5)
    rng = np.random.default_rng(43)
    draws = np.concatenate([sample_error(params, rng).values for _ in range(100)])
    assert abs(draws.mean()) < 0.03
    assert draws.var() == pytest.approx(1.5**2, rel=0.05)


@given(st.sampled_from([0.125, 0.5, 1.0, 3.0]), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_scale_factors_out_of_sampling(scale, seed):
    """Same generator stream: scaled params give exactly scaled values."""
    base = sample_error(cb_params(scale=1.0), np.random.default_rng(seed))
    scaled = sample_error(cb_params(scale=scale), np.random.default_rng(seed))
    np.testing.assert_array_equal(scaled.values, scale * base.values)


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


# ---------------------------------------------------------------- derivation


def test_derive_error_is_deterministic_per_nonce():
    key = keygen(cb_params(), np.random.default_rng(7))
    nonce = bytes(range(16))
    e1 = derive_error(key, nonce)
    e2 = derive_error(key, nonce)
    np.testing.assert_array_equal(e1.values, e2.values)


def test_derive_error_distinct_nonces_differ():
    """100 fresh nonce pairs never collide in the derived error."""
    key = keygen(cb_params(), np.random.default_rng(8))
    rng = np.random.default_rng(9)
    for _ in range(100):
        n1, n2 = rng.bytes(16), rng.bytes(16)
        assert n1 != n2
        e1, e2 = derive_error(key, n1), derive_error(key, n2)
        assert (e1.values != e2.values).any()


def test_derive_error_depends_on_key_seed():
    params = cb_params()
    nonce = b"\x00" * 16
    e1 = derive_error(ErrorKey(seed=b"\x01" * 32, params=params), nonce)
    e2 = derive_error(ErrorKey(seed=b"\x02" * 32, params=params), nonce)
    assert (e1.values != e2.values).any()


def test_derive_error_matches_declared_distribution():
    key = ErrorKey(seed=b"\x05" * 32, params=cb_params(scale=0.5))
    e = derive_error(key, b"\xaa" * 16)
    lattice = e.values / 0.5
    np.testing.assert_array_equal(lattice, np.round(lattice))
    assert np.abs(lattice).max() <= 2


def test_derive_error_rejects_bad_nonce():
    key = keygen(cb_params(), np.random.default_rng(1))
    assert NONCE_BYTES == 16
    with pytest.raises(ValueError, match="16 bytes"):
        derive_error(key, b"\x00" * 8)


# ---------------------------------------------------------------- raw-word sampler


def _generator_method_draw(key: ErrorKey, nonce: bytes, integers_cbd) -> np.ndarray:
    """The derivation as it was built on Generator methods, written out here.

    The XOF seeds default_rng; the binomial comes from two
    Generator.integers calls (the integers_cbd oracle) and the Gaussian
    from Generator.choice over the 6-sigma-truncated support with weights
    exp(-k^2 / 2 sigma^2).
    """
    params = key.params
    rng = np.random.default_rng(int.from_bytes(xof_expand(key.seed + nonce, 32), "little"))
    if params.distribution == CENTERED_BINOMIAL:
        values = integers_cbd(rng, params.n, params.eta)
    else:
        cut = int(math.floor(6.0 * params.sigma))
        support = np.arange(-cut, cut + 1)
        probs = np.exp(-0.5 * (support / params.sigma) ** 2)
        values = rng.choice(support, size=params.n, p=probs / probs.sum())
    return params.scale * values.astype(np.float64)


SAMPLER_SHAPES = [("eta", 1), ("eta", 2), ("eta", 3), ("eta", 256), ("sigma", 0.8), ("sigma", 3.0)]


@pytest.mark.parametrize("kind,value", SAMPLER_SHAPES, ids=[f"{k}{v}" for k, v in SAMPLER_SHAPES])
@pytest.mark.parametrize("n", [255, 256])
def test_derive_error_matches_the_generator_method_draw(n, kind, value, integers_cbd):
    """Raw PCG64 words give, bit for bit, what Generator.integers / choice gave.

    Odd and even n; every size here clears the 128-bit entropy floor.
    """
    if kind == "eta":
        params = cb_params(n=n, scale=0.37, eta=value)
    else:
        params = dg_params(n=n, scale=0.37, sigma=value)
    key = ErrorKey(seed=bytes(range(32, 64)), params=params)
    nonces = np.random.default_rng(n * 1000 + int(value * 10))
    for _ in range(50):
        nonce = nonces.bytes(16)
        got = derive_error(key, nonce).values
        np.testing.assert_array_equal(got, _generator_method_draw(key, nonce, integers_cbd))


class _NoMethodGenerator(np.random.Generator):
    """A Generator whose drawing methods all raise."""

    def integers(self, *args, **kwargs):
        raise AssertionError("Generator.integers called")

    def choice(self, *args, **kwargs):
        raise AssertionError("Generator.choice called")

    def random(self, *args, **kwargs):
        raise AssertionError("Generator.random called")


def test_derivation_calls_no_generator_method(monkeypatch):
    """derive_error and sym_decrypt draw from raw words alone.

    The methods of an extension type cannot be replaced in place, so every
    generator derive_error builds is a subclass whose methods raise.
    """
    scheme = EncodingScheme.map2(32, 256)
    msg = Message.from_int(0x5EED, 32)
    nonce = bytes(range(16))
    keys = [
        ErrorKey(seed=b"\x11" * 32, params=cb_params()),
        ErrorKey(seed=b"\x22" * 32, params=dg_params(scale=0.25, sigma=1.5)),
    ]
    expected = [derive_error(key, nonce).values for key in keys]
    cts = [sym_encrypt(key, msg, scheme, nonce) for key in keys]
    built = []

    def no_method_rng(seed):
        built.append(seed)
        return _NoMethodGenerator(np.random.PCG64(seed))

    monkeypatch.setattr(np.random, "default_rng", no_method_rng)
    with pytest.raises(AssertionError, match="integers"):
        np.random.default_rng(0).integers(0, 2)
    for key, want, ct in zip(keys, expected, cts):
        np.testing.assert_array_equal(derive_error(key, nonce).values, want)
        assert sym_decrypt(key, ct) == msg
    assert len(built) == 1 + 2 * len(keys)


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox]
)
def test_sample_error_rejects_other_bit_generators(bit_generator):
    rng = np.random.Generator(bit_generator(0))
    for params in (cb_params(), dg_params()):
        with pytest.raises(ValueError, match="PCG64"):
            sample_error(params, rng)


def test_point_table_is_cached_and_read_only():
    support, probs = point_distribution(dg_params(sigma=2.0))
    again = point_distribution(dg_params(n=999, scale=3.0, sigma=2.0))
    assert support is again[0] and probs is again[1]
    for arr in (support, probs):
        with pytest.raises(ValueError):
            arr[0] = 0
