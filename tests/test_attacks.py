"""Attacks: naive inversion, regularized variants, structural leaks."""

import re

import numpy as np
import pytest

from ipcrypt import hso
from ipcrypt.attacks import (
    AttackReport,
    KnownPlaintextReport,
    Naive,
    Tikhonov,
    Tsvd,
    attack,
    attack_naive,
    attack_regularized,
    bit_accuracy,
    decode_difference,
    error_reuse_diff,
    known_plaintext_experiment,
    tikhonov_apply,
)
from ipcrypt.encoding import EncodingScheme, Message, encode
from ipcrypt.grid import GridFunction, norm
from ipcrypt.hso import apply_operator, build_hso, filtered_inverse, hso_svd, naive_inverse_apply
from ipcrypt.symmetric import SymCiphertext, recommended_error_params, sym_encrypt, sym_keygen

SCHEME = EncodingScheme.map2(8, 256)


def fresh_key(rng, scale=0.5):
    return sym_keygen(recommended_error_params(scale=scale), rng)


# ---------------------------------------------------------------- helpers


def test_bit_accuracy():
    a = Message((1, 1, 0, 0))
    assert bit_accuracy(a, a) == 1.0
    assert bit_accuracy(a, Message((0, 0, 1, 1))) == 0.0
    assert bit_accuracy(a, Message((1, 0, 0, 1))) == 0.5
    with pytest.raises(ValueError, match="lengths"):
        bit_accuracy(a, Message((1,)))


@pytest.mark.parametrize("t", [1, 7, 32, 256])
def test_bit_accuracy_equals_the_per_bit_formula(t):
    rng = np.random.default_rng(t)
    for _ in range(20):
        a, b = Message.random(t, rng), Message.random(t, rng)
        assert bit_accuracy(a, b) == sum(int(x == y) for x, y in zip(a.bits, b.bits)) / t
    with pytest.raises(ValueError, match=f"^message lengths differ: {t} vs {t + 1}$"):
        bit_accuracy(Message.random(t, rng), Message.random(t + 1, rng))


def test_method_validation():
    for alpha in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            Tikhonov(alpha=alpha)
    with pytest.raises(ValueError, match="cutoff"):
        Tsvd(k=0)
    with pytest.raises(ValueError, match="^cutoff must be positive, got 0.5$"):
        Tsvd(k=0.5)
    with pytest.raises(TypeError, match="^cutoff must be an integer, got 8.0$"):
        Tsvd(k=8.0)
    assert Tsvd(k=np.int64(8)) == Tsvd(k=8)
    with pytest.raises(TypeError, match="^alpha must be a real number, got '1e-4'$"):
        Tikhonov(alpha="1e-4")
    # Not a number: refused by name before the sign check compares it with 1.
    for k in ("8", None, 8 + 0j):
        text = f"cutoff must be a real number, got {k!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(text)}$"):
            Tsvd(k=k)


# ---------------------------------------------------------------- tikhonov filter


@pytest.mark.parametrize(
    "method",
    [None, Tsvd(k=1), Tsvd(k=8), Tsvd(k=16), Tikhonov(alpha=0.01)],
    ids=["naive", "tsvd1", "tsvd8", "tsvd16", "tikhonov"],
)
def test_tikhonov_matches_filter_formula(method):
    """Every inversion equals the explicit filtered sum over its leading modes."""
    n = 16
    factors = hso_svd(n)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    s, u = factors.singular_values, factors.left_vectors
    if method is None:
        got, phi = naive_inverse_apply(v), 1.0 / s
    elif isinstance(method, Tsvd):
        got, phi = filtered_inverse(v, method.filter(s)), 1.0 / s[: method.k]
    else:
        got, phi = tikhonov_apply(factors, v, method.alpha), s / (s * s + method.alpha)
    k = phi.size
    expected = u[:, :k] @ (phi * (u[:, :k].T @ v))
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_tikhonov_tiny_alpha_approaches_exact_inverse():
    n = 64
    factors = hso_svd(n)
    y = (np.arange(n) + 0.5) / n
    v = apply_operator(np.sin(2 * np.pi * y))
    smooth = tikhonov_apply(factors, v, 1e-14)
    exact = naive_inverse_apply(v)
    assert norm(smooth - exact) < 1e-4


def test_tikhonov_huge_alpha_flattens_everything():
    n = 64
    factors = hso_svd(n)
    out = tikhonov_apply(factors, np.ones(n), 1e9)
    assert np.abs(out).max() < 1e-6


def test_tikhonov_validation():
    factors = hso_svd(16)
    with pytest.raises(ValueError, match="alpha"):
        tikhonov_apply(factors, np.zeros(16), -1.0)
    with pytest.raises(ValueError, match="mismatch"):
        tikhonov_apply(factors, np.zeros(8), 0.1)


# ---------------------------------------------------------------- naive attack


def test_naive_attack_succeeds_without_noise():
    rng = np.random.default_rng(1)
    key = fresh_key(rng)
    msg = Message.from_int(0xB4, 8)
    body = GridFunction(apply_operator(encode(msg, SCHEME)))
    ct = SymCiphertext(scheme=SCHEME, nonce=b"\x00" * 16, body=body)
    rep = attack_naive(ct, hso_svd(256), truth=msg)
    assert rep.method == "naive"
    assert rep.recovered == msg
    assert rep.bit_accuracy == 1.0
    assert rep.residual_norm < 1e-6


def test_naive_attack_on_real_ciphertexts_is_chance_level():
    rng = np.random.default_rng(2)
    key = fresh_key(rng)
    factors = hso_svd(256)
    accs, residuals = [], []
    for _ in range(50):
        msg = Message.random(8, rng)
        ct = sym_encrypt(key, msg, SCHEME, rng.bytes(16))
        rep = attack_naive(ct, factors, truth=msg)
        accs.append(rep.bit_accuracy)
        residuals.append(rep.residual_norm)
    assert 0.3 <= float(np.mean(accs)) <= 0.7
    # The inversion lands enormously far from any encoded message.
    assert min(residuals) > 10.0


def test_naive_attack_without_truth_reports_none():
    rng = np.random.default_rng(3)
    key = fresh_key(rng)
    ct = sym_encrypt(key, Message.from_int(1, 8), SCHEME, rng.bytes(16))
    rep = attack_naive(ct, hso_svd(256))
    assert rep.bit_accuracy is None
    assert rep.residual_norm > 0.0
    assert isinstance(rep, AttackReport)


def test_naive_attack_grid_mismatch():
    rng = np.random.default_rng(4)
    key = fresh_key(rng)
    ct = sym_encrypt(key, Message.from_int(1, 8), SCHEME, rng.bytes(16))
    with pytest.raises(ValueError, match="grid"):
        attack_naive(ct, hso_svd(128))


# ---------------------------------------------------------------- regularized


def test_regularized_labels_and_validation():
    rng = np.random.default_rng(5)
    key = fresh_key(rng)
    ct = sym_encrypt(key, Message.from_int(7, 8), SCHEME, rng.bytes(16))
    factors = hso_svd(256)
    assert attack_regularized(ct, factors, Tsvd(k=8)).method == "tsvd:8"
    assert (
        attack_regularized(ct, factors, Tikhonov(alpha=0.01)).method
        == "tikhonov:0.01"
    )
    with pytest.raises(ValueError, match="exceeds"):
        attack_regularized(ct, factors, Tsvd(k=257))
    with pytest.raises(ValueError, match="unknown regularization"):
        attack_regularized(ct, factors, "tsvd")
    with pytest.raises(ValueError, match="grid"):
        attack_regularized(ct, hso_svd(128), Tsvd(k=8))


@pytest.mark.parametrize(
    "scheme", [EncodingScheme.map2(32, 256), EncodingScheme.map1(8, 256, basis="haar")],
    ids=["map2", "map1-haar"],
)
def test_attack_equals_the_single_method_calls(scheme):
    rng = np.random.default_rng(13)
    key = fresh_key(rng)
    factors = hso_svd(256)
    for scored in (False, True):
        msg = Message.random(scheme.t, rng)
        truth = msg if scored else None
        ct = sym_encrypt(key, msg, scheme, rng.bytes(16))
        reports = attack(ct, (Naive(), Tsvd(8), Tikhonov(1e-4)), truth=truth)
        assert reports == (
            attack_naive(ct, factors, truth=truth),
            attack_regularized(ct, factors, Tsvd(8), truth=truth),
            attack_regularized(ct, factors, Tikhonov(1e-4), truth=truth),
        )
        assert [r.method for r in reports] == ["naive", "tsvd:8", "tikhonov:0.0001"]
    assert attack(ct, ()) == ()


def test_attack_method_edges():
    n = 256
    rng = np.random.default_rng(14)
    ct = sym_encrypt(fresh_key(rng), Message.random(8, rng), SCHEME, rng.bytes(16))
    # Every mode kept is the exact inverse, up to rounding.
    full, naive = attack(ct, (Tsvd(n), Naive()))
    assert full.recovered == naive.recovered
    assert np.isclose(full.residual_norm, naive.residual_norm, rtol=1e-6)
    with pytest.raises(ValueError, match=f"^cutoff {n + 1} exceeds {n} modes$"):
        attack(ct, (Naive(), Tsvd(n + 1)))
    with pytest.raises(ValueError, match="^unknown regularization method None$"):
        attack(ct, (None,))


def test_regularized_attacks_never_build_the_basis(monkeypatch):
    """TSVD(8) builds its 8 leading columns and Tikhonov no column at all.

    At n = 2048 the whole basis would be 32 MiB; this mirrors
    test_naive_attack_never_computes_the_singular_system in test_cli.py.
    """
    n = 2048
    hso_svd.cache_clear()
    factors = hso_svd(n)  # the singular system TSVD reads through the cache
    built = []
    kms_basis = hso._kms_basis

    def counted(phases, size):
        built.append((phases.size, size))
        return kms_basis(phases, size)

    monkeypatch.setattr(hso, "_kms_basis", counted)
    rng = np.random.default_rng(11)
    key = sym_keygen(recommended_error_params(n=n), rng)
    msg = Message.random(64, rng)
    ct = sym_encrypt(key, msg, EncodingScheme.map2(64, n), rng.bytes(16))
    for method in (Tsvd(8), Tikhonov(1e-4)):
        assert attack_regularized(ct, factors, method, truth=msg).method == method.label
    assert "left_vectors" not in vars(factors)
    assert built == [(8, n)]


def test_tikhonov_reads_only_the_grid_size():
    """The operator serves Tikhonov, and TSVD too, as well as the factors."""
    rng = np.random.default_rng(12)
    key = fresh_key(rng)
    msg = Message.random(8, rng)
    ct = sym_encrypt(key, msg, SCHEME, rng.bytes(16))
    by_factors = attack_regularized(ct, hso_svd(256), Tikhonov(1e-4), truth=msg)
    assert attack_regularized(ct, build_hso(256), Tikhonov(1e-4), truth=msg) == by_factors
    np.testing.assert_array_equal(
        tikhonov_apply(build_hso(256), ct.body.values, 1e-4),
        tikhonov_apply(hso_svd(256), ct.body.values, 1e-4),
    )
    by_factors = attack_regularized(ct, hso_svd(256), Tsvd(8), truth=msg)
    assert attack_regularized(ct, build_hso(256), Tsvd(8), truth=msg) == by_factors


def test_truncated_inversion_beats_naive_at_small_noise():
    """With scale 0.01 the low modes carry the message past the noise."""
    rng = np.random.default_rng(6)
    key = fresh_key(rng, scale=0.01)
    factors = hso_svd(256)
    tsvd_accs, naive_accs = [], []
    for _ in range(30):
        msg = Message.random(8, rng)
        ct = sym_encrypt(key, msg, SCHEME, rng.bytes(16))
        tsvd_accs.append(
            attack_regularized(ct, factors, Tsvd(k=8), truth=msg).bit_accuracy
        )
        naive_accs.append(attack_naive(ct, factors, truth=msg).bit_accuracy)
    assert float(np.mean(tsvd_accs)) > 0.9
    assert float(np.mean(tsvd_accs)) > float(np.mean(naive_accs)) + 0.2


def test_huge_tikhonov_alpha_recovers_all_zero_message():
    rng = np.random.default_rng(7)
    key = fresh_key(rng)
    ct = sym_encrypt(key, Message.from_int(0xFF, 8), SCHEME, rng.bytes(16))
    rep = attack_regularized(ct, hso_svd(256), Tikhonov(alpha=1e12))
    assert rep.recovered == Message.from_int(0, 8)


# ---------------------------------------------------------------- nonce reuse


def test_error_reuse_difference_is_noise_free():
    rng = np.random.default_rng(8)
    key = fresh_key(rng)
    nonce = rng.bytes(16)
    m1, m2 = Message.from_int(0xC3, 8), Message.from_int(0x2A, 8)
    c1 = sym_encrypt(key, m1, SCHEME, nonce)
    c2 = sym_encrypt(key, m2, SCHEME, nonce)
    diff = error_reuse_diff(c1, c2)
    clean = apply_operator(encode(m1, SCHEME)) - apply_operator(encode(m2, SCHEME))
    assert norm(diff - clean) < 1e-9


def test_error_reuse_requires_matching_nonces():
    rng = np.random.default_rng(9)
    key = fresh_key(rng)
    m = Message.from_int(1, 8)
    c1 = sym_encrypt(key, m, SCHEME, rng.bytes(16))
    c2 = sym_encrypt(key, m, SCHEME, rng.bytes(16))
    with pytest.raises(ValueError, match="nonce"):
        error_reuse_diff(c1, c2)


def test_decode_difference_recovers_bit_pattern():
    rng = np.random.default_rng(10)
    key = fresh_key(rng)
    for _ in range(50):
        nonce = rng.bytes(16)
        m1, m2 = Message.random(8, rng), Message.random(8, rng)
        c1 = sym_encrypt(key, m1, SCHEME, nonce)
        c2 = sym_encrypt(key, m2, SCHEME, nonce)
        got = decode_difference(error_reuse_diff(c1, c2), SCHEME)
        expected = tuple(a - b for a, b in zip(m1.bits, m2.bits))
        assert got == expected


def test_decode_difference_rejects_basis_scheme():
    with pytest.raises(ValueError, match="subinterval"):
        decode_difference(np.zeros(256), EncodingScheme.map1(8, 256, basis="haar"))
    with pytest.raises(ValueError, match="mismatch"):
        decode_difference(np.zeros(128), SCHEME)


# ---------------------------------------------------------------- known plaintext


def test_known_plaintext_gives_nothing_transferable():
    rng = np.random.default_rng(11)
    key = fresh_key(rng)
    queries = [Message.random(8, rng) for _ in range(100)]
    rep = known_plaintext_experiment(key, queries, SCHEME, rng, holdout_trials=100)
    assert rep.queries == 100
    assert rep.all_errors_distinct
    assert len(rep.holdout_accuracies) == 100
    assert 0.4 <= rep.mean_holdout_accuracy <= 0.6


def test_known_plaintext_empty_query_list():
    rng = np.random.default_rng(12)
    key = fresh_key(rng)
    rep = known_plaintext_experiment(key, [], SCHEME, rng)
    assert rep == KnownPlaintextReport(
        queries=0, all_errors_distinct=True, holdout_accuracies=()
    )
    assert rep.mean_holdout_accuracy == 0.0
