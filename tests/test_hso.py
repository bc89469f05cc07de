"""Operator assembly, singular system, decay classification, amplification."""

import ast
import math
import re
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import ipcrypt
from ipcrypt.attacks import Tsvd
from ipcrypt.grid import midpoints, norm
from ipcrypt.hso import (
    MILD,
    SEVERE,
    DiscretizedOperator,
    _kms_basis,
    _tikhonov_system,
    apply_operator,
    build_hso,
    classify_decay,
    default_fit_range,
    filtered_inverse,
    hso_svd,
    naive_inverse_apply,
    noise_amplification_experiment,
    tikhonov_inverse_apply,
)


def smooth_profile(n: int):
    y = midpoints(n)
    return np.sin(3 * np.pi * y) + 0.5 * np.cos(np.pi * y)


# ---------------------------------------------------------------- assembly


def test_matrix_hand_entries_n4():
    m = build_hso(4).matrix
    assert m[0, 0] == 0.25
    assert m[0, 1] == pytest.approx(0.25 * math.exp(-0.25), abs=1e-15)
    assert m[0, 3] == pytest.approx(0.25 * math.exp(-0.75), abs=1e-15)


def test_matrix_single_point_grid():
    np.testing.assert_array_equal(build_hso(1).matrix, [[1.0]])


def test_matrix_symmetry_and_diagonal():
    m = build_hso(50).matrix
    np.testing.assert_array_equal(m, m.T)
    np.testing.assert_array_equal(np.diag(m), np.full(50, 1.0 / 50.0))
    assert (m > 0).all()


def test_matrix_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        build_hso(0)


def test_matrix_is_read_only():
    m = build_hso(8).matrix
    with pytest.raises(ValueError):
        m[0, 0] = 2.0


def test_apply_constant_matches_closed_form():
    """Integrating the kernel against 1 gives 2 - e^(-y) - e^(-(1-y))."""
    n = 512
    y = midpoints(n)
    out = apply_operator(np.ones(n))
    expected = 2.0 - np.exp(-y) - np.exp(-(1.0 - y))
    assert np.abs(out - expected).max() < 1e-3
    mid = np.argmin(np.abs(y - 0.5))
    assert out[mid] == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-3)


def test_apply_zero_is_zero():
    out = apply_operator(np.zeros(16))
    assert not out.any()


SAMPLE_FUNCTIONS = {
    "apply_operator": apply_operator,
    "naive_inverse_apply": naive_inverse_apply,
    "tikhonov_inverse_apply": lambda v: tikhonov_inverse_apply(v, 0.1),
    "filtered_inverse": lambda v: filtered_inverse(v, np.ones(1)),
    "noise_amplification_experiment": lambda psi: noise_amplification_experiment(psi, 0.01, 1, 0),
}


@pytest.mark.parametrize("name", SAMPLE_FUNCTIONS)
def test_the_samples_must_be_a_nonempty_vector(name):
    """The samples alone pick the grid, so what is not 1-d and nonempty is refused."""
    for bad in (np.zeros((4, 4)), np.zeros(0), np.zeros((0, 1)), np.zeros(())):
        text = f"samples must be a nonempty 1-d array, got shape {bad.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            SAMPLE_FUNCTIONS[name](bad)


@pytest.mark.parametrize("n", [1, 2, 3, 256, 2048])
def test_apply_matches_dense_matrix_in_linear_memory(n):
    op = build_hso(n)
    held = [a for a in vars(op).values() if isinstance(a, np.ndarray)]
    assert held and all(a.size <= n and not a.flags.writeable for a in held)
    u = np.random.default_rng(n).standard_normal(n)
    dense = op.matrix @ u
    out = apply_operator(u)
    assert np.abs(out - dense).max() <= 1e-13 * np.abs(dense).max()


EXACT_NS = [1, 2, 3, 255, 256, 2048]


def exact_inputs(n):
    """A standard normal vector and one within 2^-40 of 1/2, as a map2 body near its threshold."""
    rng = np.random.default_rng(n)
    return [rng.standard_normal(n), 0.5 + 2.0**-40 * rng.standard_normal(n)]


@pytest.mark.parametrize("n", EXACT_NS)
def test_apply_equals_the_two_cumsum_formula_exactly(n):
    y = midpoints(n)
    grow, decay = np.exp(y), np.exp(-y)
    for u in exact_inputs(n):
        lower = decay * np.cumsum(grow * u)
        upper = grow * np.cumsum((decay * u)[::-1])[::-1]
        expected = (lower + upper - u) / n
        assert np.array_equal(apply_operator(u), expected)


@pytest.mark.parametrize("n", EXACT_NS)
def test_naive_inverse_equals_the_tridiagonal_formula_exactly(n):
    """Against the formula with rho, 1 + rho^2 and h (1 - rho^2) computed on each call."""
    for v in exact_inputs(n):
        if n == 1:
            expected = v.copy()
        else:
            h = 1.0 / n
            rho = np.exp(-h)
            expected = (1.0 + rho * rho) * v
            expected[0], expected[-1] = v[0], v[-1]
            expected[1:] -= rho * v[:-1]
            expected[:-1] -= rho * v[1:]
            expected /= h * -np.expm1(-2.0 * h)
        assert np.array_equal(naive_inverse_apply(v), expected)


# ---------------------------------------------------------------- singular system


def test_svd_shapes_and_ordering(svd256):
    s = svd256.singular_values
    assert s.shape == (256,)
    assert svd256.left_vectors.shape == (256, 256)
    assert (s > 0).all()
    assert (np.diff(s) < 0).all()  # strictly decreasing, no ties


def test_svd_orthonormal_columns(svd256):
    gram = svd256.left_vectors.T @ svd256.left_vectors
    assert np.abs(gram - np.eye(256)).max() < 1e-10


def test_svd_reconstructs_operator(svd256):
    m = build_hso(256).matrix
    u, s = svd256.left_vectors, svd256.singular_values
    assert np.abs(u @ np.diag(s) @ u.T - m).max() < 1e-8


def test_svd_left_equals_right(svd256):
    np.testing.assert_array_equal(svd256.left_vectors, svd256.right_vectors)


def test_svd_single_point_grid():
    np.testing.assert_allclose(hso_svd(1).singular_values, [1.0], atol=1e-12)


def test_spectrum_matches_continuum_law(svd512):
    """s_k ~ 2 / ((k pi)^2 + 1) for the exponential kernel's modes."""
    s = svd512.singular_values
    for k in range(10, 51):
        ratio = s[k] * ((k * math.pi) ** 2 + 1.0) / 2.0
        assert 0.98 < ratio < 1.02, f"mode {k}: {ratio}"


def test_spectrum_against_independent_oracle(svd512, reference_spectrum_2048):
    """Leading modes agree with a from-scratch dense decomposition at n=2048."""
    mine = svd512.singular_values[:51]
    oracle = reference_spectrum_2048[:51]
    rel = np.abs(mine - oracle) / oracle
    assert rel.max() < 0.02


def test_spectrum_refinement_consistency(svd256, svd512):
    """Leading modes are a grid-independent quantity: < 1% drift under refinement."""
    a = svd256.singular_values[:21]
    b = svd512.singular_values[:21]
    assert (np.abs(a - b) / b).max() < 0.01


def dense_kms(n: int) -> np.ndarray:
    """h * exp(-|y_i - y_j|) spelled out from the grid, without the library."""
    y = (np.arange(n) + 0.5) / n
    return np.exp(-np.abs(y[:, None] - y[None, :])) / n


def dense_eigh(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The oracle: LAPACK eigensystem of the dense matrix, largest first."""
    w, v = np.linalg.eigh(dense_kms(n))
    return w[::-1], v[:, ::-1]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 256, 1024])
def test_closed_form_matches_dense_eigensolver(n):
    factors = hso_svd.__wrapped__(n)
    s, u = factors.singular_values, factors.left_vectors
    a = dense_kms(n)
    w, _ = dense_eigh(n)
    assert (np.abs(s - w) <= 1e-10 * w).all()
    assert np.abs(a @ u - u * s).max() <= 1e-13 * np.abs(a).max()
    assert not s.flags.writeable and not u.flags.writeable


def test_closed_form_basis_at_n2048_is_orthonormal_and_inverts_better_than_eigh():
    n = 2048
    factors = hso_svd.__wrapped__(n)
    s, u = factors.singular_values, factors.left_vectors
    assert np.abs(u.T @ u - np.eye(n)).max() <= 1e-13
    w, v = dense_eigh(n)
    x = np.random.default_rng(7).standard_normal(n)
    ax = dense_kms(n) @ x
    closed = np.abs(u @ ((u.T @ ax) / s) - x).max()
    oracle = np.abs(v @ ((v.T @ ax) / w) - x).max()
    assert closed <= oracle
    tridiagonal = np.abs(naive_inverse_apply(ax) - x).max()
    assert tridiagonal <= oracle


def test_values_need_no_basis_and_no_dense_matrix(monkeypatch):
    """hso_svd(16384) values in O(n) memory; the basis waits for its first use."""
    n = 16384
    hso_svd.__wrapped__(8)  # warm the code path outside the measurement
    tracemalloc.start()
    try:
        factors = hso_svd.__wrapped__(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * n
    assert "left_vectors" not in vars(factors)
    s = factors.singular_values
    k = np.arange(10, 51)
    ratio = s[k] * (k * np.pi) ** 2 / 2.0
    assert ratio.min() > 0.98 and ratio.max() < 1.02

    def no_dense(self):
        raise AssertionError("the singular system read the dense matrix")

    monkeypatch.setattr(DiscretizedOperator, "matrix", property(no_dense))
    small = hso_svd.__wrapped__(64)
    assert small.left_vectors.shape == (64, 64)
    assert small.right_vectors is small.left_vectors


def test_library_calls_no_eigensolver():
    """The closed form replaced np.linalg.eig*; none may come back into src."""
    package = Path(ipcrypt.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
            if name.startswith("eig"):
                calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


def test_package_root_holds_only_modules():
    """Each name has one import path, its defining module; the root re-exports none."""
    public = {name: value for name, value in vars(ipcrypt).items() if not name.startswith("_")}
    assert public
    assert [name for name, value in public.items() if not isinstance(value, types.ModuleType)] == []


# ---------------------------------------------------------------- naive inversion


def test_naive_inverse_roundtrip():
    psi = smooth_profile(256)
    back = naive_inverse_apply(apply_operator(psi))
    assert norm(back - psi) / norm(psi) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3, 256, 2048])
def test_naive_inverse_is_the_tridiagonal_inverse_without_a_basis(n):
    """A^-1 applied to every column of the dense A gives I, from the operator's n alone."""
    a = dense_kms(n)
    cols = [naive_inverse_apply(a[:, j]) for j in range(n)]
    assert np.abs(np.column_stack(cols) - np.eye(n)).max() <= 1e-12


def test_naive_inverse_truncation_is_projection():
    """TSVD-filtered inversion of S(psi) is the projection onto leading modes."""
    n = 64
    factors = hso_svd(n)
    psi = smooth_profile(n)
    v = apply_operator(psi)
    k = 1
    got = filtered_inverse(v, Tsvd(k).filter(factors.singular_values))
    beta1 = factors.left_vectors[:, :k]
    projected = beta1 @ (beta1.T @ psi)
    assert np.abs(got - projected).max() < 1e-8
    # The residual is exactly the energy in the discarded modes (Parseval).
    coeffs = factors.left_vectors.T @ psi
    tail = math.sqrt(float((coeffs[k:] ** 2).sum()) / n)
    assert norm(psi - got) == pytest.approx(
        tail, abs=1e-8
    )


def test_worst_direction_amplifies_by_inverse_smallest_mode():
    """Noise along the last singular vector grows by exactly 1/s_min."""
    n = 64
    factors = hso_svd(n)
    psi = smooth_profile(n)
    s_min = factors.singular_values[-1]
    bump = s_min * factors.left_vectors[:, -1]
    op = build_hso(n)
    recovered = naive_inverse_apply(op.matrix @ psi + bump)
    blowup = norm(recovered - psi) / norm(bump)
    assert blowup == pytest.approx(1.0 / s_min, rel=1e-6)


# ---------------------------------------------------------------- tikhonov inversion

TIKHONOV_ALPHAS = (1e-14, 1e-10, 1e-4, 1.0, 1e9)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 256, 1024, 2048])
def test_tikhonov_solve_matches_the_closed_form_basis_filter(n):
    """The O(n) solve equals sum_k s_k / (s_k^2 + alpha) <v, u_k> u_k to a relative 1e-9.

    The closed-form basis is checked against LAPACK above.  Alpha 1e-300
    and 1e30 probe both ends of the solve's choice between its two forms.
    """
    factors = hso_svd.__wrapped__(n)
    s, u = factors.singular_values, factors.left_vectors
    rng = np.random.default_rng(n)
    for v in (rng.standard_normal(n), smooth_profile(n) + 1.0):
        for alpha in TIKHONOV_ALPHAS + (1e-300, 1e30):
            expected = u @ ((s / (s * s + alpha)) * (u.T @ v))
            got = tikhonov_inverse_apply(v, alpha)
            assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max(), alpha


@pytest.mark.parametrize("n", [256, 2048, 16384])
def test_tiny_alpha_splits_the_tikhonov_sweeps_into_blocks(n):
    """At alpha = 1e-14, |z|^-n exceeds the 2^200 a block may grow by.

    So the oracles above and below cover the blocked sweeps.
    """
    assert _tikhonov_system(n, 1e-14).block < n


def test_tikhonov_solve_at_n16384_satisfies_the_normal_equations():
    """(A^2 + alpha I) x = A v at a size whose basis would take 2 GiB.

    A is applied twice through apply_operator, and the residual is
    measured against the largest term.  The eight leading singular
    vectors, built alone in O(8n), are each scaled by s / (s^2 + alpha);
    that check skips alpha <= 1e-10, where the rounding of T v alone
    (about 1e-7 of it on the first mode) sets the error.
    """
    n = 16384
    factors = hso_svd.__wrapped__(n)
    leading, s = _kms_basis(factors.phases[:8], n), factors.singular_values[:8]
    rng = np.random.default_rng(n)
    for alpha in TIKHONOV_ALPHAS:
        for v in (rng.standard_normal(n), smooth_profile(n)):
            x = tikhonov_inverse_apply(v, alpha)
            av = apply_operator(v)
            residual = apply_operator(apply_operator(x)) + alpha * x - av
            largest = np.abs(av).max() + (1.0 + alpha) * np.abs(x).max()
            assert np.abs(residual).max() <= 1e-11 * largest, alpha
        if alpha <= 1e-10:
            continue
        gains = s / (s * s + alpha)
        for k in range(8):
            u = leading[:, k]
            x = tikhonov_inverse_apply(u, alpha)
            assert np.abs(x - gains[k] * u).max() <= 1e-9 * gains[k] * np.abs(u).max()


def test_tikhonov_solve_validation():
    for alpha in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {alpha}$"):
            tikhonov_inverse_apply(np.zeros(16), alpha)


def test_truncated_filter_builds_only_its_leading_columns():
    """filtered_inverse on K modes builds the K leading columns, the same as the basis's."""
    n, k = 512, 8
    hso_svd.cache_clear()
    factors = hso_svd(n)
    v = np.random.default_rng(9).standard_normal(n)
    phi = Tsvd(k).filter(factors.singular_values)
    got = filtered_inverse(v, phi)
    assert "left_vectors" not in vars(factors)
    u = factors.left_vectors[:, :k]
    np.testing.assert_allclose(got, u @ (phi * (u.T @ v)), rtol=0, atol=1e-12 * np.abs(got).max())
    np.testing.assert_array_equal(_kms_basis(factors.phases[:k], n), u)


# ---------------------------------------------------------------- classification


def test_classify_pure_power_law():
    k = np.arange(1, 51, dtype=np.float64)
    s = np.concatenate([[2.0], k**-2.0])
    res = classify_decay(s, fit_range=(1, 50))
    assert res.kind == MILD
    assert res.decay_exponent == pytest.approx(2.0, abs=1e-9)
    assert res.decay_rate is None
    assert res.fit_quality > 1.0 - 1e-9
    assert not res.low_confidence


def test_classify_pure_exponential():
    k = np.arange(0, 51, dtype=np.float64)
    res = classify_decay(np.exp(-k), fit_range=(1, 50))
    assert res.kind == SEVERE
    assert res.decay_rate == pytest.approx(1.0, abs=1e-9)
    assert res.decay_exponent is None
    assert res.fit_quality > 1.0 - 1e-9


def test_classify_operator_spectrum_is_mild(svd512):
    res = classify_decay(svd512.singular_values)
    assert res.kind == MILD
    assert 1.9 <= res.decay_exponent <= 2.1
    assert res.fit_range == (5, 50)
    assert res.fit_quality > 0.9999


def test_classify_narrow_window_flags_low_confidence():
    """Over five points both models fit a power law almost equally well."""
    k = np.arange(1, 11, dtype=np.float64)
    s = np.concatenate([[2.0], k**-2.0])
    res = classify_decay(s, fit_range=(5, 9))
    assert res.kind == MILD
    assert res.low_confidence


def test_classify_near_tie_keeps_the_mild_label_with_low_confidence():
    """Both sides of the 0.01 R^2 gap when the severe fit leads.

    s_k = k^-2 e^(-b k) over the window [5, 50]: at b = 0.1 the severe
    fit's R^2 leads by about 0.003, which keeps the mild label and flags
    low confidence; at b = 0.13 it leads by about 0.014 and wins.
    """
    k = np.arange(1, 51, dtype=np.float64)
    window = k[4:]
    for b, gap_range, kind in ((0.1, (0.0, 0.01), MILD), (0.13, (0.01, 0.02), SEVERE)):
        s = np.concatenate([[1.0], k**-2.0 * np.exp(-b * k)])
        log_s = np.log(s[5:])
        gap = np.corrcoef(window, log_s)[0, 1] ** 2 - np.corrcoef(np.log(window), log_s)[0, 1] ** 2
        assert gap_range[0] < gap < gap_range[1]
        res = classify_decay(s, fit_range=(5, 50))
        assert res.kind == kind
        assert res.low_confidence == (kind == MILD)
        assert (res.decay_exponent is None) == (kind == SEVERE)


def test_classify_input_validation():
    good = np.arange(1, 51, dtype=np.float64) ** -2.0
    with pytest.raises(ValueError, match="positive"):
        classify_decay(np.array([1.0, 0.0, -1.0]), fit_range=(1, 2))
    with pytest.raises(ValueError, match="nonincreasing"):
        classify_decay(np.array([1.0, 2.0, 1.5]), fit_range=(1, 2))
    with pytest.raises(ValueError, match="out of bounds"):
        classify_decay(good, fit_range=(0, 10))
    with pytest.raises(ValueError, match="out of bounds"):
        classify_decay(good, fit_range=(5, 50))
    with pytest.raises(ValueError, match="fewer than 5"):
        classify_decay(good, fit_range=(5, 8))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 10, 49])
def test_classify_refuses_non_finite_singular_values(bad, where):
    """NaN passes both the positivity and the ordering check, and inf fits to NaN."""
    s = np.arange(1, 51, dtype=np.float64) ** -2.0
    s[where] = bad
    with pytest.raises(ValueError, match="^singular values must be finite$"):
        classify_decay(s)


def test_default_fit_range():
    assert default_fit_range(512) == (5, 50)
    assert default_fit_range(256) == (5, 50)
    assert default_fit_range(100) == (5, 25)
    assert default_fit_range(36) == (5, 9)
    with pytest.raises(ValueError, match="too small"):
        default_fit_range(20)


# ---------------------------------------------------------------- amplification


def test_amplification_report_is_deterministic():
    psi = smooth_profile(64)
    a = noise_amplification_experiment(psi, 0.01, trials=10, seed=5)
    b = noise_amplification_experiment(psi, 0.01, trials=10, seed=5)
    np.testing.assert_array_equal(a.error_norms, b.error_norms)
    np.testing.assert_array_equal(a.noise_norms, b.noise_norms)
    c = noise_amplification_experiment(psi, 0.01, trials=10, seed=6)
    assert (a.error_norms != c.error_norms).any()


def test_amplification_norms_equal_the_linalg_norm_formula_exactly():
    n, scale = 96, 0.03
    psi = smooth_profile(n)
    rep = noise_amplification_experiment(psi, scale, trials=20, seed=5)
    sqrt_h = np.sqrt(1.0 / n)
    for t in range(20):
        g = np.random.default_rng((5, t)).standard_normal(n)
        recovered = naive_inverse_apply(apply_operator(psi) + scale * g)
        assert rep.noise_norms[t] == scale * sqrt_h * np.linalg.norm(g)
        assert rep.error_norms[t] == sqrt_h * np.linalg.norm(recovered - psi)


def test_amplification_per_trial_bookkeeping():
    psi = smooth_profile(64)
    rep = noise_amplification_experiment(psi, 0.01, trials=10, seed=5)
    assert rep.trials == 10
    assert rep.trials_with_noise == 10
    np.testing.assert_allclose(
        rep.amplification_factors, rep.error_norms / rep.noise_norms
    )
    assert rep.amplification_factor == pytest.approx(
        rep.amplification_factors.mean()
    )
    assert rep.max_amplification == rep.amplification_factors.max()
    assert rep.amplification_factor > 1.0


def test_amplification_zero_noise_recovers_exactly():
    psi = smooth_profile(64)
    rep = noise_amplification_experiment(psi, 0.0, trials=3, seed=1)
    assert rep.trials_with_noise == 0
    assert rep.amplification_factor == 0.0
    assert rep.naive_error_norm < 1e-6 * norm(psi)


def test_amplification_exceeds_inverse_smallest_mode_bound():
    """Mean blowup sits above 1/(2 s_min), the half-worst-case floor."""
    n = 128
    rep = noise_amplification_experiment(smooth_profile(n), 0.01, trials=100, seed=9)
    s_min = hso_svd(n).singular_values[-1]
    assert rep.amplification_factor > 1.0 / (2.0 * s_min)
    assert rep.amplification_factor > 1e3


def test_amplification_grows_with_refinement():
    """Quadratic spectrum decay makes the blowup scale like n^2: ratio ~ 4.

    The law is checked on a coarse pair and out to n = 16384.
    """
    for coarse in (128, 8192):
        reps = [
            noise_amplification_experiment(smooth_profile(n), 0.01, trials=30, seed=11)
            for n in (coarse, 2 * coarse)
        ]
        ratio = reps[1].amplification_factor / reps[0].amplification_factor
        assert 2.8 < ratio < 5.2, f"n = {coarse} -> {2 * coarse}: {ratio}"


def test_amplification_input_validation():
    psi = smooth_profile(16)
    with pytest.raises(ValueError, match="trials"):
        noise_amplification_experiment(psi, 0.01, trials=0, seed=0)
    for scale in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="nonneg"):
            noise_amplification_experiment(psi, scale, trials=1, seed=0)
