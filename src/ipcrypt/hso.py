"""Exponential-kernel integral operator, its spectrum, and ill-posedness probes.

The operator is (S u)(y) = int_0^1 exp(-|y - s|) u(s) ds, discretized by
the midpoint rule to A[i, j] = h * exp(-|y_i - y_j|), a scaled
Kac-Murdock-Szegő matrix.  A function is the float64 array of its n
midpoint samples, and every operator below takes and returns plain
arrays: apply_operator(u) and naive_inverse_apply(v) take the samples
alone, whose n picks the grid and the cached operator.  The kernel
separates, exp(-|y_i - y_j|) = exp(-y_i) exp(y_j) for j <= i, so A u is
two cumulative sums over the weights exp(+-y), in O(n) time and memory;
the dense n x n matrix is built only on demand, for the oracle tests.
The inverse of a KMS matrix is tridiagonal, so the exact inverse is also
applied in O(n), with no singular vectors, and so is the Tikhonov
filter, as one complex tridiagonal solve.  The singular system has the
classical KMS closed form (Kac, Murdock & Szegő 1953): the values cost
O(n), and any K of the orthonormal columns O(nK), with no eigensolver;
truncated SVD builds only the K columns it keeps, and no inversion
builds the whole basis.  The singular values follow the inverse square
law s_k ~ 2 / (k pi)^2 (modes indexed from 0, largest first), which is
the mild polynomial decay regime; inverting the operator amplifies noise
at frequency k by 1/s_k, and the experiment below measures that blowup
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grid import midpoints

__all__ = [
    "DiscretizedOperator",
    "SVDFactors",
    "DecayClassification",
    "AmplificationReport",
    "build_hso",
    "apply_operator",
    "hso_svd",
    "filtered_inverse",
    "naive_inverse_apply",
    "tikhonov_inverse_apply",
    "default_fit_range",
    "classify_decay",
    "noise_amplification_experiment",
]

MILD = "mild"
SEVERE = "severe"

# Below this R^2 gap the two decay fits are statistically indistinguishable.
_FIT_TIE_GAP = 0.01

# Halvings of a bracket of width pi / (n + 1): 2^-64 of it is below rounding.
_BISECTION_STEPS = 64
# Elements per column block of the temporaries in _kms_basis.
_BASIS_BLOCK_ELEMENTS = 1 << 18
# Largest growth |z|^-k, as a natural log, inside one block of a Tikhonov
# sweep: 2^200, which leaves a factor 2^824 of float64 range for the samples.
_SWEEP_LOG_GROWTH = 200 * math.log(2.0)


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Midpoint-rule exponential-kernel operator, kept as its separable weights.

    grow = exp(y) and decay = exp(-y) at the n midpoints, both read-only.
    rho = e^-h, diagonal = 1 + rho^2 and scale = h (1 - rho^2), taken as
    h * -expm1(-2h), are the constants of the tridiagonal inverse.
    """

    n: int
    grow: np.ndarray
    decay: np.ndarray
    rho: float
    diagonal: float
    scale: float

    @property
    def matrix(self) -> np.ndarray:
        """Read-only dense h * exp(-|y_i - y_j|), built anew on each access."""
        y = midpoints(self.n)
        m = np.exp(-np.abs(y[:, None] - y[None, :])) / self.n
        m.flags.writeable = False
        return m


@dataclass(frozen=True, eq=False)
class SVDFactors:
    """Singular system of the discretized operator, values sorted descending.

    The operator is symmetric positive definite, so left and right vectors
    coincide.  The orthonormal basis is O(n^2) memory and is built from the
    phases on the first access to left_vectors, which no library path
    makes: it serves the oracle tests.  filtered_inverse builds only the
    leading columns its filter touches, and the exact and Tikhonov
    inverses read no factors at all.  right_vectors is an alias of the
    same array, kept for the generic A = U diag(s) V^T shape.
    """

    singular_values: np.ndarray
    phases: np.ndarray

    @property
    def n(self) -> int:
        return self.singular_values.size

    @cached_property
    def left_vectors(self) -> np.ndarray:
        """The basis, built once per factors object, for the oracle tests.

        No attack or CLI path builds it (BENCH_structured_filters.json,
        row `left_vectors`).
        """
        return _kms_basis(self.phases, self.n)

    @property
    def right_vectors(self) -> np.ndarray:
        return self.left_vectors


@dataclass(frozen=True)
class DecayClassification:
    """Outcome of fitting mild (k^-t) vs severe (e^{-r k}) singular decay.

    kind is "mild" or "severe"; exactly one of decay_exponent / decay_rate
    is set, matching the kind.  fit_quality is the R^2 of the winning fit
    and low_confidence flags a near-tie between the two models.
    """

    kind: str
    decay_exponent: float | None
    decay_rate: float | None
    fit_quality: float
    fit_range: tuple[int, int]
    low_confidence: bool


@dataclass(frozen=True, eq=False)
class AmplificationReport:
    """Per-trial norms from the naive-inversion noise experiment."""

    n: int
    trials: int
    noise_scale: float
    noise_norms: np.ndarray
    error_norms: np.ndarray
    amplification_factors: np.ndarray

    @property
    def trials_with_noise(self) -> int:
        return self.amplification_factors.size

    @property
    def noise_norm(self) -> float:
        return float(np.mean(self.noise_norms))

    @property
    def naive_error_norm(self) -> float:
        return float(np.mean(self.error_norms))

    @property
    def amplification_factor(self) -> float:
        """Mean ||reconstruction error|| / ||noise|| over noisy trials."""
        if self.amplification_factors.size == 0:
            return 0.0
        return float(np.mean(self.amplification_factors))

    @property
    def max_amplification(self) -> float:
        if self.amplification_factors.size == 0:
            return 0.0
        return float(np.max(self.amplification_factors))


@lru_cache(maxsize=1)
def build_hso(n: int) -> DiscretizedOperator:
    """Weights of h * exp(-|y_i - y_j|) on the n-point midpoint grid.

    Cached for one grid size (BENCH_caches.json, row `build_hso`).
    """
    if n < 1:
        raise ValueError(f"operator needs n >= 1, got {n}")
    y = midpoints(n)
    grow, decay = np.exp(y), np.exp(-y)
    grow.flags.writeable = False
    decay.flags.writeable = False
    h = 1.0 / n
    rho = float(np.exp(-h))
    return DiscretizedOperator(
        n=n,
        grow=grow,
        decay=decay,
        rho=rho,
        diagonal=1.0 + rho * rho,
        scale=h * -float(np.expm1(-2.0 * h)),
    )


def _operator(samples: np.ndarray) -> DiscretizedOperator:
    """The cached operator on the grid of the samples, which must be 1-d and nonempty."""
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError(f"samples must be a nonempty 1-d array, got shape {samples.shape}")
    return build_hso(samples.size)


def apply_operator(u: np.ndarray) -> np.ndarray:
    """A u in O(n) for the n samples u: the two triangles as cumulative sums.

    Both sums count the diagonal, hence the one u subtracted.  The weights
    lie in [1/e, e], so the split form's rounding stays within a factor
    e^2 of the dense product's.  Both sums and the combining steps run in
    place, the upper sum on the reversed view, in the order
    (lower + upper - u) / n.
    """
    op = _operator(u)
    out = op.grow * u
    np.add.accumulate(out, out=out)
    out *= op.decay
    upper = op.decay * u
    backward = upper[::-1]
    np.add.accumulate(backward, out=backward)
    upper *= op.grow
    out += upper
    out -= u
    out /= op.n
    return out


def _kms_basis(phases: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal columns u_jk proportional to sin(j theta_k + phi_k).

    One n-sample column per phase, for the leading phases.size modes of
    the n-point operator, in O(n phases.size).  With
    (n + 1) theta_k = k pi - 2 phi_k the argument is
    pi (j k mod 2(n + 1)) / (n + 1) - (2j - n - 1) phi_k / (n + 1); the
    integer part is reduced exactly, so the angle stays in (-pi/2, 5 pi/2)
    and carries no rounding from large j k.  Columns are built in blocks
    to bound the temporaries.
    """
    modes = phases.size
    j = np.arange(1, n + 1)
    offset = 2 * j - n - 1.0
    step = np.pi / (n + 1)
    block = max(1, _BASIS_BLOCK_ELEMENTS // n)
    basis = np.empty((n, modes))
    for k0 in range(0, modes, block):
        k = np.arange(k0 + 1, min(k0 + block, modes) + 1)
        turns = np.multiply.outer(j, k) % (2 * (n + 1))
        shift = np.multiply.outer(offset, phases[k - 1] / (n + 1))
        np.sin(step * turns - shift, out=basis[:, k0 : k0 + k.size])
    basis /= np.sqrt(np.einsum("jk,jk->k", basis, basis))
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=1)
def hso_svd(n: int) -> SVDFactors:
    """Cached singular system of the n-point operator, in closed form.

    A = h rho^|i - j| with rho = e^-h is a scaled KMS matrix, symmetric
    positive definite, so its singular system is its eigensystem
    (Kac, Murdock & Szegő 1953).  Mode k has the angle theta_k in (0, pi)
    that solves H(theta) = (n + 1) theta + 2 phi(theta) = k pi, with the
    phase phi = atan2(rho sin theta, 1 - rho cos theta) in [0, pi / 2), and
    s_k = h (1 - rho^2) / ((1 - rho)^2 + 4 rho sin^2(theta_k / 2)).
    H' >= n on (0, pi), so theta_k lies in [(k - 1) pi, k pi] / (n + 1), and
    64 vectorized bisection steps shrink that bracket below rounding.  Both
    1 - rho terms come from expm1, and 1 - rho cos theta is summed as
    (1 - rho) + 2 rho sin^2(theta / 2), so nothing cancels when rho and
    cos theta are near 1.  rho and h (1 - rho^2) are the constants build_hso
    keeps, which also refuses n < 1.  The values cost O(n); basis columns
    are built from the phases only when filtered_inverse or left_vectors
    asks.  Cached for one grid size (BENCH_caches.json, row `hso_svd`).
    """
    op = build_hso(n)
    rho, one_minus_rho = op.rho, -np.expm1(-1.0 / n)

    def phase(theta: np.ndarray) -> np.ndarray:
        return np.arctan2(rho * np.sin(theta), one_minus_rho + 2.0 * rho * np.sin(0.5 * theta) ** 2)

    k_pi = np.arange(1, n + 1) * np.pi
    lo = (k_pi - np.pi) / (n + 1)
    hi = k_pi / (n + 1)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        above = (n + 1) * mid + 2.0 * phase(mid) > k_pi
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    theta = 0.5 * (lo + hi)
    s = op.scale / (one_minus_rho**2 + 4.0 * rho * np.sin(0.5 * theta) ** 2)
    phases = phase(theta)
    s.flags.writeable = False
    phases.flags.writeable = False
    return SVDFactors(singular_values=s, phases=phases)


@lru_cache(maxsize=5)
def _leading_basis(factors: SVDFactors, k: int) -> np.ndarray:
    """The k leading basis columns, n x k, built in O(nk) from the phases.

    Cached per (factors, k), since an attack campaign truncates every
    ciphertext at one cutoff; an entry keeps its factors alive, so the
    cache is bounded (BENCH_structured_filters.json, row `_leading_basis`).
    """
    return _kms_basis(factors.phases[:k], factors.n)


def filtered_inverse(v: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Spectral filter sum_{k < phi.size} phi_k <v, u_k> u_k of the n samples v.

    Only the phi.size leading columns are built and touched, so the
    truncated SVD filter (1/s on the K leading modes) costs O(nK).  The
    filters that act on every mode have O(n) forms that need no basis:
    naive_inverse_apply (1/s) and tikhonov_inverse_apply (s / (s^2 + alpha)).
    """
    u = _leading_basis(hso_svd(_operator(v).n), phi.size)
    return u @ (phi * (u.T @ v))


def naive_inverse_apply(v: np.ndarray) -> np.ndarray:
    """Exact unregularized inverse A^-1 v of the n samples v, in O(n).

    The inverse of the KMS matrix A = h rho^|i - j|, rho = e^-h, is exactly
    tridiagonal (Kac, Murdock & Szegő 1953):
    A^-1 = tridiag(-rho, 1 + rho^2, -rho) / (h (1 - rho^2)), except that
    the two corner diagonal entries are 1, not 1 + rho^2; at n = 1,
    A^-1 = [1].  rho, 1 + rho^2 and h (1 - rho^2) are the operator's cached
    constants.  This is the filter 1/s on every mode, but no singular
    value or vector is computed.
    """
    op = _operator(v)
    if op.n == 1:
        return v.copy()
    rho_v = op.rho * v
    out = op.diagonal * v
    out[0], out[-1] = v[0], v[-1]
    out[1:] -= rho_v[:-1]
    out[:-1] -= rho_v[1:]
    out /= op.scale
    return out


@dataclass(frozen=True, eq=False)
class _TikhonovSystem:
    """Constants of the Tikhonov solve on one grid for one alpha, O(n) memory.

    z is the root of z + 1/z = sigma with |z| < 1 (see
    tikhonov_inverse_apply).  A sweep runs in blocks of `block` samples,
    with inv_powers = z^-k for k < block and powers = z^k for k <= block.
    When one block spans the grid, cross = gain z^(n - 1 - 2m) for m < n
    joins the two sweeps; otherwise it is None and the sweeps run blocked.
    The solution is indexed last sample first: homogeneous holds the rows
    z^(n - 1 - m) and z^m, and boundary maps the first and last samples of
    gain times the particular solution to their weights.  rhs_inverse says
    whether the solve runs on T v (else on v), and the result is the real
    part of gain times the solution.
    """

    block: int
    inv_powers: np.ndarray
    powers: np.ndarray
    cross: np.ndarray | None
    homogeneous: np.ndarray
    boundary: tuple[complex, complex, complex, complex]
    rhs_inverse: bool
    gain: complex


@lru_cache(maxsize=4)
def _tikhonov_system(n: int, alpha: float) -> _TikhonovSystem:
    """The root z, its powers and the boundary fix, for n >= 2.

    sigma - 2 = (1 - rho)^2 / rho + i tau is summed without cancellation,
    and z = 2 / (sigma + sqrt(sigma - 2) sqrt(sigma + 2)) takes the larger
    denominator; the textbook (sigma - sqrt(sigma^2 - 4)) / 2 cancels when
    tau is large.  A block is the whole grid when |z|^-n <= 2^200, else
    the longest run with |z|^-block <= 2^200; then |z|^block < 2^-100, so
    a block's carry from two blocks back is below 2^-200 and is dropped.
    Cached per (n, alpha), since an attack campaign applies one alpha to
    every ciphertext (BENCH_structured_filters.json, row `_tikhonov_system`).
    """
    op = build_hso(n)
    rho, sqrt_alpha = op.rho, math.sqrt(alpha)
    tau = op.scale / (sqrt_alpha * rho)
    sigma_minus_2 = complex(math.expm1(-1.0 / n) ** 2 / rho, tau)
    z = complex(2.0 / (sigma_minus_2 + 2.0 + np.sqrt(sigma_minus_2) * np.sqrt(sigma_minus_2 + 4.0)))
    log_z = complex(np.log(z))
    if n * -log_z.real <= _SWEEP_LOG_GROWTH:
        block = n
    else:
        block = max(1, int(_SWEEP_LOG_GROWTH / -log_z.real))
    rhs_inverse = alpha * n * n < 1.0
    gain = 1j * tau * z if rhs_inverse else tau * z / sqrt_alpha
    k = np.arange(block + 1)
    powers = np.exp(k * log_z)
    inv_powers = np.exp(-k[:-1] * log_z)
    m = np.arange(n)
    cross = gain * np.exp((n - 1 - 2 * m) * log_z) if block == n else None
    homogeneous = np.exp(np.stack((n - 1 - m, m)) * log_z)
    for array in (powers, inv_powers, cross, homogeneous):
        if array is not None:
            array.flags.writeable = False
    near = 1.0 / z - rho
    far = complex(homogeneous[0, 0]) * (z - rho)
    det = near * near - far * far
    boundary = (-near * (z - rho) / det, -far * rho / det, far * (z - rho) / det, near * rho / det)
    return _TikhonovSystem(
        block, inv_powers, powers, cross, homogeneous, boundary, rhs_inverse, gain
    )


def _sweep(x: np.ndarray, system: _TikhonovSystem) -> np.ndarray:
    """y_i = sum_{j <= i} z^(i - j) x_j, the recurrence y_i = z y_(i-1) + x_i, in blocks.

    The zero-padded samples are summed as rows of `block`, each row one
    scaled cumulative sum z^k cumsum(z^-k x_k); every row after the first
    then adds z^(k + 1) times the last value of the row before, carried
    one row back (see _tikhonov_system).
    """
    n, size = x.size, system.block
    y = np.zeros((-(-n // size), size), dtype=complex)
    y.reshape(-1)[:n] = x
    y *= system.inv_powers
    np.add.accumulate(y, axis=1, out=y)
    y *= system.powers[:-1]
    ends = y[:-1, -1]
    carry = ends.copy()
    carry[1:] += system.powers[-1] * ends[:-1]
    y[1:] += np.multiply.outer(carry, system.powers[1:])
    return y.reshape(-1)[:n]


def tikhonov_inverse_apply(v: np.ndarray, alpha: float) -> np.ndarray:
    """Tikhonov filter sum_k s_k / (s_k^2 + alpha) <v, u_k> u_k of the n samples v, in O(n).

    With T = A^-1 tridiagonal (see naive_inverse_apply) the filter is
    x = T (I + alpha T^2)^-1 v, and I + alpha T^2 = (I - i b T)(I + i b T)
    with b = sqrt(alpha), so for real v
    x = Im[(I - i b T)^-1 v] / b = Re[(I - i b T)^-1 T v].
    I - i b T is -(i b rho / c) times tridiag(-1, sigma, -1) with rho
    taken off both corner entries, c = h (1 - rho^2),
    sigma = (1 + rho^2) / rho + i tau and tau = c / (b rho).  With
    z + 1/z = sigma and |z| < 1 the constant-coefficient part factors into
    two first-order recurrences, run forward and then backward as scaled
    cumulative sums: y_i = z^i cumsum(z^-j x_j), then the same on y
    reversed, where z^(n - 1 - 2m) takes the first sum's z^i and the
    second's z^-m in one product.  Two homogeneous solutions z^i and
    z^(n - 1 - i) then fix the first and last rows.  Tiny alpha, where
    z^-n would overflow, sweeps in blocks (_sweep).  The Im form loses
    digits when b is small and the Re form when b is large, so the solve
    runs on v when alpha n^2 >= 1 and on T v below.  Against the
    closed-form basis filter the result agrees to a relative 1e-9 in the
    max norm for alpha from 1e-300 to 1e30 and n up to 2048.  At n = 1,
    A = [1].
    """
    n = _operator(v).n
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if n == 1:
        return v / (1.0 + alpha)
    system = _tikhonov_system(n, alpha)
    rhs = naive_inverse_apply(v) if system.rhs_inverse else v
    if system.cross is None:
        p = _sweep(_sweep(rhs, system)[::-1], system) * system.gain
    else:
        p = rhs * system.inv_powers
        np.add.accumulate(p, out=p)
        p = p[::-1] * system.cross
        np.add.accumulate(p, out=p)
        p *= system.powers[:-1]
    # p is gain times the particular solution, last sample first.
    first, last = complex(p[-1]), complex(p[0])
    b00, b01, b10, b11 = system.boundary
    p += np.array((b00 * first + b01 * last, b10 * first + b11 * last)) @ system.homogeneous
    return p.real[::-1].copy()


def default_fit_range(n: int) -> tuple[int, int]:
    """Fit window [5, min(50, n // 4)] over 0-based mode numbers."""
    hi = min(50, n // 4)
    if hi - 5 + 1 < 5:
        raise ValueError(f"grid too small for a decay fit: n = {n}")
    return (5, hi)


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope/intercept of y on x plus R^2."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - np.mean(y)
    ss_tot = float(np.dot(total, total))
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        r2 = 1.0 - float(np.dot(resid, resid)) / ss_tot
    return float(slope), float(intercept), r2


def classify_decay(
    singular_values: np.ndarray, fit_range: tuple[int, int] | None = None
) -> DecayClassification:
    """Decide between polynomial and exponential singular-value decay.

    Fits log s_k against log k (mild, slope -t) and against k (severe,
    slope -r) over the inclusive 0-based mode window fit_range, and keeps
    the model with the larger R^2.  A gap below 0.01 keeps the mild label
    but flags low confidence.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("need a 1-d array of at least two singular values")
    if not np.all(np.isfinite(s)):
        raise ValueError("singular values must be finite")
    if np.any(s <= 0):
        raise ValueError("singular values must be positive")
    if np.any(np.diff(s) > 0):
        raise ValueError("singular values must be nonincreasing")
    if fit_range is None:
        fit_range = default_fit_range(s.size)
    lo, hi = fit_range
    if not (1 <= lo <= hi < s.size):
        raise ValueError(f"fit range {fit_range} out of bounds for {s.size} modes")
    if hi - lo + 1 < 5:
        raise ValueError(f"fit range {fit_range} has fewer than 5 modes")

    k = np.arange(lo, hi + 1, dtype=np.float64)
    log_s = np.log(s[lo : hi + 1])
    mild_slope, _, mild_r2 = _linear_fit(np.log(k), log_s)
    severe_slope, _, severe_r2 = _linear_fit(k, log_s)

    low_confidence = abs(mild_r2 - severe_r2) < _FIT_TIE_GAP
    mild = mild_r2 >= severe_r2 or low_confidence
    return DecayClassification(
        kind=MILD if mild else SEVERE,
        decay_exponent=-mild_slope if mild else None,
        decay_rate=None if mild else -severe_slope,
        fit_quality=mild_r2 if mild else severe_r2,
        fit_range=(lo, hi),
        low_confidence=low_confidence,
    )


def noise_amplification_experiment(
    psi: np.ndarray, noise_scale: float, trials: int, seed: int
) -> AmplificationReport:
    """Measure how naive inversion blows up additive Gaussian noise.

    Each trial forms v = S psi + scale * g from the n samples psi and iid
    standard normal g, inverts naively, and records
    ||psi_hat - psi|| / ||noise|| in the grid norm, each norm as
    sqrt(h) sqrt(x . x) from one dot product, as grid.norm takes it.
    Trials draw from independent substreams of seed, so reports are
    reproducible and trial order is immaterial.
    """
    n = _operator(psi).n
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not (noise_scale >= 0 and np.isfinite(noise_scale)):
        raise ValueError(f"noise scale must be finite and nonnegative, got {noise_scale}")

    clean = apply_operator(psi)
    sqrt_h = np.sqrt(1.0 / n)

    noise_norms = np.empty(trials)
    error_norms = np.empty(trials)
    ratios = []
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        g = rng.standard_normal(n)
        recovered = naive_inverse_apply(clean + noise_scale * g)
        error = recovered - psi
        noise_norms[t] = noise_scale * sqrt_h * math.sqrt(g.dot(g))
        error_norms[t] = sqrt_h * math.sqrt(error.dot(error))
        if noise_norms[t] > 0:
            ratios.append(error_norms[t] / noise_norms[t])

    return AmplificationReport(
        n=n,
        trials=trials,
        noise_scale=noise_scale,
        noise_norms=noise_norms,
        error_norms=error_norms,
        amplification_factors=np.asarray(ratios),
    )
