"""Exponential-kernel integral operator, its spectrum, and ill-posedness probes.

The operator is (S u)(y) = int_0^1 exp(-|y - s|) u(s) ds, discretized by
the midpoint rule to A[i, j] = h * exp(-|y_i - y_j|), a scaled
Kac-Murdock-Szegő matrix.  A function is the float64 array of its n
midpoint samples, and every operator below takes and returns plain
arrays.  The kernel separates, exp(-|y_i - y_j|) = exp(-y_i) exp(y_j)
for j <= i, so A u is two cumulative sums over the weights exp(+-y), in
O(n) time and memory; the dense n x n matrix is built only on demand,
for the oracle tests.  The inverse of a KMS matrix is tridiagonal, so the
exact inverse is also applied in O(n), with no singular vectors.  The
singular system has the classical KMS closed form (Kac, Murdock & Szegő
1953): the values cost O(n) and the orthonormal basis O(n^2), with no
eigensolver; only the regularized filters (TSVD, Tikhonov) build that
basis.  The singular values follow the inverse
square law s_k ~ 2 / (k pi)^2 (modes indexed from 0, largest first),
which is the mild polynomial decay regime; inverting the operator
amplifies noise at frequency k by 1/s_k, and the experiment below
measures that blowup directly.
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
    phases only on the first access to left_vectors, which only the
    regularized filters in filtered_inverse make; the values alone never
    allocate it, and the exact inverse (naive_inverse_apply) reads no
    factors at all.  right_vectors is an alias of the same array, kept for
    the generic A = U diag(s) V^T shape.
    """

    singular_values: np.ndarray
    phases: np.ndarray

    @property
    def n(self) -> int:
        return self.singular_values.size

    @cached_property
    def left_vectors(self) -> np.ndarray:
        """The basis, built once per factors object (BENCH_caches.json, row `left_vectors`)."""
        return _kms_basis(self.phases)

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


def apply_operator(op: DiscretizedOperator, u: np.ndarray) -> np.ndarray:
    """A u in O(n) for the n samples u: the two triangles as cumulative sums.

    Both sums count the diagonal, hence the one u subtracted.  The weights
    lie in [1/e, e], so the split form's rounding stays within a factor
    e^2 of the dense product's.  Both sums and the combining steps run in
    place, the upper sum on the reversed view, in the order
    (lower + upper - u) / n.
    """
    if u.shape != (op.n,):
        raise ValueError(f"grid size mismatch: {u.shape} vs {(op.n,)}")
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


def _kms_basis(phases: np.ndarray) -> np.ndarray:
    """Orthonormal columns u_jk proportional to sin(j theta_k + phi_k).

    With (n + 1) theta_k = k pi - 2 phi_k the argument is
    pi (j k mod 2(n + 1)) / (n + 1) - (2j - n - 1) phi_k / (n + 1); the
    integer part is reduced exactly, so the angle stays in (-pi/2, 5 pi/2)
    and carries no rounding from large j k.  Columns are built in blocks
    to bound the temporaries.
    """
    n = phases.size
    j = np.arange(1, n + 1)
    offset = 2 * j - n - 1.0
    step = np.pi / (n + 1)
    block = max(1, _BASIS_BLOCK_ELEMENTS // n)
    basis = np.empty((n, n))
    for k0 in range(0, n, block):
        k = np.arange(k0 + 1, min(k0 + block, n) + 1)
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
    keeps, which also refuses n < 1.  The values cost O(n); the basis is
    built from the phases on the first use of left_vectors.  Cached for one
    grid size (BENCH_caches.json, row `hso_svd`).
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


def filtered_inverse(factors: SVDFactors, v: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Spectral filter sum_{k < phi.size} phi_k <v, u_k> u_k of the n samples v.

    TSVD and Tikhonov differ only in the filter factors phi (1/s on the
    leading modes, s / (s^2 + alpha)); only the phi.size leading modes are
    touched, so a short filter stays cheap.  The full filter 1/s is the
    exact inverse, which naive_inverse_apply applies without the basis.
    """
    if v.shape != (factors.n,):
        raise ValueError(f"grid size mismatch: {v.shape} vs {(factors.n,)}")
    u = factors.left_vectors[:, : phi.size]
    return u @ (phi * (u.T @ v))


def naive_inverse_apply(op: DiscretizedOperator, v: np.ndarray) -> np.ndarray:
    """Exact unregularized inverse A^-1 v of the n samples v, in O(n).

    The inverse of the KMS matrix A = h rho^|i - j|, rho = e^-h, is exactly
    tridiagonal (Kac, Murdock & Szegő 1953):
    A^-1 = tridiag(-rho, 1 + rho^2, -rho) / (h (1 - rho^2)), except that
    the two corner diagonal entries are 1, not 1 + rho^2; at n = 1,
    A^-1 = [1].  rho, 1 + rho^2 and h (1 - rho^2) are the operator's cached
    constants.  This is the filter 1/s on every mode, but no singular
    value or vector is computed.
    """
    n = op.n
    if v.shape != (n,):
        raise ValueError(f"grid size mismatch: {v.shape} vs {(n,)}")
    if n == 1:
        return v.copy()
    rho_v = op.rho * v
    out = op.diagonal * v
    out[0], out[-1] = v[0], v[-1]
    out[1:] -= rho_v[:-1]
    out[:-1] -= rho_v[1:]
    out /= op.scale
    return out


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
    op: DiscretizedOperator,
    psi: np.ndarray,
    noise_scale: float,
    trials: int,
    seed: int,
) -> AmplificationReport:
    """Measure how naive inversion blows up additive Gaussian noise.

    Each trial forms v = S psi + scale * g from the n samples psi and iid
    standard normal g, inverts naively, and records
    ||psi_hat - psi|| / ||noise|| in the grid norm, each norm as
    sqrt(h) sqrt(x . x) from one dot product, as grid.norm takes it.
    Trials draw from independent substreams of seed, so reports are
    reproducible and trial order is immaterial.
    """
    if psi.shape != (op.n,):
        raise ValueError(f"grid size mismatch: {psi.shape} vs {(op.n,)}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not (noise_scale >= 0 and np.isfinite(noise_scale)):
        raise ValueError(f"noise scale must be finite and nonnegative, got {noise_scale}")

    clean = apply_operator(op, psi)
    sqrt_h = np.sqrt(1.0 / op.n)

    noise_norms = np.empty(trials)
    error_norms = np.empty(trials)
    ratios = []
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        g = rng.standard_normal(op.n)
        recovered = naive_inverse_apply(op, clean + noise_scale * g)
        error = recovered - psi
        noise_norms[t] = noise_scale * sqrt_h * math.sqrt(g.dot(g))
        error_norms[t] = sqrt_h * math.sqrt(error.dot(error))
        if noise_norms[t] > 0:
            ratios.append(error_norms[t] / noise_norms[t])

    return AmplificationReport(
        n=op.n,
        trials=trials,
        noise_scale=noise_scale,
        noise_norms=noise_norms,
        error_norms=error_norms,
        amplification_factors=np.asarray(ratios),
    )
