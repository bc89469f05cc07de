"""Exponential-kernel integral operator, its spectrum, and ill-posedness probes.

The operator is (S u)(y) = int_0^1 exp(-|y - s|) u(s) ds, discretized by
the midpoint rule to A[i, j] = h * exp(-|y_i - y_j|), a scaled
Kac-Murdock-Szegő matrix.  The kernel separates, exp(-|y_i - y_j|) =
exp(-y_i) exp(y_j) for j <= i, so A u is two cumulative sums over the
weights exp(+-y), in O(n) time and memory; the dense n x n matrix is built
only on demand, for the oracle tests and the eigensolve.  Its singular
values follow the inverse square law s_k ~ 2 / (k pi)^2 (modes indexed
from 0, largest first), which is the mild polynomial decay regime;
inverting the operator amplifies noise at frequency k by 1/s_k, and the
experiment below measures that blowup directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridFunction, make_grid_function, midpoints

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


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Midpoint-rule exponential-kernel operator, kept as its separable weights.

    grow = exp(y) and decay = exp(-y) at the n midpoints, both read-only.
    """

    n: int
    grow: np.ndarray
    decay: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """Read-only dense h * exp(-|y_i - y_j|), built anew on each access."""
        y = midpoints(self.n)
        m = np.exp(-np.abs(y[:, None] - y[None, :])) / self.n
        m.flags.writeable = False
        return m


@dataclass(frozen=True, eq=False)
class SVDFactors:
    """Singular system of a discretized operator, values sorted descending.

    The operator is symmetric positive definite, so left and right vectors
    coincide; both are kept to preserve the generic A = U diag(s) V^T shape.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.singular_values.size


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


@lru_cache(maxsize=32)
def build_hso(n: int) -> DiscretizedOperator:
    """Weights of h * exp(-|y_i - y_j|) on the n-point midpoint grid."""
    if n < 1:
        raise ValueError(f"operator needs n >= 1, got {n}")
    y = midpoints(n)
    grow, decay = np.exp(y), np.exp(-y)
    grow.flags.writeable = False
    decay.flags.writeable = False
    return DiscretizedOperator(n=n, grow=grow, decay=decay)


def apply_operator(op: DiscretizedOperator, u: GridFunction) -> GridFunction:
    """A u in O(n): the lower and upper triangles as two cumulative sums.

    Both sums count the diagonal, hence the one u subtracted.  The weights
    lie in [1/e, e], so the split form's rounding stays within a factor
    e^2 of the dense product's.
    """
    if u.n != op.n:
        raise ValueError(f"grid size mismatch: {u.n} vs {op.n}")
    v = u.values
    lower = op.decay * np.cumsum(op.grow * v)
    upper = op.grow * np.cumsum((op.decay * v)[::-1])[::-1]
    return make_grid_function((lower + upper - v) / op.n)


@lru_cache(maxsize=8)
def hso_svd(n: int) -> SVDFactors:
    """Cached singular system of the n-point operator."""
    # Symmetric PD, so eigh gives the singular system directly and keeps
    # U == V exactly; eigenvalues come back ascending.
    w, v = np.linalg.eigh(build_hso(n).matrix)
    order = np.argsort(w)[::-1]
    s = np.ascontiguousarray(w[order])
    vecs = np.ascontiguousarray(v[:, order])
    s.flags.writeable = False
    vecs.flags.writeable = False
    return SVDFactors(singular_values=s, left_vectors=vecs, right_vectors=vecs)


def filtered_inverse(factors: SVDFactors, v: GridFunction, phi: np.ndarray) -> GridFunction:
    """Spectral filter sum_{k < phi.size} phi_k <v, u_k> u_k.

    Naive inversion, TSVD and Tikhonov differ only in the filter factors
    phi (1/s, 1/s on the leading modes, s / (s^2 + alpha)); only the
    phi.size leading modes are touched, so a short filter stays cheap.
    """
    if v.n != factors.n:
        raise ValueError(f"grid size mismatch: {v.n} vs {factors.n}")
    u = factors.left_vectors[:, : phi.size]
    return make_grid_function(u @ (phi * (u.T @ v.values)))


def naive_inverse_apply(factors: SVDFactors, v: GridFunction) -> GridFunction:
    """Unregularized inverse: every mode divided by its singular value."""
    return filtered_inverse(factors, v, 1.0 / factors.singular_values)


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
    if mild_r2 >= severe_r2 or low_confidence:
        return DecayClassification(
            kind=MILD,
            decay_exponent=-mild_slope,
            decay_rate=None,
            fit_quality=mild_r2,
            fit_range=(lo, hi),
            low_confidence=low_confidence,
        )
    return DecayClassification(
        kind=SEVERE,
        decay_exponent=None,
        decay_rate=-severe_slope,
        fit_quality=severe_r2,
        fit_range=(lo, hi),
        low_confidence=low_confidence,
    )


def noise_amplification_experiment(
    op: DiscretizedOperator,
    psi: GridFunction,
    noise_scale: float,
    trials: int,
    seed: int,
) -> AmplificationReport:
    """Measure how naive inversion blows up additive Gaussian noise.

    Each trial forms v = S psi + scale * g with iid standard normal g,
    inverts naively, and records ||psi_hat - psi|| / ||noise|| in the grid
    norm.  Trials draw from independent substreams of seed, so reports are
    reproducible and trial order is immaterial.
    """
    if psi.n != op.n:
        raise ValueError(f"grid size mismatch: {psi.n} vs {op.n}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if noise_scale < 0:
        raise ValueError(f"noise scale must be nonnegative, got {noise_scale}")

    factors = hso_svd(op.n)
    clean = apply_operator(op, psi).values
    sqrt_h = np.sqrt(psi.h)

    noise_norms = np.empty(trials)
    error_norms = np.empty(trials)
    ratios = []
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        g = rng.standard_normal(op.n)
        noisy = make_grid_function(clean + noise_scale * g)
        recovered = naive_inverse_apply(factors, noisy)
        noise_norms[t] = noise_scale * sqrt_h * np.linalg.norm(g)
        error_norms[t] = sqrt_h * np.linalg.norm(recovered.values - psi.values)
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
