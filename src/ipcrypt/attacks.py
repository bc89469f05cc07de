"""Attacks on the noise-masked cipher, honest and otherwise.

Every inversion attack is a spectral filter on the exact singular
system, applied to the float64 samples of the ciphertext body: it keeps
sum_k phi(s_k) <C, u_k> u_k and decodes.  `attack` is the entry point,
and each method applies its filter to the body's samples alone, as in
hso.naive_inverse_apply(ct.body.values), so the ciphertext's grid picks
the operator.  The naive method uses phi = 1/s, the exact inverse, which
it applies in O(n) through the tridiagonal A^-1 without the singular
vectors; the keyed error, amplified by 1/s_k across the spectrum, swamps
most of the message.  It does not reduce decoding to coin flipping: at
the recommended parameters (n = 256, t = 32, scale 0.5, eta = 2) the
naive attack reads about 59.5% of the bits (the mean over 20000 trials
of `ipcrypt attack`), against the 50% of a guess.  The regularized
methods only change phi, and neither builds the n x n basis: truncated
SVD keeps 1/s on the k largest modes, through hso.filtered_inverse on
the k leading singular vectors alone, in O(nk); Tikhonov uses
s / (s^2 + alpha) on every mode, through
hso.tikhonov_inverse_apply(samples, alpha), one complex tridiagonal
solve in O(n).  They trade amplification for bias and do recover
low-frequency structure when the noise is small, which is exactly the
scale/cutoff trade-off the experiments chart.

Two structural leaks are also implemented: nonce reuse, where the
difference of two ciphertexts cancels the error exactly, and a
known-plaintext experiment checking that recovered error terms from
chosen queries say nothing about fresh errors.  Inversions, encodings
and differences are plain arrays; only a ciphertext carries its body as
a GridFunction.  attack_naive, attack_regularized and tikhonov_apply
serve only the benchmark in perfbench/.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import hso
from .encoding import EncodingScheme, Message, decode, encode, map2_cell_means
from .grid import _integer, _real, norm
from .noise import ErrorKey
from .symmetric import SymCiphertext, sym_encrypt

__all__ = [
    "Naive",
    "Tikhonov",
    "Tsvd",
    "AttackReport",
    "KnownPlaintextReport",
    "bit_accuracy",
    "attack",
    "tikhonov_apply",
    "attack_naive",
    "attack_regularized",
    "error_reuse_diff",
    "decode_difference",
    "known_plaintext_experiment",
]


@dataclass(frozen=True)
class Naive:
    """Filter factors 1/s on every mode: the exact inverse."""

    label = "naive"

    def invert(self, samples: np.ndarray) -> np.ndarray:
        return hso.naive_inverse_apply(samples)


@dataclass(frozen=True)
class Tikhonov:
    """Filter factors s / (s^2 + alpha)."""

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha"))
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

    @property
    def label(self) -> str:
        return f"tikhonov:{self.alpha:g}"

    def invert(self, samples: np.ndarray) -> np.ndarray:
        return hso.tikhonov_inverse_apply(samples, self.alpha)


@dataclass(frozen=True)
class Tsvd:
    """Keep the k largest modes, zero the rest; k slices the spectrum, so it is an integer."""

    k: int

    def __post_init__(self) -> None:
        _real(self.k, "cutoff")
        if self.k < 1:
            raise ValueError(f"cutoff must be positive, got {self.k}")
        object.__setattr__(self, "k", _integer(self.k, "cutoff"))

    @property
    def label(self) -> str:
        return f"tsvd:{self.k}"

    def filter(self, s: np.ndarray) -> np.ndarray:
        if self.k > s.size:
            raise ValueError(f"cutoff {self.k} exceeds {s.size} modes")
        return 1.0 / s[: self.k]

    def invert(self, samples: np.ndarray) -> np.ndarray:
        s = hso.hso_svd(samples.size).singular_values
        return hso.filtered_inverse(samples, self.filter(s))


@dataclass(frozen=True)
class AttackReport:
    """What an attack recovered and how far its inversion landed.

    bit_accuracy compares against the true message when one is supplied,
    else None.  residual_norm is the grid distance between the inverted
    ciphertext and the encoding of the reference message (truth when
    given, otherwise the recovered one).
    """

    method: str
    recovered: Message
    bit_accuracy: float | None
    residual_norm: float


@dataclass(frozen=True)
class KnownPlaintextReport:
    """Outcome of the chosen-message error-recovery experiment."""

    queries: int
    all_errors_distinct: bool
    holdout_accuracies: tuple[float, ...]

    @property
    def mean_holdout_accuracy(self) -> float:
        if not self.holdout_accuracies:
            return 0.0
        return float(np.mean(self.holdout_accuracies))


def bit_accuracy(a: Message, b: Message) -> float:
    """Fraction of agreeing bits."""
    if a.t != b.t:
        raise ValueError(f"message lengths differ: {a.t} vs {b.t}")
    agree = sum(map(operator.eq, a.bits, b.bits))
    return agree / a.t


def tikhonov_apply(
    factors: hso.SVDFactors | hso.DiscretizedOperator, v: np.ndarray, alpha: float
) -> np.ndarray:
    """Filtered inversion sum_k s_k/(s_k^2 + alpha) <v, u_k> u_k of the samples v.

    v must lie on the grid of factors.n; the operator serves as well as
    its singular system.  Kept only while perfbench/ and the tests call
    it; ROADMAP item 1 deletes it.
    """
    if v.shape != (factors.n,):
        raise ValueError(f"grid size mismatch: {v.shape} vs {(factors.n,)}")
    return hso.tikhonov_inverse_apply(v, alpha)


def _score(ct: SymCiphertext, method, truth: Message | None) -> AttackReport:
    """Invert the body by the method's filter, decode it, and score against truth."""
    if not isinstance(method, (Naive, Tsvd, Tikhonov)):
        raise ValueError(f"unknown regularization method {method!r}")
    inverted = method.invert(ct.body.values)
    recovered = decode(inverted, ct.scheme)
    reference = truth if truth is not None else recovered
    residual = norm(inverted - encode(reference, ct.scheme))
    accuracy = bit_accuracy(recovered, truth) if truth is not None else None
    return AttackReport(method.label, recovered, accuracy, residual)


def attack(
    ct: SymCiphertext, methods: Sequence[Naive | Tsvd | Tikhonov], truth: Message | None = None
) -> tuple[AttackReport, ...]:
    """One report per method, in order, each inverting ct on the grid of its body."""
    return tuple(_score(ct, method, truth) for method in methods)


def _on_grid(ct: SymCiphertext, factors: hso.SVDFactors | hso.DiscretizedOperator):
    if factors.n != ct.scheme.n:
        raise ValueError(f"grid size mismatch: {(ct.scheme.n,)} vs {(factors.n,)}")
    return ct


def attack_naive(
    ct: SymCiphertext,
    factors: hso.SVDFactors | hso.DiscretizedOperator,
    truth: Message | None = None,
) -> AttackReport:
    """attack(ct, (Naive(),), truth)[0] if factors.n is the ciphertext's grid size.

    Kept only while perfbench/ and tests/test_bench_names.py call it; ROADMAP item 1 deletes it.
    """
    return _score(_on_grid(ct, factors), Naive(), truth)


def attack_regularized(
    ct: SymCiphertext,
    factors: hso.SVDFactors | hso.DiscretizedOperator,
    method: Tikhonov | Tsvd,
    truth: Message | None = None,
) -> AttackReport:
    """attack(ct, (method,), truth)[0] if factors.n is the ciphertext's grid size.

    Kept only while perfbench/ and tests/test_bench_names.py call it; ROADMAP item 1 deletes it.
    """
    return _score(_on_grid(ct, factors), method, truth)


def error_reuse_diff(ct1: SymCiphertext, ct2: SymCiphertext) -> np.ndarray:
    """Difference of two same-nonce ciphertexts: the error cancels exactly.

    What remains is S(encode(mu1) - encode(mu2)), a noise-free linear
    image of the message difference.
    """
    if ct1.nonce != ct2.nonce:
        raise ValueError("ciphertexts use different nonces; the error does not cancel")
    if ct1.scheme.n != ct2.scheme.n:
        raise ValueError(f"grid size mismatch: {ct1.scheme.n} vs {ct2.scheme.n}")
    return ct1.body.values - ct2.body.values


def decode_difference(diff: np.ndarray, scheme: EncodingScheme) -> tuple[int, ...]:
    """Per-bit message difference in {-1, 0, +1} from a ciphertext difference.

    Inverts the noise-free difference exactly and reads each subinterval
    mean.  Only the piecewise-constant scheme admits a per-bit reading;
    the basis-indexed scheme is rejected.
    """
    if scheme.kind != "map2":
        raise ValueError("per-bit difference decoding needs the subinterval scheme")
    inverted = hso.naive_inverse_apply(diff)
    means = map2_cell_means(inverted, scheme)
    return tuple(0 if abs(m) < 0.5 else (1 if m > 0 else -1) for m in means)


def known_plaintext_experiment(
    key: ErrorKey,
    queries: list[Message],
    scheme: EncodingScheme,
    rng: np.random.Generator,
    holdout_trials: int = 100,
) -> KnownPlaintextReport:
    """Recover error terms from chosen messages, then try to reuse them.

    Each query is encrypted under a fresh nonce; knowing the message, the
    attacker recovers E = C - S(encode(mu)) exactly.  The report records
    whether all recovered errors are distinct and how well the first one
    decrypts fresh holdout ciphertexts (at chance level, if the keyed
    derivation does its job).
    """
    if not queries:
        return KnownPlaintextReport(
            queries=0, all_errors_distinct=True, holdout_accuracies=()
        )
    recovered_errors = []
    for msg in queries:
        nonce = rng.bytes(16)
        ct = sym_encrypt(key, msg, scheme, nonce)
        recovered_errors.append(ct.body.values - hso.apply_operator(encode(msg, scheme)))

    seen = {e.tobytes() for e in recovered_errors}
    all_distinct = len(seen) == len(recovered_errors)

    predictor = recovered_errors[0]
    accuracies = []
    for _ in range(holdout_trials):
        msg = Message.random(scheme.t, rng)
        ct = sym_encrypt(key, msg, scheme, rng.bytes(16))
        guess = decode(hso.naive_inverse_apply(ct.body.values - predictor), scheme)
        accuracies.append(bit_accuracy(guess, msg))

    return KnownPlaintextReport(
        queries=len(queries),
        all_errors_distinct=all_distinct,
        holdout_accuracies=tuple(accuracies),
    )
