"""The benchmark's workloads: inputs made from the seed, one op, its checks.

Each workload is driven as a closed loop with one client: the next op
starts when the previous one has returned and been checked.  Keys,
messages and nonces come from a ``numpy`` generator seeded with the
workload seed, so the library only ever sees generated inputs, and one
seed always gives the same inputs in the same order.

An op calls the library through module attributes (``symmetric.sym_encrypt``
rather than a name bound at import), so the tracer's wrappers see the
calls.  ``check`` runs outside the timed interval and returns False on a
wrong output; the runner counts that, and any exception, as a failure.
"""

from __future__ import annotations

import math

import numpy as np

from ipcrypt import attacks, formats, hso, hybrid, symmetric
from ipcrypt.encoding import EncodingScheme, Message, map1_capacity
from ipcrypt.noise import ErrorKey


def map1_bits(n: int, basis: str) -> int:
    """Message length t = floor(log2(map1_capacity(n, basis))).

    The largest t whose every message maps to a basis index inside the
    grid capacity: fourier t = 7 and haar t = 8 at n = 256.
    """
    return map1_capacity(n, basis).bit_length() - 1


def _message(rng: np.random.Generator, t: int) -> Message:
    return Message(tuple(int(b) for b in rng.integers(0, 2, size=t)))


class SymRoundTrip:
    """sym_encrypt -> write_sym_ciphertext -> read_sym_ciphertext -> sym_decrypt."""

    rotate_every = 0

    def __init__(self, seed: int, n: int, t: int, mixed: bool) -> None:
        self.n = n
        self.rng = np.random.default_rng(seed)
        self.key = ErrorKey(seed=self.rng.bytes(32), params=symmetric.recommended_error_params(n=n))
        map2 = EncodingScheme.map2(t, n)
        if mixed:
            # Three quarters map2; the rest alternate the two map1 bases.
            fourier = EncodingScheme.map1(map1_bits(n, "fourier"), n, "fourier")
            haar = EncodingScheme.map1(map1_bits(n, "haar"), n, "haar")
            self.schemes = (map2, map2, map2, fourier, map2, map2, map2, haar)
        else:
            self.schemes = (map2,)

    def setup(self) -> None:
        pass

    def make_input(self, i: int):
        scheme = self.schemes[i % len(self.schemes)]
        return scheme, _message(self.rng, scheme.t), self.rng.bytes(16)

    def op(self, inp):
        scheme, msg, nonce = inp
        ct = symmetric.sym_encrypt(self.key, msg, scheme, nonce)
        blob = formats.write_sym_ciphertext(ct)
        parsed = formats.read_sym_ciphertext(blob)
        return blob, parsed, symmetric.sym_decrypt(self.key, parsed)

    def check(self, inp, out) -> bool:
        _, msg, _ = inp
        blob, parsed, plain = out
        return plain == msg and formats.write_sym_ciphertext(parsed) == blob

    @staticmethod
    def blob_bytes(out) -> int:
        return len(out[0])


class KernelReference:
    """Spectral inversion built here from the kernel definition, not the library.

    A[i, j] = h exp(-|y_i - y_j|) on the midpoint grid, decomposed with
    numpy.linalg.eigh; every inversion is the filter-factor sum
    sum_k phi(s_k) <c, v_k> v_k (naive 1/s, TSVD 1/s on the k largest
    modes, Tikhonov s/(s^2 + alpha)).
    """

    # Two inversions of the same ciphertext agree to about cond(A) * eps of
    # the largest entry; cells whose mean sits closer than this share of it
    # to the 1/2 threshold may decode either way and are not compared.
    AMBIGUOUS = 1e-6
    RESIDUAL_RTOL = 1e-6

    def __init__(self, n: int) -> None:
        h = 1.0 / n
        y = (np.arange(n) + 0.5) * h
        w, v = np.linalg.eigh(h * np.exp(-np.abs(y[:, None] - y[None, :])))
        order = np.argsort(w)[::-1]
        self.s, self.v, self.h = w[order], v[:, order], h

    def filter(self, method) -> np.ndarray:
        s = self.s
        if method is None:
            return 1.0 / s
        if isinstance(method, attacks.Tsvd):
            return np.where(np.arange(s.size) < method.k, 1.0 / s, 0.0)
        return s / (s * s + method.alpha)

    def agrees(self, body: np.ndarray, method, t: int, truth: Message, report) -> bool:
        inverted = self.v @ (self.filter(method) * (self.v.T @ body))
        means = inverted.reshape(t, -1).mean(axis=1)
        clear = np.abs(means - 0.5) > self.AMBIGUOUS * np.max(np.abs(inverted))
        bits = np.asarray(report.recovered.bits)
        if np.any(bits[clear] != (means[clear] >= 0.5)):
            return False
        profile = np.repeat(np.asarray(truth.bits, dtype=np.float64), inverted.size // t)
        residual = math.sqrt(self.h) * np.linalg.norm(inverted - profile)
        return math.isclose(report.residual_norm, residual, rel_tol=self.RESIDUAL_RTOL)


class AttackTrial:
    """One trial of ``ipcrypt attack``: fresh key and message, three attacks."""

    rotate_every = 0
    # Trials i with i % REFERENCE_EVERY == REFERENCE_EVERY // 2 are also
    # checked against KernelReference.
    REFERENCE_EVERY = 16

    def __init__(self, seed: int, n: int, t: int) -> None:
        self.n, self.t = n, t
        self.rng = np.random.default_rng(seed)
        self.params = symmetric.recommended_error_params(n=n)
        self.scheme = EncodingScheme.map2(t, n)
        self.methods = (None, attacks.Tsvd(8), attacks.Tikhonov(1e-4))
        self.factors = None
        self.reference = None

    def setup(self) -> None:
        self.factors = hso.hso_svd(self.n)

    def make_input(self, i: int):
        key = ErrorKey(seed=self.rng.bytes(32), params=self.params)
        return i, key, _message(self.rng, self.t), self.rng.bytes(16)

    def op(self, inp):
        _, key, msg, nonce = inp
        ct = symmetric.sym_encrypt(key, msg, self.scheme, nonce)
        reports = []
        for method in self.methods:
            if method is None:
                reports.append(attacks.attack_naive(ct, self.factors, truth=msg))
            else:
                reports.append(attacks.attack_regularized(ct, self.factors, method, truth=msg))
        return ct, reports

    def check(self, inp, out) -> bool:
        i, _, msg, _ = inp
        ct, reports = out
        for report in reports:
            if report.recovered.t != self.t or not math.isfinite(report.residual_norm):
                return False
            agree = sum(a == b for a, b in zip(report.recovered.bits, msg.bits))
            if report.bit_accuracy != agree / self.t:
                return False
        if i % self.REFERENCE_EVERY != self.REFERENCE_EVERY // 2:
            return True
        if self.reference is None:
            self.reference = KernelReference(self.n)
        body = np.asarray(ct.body.values)
        return all(
            self.reference.agrees(body, method, self.t, msg, report)
            for method, report in zip(self.methods, reports)
        )

    @staticmethod
    def blob_bytes(out) -> int:
        return 0


class PkeRoundTrip:
    """pke_encrypt -> write/read_hybrid_ciphertext -> pke_decrypt, keys rotated."""

    rotate_every = 64

    def __init__(self, seed: int, n: int, t: int) -> None:
        self.n = n
        self.rng = np.random.default_rng(seed)
        self.scheme = EncodingScheme.map2(t, n)
        self.public = None
        self.secret = None

    def setup(self) -> None:
        pass

    def rotate(self):
        """New KEM key pair; the public key goes through its IPQ1 file form."""
        pair = hybrid.pke_keygen(self.rng)
        blob = formats.write_kem_public_key(pair.public)
        return pair, blob, formats.read_kem_public_key(blob)

    def accept_rotation(self, out) -> bool:
        pair, blob, public = out
        self.public, self.secret = public, pair.secret
        return formats.write_kem_public_key(public) == blob

    def make_input(self, i: int):
        return _message(self.rng, self.scheme.t)

    def op(self, msg):
        ct = hybrid.pke_encrypt(self.public, msg, self.scheme, rng=self.rng)
        blob = formats.write_hybrid_ciphertext(ct)
        parsed = formats.read_hybrid_ciphertext(blob)
        return blob, parsed, hybrid.pke_decrypt(self.secret, parsed)

    def check(self, msg, out) -> bool:
        blob, parsed, plain = out
        return plain == msg and formats.write_hybrid_ciphertext(parsed) == blob

    @staticmethod
    def blob_bytes(out) -> int:
        return len(out[0])


WORKLOADS = {
    "sym-n256": lambda seed: SymRoundTrip(seed, n=256, t=32, mixed=True),
    "sym-n2048": lambda seed: SymRoundTrip(seed, n=2048, t=64, mixed=False),
    "attack-n256": lambda seed: AttackTrial(seed, n=256, t=32),
    "pke-n256": lambda seed: PkeRoundTrip(seed, n=256, t=32),
}
