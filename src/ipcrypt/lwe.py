"""Finite-dimensional noisy linear systems over Z_q and the dictionary
between them and the operator cipher.

An instance is b = A s + e mod q with uniform A and s and small e.  At
desk scale the secret is recoverable by enumerating Z_q^m and testing
whether the residual stays inside the error bound; the enumeration is
chunked and refuses search spaces beyond ENUMERATION_LIMIT.  The report
at the bottom lines up both worlds aspect by aspect, as the table
_ASPECTS declares them: Dimension, Data, Solution and Noise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

import numpy as np

from .grid import _integer, _refuse_non_integer
from .hso import AmplificationReport, DecayClassification

__all__ = [
    "LweParams",
    "LweInstance",
    "AnalogyReport",
    "ENUMERATION_LIMIT",
    "centered",
    "lwe_gen",
    "lwe_brute_force",
    "analogy_report",
]

ENUMERATION_LIMIT = 10**7

_MISSING = "missing"


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class LweParams:
    """Modulus q (prime), secret dimension m, sample count n, error bound.

    Each is taken as a plain int; a float or a str is refused.  lwe_gen
    forms A s + e in int64, whose entries reach m (q - 1)^2 + bound, so
    parameters where that reaches 2^63 are refused, before q's primality
    is tested by trial division.
    """

    q: int
    m: int
    n: int
    error_bound: int

    def __post_init__(self) -> None:
        for name in ("q", "m", "n", "error_bound"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.m * (self.q - 1) ** 2 + self.error_bound >= 2**63:
            raise ValueError(
                f"m (q - 1)^2 + error bound must be below 2^63 for int64 arithmetic, "
                f"got q = {self.q}, m = {self.m}, error bound = {self.error_bound}"
            )
        if not _is_prime(self.q):
            raise ValueError(f"modulus must be prime, got {self.q}")
        if self.m < 1:
            raise ValueError(f"secret dimension must be positive, got {self.m}")
        if self.n < self.m:
            raise ValueError(f"need at least m = {self.m} samples, got {self.n}")
        if not 0 <= self.error_bound < self.q / 4:
            raise ValueError(
                f"error bound must lie in [0, q/4) = [0, {self.q / 4}), got {self.error_bound}"
            )


@dataclass(frozen=True, eq=False)
class LweInstance:
    """A sampled system; stores the witness (secret, error) for checking.

    Each array is kept as a read-only int64 copy; arrays that are not of
    an integer type (floats, bools) are refused, not truncated.
    """

    params: LweParams
    a_matrix: np.ndarray
    b: np.ndarray
    secret: np.ndarray
    error: np.ndarray

    def __post_init__(self) -> None:
        p = self.params
        names = ("a_matrix", "b", "secret", "error")
        a, b, s, e = (np.asarray(getattr(self, name)) for name in names)
        if a.shape != (p.n, p.m):
            raise ValueError(f"sample matrix shape {a.shape} != ({p.n}, {p.m})")
        if b.shape != (p.n,) or s.shape != (p.m,) or e.shape != (p.n,):
            raise ValueError("component shapes do not match the parameters")
        for name, arr in zip(names, (a, b, s, e)):
            _refuse_non_integer(arr, f"{name} entries")
        a, b, s, e = (arr.astype(np.int64) for arr in (a, b, s, e))
        for name, arr in (("a_matrix", a), ("b", b), ("secret", s)):
            if np.any(arr < 0) or np.any(arr >= p.q):
                raise ValueError(f"{name} entries must lie in [0, q)")
        if np.any(np.abs(e) > p.error_bound):
            raise ValueError(f"error entries must be bounded by {p.error_bound}")
        if np.any((a @ s + e - b) % p.q != 0):
            raise ValueError("b != A s + e mod q")
        for name, arr in zip(names, (a, b, s, e)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def centered(x, q: int):
    """Centered representative in (-q/2, q/2]; elementwise on arrays."""
    if q < 2:
        raise ValueError(f"modulus must be at least 2, got {q}")
    r = np.mod(x, q)
    out = np.where(r > q // 2, r - q, r)
    if np.isscalar(x):
        return int(out)
    return out.astype(np.int64)


def lwe_gen(params: LweParams, rng: np.random.Generator) -> LweInstance:
    """Uniform A and s, error uniform on centered integers in [-B, B]."""
    a = rng.integers(0, params.q, size=(params.n, params.m), dtype=np.int64)
    s = rng.integers(0, params.q, size=params.m, dtype=np.int64)
    e = rng.integers(-params.error_bound, params.error_bound + 1, size=params.n, dtype=np.int64)
    b = (a @ s + e) % params.q
    return LweInstance(params=params, a_matrix=a, b=b, secret=s, error=e)


def lwe_brute_force(
    a_matrix: np.ndarray, b: np.ndarray, q: int, error_bound: int
) -> list[tuple[int, ...]]:
    """All candidate secrets whose residual stays inside the error bound.

    Enumerates Z_q^m in ascending lexicographic order, in chunks, and
    keeps s with max_i |centered(b_i - (A s)_i)| <= bound.  Refuses when
    q^m exceeds ENUMERATION_LIMIT.
    """
    a = np.asarray(a_matrix, dtype=np.int64)
    bb = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or bb.ndim != 1 or a.shape[0] != bb.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {bb.shape}")
    m = a.shape[1]
    total = q**m
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"search space q^m = {total} exceeds the enumeration limit {ENUMERATION_LIMIT}"
        )
    # Digit weights make chunk index -> candidate tuple lexicographic.
    weights = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    found: list[tuple[int, ...]] = []
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cands = (idx[None, :] // weights[:, None]) % q
        resid = centered(bb[:, None] - a @ cands, q)
        ok = np.flatnonzero(np.max(np.abs(resid), axis=0) <= error_bound)
        found.extend(tuple(int(x) for x in cands[:, j]) for j in ok)
    return found


# The dictionary, one row per aspect: (aspect, finite-dimensional cell,
# operator cell).  A cell names report fields in braces, and {law} is the
# decay law; AnalogyReport.rows fills the templates.
_ASPECTS = (
    ("Dimension", "secret space Z_{q}^{secret_dim}", "function space on [0,1], grid n = {grid_n}"),
    (
        "Data",
        "{num_samples} noisy samples b = A s + e mod {q}",
        "smoothed samples, {decay_kind} singular decay ({law})",
    ),
    (
        "Solution",
        "enumeration: {brute_force_status}",
        "naive inversion amplifies noise x{amplification_mean:.3g} (mean)",
    ),
    ("Noise", "integer error bounded by {error_bound}", "grid error at scale {noise_scale:g}"),
)


def _fill(template: str, values: dict) -> str:
    """The template filled from values, or "missing" when a field it names is None."""
    if any(values[name] is None for name in re.findall(r"\{(\w+)", template)):
        return _MISSING
    return template.format_map(values)


def _show(value) -> str:
    """None as "missing", floats (numpy ones too) by repr, anything else by str."""
    if value is None:
        return _MISSING
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


@dataclass(frozen=True)
class AnalogyReport:
    """Aspect-by-aspect dictionary between the two problem families.

    Every field is optional; absent halves render as explicit "missing"
    markers so a report never silently invents numbers.  All fields are
    primitives, and to_keyvalues writes them losslessly, one key=value
    line per field in declaration order (ints, floats, then strs): None
    as "missing", a float by repr, anything else by str.  The library
    never parses a report back; the tests' parser reads each value by
    its field's annotation.
    """

    q: int | None = None
    secret_dim: int | None = None
    num_samples: int | None = None
    error_bound: int | None = None
    grid_n: int | None = None
    amplification_trials: int | None = None
    decay_exponent: float | None = None
    decay_rate: float | None = None
    decay_fit_quality: float | None = None
    amplification_mean: float | None = None
    amplification_max: float | None = None
    noise_scale: float | None = None
    brute_force_status: str | None = None
    decay_kind: str | None = None

    def _decay_law(self) -> str:
        if self.decay_exponent is not None:
            return f"exponent {self.decay_exponent:.3g}"
        if self.decay_rate is not None:
            return f"rate {self.decay_rate:.3g}"
        return "law unknown"

    def rows(self) -> list[tuple[str, str, str]]:
        """(label, finite-dimensional cell, operator cell) for the table, from _ASPECTS."""
        values = {**vars(self), "law": self._decay_law()}
        return [(aspect, _fill(fin, values), _fill(op, values)) for aspect, fin, op in _ASPECTS]

    def to_text(self) -> str:
        rows = [("aspect", "finite-dimensional", "operator"), *self.rows()]
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        return "\n".join(lines) + "\n"

    def to_keyvalues(self) -> str:
        """One key=value line per field, formatted as the class docstring says."""
        return "".join(f"{f.name}={_show(getattr(self, f.name))}\n" for f in fields(self))


def analogy_report(
    lwe: LweParams | None = None,
    decay: DecayClassification | None = None,
    amplification: AmplificationReport | None = None,
    brute_force_status: str | None = None,
    grid_n: int | None = None,
) -> AnalogyReport:
    """Assemble the dictionary from whichever summaries are at hand."""
    if grid_n is None and amplification is not None:
        grid_n = amplification.n
    return AnalogyReport(
        q=lwe.q if lwe else None,
        secret_dim=lwe.m if lwe else None,
        num_samples=lwe.n if lwe else None,
        error_bound=lwe.error_bound if lwe else None,
        brute_force_status=brute_force_status,
        grid_n=grid_n,
        decay_kind=decay.kind if decay else None,
        decay_exponent=decay.decay_exponent if decay else None,
        decay_rate=decay.decay_rate if decay else None,
        decay_fit_quality=decay.fit_quality if decay else None,
        amplification_mean=amplification.amplification_factor if amplification else None,
        amplification_max=amplification.max_amplification if amplification else None,
        noise_scale=amplification.noise_scale if amplification else None,
        amplification_trials=amplification.trials if amplification else None,
    )
