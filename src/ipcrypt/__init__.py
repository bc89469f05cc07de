"""Inverse-problem cryptography laboratory.

A smoothing integral operator with rapidly decaying spectrum plays the
role of the public linear map; a small keyed error term blocks naive
inversion.  The package carries the full pipeline: grid discretization,
spectral analysis, message encodings, the symmetric cipher and attacks
on it, desk-scale noisy linear systems, a toy LWE KEM, and the hybrid
public-key composition, plus binary file formats and a CLI.
"""

from . import attacks, encoding, formats, grid, hso, hybrid, kem, lwe, noise, symmetric
from .attacks import (
    AttackReport,
    KnownPlaintextReport,
    Tikhonov,
    Tsvd,
    attack_naive,
    attack_regularized,
    bit_accuracy,
    error_reuse_diff,
    known_plaintext_experiment,
)
from .encoding import EncodingScheme, Message, decode, encode
from .grid import GridFunction, midpoints, norm
from .hso import (
    AmplificationReport,
    DecayClassification,
    SVDFactors,
    build_hso,
    classify_decay,
    filtered_inverse,
    hso_svd,
    naive_inverse_apply,
    noise_amplification_experiment,
)
from .hybrid import HybridCiphertext, pke_decrypt, pke_encrypt, pke_keygen
from .kem import DEFAULT_KEM, KemParams, LweKem, kem_decaps, kem_encaps, kem_keygen, xof_expand
from .lwe import AnalogyReport, LweInstance, LweParams, analogy_report, lwe_brute_force, lwe_gen
from .noise import ErrorKey, ErrorParams, derive_error
from .symmetric import SymCiphertext, recommended_error_params, sym_decrypt, sym_encrypt, sym_keygen

__version__ = "0.1.0"

__all__ = [
    "attacks",
    "encoding",
    "formats",
    "grid",
    "hso",
    "hybrid",
    "kem",
    "lwe",
    "noise",
    "symmetric",
    "AttackReport",
    "KnownPlaintextReport",
    "Tikhonov",
    "Tsvd",
    "attack_naive",
    "attack_regularized",
    "bit_accuracy",
    "error_reuse_diff",
    "known_plaintext_experiment",
    "EncodingScheme",
    "Message",
    "decode",
    "encode",
    "GridFunction",
    "midpoints",
    "norm",
    "AmplificationReport",
    "DecayClassification",
    "SVDFactors",
    "build_hso",
    "classify_decay",
    "filtered_inverse",
    "hso_svd",
    "naive_inverse_apply",
    "noise_amplification_experiment",
    "HybridCiphertext",
    "pke_decrypt",
    "pke_encrypt",
    "pke_keygen",
    "DEFAULT_KEM",
    "KemParams",
    "LweKem",
    "kem_decaps",
    "kem_encaps",
    "kem_keygen",
    "xof_expand",
    "AnalogyReport",
    "LweInstance",
    "LweParams",
    "analogy_report",
    "lwe_brute_force",
    "lwe_gen",
    "ErrorKey",
    "ErrorParams",
    "derive_error",
    "SymCiphertext",
    "recommended_error_params",
    "sym_decrypt",
    "sym_encrypt",
    "sym_keygen",
    "__version__",
]
