"""Inverse-problem cryptography laboratory.

A smoothing integral operator with rapidly decaying spectrum plays the
role of the public linear map; a small keyed error term blocks naive
inversion.  The package carries the full pipeline: grid discretization,
spectral analysis, message encodings, the symmetric cipher and attacks
on it, desk-scale noisy linear systems, a toy LWE KEM, and the hybrid
public-key composition, plus binary file formats and a CLI.

Each name is imported from the module that defines it, e.g.
`from ipcrypt.symmetric import sym_encrypt`; the package itself only
holds those modules.
"""

from . import attacks, encoding, formats, grid, hso, hybrid, kem, lwe, noise, symmetric

__version__ = "0.1.0"
