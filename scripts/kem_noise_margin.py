#!/usr/bin/env python3
"""Probe how close KEM decapsulation comes to a decoding error.

Decapsulation reads bit 1 where the statistic c = v - S^T u mod q lies in
[q//4 + 1, q - q//4 - 1], the interval kem._threshold tests, and bit 0
where it lies outside. The script runs many encapsulations and measures,
for every bit of the returned secret (little endian within each byte, as
kem_encaps packs them), how far c lies inside the interval of that bit's
value: a negative margin is a bit that decoded wrong. It also counts the
bits where kem_decaps disagrees with the secret, which must be the same
number. A large minimum margin explains why the correctness criterion
sees zero failures in a thousand runs.

Usage:
    python3 scripts/kem_noise_margin.py [--encaps 200] [--keys 5] [--seed 0]
"""

import argparse

import numpy as np

from ipcrypt.kem import DESK_PARAMS, KemParams, kem_decaps, kem_encaps, kem_keygen


def _bits(secret) -> np.ndarray:
    return np.unpackbits(np.frombuffer(secret.data, dtype=np.uint8), bitorder="little")


def probe(params: KemParams, keys: int, encaps: int, rng: np.random.Generator):
    """Margin of every encapsulated bit, and how many bits kem_decaps got wrong."""
    q = params.q
    lo, hi = q // 4 + 1, q - q // 4 - 1
    margins = []
    flips = 0
    for _ in range(keys):
        pair = kem_keygen(params, rng)
        for _ in range(encaps):
            secret, ct = kem_encaps(pair.public, rng)
            bits = _bits(secret)
            c = (ct.v - pair.secret.s.T @ ct.u) % q
            # Bit 1 needs lo <= c <= hi; bit 0 needs the centered |c| <= q//4.
            inside_one = np.minimum(c - lo, hi - c)
            inside_zero = q // 4 - np.minimum(c, q - c)
            margins.append(np.where(bits == 1, inside_one, inside_zero))
            flips += int(np.count_nonzero(_bits(kem_decaps(pair.secret, ct)) != bits))
    return np.concatenate(margins), flips


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--encaps", type=int, default=200, help="encapsulations per key")
    ap.add_argument("--keys", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    margins, flips = probe(DESK_PARAMS, args.keys, args.encaps, np.random.default_rng(args.seed))
    print(f"q={DESK_PARAMS.q}  threshold q/4={DESK_PARAMS.q // 4}  bits probed={margins.size}")
    print(f"min margin : {int(margins.min())}")
    print(f"mean margin: {float(margins.mean()):.1f}")
    for p in (0.001, 0.01, 0.1, 1.0, 50.0):
        print(f"p{p:g} margin: {int(np.percentile(margins, p))}")
    print(f"bits past threshold (margin < 0): {int((margins < 0).sum())}")
    print(f"bits kem_decaps got wrong: {flips}")


if __name__ == "__main__":
    main()
