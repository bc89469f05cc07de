#!/usr/bin/env python3
"""Scan noise amplification of naive inversion across grid resolutions.

For each n the script runs a fixed number of noisy inversion trials and
reports the mean amplification factor alongside the worst-case bound
1/(2*s_min). Because the smallest singular value shrinks like n^-2, each
doubling of n should multiply the factor by about 4; the last column shows
the observed ratio against the previous row.

Usage:
    python3 scripts/amplification_scan.py [--sigma 0.01] [--trials 50]
        [--seed 0] [--n 64 128 ... 16384]
"""

import argparse

import numpy as np

from ipcrypt.grid import midpoints
from ipcrypt.hso import build_hso, hso_svd, noise_amplification_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sigma", type=float, default=0.01)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, nargs="+", default=[64 << i for i in range(9)])
    args = ap.parse_args()

    print(f"sigma={args.sigma}  trials={args.trials}  seed={args.seed}")
    print(f"{'n':>6} {'s_min':>12} {'1/(2 s_min)':>12} "
          f"{'mean amp':>12} {'max amp':>12} {'x prev':>8}")
    prev = None
    for n in args.n:
        profile = np.sin(2.0 * np.pi * midpoints(n))
        result = noise_amplification_experiment(
            build_hso(n), profile, args.sigma, args.trials, args.seed
        )
        s_min = float(hso_svd(n).singular_values[-1])
        ratio = "" if prev is None else f"{result.amplification_factor / prev:8.2f}"
        print(f"{n:>6} {s_min:>12.4e} {1 / (2 * s_min):>12.4e} "
              f"{result.amplification_factor:>12.4e} "
              f"{result.max_amplification:>12.4e} {ratio:>8}")
        prev = result.amplification_factor


if __name__ == "__main__":
    main()
