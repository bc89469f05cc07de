#!/usr/bin/env python3
"""Table of regularized-attack bit accuracy versus noise scale.

For each noise scale a fresh key is drawn and `--trials` random messages are
encrypted; every ciphertext is attacked with truncated inversion at each
cutoff level (and optionally ridge-filtered inversion at each alpha). Rows
are cutoff levels, columns are noise scales. Accuracy near 1.0 means the
attack reads the plaintext; near 0.5 means coin flipping. The point of the
table: accuracy can only degrade as the injected noise grows, and the best
cutoff shrinks with the noise level.

Usage:
    python3 scripts/regularization_sweep.py [--scales 0.01 0.1 0.5]
        [--levels 4 8 16 32 64] [--alphas ...] [--trials 200] [--t 8]
        [--n 256] [--seed 20260823]
"""

import argparse

import numpy as np

from ipcrypt.attacks import Tikhonov, Tsvd, attack_regularized
from ipcrypt.encoding import EncodingScheme, Message
from ipcrypt.hso import hso_svd
from ipcrypt.noise import CENTERED_BINOMIAL, ErrorParams
from ipcrypt.symmetric import sym_encrypt, sym_keygen


def sweep(methods, scales, trials, t, n, seed):
    scheme = EncodingScheme.map2(t, n)
    factors = hso_svd(n)
    table = {}
    for scale in scales:
        params = ErrorParams(n=n, scale=scale, distribution=CENTERED_BINOMIAL, eta=2)
        rng = np.random.default_rng(seed)
        key = sym_keygen(params, rng)
        sums = [0.0] * len(methods)
        for _ in range(trials):
            msg = Message.random(t, rng)
            ct = sym_encrypt(key, msg, scheme, rng.bytes(16))
            for i, method in enumerate(methods):
                sums[i] += attack_regularized(
                    ct, factors, method, truth=msg
                ).bit_accuracy
        table[scale] = [s / trials for s in sums]
    return table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scales", type=float, nargs="+", default=[0.01, 0.1, 0.5])
    ap.add_argument("--levels", type=int, nargs="+", default=[4, 8, 16, 32, 64])
    ap.add_argument("--alphas", type=float, nargs="*", default=[])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--t", type=int, default=8)
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--seed", type=int, default=20260823)
    args = ap.parse_args()

    methods = [Tsvd(k=k) for k in args.levels]
    methods += [Tikhonov(alpha=a) for a in args.alphas]
    table = sweep(methods, args.scales, args.trials, args.t, args.n, args.seed)

    print(f"mean bit accuracy over {args.trials} trials "
          f"(t={args.t}, n={args.n}, seed={args.seed})")
    header = f"{'method':>16}" + "".join(f"{f'scale {s}':>12}" for s in args.scales)
    print(header)
    for i, method in enumerate(methods):
        row = f"{method.label:>16}"
        row += "".join(f"{table[s][i]:>12.4f}" for s in args.scales)
        print(row)


if __name__ == "__main__":
    main()
