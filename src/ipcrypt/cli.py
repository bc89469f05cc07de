"""Command-line laboratory for the operator cipher and its relatives.

Every randomized subcommand takes a master --seed (hex); sub-streams are
derived through the XOF with a per-command label, so equal invocations
produce byte-identical output files.  Exit codes: 0 success, 1 domain
error (bad key file, undecodable input, infeasible parameters), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import attacks, formats, hso, hybrid, lwe, symmetric
from .encoding import EncodingScheme, Message, encode
from .grid import midpoints, norm
from .kem import DESK_PARAMS, kem_keygen, xof_expand
from .noise import CENTERED_BINOMIAL, DISCRETE_GAUSSIAN, ErrorParams

__all__ = ["main", "build_parser"]

_ENCODING_CHOICES = ("map1-fourier", "map1-haar", "map2")


def _hex_bytes(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a hex string: {text!r}") from exc


def _nonce_arg(text: str) -> bytes:
    data = _hex_bytes(text)
    if len(data) != 16:
        raise argparse.ArgumentTypeError(f"nonce must be 16 bytes (32 hex digits), got {len(data)}")
    return data


def _bits_arg(text: str) -> Message:
    """Message bits, either literal 0/1 digits or hex (4 bits per digit).

    A string of only 0s and 1s is taken literally; anything else must be
    valid hex and expands most significant bit first.
    """
    if text and all(c in "01" for c in text):
        bits = text
    elif text and all(c in "0123456789abcdefABCDEF" for c in text):
        bits = "".join(f"{int(c, 16):04b}" for c in text)
    else:
        raise argparse.ArgumentTypeError(
            f"message must be a 0/1 string or hex digits, got {text!r}"
        )
    return Message(tuple(int(c) for c in bits))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _derive_entropy(seed: bytes, label: str) -> int:
    return int.from_bytes(xof_expand(seed + b"/" + label.encode("ascii"), 32), "little")


def _rng_for(seed: bytes, label: str) -> np.random.Generator:
    """Independent reproducible stream for one subcommand."""
    return np.random.default_rng(_derive_entropy(seed, label))


def _trial_rng(seed: bytes, label: str, trial: int) -> np.random.Generator:
    return np.random.default_rng((_derive_entropy(seed, label), trial))


def _scheme_from_args(encoding: str, t: int, n: int) -> EncodingScheme:
    if encoding == "map2":
        return EncodingScheme.map2(t, n)
    return EncodingScheme.map1(t, n, basis=encoding.split("-", 1)[1])


def _write_lines(path: str, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n")


def _amplification_run(
    n: int, sigma: float, trials: int, seed: bytes, label: str
) -> hso.AmplificationReport:
    """Naive-inversion noise amplification on a smooth sine source term."""
    profile = np.sin(2.0 * np.pi * midpoints(n))
    return hso.noise_amplification_experiment(
        hso.build_hso(n), profile, sigma, trials, _derive_entropy(seed, label)
    )


def _cmd_spectrum(args) -> int:
    factors = hso.hso_svd(args.n)
    lines = [f"# singular values of the smoothing operator, n={args.n}", "k,s_k"]
    lines += [f"{k},{float(s)!r}" for k, s in enumerate(factors.singular_values)]
    _write_lines(args.out, lines)
    print(f"wrote {args.n} singular values to {args.out}")
    return 0


def _read_spectrum_csv(path: str) -> np.ndarray:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("k,"):
            continue
        k_text, _, s_text = line.partition(",")
        values[int(k_text)] = float(s_text)
    if not values:
        raise ValueError(f"no spectrum rows found in {path}")
    if sorted(values) != list(range(len(values))):
        raise ValueError(f"spectrum rows in {path} do not cover k = 0..{len(values) - 1}")
    return np.array([values[k] for k in range(len(values))])


def _cmd_classify(args) -> int:
    s = _read_spectrum_csv(args.csv)
    if args.fit_from is not None and args.fit_to is not None:
        fit_range = (args.fit_from, args.fit_to)
    elif args.fit_from is None and args.fit_to is None:
        fit_range = None
    else:
        raise ValueError("--from and --to must be given together")
    result = hso.classify_decay(s, fit_range)
    print(f"kind={result.kind}")
    if result.decay_exponent is not None:
        print(f"decay_exponent={result.decay_exponent!r}")
    if result.decay_rate is not None:
        print(f"decay_rate={result.decay_rate!r}")
    print(f"fit_quality={result.fit_quality!r}")
    print(f"fit_from={result.fit_range[0]}")
    print(f"fit_to={result.fit_range[1]}")
    print(f"low_confidence={result.low_confidence}")
    return 0


def _amplification_lines(report: hso.AmplificationReport, seed: bytes) -> list[str]:
    return [
        f"n={report.n}",
        f"trials={report.trials}",
        f"noise_scale={report.noise_scale!r}",
        f"mean_noise_norm={report.noise_norm!r}",
        f"mean_error_norm={report.naive_error_norm!r}",
        f"mean_amplification={report.amplification_factor!r}",
        f"max_amplification={report.max_amplification!r}",
        f"trials_with_noise={report.trials_with_noise}",
        f"seed={seed.hex()}",
    ]


def _cmd_amplify(args) -> int:
    report = _amplification_run(args.n, args.sigma, args.trials, args.seed, "amplify")
    lines = _amplification_lines(report, args.seed)
    if args.out:
        _write_lines(args.out, lines)
    print("\n".join(lines))
    return 0


def _cmd_encode(args) -> int:
    scheme = _scheme_from_args(args.encoding, args.msg.t, args.n)
    u = encode(args.msg, scheme)
    if args.out:
        y = midpoints(scheme.n)
        lines = [
            f"# encoded message, encoding={args.encoding} t={args.msg.t} n={scheme.n}",
            "i,y,value",
        ]
        lines += [f"{i},{float(y[i])!r},{float(v)!r}" for i, v in enumerate(u)]
        _write_lines(args.out, lines)
    print(f"encoding={args.encoding}")
    print(f"t={args.msg.t}")
    print(f"n={scheme.n}")
    print(f"norm={norm(u)!r}")
    return 0


def _error_params_from_args(args) -> ErrorParams:
    """Both --eta and --sigma go to ErrorParams, which refuses a non-default unread one."""
    distribution = CENTERED_BINOMIAL if args.dist == "binomial" else DISCRETE_GAUSSIAN
    return ErrorParams(
        n=args.n, scale=args.scale, distribution=distribution, eta=args.eta, sigma=args.sigma
    )


def _cmd_keygen_sym(args) -> int:
    params = _error_params_from_args(args)
    key = symmetric.sym_keygen(params, _rng_for(args.seed, "keygen-sym"))
    Path(args.out).write_bytes(formats.write_error_key(key))
    print(f"wrote key to {args.out}")
    print(f"n={params.n}")
    print(f"distribution={params.distribution}")
    print(f"scale={params.scale!r}")
    print(f"seed={args.seed.hex()}")
    return 0


def _cmd_encrypt_sym(args) -> int:
    key = formats.read_error_key(Path(args.key).read_bytes())
    scheme = _scheme_from_args(args.encoding, args.msg.t, key.params.n)
    nonce = args.nonce
    if nonce is None:
        nonce = xof_expand(args.seed + b"/encrypt-sym/nonce", 16)
    ct = symmetric.sym_encrypt(key, args.msg, scheme, nonce)
    Path(args.out).write_bytes(formats.write_sym_ciphertext(ct))
    print(f"wrote ciphertext to {args.out}")
    print(f"t={ct.scheme.t}")
    print(f"n={ct.scheme.n}")
    print(f"nonce={nonce.hex()}")
    return 0


def _cmd_decrypt_sym(args) -> int:
    key = formats.read_error_key(Path(args.key).read_bytes())
    ct = formats.read_sym_ciphertext(Path(args.infile).read_bytes())
    msg = symmetric.sym_decrypt(key, ct)
    print(f"msg={''.join(str(b) for b in msg.bits)}")
    return 0


def _parse_method(text: str):
    if text == "naive":
        return None
    kind, _, value = text.partition(":")
    method = {"tsvd": (attacks.Tsvd, int), "tikhonov": (attacks.Tikhonov, float)}.get(kind)
    if method is not None:
        cls, parse = method
        try:
            number = parse(value)
        except ValueError:
            pass
        else:
            if np.isfinite(number):
                return cls(number)
    raise ValueError(
        f"method must be naive, tsvd:<k>, or tikhonov:<alpha>, got {text!r}"
    )


def _cmd_attack(args) -> int:
    method = _parse_method(args.method)
    params = ErrorParams(n=args.n, scale=args.scale, distribution=CENTERED_BINOMIAL, eta=args.eta)
    scheme = _scheme_from_args(args.encoding, args.t, args.n)
    # The exact inverse reads only n; the filters need the singular values.
    factors = hso.build_hso(args.n) if method is None else hso.hso_svd(args.n)
    rows = []
    accuracies = []
    residuals = []
    for trial in range(args.trials):
        rng = _trial_rng(args.seed, "attack", trial)
        key = symmetric.sym_keygen(params, rng)
        msg = Message.random(args.t, rng)
        ct = symmetric.sym_encrypt(key, msg, scheme, rng.bytes(16))
        if method is None:
            report = attacks.attack_naive(ct, factors, truth=msg)
        else:
            report = attacks.attack_regularized(ct, factors, method, truth=msg)
        rows.append(f"{trial},{report.method},{report.bit_accuracy!r},{report.residual_norm!r}")
        accuracies.append(report.bit_accuracy)
        residuals.append(report.residual_norm)
    if args.out:
        header = [
            f"# attack experiment, method={args.method} n={args.n} t={args.t} "
            f"scale={args.scale!r} eta={args.eta} trials={args.trials} seed={args.seed.hex()}",
            "trial,method,bit_accuracy,residual",
        ]
        _write_lines(args.out, header + rows)
    print(f"method={args.method}")
    print(f"trials={args.trials}")
    print(f"mean_accuracy={float(np.mean(accuracies))!r}")
    print(f"mean_residual={float(np.mean(residuals))!r}")
    print(f"seed={args.seed.hex()}")
    return 0


def _cmd_lwe_demo(args) -> int:
    params = lwe.LweParams(q=args.q, m=args.m, n=args.n, error_bound=args.ebound)
    rows = []
    unique_count = 0
    for trial in range(args.trials):
        rng = _trial_rng(args.seed, "lwe-demo", trial)
        inst = lwe.lwe_gen(params, rng)
        cands = lwe.lwe_brute_force(inst.a_matrix, inst.b, params.q, params.error_bound)
        recovered = tuple(int(x) for x in inst.secret) in cands
        unique = len(cands) == 1
        unique_count += int(unique)
        rows.append(f"{trial},{len(cands)},{int(unique)},{int(recovered)}")
    if args.out:
        header = [
            f"# noisy linear system recovery, q={args.q} m={args.m} n={args.n} "
            f"ebound={args.ebound} trials={args.trials} seed={args.seed.hex()}",
            "trial,candidates,unique,recovered",
        ]
        _write_lines(args.out, header + rows)
    print(f"q={args.q}")
    print(f"m={args.m}")
    print(f"n={args.n}")
    print(f"ebound={args.ebound}")
    print(f"trials={args.trials}")
    print(f"unique_fraction={unique_count / args.trials!r}")
    print(f"seed={args.seed.hex()}")
    return 0


def _cmd_analogy(args) -> int:
    params = lwe.LweParams(q=args.q, m=args.m, n=args.n, error_bound=args.ebound)
    inst = lwe.lwe_gen(params, _trial_rng(args.seed, "analogy/lwe", 0))
    cands = lwe.lwe_brute_force(inst.a_matrix, inst.b, params.q, params.error_bound)
    if len(cands) == 1:
        status = f"unique witness among {len(cands)} consistent candidate(s)"
    else:
        status = f"{len(cands)} consistent candidates, secret not pinned down"

    if args.lwe_only:
        report = lwe.analogy_report(lwe=params, brute_force_status=status)
    else:
        factors = hso.hso_svd(args.grid_n)
        decay = hso.classify_decay(factors.singular_values)
        amp = _amplification_run(
            args.grid_n, args.sigma, args.trials, args.seed, "analogy/amplify"
        )
        report = lwe.analogy_report(
            lwe=params, decay=decay, amplification=amp, brute_force_status=status
        )

    text = report.to_text() + "\n" + report.to_keyvalues() + f"# seed={args.seed.hex()}\n"
    Path(args.out).write_text(text)
    print(report.to_text(), end="")
    print(f"wrote report to {args.out}")
    return 0


def _cmd_kem_keygen(args) -> int:
    pair = kem_keygen(DESK_PARAMS, _rng_for(args.seed, "kem-keygen"))
    Path(args.out_pk).write_bytes(formats.write_kem_public_key(pair.public))
    Path(args.out_sk).write_bytes(formats.write_kem_secret_key(pair.secret))
    print(f"wrote public key to {args.out_pk}")
    print(f"wrote secret key to {args.out_sk}")
    print(f"seed={args.seed.hex()}")
    return 0


def _cmd_pke_encrypt(args) -> int:
    pk = formats.read_kem_public_key(Path(args.pk).read_bytes())
    scheme = _scheme_from_args(args.encoding, args.msg.t, args.n)
    ct = hybrid.pke_encrypt(pk, args.msg, scheme, _rng_for(args.seed, "pke-encrypt"))
    Path(args.out).write_bytes(formats.write_hybrid_ciphertext(ct))
    print(f"wrote hybrid ciphertext to {args.out}")
    print(f"t={args.msg.t}")
    print(f"n={args.n}")
    print(f"seed={args.seed.hex()}")
    return 0


def _cmd_pke_decrypt(args) -> int:
    sk = formats.read_kem_secret_key(Path(args.sk).read_bytes())
    ct = formats.read_hybrid_ciphertext(Path(args.infile).read_bytes())
    msg = hybrid.pke_decrypt(sk, ct)
    print(f"msg={''.join(str(b) for b in msg.bits)}")
    return 0


def _apply_config(argv: list[str]) -> list[str]:
    """Expand `--config file.json` into flags for the invoked subcommand.

    Config entries become flags inserted right after the subcommand, so
    anything given explicitly on the command line still wins (argparse
    keeps the last occurrence).  Keys use flag spelling with dashes or
    underscores; boolean true means a bare switch.
    """
    path = None
    rest: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config needs a file path")
            path = argv[i + 1]
            i += 2
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
            i += 1
        else:
            rest.append(token)
            i += 1
    if path is None:
        return rest
    if not rest or rest[0].startswith("-"):
        raise ValueError("--config requires a subcommand")
    loaded = json.loads(Path(path).read_text())
    if not isinstance(loaded, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    flags: list[str] = []
    for key, value in loaded.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                flags.append(flag)
        else:
            flags.extend([flag, str(value)])
    return [rest[0], *flags, *rest[1:]]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipcrypt",
        description="noise-masked operator cipher, spectral diagnostics, and a toy KEM",
        epilog="any subcommand also accepts --config <file.json> supplying "
        "default flag values (explicit flags override)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=_hex_bytes, default=b"\x00", help="master seed, hex")

    p = sub.add_parser("spectrum", help="singular values of the smoothing operator")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("classify", help="fit mild vs severe decay to a spectrum CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--from", dest="fit_from", type=int, default=None)
    p.add_argument("--to", dest="fit_to", type=int, default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("amplify", help="noise amplification under naive inversion")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--out", default=None)
    add_seed(p)
    p.set_defaults(func=_cmd_amplify)

    p = sub.add_parser("encode", help="embed a bit string as a grid function")
    p.add_argument("--msg", type=_bits_arg, required=True)
    p.add_argument("--encoding", choices=_ENCODING_CHOICES, default="map2")
    p.add_argument("--n", type=_positive_int, default=symmetric.RECOMMENDED_N)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("keygen-sym", help="generate a symmetric error key file")
    p.add_argument("--n", type=_positive_int, default=symmetric.RECOMMENDED_N)
    p.add_argument("--dist", choices=("binomial", "gaussian"), default="binomial")
    p.add_argument("--eta", type=_positive_int, default=2)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--scale", type=float, default=symmetric.RECOMMENDED_SCALE)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_keygen_sym)

    p = sub.add_parser("encrypt-sym", help="encrypt a bit string under a key file")
    p.add_argument("--key", required=True)
    p.add_argument("--msg", type=_bits_arg, required=True)
    p.add_argument("--nonce", type=_nonce_arg, default=None, help="16 bytes hex; derived from --seed if omitted")
    p.add_argument("--encoding", choices=_ENCODING_CHOICES, default="map2")
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_encrypt_sym)

    p = sub.add_parser("decrypt-sym", help="decrypt a ciphertext file")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_decrypt_sym)

    p = sub.add_parser("attack", help="attack experiments against fresh ciphertexts")
    p.add_argument("--method", default="naive", help="naive, tsvd:<k>, or tikhonov:<alpha>")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--n", type=_positive_int, default=symmetric.RECOMMENDED_N)
    p.add_argument("--t", type=_positive_int, default=32)
    p.add_argument("--scale", type=float, default=symmetric.RECOMMENDED_SCALE)
    p.add_argument("--eta", type=_positive_int, default=2)
    p.add_argument("--encoding", choices=_ENCODING_CHOICES, default="map2")
    p.add_argument("--out", default=None)
    add_seed(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("lwe-demo", help="brute-force recovery on desk-scale noisy systems")
    p.add_argument("--q", type=_positive_int, default=17)
    p.add_argument("--m", type=_positive_int, default=3)
    p.add_argument("--n", type=_positive_int, default=12, help="sample count")
    p.add_argument("--ebound", type=int, default=1)
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--out", default=None)
    add_seed(p)
    p.set_defaults(func=_cmd_lwe_demo)

    p = sub.add_parser("analogy", help="aspect-by-aspect report linking both settings")
    p.add_argument("--q", type=_positive_int, default=17)
    p.add_argument("--m", type=_positive_int, default=3)
    p.add_argument("--n", type=_positive_int, default=12, help="sample count")
    p.add_argument("--ebound", type=int, default=1)
    p.add_argument("--grid-n", type=_positive_int, default=symmetric.RECOMMENDED_N)
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--lwe-only", action="store_true", help="omit the operator half")
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_analogy)

    p = sub.add_parser("kem-keygen", help="generate a KEM key pair")
    p.add_argument("--out-pk", required=True)
    p.add_argument("--out-sk", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_kem_keygen)

    p = sub.add_parser("pke-encrypt", help="hybrid public-key encryption")
    p.add_argument("--pk", required=True)
    p.add_argument("--msg", type=_bits_arg, required=True)
    p.add_argument("--encoding", choices=_ENCODING_CHOICES, default="map2")
    p.add_argument("--n", type=_positive_int, default=symmetric.RECOMMENDED_N)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_pke_encrypt)

    p = sub.add_parser("pke-decrypt", help="hybrid public-key decryption")
    p.add_argument("--sk", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_pke_decrypt)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _apply_config(list(argv))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # A file header can claim a grid too large to factor; a bare
        # MemoryError carries no message, so name the type instead.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
