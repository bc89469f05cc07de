"""Command-line laboratory for the operator cipher and its relatives.

Every randomized subcommand takes a master --seed (hex); sub-streams are
derived through the XOF with a per-command label, so equal invocations
produce byte-identical output files.  Exit codes: 0 success, 1 domain
error (bad key file, undecodable input, infeasible parameters), 2 usage.

Each `_cmd_*` handler is a function of its parsed arguments: it writes
only the files its flags name and returns its report as text, and `main`
is the one place that prints to stdout.  Report lines are key=value,
all made by `_report`: floats print by repr, so they read back exactly,
bytes print as hex, and a field that is None is left out.
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


def _show(value) -> str:
    """A value as reports and CSV cells print it: floats by repr, bytes as hex.

    numpy float64 scalars are floats too, and print as plain Python floats.
    """
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, bytes):
        return value.hex()
    return str(value)


def _report(*lines: str, **fields) -> str:
    """The lines, then a key=value line for each field that is not None."""
    lines += tuple(f"{key}={_show(value)}" for key, value in fields.items() if value is not None)
    return "".join(line + "\n" for line in lines)


def _csv(comment: str, header: str, rows) -> str:
    """A `# comment` line, the column header, then one comma-joined line per row."""
    return _report(f"# {comment}", header, *(",".join(map(_show, row)) for row in rows))


def _write(path: str, data: str | bytes, what: str) -> str:
    """Write data to path and return the report line naming what went where."""
    if isinstance(data, str):
        Path(path).write_text(data)
    else:
        Path(path).write_bytes(data)
    return f"wrote {what} to {path}"


def _amplification_run(
    n: int, sigma: float, trials: int, seed: bytes, label: str
) -> hso.AmplificationReport:
    """Naive-inversion noise amplification on a smooth sine source term."""
    profile = np.sin(2.0 * np.pi * midpoints(n))
    entropy = _derive_entropy(seed, label)
    return hso.noise_amplification_experiment(profile, sigma, trials, entropy)


def _cmd_spectrum(args) -> str:
    comment = f"singular values of the smoothing operator, n={args.n}"
    text = _csv(comment, "k,s_k", enumerate(hso.hso_svd(args.n).singular_values))
    return _report(_write(args.out, text, f"{args.n} singular values"))


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


def _cmd_classify(args) -> str:
    s = _read_spectrum_csv(args.csv)
    if (args.fit_from is None) != (args.fit_to is None):
        raise ValueError("--from and --to must be given together")
    fit_range = None if args.fit_from is None else (args.fit_from, args.fit_to)
    result = hso.classify_decay(s, fit_range)
    return _report(
        kind=result.kind, decay_exponent=result.decay_exponent, decay_rate=result.decay_rate,
        fit_quality=result.fit_quality, fit_from=result.fit_range[0], fit_to=result.fit_range[1],
        low_confidence=result.low_confidence,
    )


def _cmd_amplify(args) -> str:
    """One report block per --n, in the given order.

    A block after the first adds its mean amplification over the previous
    block's, unless that is 0 (no trial had noise): about 4 per doubling
    of n, since s_min ~ n^-2.
    """
    blocks, previous = [], None
    for n in args.n:
        report = _amplification_run(n, args.sigma, args.trials, args.seed, "amplify")
        blocks.append(_report(
            n=report.n, trials=report.trials, noise_scale=report.noise_scale,
            mean_noise_norm=report.noise_norm, mean_error_norm=report.naive_error_norm,
            mean_amplification=report.amplification_factor,
            ratio_to_previous=report.amplification_factor / previous if previous else None,
            max_amplification=report.max_amplification,
            trials_with_noise=report.trials_with_noise, seed=args.seed,
        ))
        previous = report.amplification_factor
    text = "".join(blocks)
    if args.out:
        _write(args.out, text, "report")
    return text


def _cmd_encode(args) -> str:
    scheme = _scheme_from_args(args.encoding, args.msg.t, args.n)
    u = encode(args.msg, scheme)
    if args.out:
        comment = f"encoded message, encoding={args.encoding} t={args.msg.t} n={scheme.n}"
        rows = zip(range(scheme.n), midpoints(scheme.n), u)
        _write(args.out, _csv(comment, "i,y,value", rows), "encoded message")
    return _report(encoding=args.encoding, t=args.msg.t, n=scheme.n, norm=norm(u))


def _error_params_from_args(args) -> ErrorParams:
    """Both --eta and --sigma go to ErrorParams, which refuses a non-default unread one."""
    distribution = CENTERED_BINOMIAL if args.dist == "binomial" else DISCRETE_GAUSSIAN
    return ErrorParams(
        n=args.n, scale=args.scale, distribution=distribution, eta=args.eta, sigma=args.sigma
    )


def _cmd_keygen_sym(args) -> str:
    params = _error_params_from_args(args)
    key = symmetric.sym_keygen(params, _rng_for(args.seed, "keygen-sym"))
    return _report(
        _write(args.out, formats.write_error_key(key), "key"),
        n=params.n, distribution=params.distribution, scale=params.scale, seed=args.seed,
    )


def _cmd_encrypt_sym(args) -> str:
    key = formats.read_error_key(Path(args.key).read_bytes())
    scheme = _scheme_from_args(args.encoding, args.msg.t, key.params.n)
    nonce = args.nonce
    if nonce is None:
        nonce = xof_expand(args.seed + b"/encrypt-sym/nonce", 16)
    ct = symmetric.sym_encrypt(key, args.msg, scheme, nonce)
    wrote = _write(args.out, formats.write_sym_ciphertext(ct), "ciphertext")
    return _report(wrote, t=ct.scheme.t, n=ct.scheme.n, nonce=nonce)


def _cmd_decrypt_sym(args) -> str:
    key = formats.read_error_key(Path(args.key).read_bytes())
    ct = formats.read_sym_ciphertext(Path(args.infile).read_bytes())
    return _report(msg="".join(map(str, symmetric.sym_decrypt(key, ct).bits)))


def _parse_method(text: str):
    if text == "naive":
        return attacks.Naive()
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
    raise ValueError(f"method must be naive, tsvd:<k>, or tikhonov:<alpha>, got {text!r}")


def _cmd_attack(args) -> str:
    """Every --method on each trial's ciphertext; one report block per method.

    The ciphertext's grid picks each method's operator.  Rows are
    trial-major, so method i's rows are rows[i::len(methods)].
    """
    methods = [_parse_method(text) for text in args.method]
    params = ErrorParams(n=args.n, scale=args.scale, distribution=CENTERED_BINOMIAL, eta=args.eta)
    scheme = _scheme_from_args(args.encoding, args.t, args.n)
    rows = []
    for trial in range(args.trials):
        rng = _trial_rng(args.seed, "attack", trial)
        key = symmetric.sym_keygen(params, rng)
        msg = Message.random(args.t, rng)
        ct = symmetric.sym_encrypt(key, msg, scheme, rng.bytes(16))
        for report in attacks.attack(ct, methods, truth=msg):
            rows.append((trial, report.method, report.bit_accuracy, report.residual_norm))
    if args.out:
        comment = (
            f"attack experiment, method={' '.join(args.method)} n={args.n} t={args.t} "
            f"scale={args.scale!r} eta={args.eta} trials={args.trials} seed={args.seed.hex()}"
        )
        _write(args.out, _csv(comment, "trial,method,bit_accuracy,residual", rows), "table")
    return "".join(
        _report(
            method=text, trials=args.trials,
            mean_accuracy=float(np.mean([row[2] for row in rows[i :: len(methods)]])),
            mean_residual=float(np.mean([row[3] for row in rows[i :: len(methods)]])),
            seed=args.seed,
        )
        for i, text in enumerate(args.method)
    )


def _lwe_params(args) -> lwe.LweParams:
    return lwe.LweParams(q=args.q, m=args.m, n=args.n, error_bound=args.ebound)


def _cmd_lwe_demo(args) -> str:
    params = _lwe_params(args)
    rows = []
    for trial in range(args.trials):
        inst = lwe.lwe_gen(params, _trial_rng(args.seed, "lwe-demo", trial))
        cands = lwe.lwe_brute_force(inst.a_matrix, inst.b, params.q, params.error_bound)
        recovered = tuple(int(x) for x in inst.secret) in cands
        rows.append((trial, len(cands), int(len(cands) == 1), int(recovered)))
    if args.out:
        comment = (
            f"noisy linear system recovery, q={args.q} m={args.m} n={args.n} "
            f"ebound={args.ebound} trials={args.trials} seed={args.seed.hex()}"
        )
        _write(args.out, _csv(comment, "trial,candidates,unique,recovered", rows), "table")
    return _report(
        q=args.q, m=args.m, n=args.n, ebound=args.ebound, trials=args.trials,
        unique_fraction=sum(row[2] for row in rows) / args.trials, seed=args.seed,
    )


def _cmd_analogy(args) -> str:
    params = _lwe_params(args)
    inst = lwe.lwe_gen(params, _trial_rng(args.seed, "analogy/lwe", 0))
    cands = lwe.lwe_brute_force(inst.a_matrix, inst.b, params.q, params.error_bound)
    if len(cands) == 1:
        status = f"unique witness among {len(cands)} consistent candidate(s)"
    else:
        status = f"{len(cands)} consistent candidates, secret not pinned down"

    decay = amp = None
    if not args.lwe_only:
        decay = hso.classify_decay(hso.hso_svd(args.grid_n).singular_values)
        amp = _amplification_run(args.grid_n, args.sigma, args.trials, args.seed, "analogy/amplify")
    report = lwe.analogy_report(params, decay, amp, brute_force_status=status)

    text = report.to_text() + "\n" + report.to_keyvalues() + f"# seed={args.seed.hex()}\n"
    return report.to_text() + _report(_write(args.out, text, "report"))


def _cmd_kem_keygen(args) -> str:
    pair = kem_keygen(DESK_PARAMS, _rng_for(args.seed, "kem-keygen"))
    secret = formats.write_kem_secret_key(pair.secret)
    wrote = _write(args.out_pk, formats.write_kem_public_key(pair.public), "public key")
    try:
        return _report(wrote, _write(args.out_sk, secret, "secret key"), seed=args.seed)
    except BaseException:
        # A public key whose secret key was never written is of no use.
        Path(args.out_pk).unlink(missing_ok=True)
        raise


def _cmd_pke_encrypt(args) -> str:
    pk = formats.read_kem_public_key(Path(args.pk).read_bytes())
    scheme = _scheme_from_args(args.encoding, args.msg.t, args.n)
    ct = hybrid.pke_encrypt(pk, args.msg, scheme, _rng_for(args.seed, "pke-encrypt"))
    wrote = _write(args.out, formats.write_hybrid_ciphertext(ct), "hybrid ciphertext")
    return _report(wrote, t=args.msg.t, n=args.n, seed=args.seed)


def _cmd_pke_decrypt(args) -> str:
    sk = formats.read_kem_secret_key(Path(args.sk).read_bytes())
    ct = formats.read_hybrid_ciphertext(Path(args.infile).read_bytes())
    return _report(msg="".join(map(str, hybrid.pke_decrypt(sk, ct).bits)))


def _apply_config(argv: list[str]) -> list[str]:
    """Expand `--config file.json` into flags for the invoked subcommand.

    Config entries become flags inserted right after the subcommand, so
    anything given explicitly on the command line still wins (argparse
    keeps the last occurrence).  Keys use flag spelling with dashes or
    underscores; boolean true means a bare switch, false and null leave
    the flag at its default, and a list of scalars gives the flag several
    values.  An object, or a list holding an object or a list, is refused.
    """
    path, rest, tokens = None, [], iter(argv)
    for token in tokens:
        if token == "--config":
            path = next(tokens, None)
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
        else:
            rest.append(token)
            continue
        # An empty path would name the working directory.
        if not path:
            raise ValueError("--config needs a file path")
    if path is None:
        return rest
    if not rest or rest[0].startswith("-"):
        raise ValueError("--config requires a subcommand")
    loaded = json.loads(Path(path).read_text())
    if not isinstance(loaded, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    flags: list[str] = []
    for key, value in loaded.items():
        if value is None or value is False:
            continue
        flag = "--" + str(key).replace("_", "-")
        values = value if isinstance(value, list) else [value]
        if any(isinstance(v, (dict, list)) for v in values):
            raise ValueError(f"config key {key!r} must be a scalar or a list of scalars")
        if value is True:
            flags.append(flag)
        else:
            flags += [flag, *map(str, values)]
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

    lwe_flags = argparse.ArgumentParser(add_help=False)
    lwe_flags.add_argument("--q", type=_positive_int, default=17)
    lwe_flags.add_argument("--m", type=_positive_int, default=3)
    lwe_flags.add_argument("--n", type=_positive_int, default=12, help="sample count")
    lwe_flags.add_argument("--ebound", type=int, default=1)

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
    p.add_argument("--n", type=_positive_int, nargs="+", required=True)
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
    p.add_argument(
        "--method", nargs="+", default=["naive"], help="naive, tsvd:<k>, or tikhonov:<alpha>"
    )
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--n", type=_positive_int, default=symmetric.RECOMMENDED_N)
    p.add_argument("--t", type=_positive_int, default=32)
    p.add_argument("--scale", type=float, default=symmetric.RECOMMENDED_SCALE)
    p.add_argument("--eta", type=_positive_int, default=2)
    p.add_argument("--encoding", choices=_ENCODING_CHOICES, default="map2")
    p.add_argument("--out", default=None)
    add_seed(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser(
        "lwe-demo", parents=[lwe_flags], help="brute-force recovery on desk-scale noisy systems"
    )
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--out", default=None)
    add_seed(p)
    p.set_defaults(func=_cmd_lwe_demo)

    p = sub.add_parser(
        "analogy", parents=[lwe_flags], help="aspect-by-aspect report linking both settings"
    )
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_apply_config(argv))
        report = args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # A file header can claim a grid too large to factor; a bare
        # MemoryError carries no message, so name the type instead.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    print(report, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
