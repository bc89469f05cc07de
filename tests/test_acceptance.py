"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
Every criterion states its tolerance inline; seeds are frozen so reruns are
bit-identical.
"""

import math

import numpy as np

from ipcrypt.attacks import Tsvd, attack_naive, attack_regularized, decode_difference
from ipcrypt.cli import main as cli_main
from ipcrypt.encoding import EncodingScheme, Message, encode
from ipcrypt.grid import midpoints, norm
from ipcrypt.hso import (
    apply_operator,
    build_hso,
    classify_decay,
    hso_svd,
    noise_amplification_experiment,
)
from ipcrypt.hybrid import HybridCiphertext, pke_decrypt, pke_encrypt, pke_keygen
from ipcrypt.kem import (
    DESK_PARAMS,
    KemCiphertext,
    kem_decaps,
    kem_encaps,
    kem_keygen,
    xof_expand,
)
from ipcrypt.lwe import LweInstance, LweParams, lwe_brute_force, lwe_gen
from ipcrypt.noise import CENTERED_BINOMIAL, ErrorParams
from ipcrypt.symmetric import sym_decrypt, sym_encrypt, sym_keygen

SEED = 20260823


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _profile(n: int):
    return np.sin(2.0 * np.pi * midpoints(n))


def test_criterion_1_spectrum_law(reference_spectrum_2048):
    s = hso_svd(512).singular_values
    result = classify_decay(s, fit_range=(5, 50))
    law = [s[k] * (k * math.pi) ** 2 for k in range(10, 51)]
    oracle_law = [
        reference_spectrum_2048[k] * (k * math.pi) ** 2 for k in range(10, 51)
    ]
    drift = max(
        abs(s[k] - reference_spectrum_2048[k]) / reference_spectrum_2048[k]
        for k in range(10, 51)
    )
    ok = (
        result.kind == "mild"
        and 1.9 <= result.decay_exponent <= 2.1
        and all(1.8 <= v <= 2.2 for v in law)
        and all(1.8 <= v <= 2.2 for v in oracle_law)
        and drift < 0.02
    )
    _report(
        1,
        "spectrum law",
        ok,
        f"kind={result.kind} exponent={result.decay_exponent:.4f} "
        f"s_k*(k*pi)^2 in [{min(law):.4f}, {max(law):.4f}] "
        f"drift vs n=2048 oracle {drift:.2%}",
    )


def test_criterion_2_ill_posedness():
    r256 = noise_amplification_experiment(_profile(256), 0.01, 100, 0)
    r512 = noise_amplification_experiment(_profile(512), 0.01, 100, 0)
    ratio = r512.amplification_factor / r256.amplification_factor
    ok = r256.amplification_factor > 1e3 and 4.0 * 0.7 <= ratio <= 4.0 * 1.3
    _report(
        2,
        "ill-posedness",
        ok,
        f"mean amplification n=256: {r256.amplification_factor:.3g} (> 1e3), "
        f"n=512/n=256 ratio {ratio:.3f} in [2.8, 5.2]",
    )


def test_criterion_3_cipher_correctness():
    rng = np.random.default_rng(SEED)
    params = ErrorParams(n=256, scale=0.5, distribution=CENTERED_BINOMIAL, eta=2)
    failures = []
    for scheme in (
        EncodingScheme.map2(32, 256),
        EncodingScheme.map1(8, 256, basis="haar"),
    ):
        key = sym_keygen(params, rng)
        bad = 0
        for _ in range(1000):
            msg = Message.random(scheme.t, rng)
            ct = sym_encrypt(key, msg, scheme, rng.bytes(16))
            bad += sym_decrypt(key, ct) != msg
        failures.append(bad)
    ok = failures == [0, 0]
    _report(
        3,
        "cipher correctness",
        ok,
        f"decryption failures map2 t=32: {failures[0]}/1000, "
        f"map1 t=8: {failures[1]}/1000",
    )


def test_criterion_4_naive_attack_failure():
    rng = np.random.default_rng(SEED)
    params = ErrorParams(n=256, scale=0.5, distribution=CENTERED_BINOMIAL, eta=2)
    scheme = EncodingScheme.map2(32, 256)
    key = sym_keygen(params, rng)
    factors = hso_svd(256)
    accs = []
    # The expected accuracy is about 0.595 (20000 trials, standard error
    # 0.0006), just inside the band, and the mean of 100 trials (standard
    # deviation 0.009) lands above 0.6 for about a third of seeds; 5000
    # trials bring the standard error to 0.0012.
    for _ in range(5000):
        msg = Message.random(32, rng)
        ct = sym_encrypt(key, msg, scheme, rng.bytes(16))
        accs.append(attack_naive(ct, factors, truth=msg).bit_accuracy)
    mean = float(np.mean(accs))
    ok = 0.4 <= mean <= 0.6
    _report(4, "naive attack failure", ok, f"mean bit accuracy {mean:.4f} in [0.4, 0.6]")


def test_criterion_5_error_reuse_identity():
    rng = np.random.default_rng(SEED)
    params = ErrorParams(n=256, scale=0.5, distribution=CENTERED_BINOMIAL, eta=2)
    scheme = EncodingScheme.map2(8, 256)
    key = sym_keygen(params, rng)
    worst_identity = 0.0
    exact = 0
    trials = 100
    for _ in range(trials):
        nonce = rng.bytes(16)
        m1, m2 = Message.random(8, rng), Message.random(8, rng)
        c1 = sym_encrypt(key, m1, scheme, nonce)
        c2 = sym_encrypt(key, m2, scheme, nonce)
        diff = c1.body.values - c2.body.values
        clean = apply_operator(encode(m1, scheme) - encode(m2, scheme))
        worst_identity = max(worst_identity, norm(diff - clean))
        pattern = decode_difference(diff, scheme)
        exact += pattern == tuple(a - b for a, b in zip(m1.bits, m2.bits))
    ok = worst_identity < 1e-9 and exact == trials
    _report(
        5,
        "error-reuse identity",
        ok,
        f"worst ||(C1-C2) - S(p(m1)-p(m2))|| = {worst_identity:.2e} (< 1e-9), "
        f"bit-difference pattern exact {exact}/{trials}",
    )


def test_criterion_6_regularization_sweep():
    scheme = EncodingScheme.map2(8, 256)
    factors = hso_svd(256)
    levels = (4, 8, 16, 32, 64)
    scales = (0.01, 0.1, 0.5)
    table = {}
    for scale in scales:
        params = ErrorParams(n=256, scale=scale, distribution=CENTERED_BINOMIAL, eta=2)
        rng = np.random.default_rng(SEED)
        key = sym_keygen(params, rng)
        sums = dict.fromkeys(levels, 0.0)
        for _ in range(200):
            msg = Message.random(8, rng)
            ct = sym_encrypt(key, msg, scheme, rng.bytes(16))
            for k in levels:
                sums[k] += attack_regularized(
                    ct, factors, Tsvd(k=k), truth=msg
                ).bit_accuracy
        table[scale] = {k: sums[k] / 200 for k in levels}
    monotone = all(
        table[0.01][k] >= table[0.1][k] >= table[0.5][k] for k in levels
    )
    detail = "; ".join(
        f"k={k}: " + " >= ".join(f"{table[s][k]:.3f}" for s in scales) for k in levels
    )
    _report(6, "regularization sweep", monotone, detail)


def test_criterion_7_lwe_oracle():
    params = LweParams(q=17, m=3, n=12, error_bound=1)
    witness_always = True
    unique = 0
    for trial in range(100):
        rng = np.random.default_rng((SEED, trial))
        inst = lwe_gen(params, rng)
        cands = lwe_brute_force(inst.a_matrix, inst.b, 17, 1)
        witness_always &= tuple(inst.secret) in cands
        unique += len(cands) == 1

    # Noiseless, full-rank by construction: identity block on top.
    rng = np.random.default_rng(SEED + 1)
    p0 = LweParams(q=17, m=3, n=12, error_bound=0)
    singleton = True
    for _ in range(10):
        a = np.vstack(
            [np.eye(3, dtype=np.int64), rng.integers(0, 17, size=(9, 3))]
        )
        s = rng.integers(0, 17, size=3)
        inst = LweInstance(
            params=p0,
            a_matrix=a,
            b=(a @ s) % 17,
            secret=s,
            error=np.zeros(12, dtype=np.int64),
        )
        singleton &= lwe_brute_force(inst.a_matrix, inst.b, 17, 0) == [tuple(s)]

    ok = witness_always and unique >= 95 and singleton
    _report(
        7,
        "noisy-system oracle",
        ok,
        f"witness contained 100/100, unique {unique}/100 (>= 95), "
        f"noiseless full-rank singleton {'yes' if singleton else 'no'}",
    )


def test_criterion_8_kem_and_hybrid():
    rng = np.random.default_rng(SEED)
    kem_failures = 0
    for block in range(10):
        pair = kem_keygen(DESK_PARAMS, rng)
        for _ in range(100):
            secret, ct = kem_encaps(pair.public, rng)
            kem_failures += kem_decaps(pair.secret, ct).data != secret.data

    scheme = EncodingScheme.map2(32, 256)
    pair = pke_keygen(rng)
    pke_failures = 0
    for _ in range(500):
        msg = Message.random(32, rng)
        ct = pke_encrypt(pair.public, msg, scheme, rng)
        pke_failures += pke_decrypt(pair.secret, ct) != msg

    tamper_broken = 0
    for _ in range(100):
        msg = Message.random(32, rng)
        ct = pke_encrypt(pair.public, msg, scheme, rng)
        v = ct.c1.v.copy()
        j = int(rng.integers(0, v.size))
        v[j] = (v[j] + DESK_PARAMS.half_q) % DESK_PARAMS.q
        tampered = HybridCiphertext(c1=KemCiphertext(params=ct.c1.params, u=ct.c1.u, v=v), c2=ct.c2)
        tamper_broken += pke_decrypt(pair.secret, tampered) != msg

    vector_ok = (
        xof_expand(b"", 32).hex()
        == "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
    )
    ok = (
        kem_failures == 0
        and pke_failures == 0
        and tamper_broken >= 99
        and vector_ok
    )
    _report(
        8,
        "KEM and hybrid",
        ok,
        f"encaps/decaps failures {kem_failures}/1000, pke failures "
        f"{pke_failures}/500, tamper broke recovery {tamper_broken}/100 (>= 99), "
        f"SHAKE-256 vector {'ok' if vector_ok else 'MISMATCH'}",
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    def one_run(root):
        root.mkdir()
        stdouts = {}

        def go(label, *argv):
            assert cli_main(list(argv)) == 0, label
            # Writer subcommands echo their --out path; mask the per-run
            # directory so only seed-derived content is compared.
            stdouts[label] = capsys.readouterr().out.replace(str(root), "<root>")

        spec = root / "spec.csv"
        key = root / "key.ipk"
        sct = root / "msg.ipc"
        pk, sk = root / "kem.pk", root / "kem.sk"
        hct = root / "msg.iph"

        go("spectrum", "spectrum", "--n", "64", "--out", str(spec))
        go("classify", "classify", "--csv", str(spec))
        go("amplify", "amplify", "--n", "64", "--sigma", "0.01", "--trials", "5",
           "--seed", "ab", "--out", str(root / "amp.txt"))
        go("encode", "encode", "--msg", "a5", "--n", "64",
           "--out", str(root / "enc.csv"))
        go("keygen-sym", "keygen-sym", "--n", "64", "--seed", "01",
           "--out", str(key))
        go("encrypt-sym", "encrypt-sym", "--key", str(key), "--msg", "10110010",
           "--seed", "02", "--out", str(sct))
        go("decrypt-sym", "decrypt-sym", "--key", str(key), "--in", str(sct))
        go("attack", "attack", "--method", "tsvd:8", "--trials", "3", "--n", "64",
           "--t", "8", "--seed", "03", "--out", str(root / "attack.csv"))
        go("lwe-demo", "lwe-demo", "--q", "17", "--m", "2", "--n", "8",
           "--trials", "3", "--seed", "04", "--out", str(root / "lwe.csv"))
        go("analogy", "analogy", "--q", "17", "--m", "2", "--n", "8",
           "--grid-n", "64", "--trials", "3", "--seed", "05",
           "--out", str(root / "analogy.txt"))
        go("kem-keygen", "kem-keygen", "--seed", "06", "--out-pk", str(pk),
           "--out-sk", str(sk))
        go("pke-encrypt", "pke-encrypt", "--pk", str(pk), "--msg", "c3",
           "--n", "64", "--seed", "07", "--out", str(hct))
        go("pke-decrypt", "pke-decrypt", "--sk", str(sk), "--in", str(hct))

        files = {
            p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()
        }
        return files, stdouts

    files1, stdout1 = one_run(tmp_path / "run1")
    files2, stdout2 = one_run(tmp_path / "run2")
    same_files = files1 == files2
    same_stdout = stdout1 == stdout2
    ok = same_files and same_stdout and len(files1) == 11 and len(stdout1) == 13
    _report(
        9,
        "CLI determinism",
        ok,
        f"{len(files1)} output files byte-identical: {same_files}; "
        f"13 subcommand stdouts identical: {same_stdout}",
    )
