"""Command-line interface: pipelines, file outputs, exit codes, --config."""

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ipcrypt import symmetric
from ipcrypt.cli import main
from ipcrypt.formats import read_error_key, read_sym_ciphertext
from ipcrypt.hso import hso_svd
from ipcrypt.noise import xof_expand
from report_parsing import report_from_keyvalues

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(stdout):
    """Parse key=value stdout lines into a dict (ignores other lines)."""
    out = {}
    for line in stdout.splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            k, _, v = line.partition("=")
            out[k] = v
    return out


def blocks(stdout, first_key):
    """Split key=value stdout into one ordered dict per report block.

    A block starts at each line whose key is first_key.
    """
    out = []
    for line in stdout.splitlines():
        key, _, value = line.partition("=")
        if key == first_key:
            out.append({})
        out[-1][key] = value
    return out


# ---------------------------------------------------------------- spectrum / classify


def test_spectrum_writes_csv_matching_library(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code, stdout, _ = run(capsys, "spectrum", "--n", "64", "--out", str(out))
    assert code == 0
    assert "wrote 64 singular values" in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "k,s_k"
    assert len(lines) == 2 + 64
    values = np.array([float(ln.split(",")[1]) for ln in lines[2:]])
    np.testing.assert_array_equal(values, hso_svd(64).singular_values)


def test_spectrum_of_a_fine_grid_builds_no_basis(tmp_path, capsys):
    """n = 16384 would need a 2 GB basis; the values alone are O(n)."""
    out = tmp_path / "spec.csv"
    code, stdout, _ = run(capsys, "spectrum", "--n", "16384", "--out", str(out))
    assert code == 0
    assert "wrote 16384 singular values" in stdout
    assert len(out.read_text().splitlines()) == 2 + 16384
    assert "left_vectors" not in vars(hso_svd(16384))


def test_spectrum_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "spectrum", "--n", "48", "--out", str(a))
    run(capsys, "spectrum", "--n", "48", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_classify_pipeline_from_spectrum_file(tmp_path, capsys):
    csv = tmp_path / "spec.csv"
    run(capsys, "spectrum", "--n", "256", "--out", str(csv))
    code, stdout, _ = run(capsys, "classify", "--csv", str(csv))
    assert code == 0
    fields = kv(stdout)
    assert fields["kind"] == "mild"
    assert 1.85 <= float(fields["decay_exponent"]) <= 2.15
    assert "decay_rate" not in fields  # a mild fit has no rate, and None prints no line
    assert fields["fit_from"] == "5"
    assert fields["fit_to"] == "50"
    assert fields["low_confidence"] == "False"


def test_classify_explicit_window(tmp_path, capsys):
    csv = tmp_path / "spec.csv"
    run(capsys, "spectrum", "--n", "256", "--out", str(csv))
    code, stdout, _ = run(capsys, "classify", "--csv", str(csv), "--from", "10", "--to", "40")
    assert code == 0
    assert kv(stdout)["fit_from"] == "10"
    assert kv(stdout)["fit_to"] == "40"


def test_classify_half_window_is_a_domain_error(tmp_path, capsys):
    csv = tmp_path / "spec.csv"
    run(capsys, "spectrum", "--n", "256", "--out", str(csv))
    code, _, stderr = run(capsys, "classify", "--csv", str(csv), "--from", "10")
    assert code == 1
    assert "error:" in stderr and "together" in stderr


def test_classify_missing_file_is_a_domain_error(tmp_path, capsys):
    code, _, stderr = run(capsys, "classify", "--csv", str(tmp_path / "nope.csv"))
    assert code == 1
    assert "error:" in stderr


def test_classify_rejects_gappy_rows(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("k,s_k\n0,1.0\n2,0.5\n")
    code, _, stderr = run(capsys, "classify", "--csv", str(csv))
    assert code == 1
    assert "do not cover" in stderr


@pytest.mark.parametrize("row", ["10,nan", "0,inf"])
def test_classify_refuses_a_non_finite_spectrum(tmp_path, capsys, row):
    """A NaN row used to pass every check and print kind=severe decay_rate=nan."""
    csv = tmp_path / "spec.csv"
    run(capsys, "spectrum", "--n", "64", "--out", str(csv))
    k = row.split(",")[0] + ","
    lines = [row if ln.startswith(k) else ln for ln in csv.read_text().splitlines()]
    csv.write_text("\n".join(lines) + "\n")
    assert run(capsys, "classify", "--csv", str(csv)) == (
        1, "", "error: singular values must be finite\n"
    )


# ---------------------------------------------------------------- amplify


def test_amplify_stdout_file_and_determinism(tmp_path, capsys):
    out = tmp_path / "amp.txt"
    code, stdout, _ = run(
        capsys, "amplify", "--n", "64", "--sigma", "0.01", "--trials", "5",
        "--out", str(out), "--seed", "ab",
    )
    assert code == 0
    fields = kv(stdout)
    assert fields["n"] == "64"
    assert fields["trials_with_noise"] == "5"
    assert float(fields["mean_amplification"]) > 10.0
    assert fields["seed"] == "ab"
    assert out.read_text() == stdout  # file mirrors the printed report
    first = out.read_bytes()
    run(
        capsys, "amplify", "--n", "64", "--sigma", "0.01", "--trials", "5",
        "--out", str(out), "--seed", "ab",
    )
    assert out.read_bytes() == first


AMPLIFY_KEYS = [
    "n", "trials", "noise_scale", "mean_noise_norm", "mean_error_norm",
    "mean_amplification", "max_amplification", "trials_with_noise", "seed",
]


def test_amplify_single_n_prints_the_nine_keys_in_order(capsys):
    code, stdout, _ = run(capsys, "amplify", "--n", "64", "--sigma", "0.01", "--trials", "3")
    assert code == 0
    (block,) = blocks(stdout, "n")
    assert list(block) == AMPLIFY_KEYS


def test_amplify_ratio_per_doubling_is_about_four(capsys):
    """Criterion 2's x4 band through the CLI: s_min ~ n^-2, so each doubling
    multiplies the mean amplification by about 4.  Only keys and the band are
    pinned; the floats go through BLAS dot products and vary by host.
    """
    code, stdout, _ = run(
        capsys, "amplify", "--n", "256", "512", "--sigma", "0.01", "--trials", "100"
    )
    assert code == 0
    first, second = blocks(stdout, "n")
    assert list(first) == AMPLIFY_KEYS
    assert (first["n"], second["n"]) == ("256", "512")
    assert list(second) == AMPLIFY_KEYS[:6] + ["ratio_to_previous"] + AMPLIFY_KEYS[6:]
    ratio = float(second["ratio_to_previous"])
    assert ratio == float(second["mean_amplification"]) / float(first["mean_amplification"])
    assert 2.8 <= ratio <= 5.2


def test_amplify_several_n_are_the_single_runs_plus_ratios(tmp_path, capsys):
    out = tmp_path / "amp.txt"
    code, stdout, _ = run(
        capsys, "amplify", "--n", "64", "32", "--sigma", "0.01", "--trials", "3",
        "--out", str(out),
    )
    assert code == 0
    assert out.read_text() == stdout
    singles = [
        run(capsys, "amplify", "--n", n, "--sigma", "0.01", "--trials", "3")[1]
        for n in ("64", "32")
    ]
    ratio_line = next(line for line in stdout.splitlines() if line.startswith("ratio_to_previous="))
    assert stdout.replace(ratio_line + "\n", "") == "".join(singles)


def test_amplify_without_noise_prints_no_ratio(capsys):
    code, stdout, _ = run(capsys, "amplify", "--n", "64", "128", "--sigma", "0", "--trials", "2")
    assert code == 0
    assert [list(block) for block in blocks(stdout, "n")] == [AMPLIFY_KEYS, AMPLIFY_KEYS]


def test_amplify_rejects_non_finite_sigma(capsys):
    for sigma in ("nan", "inf"):
        code, _, stderr = run(capsys, "amplify", "--n", "64", "--sigma", sigma, "--trials", "2")
        assert code == 1
        assert f"noise scale must be finite and nonnegative, got {sigma}" in stderr


def test_amplify_seed_changes_results(tmp_path, capsys):
    outs = []
    for seed in ("01", "02"):
        out = tmp_path / f"amp{seed}.txt"
        run(
            capsys, "amplify", "--n", "64", "--sigma", "0.01", "--trials", "5",
            "--out", str(out), "--seed", seed,
        )
        outs.append(out.read_text())
    assert outs[0] != outs[1]


# ---------------------------------------------------------------- encode


def test_encode_literal_bits_map2(tmp_path, capsys):
    out = tmp_path / "enc.csv"
    code, stdout, _ = run(
        capsys, "encode", "--msg", "1010", "--n", "8", "--out", str(out)
    )
    assert code == 0
    fields = kv(stdout)
    assert fields["encoding"] == "map2"
    assert fields["t"] == "4"
    assert fields["n"] == "8"
    rows = out.read_text().splitlines()
    assert rows[1] == "i,y,value"
    values = [float(r.split(",")[2]) for r in rows[2:]]
    assert values == [1, 1, 0, 0, 1, 1, 0, 0]


def test_encode_hex_message_expands_msb_first(capsys):
    code, stdout, _ = run(capsys, "encode", "--msg", "de", "--n", "256")
    assert code == 0
    assert kv(stdout)["t"] == "8"  # 0xde -> 11011110
    code, stdout, _ = run(capsys, "encode", "--msg", "0110", "--n", "256")
    assert kv(stdout)["t"] == "4"  # all 0/1 strings stay literal


def test_encode_map1_has_unit_norm(capsys):
    code, stdout, _ = run(
        capsys, "encode", "--msg", "0011", "--encoding", "map1-fourier", "--n", "64"
    )
    assert code == 0
    assert float(kv(stdout)["norm"]) == pytest.approx(1.0, abs=1e-9)


def test_encode_rejects_garbage_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--msg", "10z1"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------- symmetric pipeline


def test_sym_pipeline_roundtrip(tmp_path, capsys):
    key_file = tmp_path / "key.ipk"
    ct_file = tmp_path / "msg.ipc"
    code, stdout, _ = run(capsys, "keygen-sym", "--out", str(key_file), "--seed", "0f")
    assert code == 0
    key = read_error_key(key_file.read_bytes())
    assert key.params.n == 256
    assert kv(stdout)["distribution"] == "centered_binomial"

    code, stdout, _ = run(
        capsys, "encrypt-sym", "--key", str(key_file), "--msg", "10110011",
        "--out", str(ct_file), "--seed", "beef",
    )
    assert code == 0
    assert kv(stdout)["t"] == "8"
    ct = read_sym_ciphertext(ct_file.read_bytes())
    assert ct.nonce == xof_expand(b"\xbe\xef" + b"/encrypt-sym/nonce", 16)

    code, stdout, _ = run(capsys, "decrypt-sym", "--key", str(key_file), "--in", str(ct_file))
    assert code == 0
    assert kv(stdout)["msg"] == "10110011"


def test_sym_pipeline_explicit_nonce(tmp_path, capsys):
    key_file = tmp_path / "key.ipk"
    ct_file = tmp_path / "msg.ipc"
    run(capsys, "keygen-sym", "--out", str(key_file))
    nonce_hex = "00112233445566778899aabbccddeeff"
    code, _, _ = run(
        capsys, "encrypt-sym", "--key", str(key_file), "--msg", "ff",
        "--nonce", nonce_hex, "--out", str(ct_file),
    )
    assert code == 0
    assert read_sym_ciphertext(ct_file.read_bytes()).nonce == bytes.fromhex(nonce_hex)
    code, stdout, _ = run(capsys, "decrypt-sym", "--key", str(key_file), "--in", str(ct_file))
    assert kv(stdout)["msg"] == "11111111"


def test_decrypt_sym_out_of_memory_is_a_domain_error(tmp_path, capsys, monkeypatch):
    """A header claiming a huge grid makes the decrypt run out of memory."""
    key_file = tmp_path / "key.ipk"
    ct_file = tmp_path / "msg.ipc"
    run(capsys, "keygen-sym", "--out", str(key_file))
    run(capsys, "encrypt-sym", "--key", str(key_file), "--msg", "01", "--out", str(ct_file))

    def out_of_memory(key, ct):
        raise MemoryError

    monkeypatch.setattr(symmetric, "sym_decrypt", out_of_memory)
    code, stdout, err = run(capsys, "decrypt-sym", "--key", str(key_file), "--in", str(ct_file))
    assert code == 1
    assert stdout == ""
    assert err == "error: MemoryError\n"


def test_encrypt_sym_rejects_short_nonce(tmp_path, capsys):
    key_file = tmp_path / "key.ipk"
    run(capsys, "keygen-sym", "--out", str(key_file))
    with pytest.raises(SystemExit) as exc:
        main(["encrypt-sym", "--key", str(key_file), "--msg", "01",
              "--nonce", "abcd", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_keygen_sym_gaussian_distribution(tmp_path, capsys):
    key_file = tmp_path / "key.ipk"
    code, stdout, _ = run(
        capsys, "keygen-sym", "--dist", "gaussian", "--sigma", "1.5",
        "--out", str(key_file),
    )
    assert code == 0
    key = read_error_key(key_file.read_bytes())
    assert key.params.distribution == "discrete_gaussian"
    assert key.params.sigma == 1.5


@pytest.mark.parametrize(
    "dist_args",
    [("--eta", "3"), ("--dist", "gaussian", "--sigma", "1.5")],
    ids=["eta3", "gaussian-sigma1.5"],
)
def test_keygen_sym_file_round_trip_beyond_the_default_eta(tmp_path, capsys, dist_args):
    """keygen -> encrypt -> decrypt through files for distributions other than eta = 2."""
    key_file = tmp_path / "key.ipk"
    ct_file = tmp_path / "msg.ipc"
    code, _, _ = run(capsys, "keygen-sym", *dist_args, "--out", str(key_file), "--seed", "31")
    assert code == 0
    params = read_error_key(key_file.read_bytes()).params
    assert (params.eta, params.sigma) == ((3, 1.0) if dist_args[1] == "3" else (2, 1.5))
    for msg in ("a5c3", "0f1e", "ffff"):
        code, _, _ = run(
            capsys, "encrypt-sym", "--key", str(key_file), "--msg", msg,
            "--out", str(ct_file), "--seed", msg,
        )
        assert code == 0
        code, stdout, _ = run(capsys, "decrypt-sym", "--key", str(key_file), "--in", str(ct_file))
        assert code == 0
        assert kv(stdout)["msg"] == format(int(msg, 16), "016b")


def test_keygen_sym_rejects_huge_eta(tmp_path, capsys):
    key_file = tmp_path / "key.ipk"
    code, _, stderr = run(capsys, "keygen-sym", "--eta", "600", "--out", str(key_file))
    assert code == 1
    assert stderr.startswith("error: eta must be in [1, 256], got 600")
    assert not key_file.exists()


@pytest.mark.parametrize(
    "dist_args, message",
    [
        (("--dist", "gaussian", "--eta", "7"), "eta is unused by the Gaussian; keep 2, got 7"),
        (("--dist", "binomial", "--sigma", "3"), "sigma is unused by the binomial; keep 1.0, got 3.0"),
    ],
    ids=["gaussian-eta7", "binomial-sigma3"],
)
def test_keygen_sym_refuses_the_flag_its_distribution_does_not_read(
    tmp_path, capsys, dist_args, message
):
    key_file = tmp_path / "key.ipk"
    code, stdout, stderr = run(
        capsys, "keygen-sym", *dist_args, "--seed", "01", "--out", str(key_file)
    )
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: {message}\n"
    assert not key_file.exists()


def test_keygen_sym_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.ipk", tmp_path / "b.ipk"
    run(capsys, "keygen-sym", "--out", str(a), "--seed", "1234")
    run(capsys, "keygen-sym", "--out", str(b), "--seed", "1234")
    assert a.read_bytes() == b.read_bytes()
    run(capsys, "keygen-sym", "--out", str(b), "--seed", "5678")
    assert a.read_bytes() != b.read_bytes()


# ---------------------------------------------------------------- attack


def test_attack_naive_writes_table(tmp_path, capsys):
    out = tmp_path / "attack.csv"
    code, stdout, _ = run(
        capsys, "attack", "--method", "naive", "--trials", "5", "--n", "64",
        "--t", "8", "--out", str(out),
    )
    assert code == 0
    fields = kv(stdout)
    assert fields["method"] == "naive"
    assert fields["trials"] == "5"
    assert 0.0 <= float(fields["mean_accuracy"]) <= 1.0
    lines = out.read_text().splitlines()
    assert lines[1] == "trial,method,bit_accuracy,residual"
    assert len(lines) == 2 + 5
    assert lines[2].split(",")[1] == "naive"


def test_naive_attack_never_computes_the_singular_system(capsys):
    """The exact inverse reads only n, so a naive run leaves the hso_svd cache untouched."""
    before = hso_svd.cache_info()
    code, _, _ = run(capsys, "attack", "--method", "naive", "--trials", "2", "--n", "96", "--t", "8")
    assert code == 0
    assert hso_svd.cache_info() == before


def test_tikhonov_attack_on_a_fine_grid_is_linear_in_memory(capsys):
    """n = 16384 would need a 2 GiB basis; the Tikhonov solve reads only n.

    The tracemalloc peak stays under 64 * 8n bytes, and the run leaves
    the hso_svd cache untouched.
    """
    n = 16384
    before = hso_svd.cache_info()
    tracemalloc.start()
    try:
        code, stdout, _ = run(
            capsys, "attack", "--method", "tikhonov:1e-4", "--n", str(n), "--trials", "2"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert kv(stdout)["method"] == "tikhonov:1e-4"
    assert peak <= 64 * 8 * n
    assert hso_svd.cache_info() == before


def test_attack_truncated_inversion_beats_naive_at_small_scale(capsys):
    _, naive_out, _ = run(
        capsys, "attack", "--method", "naive", "--trials", "20", "--n", "64",
        "--t", "8", "--scale", "0.01",
    )
    _, tsvd_out, _ = run(
        capsys, "attack", "--method", "tsvd:8", "--trials", "20", "--n", "64",
        "--t", "8", "--scale", "0.01",
    )
    assert float(kv(tsvd_out)["mean_accuracy"]) > float(kv(naive_out)["mean_accuracy"])
    assert "tsvd:8" in kv(tsvd_out)["method"]


def test_attack_several_methods_are_the_single_runs_on_the_same_ciphertexts(tmp_path, capsys):
    methods = ("naive", "tsvd:8", "tikhonov:1e-4")
    common = ("--trials", "4", "--n", "64", "--t", "8", "--seed", "03")
    code, stdout, _ = run(
        capsys, "attack", "--method", *methods, *common, "--out", str(tmp_path / "all.csv")
    )
    assert code == 0
    lines = (tmp_path / "all.csv").read_text().splitlines()
    assert lines[0].startswith("# attack experiment, method=naive tsvd:8 tikhonov:1e-4 n=64 ")
    assert lines[1] == "trial,method,bit_accuracy,residual"
    rows = lines[2:]
    assert [row.split(",")[0] for row in rows] == [str(t) for t in range(4) for _ in methods]

    single_stdouts = []
    for i, method in enumerate(methods):
        out = tmp_path / f"{i}.csv"
        single_stdouts.append(
            run(capsys, "attack", "--method", method, *common, "--out", str(out))[1]
        )
        assert out.read_text().splitlines()[2:] == rows[i :: len(methods)]
    assert stdout == "".join(single_stdouts)


def test_attack_without_tsvd_never_computes_the_singular_system(capsys):
    before = hso_svd.cache_info()
    code, stdout, _ = run(
        capsys, "attack", "--method", "naive", "tikhonov:1e-4", "--trials", "2", "--n", "96",
        "--t", "8",
    )
    assert code == 0
    assert [block["method"] for block in blocks(stdout, "method")] == ["naive", "tikhonov:1e-4"]
    assert hso_svd.cache_info() == before


def test_attack_rejects_bad_method(capsys):
    for method in ("qr", "tsvd:abc", "tikhonov:x", "tikhonov:inf"):
        code, _, stderr = run(capsys, "attack", "--method", method, "--trials", "2", "--n", "64")
        assert code == 1
        assert f"method must be naive, tsvd:<k>, or tikhonov:<alpha>, got {method!r}" in stderr


# ---------------------------------------------------------------- lwe-demo / analogy


def test_lwe_demo_recovers_witness(tmp_path, capsys):
    out = tmp_path / "lwe.csv"
    code, stdout, _ = run(
        capsys, "lwe-demo", "--q", "17", "--m", "2", "--n", "8", "--ebound", "1",
        "--trials", "5", "--out", str(out),
    )
    assert code == 0
    fields = kv(stdout)
    assert fields["q"] == "17" and fields["m"] == "2" and fields["ebound"] == "1"
    assert 0.0 <= float(fields["unique_fraction"]) <= 1.0
    lines = out.read_text().splitlines()
    assert lines[1] == "trial,candidates,unique,recovered"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 5
    assert all(r[3] == "1" for r in rows)  # witness always found


def test_lwe_demo_refuses_oversized_search(capsys):
    code, _, stderr = run(capsys, "lwe-demo", "--q", "101", "--m", "4", "--n", "8")
    assert code == 1
    assert "enumeration limit" in stderr


def test_lwe_demo_refuses_a_modulus_beyond_int64_before_testing_primality(capsys):
    code, stdout, stderr = run(capsys, "lwe-demo", "--q", "10000000000000061")
    assert (code, stdout) == (1, "")
    assert stderr == (
        "error: m (q - 1)^2 + error bound must be below 2^63 for int64 arithmetic, "
        "got q = 10000000000000061, m = 3, error bound = 1\n"
    )


def test_analogy_report_file_parses_back(tmp_path, capsys):
    out = tmp_path / "analogy.txt"
    code, stdout, _ = run(
        capsys, "analogy", "--q", "17", "--m", "2", "--n", "8", "--ebound", "1",
        "--grid-n", "64", "--sigma", "0.01", "--trials", "5", "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("aspect")
    assert "Dimension" in stdout
    assert text.rstrip().endswith("# seed=00")
    rep = report_from_keyvalues(text.split("\n\n", 1)[1])
    assert rep.q == 17 and rep.secret_dim == 2 and rep.num_samples == 8
    assert rep.grid_n == 64
    assert rep.decay_kind == "mild"
    assert rep.amplification_trials == 5
    assert rep.brute_force_status is not None


def test_analogy_lwe_only_leaves_operator_half_missing(tmp_path, capsys):
    out = tmp_path / "analogy.txt"
    code, _, _ = run(
        capsys, "analogy", "--q", "17", "--m", "2", "--n", "8", "--lwe-only",
        "--out", str(out),
    )
    assert code == 0
    rep = report_from_keyvalues(out.read_text().split("\n\n", 1)[1])
    assert rep.q == 17
    assert rep.grid_n is None and rep.decay_kind is None
    assert "missing" in out.read_text()


# ---------------------------------------------------------------- hybrid pipeline


def test_pke_pipeline_roundtrip(tmp_path, capsys):
    pk, sk = tmp_path / "kem.pk", tmp_path / "kem.sk"
    ct = tmp_path / "msg.iph"
    code, stdout, _ = run(
        capsys, "kem-keygen", "--out-pk", str(pk), "--out-sk", str(sk), "--seed", "77",
    )
    assert code == 0
    assert pk.exists() and sk.exists()

    code, stdout, _ = run(
        capsys, "pke-encrypt", "--pk", str(pk), "--msg", "a5c3", "--out", str(ct),
        "--seed", "88",
    )
    assert code == 0
    assert kv(stdout)["t"] == "16"

    code, stdout, _ = run(capsys, "pke-decrypt", "--sk", str(sk), "--in", str(ct))
    assert code == 0
    assert kv(stdout)["msg"] == "1010010111000011"


def test_pke_pipeline_deterministic_files(tmp_path, capsys):
    pk, sk = tmp_path / "kem.pk", tmp_path / "kem.sk"
    run(capsys, "kem-keygen", "--out-pk", str(pk), "--out-sk", str(sk), "--seed", "3141")
    blobs = []
    for name in ("a", "b"):
        ct = tmp_path / f"{name}.iph"
        run(
            capsys, "pke-encrypt", "--pk", str(pk), "--msg", "ffff", "--out", str(ct),
            "--seed", "59",
        )
        blobs.append(ct.read_bytes())
    assert blobs[0] == blobs[1]


def test_kem_keygen_leaves_no_public_key_when_the_secret_key_is_not_written(tmp_path, capsys):
    pk, sk = tmp_path / "k.pk", tmp_path / "nodir" / "k.sk"
    code, stdout, stderr = run(capsys, "kem-keygen", "--out-pk", str(pk), "--out-sk", str(sk))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: [Errno 2] No such file or directory: '{sk}'\n"
    assert not pk.exists() and not sk.exists()


def test_pke_decrypt_wrong_kind_file_is_domain_error(tmp_path, capsys):
    pk, sk = tmp_path / "kem.pk", tmp_path / "kem.sk"
    run(capsys, "kem-keygen", "--out-pk", str(pk), "--out-sk", str(sk))
    code, _, stderr = run(capsys, "pke-decrypt", "--sk", str(pk), "--in", str(pk))
    assert code == 1
    assert "error:" in stderr


# ---------------------------------------------------------------- config file


def test_config_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "amp.json"
    cfg.write_text(json.dumps({"n": 64, "sigma": 0.01, "trials": 3, "seed": "aa"}))
    code, stdout, _ = run(capsys, "amplify", "--config", str(cfg))
    assert code == 0
    assert kv(stdout)["n"] == "64"
    assert kv(stdout)["trials"] == "3"

    code, stdout, _ = run(capsys, "amplify", "--config", str(cfg), "--trials", "2")
    assert code == 0
    assert kv(stdout)["trials"] == "2"  # explicit flag wins


def test_config_boolean_becomes_bare_switch(tmp_path, capsys):
    cfg = tmp_path / "analogy.json"
    cfg.write_text(json.dumps({"lwe_only": True, "m": 2, "n": 8}))
    out = tmp_path / "rep.txt"
    code, _, _ = run(capsys, "analogy", "--config", str(cfg), "--out", str(out))
    assert code == 0
    rep = report_from_keyvalues(out.read_text().split("\n\n", 1)[1])
    assert rep.secret_dim == 2
    assert rep.grid_n is None  # --lwe-only took effect


def test_config_false_boolean_adds_no_switch(tmp_path, capsys):
    cfg = tmp_path / "analogy.json"
    cfg.write_text(json.dumps({"lwe_only": False, "m": 2, "n": 8, "grid_n": 64, "trials": 2}))
    out = tmp_path / "rep.txt"
    code, _, _ = run(capsys, "analogy", "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert report_from_keyvalues(out.read_text().split("\n\n", 1)[1]).grid_n == 64


def test_config_null_leaves_the_flag_at_its_default(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "amp.json"
    cfg.write_text(json.dumps({"n": 64, "sigma": 0.01, "trials": 2, "out": None}))
    code, stdout, _ = run(capsys, "amplify", "--config", str(cfg))
    assert code == 0
    assert [path.name for path in tmp_path.iterdir()] == ["amp.json"]
    assert not stdout.startswith("wrote")


def test_config_list_gives_a_flag_several_values(tmp_path, capsys):
    cfg = tmp_path / "amp.json"
    cfg.write_text(json.dumps({"n": [64, 32], "sigma": 0.01, "trials": 2}))
    code, stdout, _ = run(capsys, "amplify", "--config", str(cfg))
    assert code == 0
    assert [block["n"] for block in blocks(stdout, "n")] == ["64", "32"]

    cfg.write_text(json.dumps({"method": ["naive", "tsvd:4"], "n": 64, "t": 8, "trials": 2}))
    code, stdout, _ = run(capsys, "attack", "--config", str(cfg))
    assert code == 0
    assert [block["method"] for block in blocks(stdout, "method")] == ["naive", "tsvd:4"]


def test_config_list_on_a_single_valued_flag_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "amp.json"
    cfg.write_text(json.dumps({"n": 64, "sigma": [0.01, 0.1], "trials": 2}))
    with pytest.raises(SystemExit) as exc:
        main(["amplify", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unrecognized arguments: 0.1" in capsys.readouterr().err


def test_config_error_paths(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps([1, 2, 3]))
    code, _, stderr = run(capsys, "amplify", "--config", str(cfg))
    assert code == 1
    assert "JSON object" in stderr

    code, _, stderr = run(capsys, "--config", str(cfg))
    assert code == 1
    assert "requires a subcommand" in stderr

    code, _, stderr = run(capsys, "amplify", "--config")
    assert code == 1
    assert "needs a file path" in stderr

    # An empty path is refused, not read as the working directory.
    assert run(capsys, "amplify", "--config", "") == (1, "", "error: --config needs a file path\n")


@pytest.mark.parametrize("value", [{"a": 1}, [64, {"a": 1}], [64, [128]]])
def test_config_refuses_a_nested_value_and_writes_nothing(tmp_path, monkeypatch, capsys, value):
    """An object is not a file name: nothing is written, and the key is named."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "nested.json"
    cfg.write_text(json.dumps({"n": 64, "sigma": 0.01, "trials": 2, "out": value}))
    code, stdout, stderr = run(capsys, "amplify", "--config", str(cfg))
    assert (code, stdout) == (1, "")
    assert stderr == "error: config key 'out' must be a scalar or a list of scalars\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nested.json"]


# ---------------------------------------------------------------- usage errors


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "16"])  # --out missing
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------- installed entry point


def test_module_entry_point_runs(tmp_path):
    out = tmp_path / "spec.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ipcrypt.cli", "spectrum", "--n", "16", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
    assert "wrote 16 singular values" in proc.stdout


def test_console_script_runs():
    """The `ipcrypt` entry point declared in pyproject.toml runs, without installing.

    The child interpreter does what the wrapper that pip generates for a
    console script does: load the declared `module:attr`, set argv[0] to the
    script name and exit with the callable's return value.
    """
    toml = tomllib or pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = toml.load(fh)["project"]["scripts"]["ipcrypt"]
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint(name='ipcrypt', value={target!r}, group='console_scripts').load()\n"
        "sys.argv[0] = 'ipcrypt'\n"
        "sys.exit(main())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "encode", "--msg", "0101", "--n", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "t=4" in proc.stdout


@pytest.mark.skipif(shutil.which("ipcrypt") is None, reason="ipcrypt console script not on PATH")
def test_installed_console_script_runs():
    proc = subprocess.run(
        ["ipcrypt", "encode", "--msg", "0101", "--n", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "t=4" in proc.stdout
