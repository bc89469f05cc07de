"""CLI texts pinned as literals: reports, CSV files and every refusal.

Each expected text below was printed by the CLI before its handlers were
rewritten to return their reports, and is committed here unchanged.  The
pinned commands skip BLAS and SIMD-dispatched math, so their bytes are
the same on every host.  The refusals pin exit code 1 and the whole
stderr of every domain error and every `--config` error; a changed text
means a user sees a different message for the same mistake.
"""

import json

import pytest

from ipcrypt.cli import main

LWE_DEMO_STDOUT = """\
q=17
m=3
n=12
ebound=1
trials=5
unique_fraction=1.0
seed=04
"""

LWE_DEMO_CSV = """\
# noisy linear system recovery, q=17 m=3 n=12 ebound=1 trials=5 seed=04
trial,candidates,unique,recovered
0,1,1,1
1,1,1,1
2,1,1,1
3,1,1,1
4,1,1,1
"""

ENCODE_STDOUT = """\
encoding=map2
t=32
n=32
norm=0.75
"""

ENCODE_CSV = """\
# encoded message, encoding=map2 t=32 n=32
i,y,value
0,0.015625,1.0
1,0.046875,1.0
2,0.078125,0.0
3,0.109375,0.0
4,0.140625,0.0
5,0.171875,0.0
6,0.203125,0.0
7,0.234375,0.0
8,0.265625,1.0
9,0.296875,1.0
10,0.328125,1.0
11,0.359375,1.0
12,0.390625,1.0
13,0.421875,1.0
14,0.453125,1.0
15,0.484375,1.0
16,0.515625,1.0
17,0.546875,1.0
18,0.578125,1.0
19,0.609375,0.0
20,0.640625,1.0
21,0.671875,1.0
22,0.703125,1.0
23,0.734375,0.0
24,0.765625,0.0
25,0.796875,1.0
26,0.828125,0.0
27,0.859375,0.0
28,0.890625,0.0
29,0.921875,0.0
30,0.953125,1.0
31,0.984375,0.0
"""

ANALOGY_TABLE = """\
aspect     finite-dimensional                                           operator
Dimension  secret space Z_17^3                                          missing
Data       12 noisy samples b = A s + e mod 17                          missing
Solution   enumeration: unique witness among 1 consistent candidate(s)  missing
Noise      integer error bounded by 1                                   missing
"""

ANALOGY_FILE = ANALOGY_TABLE + """
q=17
secret_dim=3
num_samples=12
error_bound=1
grid_n=missing
amplification_trials=missing
decay_exponent=missing
decay_rate=missing
decay_fit_quality=missing
amplification_mean=missing
amplification_max=missing
noise_scale=missing
brute_force_status=unique witness among 1 consistent candidate(s)
decay_kind=missing
# seed=00
"""

# argv run in the fixture's directory -> the whole stderr; every one exits 1.
REFUSALS = {
    "classify --csv spec.csv --from 10": "--from and --to must be given together",
    "classify --csv spec.csv --to 10": "--from and --to must be given together",
    "classify --csv nope.csv": "[Errno 2] No such file or directory: 'nope.csv'",
    "classify --csv gappy.csv": "spectrum rows in gappy.csv do not cover k = 0..1",
    "classify --csv empty.csv": "no spectrum rows found in empty.csv",
    "classify --csv badfloat.csv": "could not convert string to float: 'abc'",
    "classify --csv zero.csv": "singular values must be positive",
    "classify --csv increasing.csv": "singular values must be nonincreasing",
    "classify --csv spec.csv --from 0 --to 10": "fit range (0, 10) out of bounds for 64 modes",
    "classify --csv spec.csv --from 10 --to 12": "fit range (10, 12) has fewer than 5 modes",
    "amplify --n 64 --sigma nan --trials 2": "noise scale must be finite and nonnegative, got nan",
    "amplify --n 64 --sigma inf --trials 2": "noise scale must be finite and nonnegative, got inf",
    "amplify --n 64 --sigma -1 --trials 2": "noise scale must be finite and nonnegative, got -1.0",
    "encode --msg c0ffee42 --encoding map2 --n 16":
        "map2 needs t | n for exact subinterval cells, got t = 32, n = 16",
    "encode --msg ffffffff --encoding map1-haar --n 8":
        "map1 needs 2^t <= capacity 8 of the n = 8 grid, got t = 32",
    "keygen-sym --eta 600 --out x.ipk": "eta must be in [1, 256], got 600",
    "keygen-sym --dist gaussian --eta 7 --out x.ipk":
        "eta is unused by the Gaussian; keep 2, got 7",
    "keygen-sym --dist binomial --sigma 3 --out x.ipk":
        "sigma is unused by the binomial; keep 1.0, got 3.0",
    "keygen-sym --scale -1 --out x.ipk": "scale must be positive and finite, got -1.0",
    "keygen-sym --n 1048577 --out x.ipk": "grid size must be at most 1048576, got 1048577",
    "encrypt-sym --key nope.ipk --msg ff --out y.ipc":
        "[Errno 2] No such file or directory: 'nope.ipk'",
    "encrypt-sym --key sym.ipc --msg ff --out y.ipc":
        "bad magic for error key: expected b'IPK1', got b'IPC1'",
    "encrypt-sym --key sym.ipk --msg " + "f" * 80 + " --encoding map1-fourier --out y.ipc":
        "map1 needs 2^t <= capacity 63 of the n = 64 grid, got t = 320",
    "decrypt-sym --key sym.ipk --in trunc.ipc":
        "truncated symmetric ciphertext: missing body samples",
    "decrypt-sym --key sym.ipk --in sym.ipk":
        "bad magic for symmetric ciphertext: expected b'IPC1', got b'IPK1'",
    "attack --method qr --trials 2 --n 64":
        "method must be naive, tsvd:<k>, or tikhonov:<alpha>, got 'qr'",
    "attack --method naive qr --trials 2 --n 64":
        "method must be naive, tsvd:<k>, or tikhonov:<alpha>, got 'qr'",
    "attack --method tsvd:abc --trials 2 --n 64":
        "method must be naive, tsvd:<k>, or tikhonov:<alpha>, got 'tsvd:abc'",
    "attack --method tikhonov:inf --trials 2 --n 64":
        "method must be naive, tsvd:<k>, or tikhonov:<alpha>, got 'tikhonov:inf'",
    "attack --method tsvd:0 --trials 2 --n 64": "cutoff must be positive, got 0",
    "attack --method tsvd:1000 --trials 2 --n 64": "cutoff 1000 exceeds 64 modes",
    "attack --trials 2 --n 64 --t 100":
        "map2 needs t | n for exact subinterval cells, got t = 100, n = 64",
    "attack --trials 2 --n 64 --t 8 --encoding map1-haar":
        "map1 needs 2^t <= capacity 64 of the n = 64 grid, got t = 8",
    "lwe-demo --q 16": "modulus must be prime, got 16",
    "lwe-demo --m 3 --n 2": "need at least m = 3 samples, got 2",
    "lwe-demo --ebound 5": "error bound must lie in [0, q/4) = [0, 4.25), got 5",
    "lwe-demo --ebound -1": "error bound must lie in [0, q/4) = [0, 4.25), got -1",
    "lwe-demo --q 101 --m 4 --n 8":
        "search space q^m = 104060401 exceeds the enumeration limit 10000000",
    "analogy --q 15 --out a.txt": "modulus must be prime, got 15",
    "analogy --grid-n 32 --out a.txt": "grid too small for a decay fit: n = 32",
    "pke-decrypt --sk kem.pk --in msg.iph": "expected a KEM secret key file, got kind 0x01",
    "pke-encrypt --pk kem.sk --msg ff --out z.iph": "expected a KEM public key file, got kind 0x02",
    "pke-decrypt --sk kem.sk --in sym.ipc":
        "bad magic for hybrid ciphertext: expected b'IPH1', got b'IPC1'",
    "kem-keygen --out-pk k.pk --out-sk nodir/k.sk":
        "[Errno 2] No such file or directory: 'nodir/k.sk'",
}

CONFIG_REFUSALS = {
    "amplify --config list.json": "config list.json must hold a JSON object",
    "--config list.json": "--config requires a subcommand",
    "--config=list.json --n 4 amplify": "--config requires a subcommand",
    "amplify --config": "--config needs a file path",
    "amplify --config nope.json": "[Errno 2] No such file or directory: 'nope.json'",
    "amplify --config invalid.json":
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    "amplify --config=": "--config needs a file path",
    "amplify --config dir": "[Errno 21] Is a directory: 'dir'",
    "amplify --config amp.json --config list.json": "config list.json must hold a JSON object",
}


# argv -> the last stderr line of an argument-type refusal; every one exits 2.
ARGUMENT_REFUSALS = {
    "keygen-sym --seed zz --out x.ipk":
        "ipcrypt keygen-sym: error: argument --seed: not a hex string: 'zz'",
    "lwe-demo --trials 0": "ipcrypt lwe-demo: error: argument --trials: must be positive, got 0",
}

ANALOGY_UNDERDETERMINED = """\
aspect     finite-dimensional                                             operator
Dimension  secret space Z_5^3                                             missing
Data       3 noisy samples b = A s + e mod 5                              missing
Solution   enumeration: 27 consistent candidates, secret not pinned down  missing
Noise      integer error bounded by 1                                     missing
"""


def run(capsys, command):
    code = main(command.split())
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Input files for the refusals, made once: some by the CLI, some by hand."""
    work = tmp_path_factory.mktemp("texts")
    for command in (
        f"spectrum --n 64 --out {work}/spec.csv",
        f"keygen-sym --n 64 --out {work}/sym.ipk --seed 01",
        f"encrypt-sym --key {work}/sym.ipk --msg a5 --out {work}/sym.ipc --seed 02",
        f"kem-keygen --out-pk {work}/kem.pk --out-sk {work}/kem.sk --seed 03",
        f"pke-encrypt --pk {work}/kem.pk --msg ff --n 64 --out {work}/msg.iph --seed 04",
    ):
        assert main(command.split()) == 0
    (work / "trunc.ipc").write_bytes((work / "sym.ipc").read_bytes()[:40])
    (work / "gappy.csv").write_text("k,s_k\n0,1.0\n2,0.5\n")
    (work / "empty.csv").write_text("# nothing\nk,s_k\n")
    (work / "badfloat.csv").write_text("k,s_k\n0,abc\n")
    (work / "zero.csv").write_text("k,s_k\n" + "".join(f"{k},{19 - k}\n" for k in range(20)))
    (work / "increasing.csv").write_text("k,s_k\n" + "".join(f"{k},{k + 1}\n" for k in range(20)))
    (work / "list.json").write_text(json.dumps([1, 2, 3]))
    (work / "invalid.json").write_text("{not json")
    (work / "dir").mkdir()
    return work


def test_lwe_demo_report_and_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "lwe-demo --trials 5 --seed 04 --out lwe.csv")
    assert (code, out, err) == (0, LWE_DEMO_STDOUT, "")
    assert (tmp_path / "lwe.csv").read_text() == LWE_DEMO_CSV


def test_encode_report_and_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "encode --msg c0ffee42 --encoding map2 --n 32 --out enc.csv")
    assert (code, out, err) == (0, ENCODE_STDOUT, "")
    assert (tmp_path / "enc.csv").read_text() == ENCODE_CSV


def test_analogy_lwe_only_report_and_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "analogy --lwe-only --out analogy.txt")
    assert (code, out, err) == (0, ANALOGY_TABLE + "wrote report to analogy.txt\n", "")
    assert (tmp_path / "analogy.txt").read_text() == ANALOGY_FILE


def test_analogy_reports_a_secret_that_is_not_pinned_down(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "analogy --q 5 --m 3 --n 3 --ebound 1 --lwe-only --out a.txt")
    assert (code, out, err) == (0, ANALOGY_UNDERDETERMINED + "wrote report to a.txt\n", "")
    status = "brute_force_status=27 consistent candidates, secret not pinned down\n"
    assert status in (tmp_path / "a.txt").read_text()


@pytest.mark.parametrize("command", sorted(ARGUMENT_REFUSALS))
def test_argument_refusal_text(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(command.split())
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1] == ARGUMENT_REFUSALS[command]


def test_argument_gates_take_the_edge_values(tmp_path, capsys, monkeypatch):
    """One trial and a hex seed of one byte are the accepted sides of the refusals above."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "lwe-demo --trials 1 --seed 0a")
    assert code == 0 and "trials=1\nunique_fraction=" in out and out.endswith("seed=0a\n")


@pytest.mark.parametrize("command", [*REFUSALS, *CONFIG_REFUSALS])
def test_refusal_text(workdir, capsys, monkeypatch, command):
    monkeypatch.chdir(workdir)
    message = REFUSALS.get(command) or CONFIG_REFUSALS[command]
    assert run(capsys, command) == (1, "", f"error: {message}\n")
