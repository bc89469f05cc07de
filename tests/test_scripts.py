"""The scripts under scripts/ run at a tiny size and print their tables.

No other test imports them, so a library signature change would break
them silently; each is run as a user runs it, in a fresh interpreter.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ipcrypt.kem import KemParams, kem_decaps, kem_encaps, kem_keygen

ROOT = Path(__file__).resolve().parents[1]

# script -> (arguments for a tiny run, a line its table must contain)
SCRIPTS = {
    "kem_noise_margin.py": (["--encaps", "2", "--keys", "1"], "bits kem_decaps got wrong: 0"),
}


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", list(SCRIPTS), ids=[s.removesuffix(".py") for s in SCRIPTS])
def test_script_runs_and_prints_its_table(script):
    args, line = SCRIPTS[script]
    stdout = run_script(script, args)
    assert line in stdout, stdout


def test_kem_noise_margin_sees_no_failure_at_the_desk_set():
    stdout = run_script("kem_noise_margin.py", ["--encaps", "20", "--keys", "2"])
    assert "threshold q/4=832  bits probed=10240" in stdout
    assert "bits past threshold (margin < 0): 0\n" in stdout
    assert "bits kem_decaps got wrong: 0\n" in stdout


def test_kem_noise_margin_counts_every_decoding_failure():
    """At q = 97 decapsulation fails often; each failure is a negative margin.

    Measured to the nearest codeword instead, 106 of these bits read as
    past the threshold while kem_decaps got 308 wrong.
    """
    path = ROOT / "scripts" / "kem_noise_margin.py"
    spec = importlib.util.spec_from_file_location("kem_noise_margin", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    toy = KemParams(q=97, dim=64, secret_bits=64, eta=2)
    margins, flips = script.probe(toy, 3, 50, np.random.default_rng(0))

    rng = np.random.default_rng(0)
    wrong = 0
    for _ in range(3):
        pair = kem_keygen(toy, rng)
        for _ in range(50):
            secret, ct = kem_encaps(pair.public, rng)
            got, want = (
                np.unpackbits(np.frombuffer(s.data, dtype=np.uint8))
                for s in (kem_decaps(pair.secret, ct), secret)
            )
            wrong += int(np.count_nonzero(got != want))
    assert margins.size == 3 * 50 * 64
    assert wrong == 308
    assert flips == int(np.count_nonzero(margins < 0)) == wrong
