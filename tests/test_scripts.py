"""The scripts under scripts/ run at a tiny size and print their tables.

No other test imports them, so a library signature change would break
them silently; each is run as a user runs it, in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("amplification_scan.py", ["--n", "64", "128", "--trials", "3"], "1/(2 s_min)"),
        (
            "regularization_sweep.py",
            [
                "--n", "64", "--t", "8", "--trials", "2", "--levels", "4", "--scales", "0.1",
                "--alphas", "1e-4",
            ],
            "scale 0.1",
        ),
        ("kem_noise_margin.py", ["--encaps", "2", "--keys", "1"], "threshold q/4"),
    ],
    ids=["amplification_scan", "regularization_sweep", "kem_noise_margin"],
)
def test_script_runs_and_prints_its_table(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout, proc.stdout
