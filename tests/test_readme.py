"""The README names what the code has: every subcommand, only command
lines that the CLI parses, and Python one-liners that run."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from ipcrypt.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def section(title: str) -> str:
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_cli_table_names_exactly_the_registered_subcommands():
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    rows = [line for line in section("CLI").splitlines() if line.startswith("| `")]
    named = [name for row in rows for name in re.findall(r"`([a-z0-9-]+)`", row.split("|")[1])]
    assert sorted(named) == sorted(subparsers.choices)


def sh_lines(prefix: str) -> list[str]:
    text = (ROOT / "README.md").read_text()
    return [
        line
        for block in re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL)
        for line in block.splitlines()
        if line.startswith(prefix)
    ]


def test_every_readme_command_line_parses():
    lines = sh_lines("ipcrypt ")
    assert len(lines) >= 10
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_every_readme_python_one_liner_runs():
    """Each `python3 -c` line runs as written, in a fresh interpreter on the checkout."""
    lines = sh_lines("python3 -c ")
    assert lines
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for line in lines:
        argv = [sys.executable, *shlex.split(line, comments=True)[1:]]
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (line, proc.stderr)
