"""The README names what the code has: every subcommand, every script,
and only command lines that the CLI parses."""

import re
import shlex
from pathlib import Path

from ipcrypt.cli import build_parser
from test_scripts import SCRIPTS

ROOT = Path(__file__).resolve().parents[1]


def section(title: str) -> str:
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_cli_table_names_exactly_the_registered_subcommands():
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    rows = [line for line in section("CLI").splitlines() if line.startswith("| `")]
    named = [name for row in rows for name in re.findall(r"`([a-z0-9-]+)`", row.split("|")[1])]
    assert sorted(named) == sorted(subparsers.choices)


def test_experiments_block_names_exactly_the_scripts_the_tests_run():
    named = re.findall(r"python3 scripts/(\S+\.py)", section("Experiments"))
    on_disk = [path.name for path in (ROOT / "scripts").glob("*.py")]
    assert sorted(named) == sorted(on_disk) == sorted(SCRIPTS)


def test_every_readme_command_line_parses():
    text = (ROOT / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL)
        for line in block.splitlines()
        if line.startswith("ipcrypt ")
    ]
    assert len(lines) >= 10
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])
