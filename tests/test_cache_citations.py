"""Every cache in the library names the measurement that keeps it.

Each `lru_cache` and `cached_property` in src/ipcrypt must have a
docstring that names a BENCH_*.json file at the repository root and, in
backticks, a row label that appears as a value in one of that file's
rows.  A cache then lands with the traffic that justifies it, or not at
all.
"""

import ast
import json
import re
from pathlib import Path

import pytest

import ipcrypt

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(ipcrypt.__file__).parent
CACHE_DECORATORS = {"lru_cache", "cached_property"}


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def library_caches() -> dict[str, str]:
    """module.function -> docstring, for every cache-decorated function."""
    caches = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                _decorator_name(d) in CACHE_DECORATORS for d in node.decorator_list
            ):
                caches[f"{path.stem}.{node.name}"] = ast.get_docstring(node) or ""
    return caches


def row_labels(bench_file: str) -> set[str]:
    rows = json.loads((ROOT / bench_file).read_text())["rows"]
    return {value for row in rows for value in row.values() if isinstance(value, str)}


CACHES = library_caches()


def test_the_walk_finds_both_kinds_of_cache():
    assert "kem.expand_matrix" in CACHES
    assert "hso.left_vectors" in CACHES


@pytest.mark.parametrize("name", sorted(CACHES))
def test_cache_docstring_cites_a_bench_row(name):
    doc = CACHES[name]
    files = sorted(set(re.findall(r"\bBENCH_\w+\.json\b", doc)))
    assert files, f"{name}: the docstring names no BENCH_*.json file"
    labels = set(re.findall(r"`([^`]+)`", doc))
    for bench_file in files:
        assert (ROOT / bench_file).is_file(), f"{name}: {bench_file} is not at the repository root"
        assert labels & row_labels(bench_file), f"{name}: no backticked label is a row of {bench_file}"
