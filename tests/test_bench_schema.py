"""Every BENCH_*.json at the repository root follows one schema.

A file holds an object with `what` (a nonempty description),
`parent_commit` (the commit its "before" side ran), `env` (an object
describing the host) and `rows` (a nonempty list of objects, one per
measurement), so one reader can load any of them.  NONCONFORMING names
the files written before the schema was checked; the list may only
shrink, as they are converted.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(path.name for path in ROOT.glob("BENCH_*.json"))
NONCONFORMING = {
    "BENCH_attack_entry.json",
    "BENCH_sample_grid.json",
    "BENCH_type_gates.json",
}


def schema_faults(doc) -> list[str]:
    """What keeps doc from the shared schema; empty when it conforms."""
    if not isinstance(doc, dict):
        return [f"top level is a {type(doc).__name__}, not an object"]
    faults = [f"missing {key!r}" for key in ("what", "parent_commit", "env", "rows") if key not in doc]
    if not (isinstance(doc.get("what"), str) and doc["what"]):
        faults.append("'what' is not a nonempty string")
    if not isinstance(doc.get("parent_commit"), str):
        faults.append("'parent_commit' is not a string")
    if not isinstance(doc.get("env"), dict):
        faults.append("'env' is not an object")
    rows = doc.get("rows")
    if not (isinstance(rows, list) and rows and all(isinstance(row, dict) for row in rows)):
        faults.append("'rows' is not a nonempty list of objects")
    return faults


def test_the_glob_finds_the_bench_files():
    assert len(BENCH_FILES) >= 21
    assert NONCONFORMING <= set(BENCH_FILES), "a listed exception is gone: prune it"


@pytest.mark.parametrize("name", BENCH_FILES)
def test_bench_file_follows_the_schema(name):
    faults = schema_faults(json.loads((ROOT / name).read_text()))
    if name in NONCONFORMING:
        assert faults, f"{name} now follows the schema: remove it from NONCONFORMING"
    else:
        assert faults == [], f"{name}: {faults}"


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"what": "x", "parent_commit": "abc", "env": {}},
        {"what": "", "parent_commit": "abc", "env": {}, "rows": [{}]},
        {"what": "x", "parent_commit": None, "env": {}, "rows": [{}]},
        {"what": "x", "parent_commit": "abc", "env": [], "rows": [{}]},
        {"what": "x", "parent_commit": "abc", "env": {}, "rows": []},
        {"what": "x", "parent_commit": "abc", "env": {}, "rows": [1]},
    ],
)
def test_the_check_refuses_each_kind_of_fault(doc):
    assert schema_faults(doc)
    assert schema_faults({"what": "x", "parent_commit": "abc", "env": {}, "rows": [{}]}) == []
