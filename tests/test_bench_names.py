"""The library names the benchmark in perfbench/ patches or reads still exist.

perfbench/tracing.py wraps library functions by (module, attribute) and
perfbench/run.py reads a few attributes directly, so a rename in the
library breaks `perfbench/run.py --trace 1` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ipcrypt import hso, kem

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LIBRARY_SPANS = load_tracing().LIBRARY_SPANS


@pytest.mark.parametrize(
    "module,attr,span", LIBRARY_SPANS, ids=[f"{m}.{a}" for m, a, _ in LIBRARY_SPANS]
)
def test_traced_names_resolve_to_callables(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr)), span


def test_attributes_the_benchmark_reads():
    assert hso.build_hso(8).matrix.shape == (8, 8)
    assert hso.hso_svd(8).right_vectors.shape == (8, 8)
    assert callable(kem.expand_matrix.cache_info)
