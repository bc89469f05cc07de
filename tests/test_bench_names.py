"""The library names the benchmark in perfbench/ patches or reads still exist.

perfbench/tracing.py wraps library functions by (module, attribute),
perfbench/run.py reads a few attributes directly, and perfbench/workloads.py
reads fields of the objects the library returns, so a rename in the
library breaks the benchmark without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ipcrypt import attacks, hso, hybrid, kem, symmetric
from ipcrypt.encoding import EncodingScheme, Message, map1_capacity
from ipcrypt.noise import ErrorKey

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


def test_object_fields_the_workloads_read():
    n, t = 256, 32
    key = ErrorKey(seed=bytes(32), params=symmetric.recommended_error_params(n=n))
    msg = Message.from_int(0x5A5A5A5A, t)
    ct = symmetric.sym_encrypt(key, msg, EncodingScheme.map2(t, n), bytes(16))
    assert ct.body.values.shape == (n,)
    methods = (attacks.Tsvd(8), attacks.Tikhonov(1e-4))
    assert methods[0].k == 8 and methods[1].alpha == 1e-4
    factors = hso.hso_svd(n)
    reports = [attacks.attack_naive(ct, factors, truth=msg)]
    reports += [attacks.attack_regularized(ct, factors, m, truth=msg) for m in methods]
    for report in reports:
        assert len(report.recovered.bits) == t
        assert 0.0 <= report.bit_accuracy <= 1.0
        assert report.residual_norm >= 0.0
    assert map1_capacity(n, "fourier") == 255
    assert EncodingScheme.map1(7, n, "fourier").t == 7


def test_attacks_encode_and_decode_through_their_module_names(monkeypatch):
    """tracing.py wraps attacks.encode and attacks.decode; each report must call both."""
    calls = {"encode": 0, "decode": 0}

    def counted(name):
        original = getattr(attacks, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(attacks, name, counted(name))
    n, t = 64, 8
    key = ErrorKey(seed=bytes(32), params=symmetric.recommended_error_params(n=n))
    msg = Message.from_int(0x5A, t)
    ct = symmetric.sym_encrypt(key, msg, EncodingScheme.map2(t, n), bytes(16))
    factors = hso.hso_svd(n)
    attacks.attack_naive(ct, factors, truth=msg)
    for method in (attacks.Tsvd(8), attacks.Tikhonov(1e-4)):
        attacks.attack_regularized(ct, factors, method, truth=msg)
    assert calls == {"encode": 3, "decode": 3}


def test_hybrid_reaches_the_kem_through_its_module_names(monkeypatch):
    """tracing.py wraps kem.kem_keygen, kem_encaps and kem_decaps; the hybrid must call each."""
    calls = {"kem_keygen": 0, "kem_encaps": 0, "kem_decaps": 0}

    def counted(name):
        original = getattr(kem, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(kem, name, counted(name))
    rng = np.random.default_rng(0)
    pair = hybrid.pke_keygen(rng)
    msg = Message.from_int(0x5A, 8)
    ct = hybrid.pke_encrypt(pair.public, msg, EncodingScheme.map2(8, 64), rng)
    assert hybrid.pke_decrypt(pair.secret, ct) == msg
    assert calls == {"kem_keygen": 1, "kem_encaps": 1, "kem_decaps": 1}
