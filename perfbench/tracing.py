"""Outside-in spans around the library's public functions.

The tracer replaces a function at the name its caller resolves (for
example ``ipcrypt.symmetric.derive_error``, which symmetric.py imported by
name) with a wrapper that records a span, and puts the original back on
``uninstall``.  No library source is touched.  Spans live in memory as
``(name id, start ns, end ns, parent span index, unit id)`` tuples and are
written out once, when the run ends.

A unit is one piece of timed work the benchmark drives: the set-up op, a
measured op, or a key rotation.  Outside a unit the wrappers pass calls
straight through, so the benchmark's own checks leave no spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import time
from collections import defaultdict

# (module the caller resolves the name in, attribute, span name).  The span
# name is the layer that defines the function, so one function patched in
# two callers' namespaces reports under one name.
LIBRARY_SPANS = (
    ("ipcrypt.symmetric", "sym_encrypt", "symmetric.sym_encrypt"),
    ("ipcrypt.symmetric", "sym_decrypt", "symmetric.sym_decrypt"),
    ("ipcrypt.symmetric", "derive_error", "noise.derive_error"),
    ("ipcrypt.symmetric", "encode", "encoding.encode"),
    ("ipcrypt.symmetric", "decode", "encoding.decode"),
    ("ipcrypt.hso", "build_hso", "hso.build_hso"),
    ("ipcrypt.hso", "hso_svd", "hso.hso_svd"),
    ("ipcrypt.hso", "apply_operator", "hso.apply_operator"),
    ("ipcrypt.hso", "naive_inverse_apply", "hso.naive_inverse_apply"),
    ("ipcrypt.attacks", "attack_naive", "attacks.attack_naive"),
    ("ipcrypt.attacks", "attack_regularized", "attacks.attack_regularized"),
    ("ipcrypt.attacks", "tikhonov_apply", "attacks.tikhonov_apply"),
    ("ipcrypt.attacks", "encode", "encoding.encode"),
    ("ipcrypt.attacks", "decode", "encoding.decode"),
    ("ipcrypt.kem", "expand_matrix", "kem.expand_matrix"),
    ("ipcrypt.kem", "kem_keygen", "kem.kem_keygen"),
    ("ipcrypt.kem", "kem_encaps", "kem.kem_encaps"),
    ("ipcrypt.kem", "kem_decaps", "kem.kem_decaps"),
    ("ipcrypt.hybrid", "pke_keygen", "hybrid.pke_keygen"),
    ("ipcrypt.hybrid", "pke_encrypt", "hybrid.pke_encrypt"),
    ("ipcrypt.hybrid", "pke_decrypt", "hybrid.pke_decrypt"),
    ("ipcrypt.hybrid", "sym_encrypt", "symmetric.sym_encrypt"),
    ("ipcrypt.hybrid", "sym_decrypt", "symmetric.sym_decrypt"),
    ("ipcrypt.formats", "write_sym_ciphertext", "formats.write_sym_ciphertext"),
    ("ipcrypt.formats", "read_sym_ciphertext", "formats.read_sym_ciphertext"),
    ("ipcrypt.formats", "write_kem_public_key", "formats.write_kem_public_key"),
    ("ipcrypt.formats", "read_kem_public_key", "formats.read_kem_public_key"),
    ("ipcrypt.formats", "write_kem_ciphertext", "formats.write_kem_ciphertext"),
    ("ipcrypt.formats", "read_kem_ciphertext", "formats.read_kem_ciphertext"),
    ("ipcrypt.formats", "write_hybrid_ciphertext", "formats.write_hybrid_ciphertext"),
    ("ipcrypt.formats", "read_hybrid_ciphertext", "formats.read_hybrid_ciphertext"),
)

GRID_FUNCTION_COUNT = "grid.GridFunction"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.units: list[tuple[int, str, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.unit: int | None = None
        self._stack: list[int] = []
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            unit = self.unit
            if unit is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, unit)

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.unit is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every library entry point in LIBRARY_SPANS, and count GridFunctions."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span in LIBRARY_SPANS:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original))
        grid_cls = importlib.import_module("ipcrypt.grid").GridFunction
        original = grid_cls.__post_init__
        self._patches.append((grid_cls, "__post_init__", original))
        grid_cls.__post_init__ = self._counted(GRID_FUNCTION_COUNT, original)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin(self, kind: str) -> int:
        uid = len(self.units)
        self.unit = uid
        self.units.append((uid, kind, 0, 0))
        return uid

    def end(self, uid: int, start_ns: int, end_ns: int) -> None:
        """Close a unit, recording the interval the benchmark timed for it."""
        self.unit = None
        self.units[uid] = (uid, self.units[uid][1], start_ns, end_ns)

    def first_span(self, name: str, kind: str) -> tuple[float, float] | None:
        """(duration s, self time s) of the first span called name in a unit of kind."""
        nid = self._name_ids.get(name)
        kinds = {uid: k for uid, k, _, _ in self.units}
        target, child_ns = None, 0
        for idx, (sid, start, end, parent, uid) in enumerate(self.spans):
            if target is None and sid == nid and kinds[uid] == kind:
                target = idx
            elif target is not None and parent == target:
                child_ns += end - start
        if target is None:
            return None
        _, start, end, _, _ = self.spans[target]
        return (end - start) / 1e9, (end - start - child_ns) / 1e9

    def write(self, path) -> None:
        """Spans as gzip CSV: name, start_ns, end_ns, parent index, unit id, unit kind."""
        kinds = {uid: kind for uid, kind, _, _ in self.units}
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start_ns,end_ns,parent,unit,unit_kind\n")
            for nid, start, end, parent, uid in self.spans:
                out.write(f"{self.names[nid]},{start},{end},{parent},{uid},{kinds[uid]}\n")


class SpanStats:
    """Per-name durations and self times over the units of some kinds.

    A span's self time is its duration minus the durations of the spans
    directly under it; calls within one thread nest, so children never
    overlap.
    """

    def __init__(self, tracer: Tracer, kinds: tuple[str, ...]) -> None:
        units = {uid: (start, end) for uid, kind, start, end in tracer.units if kind in kinds}
        child_ns = [0] * len(tracer.spans)
        for nid, start, end, parent, uid in tracer.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, list[int]] = defaultdict(list)
        top_ns: dict[int, int] = defaultdict(int)
        for idx, (nid, start, end, parent, uid) in enumerate(tracer.spans):
            if uid not in units:
                continue
            name = tracer.names[nid]
            self.durations[name].append(end - start)
            self.self_ns[name].append(end - start - child_ns[idx])
            if parent < 0:
                top_ns[uid] += end - start
        self.unit_ns = {uid: end - start for uid, (start, end) in units.items()}
        self.total_ns = sum(self.unit_ns.values())
        self.coverage = [top_ns[uid] / ns for uid, ns in self.unit_ns.items() if ns > 0]

    def median_us(self, name: str, self_time: bool = False) -> float | None:
        values = (self.self_ns if self_time else self.durations).get(name)
        return statistics.median(values) / 1e3 if values else None

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def layer_calls(self, layer: str) -> int:
        return sum(len(v) for k, v in self.durations.items() if k.split(".")[0] == layer)

    def share_pct(self, layer: str) -> float:
        """Self time of the layer's spans as a percentage of unit time."""
        ns = sum(sum(v) for k, v in self.self_ns.items() if k.split(".")[0] == layer)
        return 100.0 * ns / self.total_ns if self.total_ns else 0.0
