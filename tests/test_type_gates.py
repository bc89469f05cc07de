"""Every public field is checked for its type where it enters, by one gate per kind.

The table crosses each entry point with each hostile value that its
field's kind excludes: an integer field refuses floats, a real field
refuses what is not a number, and a byte field refuses what is not a
flat buffer of single bytes.  Each refusal is a TypeError that names the
field.  A numpy integer is taken as the int it equals, and a mutable
byte buffer is copied, so changing it later changes nothing.

The `ast` walk below keeps it that way: `grid._integer` and `grid._real`
are the only places that decide what an integer or a real number is,
and the layers under the KEM take their gates from `grid`, not `kem`.
"""

import ast
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ipcrypt
from ipcrypt import noise
from ipcrypt.attacks import Tikhonov, Tsvd
from ipcrypt.encoding import EncodingScheme, Message
from ipcrypt.hso import build_hso, hso_svd
from ipcrypt.kem import DESK_PARAMS, KemPublicKey, SharedSecret, cbd
from ipcrypt.lwe import LweParams
from ipcrypt.noise import DISCRETE_GAUSSIAN, ErrorKey, ErrorParams, derive_error

PACKAGE = Path(ipcrypt.__file__).parent

ERROR_PARAMS = ErrorParams(n=256, scale=0.5)
KEY = ErrorKey(seed=bytes(range(32)), params=ERROR_PARAMS)
LWE = {"q": 17, "m": 3, "n": 12, "error_bound": 1}
B_PUB = np.zeros((DESK_PARAMS.dim, DESK_PARAMS.secret_bits), dtype=np.int64)

# name -> (field text in the refusal, call with the value in place)
INTEGER_FIELDS = {
    **{f"KemParams.{f}": (f, lambda v, f=f: replace(DESK_PARAMS, **{f: v}))
       for f in ("q", "dim", "secret_bits", "eta")},
    "ErrorParams.n": ("grid size", lambda v: replace(ERROR_PARAMS, n=v)),
    "ErrorParams.eta": ("eta", lambda v: replace(ERROR_PARAMS, eta=v)),
    **{f"LweParams.{f}": (f, lambda v, f=f: LweParams(**{**LWE, f: v}))
       for f in LWE},
    "EncodingScheme.t": ("message length", lambda v: EncodingScheme("map2", v, 256)),
    "EncodingScheme.n": ("grid size", lambda v: EncodingScheme("map2", 8, v)),
    "Message.from_int": ("message value", lambda v: Message.from_int(v, 8)),
    "Tsvd.k": ("cutoff", lambda v: Tsvd(k=v)),
    "build_hso": ("grid size", build_hso),
    "hso_svd": ("grid size", hso_svd),
    "cbd.count": ("count", lambda v: cbd(bytes(64), v, 2)),
    "cbd.eta": ("eta", lambda v: cbd(bytes(64), 4, v)),
}
# The valid int each integer field is given as a numpy integer.
INTEGER_VALUES = {
    **{f"KemParams.{f}": getattr(DESK_PARAMS, f) for f in ("q", "dim", "secret_bits", "eta")},
    "ErrorParams.n": 256, "ErrorParams.eta": 2,
    **{f"LweParams.{f}": v for f, v in LWE.items()},
    "EncodingScheme.t": 8, "EncodingScheme.n": 256, "Message.from_int": 6, "Tsvd.k": 8,
    "build_hso": 16, "hso_svd": 16, "cbd.count": 4, "cbd.eta": 2,
}
REAL_FIELDS = {
    "ErrorParams.scale": ("scale", lambda v: replace(ERROR_PARAMS, scale=v)),
    "ErrorParams.sigma": (
        "sigma", lambda v: ErrorParams(n=256, scale=0.5, distribution=DISCRETE_GAUSSIAN, sigma=v)
    ),
    "Tikhonov.alpha": ("alpha", lambda v: Tikhonov(alpha=v)),
}
# name -> (field text, byte length, call with the value in place, the field it keeps)
BYTE_FIELDS = {
    "derive_error.nonce": ("nonce", 16, lambda v: derive_error(KEY, v), lambda out: out),
    "ErrorKey.seed": ("key seed", 32, lambda v: ErrorKey(seed=v, params=ERROR_PARAMS),
                      lambda key: key.seed),
    "KemPublicKey.seed_a": ("matrix seed", 32,
                            lambda v: KemPublicKey(params=DESK_PARAMS, seed_a=v, b_pub=B_PUB),
                            lambda pk: pk.seed_a),
    "SharedSecret": ("shared secret", 32, SharedSecret, lambda s: s.data),
}

NOT_A_NUMBER = {
    "str": "8",
    "list": [8],
    "2-d uint8 array": np.full((2, 4), 8, dtype=np.uint8),
    "float64 array": np.full(4, 8.0),
    "bytearray": bytearray(b"\x08" * 32),
}
NOT_AN_INTEGER = {"integral float": 8.0, "numpy float": np.float64(8.0), **NOT_A_NUMBER}


# Cached entry points, whose lru_cache hashes the argument before the gate runs.
CACHED = {"build_hso", "hso_svd"}


def _refused(call, value, what: str, cached: bool = False) -> None:
    text = f"^{re.escape(what)} must be "
    if cached:
        text += "|^unhashable type: "
    with pytest.raises(TypeError, match=text):
        call(value)


@pytest.mark.parametrize("hostile", sorted(NOT_AN_INTEGER))
@pytest.mark.parametrize("name", sorted(INTEGER_FIELDS))
def test_integer_fields_refuse_what_is_not_an_integer(name, hostile):
    """A cached entry point refuses an unhashable value in lru_cache, by type alone."""
    what, call = INTEGER_FIELDS[name]
    _refused(call, NOT_AN_INTEGER[hostile], what, cached=name in CACHED)


@pytest.mark.parametrize("hostile", sorted(NOT_A_NUMBER))
@pytest.mark.parametrize("name", sorted(REAL_FIELDS))
def test_real_fields_refuse_what_is_not_a_number(name, hostile):
    what, call = REAL_FIELDS[name]
    _refused(call, NOT_A_NUMBER[hostile], what)


@pytest.mark.parametrize(
    "hostile",
    ["integral float", "numpy float", "str", "list", "2-d uint8 array", "float64 array"],
)
@pytest.mark.parametrize("name", sorted(BYTE_FIELDS))
def test_byte_fields_refuse_what_is_not_a_flat_byte_buffer(name, hostile):
    what, size, call, _ = BYTE_FIELDS[name]
    value = {
        "integral float": 8.0,
        "numpy float": np.float64(8.0),
        "str": "s" * size,
        "list": [8] * size,
        "2-d uint8 array": np.zeros((2, size // 2), dtype=np.uint8),
        "float64 array": np.zeros(size // 8),
    }[hostile]
    with pytest.raises(TypeError, match=f"^{re.escape(what)} must be bytes, got "):
        call(value)


@pytest.mark.parametrize("name", sorted(BYTE_FIELDS))
def test_byte_fields_keep_their_own_copy_of_a_bytearray(name):
    _, size, call, kept = BYTE_FIELDS[name]
    original = bytes(range(size))
    buffer = bytearray(original)
    got = kept(call(buffer))
    buffer[0] ^= 0xFF
    want = kept(call(original))
    if isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want)
    else:
        assert type(got) is bytes and got == want


@pytest.mark.parametrize("name", sorted(INTEGER_FIELDS))
def test_integer_fields_take_a_numpy_integer_as_its_int(name):
    _, call = INTEGER_FIELDS[name]
    value = INTEGER_VALUES[name]
    got, want = call(np.int64(value)), call(value)
    if isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want)
    elif name in CACHED:
        assert got.n == want.n and type(got.n) is int
    else:
        assert got == want
        field = name.split(".")[-1]
        if field in getattr(got, "__dataclass_fields__", {}):
            assert type(getattr(got, field)) is int


@pytest.mark.parametrize("name", sorted(REAL_FIELDS))
def test_real_fields_are_kept_as_floats(name):
    _, call = REAL_FIELDS[name]
    field = name.split(".")[-1]
    for value in (2, np.float64(2.0), np.int64(2)):
        got = call(value)
        assert type(getattr(got, field)) is float and getattr(got, field) == 2.0


def test_an_integer_past_the_float_range_is_an_infinite_real():
    """float(10**400) overflows; the gate takes it as inf, which the value checks refuse."""
    with pytest.raises(ValueError, match="^alpha must be positive and finite, got inf$"):
        Tikhonov(alpha=10**400)
    with pytest.raises(ValueError, match="^scale must be positive and finite, got inf$"):
        replace(ERROR_PARAMS, scale=10**400)
    assert Tsvd(k=10**400).k == 10**400


def test_typed_caches_keep_a_float_from_an_int_entry():
    build_hso(256)
    with pytest.raises(TypeError, match="^grid size must be an integer, got 256.0$"):
        build_hso(256.0)
    hso_svd(16)
    with pytest.raises(TypeError, match="^grid size must be an integer, got 16.0$"):
        hso_svd(16.0)
    assert build_hso.cache_parameters()["typed"] and hso_svd.cache_parameters()["typed"]
    assert not noise._scaled_cbd_table.cache_parameters()["typed"]


# ---------------------------------------------------------------- one gate per kind

# (module, enclosing function) allowed to decide what an integer or a real is
KIND_DECIDERS = {("grid", "_integer"), ("grid", "_real")}
KIND_NAMES = {("numbers", "Integral"), ("numbers", "Real"), ("operator", "index")}
BELOW_THE_KEM = ("encoding", "symmetric", "lwe", "hso")


class _Walk(ast.NodeVisitor):
    """Uses of the kind-deciding names by enclosing scope, and every module or name imported."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.scope: list[str] = []
        self.uses: set[tuple] = set()
        self.imports: set[str] = set()

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _use(self, text: str) -> None:
        self.uses.add((self.module, ".".join(self.scope) or None, text))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and (node.value.id, node.attr) in KIND_NAMES:
            self._use(ast.unparse(node))
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        self.imports.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = (node.module or "").rsplit(".", 1)[-1]
        self.imports.add(module)
        for alias in node.names:
            if (module, alias.name) in KIND_NAMES:
                self._use(f"from {node.module} import {alias.name}")
            self.imports.add(alias.name)


def walk_library() -> dict[str, _Walk]:
    walks = {}
    for path in sorted(PACKAGE.glob("*.py")):
        walks[path.stem] = walk = _Walk(path.stem)
        walk.visit(ast.parse(path.read_text()))
    return walks


WALKS = walk_library()


def test_only_the_grid_gates_decide_what_an_integer_or_a_real_is():
    uses = {use for walk in WALKS.values() for use in walk.uses}
    assert {(module, scope) for module, scope, _ in uses} == KIND_DECIDERS, sorted(uses)


@pytest.mark.parametrize("module", BELOW_THE_KEM)
def test_the_layers_below_the_kem_import_nothing_from_it(module):
    assert "grid" in WALKS[module].imports
    assert "kem" not in WALKS[module].imports


@pytest.mark.parametrize(
    "statement",
    ["from .kem import cbd", "from . import kem", "import ipcrypt.kem", "from ipcrypt import kem"],
)
def test_the_walk_sees_every_import_form(statement):
    walk = _Walk("probe")
    walk.visit(ast.parse(statement))
    assert "kem" in walk.imports


def test_the_walk_sees_a_kind_name_imported_by_name():
    walk = _Walk("probe")
    walk.visit(ast.parse("from numbers import Integral\nfrom operator import eq\n"))
    assert walk.uses == {("probe", None, "from numbers import Integral")}
