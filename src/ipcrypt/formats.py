"""Binary file containers for keys and ciphertexts.

Every container opens with a 4-byte magic and a version byte, then
fixed-width little-endian fields.  Layouts:

  IPK1   symmetric error key
         magic, version=2, distribution id (0x01 gaussian, 0x02
         binomial), distribution parameter (f64 sigma or u32 eta),
         f64 scale, u32 grid size, 32-byte seed
  IPC1   symmetric ciphertext
         magic, version=1, u32 n, u32 t, encoding id byte, 16-byte
         nonce, body (u32 count = n, then n f64 samples)
  IPQ1   KEM material
         magic, version=1, parameter id byte, kind byte (0x01 public,
         0x02 secret, 0x03 ciphertext), then coefficients: public =
         32-byte seed + dim*bits u16; secret = dim*bits i8;
         ciphertext = dim u16 + bits u16
  IPH1   hybrid ciphertext
         magic, version=2, u32 length of the embedded IPQ1 ciphertext
         block, that block, then the IPC1 block to the end

Version 2 of the error key and hybrid containers marks the noise read
straight from SHAKE-256 (see `noise.derive_error`); a version 1 file
was written for the earlier derivation and is refused, not misread.

Each container's header is declared once, as a `_Layout` of (struct
code, field name) pairs that its writer packs and its reader unpacks.
A reader unpacks the whole header in one call and refuses a blob for its
first fault in layout order: a wrong magic or version, an end before a
field it checks (named by the first field it misses), a bad value, a
short array, then trailing bytes.  So the IPC1 reader refuses a bad id,
t or body count before it reads the body, which it takes as one float64
view of the bytes past the header.  The scheme comes from the cached
`EncodingScheme.from_encoding_id`, which validates each header it has
not seen; the body goes through the checked GridFunction constructor,
whose finiteness check is one dot product; and the SymCiphertext
constructor checks the body against the scheme and keeps the nonce.
KEM keys and ciphertexts carry their parameter set: the writers label
it with its registered id (and refuse a set that has none), and the
readers check the arrays against the set the id names.  The secret key
reader passes its bytes to the checked constructor, which keeps an
int64 copy.  The public key and ciphertext readers check the range on
the file's u16 words, with one max, and wrap a single int64 widening of
them with no second pass; a word out of range goes to the checked
constructor, which refuses it with its own text.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import accumulate

import numpy as np

from .encoding import EncodingScheme
from .grid import GridFunction
from .hybrid import HybridCiphertext
from .kem import (
    DESK_PARAM_ID,
    DESK_PARAMS,
    KemCiphertext,
    KemParams,
    KemPublicKey,
    KemSecretKey,
)
from .noise import CENTERED_BINOMIAL, DISCRETE_GAUSSIAN, ErrorKey, ErrorParams
from .symmetric import SymCiphertext

__all__ = [
    "write_error_key",
    "read_error_key",
    "write_sym_ciphertext",
    "read_sym_ciphertext",
    "write_kem_public_key",
    "read_kem_public_key",
    "write_kem_secret_key",
    "read_kem_secret_key",
    "write_kem_ciphertext",
    "read_kem_ciphertext",
    "write_hybrid_ciphertext",
    "read_hybrid_ciphertext",
]

_F64, _U16, _I8 = np.dtype("<f8"), np.dtype("<u2"), np.dtype("<i1")


class _Layout:
    """A container's header: label, magic, version, then (struct code, name) fields."""

    def __init__(self, label: str, magic: bytes, version: int, *fields: tuple[str, str]):
        codes = ("4s", "B", *(code for code, _ in fields))
        names = ("magic", "version", *(name for _, name in fields))
        self.label, self.magic, self.version = label, magic, version
        self.struct = struct.Struct("<" + "".join(codes))
        self.size = self.struct.size
        self.ends = dict(zip(names, accumulate(struct.calcsize("<" + c) for c in codes)))
        # pack(*fields) packs the fields after the magic and version: a partial,
        # which costs each message's write less than a method call would.
        self.pack = partial(self.struct.pack, magic, version)

    def unpack(self, data: bytes) -> tuple:
        """Every header field of data, with the magic and version checked.

        A blob shorter than the header is zero-filled to unpack; a reader
        calls `need` for a field before it uses the field's value.
        """
        if len(data) >= self.size:
            fields = self.struct.unpack_from(data)
        else:
            fields = self.struct.unpack(data.ljust(self.size, b"\0"))
        if len(data) >= 5 and fields[0] == self.magic and fields[1] == self.version:
            return fields
        self.need(data, "magic")
        if fields[0] != self.magic:
            raise ValueError(
                f"bad magic for {self.label}: expected {self.magic!r}, got {fields[0]!r}"
            )
        self.need(data, "version")
        raise ValueError(f"unsupported {self.label} version {fields[1]}")

    def missing(self, what: str) -> ValueError:
        return ValueError(f"truncated {self.label}: missing {what}")

    def need(self, data: bytes, field: str) -> None:
        """Refuse data if it ends before field does, naming the first field it misses."""
        if len(data) < self.ends[field]:
            raise self.missing(next(name for name, end in self.ends.items() if len(data) < end))

    def array(self, data: bytes, at: int, dtype: np.dtype, count: int, what: str) -> np.ndarray:
        """count values of dtype at offset at, as a read-only view of data."""
        if len(data) < at + count * dtype.itemsize:
            raise self.missing(what)
        return np.frombuffer(data, dtype, count, at)

    def done(self, data: bytes, end: int) -> None:
        if len(data) != end:
            raise ValueError(f"{len(data) - end} trailing bytes after {self.label}")


_KEY_GAUSSIAN = _Layout(
    "error key", b"IPK1", 2,
    ("B", "distribution id"), ("d", "sigma"), ("d", "scale"), ("I", "grid size"), ("32s", "seed"),
)
_KEY_BINOMIAL = _Layout(
    "error key", b"IPK1", 2,
    ("B", "distribution id"), ("I", "eta"), ("d", "scale"), ("I", "grid size"), ("32s", "seed"),
)
_SYM = _Layout(
    "symmetric ciphertext", b"IPC1", 1,
    ("I", "grid size"), ("I", "message length"), ("B", "encoding id"), ("16s", "nonce"),
    ("I", "body sample count"),
)
_KEM_PUBLIC = _Layout(
    "KEM public key", b"IPQ1", 1, ("B", "parameter id"), ("B", "kind"), ("32s", "matrix seed")
)
_KEM_SECRET = _Layout("KEM secret key", b"IPQ1", 1, ("B", "parameter id"), ("B", "kind"))
_KEM_CIPHERTEXT = _Layout("KEM ciphertext", b"IPQ1", 1, ("B", "parameter id"), ("B", "kind"))
_HYBRID = _Layout("hybrid ciphertext", b"IPH1", 2, ("I", "first block length"))

_DIST_GAUSSIAN = 0x01
_DIST_BINOMIAL = 0x02

# distribution id -> (layout, distribution, name of its parameter field)
_KEY_LAYOUTS = {
    _DIST_GAUSSIAN: (_KEY_GAUSSIAN, DISCRETE_GAUSSIAN, "sigma"),
    _DIST_BINOMIAL: (_KEY_BINOMIAL, CENTERED_BINOMIAL, "eta"),
}

_KIND_PUBLIC = 0x01
_KIND_SECRET = 0x02
_KIND_CIPHERTEXT = 0x03

_PARAM_SETS = {DESK_PARAM_ID: DESK_PARAMS}


def write_error_key(key: ErrorKey) -> bytes:
    p = key.params
    dist_id = _DIST_GAUSSIAN if p.distribution == DISCRETE_GAUSSIAN else _DIST_BINOMIAL
    layout, _, name = _KEY_LAYOUTS[dist_id]
    return layout.pack(dist_id, getattr(p, name), p.scale, p.n, key.seed)


def read_error_key(data: bytes) -> ErrorKey:
    dist_id = _KEY_GAUSSIAN.unpack(data)[2]
    _KEY_GAUSSIAN.need(data, "distribution id")
    if dist_id not in _KEY_LAYOUTS:
        raise ValueError(f"unknown distribution id {dist_id:#04x}")
    layout, distribution, name = _KEY_LAYOUTS[dist_id]
    _, _, _, value, scale, n, seed = layout.unpack(data)
    layout.need(data, "grid size")
    params = ErrorParams(n=n, scale=scale, distribution=distribution, **{name: value})
    layout.need(data, "seed")
    layout.done(data, layout.size)
    return ErrorKey(seed=seed, params=params)


def write_sym_ciphertext(ct: SymCiphertext) -> bytes:
    scheme = ct.scheme
    header = _SYM.pack(scheme.n, scheme.t, scheme.encoding_id, ct.nonce, ct.body.n)
    return header + ct.body.values.astype(_F64, copy=False).tobytes()


def read_sym_ciphertext(data: bytes) -> SymCiphertext:
    _, _, n, t, encoding_id, nonce, count = _SYM.unpack(data)
    _SYM.need(data, "nonce")
    # The header is checked whole before any of the 8n body bytes is read.
    scheme = EncodingScheme.from_encoding_id(encoding_id, t, n)
    _SYM.need(data, "body sample count")
    if count != n:
        raise ValueError(f"body grid size {count} != header n = {n}")
    body = GridFunction(_SYM.array(data, _SYM.size, _F64, n, "body samples"))
    _SYM.done(data, _SYM.size + _F64.itemsize * n)
    return SymCiphertext(scheme=scheme, nonce=nonce, body=body)


def _param_id(params: KemParams) -> int:
    """Registered IPQ1 id of params; unregistered sets have no layout."""
    for param_id, registered in _PARAM_SETS.items():
        if registered == params:
            return param_id
    raise ValueError(f"KEM parameters {params} have no registered IPQ1 id")


def _read_kem_header(layout: _Layout, data: bytes, kind: int) -> tuple[KemParams, tuple]:
    """The parameter set an IPQ1 blob of one kind names, and its header fields."""
    fields = layout.unpack(data)
    layout.need(data, "parameter id")
    if fields[2] not in _PARAM_SETS:
        raise ValueError(f"unknown KEM parameter id {fields[2]:#04x}")
    layout.need(data, "kind")
    if fields[3] != kind:
        raise ValueError(f"expected a {layout.label} file, got kind {fields[3]:#04x}")
    return _PARAM_SETS[fields[2]], fields


def write_kem_public_key(pk: KemPublicKey) -> bytes:
    header = _KEM_PUBLIC.pack(_param_id(pk.params), _KIND_PUBLIC, pk.seed_a)
    return header + pk.b_pub.astype(_U16).tobytes()


def read_kem_public_key(data: bytes) -> KemPublicKey:
    params, fields = _read_kem_header(_KEM_PUBLIC, data, _KIND_PUBLIC)
    _KEM_PUBLIC.need(data, "matrix seed")
    count = params.dim * params.secret_bits
    b = _KEM_PUBLIC.array(data, _KEM_PUBLIC.size, _U16, count, "public matrix")
    _KEM_PUBLIC.done(data, _KEM_PUBLIC.size + _U16.itemsize * count)
    b = b.reshape(params.dim, params.secret_bits)
    if b.max() < params.q:
        return KemPublicKey._of_matrix(params, fields[4], b.astype(np.int64))
    return KemPublicKey(params=params, seed_a=fields[4], b_pub=b)


def write_kem_secret_key(sk: KemSecretKey) -> bytes:
    header = _KEM_SECRET.pack(_param_id(sk.params), _KIND_SECRET)
    return header + sk.s.astype(_I8).tobytes()


def read_kem_secret_key(data: bytes) -> KemSecretKey:
    params, _ = _read_kem_header(_KEM_SECRET, data, _KIND_SECRET)
    count = params.dim * params.secret_bits
    s = _KEM_SECRET.array(data, _KEM_SECRET.size, _I8, count, "secret matrix")
    _KEM_SECRET.done(data, _KEM_SECRET.size + _I8.itemsize * count)
    return KemSecretKey(params=params, s=s.reshape(params.dim, params.secret_bits))


def write_kem_ciphertext(ct: KemCiphertext) -> bytes:
    header = _KEM_CIPHERTEXT.pack(_param_id(ct.params), _KIND_CIPHERTEXT)
    return header + ct.u.astype(_U16).tobytes() + ct.v.astype(_U16).tobytes()


def read_kem_ciphertext(data: bytes) -> KemCiphertext:
    params, _ = _read_kem_header(_KEM_CIPHERTEXT, data, _KIND_CIPHERTEXT)
    dim, at = params.dim, _KEM_CIPHERTEXT.size
    if len(data) < at + _U16.itemsize * dim:
        raise _KEM_CIPHERTEXT.missing("u component")
    uv = _KEM_CIPHERTEXT.array(data, at, _U16, dim + params.secret_bits, "v component")
    _KEM_CIPHERTEXT.done(data, at + _U16.itemsize * uv.size)
    if uv.max() < params.q:
        return KemCiphertext._of_uv(params, uv.astype(np.int64))
    return KemCiphertext(params=params, u=uv[:dim], v=uv[dim:])


def write_hybrid_ciphertext(ct: HybridCiphertext) -> bytes:
    c1 = write_kem_ciphertext(ct.c1)
    return _HYBRID.pack(len(c1)) + c1 + write_sym_ciphertext(ct.c2)


def read_hybrid_ciphertext(data: bytes) -> HybridCiphertext:
    c1_len = _HYBRID.unpack(data)[2]
    _HYBRID.need(data, "first block length")
    end = _HYBRID.size + c1_len
    if len(data) < end:
        raise _HYBRID.missing("first block")
    c1 = read_kem_ciphertext(data[_HYBRID.size : end])
    return HybridCiphertext(c1=c1, c2=read_sym_ciphertext(data[end:]))
