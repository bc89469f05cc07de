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
Readers reject wrong magics, unknown versions and ids, truncation, and
trailing bytes.  This module alone packs and unpacks these layouts.  The
IPC1 header is one fixed 34-byte struct, unpacked in one call; the reader
builds the ciphertext's EncodingScheme from it, so a bad id, t or body
count is refused before the body is read, and takes the body as one
float64 view of the bytes past the header.  A blob that ends inside the
header is refused with the name of the first field it misses, in the
order the fields are laid out.  KEM keys and ciphertexts carry their
parameter set: the writers label it with its registered id (and refuse a
set that has none), and the readers pass the set the id names to the
object, which checks its arrays against it.
"""

from __future__ import annotations

import struct

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

_KEY_MAGIC, _KEY_VERSION = b"IPK1", 2
_SYM_MAGIC, _SYM_VERSION = b"IPC1", 1
_KEM_MAGIC, _KEM_VERSION = b"IPQ1", 1
_HYB_MAGIC, _HYB_VERSION = b"IPH1", 2

_DIST_GAUSSIAN = 0x01
_DIST_BINOMIAL = 0x02

_KIND_PUBLIC = 0x01
_KIND_SECRET = 0x02
_KIND_CIPHERTEXT = 0x03

_PARAM_SETS = {DESK_PARAM_ID: DESK_PARAMS}

# IPC1 header: magic, version, n, t, encoding id, nonce, body sample count;
# the end offset of each field names what a blob cut short of it misses.
_SYM_HEADER = struct.Struct("<4sBIIB16sI")
_SYM_FIELD_ENDS = (
    (4, "magic"),
    (5, "version"),
    (9, "grid size"),
    (13, "message length"),
    (14, "encoding id"),
    (30, "nonce"),
    (34, "body sample count"),
)


class _Reader:
    """Cursor over a byte string with typed, bounds-checked reads."""

    def __init__(self, data: bytes, label: str) -> None:
        self.data = data
        self.pos = 0
        self.label = label

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.data):
            raise ValueError(f"truncated {self.label}: missing {what}")
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def f64(self, what: str) -> float:
        return struct.unpack("<d", self.take(8, what))[0]

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        raw = self.take(count * np.dtype(dtype).itemsize, what)
        return np.frombuffer(raw, dtype=dtype)

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(len(magic), "magic")
        if got != magic:
            raise ValueError(f"bad magic for {self.label}: expected {magic!r}, got {got!r}")

    def expect_version(self, expected: int) -> None:
        version = self.u8("version")
        if version != expected:
            raise ValueError(f"unsupported {self.label} version {version}")

    def done(self) -> None:
        if self.pos != len(self.data):
            raise ValueError(
                f"{len(self.data) - self.pos} trailing bytes after {self.label}"
            )

    def rest(self) -> bytes:
        out = self.data[self.pos :]
        self.pos = len(self.data)
        return out


def write_error_key(key: ErrorKey) -> bytes:
    p = key.params
    if p.distribution == DISCRETE_GAUSSIAN:
        dist = struct.pack("<Bd", _DIST_GAUSSIAN, p.sigma)
    else:
        dist = struct.pack("<BI", _DIST_BINOMIAL, p.eta)
    return (
        _KEY_MAGIC
        + struct.pack("<B", _KEY_VERSION)
        + dist
        + struct.pack("<dI", p.scale, p.n)
        + key.seed
    )


def read_error_key(data: bytes) -> ErrorKey:
    r = _Reader(data, "error key")
    r.expect_magic(_KEY_MAGIC)
    r.expect_version(_KEY_VERSION)
    dist_id = r.u8("distribution id")
    if dist_id == _DIST_GAUSSIAN:
        sigma = r.f64("sigma")
        scale = r.f64("scale")
        n = r.u32("grid size")
        params = ErrorParams(n=n, scale=scale, distribution=DISCRETE_GAUSSIAN, sigma=sigma)
    elif dist_id == _DIST_BINOMIAL:
        eta = r.u32("eta")
        scale = r.f64("scale")
        n = r.u32("grid size")
        params = ErrorParams(n=n, scale=scale, distribution=CENTERED_BINOMIAL, eta=eta)
    else:
        raise ValueError(f"unknown distribution id {dist_id:#04x}")
    seed = r.take(32, "seed")
    r.done()
    return ErrorKey(seed=seed, params=params)


def write_sym_ciphertext(ct: SymCiphertext) -> bytes:
    scheme = ct.scheme
    header = _SYM_HEADER.pack(
        _SYM_MAGIC, _SYM_VERSION, scheme.n, scheme.t, scheme.encoding_id, ct.nonce, ct.body.n
    )
    return header + ct.body.values.astype("<f8", copy=False).tobytes()


def _sym_truncated(size: int) -> ValueError:
    """The refusal of an IPC1 blob of size bytes that ends inside its header."""
    what = next(name for end, name in _SYM_FIELD_ENDS if size < end)
    return ValueError(f"truncated symmetric ciphertext: missing {what}")


def read_sym_ciphertext(data: bytes) -> SymCiphertext:
    size = len(data)
    # A short blob is zero-padded to unpack; no check reads a padded field
    # before the size check that refuses it.  4, 5 and 30 are the ends of
    # the magic, the version and the nonce in _SYM_FIELD_ENDS.
    head = data[: _SYM_HEADER.size].ljust(_SYM_HEADER.size, b"\0")
    magic, version, n, t, encoding_id, nonce, count = _SYM_HEADER.unpack(head)
    if size < 4:
        raise _sym_truncated(size)
    if magic != _SYM_MAGIC:
        raise ValueError(
            f"bad magic for symmetric ciphertext: expected {_SYM_MAGIC!r}, got {magic!r}"
        )
    if size < 5:
        raise _sym_truncated(size)
    if version != _SYM_VERSION:
        raise ValueError(f"unsupported symmetric ciphertext version {version}")
    if size < 30:
        raise _sym_truncated(size)
    # The header is checked whole before any of the 8n body bytes is read.
    scheme = EncodingScheme.from_encoding_id(encoding_id, t, n)
    if size < _SYM_HEADER.size:
        raise _sym_truncated(size)
    if count != n:
        raise ValueError(f"body grid size {count} != header n = {n}")
    end = _SYM_HEADER.size + 8 * n
    if size < end:
        raise ValueError("truncated symmetric ciphertext: missing body samples")
    body = GridFunction(np.frombuffer(data, dtype="<f8", count=n, offset=_SYM_HEADER.size))
    if size != end:
        raise ValueError(f"{size - end} trailing bytes after symmetric ciphertext")
    return SymCiphertext(scheme=scheme, nonce=nonce, body=body)


def _kem_header(kind: int, params: KemParams) -> bytes:
    """IPQ1 header carrying the id of params; unregistered sets have no layout."""
    for param_id, registered in _PARAM_SETS.items():
        if registered == params:
            return _KEM_MAGIC + struct.pack("<BBB", _KEM_VERSION, param_id, kind)
    raise ValueError(f"KEM parameters {params} have no registered IPQ1 id")


def _read_kem_header(r: _Reader, expected_kind: int, kind_name: str) -> KemParams:
    r.expect_magic(_KEM_MAGIC)
    r.expect_version(_KEM_VERSION)
    param_id = r.u8("parameter id")
    if param_id not in _PARAM_SETS:
        raise ValueError(f"unknown KEM parameter id {param_id:#04x}")
    kind = r.u8("kind")
    if kind != expected_kind:
        raise ValueError(f"expected a KEM {kind_name} file, got kind {kind:#04x}")
    return _PARAM_SETS[param_id]


def write_kem_public_key(pk: KemPublicKey) -> bytes:
    return (
        _kem_header(_KIND_PUBLIC, pk.params)
        + pk.seed_a
        + pk.b_pub.astype("<u2").tobytes()
    )


def read_kem_public_key(data: bytes) -> KemPublicKey:
    r = _Reader(data, "KEM public key")
    params = _read_kem_header(r, _KIND_PUBLIC, "public key")
    seed_a = r.take(32, "matrix seed")
    count = params.dim * params.secret_bits
    b = r.array("<u2", count, "public matrix").reshape(params.dim, params.secret_bits)
    r.done()
    return KemPublicKey(params=params, seed_a=seed_a, b_pub=b)


def write_kem_secret_key(sk: KemSecretKey) -> bytes:
    return _kem_header(_KIND_SECRET, sk.params) + sk.s.astype("<i1").tobytes()


def read_kem_secret_key(data: bytes) -> KemSecretKey:
    r = _Reader(data, "KEM secret key")
    params = _read_kem_header(r, _KIND_SECRET, "secret key")
    count = params.dim * params.secret_bits
    s = r.array("<i1", count, "secret matrix").reshape(params.dim, params.secret_bits)
    r.done()
    return KemSecretKey(params=params, s=s)


def write_kem_ciphertext(ct: KemCiphertext) -> bytes:
    return (
        _kem_header(_KIND_CIPHERTEXT, ct.params)
        + ct.u.astype("<u2").tobytes()
        + ct.v.astype("<u2").tobytes()
    )


def read_kem_ciphertext(data: bytes) -> KemCiphertext:
    r = _Reader(data, "KEM ciphertext")
    params = _read_kem_header(r, _KIND_CIPHERTEXT, "ciphertext")
    u = r.array("<u2", params.dim, "u component")
    v = r.array("<u2", params.secret_bits, "v component")
    r.done()
    return KemCiphertext(params=params, u=u, v=v)


def write_hybrid_ciphertext(ct: HybridCiphertext) -> bytes:
    c1 = write_kem_ciphertext(ct.c1)
    c2 = write_sym_ciphertext(ct.c2)
    return _HYB_MAGIC + struct.pack("<BI", _HYB_VERSION, len(c1)) + c1 + c2


def read_hybrid_ciphertext(data: bytes) -> HybridCiphertext:
    r = _Reader(data, "hybrid ciphertext")
    r.expect_magic(_HYB_MAGIC)
    r.expect_version(_HYB_VERSION)
    c1_len = r.u32("first block length")
    c1 = read_kem_ciphertext(r.take(c1_len, "first block"))
    c2 = read_sym_ciphertext(r.rest())
    return HybridCiphertext(c1=c1, c2=c2)
