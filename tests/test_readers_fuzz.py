"""Hostile bytes for every container reader: only ValueError may escape.

Each reader gets a valid blob, then random, truncated, extended and
bit-flipped versions of it.  Anything other than a ValueError (an
OverflowError from a float conversion, an IndexError, a runaway
allocation) is a reader bug.
"""

import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipcrypt.encoding import EncodingScheme, Message
from ipcrypt.formats import (
    read_error_key,
    read_hybrid_ciphertext,
    read_kem_ciphertext,
    read_kem_public_key,
    read_kem_secret_key,
    read_sym_ciphertext,
    write_error_key,
    write_hybrid_ciphertext,
    write_kem_ciphertext,
    write_kem_public_key,
    write_kem_secret_key,
    write_sym_ciphertext,
)
from ipcrypt.hybrid import pke_encrypt, pke_keygen
from ipcrypt.noise import DISCRETE_GAUSSIAN, ErrorKey, ErrorParams
from ipcrypt.symmetric import recommended_error_params, sym_encrypt

SEED = bytes(range(32))


def error_key_blob(dist: bytes) -> bytes:
    """Version 2 IPK1 file with the given distribution id + parameter bytes, n = 256."""
    return b"IPK1\x02" + dist + struct.pack("<dI", 0.5, 256) + SEED


ETA_600_KEY = error_key_blob(struct.pack("<BI", 0x02, 600))


def _blobs() -> dict:
    rng = np.random.default_rng(5)
    scheme = EncodingScheme.map2(8, 64)
    sym_key = ErrorKey(seed=SEED, params=recommended_error_params(n=64))
    gauss = ErrorParams(n=256, scale=0.25, distribution=DISCRETE_GAUSSIAN, sigma=1.5)
    pair = pke_keygen(rng)
    hybrid = pke_encrypt(pair.public, Message.from_int(0x5A, 8), scheme, rng)
    return {
        "binomial key": (read_error_key, write_error_key(sym_key)),
        "gaussian key": (read_error_key, write_error_key(ErrorKey(seed=SEED, params=gauss))),
        "sym ciphertext": (
            read_sym_ciphertext,
            write_sym_ciphertext(sym_encrypt(sym_key, Message.from_int(3, 8), scheme, SEED[:16])),
        ),
        "kem public key": (read_kem_public_key, write_kem_public_key(pair.public)),
        "kem secret key": (read_kem_secret_key, write_kem_secret_key(pair.secret)),
        "kem ciphertext": (read_kem_ciphertext, write_kem_ciphertext(hybrid.c1)),
        "hybrid ciphertext": (read_hybrid_ciphertext, write_hybrid_ciphertext(hybrid)),
    }


BLOBS = _blobs()
SYM_BLOB = BLOBS["sym ciphertext"][1]


def _flip(blob: bytes, bits: list[int]) -> bytes:
    out = bytearray(blob)
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _mangled(blob: bytes):
    """Random, truncated, extended and bit-flipped variants of one blob."""
    # Half the flips land in the first 64 bytes, where every header lives.
    header_bit = st.integers(0, 8 * min(len(blob), 64) - 1)
    any_bit = st.integers(0, 8 * len(blob) - 1)
    return st.one_of(
        st.binary(max_size=256),
        st.binary(max_size=256).map(lambda tail: blob[:5] + tail),
        st.integers(0, len(blob) - 1).map(lambda k: blob[:k]),
        st.binary(min_size=1, max_size=16).map(lambda tail: blob + tail),
        st.lists(header_bit | any_bit, min_size=1, max_size=8).map(lambda b: _flip(blob, b)),
    )


CASES = st.sampled_from(sorted(BLOBS)).flatmap(
    lambda name: _mangled(BLOBS[name][1]).map(lambda data: (name, data))
)


@given(case=CASES)
@example(case=("binomial key", ETA_600_KEY))
@example(case=("sym ciphertext", SYM_BLOB[:13] + b"\x42" + SYM_BLOB[14:]))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_readers_raise_only_value_error(case):
    name, data = case
    reader = BLOBS[name][0]
    try:
        reader(data)
    except ValueError:
        pass


@pytest.mark.parametrize(
    "dist, match",
    [
        (struct.pack("<BI", 0x02, 600), "eta"),
        (struct.pack("<BI", 0x02, 2**32 - 1), "eta"),
        (struct.pack("<Bd", 0x01, 1e9), "sigma"),
    ],
    ids=["eta-600", "eta-2^32-1", "sigma-1e9"],
)
def test_error_key_rejects_unbounded_distribution(dist, match):
    with pytest.raises(ValueError, match=match):
        read_error_key(error_key_blob(dist))


def test_sym_ciphertext_header_errors_keep_their_text():
    with pytest.raises(ValueError, match="^unknown encoding id 0x42$"):
        read_sym_ciphertext(SYM_BLOB[:13] + b"\x42" + SYM_BLOB[14:])
    patched = SYM_BLOB[:5] + struct.pack("<I", 32) + SYM_BLOB[9:]
    text = re.escape("body grid size 64 != header n = 32")
    with pytest.raises(ValueError, match=f"^{text}$"):
        read_sym_ciphertext(patched)
    huge_t = SYM_BLOB[:9] + struct.pack("<IB", 2**32 - 1, 0x02) + SYM_BLOB[14:]
    text = re.escape("map1 needs 2^t <= capacity 64 of the n = 64 grid, got t = 4294967295")
    with pytest.raises(ValueError, match=f"^{text}$"):
        read_sym_ciphertext(huge_t)


def _sym_blob(scheme: EncodingScheme, value: int) -> bytes:
    key = ErrorKey(seed=SEED, params=recommended_error_params(n=64))
    msg = Message.from_int(value, scheme.t)
    return write_sym_ciphertext(sym_encrypt(key, msg, scheme, SEED[:16]))


SYM_BLOBS = {
    "map2": _sym_blob(EncodingScheme.map2(8, 64), 3),
    "map1": _sym_blob(EncodingScheme.map1(3, 64, basis="haar"), 5),
}

# (first prefix length, refusal text): every prefix blob[:k] with k from
# that length up to the next entry's is refused with that text.
SYM_PREFIX_TEXTS = [
    (0, "truncated symmetric ciphertext: missing magic"),
    (4, "truncated symmetric ciphertext: missing version"),
    (5, "truncated symmetric ciphertext: missing grid size"),
    (9, "truncated symmetric ciphertext: missing message length"),
    (13, "truncated symmetric ciphertext: missing encoding id"),
    (14, "truncated symmetric ciphertext: missing nonce"),
    (30, "truncated symmetric ciphertext: missing body sample count"),
    (34, "truncated symmetric ciphertext: missing body samples"),
]


def _refusal(data: bytes) -> str:
    with pytest.raises(ValueError) as info:
        read_sym_ciphertext(data)
    return str(info.value)


@pytest.mark.parametrize("kind", sorted(SYM_BLOBS))
def test_sym_ciphertext_prefix_refusals_keep_their_text(kind):
    blob = SYM_BLOBS[kind]
    assert len(blob) == 34 + 8 * 64
    bounds = [start for start, _ in SYM_PREFIX_TEXTS[1:]] + [len(blob)]
    for (start, text), stop in zip(SYM_PREFIX_TEXTS, bounds):
        for k in range(start, stop):
            assert _refusal(blob[:k]) == text, k
    assert _refusal(blob + b"\x00") == "1 trailing bytes after symmetric ciphertext"


# (label, edit of a valid blob, map2 text, map1 text).  The map1 blob is
# haar t = 3 on the n = 64 grid, whose capacity is 64.
SYM_HEADER_REFUSALS = [
    ("magic", lambda b: b"IPC2" + b[4:],
     "bad magic for symmetric ciphertext: expected b'IPC1', got b'IPC2'", None),
    ("short magic", lambda b: b"XXXX\x01",
     "bad magic for symmetric ciphertext: expected b'IPC1', got b'XXXX'", None),
    ("version", lambda b: b[:4] + b"\x02" + b[5:],
     "unsupported symmetric ciphertext version 2", None),
    ("short version", lambda b: b"IPC1\x07\x00",
     "unsupported symmetric ciphertext version 7", None),
    ("id", lambda b: b[:13] + b"\x42" + b[14:], "unknown encoding id 0x42", None),
    ("id 0", lambda b: b[:13] + b"\x00" + b[14:], "unknown encoding id 0x00", None),
    ("short id", lambda b: b[:13] + b"\x42" + b[14:31], "unknown encoding id 0x42", None),
    ("t 0", lambda b: b[:9] + struct.pack("<I", 0) + b[13:],
     "message length must be positive, got 0", None),
    ("t 7", lambda b: b[:9] + struct.pack("<I", 7) + b[13:],
     "map2 needs t | n for exact subinterval cells, got t = 7, n = 64",
     "map1 needs 2^t <= capacity 64 of the n = 64 grid, got t = 7"),
    ("t 2^32-1", lambda b: b[:9] + struct.pack("<I", 2**32 - 1) + b[13:],
     "map2 needs t | n for exact subinterval cells, got t = 4294967295, n = 64",
     "map1 needs 2^t <= capacity 64 of the n = 64 grid, got t = 4294967295"),
    ("count", lambda b: b[:30] + struct.pack("<I", 63) + b[34:],
     "body grid size 63 != header n = 64", None),
    ("n", lambda b: b[:5] + struct.pack("<I", 32) + b[9:],
     "body grid size 64 != header n = 32", None),
    ("nan and trailing", lambda b: b[:34] + struct.pack("<d", float("nan")) + b[42:] + b"\x00",
     "non-finite sample at index 0", None),
]


@pytest.mark.parametrize("kind", sorted(SYM_BLOBS))
@pytest.mark.parametrize(
    "edit, map2_text, map1_text",
    [case[1:] for case in SYM_HEADER_REFUSALS],
    ids=[case[0] for case in SYM_HEADER_REFUSALS],
)
def test_sym_ciphertext_bad_fields_keep_their_text(kind, edit, map2_text, map1_text):
    expected = map1_text if kind == "map1" and map1_text is not None else map2_text
    assert _refusal(edit(SYM_BLOBS[kind])) == expected


def _text(reader, data: bytes) -> str | None:
    """The reader's refusal text for data, or None if it reads data."""
    try:
        reader(data)
    except ValueError as exc:
        return str(exc)
    return None


# (first prefix length, text) runs over the prefixes of each blob of _blobs:
# every prefix blob[:k] with k from a run's start up to the next run's is
# refused with that run's text.  None is the whole blob, which reads, and
# the last run is the blob plus one zero byte.  The texts were generated by
# the readers before their layouts were declared as data.
PREFIX_TEXTS = {
    "binomial key": [
        (0, "truncated error key: missing magic"),
        (4, "truncated error key: missing version"),
        (5, "truncated error key: missing distribution id"),
        (6, "truncated error key: missing eta"),
        (10, "truncated error key: missing scale"),
        (18, "truncated error key: missing grid size"),
        (22, "truncated error key: missing seed"),
        (54, None),
        (55, "1 trailing bytes after error key"),
    ],
    "gaussian key": [
        (0, "truncated error key: missing magic"),
        (4, "truncated error key: missing version"),
        (5, "truncated error key: missing distribution id"),
        (6, "truncated error key: missing sigma"),
        (14, "truncated error key: missing scale"),
        (22, "truncated error key: missing grid size"),
        (26, "truncated error key: missing seed"),
        (58, None),
        (59, "1 trailing bytes after error key"),
    ],
    "kem public key": [
        (0, "truncated KEM public key: missing magic"),
        (4, "truncated KEM public key: missing version"),
        (5, "truncated KEM public key: missing parameter id"),
        (6, "truncated KEM public key: missing kind"),
        (7, "truncated KEM public key: missing matrix seed"),
        (39, "truncated KEM public key: missing public matrix"),
        (131111, None),
        (131112, "1 trailing bytes after KEM public key"),
    ],
    "kem secret key": [
        (0, "truncated KEM secret key: missing magic"),
        (4, "truncated KEM secret key: missing version"),
        (5, "truncated KEM secret key: missing parameter id"),
        (6, "truncated KEM secret key: missing kind"),
        (7, "truncated KEM secret key: missing secret matrix"),
        (65543, None),
        (65544, "1 trailing bytes after KEM secret key"),
    ],
    "kem ciphertext": [
        (0, "truncated KEM ciphertext: missing magic"),
        (4, "truncated KEM ciphertext: missing version"),
        (5, "truncated KEM ciphertext: missing parameter id"),
        (6, "truncated KEM ciphertext: missing kind"),
        (7, "truncated KEM ciphertext: missing u component"),
        (519, "truncated KEM ciphertext: missing v component"),
        (1031, None),
        (1032, "1 trailing bytes after KEM ciphertext"),
    ],
    "hybrid ciphertext": [
        (0, "truncated hybrid ciphertext: missing magic"),
        (4, "truncated hybrid ciphertext: missing version"),
        (5, "truncated hybrid ciphertext: missing first block length"),
        (9, "truncated hybrid ciphertext: missing first block"),
        (1040, "truncated symmetric ciphertext: missing magic"),
        (1044, "truncated symmetric ciphertext: missing version"),
        (1045, "truncated symmetric ciphertext: missing grid size"),
        (1049, "truncated symmetric ciphertext: missing message length"),
        (1053, "truncated symmetric ciphertext: missing encoding id"),
        (1054, "truncated symmetric ciphertext: missing nonce"),
        (1070, "truncated symmetric ciphertext: missing body sample count"),
        (1074, "truncated symmetric ciphertext: missing body samples"),
        (1586, None),
        (1587, "1 trailing bytes after symmetric ciphertext"),
    ],
}


@pytest.mark.parametrize("name", sorted(PREFIX_TEXTS))
def test_prefix_refusals_keep_their_text(name):
    """Every prefix up to 64 bytes, and one byte either side of every run start."""
    reader, blob = BLOBS[name]
    runs = PREFIX_TEXTS[name]
    assert runs[-1][0] == len(blob) + 1
    probes = set(range(65)) | {start + d for start, _ in runs for d in (-1, 0, 1)}
    for k in sorted(p for p in probes if 0 <= p <= len(blob) + 1):
        data = blob[:k] if k <= len(blob) else blob + b"\x00"
        expected = [text for start, text in runs if start <= k][-1]
        assert _text(reader, data) == expected, k


def _put(at: int, value: bytes):
    """Edit that overwrites the bytes of a blob at offset at with value."""
    return lambda blob: blob[:at] + value + blob[at + len(value) :]


def _short(head: bytes):
    """Edit that replaces a blob with the short blob head."""
    return lambda blob: head


# (label, edit of a valid blob, text) for each header field a reader checks,
# with the texts generated as PREFIX_TEXTS's were.  "short" blobs end at the
# bad field, which is refused before the missing fields behind it.
KEY_REFUSALS = [
    ("magic", _put(0, b"IPK2"), "bad magic for error key: expected b'IPK1', got b'IPK2'"),
    ("short magic", _short(b"XXXX\x02"),
     "bad magic for error key: expected b'IPK1', got b'XXXX'"),
    ("version 1", _put(4, b"\x01"), "unsupported error key version 1"),
    ("version 3", _put(4, b"\x03"), "unsupported error key version 3"),
    ("short version", _short(b"IPK1\x07"), "unsupported error key version 7"),
    ("distribution id 0", _put(5, b"\x00"), "unknown distribution id 0x00"),
    ("distribution id 3", _put(5, b"\x03"), "unknown distribution id 0x03"),
    ("short distribution id", _short(b"IPK1\x02\xff"), "unknown distribution id 0xff"),
    ("grid size 0, short seed", lambda b: b[:-36] + struct.pack("<I", 0) + b[-32:-1],
     "grid size must be positive, got 0"),
]
KEM_REFUSALS = {
    "kem public key": [
        ("magic", _put(0, b"IPQ2"),
         "bad magic for KEM public key: expected b'IPQ1', got b'IPQ2'"),
        ("short magic", _short(b"XXXX\x01"),
         "bad magic for KEM public key: expected b'IPQ1', got b'XXXX'"),
        ("version", _put(4, b"\x02"), "unsupported KEM public key version 2"),
        ("short version", _short(b"IPQ1\x07"), "unsupported KEM public key version 7"),
        ("parameter id 0", _put(5, b"\x00"), "unknown KEM parameter id 0x00"),
        ("parameter id 2", _put(5, b"\x02"), "unknown KEM parameter id 0x02"),
        ("short parameter id", _short(b"IPQ1\x01\xff"), "unknown KEM parameter id 0xff"),
        ("kind 0", _put(6, b"\x00"), "expected a KEM public key file, got kind 0x00"),
        ("kind 2", _put(6, b"\x02"), "expected a KEM public key file, got kind 0x02"),
        ("kind 3", _put(6, b"\x03"), "expected a KEM public key file, got kind 0x03"),
        ("short kind", _short(b"IPQ1\x01\x01\x04"),
         "expected a KEM public key file, got kind 0x04"),
    ],
    "kem secret key": [
        ("magic", _put(0, b"IPQ2"),
         "bad magic for KEM secret key: expected b'IPQ1', got b'IPQ2'"),
        ("short magic", _short(b"XXXX\x01"),
         "bad magic for KEM secret key: expected b'IPQ1', got b'XXXX'"),
        ("version", _put(4, b"\x02"), "unsupported KEM secret key version 2"),
        ("short version", _short(b"IPQ1\x07"), "unsupported KEM secret key version 7"),
        ("parameter id 0", _put(5, b"\x00"), "unknown KEM parameter id 0x00"),
        ("parameter id 2", _put(5, b"\x02"), "unknown KEM parameter id 0x02"),
        ("short parameter id", _short(b"IPQ1\x01\xff"), "unknown KEM parameter id 0xff"),
        ("kind 0", _put(6, b"\x00"), "expected a KEM secret key file, got kind 0x00"),
        ("kind 1", _put(6, b"\x01"), "expected a KEM secret key file, got kind 0x01"),
        ("kind 3", _put(6, b"\x03"), "expected a KEM secret key file, got kind 0x03"),
        ("short kind", _short(b"IPQ1\x01\x01\x04"),
         "expected a KEM secret key file, got kind 0x04"),
    ],
    "kem ciphertext": [
        ("magic", _put(0, b"IPQ2"),
         "bad magic for KEM ciphertext: expected b'IPQ1', got b'IPQ2'"),
        ("short magic", _short(b"XXXX\x01"),
         "bad magic for KEM ciphertext: expected b'IPQ1', got b'XXXX'"),
        ("version", _put(4, b"\x02"), "unsupported KEM ciphertext version 2"),
        ("short version", _short(b"IPQ1\x07"), "unsupported KEM ciphertext version 7"),
        ("parameter id 0", _put(5, b"\x00"), "unknown KEM parameter id 0x00"),
        ("parameter id 2", _put(5, b"\x02"), "unknown KEM parameter id 0x02"),
        ("short parameter id", _short(b"IPQ1\x01\xff"), "unknown KEM parameter id 0xff"),
        ("kind 0", _put(6, b"\x00"), "expected a KEM ciphertext file, got kind 0x00"),
        ("kind 1", _put(6, b"\x01"), "expected a KEM ciphertext file, got kind 0x01"),
        ("kind 2", _put(6, b"\x02"), "expected a KEM ciphertext file, got kind 0x02"),
        ("short kind", _short(b"IPQ1\x01\x01\x04"),
         "expected a KEM ciphertext file, got kind 0x04"),
    ],
}
HYBRID_REFUSALS = [
    ("magic", _put(0, b"IPH2"),
     "bad magic for hybrid ciphertext: expected b'IPH1', got b'IPH2'"),
    ("short magic", _short(b"XXXX\x02"),
     "bad magic for hybrid ciphertext: expected b'IPH1', got b'XXXX'"),
    ("version 1", _put(4, b"\x01"), "unsupported hybrid ciphertext version 1"),
    ("version 3", _put(4, b"\x03"), "unsupported hybrid ciphertext version 3"),
    ("short version", _short(b"IPH1\x07"), "unsupported hybrid ciphertext version 7"),
    ("first block length 0", _put(5, struct.pack("<I", 0)),
     "truncated KEM ciphertext: missing magic"),
    ("first block length 1030", _put(5, struct.pack("<I", 1030)),
     "truncated KEM ciphertext: missing v component"),
    ("first block length 1032", _put(5, struct.pack("<I", 1032)),
     "1 trailing bytes after KEM ciphertext"),
    ("first block length 2^32-1", _put(5, struct.pack("<I", 2**32 - 1)),
     "truncated hybrid ciphertext: missing first block"),
    ("first block magic", _put(9, b"IPC1"),
     "bad magic for KEM ciphertext: expected b'IPQ1', got b'IPC1'"),
]
FIELD_REFUSALS = (
    [("binomial key", *case) for case in KEY_REFUSALS]
    + [("gaussian key", *case) for case in KEY_REFUSALS]
    + [(name, *case) for name, cases in KEM_REFUSALS.items() for case in cases]
    + [("hybrid ciphertext", *case) for case in HYBRID_REFUSALS]
)


@pytest.mark.parametrize(
    "name, edit, text",
    [(name, edit, text) for name, _, edit, text in FIELD_REFUSALS],
    ids=[f"{name}-{label}" for name, label, _, _ in FIELD_REFUSALS],
)
def test_bad_fields_keep_their_text(name, edit, text):
    reader, blob = BLOBS[name]
    assert _text(reader, edit(blob)) == text
