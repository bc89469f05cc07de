"""CLI known-answer vectors: what the keyed subcommands print and write.

`tests/kat/cli.json` was computed once by `cli_vectors()` below from the
commit recorded in its `generated_at` field, by running `COMMANDS` in
order through `cli.main` in one working directory.  For each command it
pins the exit code and the stdout (with the directory masked as `{tmp}`)
exactly, and every file the command writes: key files (IPK1, IPQ1) and
the encode CSV by SHA-256; ciphertext files (IPC1, and IPH1 with its
embedded IPC1) whole, where every byte but the body samples must match
and the samples must agree to `BODY_RTOL` of their largest entry.  The
seed labels the CLI derives its streams from are therefore pinned too.
A mismatch means a subcommand's output changed for the same flags; find
out why, and never regenerate the file to make a failure go away.

Subcommands whose printed floats pass through LAPACK or BLAS (spectrum,
classify, amplify, attack, lwe-demo, analogy) are left out: their last
bits depend on the machine.
"""

import base64
import contextlib
import hashlib
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from ipcrypt.cli import main

KAT_PATH = Path(__file__).parent / "kat" / "cli.json"

# The tolerance of the IPC1 bodies in tests/test_sym_kat.py.
BODY_RTOL = 1e-12

# IPC1: magic, version, u32 n, u32 t, encoding id, 16-byte nonce, u32 count.
_IPC1_HEADER = struct.calcsize("<4sBIIB16sI")
# IPH1: magic, version, u32 length of the IPQ1 block that follows.
_IPH1_HEADER = struct.calcsize("<4sBI")

# name -> argv, with {tmp} standing for the working directory.
COMMANDS = {
    "keygen-sym-binomial": "keygen-sym --n 256 --out {tmp}/bin.ipk --seed a1",
    "keygen-sym-gaussian": "keygen-sym --n 256 --dist gaussian --sigma 2 --scale 0.25 "
    "--out {tmp}/gauss.ipk --seed a2",
    "encrypt-sym-map2": "encrypt-sym --key {tmp}/bin.ipk --msg c0ffee42 --encoding map2 "
    "--out {tmp}/map2.ipc --seed a3",
    "encrypt-sym-map1-haar": "encrypt-sym --key {tmp}/gauss.ipk --msg a5 --encoding map1-haar "
    "--out {tmp}/haar.ipc --seed a4",
    "decrypt-sym-map2": "decrypt-sym --key {tmp}/bin.ipk --in {tmp}/map2.ipc",
    "decrypt-sym-map1-haar": "decrypt-sym --key {tmp}/gauss.ipk --in {tmp}/haar.ipc",
    "kem-keygen": "kem-keygen --out-pk {tmp}/kem.pk --out-sk {tmp}/kem.sk --seed a5",
    "pke-encrypt": "pke-encrypt --pk {tmp}/kem.pk --msg deadbeef --out {tmp}/msg.iph --seed a6",
    "pke-decrypt": "pke-decrypt --sk {tmp}/kem.sk --in {tmp}/msg.iph",
    "encode-map2": "encode --msg c0ffee42 --encoding map2 --n 256 --out {tmp}/enc.csv",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_entry(data: bytes, kind: str) -> dict:
    if kind in ("IPC1", "IPH1"):
        return {"base64": base64.b64encode(data).decode()}
    return {"sha256": _sha256(data)}


def _kind(data: bytes) -> str:
    magic = data[:4]
    return magic.decode() if magic in (b"IPK1", b"IPC1", b"IPQ1", b"IPH1") else "csv"


def cli_vectors(workdir: Path) -> dict:
    """Run COMMANDS in workdir and record exit codes, stdout and new files."""
    tmp = str(workdir)
    out = {}
    for name, template in COMMANDS.items():
        before = set(workdir.iterdir())
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(template.format(tmp=tmp).split())
        files = {}
        for path in sorted(set(workdir.iterdir()) - before):
            data = path.read_bytes()
            kind = _kind(data)
            files[path.name] = {"kind": kind, **_file_entry(data, kind)}
        out[name] = {
            "argv": template,
            "exit": code,
            "stdout": stdout.getvalue().replace(tmp, "{tmp}"),
            "files": files,
        }
    return out


def _split_ipc1(data: bytes) -> tuple[bytes, np.ndarray]:
    return data[:_IPC1_HEADER], np.frombuffer(data[_IPC1_HEADER:], dtype="<f8")


def _assert_ipc1_close(got: bytes, want: bytes) -> None:
    got_head, got_body = _split_ipc1(got)
    want_head, want_body = _split_ipc1(want)
    assert got_head == want_head
    assert got_body.shape == want_body.shape
    scale = np.abs(want_body).max()
    assert np.abs(got_body - want_body).max() <= BODY_RTOL * scale


def _assert_file_matches(got: bytes, want: dict) -> None:
    assert _kind(got) == want["kind"]
    if want["kind"] == "IPC1":
        _assert_ipc1_close(got, base64.b64decode(want["base64"]))
    elif want["kind"] == "IPH1":
        stored = base64.b64decode(want["base64"])
        (c1_len,) = struct.unpack("<I", stored[5:_IPH1_HEADER])
        prefix = _IPH1_HEADER + c1_len
        assert got[:prefix] == stored[:prefix]
        _assert_ipc1_close(got[prefix:], stored[prefix:])
    else:
        assert _sha256(got) == want["sha256"]


@pytest.fixture(scope="module")
def stored():
    return json.loads(KAT_PATH.read_text())


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    vectors = cli_vectors(workdir)
    return vectors, {p.name: p.read_bytes() for p in workdir.iterdir()}


def test_kat_file_records_its_source_commit(stored):
    assert len(stored["generated_at"]) == 40
    int(stored["generated_at"], 16)


def test_kat_covers_every_command(stored):
    assert list(stored["commands"]) == list(COMMANDS)
    for name, template in COMMANDS.items():
        assert stored["commands"][name]["argv"] == template


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_command_kat(stored, computed, name):
    want = stored["commands"][name]
    vectors, written = computed
    got = vectors[name]
    assert got["exit"] == want["exit"] == 0
    assert got["stdout"] == want["stdout"]
    assert sorted(got["files"]) == sorted(want["files"])
    for file_name, entry in want["files"].items():
        _assert_file_matches(written[file_name], entry)


def test_decryptions_return_the_encrypted_messages(stored):
    commands = stored["commands"]
    assert commands["decrypt-sym-map2"]["stdout"] == f"msg={0xC0FFEE42:032b}\n"
    assert commands["decrypt-sym-map1-haar"]["stdout"] == f"msg={0xA5:08b}\n"
    assert commands["pke-decrypt"]["stdout"] == f"msg={0xDEADBEEF:032b}\n"
