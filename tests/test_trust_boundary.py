"""Objects the library builds itself skip the checks; outside bytes never do.

Keygen, encapsulation and encryption wrap arrays that are in range by
construction, and the IPQ1 readers wrap the file's words once they have
checked their range, with no copy and no second pass (the `_of_*`
classmethods).  Each such object must equal what the checked constructor
builds from the same arrays, with the same dtype, and be read-only.
"""

import numpy as np
import pytest

from ipcrypt.encoding import EncodingScheme, Message
from ipcrypt.formats import (
    read_kem_ciphertext,
    read_kem_public_key,
    write_kem_ciphertext,
    write_kem_public_key,
)
from ipcrypt.grid import GridFunction
from ipcrypt.kem import (
    DESK_PARAMS,
    KemCiphertext,
    KemPublicKey,
    KemSecretKey,
    kem_encaps,
    kem_keygen,
)
from ipcrypt.symmetric import recommended_error_params, sym_encrypt, sym_keygen

SCHEME = EncodingScheme.map2(32, 256)


def assert_twin(built: np.ndarray, checked: np.ndarray) -> None:
    """built, from an unchecked path, is what the checked constructor keeps."""
    assert built.dtype == checked.dtype
    assert not built.flags.writeable
    np.testing.assert_array_equal(built, checked)


@pytest.mark.parametrize("block", range(4))
def test_unchecked_objects_equal_their_checked_twins(block):
    """200 seeds, in four blocks of 50: keys, ciphertexts, bodies and what the readers return."""
    for seed in range(50 * block, 50 * block + 50):
        rng = np.random.default_rng(seed)
        pair = kem_keygen(DESK_PARAMS, rng)
        pk, sk = pair.public, pair.secret
        pk_twin = KemPublicKey(params=pk.params, seed_a=pk.seed_a, b_pub=pk.b_pub)
        assert_twin(pk.b_pub, pk_twin.b_pub)
        assert_twin(sk.s, KemSecretKey(params=sk.params, s=sk.s).s)

        _, ct = kem_encaps(pk, rng)
        twin = KemCiphertext(params=ct.params, u=ct.u, v=ct.v)
        assert_twin(ct.u, twin.u)
        assert_twin(ct.v, twin.v)

        read = read_kem_ciphertext(write_kem_ciphertext(ct))
        assert read.params == ct.params
        assert_twin(read.u, twin.u)
        assert_twin(read.v, twin.v)
        read_pk = read_kem_public_key(write_kem_public_key(pk))
        assert read_pk.seed_a == pk.seed_a
        assert_twin(read_pk.b_pub, pk_twin.b_pub)

        key = sym_keygen(recommended_error_params(), rng)
        sym = sym_encrypt(key, Message.random(32, rng), SCHEME, rng.bytes(16))
        assert_twin(sym.body.values, GridFunction(sym.body.values).values)


def _ciphertext_blob() -> bytes:
    pair = kem_keygen(DESK_PARAMS, np.random.default_rng(1))
    return write_kem_ciphertext(kem_encaps(pair.public, np.random.default_rng(2))[1])


def _put(blob: bytes, words: dict) -> bytes:
    """blob with the u || v words at the given indices (u is 0..255, v 256..511) replaced."""
    out = bytearray(blob)
    for index, value in words.items():
        out[7 + 2 * index : 9 + 2 * index] = value.to_bytes(2, "little")
    return bytes(out)


# Texts generated by the parent implementation, which passed the u16
# words to the checked KemCiphertext constructor.
READER_RANGE_TEXTS = {
    "u": ({3: 3329}, "ciphertext component u entries must lie in [0, q)"),
    "u, largest word": ({0: 65535}, "ciphertext component u entries must lie in [0, q)"),
    "v": ({259: 3329}, "ciphertext component v entries must lie in [0, q)"),
    "v, last word": ({511: 65535}, "ciphertext component v entries must lie in [0, q)"),
    "both": ({263: 65535, 5: 3329}, "ciphertext component u entries must lie in [0, q)"),
}


@pytest.mark.parametrize("case", list(READER_RANGE_TEXTS))
def test_ciphertext_reader_names_the_component_out_of_range(case):
    words, text = READER_RANGE_TEXTS[case]
    with pytest.raises(ValueError) as exc:
        read_kem_ciphertext(_put(_ciphertext_blob(), words))
    assert str(exc.value) == text


def test_ciphertext_reader_accepts_the_largest_residue():
    blob = _put(_ciphertext_blob(), {0: 3328, 511: 3328})
    ct = read_kem_ciphertext(blob)
    assert ct.u[0] == ct.v[-1] == 3328
    assert write_kem_ciphertext(ct) == blob
