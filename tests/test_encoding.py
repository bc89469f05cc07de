"""Bit-string embeddings: basis properties, capacities, roundtrips."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipcrypt.encoding import (
    MAP1_FOURIER_ID,
    MAP1_HAAR_ID,
    MAP2_ID,
    EncodingScheme,
    Message,
    _fourier_phase,
    _haar_heights,
    _map1_correlations,
    _midpoints,
    basis_vector,
    decode,
    decode_map1,
    decode_map2,
    encode,
    encode_map1,
    encode_map2,
    map1_capacity,
    map2_cell_means,
)
from ipcrypt.grid import midpoints, norm

# ---------------------------------------------------------------- messages


def test_message_is_msb_first():
    assert Message.from_int(6, 3).bits == (1, 1, 0)
    assert Message((1, 0, 1)).to_int() == 5
    assert Message.from_int(0, 4).bits == (0, 0, 0, 0)


@given(st.integers(min_value=1, max_value=24).flatmap(
    lambda t: st.tuples(st.just(t), st.integers(min_value=0, max_value=(1 << t) - 1))
))
def test_message_int_roundtrip(t_value):
    t, value = t_value
    msg = Message.from_int(value, t)
    assert msg.t == t
    assert msg.to_int() == value
    assert Message(msg.bits).to_int() == value


def test_message_validation():
    with pytest.raises(ValueError):
        Message(())
    with pytest.raises(ValueError):
        Message((0, 2))
    with pytest.raises(ValueError):
        Message.from_int(8, 3)  # needs four bits
    with pytest.raises(ValueError):
        Message.from_int(-1, 3)
    with pytest.raises(ValueError):
        Message.from_int(0, 0)


@pytest.mark.parametrize("value", [3.0, np.float64(3.0), "3"])
def test_message_from_int_refuses_a_value_that_is_not_an_integer(value):
    with pytest.raises(TypeError, match=f"^message value must be an integer, got {re.escape(repr(value))}$"):
        Message.from_int(value, 8)


def test_message_from_int_takes_numpy_integers_and_bools():
    assert Message.from_int(np.int64(6), 3) == Message.from_int(np.uint8(6), 3) == Message((1, 1, 0))
    assert Message.from_int(True, 2) == Message((0, 1))


@pytest.mark.parametrize("bit", [0.0, True, np.int64(1), np.float64(1.0), np.bool_(False)])
def test_message_accepts_bit_valued_scalars_as_ints(bit):
    msg = Message((1, bit, 0))
    assert msg.bits == (1, int(bit), 0)
    assert all(type(b) is int for b in msg.bits)


@pytest.mark.parametrize("bit", [2, -1, 0.5, "1", float("nan"), None])
def test_message_rejects_non_bits(bit):
    with pytest.raises(ValueError, match="^message bits must be 0 or 1$"):
        Message((0, bit, 1))


def test_message_rejects_the_empty_tuple():
    with pytest.raises(ValueError, match="^message must have at least one bit$"):
        Message(())


def test_message_random_is_reproducible():
    a = Message.random(16, np.random.default_rng(3))
    b = Message.random(16, np.random.default_rng(3))
    assert a == b
    assert set(a.bits) <= {0, 1}


def test_message_random_needs_a_positive_length():
    with pytest.raises(ValueError, match="^bit length must be positive, got 0$"):
        Message.random(0, np.random.default_rng(3))
    assert Message.random(1, np.random.default_rng(3)).t == 1


def test_built_messages_equal_validated_messages():
    """Decoders and constructors skip validation, yet build the same value."""
    rng = np.random.default_rng(11)
    built = [Message.random(32, rng), Message.from_int(0x5A5A5A5A, 32), Message.from_int(0, 1)]
    for scheme in (
        EncodingScheme.map2(32, 256),
        EncodingScheme.map1(7, 256),
        EncodingScheme.map1(8, 256, basis="haar"),
    ):
        for _ in range(5):
            built.append(decode(rng.standard_normal(256), scheme))
            built.append(decode(encode(Message.random(scheme.t, rng), scheme), scheme))
    for msg in built:
        assert type(msg.bits) is tuple
        assert all(type(b) is int for b in msg.bits)
        checked = Message(msg.bits)
        assert msg == checked and hash(msg) == hash(checked)


# ---------------------------------------------------------------- schemes


def test_scheme_constructors_and_ids():
    assert EncodingScheme.map1(4, 64).encoding_id == MAP1_FOURIER_ID
    assert EncodingScheme.map1(4, 64, basis="haar").encoding_id == MAP1_HAAR_ID
    assert EncodingScheme.map2(4, 64).encoding_id == MAP2_ID
    for scheme in (
        EncodingScheme.map1(4, 64),
        EncodingScheme.map1(4, 64, basis="haar"),
        EncodingScheme.map2(4, 64),
    ):
        again = EncodingScheme.from_encoding_id(scheme.encoding_id, 4, 64)
        assert again == scheme


def test_scheme_validation():
    with pytest.raises(ValueError, match="kind"):
        EncodingScheme(kind="map3", t=4, n=64)
    with pytest.raises(ValueError, match="basis"):
        EncodingScheme.map1(4, 64, basis="walsh")
    with pytest.raises(ValueError, match="2\\^t"):
        EncodingScheme.map1(21, 1 << 21)  # capacity 2^21 - 1 < 2^21
    with pytest.raises(ValueError, match="capacity 255"):
        EncodingScheme.map1(8, 256, basis="fourier")  # top index 256 is the Nyquist mode
    with pytest.raises(ValueError, match="no basis"):
        EncodingScheme(kind="map2", t=4, n=64, basis="fourier")
    with pytest.raises(ValueError, match="t \\| n"):
        EncodingScheme.map2(3, 64)
    with pytest.raises(ValueError):
        EncodingScheme.from_encoding_id(0x7F, 4, 64)


@pytest.mark.parametrize(
    "build",
    [
        lambda t, n: EncodingScheme.map2(t, n),
        lambda t, n: EncodingScheme.map1(t, n, basis="haar"),
        lambda t, n: EncodingScheme.from_encoding_id(MAP2_ID, t, n),
        lambda t, n: EncodingScheme.from_encoding_id(MAP1_FOURIER_ID, t, n),
    ],
    ids=["map2", "map1", "map2 id", "map1 id"],
)
def test_scheme_refuses_non_integer_t_and_n(build):
    """A float t or n would pass the range checks and die in the IPC1 writer's struct."""
    assert build(np.int64(4), np.int64(64)) == build(4, 64)
    with pytest.raises(TypeError, match=r"^message length must be an integer, got 4\.0$"):
        build(4.0, 64)
    with pytest.raises(TypeError, match=r"^grid size must be an integer, got 64\.0$"):
        build(4, 64.0)
    with pytest.raises(TypeError, match=r"^message length must be an integer, got '4'$"):
        build("4", 64)


def test_from_encoding_id_shares_one_scheme_per_header_and_caches_no_refusal():
    first = EncodingScheme.from_encoding_id(MAP2_ID, 32, 256)
    assert EncodingScheme.from_encoding_id(MAP2_ID, 32, 256) is first
    assert first == EncodingScheme.map2(32, 256)
    for _ in range(2):
        with pytest.raises(TypeError, match="message length must be an integer"):
            EncodingScheme.from_encoding_id(MAP2_ID, 32.0, 256)
        with pytest.raises(ValueError, match="t \\| n"):
            EncodingScheme.from_encoding_id(MAP2_ID, 7, 256)


# ---------------------------------------------------------------- capacities


def test_map1_capacity_values():
    assert map1_capacity(4, "fourier") == 3
    assert map1_capacity(5, "fourier") == 5
    assert map1_capacity(512, "fourier") == 511
    assert map1_capacity(8, "haar") == 8
    assert map1_capacity(12, "haar") == 4
    assert map1_capacity(96, "haar") == 32
    assert map1_capacity(256, "haar") == 256
    with pytest.raises(ValueError, match="^map1 basis must be fourier or haar, got 'walsh'$"):
        map1_capacity(64, "walsh")


def test_fourier_nyquist_mode_vanishes_at_midpoints():
    """cos(2 pi (n/2) y) is identically zero at the midpoints, hence excluded."""
    n = 8
    y = (np.arange(n) + 0.5) / n
    assert np.abs(np.cos(2.0 * np.pi * (n // 2) * y)).max() < 1e-12
    scheme = EncodingScheme.map1(2, n)
    with pytest.raises(ValueError, match="capacity"):
        basis_vector(n, scheme)


def test_basis_vector_bounds():
    scheme = EncodingScheme.map1(3, 8, basis="haar")
    with pytest.raises(ValueError, match="capacity"):
        basis_vector(0, scheme)
    with pytest.raises(ValueError, match="capacity"):
        basis_vector(9, scheme)
    with pytest.raises(ValueError, match="map1"):
        basis_vector(1, EncodingScheme.map2(4, 8))


def reference_basis_vector(k, n, basis):
    """The cos/sin and interval-mask formulas on freshly computed midpoints."""
    y = midpoints(n)
    if k == 1:
        return np.ones(n)
    if basis == "fourier":
        j = k // 2
        wave = np.cos if k % 2 == 0 else np.sin
        return np.sqrt(2.0) * wave(2.0 * np.pi * j * y)
    level = (k - 1).bit_length() - 1
    shift = (k - 1) - (1 << level)
    scaled = (1 << level) * y - shift
    out = np.zeros(n)
    out[(scaled >= 0.0) & (scaled < 0.5)] = 1.0
    out[(scaled >= 0.5) & (scaled < 1.0)] = -1.0
    return np.sqrt(float(1 << level)) * out


@pytest.mark.parametrize("n", [8, 16, 24, 96, 768, 3072])
@pytest.mark.parametrize("basis", ["fourier", "haar"])
def test_basis_vector_equals_the_reference_formulas_for_every_k(basis, n):
    scheme = EncodingScheme.map1(1, n, basis=basis)
    y = _midpoints(n)
    for k in range(1, map1_capacity(n, basis) + 1):
        v = basis_vector(k, scheme)
        assert np.array_equal(v, reference_basis_vector(k, n, basis)), k
        assert v.flags.writeable and not np.shares_memory(v, y)


# ---------------------------------------------------------------- orthonormality


def test_fourier_basis_is_orthonormal_in_grid_inner_product():
    n = 512
    scheme = EncodingScheme.map1(2, n)
    table = np.column_stack(
        [basis_vector(k, scheme) for k in range(1, map1_capacity(n, "fourier") + 1)]
    )
    gram = (table.T @ table) / n
    assert np.abs(gram - np.eye(table.shape[1])).max() < 1e-10


def test_haar_basis_is_orthonormal_in_grid_inner_product():
    n = 64
    scheme = EncodingScheme.map1(2, n, basis="haar")
    table = np.column_stack([basis_vector(k, scheme) for k in range(1, n + 1)])
    gram = (table.T @ table) / n
    assert np.abs(gram - np.eye(n)).max() < 1e-12


def test_basis_vectors_have_unit_norm():
    scheme_f = EncodingScheme.map1(2, 128)
    scheme_h = EncodingScheme.map1(2, 128, basis="haar")
    for k in (1, 2, 3, 17, 64):
        for scheme in (scheme_f, scheme_h):
            assert norm(basis_vector(k, scheme)) == pytest.approx(1.0, abs=1e-12)


def test_haar_vector_hand_values():
    """k = 4 means level 1, shift 1: supported on [1/2, 1), amplitude sqrt(2)."""
    scheme = EncodingScheme.map1(2, 8, basis="haar")
    v = basis_vector(4, scheme)
    root2 = math.sqrt(2.0)
    np.testing.assert_allclose(v, [0, 0, 0, 0, root2, root2, -root2, -root2])
    np.testing.assert_array_equal(basis_vector(1, scheme), np.ones(8))


def test_fourier_vector_hand_value():
    scheme = EncodingScheme.map1(2, 8)
    v = basis_vector(2, scheme)  # sqrt(2) cos(2 pi y)
    assert v[0] == pytest.approx(math.sqrt(2.0) * math.cos(2.0 * np.pi * 0.0625))


# ---------------------------------------------------------------- map1 codec


def test_encode_map1_uses_message_plus_one_indexing():
    scheme = EncodingScheme.map1(2, 16)
    msg = Message.from_int(1, 2)  # bits 01 -> basis element k = 2
    np.testing.assert_array_equal(
        encode_map1(msg, scheme), basis_vector(2, scheme)
    )


def test_decode_map1_zero_input_gives_smallest_index():
    scheme = EncodingScheme.map1(4, 64)
    assert decode_map1(np.zeros(64), scheme).to_int() == 0


def test_map1_roundtrip_full_space_fourier():
    scheme = EncodingScheme.map1(8, 257)  # odd n: capacity 257 >= 256
    for value in range(1 << 8):
        msg = Message.from_int(value, 8)
        assert decode_map1(encode_map1(msg, scheme), scheme) == msg


def test_map1_roundtrip_full_space_haar_t10():
    scheme = EncodingScheme.map1(10, 1024, basis="haar")
    for value in range(1 << 10):
        msg = Message.from_int(value, 10)
        assert decode_map1(encode_map1(msg, scheme), scheme) == msg


def test_map1_roundtrip_survives_small_perturbation():
    """Orthonormality leaves a gap: grid-norm 0.1 noise cannot flip the argmax."""
    scheme = EncodingScheme.map1(6, 256)
    rng = np.random.default_rng(7)
    for _ in range(50):
        msg = Message.random(6, rng)
        u = encode_map1(msg, scheme)
        g = rng.standard_normal(256)
        g *= 0.1 / (math.sqrt(1.0 / 256) * np.linalg.norm(g))
        assert decode_map1(u + g, scheme) == msg


@pytest.mark.parametrize(
    "basis, n, t",
    [
        ("fourier", 64, 5),
        ("fourier", 256, 7),
        ("fourier", 257, 8),
        ("haar", 256, 8),
        ("haar", 96, 5),  # capacity 32 falls short of the grid
        ("haar", 2048, 11),
    ],
)
def test_map1_decoder_matches_the_table_oracle(basis, n, t):
    """The fast transforms give every candidate's correlation, in table order."""
    scheme = EncodingScheme.map1(t, n, basis=basis)
    table = np.column_stack([basis_vector(k, scheme) for k in range(1, (1 << t) + 1)])
    rng = np.random.default_rng(n + t)
    noisy = table[:, rng.integers(0, 1 << t, 20)] + 0.3 * rng.standard_normal((n, 20))
    inputs = np.column_stack([rng.standard_normal((n, 20)), table, noisy])
    for u, expected in zip(inputs.T, (table.T @ inputs).T):
        got = _map1_correlations(u, scheme)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        best = int(np.argmax(np.abs(expected)))
        assert decode_map1(u, scheme) == Message.from_int(best, t)


def reference_correlations(u, scheme):
    """_map1_correlations with the phase and the level scales computed per call."""
    count = 1 << scheme.t
    corr = np.empty(count)
    corr[0] = u.sum()
    if scheme.basis == "fourier":
        j = np.arange(1, count // 2 + 1)
        spectrum = np.fft.rfft(u)[j] * (np.sqrt(2.0) * np.exp(-1j * np.pi * j / scheme.n))
        corr[1::2] = spectrum.real
        corr[2::2] = -spectrum.imag[:-1]
        return corr
    sums = u.reshape(count, -1).sum(axis=1)
    for level in reversed(range(scheme.t)):
        first, second = sums[::2], sums[1::2]
        corr[1 << level : 2 << level] = np.sqrt(float(1 << level)) * (first - second)
        sums = first + second
    return corr


@pytest.mark.parametrize(
    "basis, n, t",
    [("fourier", 24, 4), ("fourier", 256, 7), ("fourier", 257, 8), ("fourier", 3072, 11),
     ("haar", 24, 3), ("haar", 256, 8), ("haar", 768, 8), ("haar", 2048, 11)],
)
def test_map1_correlations_equal_the_per_call_formula_exactly(basis, n, t):
    scheme = EncodingScheme.map1(t, n, basis=basis)
    rng = np.random.default_rng(n + t)
    for u in (rng.standard_normal(n), encode_map1(Message.random(t, rng), scheme)):
        corr = _map1_correlations(u, scheme)
        assert np.array_equal(corr, reference_correlations(u, scheme))
    if basis == "fourier":
        phase = _fourier_phase(n, 1 << t)
        assert _fourier_phase(n, 1 << t) is phase
        assert not phase.flags.writeable and not np.shares_memory(corr, phase)


@pytest.mark.parametrize("n", [2, 8, 24, 96, 256, 2048])
def test_haar_heap_equals_the_per_level_loop_for_every_t(n):
    rng = np.random.default_rng(n)
    for t in range(1, map1_capacity(n, "haar").bit_length()):
        scheme = EncodingScheme.map1(t, n, basis="haar")
        for u in (rng.standard_normal(n), basis_vector(int(rng.integers(1, 1 << t)), scheme)):
            assert np.array_equal(_map1_correlations(u, scheme), reference_correlations(u, scheme))


def test_map1_cached_constants_are_read_only():
    y = _midpoints(24)
    assert _midpoints(24) is y and not y.flags.writeable
    assert np.array_equal(y, midpoints(24))
    with pytest.raises(ValueError, match="read-only"):
        _fourier_phase(24, 16)[0] = 0.0
    heights = _haar_heights(4)
    assert _haar_heights(4) is heights and heights.size == 15
    with pytest.raises(ValueError, match="read-only"):
        heights[0] = 0.0


def test_map1_length_mismatch():
    scheme = EncodingScheme.map1(4, 64)
    with pytest.raises(ValueError, match="length"):
        encode_map1(Message.from_int(0, 3), scheme)
    with pytest.raises(ValueError, match="mismatch"):
        decode_map1(np.zeros(32), scheme)


# ---------------------------------------------------------------- map2 codec


def test_encode_map2_hand_value():
    scheme = EncodingScheme.map2(4, 8)
    out = encode_map2(Message((1, 0, 1, 0)), scheme)
    np.testing.assert_array_equal(out, [1, 1, 0, 0, 1, 1, 0, 0])


@pytest.mark.parametrize("t, n", [(1, 1), (4, 8), (32, 256), (64, 2048), (5, 255)])
def test_encode_map2_equals_repeat_exactly(t, n):
    scheme = EncodingScheme.map2(t, n)
    msg = Message.random(t, np.random.default_rng(n))
    out = encode_map2(msg, scheme)
    assert out.dtype == np.float64 and out.flags.writeable
    assert np.array_equal(out, np.repeat(np.asarray(msg.bits, dtype=np.float64), n // t))


def test_decode_map2_threshold_is_inclusive():
    """A subinterval mean of exactly 1/2 decodes as bit 1."""
    scheme = EncodingScheme.map2(2, 4)
    u = np.array([1.0, 0.0, 0.0, 0.0])  # means 0.5 and 0.0
    assert decode_map2(u, scheme).bits == (1, 0)


def test_decode_map2_returns_python_ints():
    scheme = EncodingScheme.map2(4, 8)
    u = np.array([0.5, 0.5, 0.25, 0.5, 0.9, 0.1, -3.0, 2.0])
    bits = decode_map2(u, scheme).bits
    assert bits == (1, 0, 1, 0)
    assert all(type(b) is int for b in bits)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_map2_roundtrip_random(data):
    t = data.draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    cells = data.draw(st.integers(min_value=1, max_value=8))
    n = t * cells
    msg = Message(tuple(data.draw(st.integers(0, 1)) for _ in range(t)))
    scheme = EncodingScheme.map2(t, n)
    assert decode_map2(encode_map2(msg, scheme), scheme) == msg


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 2048])
def test_map2_cell_means_equal_numpy_mean_exactly(n):
    """Random cells and cells whose exact mean is 1/2, so the float mean sits on the threshold."""
    rng = np.random.default_rng(n)
    for t in sorted({d for d in (1, 3, 5, 8, 32, 64, n) if n % d == 0}):
        scheme = EncodingScheme.map2(t, n)
        noise = 1e-3 * rng.standard_normal((t, n // t))
        noise -= noise.mean(axis=1, keepdims=True)
        for u in (rng.standard_normal(n), (0.5 + noise).ravel()):
            expected = u.reshape(t, -1).mean(axis=1)
            assert np.array_equal(map2_cell_means(u, scheme), expected)
            assert decode_map2(u, scheme).bits == tuple((expected >= 0.5).tolist())


@pytest.mark.parametrize("cells", [1, 2, 3, 5, 7, 8, 96, 1000, 4097])
def test_decode_map2_near_ties_agree_with_the_cell_means(cells):
    """Cell sums a few ulps either side of c/2 decode as their means threshold at 1/2."""
    half = 0.5 * cells
    sums = [half]
    for direction in (np.inf, -np.inf):
        s = half
        for _ in range(4):
            s = np.nextafter(s, direction)
            sums.append(s)
    t = len(sums)
    scheme = EncodingScheme.map2(t, t * cells)
    rng = np.random.default_rng(cells)
    # Each sum stands alone in its cell's first sample, so the cell sum is it exactly;
    # the second profile spreads each sum over the cell and lets rounding pick the sum.
    lone = np.zeros((t, cells))
    lone[:, 0] = sums
    spread = np.repeat(np.array(sums)[:, None] / cells, cells, axis=1)
    spread += 1e-16 * rng.standard_normal((t, cells))
    for u in (lone.ravel(), spread.ravel()):
        expected = tuple((map2_cell_means(u, scheme) >= 0.5).tolist())
        assert decode_map2(u, scheme).bits == expected
    assert decode_map2(lone.ravel(), scheme).bits == (1, 1, 1, 1, 1, 0, 0, 0, 0)


def test_map2_length_mismatch():
    scheme = EncodingScheme.map2(4, 8)
    with pytest.raises(ValueError, match="length"):
        encode_map2(Message.from_int(0, 2), scheme)
    with pytest.raises(ValueError, match="mismatch"):
        decode_map2(np.zeros(4), scheme)
    # 512 samples are not read as 32 cells of 16 on a 256-point scheme.
    for u in (np.ones(512), np.ones(128), np.ones((32, 8))):
        text = f"grid size mismatch: {u.shape} vs (256,)"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            map2_cell_means(u, EncodingScheme.map2(32, 256))


# ---------------------------------------------------------------- dispatchers


def test_dispatchers_select_by_kind():
    rng = np.random.default_rng(1)
    msg = Message.random(4, rng)
    for scheme in (
        EncodingScheme.map1(4, 64),
        EncodingScheme.map1(4, 64, basis="haar"),
        EncodingScheme.map2(4, 64),
    ):
        assert decode(encode(msg, scheme), scheme) == msg
