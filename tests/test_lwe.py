"""Modular noisy linear systems: generation, enumeration, analogy report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipcrypt import lwe
from ipcrypt.hso import AmplificationReport, DecayClassification
from ipcrypt.lwe import (
    ENUMERATION_LIMIT,
    AnalogyReport,
    LweInstance,
    LweParams,
    analogy_report,
    centered,
    lwe_brute_force,
    lwe_gen,
)
from report_parsing import report_from_keyvalues

# ---------------------------------------------------------------- params


def test_params_validation():
    LweParams(q=17, m=3, n=12, error_bound=1)
    with pytest.raises(ValueError, match="prime"):
        LweParams(q=15, m=2, n=4, error_bound=1)
    with pytest.raises(ValueError, match="prime"):
        LweParams(q=1, m=2, n=4, error_bound=0)
    with pytest.raises(ValueError, match="positive"):
        LweParams(q=17, m=0, n=4, error_bound=1)
    with pytest.raises(ValueError, match="samples"):
        LweParams(q=17, m=5, n=4, error_bound=1)
    with pytest.raises(ValueError, match="q/4"):
        LweParams(q=17, m=2, n=4, error_bound=5)  # 5 >= 17/4
    LweParams(q=17, m=2, n=4, error_bound=4)


# Largest prime q with 3 (q - 1)^2 < 2^63, and the next prime, where it is not.
LARGEST_Q_AT_M3 = 1_753_413_037
NEXT_PRIME = 1_753_413_059


def test_params_refuse_moduli_where_int64_products_wrap():
    """At q = 10^12 + 39, m = 3, lwe_gen's A s wrapped in int64, and its own check agreed."""
    with pytest.raises(ValueError, match=r"must be below 2\^63 for int64 arithmetic"):
        LweParams(q=10**12 + 39, m=3, n=3, error_bound=0)
    with pytest.raises(ValueError, match=r"2\^63"):
        LweParams(q=NEXT_PRIME, m=3, n=3, error_bound=0)


def test_lwe_gen_is_exact_at_the_largest_accepted_modulus():
    params = LweParams(q=LARGEST_Q_AT_M3, m=3, n=3, error_bound=0)
    inst = lwe_gen(params, np.random.default_rng(0))
    a = [[int(x) for x in row] for row in inst.a_matrix]
    s = [int(x) for x in inst.secret]
    exact = [sum(x * y for x, y in zip(row, s)) % params.q for row in a]
    assert [int(x) for x in inst.b] == exact


def test_params_refuse_a_huge_modulus_before_trial_division(monkeypatch):
    """Trial division alone took seconds at q near 10^16; the bound is checked first."""

    def no_trial_division(q):
        raise AssertionError("primality tested before the int64 bound")

    monkeypatch.setattr(lwe, "_is_prime", no_trial_division)
    with pytest.raises(ValueError, match=r"got q = 10000000000000061, m = 1, error bound = 0"):
        LweParams(q=10**16 + 61, m=1, n=1, error_bound=0)


# ---------------------------------------------------------------- centering


def test_centered_scalars():
    assert centered(0, 5) == 0
    assert centered(2, 5) == 2
    assert centered(3, 5) == -2
    assert centered(13, 5) == -2
    assert centered(-1, 5) == -1
    # q/2 itself stays on the positive side for even q.
    assert centered(2, 4) == 2


def test_centered_array_and_validation():
    out = centered(np.array([0, 1, 2, 3, 4]), 5)
    np.testing.assert_array_equal(out, [0, 1, 2, -2, -1])
    assert out.dtype == np.int64
    with pytest.raises(ValueError):
        centered(3, 1)


@given(st.integers(-1000, 1000), st.integers(2, 97))
def test_centered_is_a_congruent_representative(x, q):
    c = centered(x, q)
    assert (c - x) % q == 0
    assert -q / 2 < c <= q / 2


# ---------------------------------------------------------------- instances


def hand_instance():
    """Worked example: q=5, s=(2,3), e=(1,0,-1) gives b=(3,3,4)."""
    params = LweParams(q=5, m=2, n=3, error_bound=1)
    a = np.array([[1, 0], [0, 1], [1, 1]])
    return LweInstance(
        params=params,
        a_matrix=a,
        b=np.array([3, 3, 4]),
        secret=np.array([2, 3]),
        error=np.array([1, 0, -1]),
    )


def test_hand_instance_is_consistent():
    inst = hand_instance()
    np.testing.assert_array_equal(
        (inst.a_matrix @ inst.secret + inst.error) % 5, inst.b
    )


def test_instance_rejects_inconsistent_b():
    params = LweParams(q=5, m=2, n=3, error_bound=1)
    a = np.array([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError, match="A s \\+ e"):
        LweInstance(
            params=params,
            a_matrix=a,
            b=np.array([3, 3, 0]),
            secret=np.array([2, 3]),
            error=np.array([1, 0, -1]),
        )


def test_instance_validation():
    params = LweParams(q=5, m=2, n=3, error_bound=1)
    a = np.array([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError, match="shape"):
        LweInstance(params, a.T, np.array([3, 3, 4]), np.array([2, 3]), np.zeros(3))
    with pytest.raises(ValueError, match="\\[0, q\\)"):
        LweInstance(
            params, a, np.array([3, 3, 4]), np.array([7, 3]), np.array([1, 0, -1])
        )
    with pytest.raises(ValueError, match="bounded"):
        LweInstance(
            params, a, np.array([0, 3, 4]), np.array([2, 3]), np.array([-2, 0, -1])
        )


def test_lwe_gen_reproducible_and_valid():
    params = LweParams(q=17, m=3, n=12, error_bound=1)
    i1 = lwe_gen(params, np.random.default_rng(0))
    i2 = lwe_gen(params, np.random.default_rng(0))
    np.testing.assert_array_equal(i1.a_matrix, i2.a_matrix)
    np.testing.assert_array_equal(i1.b, i2.b)
    np.testing.assert_array_equal(i1.secret, i2.secret)
    assert np.abs(i1.error).max() <= 1


def test_lwe_gen_zero_bound_is_noiseless():
    params = LweParams(q=17, m=2, n=6, error_bound=0)
    inst = lwe_gen(params, np.random.default_rng(1))
    assert not inst.error.any()
    np.testing.assert_array_equal(inst.b, (inst.a_matrix @ inst.secret) % 17)


# ---------------------------------------------------------------- enumeration


def test_brute_force_on_hand_instance():
    inst = hand_instance()
    found = lwe_brute_force(inst.a_matrix, inst.b, 5, 1)
    assert (2, 3) in found
    assert found == sorted(found)


def test_brute_force_always_contains_witness():
    params = LweParams(q=17, m=2, n=8, error_bound=1)
    rng = np.random.default_rng(2)
    for _ in range(20):
        inst = lwe_gen(params, rng)
        found = lwe_brute_force(inst.a_matrix, inst.b, 17, 1)
        assert tuple(inst.secret) in found


def test_brute_force_zero_bound_identity_matrix_is_singleton():
    rng = np.random.default_rng(3)
    q, m = 17, 3
    s = rng.integers(0, q, size=m)
    found = lwe_brute_force(np.eye(m, dtype=np.int64), s, q, 0)
    assert found == [tuple(int(x) for x in s)]


def test_brute_force_spans_chunks():
    """2^18 candidates cross several 2^16 chunks; the witness still lands."""
    rng = np.random.default_rng(4)
    m = 18
    s = rng.integers(0, 2, size=m)
    found = lwe_brute_force(np.eye(m, dtype=np.int64), s, 2, 0)
    assert found == [tuple(int(x) for x in s)]


def test_brute_force_order_is_lexicographic():
    # Zero matrix accepts everything: the result is all of Z_3^2 in order.
    a = np.zeros((1, 2), dtype=np.int64)
    found = lwe_brute_force(a, np.zeros(1, dtype=np.int64), 3, 0)
    assert found == [
        (0, 0), (0, 1), (0, 2),
        (1, 0), (1, 1), (1, 2),
        (2, 0), (2, 1), (2, 2),
    ]


def test_brute_force_candidates_grow_with_bound():
    """Superset per instance, and growing mean count across 100 trials."""
    params = LweParams(q=17, m=2, n=4, error_bound=3)
    rng = np.random.default_rng(5)
    inst = lwe_gen(params, rng)
    counts = [
        len(lwe_brute_force(inst.a_matrix, inst.b, 17, bound)) for bound in range(4)
    ]
    assert counts == sorted(counts)

    means = []
    for bound in range(4):
        p = LweParams(q=17, m=2, n=4, error_bound=bound)
        total = 0
        for _ in range(100):
            i = lwe_gen(p, rng)
            total += len(lwe_brute_force(i.a_matrix, i.b, 17, bound))
        means.append(total / 100.0)
    assert means == sorted(means)
    assert means[0] >= 1.0


def test_brute_force_refuses_oversized_search():
    assert ENUMERATION_LIMIT == 10**7
    a = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(ValueError, match="enumeration limit"):
        lwe_brute_force(a, np.zeros(2, dtype=np.int64), 101, 1)


def test_brute_force_shape_validation():
    with pytest.raises(ValueError, match="shapes"):
        lwe_brute_force(np.zeros((2, 2)), np.zeros(3), 5, 0)


# ---------------------------------------------------------------- analogy report


def test_empty_report_renders_missing_everywhere():
    rep = AnalogyReport()
    assert rep.to_keyvalues().count("=missing") == 14
    for _, fin, op in rep.rows():
        assert fin == "missing"
        assert op == "missing"
    assert report_from_keyvalues(rep.to_keyvalues()) == rep


def test_report_table_layout():
    rep = AnalogyReport(q=17, secret_dim=3, num_samples=12, error_bound=1)
    text = rep.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("aspect")
    assert [ln.split()[0] for ln in lines[1:]] == [
        "Dimension",
        "Data",
        "Solution",
        "Noise",
    ]
    assert "secret space Z_17^3" in text
    assert "missing" in text  # operator half absent
    assert text.endswith("\n")
    assert all(ln == ln.rstrip() for ln in lines)


def test_report_builder_wires_all_fields():
    params = LweParams(q=17, m=3, n=12, error_bound=1)
    decay = DecayClassification(
        kind="mild",
        decay_exponent=1.99,
        decay_rate=None,
        fit_quality=0.9999,
        fit_range=(5, 50),
        low_confidence=False,
    )
    amp = AmplificationReport(
        n=256,
        trials=10,
        noise_scale=0.01,
        noise_norms=np.full(10, 0.01),
        error_norms=np.full(10, 800.0),
        amplification_factors=np.full(10, 80000.0),
    )
    rep = analogy_report(
        lwe=params,
        decay=decay,
        amplification=amp,
        brute_force_status="unique witness among 1 consistent candidate(s)",
    )
    assert rep.q == 17 and rep.secret_dim == 3 and rep.num_samples == 12
    assert rep.grid_n == 256  # defaulted from the amplification report
    assert rep.decay_kind == "mild" and rep.decay_exponent == 1.99
    assert rep.amplification_mean == pytest.approx(80000.0)
    assert rep.amplification_trials == 10
    assert "exponent 1.99" in rep.to_text()
    assert "x8e+04" in rep.to_text()


def test_from_keyvalues_skips_blanks_and_comments():
    rep = report_from_keyvalues("\n# seed=ab\nq=17\n\ndecay_kind=mild\n")
    assert rep.q == 17
    assert rep.decay_kind == "mild"
    assert rep.secret_dim is None
    with pytest.raises(ValueError, match="unknown analogy field"):
        report_from_keyvalues("bogus=3\n")


field_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=24
).filter(lambda s: s == s.strip() and s != "missing")
opt_int = st.none() | st.integers(-(10**12), 10**12)
opt_float = st.none() | st.floats(allow_nan=False, allow_infinity=False)
opt_text = st.none() | field_text


@given(
    q=opt_int,
    secret_dim=opt_int,
    num_samples=opt_int,
    error_bound=opt_int,
    grid_n=opt_int,
    amplification_trials=opt_int,
    decay_exponent=opt_float,
    decay_rate=opt_float,
    decay_fit_quality=opt_float,
    amplification_mean=opt_float,
    amplification_max=opt_float,
    noise_scale=opt_float,
    brute_force_status=opt_text,
    decay_kind=opt_text,
)
@settings(max_examples=200)
def test_keyvalues_roundtrip_is_lossless(**fields):
    rep = AnalogyReport(**fields)
    again = report_from_keyvalues(rep.to_keyvalues())
    assert again == rep


# ---------------------------------------------------------------- pinned report texts

# Each text below was printed by the parent of the table-driven report and is
# committed unchanged.  Constructed reports read no BLAS, so the bytes are the
# same on every host.
PINNED_REPORTS = {
    "all_fields_decay_by_exponent": (
        AnalogyReport(
            q=17,
            secret_dim=3,
            num_samples=12,
            error_bound=1,
            grid_n=256,
            amplification_trials=10,
            decay_exponent=1.9987654321,
            decay_rate=0.0123456,
            decay_fit_quality=0.99991,
            amplification_mean=80123.456789,
            amplification_max=91234.5,
            noise_scale=0.01,
            brute_force_status="unique witness among 1 consistent candidate(s)",
            decay_kind="mild",
        ),
        """\
aspect     finite-dimensional                                           operator
Dimension  secret space Z_17^3                                          function space on [0,1], grid n = 256
Data       12 noisy samples b = A s + e mod 17                          smoothed samples, mild singular decay (exponent 2)
Solution   enumeration: unique witness among 1 consistent candidate(s)  naive inversion amplifies noise x8.01e+04 (mean)
Noise      integer error bounded by 1                                   grid error at scale 0.01
""",
        """\
q=17
secret_dim=3
num_samples=12
error_bound=1
grid_n=256
amplification_trials=10
decay_exponent=1.9987654321
decay_rate=0.0123456
decay_fit_quality=0.99991
amplification_mean=80123.456789
amplification_max=91234.5
noise_scale=0.01
brute_force_status=unique witness among 1 consistent candidate(s)
decay_kind=mild
""",
    ),
    "decay_by_rate": (
        AnalogyReport(
            grid_n=64,
            amplification_trials=3,
            decay_rate=0.73456,
            decay_fit_quality=0.5,
            amplification_mean=1.5e-07,
            amplification_max=2.0,
            noise_scale=1e-12,
            decay_kind="severe",
        ),
        """\
aspect     finite-dimensional  operator
Dimension  missing             function space on [0,1], grid n = 64
Data       missing             smoothed samples, severe singular decay (rate 0.735)
Solution   missing             naive inversion amplifies noise x1.5e-07 (mean)
Noise      missing             grid error at scale 1e-12
""",
        """\
q=missing
secret_dim=missing
num_samples=missing
error_bound=missing
grid_n=64
amplification_trials=3
decay_exponent=missing
decay_rate=0.73456
decay_fit_quality=0.5
amplification_mean=1.5e-07
amplification_max=2.0
noise_scale=1e-12
brute_force_status=missing
decay_kind=severe
""",
    ),
    "decay_law_unknown": (
        AnalogyReport(q=101, secret_dim=2, decay_kind="mild", noise_scale=0.25),
        """\
aspect     finite-dimensional    operator
Dimension  secret space Z_101^2  missing
Data       missing               smoothed samples, mild singular decay (law unknown)
Solution   missing               missing
Noise      missing               grid error at scale 0.25
""",
        """\
q=101
secret_dim=2
num_samples=missing
error_bound=missing
grid_n=missing
amplification_trials=missing
decay_exponent=missing
decay_rate=missing
decay_fit_quality=missing
amplification_mean=missing
amplification_max=missing
noise_scale=0.25
brute_force_status=missing
decay_kind=mild
""",
    ),
    "lwe_half_only": (
        AnalogyReport(
            q=17,
            secret_dim=3,
            num_samples=12,
            error_bound=1,
            brute_force_status="3 consistent candidates, secret not pinned down",
        ),
        """\
aspect     finite-dimensional                                            operator
Dimension  secret space Z_17^3                                           missing
Data       12 noisy samples b = A s + e mod 17                           missing
Solution   enumeration: 3 consistent candidates, secret not pinned down  missing
Noise      integer error bounded by 1                                    missing
""",
        """\
q=17
secret_dim=3
num_samples=12
error_bound=1
grid_n=missing
amplification_trials=missing
decay_exponent=missing
decay_rate=missing
decay_fit_quality=missing
amplification_mean=missing
amplification_max=missing
noise_scale=missing
brute_force_status=3 consistent candidates, secret not pinned down
decay_kind=missing
""",
    ),
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_report_texts_are_pinned(name):
    rep, text, keyvalues = PINNED_REPORTS[name]
    assert rep.to_text() == text
    assert rep.to_keyvalues() == keyvalues
    assert report_from_keyvalues(keyvalues) == rep
