import copy
import math
import pickle
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from treehom import (
    SemiringError,
    Weight,
    get_semiring,
    power_index_period,
)
from treehom.semiring import WeightSyntaxError, _is_prime

ALL_IDS = ["boolean", "natural", "integer", "tropical", "arctic", "z6", "z5"]


# Fixed carrier samples of the infinite semirings for law checking.
SAMPLES = {
    "natural": [0, 1, 2, 3, 5, 7, 32, 1024, 2**40],
    "integer": [0, 1, -1, 2, -3, 7, -10, 64, -(2**30)],
    "tropical": [math.inf, 0, 1, 2, 3, 5, 10, 100],
    "arctic": [-math.inf, 0, 1, 2, 3, 5, 10, 100],
}


def elements(sr):
    """Every carrier value of a finite semiring."""
    return [0, 1] if sr.id == "boolean" else list(range(sr.k))


@pytest.mark.parametrize("sr_id", ALL_IDS)
def test_semiring_axioms(sr_id):
    # Exhaustive on finite carriers, a sampled grid of >= 100 triples otherwise.
    sr = get_semiring(sr_id)
    vals = elements(sr) if sr.finite else SAMPLES[sr_id]
    if not sr.finite:
        assert len(vals) ** 3 >= 100
    for a, b in product(vals, repeat=2):
        assert sr.add(a, b) == sr.add(b, a)
        assert sr.mul(a, b) == sr.mul(b, a)
    for a, b, c in product(vals, repeat=3):
        assert sr.add(sr.add(a, b), c) == sr.add(a, sr.add(b, c))
        assert sr.mul(sr.mul(a, b), c) == sr.mul(a, sr.mul(b, c))
        assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))
    for a in vals:
        assert sr.add(a, sr.zero) == a
        assert sr.mul(a, sr.one) == a
        assert sr.mul(a, sr.zero) == sr.zero


@pytest.mark.parametrize("sr_id,expected", [
    ("boolean", True),
    ("natural", True),
    ("tropical", True),
    ("arctic", True),
    ("integer", False),
    ("z6", False),
])
def test_zero_sum_free_flags(sr_id, expected):
    assert get_semiring(sr_id).zero_sum_free is expected


@pytest.mark.parametrize("sr_id,expected", [
    ("boolean", True),
    ("natural", True),
    ("integer", True),
    ("tropical", True),
    ("arctic", True),
    ("z5", True),
    ("z6", False),
    ("z4", False),
    ("z7", True),
])
def test_zero_divisor_flags(sr_id, expected):
    assert get_semiring(sr_id).zero_divisor_free is expected


def test_zero_sum_free_flag_matches_carrier():
    # On every finite semiring the flag must agree with brute force.
    for sr_id in ("boolean", "z4", "z5", "z6", "z7"):
        sr = get_semiring(sr_id)
        vals = elements(sr)
        has_zero_sum = any(
            sr.add(a, b) == sr.zero and (a != sr.zero or b != sr.zero)
            for a, b in product(vals, repeat=2)
        )
        assert sr.zero_sum_free is (not has_zero_sum)


def test_zero_divisor_flag_matches_carrier():
    for sr_id in ("boolean", "z4", "z5", "z6", "z7"):
        sr = get_semiring(sr_id)
        vals = [v for v in elements(sr) if v != sr.zero]
        has_divisor = any(sr.mul(a, b) == sr.zero for a, b in product(vals, repeat=2))
        assert sr.zero_divisor_free is (not has_divisor)


def test_tropical_arithmetic():
    sr = get_semiring("tropical")
    assert sr.add(3, 5) == 3
    assert sr.mul(3, 5) == 8
    assert sr.zero == math.inf
    assert sr.one == 0
    assert sr.mul(2, math.inf) == math.inf


def test_arctic_arithmetic():
    sr = get_semiring("arctic")
    assert sr.add(3, 5) == 5
    assert sr.mul(3, 5) == 8
    assert sr.zero == -math.inf
    assert sr.mul(2, -math.inf) == -math.inf


def test_modular_arithmetic():
    sr = get_semiring("z6")
    assert sr.add(2, 4) == 0
    assert sr.mul(2, 3) == 0
    assert sr.mul(4, 5) == 2


def test_natural_addition_identity():
    sr = get_semiring("natural")
    assert sr.add(0, 7) == 7


@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50),
       st.integers(min_value=-50, max_value=50))
def test_integer_distributivity(a, b, c):
    sr = get_semiring("integer")
    assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=60))
def test_tropical_distributivity(a, b, c):
    sr = get_semiring("tropical")
    assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))


def test_weight_flags():
    trop = get_semiring("tropical")
    assert Weight(trop, math.inf).is_zero
    assert Weight(trop, 0).is_one
    assert not Weight(trop, 1).is_one


def test_parse_and_format_round_trip():
    cases = [
        ("tropical", "inf", math.inf),
        ("tropical", "4", 4),
        ("arctic", "-inf", -math.inf),
        ("integer", "-3", -3),
        ("natural", "12", 12),
        ("boolean", "1", 1),
        ("z6", "5", 5),
    ]
    for sr_id, text, value in cases:
        w = get_semiring(sr_id).parse(text)
        assert w.value == value
        assert str(w) == text
        assert get_semiring(sr_id).parse(str(w)) == w


def test_parse_rejects_bad_literals():
    with pytest.raises(SemiringError):
        get_semiring("natural").parse("-1")
    with pytest.raises(SemiringError):
        get_semiring("boolean").parse("2")
    with pytest.raises(SemiringError):
        get_semiring("z6").parse("6")
    with pytest.raises(SemiringError):
        get_semiring("tropical").parse("x")


# Malformed literals of each semiring and the exact error each gets.  The
# digit patterns are ASCII only and must match the whole literal.
MALFORMED_WEIGHTS = [
    ("boolean", "2", "invalid boolean weight literal: '2'"),
    ("boolean", "", "invalid boolean weight literal: ''"),
    ("boolean", "01", "invalid boolean weight literal: '01'"),
    ("natural", "-1", "invalid natural weight literal: '-1'"),
    ("natural", "+1", "invalid natural weight literal: '+1'"),
    ("natural", "", "invalid natural weight literal: ''"),
    ("natural", "1.0", "invalid natural weight literal: '1.0'"),
    ("natural", "1\n", "invalid natural weight literal: '1\\n'"),
    ("natural", "1_000", "invalid natural weight literal: '1_000'"),
    ("natural", "\u0663", "invalid natural weight literal: '\u0663'"),
    ("integer", "--1", "invalid integer weight literal: '--1'"),
    ("integer", "+", "invalid integer weight literal: '+'"),
    ("integer", "1-", "invalid integer weight literal: '1-'"),
    ("integer", " -3", "invalid integer weight literal: ' -3'"),
    ("integer", "-3\n", "invalid integer weight literal: '-3\\n'"),
    ("tropical", "x", "invalid tropical weight literal: 'x'"),
    ("tropical", "-inf", "invalid tropical weight literal: '-inf'"),
    ("tropical", "Inf", "invalid tropical weight literal: 'Inf'"),
    ("tropical", "-1", "invalid tropical weight literal: '-1'"),
    ("arctic", "inf", "invalid arctic weight literal: 'inf'"),
    ("arctic", "-1", "invalid arctic weight literal: '-1'"),
    ("arctic", "1e3", "invalid arctic weight literal: '1e3'"),
    ("z6", "6", "residue 6 out of range for z6 (expected 0..5)"),
    ("z6", "-1", "invalid z6 weight literal: '-1'"),
    ("z6", "x", "invalid z6 weight literal: 'x'"),
]


@pytest.mark.parametrize("sr_id,text,message", MALFORMED_WEIGHTS)
def test_malformed_weight_messages(sr_id, text, message):
    with pytest.raises(WeightSyntaxError) as err:
        get_semiring(sr_id).parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("sr_id,text,value", [
    ("natural", "007", 7),
    ("integer", "+5", 5),
    ("integer", "-0", 0),
    ("integer", "-007", -7),
    ("tropical", "0", 0),
    ("arctic", "12", 12),
    ("z6", "05", 5),
])
def test_weight_literals_with_signs_and_leading_zeros(sr_id, text, value):
    assert get_semiring(sr_id).parse(text).value == value


def test_primality_of_large_moduli():
    start = time.perf_counter()
    assert get_semiring(f"z{2**61 - 1}").zero_divisor_free
    assert time.perf_counter() - start < 0.5
    assert not get_semiring("z561").zero_divisor_free  # a Carmichael number
    assert not get_semiring(f"z{10**30}").zero_divisor_free
    # A composite past the exact range of the bases still has a witness.
    assert not get_semiring(f"z{(2**61 - 1) * (2**89 - 1)}").zero_divisor_free
    # A prime past that range has none, and is not taken on trust.
    with pytest.raises(SemiringError):
        get_semiring(f"z{2**89 - 1}")


def test_huge_moduli_without_a_small_factor_are_rejected_at_once():
    start = time.perf_counter()
    with pytest.raises(SemiringError, match=r"5000 digits .* below 2\^1024"):
        get_semiring("z1" + "0" * 4998 + "7")  # 10^4999 + 7 has no factor up to 41
    assert time.perf_counter() - start < 0.5
    # A small factor still settles a modulus of any size.
    assert not get_semiring(f"z{2**5000}").zero_divisor_free


def test_primality_matches_trial_division():
    for k in range(5000):
        prime = k >= 2 and all(k % d for d in range(2, math.isqrt(k) + 1))
        assert _is_prime(k) is prime, k


def test_get_semiring_registry():
    assert get_semiring("natural") is get_semiring("natural")
    assert get_semiring("z6").k == 6
    with pytest.raises(SemiringError):
        get_semiring("z1")
    with pytest.raises(SemiringError):
        get_semiring("fancy")


def test_power_index_period_frozen_values():
    z6 = get_semiring("z6")
    assert power_index_period(Weight(z6, 2)) == (1, 2)
    assert power_index_period(Weight(z6, 1)) == (0, 1)
    assert power_index_period(Weight(z6, 3)) == (1, 1)
    boolean = get_semiring("boolean")
    assert power_index_period(Weight(boolean, 0)) == (1, 1)
    assert power_index_period(Weight(boolean, 1)) == (0, 1)


def test_power_index_period_definition():
    # (i, p) really is the least lasso of the power sequence.
    for sr_id in ("boolean", "z4", "z5", "z6", "z7", "z8"):
        sr = get_semiring(sr_id)
        for v in elements(sr):
            i, p = power_index_period(Weight(sr, v))
            powers = [sr.one]
            for _ in range(i + 2 * p + 2):
                powers.append(sr.mul(powers[-1], v))
            assert powers[i + p] == powers[i]
            assert all(powers[j + q] != powers[j]
                       for j in range(i + 1) for q in range(1, p + 1)
                       if (j, q) != (i, p))


def test_power_index_period_rejects_infinite():
    with pytest.raises(SemiringError):
        power_index_period(Weight(get_semiring("natural"), 2))


def test_weight_is_hashable_and_frozen():
    w = Weight(get_semiring("natural"), 3)
    assert hash(w) == hash(Weight(get_semiring("natural"), 3))
    with pytest.raises(AttributeError):
        w.value = 4
    with pytest.raises(AttributeError, match="cannot delete field 'value'"):
        del w.value
    with pytest.raises(AttributeError):
        w.other = 4
    assert (w.semiring, w.value) == (get_semiring("natural"), 3)


def test_weight_value_semantics():
    w = Weight(get_semiring("natural"), 3)
    assert repr(w) == "Weight(natural, 3)"
    assert str(w) == "3"
    assert repr(Weight(get_semiring("tropical"), math.inf)) == "Weight(tropical, inf)"
    assert w == Weight(get_semiring("natural"), 3)
    assert w != Weight(get_semiring("natural"), 4)
    assert w != Weight(get_semiring("integer"), 3)
    assert (w == 3) is False and (w != 3) is True
    assert w.__eq__(3) is NotImplemented
    assert {w, Weight(get_semiring("natural"), 3)} == {w}
    assert copy.copy(w) == w and pickle.loads(pickle.dumps(w)) == w
