import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronflow.errors import ValidationError
from kronflow.frequency import (
    UNIT,
    Generator,
    RationalSequenceSpec,
    SigmaSequence,
    SubgroupOfQSpec,
    build_product_vector,
    coordinates,
    evaluate_float,
    parse_frequency_spec,
    rational_vector,
    solenoid_vector,
    sqrt_prime_generator,
    truncate,
)
from oracles import sigma_by_partial_sums


# -- parsing examples


def test_parse_solenoid_halving():
    fv = parse_frequency_spec(
        '{"kind":"solenoid","generator":"1","a":{"prefix":[1,2],"tail":{"constant":2}}}'
    )
    # omega_j = 2^(1-j)
    for j in range(1, 8):
        assert coordinates(fv, j) == {UNIT: F(2) ** (1 - j)}


def test_parse_finite():
    fv = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"1":"1/2"},{"1":"1/3"}]}')
    assert [coordinates(fv, j)[UNIT] for j in (1, 2, 3)] == [F(1), F(1, 2), F(1, 3)]


def test_parse_factorial_rule():
    fv = parse_frequency_spec('{"kind":"solenoid","a":{"prefix":[1],"tail":"increment"}}')
    # omega_j = 1/j!
    for j in range(1, 8):
        assert coordinates(fv, j) == {UNIT: F(1, math.factorial(j))}


def test_parse_errors_name_the_field():
    with pytest.raises(ValidationError, match="terms"):
        parse_frequency_spec('{"kind":"finite"}')
    with pytest.raises(ValidationError, match="a_1"):
        parse_frequency_spec('{"kind":"solenoid","a":{"prefix":[2],"tail":{"constant":2}}}')
    with pytest.raises(ValidationError, match="kind"):
        parse_frequency_spec('{"kind":"mystery"}')
    with pytest.raises(ValidationError, match="JSON"):
        parse_frequency_spec("{not json")


# -- coordinates examples


def test_coordinates_solenoid():
    a = SigmaSequence((1, 2), "constant", (2,))
    fv = solenoid_vector(a)
    assert coordinates(fv, 3) == {UNIT: F(1, 4)}


def test_coordinates_finite_sqrt2():
    fv = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"}]}')
    assert coordinates(fv, 2) == {sqrt_prime_generator(2): F(1)}


def test_coordinates_quadratic_rule_derived():
    # sigma_2 frozen by the partial-sum oracle: s_k = 2^-k gives sigma_2 = 3/2
    s = RationalSequenceSpec((), F(1, 2), F(1, 2))
    oracle = sigma_by_partial_sums(s.term, 2, s.tail_c, s.tail_r, cutoff=60)
    assert oracle == F(3, 2)
    beta = Generator("beta", "opaque")
    fv = parse_frequency_spec(
        {"kind": "bo", "beta": {"name": "beta", "kind": "opaque"}, "s": {"prefix": [], "tail": {"c": "1/2", "r": "1/2"}}}
    )
    assert coordinates(fv, 2) == {UNIT: F(4), beta: F(-3)}


# -- evaluate_float examples


def test_evaluate_float_values():
    with mpmath.workprec(90):
        fv = rational_vector(["1", "1/2", "1/3"])
        assert abs(evaluate_float(fv, 3) - mpmath.mpf(1) / 3) < 1e-18
        fact = parse_frequency_spec('{"kind":"solenoid","a":{"prefix":[1],"tail":"increment"}}')
        assert abs(evaluate_float(fact, 4) - mpmath.mpf(1) / 24) < 1e-18
        fv2 = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"}]}')
        assert abs(evaluate_float(fv2, 2) - mpmath.sqrt(2)) < 1e-18


@settings(max_examples=50, deadline=None)
@given(
    st.fractions(min_value=F(-10**6), max_value=F(10**6), max_denominator=10**6).filter(
        lambda q: q != 0
    )
)
def test_evaluate_float_relative_error(q):
    fv = rational_vector([q])
    approx = evaluate_float(fv, 1)
    exact = mpmath.mpf(q.numerator) / q.denominator
    assert abs(approx - exact) <= abs(exact) * mpmath.mpf(2) ** -50


# -- truncate examples


def test_truncate_solenoid():
    a = SigmaSequence((1, 2), "constant", (2,))
    t = truncate(solenoid_vector(a), 3)
    assert [coordinates(t, j)[UNIT] for j in (1, 2, 3)] == [F(1), F(1, 2), F(1, 4)]


def test_truncate_quadratic_zero_actions():
    fv = parse_frequency_spec({"kind": "bo", "beta": {"name": "b", "kind": "opaque"}, "s": {"prefix": []}})
    t = truncate(fv, 3)
    assert [coordinates(t, j) for j in (1, 2, 3)] == [{UNIT: F(1)}, {UNIT: F(4)}, {UNIT: F(9)}]


def test_truncate_product_placement_derived():
    # single non-free component Z[1/2]: entries sqrt2 / prod(a) at indices 2^N
    fv = build_product_vector([SubgroupOfQSpec(qa=SigmaSequence((1, 2), "constant", (2,)))])
    t = truncate(fv, 4)
    s2 = sqrt_prime_generator(2)
    assert coordinates(t, 2) == {s2: F(1)}  # j = 2^1, prod a = 1
    assert coordinates(t, 4) == {s2: F(1, 2)}  # j = 2^2, prod a = 2
    assert coordinates(t, 3) == {}
    assert coordinates(t, 1) == {}


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10))
def test_truncate_preserves_coordinates(n_extra, j_probe):
    a = SigmaSequence((1,), "increment")
    fv = solenoid_vector(a)
    depth = max(n_extra, j_probe)
    assert coordinates(truncate(fv, depth), j_probe) == coordinates(fv, j_probe)


# -- structural invariants


@given(st.integers(1, 12))
def test_solenoid_defining_relation(j):
    a = SigmaSequence((1, 3, 2), "periodic", (2, 5))
    fv = solenoid_vector(a)
    lhs = coordinates(fv, j)[UNIT]
    rhs = a.term(j + 1) * coordinates(fv, j + 1)[UNIT]
    assert lhs == rhs


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(2, 9), max_size=4),
    st.sampled_from(["constant", "periodic", "increment", "odd_indexed_primes"]),
    st.lists(st.integers(2, 9), min_size=1, max_size=3),
    st.integers(0, 40),
)
def test_partial_products_are_running_products(rest, kind, params, n):
    tail_params = {"constant": tuple(params[:1]), "periodic": tuple(params)}.get(kind, ())
    a = SigmaSequence((1, *rest), kind, tail_params)
    products = a.partial_products(n)
    assert len(products) == n
    expected = 1
    for j in range(1, n + 1):
        expected *= a.term(j)
        assert products[j - 1] == expected == a.partial_product(j)
    assert a.partial_product(0) == 1


def test_sequence_tails():
    inc = SigmaSequence((1,), "increment")
    assert inc.terms(5) == [1, 2, 3, 4, 5]
    oip = SigmaSequence((1,), "odd_indexed_primes")
    assert oip.terms(5) == [1, 2, 5, 11, 17]
    per = SigmaSequence((1, 7), "periodic", (2, 3))
    assert per.terms(6) == [1, 7, 2, 3, 2, 3]


def test_generator_validation():
    with pytest.raises(ValidationError):
        Generator("x", "sqrt_prime", 6)  # not prime
    with pytest.raises(ValidationError):
        Generator("x", "pi_power", 0)
    with pytest.raises(ValidationError):
        Generator("x", "opaque", None, "1.23")  # too few digits
    ok = Generator("g", "opaque", None, "1.2345678901234567890123456789012345")
    with mpmath.workprec(120):
        ref = mpmath.mpf("1.2345678901234567890123456789012345")
        assert abs(ok.float_value(120) - ref) < 1e-30


def test_rational_sequence_spec_validation():
    with pytest.raises(ValidationError):
        RationalSequenceSpec((F(-1),))
    with pytest.raises(ValidationError):
        RationalSequenceSpec((), F(1), F(3, 2))  # r >= 1
    spec = RationalSequenceSpec((F(1, 3),), F(1, 2), F(1, 2))
    assert spec.term(1) == F(1, 3) and spec.term(2) == F(1, 2) and spec.term(3) == F(1, 4)


def test_weighted_total_matches_series():
    spec = RationalSequenceSpec((F(1, 3),), F(1, 2), F(1, 2))
    # independent check: sum k s_k over enough terms plus exact remainder
    partial = sum(k * spec.term(k) for k in range(1, 80))
    r = spec.tail_r
    # remainder sum_{k>79} k s_k for geometric tail: s_80 * sum_{m>=0} (80+m) r^m
    s80 = spec.term(80)
    remainder = s80 * (80 / (1 - r) + r / (1 - r) ** 2)
    assert spec.weighted_total() == partial + remainder


def test_evaluate_float_follows_working_precision():
    fv = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"}]}')
    with mpmath.workprec(200):
        err = abs(evaluate_float(fv, 2) - mpmath.sqrt(2))
        assert err <= mpmath.mpf(2) ** -190
