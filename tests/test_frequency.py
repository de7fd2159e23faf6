import copy
import inspect
import math
import os
import pickle
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronflow.errors import ValidationError
from kronflow.frequency import (
    UNIT,
    BoRule,
    Finite,
    Generator,
    RationalSequenceSpec,
    SigmaSequence,
    SolenoidRule,
    SubgroupOfQSpec,
    build_product_vector,
    coordinates,
    evaluate_float,
    finite_vector,
    integer_rows,
    parse_frequency_spec,
    rational_vector,
    sqrt_prime_generator,
)
from kronflow import primes
from kronflow.primes import is_prime, prime_index
from oracles import omega_by_index, sigma_by_partial_sums, weighted_total


# -- parsing examples


def test_parse_solenoid_halving():
    fv = parse_frequency_spec(
        '{"kind":"solenoid","generator":"1","a":{"prefix":[1,2],"tail":{"constant":2}}}'
    )
    # omega_j = 2^(1-j)
    assert coordinates(fv, 7) == [{UNIT: F(2) ** (1 - j)} for j in range(1, 8)]


def test_parse_finite():
    fv = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"1":"1/2"},{"1":"1/3"}]}')
    assert [c[UNIT] for c in coordinates(fv, 3)] == [F(1), F(1, 2), F(1, 3)]


def test_parse_factorial_rule():
    fv = parse_frequency_spec('{"kind":"solenoid","a":{"prefix":[1],"tail":"increment"}}')
    # omega_j = 1/j!
    assert coordinates(fv, 7) == [{UNIT: F(1, math.factorial(j))} for j in range(1, 8)]


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
    fv = SolenoidRule(UNIT, a)
    assert coordinates(fv, 3)[2] == {UNIT: F(1, 4)}


def test_coordinates_finite_sqrt2():
    fv = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"}]}')
    assert coordinates(fv, 2)[1] == {sqrt_prime_generator(2): F(1)}


def test_coordinates_quadratic_rule_derived():
    # sigma_2 frozen by the partial-sum oracle: s_k = 2^-k gives sigma_2 = 3/2
    s = RationalSequenceSpec((), F(1, 2), F(1, 2))
    oracle = sigma_by_partial_sums(s.term, 2, s.tail_c, s.tail_r, cutoff=60)
    assert oracle == F(3, 2)
    beta = Generator("beta", "opaque")
    fv = parse_frequency_spec(
        {"kind": "bo", "beta": {"name": "beta", "kind": "opaque"}, "s": {"prefix": [], "tail": {"c": "1/2", "r": "1/2"}}}
    )
    assert coordinates(fv, 2)[1] == {UNIT: F(4), beta: F(-3)}


# -- the coordinate table against the per-index definitions

TAIL_KINDS = ["constant", "periodic", "increment", "odd_indexed_primes"]


@st.composite
def sigma_sequences(draw):
    rest = draw(st.lists(st.integers(2, 9), max_size=4))
    kind = draw(st.sampled_from(TAIL_KINDS))
    params = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))
    return SigmaSequence((1, *rest), kind, {"constant": tuple(params[:1]), "periodic": tuple(params)}.get(kind, ()))


@st.composite
def action_sequences(draw):
    prefix = draw(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=9), max_size=4))
    if draw(st.booleans()):  # finite support
        return RationalSequenceSpec(tuple(prefix))
    c = draw(st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9))
    r = draw(st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9))
    return RationalSequenceSpec(tuple(prefix), c, r)


subgroup_specs = st.one_of(
    st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9).map(lambda r: SubgroupOfQSpec(free_generator=r)),
    sigma_sequences().map(lambda a: SubgroupOfQSpec(qa=a)),
)


def _nonzero(coords: dict) -> dict:
    """A coordinate map without its zero entries, which the table leaves out."""
    return {g: c for g, c in coords.items() if c}


def _assert_table_matches_definition(fv, n):
    assert coordinates(fv, n) == [_nonzero(omega_by_index(fv, j)) for j in range(1, n + 1)]


@settings(max_examples=40, deadline=None)
@given(sigma_sequences(), st.sampled_from([UNIT, sqrt_prime_generator(3)]), st.integers(0, 300))
def test_solenoid_table_matches_definition(a, gen, n):
    _assert_table_matches_definition(SolenoidRule(gen, a), n)


@settings(max_examples=40, deadline=None)
@given(action_sequences(), st.integers(0, 300))
def test_bo_table_matches_definition(s, n):
    _assert_table_matches_definition(BoRule(Generator("beta", "opaque"), s), n)


@settings(max_examples=40, deadline=None)
@given(st.lists(subgroup_specs, min_size=1, max_size=4), st.integers(0, 300))
def test_product_table_matches_definition(specs, n):
    _assert_table_matches_definition(build_product_vector(specs), n)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7), min_size=1, max_size=8), st.data())
def test_finite_table_matches_definition(values, data):
    fv = rational_vector(values)
    _assert_table_matches_definition(fv, data.draw(st.integers(0, len(values))))
    with pytest.raises(ValidationError, match=f"index {len(values) + 1} beyond finite vector of length {len(values)}"):
        coordinates(fv, len(values) + 1)


finite_vectors = st.lists(
    st.dictionaries(st.sampled_from([UNIT, sqrt_prime_generator(2), sqrt_prime_generator(3)]),
                    st.fractions(min_value=-5, max_value=5, max_denominator=7), max_size=3),
    min_size=1, max_size=8).map(finite_vector)  # empty terms included
families = st.one_of(
    st.builds(SolenoidRule, st.sampled_from([UNIT, sqrt_prime_generator(3)]), sigma_sequences()),
    st.builds(BoRule, st.just(Generator("beta", "opaque")),
              st.one_of(st.just(RationalSequenceSpec()), action_sequences())),  # s = 0 first
    st.lists(subgroup_specs, min_size=1, max_size=4).map(build_product_vector),
    finite_vectors,
)


@settings(max_examples=120, deadline=None)
@given(families, st.data())
def test_integer_rows_over_their_scales_are_the_coordinates(fv, data):
    """Each row of the integer table over its positive scale is its
    generator's coordinate at every index, as the family's per-index
    definition gives it, entry for entry, and an index the row leaves out, or
    a generator the table leaves out, is a zero coordinate."""
    n = data.draw(st.integers(0, len(fv) if isinstance(fv, Finite) else 120))
    table, columns = integer_rows(fv, n), [omega_by_index(fv, j) for j in range(1, n + 1)]
    for scale, row in table.values():
        assert type(scale) is int and scale > 0
        assert all(type(v) is int and v and 1 <= j <= n for j, v in row.items())
    for j, col in enumerate(columns, 1):
        for g in set(col) | set(table):
            scale, row = table.get(g, (1, {}))
            assert F(row.get(j, 0), scale) == col.get(g, 0), (g, j)


@pytest.mark.parametrize("spec", [
    {"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}]},
    {"kind": "solenoid", "generator": "1", "a": {"prefix": [1, 2], "tail": {"constant": 2}}},
    {"kind": "product", "components": [{"free": "1"}, {"qa": {"prefix": [1], "tail": {"constant": 2}}}]},
    {"kind": "bo", "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}}},
], ids=["finite", "solenoid", "product", "bo"])
def test_integer_rows_rejects_a_negative_depth(spec):
    """The integer table and the coordinate maps share one depth rule on every family."""
    fv = parse_frequency_spec(spec)
    for table in (integer_rows, coordinates):
        with pytest.raises(ValidationError, match=r"^frequency depth must be >= 0, got -3$"):
            table(fv, -3)


# -- evaluate_float examples


def test_evaluate_float_values():
    with mpmath.workprec(90):
        fv = rational_vector(["1", "1/2", "1/3"])
        assert abs(evaluate_float(coordinates(fv, 3)[2]) - mpmath.mpf(1) / 3) < 1e-18
        fact = parse_frequency_spec('{"kind":"solenoid","a":{"prefix":[1],"tail":"increment"}}')
        assert abs(evaluate_float(coordinates(fact, 4)[3]) - mpmath.mpf(1) / 24) < 1e-18
        fv2 = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"}]}')
        assert abs(evaluate_float(coordinates(fv2, 2)[1]) - mpmath.sqrt(2)) < 1e-18


@settings(max_examples=50, deadline=None)
@given(
    st.fractions(min_value=F(-10**6), max_value=F(10**6), max_denominator=10**6).filter(
        lambda q: q != 0
    )
)
def test_evaluate_float_relative_error(q):
    fv = rational_vector([q])
    approx = evaluate_float(coordinates(fv, 1)[0])
    exact = mpmath.mpf(q.numerator) / q.denominator
    assert abs(approx - exact) <= abs(exact) * mpmath.mpf(2) ** -50


# -- truncation to a finite vector


def test_truncate_solenoid():
    a = SigmaSequence((1, 2), "constant", (2,))
    t = finite_vector(coordinates(SolenoidRule(UNIT, a), 3))
    assert [c[UNIT] for c in coordinates(t, 3)] == [F(1), F(1, 2), F(1, 4)]


def test_truncate_quadratic_zero_actions():
    fv = parse_frequency_spec({"kind": "bo", "beta": {"name": "b", "kind": "opaque"}, "s": {"prefix": []}})
    t = finite_vector(coordinates(fv, 3))
    assert coordinates(t, 3) == [{UNIT: F(1)}, {UNIT: F(4)}, {UNIT: F(9)}]


def test_truncate_product_placement_derived():
    # single non-free component Z[1/2]: entries sqrt2 / prod(a) at indices 2^N
    fv = build_product_vector([SubgroupOfQSpec(qa=SigmaSequence((1, 2), "constant", (2,)))])
    t = finite_vector(coordinates(fv, 4))
    s2 = sqrt_prime_generator(2)
    # j = 2^1: prod a = 1; j = 2^2: prod a = 2; j = 1 and 3 hold nothing
    assert coordinates(t, 4) == [{}, {s2: F(1)}, {}, {s2: F(1, 2)}]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10))
def test_truncate_preserves_coordinates(n_extra, j_probe):
    a = SigmaSequence((1,), "increment")
    fv = SolenoidRule(UNIT, a)
    depth = max(n_extra, j_probe)
    assert coordinates(finite_vector(coordinates(fv, depth)), j_probe) == coordinates(fv, j_probe)


# -- structural invariants


@given(st.integers(1, 12))
def test_solenoid_defining_relation(j):
    a = SigmaSequence((1, 3, 2), "periodic", (2, 5))
    fv = SolenoidRule(UNIT, a)
    table = coordinates(fv, j + 1)
    lhs = table[j - 1][UNIT]
    rhs = a.term(j + 1) * table[j][UNIT]
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
    expected = 1
    for j in range(1, n + 1):
        expected *= a.term(j)
        assert a.partial_product(j) == expected
    assert a.partial_product(0) == 1


@settings(max_examples=150, deadline=None)
@given(sigma_sequences(), st.integers(-2, 80))
def test_terms_match_term_by_term(a, n):
    # the drawn sequence, and its tail behind the bare a_1 = 1
    for seq in (a, SigmaSequence((1,), a.tail_kind, a.tail_params)):
        assert seq.terms(n) == [seq.term(j) for j in range(1, n + 1)]


def test_sequence_tails():
    inc = SigmaSequence((1,), "increment")
    assert inc.terms(5) == [1, 2, 3, 4, 5]
    oip = SigmaSequence((1,), "odd_indexed_primes")
    assert oip.terms(5) == [1, 2, 5, 11, 17]
    per = SigmaSequence((1, 7), "periodic", (2, 3))
    assert per.terms(6) == [1, 7, 2, 3, 2, 3]


def test_library_finite_vector_rejects_one_number_under_two_names():
    """The parser's rule holds for a vector built in the library: r2 next to
    sqrt2 hid omega_1 + omega_2 = 0 (resonance rank 0, classify rank 3)."""
    r2 = Generator("r2", "sqrt_prime", 2)
    with pytest.raises(ValidationError, match="^generators 'r2' and 'sqrt2' are the same number$"):
        finite_vector([{r2: F(1)}, {sqrt_prime_generator(2): F(-1)}, {UNIT: F(1)}])


def test_generator_validation():
    with pytest.raises(ValidationError):
        Generator("x", "sqrt_prime", 6)  # not prime
    with pytest.raises(ValidationError):
        Generator("x", "pi_power", 0)
    with pytest.raises(ValidationError):
        Generator("x", "opaque", None, "1.23")  # too few digits
    with pytest.raises(ValidationError, match="'x'.*not a decimal numeral"):
        Generator("x", "opaque", None, "123456789012345678901234567890abc")
    for numeral in ("-1.234567890123456789012345678901", ".123456789012345678901234567890", "1.23456789012345678901234567890e-5"):
        with mpmath.workprec(120):
            assert Generator("x", "opaque", None, numeral).float_value() == mpmath.mpf(numeral)
    ok = Generator("g", "opaque", None, "1.2345678901234567890123456789012345")
    with mpmath.workprec(120):
        ref = mpmath.mpf("1.2345678901234567890123456789012345")
        assert abs(ok.float_value() - ref) < 1e-30


# -- generator values, computed afresh at each mantissa width

OPAQUE_DIGITS = "0.318309886183790671537767526745028724068919"


def _generators_and_fresh_values():
    """One generator of each kind, and its number computed afresh by mpmath
    at the current precision."""
    return [
        (Generator("1", "rational_unit"), lambda: mpmath.mpf(1)),
        (Generator("r3", "sqrt_prime", 3), lambda: mpmath.sqrt(3)),
        (Generator("p2", "pi_power", 2), lambda: mpmath.pi ** 2),
        (Generator("x", "opaque", None, OPAQUE_DIGITS), lambda: mpmath.mpf(OPAQUE_DIGITS)),
    ]


def test_generator_value_is_the_fresh_one_at_each_width():
    gens = _generators_and_fresh_values()
    coords = {gen: F(-5, 7 + k) for k, (gen, _) in enumerate(gens)}
    sums = {}
    for bits in (64, 200, 64, 30, 200):  # 30 is below the floor, so it reads 64
        with mpmath.workprec(bits):
            for gen, fresh in gens:
                with mpmath.workprec(max(bits, 64)):
                    want = fresh()
                assert gen.float_value()._mpf_ == want._mpf_, (gen, bits)
            total = evaluate_float(coords)
            assert mpmath.mp.prec == bits
        assert sums.setdefault(max(bits, 64), total._mpf_) == total._mpf_
    assert sums[64] != sums[200]


def test_opaque_generator_without_a_value_raises_on_every_call():
    gen = Generator("b", "opaque")
    for bits in (64, 64, 200):
        with mpmath.workprec(bits):
            with pytest.raises(ValidationError, match="^generator 'b' is opaque with no declared numeric value$"):
                gen.float_value()


def test_kept_values_leave_eq_hash_repr_and_order_alone():
    gens = [gen for gen, _ in _generators_and_fresh_values()]
    gens.append(Generator("b", "opaque"))
    before = [(hash(g), repr(g)) for g in gens], sorted(reversed(gens))
    for bits in (64, 200):
        with mpmath.workprec(bits):
            for g in gens[:-1]:
                g.float_value()
    assert ([(hash(g), repr(g)) for g in gens], sorted(reversed(gens))) == before
    assert list(inspect.signature(Generator).parameters) == ["name", "kind", "param", "value_digits"]
    for g in gens:
        fresh = Generator(g.name, g.kind, g.param, g.value_digits)
        assert g == fresh and hash(g) == hash(fresh) == hash((g.name, g.kind, g.param, g.value_digits))
        assert {fresh: 1}[g] == 1
        for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)


def test_generator_pickled_under_another_hash_seed_hashes_as_here():
    """A string's hash depends on the process's hash seed, so a generator
    pickled elsewhere must not bring its cached hash along."""
    code = ("import pickle, sys; from kronflow.frequency import Generator; "
            "sys.stdout.write(pickle.dumps(Generator('x', 'opaque', None, %r)).hex())" % OPAQUE_DIGITS)
    env = dict(os.environ, PYTHONHASHSEED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                                       env.get("PYTHONPATH")]))
    data = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60).stdout
    g = pickle.loads(bytes.fromhex(data.decode()))
    assert hash(g) == hash(Generator("x", "opaque", None, OPAQUE_DIGITS))
    assert {g: 1}[Generator("x", "opaque", None, OPAQUE_DIGITS)] == 1


# -- primes past the cached table


@pytest.mark.parametrize("n,expected", [(10000019, True), (10000017, False), (1000000007, True), (1000000007 * 3, False)])
def test_is_prime_past_the_table_leaves_it_alone(n, expected):
    table = len(primes._PRIMES)
    start = time.perf_counter()
    assert is_prime(n) is expected
    assert len(primes._PRIMES) == table  # trial division, not a table grown to n
    assert time.perf_counter() - start < 1.0  # loose: O(sqrt n) is a few ms here


def test_prime_index_past_the_table():
    assert prime_index(7919) == 1000
    assert prime_index(2) == 1


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
    assert weighted_total(spec) == partial + remainder


def test_evaluate_float_follows_working_precision():
    fv = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"}]}')
    with mpmath.workprec(200):
        err = abs(evaluate_float(coordinates(fv, 2)[1]) - mpmath.sqrt(2))
        assert err <= mpmath.mpf(2) ** -190
