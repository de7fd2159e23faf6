"""The float paths' fixed-point omegas against 300-bit sums of the families'
per-index definitions: random specs of all four families up to N = 64, at
64 and 200 working bits.  Each omega_j and each nu . omega is the double
nearest the 300-bit sum, a resonance verdict is the exact Fraction one, and
the cancellation error fires exactly when |value| <= 2^-bits sum |terms|."""

import json
import math
import warnings
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronflow.dynamics as dynamics
from kronflow.dynamics import nu_dot_omega
from kronflow.errors import ValidationError
from kronflow.exact_linalg import IntVecFin
from kronflow.frequency import Finite, builtin_generator, parse_frequency_spec
from kronflow.resonance_reduction import resonance_basis
from oracles import dot_fractions, omega_by_index

REFERENCE_BITS = 300
BITS = st.sampled_from([64, 200])
BUILTINS = ["1", "sqrt2", "sqrt3", "sqrt5", "pi", "pi^2"]

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12).map(str)
positive = st.fractions(min_value=F(1, 12), max_value=9, max_denominator=12).map(str)
# an opaque numeral: 30 to 40 significant digits, either sign, 10^-6 .. 10^6
opaque_values = st.builds(
    lambda sign, digits, exp: f"{sign}{digits[0]}.{digits[1:]}e{exp}",
    st.sampled_from(["", "-"]),
    st.integers(10**29, 10**40 - 1).map(str),
    st.integers(-6, 6),
)
sequences = st.builds(
    lambda prefix, tail: {"prefix": [1, *prefix], "tail": tail},
    st.lists(st.integers(2, 9), max_size=4),
    st.one_of(st.integers(2, 9).map(lambda c: {"constant": c}),
              st.lists(st.integers(2, 9), min_size=1, max_size=3).map(lambda p: {"periodic": p}),
              st.sampled_from(["increment", "odd_indexed_primes"])),
)
actions = st.builds(
    lambda prefix, tail: {"prefix": prefix, **({"tail": tail} if tail else {})},
    st.lists(st.fractions(min_value=0, max_value=5, max_denominator=6).map(str), max_size=3),
    st.one_of(st.none(), st.builds(lambda c, r: {"c": c, "r": r}, positive,
                                   st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9).map(str))),
)


@st.composite
def specs(draw):
    """A spec of one of the four families, with an opaque generator "b" of
    a drawn value wherever a generator is named."""
    value = draw(opaque_values)
    generators = [{"name": "b", "kind": "opaque", "value": value}]
    names = BUILTINS + ["b"]
    kind = draw(st.sampled_from(["finite", "solenoid", "bo", "product"]))
    if kind == "finite":
        terms = draw(st.lists(st.dictionaries(st.sampled_from(names), fractions, max_size=3), min_size=1, max_size=64))
        return {"kind": "finite", "generators": generators, "terms": terms}
    if kind == "solenoid":
        return {"kind": "solenoid", "generators": generators, "generator": draw(st.sampled_from(names)),
                "a": draw(sequences)}
    if kind == "bo":
        return {"kind": "bo", "generators": generators, "beta": draw(st.sampled_from(["b", "sqrt2", "pi"])),
                "s": draw(actions)}
    components = st.one_of(positive.map(lambda r: {"free": r}), sequences.map(lambda a: {"qa": a}))
    return {"kind": "product", "components": draw(st.lists(components, min_size=1, max_size=4))}


def _number(gen):
    """A generator's number at the working precision, from its declaration."""
    if gen.kind == "rational_unit":
        return mpmath.mpf(1)
    if gen.kind == "sqrt_prime":
        return mpmath.sqrt(gen.param)
    if gen.kind == "pi_power":
        return mpmath.pi ** gen.param
    return mpmath.mpf(gen.value_digits)


def _reference(coefficients):
    """(sum, sum of magnitudes) of the terms c_g g of {generator: Fraction},
    at REFERENCE_BITS."""
    with mpmath.workprec(REFERENCE_BITS):
        terms = [mpmath.mpf(c.numerator) / c.denominator * _number(g) for g, c in coefficients.items() if c]
        return mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)


def _cancelled(total, magnitude, bits) -> bool:
    """The contract's test: the sum lost every one of the working bits."""
    with mpmath.workprec(REFERENCE_BITS):
        return abs(total) * mpmath.mpf(2) ** bits <= magnitude


def _assert_nearest(got, total, magnitude, bits):
    """``got`` is the double nearest the 300-bit sum; where the terms cancel
    within 16 bits of the working width, the guard bits leave it within one
    ulp of that."""
    nearest = float(total)
    if got != nearest:
        with mpmath.workprec(REFERENCE_BITS):
            assert abs(total) * mpmath.mpf(2) ** (bits - 16) <= magnitude, (got, nearest)
        assert abs(got - nearest) <= math.ulp(nearest), (got, nearest)


def _depth(fv, data):
    return data.draw(st.integers(1, len(fv) if isinstance(fv, Finite) else 64))


@settings(max_examples=150, deadline=None)
@given(specs(), BITS, st.data())
def test_float_omegas_are_the_nearest_doubles(spec, bits, data):
    fv = parse_frequency_spec(spec)
    n = _depth(fv, data)
    references = [_reference(omega_by_index(fv, j)) for j in range(1, n + 1)]
    with mpmath.workprec(bits):
        try:
            got = dynamics._float_omegas(fv, n).tolist()
        except ValidationError as exc:
            first = next(j for j, (total, magnitude) in enumerate(references, 1)
                         if magnitude and _cancelled(total, magnitude, bits))
            assert str(exc) == f"omega_{first} rounds to 0 at {bits} bits; raise --precision"
            return
    for value, (total, magnitude) in zip(got, references):
        assert not (magnitude and _cancelled(total, magnitude, bits))
        _assert_nearest(value, total, magnitude, bits)


@st.composite
def nus(draw, n):
    """nu on indices <= n, with up to four small nonzero entries."""
    entries = draw(st.dictionaries(st.integers(1, n), st.integers(-5, 5), min_size=1, max_size=4))
    return IntVecFin({j: v for j, v in entries.items() if v})


@settings(max_examples=150, deadline=None)
@given(specs(), BITS, st.data())
def test_nu_dot_omega_is_the_nearest_double_and_the_exact_verdict(spec, bits, data):
    fv = parse_frequency_spec(spec)
    n = _depth(fv, data)
    omegas = [omega_by_index(fv, j) for j in range(1, n + 1)]
    nu = data.draw(nus(n))
    basis = resonance_basis(fv, n).vectors
    if basis and data.draw(st.booleans()):  # a multiple of a relation, which the oracle must find resonant
        nu = data.draw(st.sampled_from(basis)).scale(data.draw(st.integers(1, 3)))
    gens = {g for coords in omegas for g in coords}
    sums = {g: dot_fractions(nu, [coords.get(g, 0) for coords in omegas]) for g in gens}
    resonant = all(s == 0 for s in sums.values())
    total, magnitude = _reference(sums)
    with mpmath.workprec(bits), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            verdict, value = nu_dot_omega(fv, nu)
        except ValidationError as exc:
            assert not resonant and "rounds to 0" in str(exc)
            assert _cancelled(total, magnitude, bits) or float(total) == 0.0
            return
    assert verdict == resonant
    if resonant:
        assert value == 0.0
    else:
        assert not _cancelled(total, magnitude, bits)
        _assert_nearest(value, total, magnitude, bits)


@st.composite
def near_cancellations(draw):
    """{"1": -p/d, g: c/d} with c about 2^(bits + offset) and p the integer
    nearest c g moved by delta: omega_1 = (c g - p) / d, and the terms
    2 c g / d or so, so the cancellation straddles the working bits."""
    bits = draw(BITS)
    gen = draw(st.sampled_from(["sqrt2", "sqrt3", "pi", "b"]))
    value = draw(opaque_values.filter(lambda v: not v.startswith("-")))
    c = draw(st.integers(2 ** (bits - 10), 2 ** (bits + 6)))
    with mpmath.workprec(REFERENCE_BITS):
        number = mpmath.mpf(value) if gen == "b" else _number(builtin_generator(gen))
        p = int(mpmath.nint(c * number)) + draw(st.integers(-3, 3))
    d = draw(st.integers(1, 12))
    spec = {"kind": "finite", "generators": [{"name": "b", "kind": "opaque", "value": value}],
            "terms": [{"1": str(F(-p, d)), gen: str(F(c, d))}]}
    return spec, bits


@settings(max_examples=200, deadline=None)
@given(near_cancellations())
def test_rounds_to_0_fires_exactly_when_cancellation_ate_the_working_bits(case):
    spec, bits = case
    fv = parse_frequency_spec(spec)
    total, magnitude = _reference(omega_by_index(fv, 1))
    cancelled = _cancelled(total, magnitude, bits)
    with mpmath.workprec(bits), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, call in (("omega_1", lambda: dynamics._float_omegas(fv, 1)[0]),
                           ("omega . nu for non-resonant nu {'1': 1}", lambda: nu_dot_omega(fv, IntVecFin({1: 1}))[1])):
            try:
                value = call()
            except ValidationError as exc:
                assert cancelled, name
                assert str(exc) == f"{name} rounds to 0 at {bits} bits; raise --precision"
            else:
                assert not cancelled, name
                _assert_nearest(value, total, magnitude, bits)


def test_nu_dot_omega_evaluates_only_the_generators_nu_leaves():
    """A generator whose combination under nu is 0 is never evaluated, so an
    opaque one without a value does not stop nu . omega."""
    fv = parse_frequency_spec({"kind": "finite", "generators": [{"name": "b", "kind": "opaque"}],
                               "terms": [{"1": "1", "b": "1"}, {"1": "3", "b": "1"}, {"b": "1"}]})
    assert nu_dot_omega(fv, IntVecFin({1: 1, 2: -1})) == (False, -2.0)
    assert nu_dot_omega(fv, IntVecFin({1: 3, 2: -1, 3: -2})) == (True, 0.0)
    with pytest.raises(ValidationError, match="^generator 'b' is opaque with no declared numeric value$"):
        nu_dot_omega(fv, IntVecFin({3: 1}))


@pytest.mark.parametrize("value", ["1" + "0" * 29 + "e5000", "1" + "0" * 29 + "e-5000"])
def test_a_generator_beyond_the_float_range_is_an_error(value):
    """A generator past 2^+-16384 would make the fixed-point grid as wide as
    its exponent; the float paths reject it, the exact ones never read it."""
    fv = parse_frequency_spec(json.dumps({
        "kind": "finite", "generators": [{"name": "b", "kind": "opaque", "value": value}],
        "terms": [{"1": "1"}, {"b": "1"}]}))
    message = r"^generator 'b' is beyond 2\^\+-16384 for the float paths$"
    with pytest.raises(ValidationError, match=message):
        dynamics._float_omegas(fv, 2)
    with pytest.raises(ValidationError, match=message):
        nu_dot_omega(fv, IntVecFin({2: 1}))
    assert resonance_basis(fv, 2).is_trivial()
