import contextlib
import io
import json
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronflow.cli import main
from kronflow.dynamics import flow
from kronflow.errors import ValidationError
from kronflow.exact_linalg import format_rational
from kronflow.frequency import UNIT, SigmaSequence, SolenoidRule
from kronflow.solenoid_geometry import (
    GeometricWeights,
    SolenoidCoords,
    TorusPoint,
    approximating_times,
    circle_distance,
    from_coordinates,
    is_member,
    local_chart,
    product_metric,
    times_and_target,
    to_coordinates,
)

from oracles import (
    fraction_approximating_times,
    fraction_from_coordinates,
    fraction_is_member,
    fraction_to_coordinates,
    solenoid_flow_angles,
)

A122 = SigmaSequence((1, 2, 2), "constant", (2,))
A12 = SigmaSequence((1, 2), "constant", (2,))
A123 = SigmaSequence((1, 2, 3), "constant", (3,))


# -- membership examples


def test_member_example():
    # 2*(5/8) = 5/4 = 1/4 mod 1; 2*(5/16) = 5/8
    assert is_member(A122, TorusPoint.exact_point(["1/4", "5/8", "5/16"]))


def test_nonmember_example():
    # 2*(1/2) = 0 != 1/4
    assert not is_member(A122, TorusPoint.exact_point(["1/4", "1/2", "1/8"]))


def test_orbit_points_are_members():
    pt = flow(SolenoidRule(UNIT, A122), TorusPoint.origin(3), F(7, 3))
    assert is_member(A122, pt)


def test_member_rejects_float_points():
    with pytest.raises(ValidationError):
        is_member(A122, TorusPoint.float_point([0.3, 0.2, 0.1]))


# -- coordinate bijection examples


def test_to_coordinates_digit_one():
    c = to_coordinates(A12, TorusPoint.exact_point(["1/4", "5/8"]))
    assert c.tau == F(1, 4) and c.digits == (1,)


def test_to_coordinates_digit_zero():
    c = to_coordinates(A12, TorusPoint.exact_point(["1/4", "1/8"]))
    assert c.tau == F(1, 4) and c.digits == (0,)


def test_origin_coordinates():
    c = to_coordinates(A122, TorusPoint.origin(3))
    assert c.tau == 0 and c.digits == (0, 0)


def test_from_coordinates_example():
    pt = from_coordinates(A12, SolenoidCoords(F(1, 4), (1,)))
    assert pt.angles == (F(1, 4), F(5, 8))


def test_from_coordinates_origin():
    assert from_coordinates(A12, SolenoidCoords(F(0), (0,))) == TorusPoint.origin(2)


def test_from_coordinates_a123():
    # frozen by symbolic evaluation of the reconstruction formula plus the
    # membership cross-check: theta = (1/2, 3/4, 11/12)
    pt = from_coordinates(A123, SolenoidCoords(F(1, 2), (1, 2)))
    assert pt.angles == (F(1, 2), F(3, 4), F(11, 12))
    assert is_member(A123, pt)
    # a_2 theta_2 - theta_1 = n_2 and a_3 theta_3 - theta_2 = n_3
    assert 2 * F(3, 4) - F(1, 2) == 1 and 3 * F(11, 12) - F(3, 4) == 2


def test_digit_out_of_range():
    with pytest.raises(ValidationError):
        from_coordinates(A12, SolenoidCoords(F(0), (2,)))


@st.composite
def coords_for(draw, a, depth):
    tau = F(draw(st.integers(0, 23)), 24)
    digits = tuple(draw(st.integers(0, a.term(j) - 1)) for j in range(2, depth + 1))
    return SolenoidCoords(tau, digits)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bijection_roundtrip(data):
    a = data.draw(st.sampled_from([A122, A123, SigmaSequence((1,), "increment")]))
    depth = data.draw(st.integers(2, 7))
    coords = data.draw(coords_for(a, depth))
    pt = from_coordinates(a, coords)
    assert to_coordinates(a, pt) == coords
    again = from_coordinates(a, to_coordinates(a, pt))
    assert again == pt


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_digit_ranges_from_members(data):
    a = A123
    t = F(data.draw(st.integers(-500, 500)), data.draw(st.integers(1, 97)))
    pt = flow(SolenoidRule(UNIT, a), TorusPoint.origin(5), t)
    c = to_coordinates(a, pt)
    for j, n in enumerate(c.digits, start=2):
        assert 0 <= n <= a.term(j) - 1


# -- approximating times


def test_times_example():
    ts = approximating_times(A12, SolenoidCoords(F(1, 4), (1,)))
    assert ts == [F(1, 4), F(5, 4)]
    # flow check: omega_2 * t_2 = (1/2)(5/4) = 5/8
    assert (F(1, 2) * ts[1]) % 1 == F(5, 8)


def test_times_origin():
    ts = approximating_times(A122, SolenoidCoords(F(0), (0, 0)))
    assert ts == [F(0), F(0), F(0)]


def test_times_telescoping():
    # single digit 1 at position k: t_k - t_{k-1} = prod_{j<=k-1} a_j
    a = A123
    for k in (2, 3, 4):
        digits = tuple(1 if j == k else 0 for j in range(2, 6))
        ts = approximating_times(a, SolenoidCoords(F(0), digits))
        assert ts[k - 1] - ts[k - 2] == a.partial_product(k - 1)


def test_times_match_prefix_exactly():
    rng = random.Random(5)
    a = A122
    for _ in range(25):
        depth = 6
        digits = tuple(rng.randrange(a.term(j)) for j in range(2, depth + 1))
        coords = SolenoidCoords(F(rng.randint(0, 11), 12), digits)
        target = from_coordinates(a, coords)
        for k, t in enumerate(approximating_times(a, coords), start=1):
            moved = flow(SolenoidRule(UNIT, a), TorusPoint.origin(depth), t)
            assert moved.angles[:k] == target.angles[:k]


# -- integer cross-multiplication against the Fraction oracle


@st.composite
def sequences(draw):
    """All four tails, with the bare prefix (1) or an explicit one."""
    prefix = (1,) + tuple(draw(st.lists(st.integers(2, 9), max_size=3)))
    tail = draw(st.sampled_from(["constant", "periodic", "increment", "odd_indexed_primes"]))
    params = ()
    if tail == "constant":
        params = (draw(st.integers(2, 12)),)
    elif tail == "periodic":
        params = tuple(draw(st.lists(st.integers(2, 7), min_size=1, max_size=3)))
    return SigmaSequence(prefix, tail, params)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_flow_from_origin_divides_time_by_partial_products(data):
    """On every tail kind, the exact flow from the origin is t / (a_1 ... a_j)
    mod 1, for int and Fraction times of either sign."""
    a = data.draw(sequences())
    depth = data.draw(st.integers(1, 20))
    t = data.draw(st.integers(-10**6, 10**6) | st.fractions(max_denominator=10**4))
    point = flow(SolenoidRule(UNIT, a), TorusPoint.origin(depth), t)
    assert point.exact
    assert list(point.angles) == solenoid_flow_angles(a, t, depth)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return ("error", str(exc))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_path_matches_fraction_oracle(data):
    a = data.draw(sequences())
    depth = data.draw(st.integers(2, 128))
    terms = a.terms(depth)
    v = data.draw(st.integers(1, 60))
    tau = F(data.draw(st.integers(0, v - 1)), v)
    digits = [data.draw(st.integers(0, terms[j - 1] - 1)) for j in range(2, depth + 1)]
    case = data.draw(st.sampled_from(["member", "perturbed", "digit out of range", "tau out of range"]))
    if case == "digit out of range":
        j = data.draw(st.integers(2, depth))
        digits[j - 2] = data.draw(st.sampled_from([terms[j - 1], terms[j - 1] + 5, -1]))
    if case == "tau out of range":
        bad = data.draw(st.sampled_from([F(1), F(-1, 3), F(7, 4)]))
        with pytest.raises(ValidationError, match=re.escape(f"tau must lie in [0,1), got {bad}")):
            SolenoidCoords(bad, tuple(digits))
        return
    coords = SolenoidCoords(tau, tuple(digits))

    assert _outcome(approximating_times, a, coords) == _outcome(fraction_approximating_times, a, coords)
    target = _outcome(from_coordinates, a, coords)
    assert target == _outcome(fraction_from_coordinates, a, coords)
    if case == "digit out of range":
        return
    angles = list(target.angles)
    if case == "perturbed":
        k = data.draw(st.integers(0, depth - 1))
        # an odd numerator over an even denominator is never an integer shift
        angles[k] += F(2 * data.draw(st.integers(0, 20)) + 1, 2 * data.draw(st.integers(1, 20)))
    # the CLI's path: exact_point parses each rational once and wraps it into [0,1)
    text = [str(x) for x in angles]
    theta = TorusPoint.exact_point(text)
    assert theta.angles == tuple(F(x) % 1 for x in text)
    if case == "member":
        assert to_coordinates(a, theta) == coords
    if data.draw(st.booleans()):
        # a point built directly may carry angles outside [0,1): the relations
        # still hold mod 1, while tau and the digits can leave their ranges
        shifts = [data.draw(st.sampled_from([0, 0, 0, 1, -1]))]  # tau mostly stays in [0,1)
        shifts += data.draw(st.lists(st.integers(-3, 3), min_size=depth - 1, max_size=depth - 1))
        theta = TorusPoint(tuple(x + m for x, m in zip(theta.angles, shifts)), True)
    assert is_member(a, theta) == fraction_is_member(a, theta)
    assert _outcome(to_coordinates, a, theta) == _outcome(fraction_to_coordinates, a, theta)
    # the same angles as pairs, each scaled by its own factor, as the CLI may
    # read them: where q_{j-1} no longer divides q_j the check cross-multiplies
    scales = data.draw(st.lists(st.integers(1, 6), min_size=depth, max_size=depth))
    pairs = [(x.numerator * f, x.denominator * f) for x, f in zip(theta.angles, scales)]
    assert is_member(a, pairs) == fraction_is_member(a, theta)
    assert _outcome(to_coordinates, a, pairs) == _outcome(fraction_to_coordinates, a, theta)


def _sequence_json(a: SigmaSequence) -> str:
    """``--a`` text of a sequence: its prefix and its tail as a spec writes them."""
    tail = a.tail_kind
    if tail == "constant":
        tail = {"constant": a.tail_params[0]}
    elif tail == "periodic":
        tail = {"periodic": list(a.tail_params)}
    return json.dumps({"prefix": list(a.prefix), "tail": tail})


def _reduced(text: str) -> bool:
    p, _, q = text.partition("/")
    return not q or (int(q) > 1 and math.gcd(int(p), int(q)) == 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_times_print_the_fraction_oracle(data):
    """``kron solenoid times`` prints the pairs of ``times_and_target`` as the
    Fraction oracle prints its times and target, every pair reduced."""
    a = data.draw(sequences())
    depth = data.draw(st.integers(2, 64))
    terms = a.terms(depth)
    v = data.draw(st.integers(1, 60))
    tau = F(data.draw(st.integers(0, v - 1)), v)
    digits = [data.draw(st.integers(0, terms[j - 1] - 1)) for j in range(2, depth + 1)]
    if data.draw(st.booleans()):  # zero digits keep the target's denominators small
        digits = [0] * (depth - 1)
    coords = SolenoidCoords(tau, tuple(digits))
    out = io.StringIO()
    argv = ["solenoid", "times", "--a", _sequence_json(a), "--tau", str(tau), "--digits", ",".join(map(str, digits))]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    doc = json.loads(out.getvalue())
    assert doc["times"] == [str(t) for t in fraction_approximating_times(a, coords)]
    assert doc["target"] == [format_rational(x) for x in fraction_from_coordinates(a, coords).angles]
    assert all(map(_reduced, doc["times"] + doc["target"]))


def test_relations_build_no_fractions(monkeypatch):
    """On a factorial member at depth 512, membership, digit extraction and
    the integer times and target make no Fraction, and the Fraction view of
    the reconstruction one per coordinate; the Fraction path made several per
    relation."""
    a = SigmaSequence((1,), "increment")
    depth = 512
    coords = SolenoidCoords(F(5, 7), tuple((j * j + 1) % j for j in range(2, depth + 1)))
    point = fraction_from_coordinates(a, coords)
    made = []
    original = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    assert is_member(a, point) and made == []
    assert to_coordinates(a, point) == coords and made == []
    assert from_coordinates(a, coords) == point
    assert len(made) <= depth
    made.clear()
    times, target = times_and_target(a, coords)
    assert made == [] and target == [(x.numerator, x.denominator) for x in point.angles]


# -- local chart


def test_chart_example():
    tau, digits = local_chart(A12, TorusPoint.exact_point(["1/4", "5/8"]))
    assert tau == F(1, 4) and digits == (1,)


def test_chart_excludes_zero_slice():
    with pytest.raises(ValidationError):
        local_chart(A12, TorusPoint.origin(2))


def test_chart_product_structure():
    p1 = from_coordinates(A12, SolenoidCoords(F(1, 4), (1,)))
    p2 = from_coordinates(A12, SolenoidCoords(F(1, 3), (1,)))
    t1, d1 = local_chart(A12, p1)
    t2, d2 = local_chart(A12, p2)
    assert d1 == d2 and t1 != t2


# -- product metric


def test_metric_zero_on_equal_points():
    p = TorusPoint.exact_point(["1/4", "5/8"])
    value, _tail = product_metric(GeometricWeights(F(1, 2)), p, p)
    assert value == 0 and isinstance(value, F)


def test_metric_single_coordinate():
    # arc 1/2 in coordinate 1, rho_k = 2^-k: distance 1/4, tail bound 2^-N
    p = TorusPoint.exact_point(["0", "0", "0"])
    q = TorusPoint.exact_point(["1/2", "0", "0"])
    value, tail = product_metric(GeometricWeights(F(1, 2)), p, q)
    assert (value, tail) == (F(1, 4), F(1, 8))
    assert isinstance(value, F) and isinstance(tail, F)


def test_metric_exact_points_agree_with_their_floats():
    """Exact in, exact out: on exact points the metric and tail are Fractions
    and agree within 1e-12 with the float results on the same points as
    float points; one float point makes both results floats."""
    rng = random.Random(13)
    for _ in range(50):
        depth = rng.randint(1, 12)
        w = GeometricWeights(F(rng.randint(1, 9), 10))
        p, q = (TorusPoint.exact_point([F(rng.randint(0, 96), 97) for _ in range(depth)]) for _ in range(2))
        fp, fq = (TorusPoint.float_point(x.to_radians()) for x in (p, q))
        exact, exact_tail = product_metric(w, p, q)
        assert isinstance(exact, F) and isinstance(exact_tail, F)
        for x, y in ((fp, fq), (p, fq), (fp, q)):
            value, tail = product_metric(w, x, y)
            assert isinstance(value, float) and isinstance(tail, float)
            assert abs(value - exact) < 1e-12 and abs(tail - exact_tail) < 1e-12


def test_metric_triangle_inequality():
    rng = random.Random(11)
    w = GeometricWeights(F(1, 2))
    for _ in range(50):
        pts = [
            TorusPoint.exact_point([F(rng.randint(0, 47), 48) for _ in range(4)])
            for _ in range(3)
        ]
        d = lambda x, y: product_metric(w, x, y)[0]
        assert d(pts[0], pts[2]) <= d(pts[0], pts[1]) + d(pts[1], pts[2])


def test_metric_depth_mismatch():
    with pytest.raises(ValidationError):
        product_metric(
            GeometricWeights(), TorusPoint.origin(2), TorusPoint.origin(3)
        )


def test_metric_rejects_bad_weights():
    for r in (F(3, 2), F(0), F(1)):
        with pytest.raises(ValidationError):
            GeometricWeights(r)


def test_circle_distance_wraps():
    assert circle_distance(F(1, 10), F(9, 10)) == F(1, 5)
    assert circle_distance(0.0, 0.75) == 0.25
