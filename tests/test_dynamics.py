import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronflow.dynamics import (
    TrigPolynomial,
    equidistribution_report,
    evaluate_polynomial,
    flow,
    haar_average,
    minimality_probe,
    nu_dot_omega,
    parse_polynomial,
    time_average,
    time_average_quadrature,
)
from kronflow.errors import ValidationError
from kronflow.exact_linalg import IntVecFin
from kronflow.frequency import (
    integer_rows,
    parse_frequency_spec,
    rational_vector,
)
from kronflow.resonance_reduction import reduce_flow
from kronflow.solenoid_geometry import TorusPoint
from oracles import transform_polynomial

SQRT2 = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"}]}')
SQRT23 = parse_frequency_spec(
    '{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"},{"sqrt3":"1"}]}'
)
RES11 = rational_vector(["1", "1"])
COS12 = TrigPolynomial.cosine(IntVecFin({1: 1, 2: -1}))


# -- flow examples


def test_flow_time_zero():
    theta = TorusPoint.exact_point(["1/5", "2/7"])
    assert flow(rational_vector(["1", "1/2"]), theta, F(0)) == theta


def test_flow_exact_rational():
    fv = rational_vector(["1", "1/2"])
    out = flow(fv, TorusPoint.origin(2), F(1, 2))
    assert out.angles == (F(1, 2), F(1, 4))


def test_flow_group_law_exact():
    fv = rational_vector(["1", "1/2", "1/3"])
    theta = TorusPoint.exact_point(["1/7", "2/7", "3/7"])
    s, t = F(5, 3), F(-7, 4)
    assert flow(fv, flow(fv, theta, s), t) == flow(fv, theta, s + t)


@settings(max_examples=30, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_flow_group_law_float(s, t):
    theta = TorusPoint.float_point([0.3, 1.2])
    a = flow(SQRT2, flow(SQRT2, theta, s), t)
    b = flow(SQRT2, theta, s + t)
    for x, y in zip(a.angles, b.angles):
        d = abs(x - y) % (2 * math.pi)
        assert min(d, 2 * math.pi - d) < 1e-9


def test_flow_falls_back_to_float_for_multiple_generators():
    out = flow(SQRT2, TorusPoint.origin(2), F(1, 2))
    assert not out.exact


# -- haar_average examples


def test_haar_constant_plus_cosine():
    p = TrigPolynomial.constant(3) + TrigPolynomial.cosine(IntVecFin({1: 1}), 2)
    assert haar_average(p) == 3


def test_haar_pure_cosine():
    assert haar_average(COS12) == 0


def test_haar_unit():
    assert haar_average(TrigPolynomial.constant(1)) == 1


def test_reality_enforced():
    with pytest.raises(ValidationError):
        TrigPolynomial.from_table({IntVecFin({1: 1}): (F(1), F(0))})  # missing mirror


def test_repeated_monomial_rejected():
    # kept silently, the last coefficient would win: constants 1 and 2 would
    # average to 2, not 3
    zero = IntVecFin()
    with pytest.raises(ValidationError, match="repeated"):
        TrigPolynomial(((zero, (F(1), F(0))), (zero, (F(2), F(0)))))
    nu = IntVecFin({1: 1})
    with pytest.raises(ValidationError, match="repeated"):
        TrigPolynomial(((nu, (F(1), F(0))), (-nu, (F(1), F(0))), (nu, (F(1), F(0)))))


# -- time_average examples


def test_average_of_unit_is_one():
    rows = time_average(SQRT2, TrigPolynomial.constant(1), TorusPoint.origin(2), [1.0, 10.0, 1234.5])
    assert rows == [(1.0, 0.0)] * 3


def test_average_decay_bound_at_1000():
    [(value, envelope)] = time_average(SQRT2, COS12, TorusPoint.origin(2), [1000.0])
    bound = 2.0 / (1000.0 * (math.sqrt(2) - 1.0))
    assert abs(value) <= bound + 1e-12
    assert abs(envelope - bound) < 1e-15
    assert abs(bound - 0.004828427) < 1e-8


def test_average_resonant_term_is_constant_one():
    rows = time_average(RES11, COS12, TorusPoint.origin(2), [1.0, 77.0, 10_000.0])
    assert rows == [(1.0, None)] * 3  # a resonant monomial never decays


def test_average_quadrature_cross_check():
    t_final = 40.0
    [(closed, _)] = time_average(SQRT2, COS12, TorusPoint.origin(2), [t_final])
    approx = time_average_quadrature(SQRT2, COS12, TorusPoint.origin(2), t_final, samples=6001)
    assert abs(closed - approx) < 5e-5


def test_average_decays_within_envelope():
    # |avg - haar| bounded by the analytic envelope, shrinking with T
    p = COS12 + TrigPolynomial.cosine(IntVecFin({1: 2, 2: 1}), F(1, 2))
    last = None
    windows = (1e3, 1e4, 1e5)
    for t_final, (value, reported) in zip(windows, time_average(SQRT2, p, TorusPoint.origin(2), windows)):
        envelope = 0.0
        for nu, (re, im) in p.items():
            if nu.is_zero():
                continue
            resonant, w = nu_dot_omega(SQRT2, nu)
            assert not resonant
            envelope += 2.0 * abs(complex(re) + 1j * complex(im)) / (t_final * abs(w))
        assert reported == envelope
        assert abs(value - float(haar_average(p))) <= envelope
        if last is not None:
            assert envelope < last
        last = envelope


def test_average_conjugacy_invariance():
    fv = rational_vector(["1", "1/2", "1/3"])
    red = reduce_flow(fv, 3)
    theta0 = TorusPoint.exact_point(["1/3", "1/5", "1/7"])
    p = TrigPolynomial.cosine(IntVecFin({3: 1}), 2) + TrigPolynomial.cosine(
        IntVecFin({1: 1, 2: -2})
    )
    from kronflow.resonance_reduction import apply_automorphism

    [(lhs, _)] = time_average(red.reduced, p, apply_automorphism(red.transform, theta0), [500.0])
    [(rhs, _)] = time_average(fv, transform_polynomial(p, red.transform), theta0, [500.0])
    assert abs(lhs - rhs) < 1e-12


# -- equidistribution report examples


def test_report_bounds_scale():
    nu = IntVecFin({1: 1, 2: -1})
    rows = equidistribution_report(SQRT2, [nu], [10.0, 100.0, 1000.0], TorusPoint.origin(2))
    bounds = [r["bound"] for r in rows]
    assert all(r["pass"] for r in rows)
    assert abs(bounds[0] - 0.4828427) < 1e-6
    assert abs(bounds[0] / bounds[1] - 10.0) < 1e-9
    assert abs(bounds[1] / bounds[2] - 10.0) < 1e-9


def test_report_flags_zero_and_resonant():
    rows = equidistribution_report(
        RES11, [IntVecFin(), IntVecFin({1: 1, 2: -1})], [10.0], TorusPoint.origin(2)
    )
    assert rows[0]["flag"] == "zero"
    assert rows[1]["flag"] == "resonant"


def test_report_double_T_halves_bound():
    nu = IntVecFin({1: 2, 2: 0, 3: -1})
    rows = equidistribution_report(SQRT23, [nu], [200.0, 400.0], TorusPoint.origin(3))
    assert abs(rows[0]["bound"] / rows[1]["bound"] - 2.0) < 1e-12


# -- minimality probe examples


def test_probe_target_origin():
    res = minimality_probe(SQRT2, TorusPoint.origin(2), 2, 0.01, 10.0)
    assert res.hit and res.time == 0.0


def test_probe_hits_generic_target():
    res = minimality_probe(
        SQRT2, TorusPoint.exact_point(["1/2", "1/2"]), 2, 0.05, 5000.0
    )
    assert res.hit and res.distance < 0.05


def test_probe_rejects_resonant_vector():
    with pytest.raises(ValidationError):
        minimality_probe(RES11, TorusPoint.exact_point(["1/2", "0"]), 2, 0.1, 10.0)


def test_nu_dot_omega_at_a_high_index_holds_only_its_table():
    # halving: omega_j = 2^(1-j); the integer table up to j = 5001 holds about
    # 1.5 MB of suffix products, and a resonant nu is decided on it alone,
    # with no float and no second copy
    import tracemalloc

    halving = parse_frequency_spec(
        '{"kind": "solenoid", "generator": "1", "a": {"prefix": [1, 2], "tail": {"constant": 2}}}'
    )
    peaks = []
    for call in (lambda: integer_rows(halving, 5001), lambda: nu_dot_omega(halving, IntVecFin({5000: 1, 5001: -2}))):
        tracemalloc.start()
        try:
            result = call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert result == (True, 0.0)
    assert peaks[1] < peaks[0] + 64 * 1024
    resonant, value = nu_dot_omega(halving, IntVecFin({1: 1, 5000: 1}))
    assert not resonant and value == 1.0 + 2.0**-4999


BO_VALUED = parse_frequency_spec({
    "kind": "bo",
    "generators": [{"name": "beta", "kind": "opaque", "value": "0.318309886183790671537767526745028724068919"}],
    "beta": "beta",
    "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}},
})
# 20 cosines, so 40 monomials +-nu, at indices up to 124
COSINES_40 = [IntVecFin({k: 1, 40 + k: 2, 64 + 3 * k: -1}) for k in range(1, 21)]


def test_time_average_reads_one_table_for_all_monomials(monkeypatch):
    from kronflow import dynamics

    p = TrigPolynomial.from_table({})
    for nu in COSINES_40:
        p = p + TrigPolynomial.cosine(nu)
    assert len(p.coeffs) == 40
    depths = []
    integer_rows = dynamics.integer_rows
    monkeypatch.setattr(dynamics, "integer_rows", lambda fv, depth: depths.append(depth) or integer_rows(fv, depth))
    rows = time_average(BO_VALUED, p, TorusPoint.origin(128), [100.0, 10000.0])
    assert depths == [124]
    assert all(envelope is not None for _, envelope in rows)


def test_monomial_past_a_finite_vector_is_refused_as_before():
    """A start point deeper than a finite vector: the request's table stops
    at the vector's length, and a monomial past it raises the error of its
    own table, after the monomials before it."""
    nus = [IntVecFin({1: 1, 2: -1}), IntVecFin({3: 1})]
    with pytest.raises(ValidationError, match="index 3 beyond finite vector of length 2"):
        equidistribution_report(SQRT2, nus, [100.0], TorusPoint.origin(3))


@pytest.mark.parametrize("fv", [BO_VALUED, SQRT23, rational_vector(["1", "1/2", "1/3", "1/5", "1/7"])])
def test_nu_dot_omega_on_a_deeper_table_is_the_same(fv):
    """A request's one table, at its largest index, gives each monomial the
    verdict and double of the monomial's own table, though a BO or finite
    row's scale depends on the depth it is read to."""
    from kronflow.dynamics import _OmegaTable
    from kronflow.frequency import clamp_depth

    rng = random.Random(33)
    nus = [IntVecFin({rng.randint(1, 6): rng.randint(-5, 5) for _ in range(3)}) for _ in range(60)]
    nus = [nu for nu in nus if not nu.is_zero() and nu.max_index() <= clamp_depth(fv, 6)]
    table = _OmegaTable(fv, clamp_depth(fv, 124))
    for nu in nus:
        assert nu_dot_omega(fv, nu, table) == nu_dot_omega(fv, nu)


# -- polynomial plumbing


def test_parse_polynomial_shapes():
    p = parse_polynomial(
        {
            "terms": [
                {"const": "3"},
                {"cos": {"1": 1, "2": -1}, "scale": "2"},
                {"sin": {"1": 1}},
                {"nu": {"2": 1}, "re": "1/4", "im": "-1/3"},
            ]
        }
    )
    assert haar_average(p) == 3
    val = evaluate_polynomial(p, TorusPoint.origin(2))
    # at the origin: 3 + 2 cos 0 + sin 0 + 2 * Re(1/4 - i/3) = 5.5
    assert abs(val - 5.5) < 1e-12


def test_transform_polynomial_indices():
    from kronflow.exact_linalg import RowFiniteIntMatrix

    swap = RowFiniteIntMatrix.identity(2)
    swap.swap(1, 2)
    p = TrigPolynomial.cosine(IntVecFin({1: 1}))
    q = transform_polynomial(p, swap)
    assert dict(q.items()) == dict(TrigPolynomial.cosine(IntVecFin({2: 1})).items())


def test_reality_of_averages():
    rng = random.Random(3)
    p = TrigPolynomial.from_table({})
    for _ in range(4):
        nu = IntVecFin({rng.randint(1, 3): rng.randint(-2, 2) or 1})
        p = p + TrigPolynomial.cosine(nu, F(rng.randint(1, 3), 2)) + TrigPolynomial.sine(
            nu, F(1, 3)
        )
    [(value, _)] = time_average(SQRT23, p, TorusPoint.float_point([0.1, 2.2, 4.4]), [333.0])
    assert isinstance(value, float)  # the real parts of the terms, summed


def test_near_resonance_warning():
    import warnings

    tight = rational_vector(["1", "10000000001/10000000000"])
    nu = IntVecFin({1: 1, 2: -1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        resonant, value = nu_dot_omega(tight, nu)
    assert not resonant and abs(value) < 1e-9
    assert any("uninformative" in str(w.message) for w in caught)
