"""The vectorized float paths of ``dynamics`` against the per-sample
computation they replace: one flow point, one polynomial value and one probe
sample at a time."""

import json
from fractions import Fraction as F

import numpy as np
import pytest

import kronflow.dynamics as dynamics
from kronflow.dynamics import (
    PROBE_FIRST_CHUNK,
    TrigPolynomial,
    evaluate_polynomial,
    flow,
    minimality_probe,
    sample_trajectory,
    time_average_quadrature,
)
from kronflow.errors import ValidationError
from kronflow.exact_linalg import IntVecFin
from kronflow.frequency import integer_rows, parse_frequency_spec
from kronflow.solenoid_geometry import TorusPoint
from oracles import float_omegas, flow_angles_per_sample, planted_target, probe_single_chunk

T3 = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"},{"sqrt3":"1"}]}')
FACTORIAL_SQRT2 = parse_frequency_spec(
    '{"kind":"solenoid","generator":"sqrt2","a":{"prefix":[1],"tail":"increment"}}'
)
BO_OPAQUE = parse_frequency_spec(json.dumps({
    "kind": "bo",
    "generators": [{"name": "beta", "kind": "opaque",
                    "value": "0.318309886183790671537767526745028724068919"}],
    "beta": "beta",
    "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}},
}))
POLY = (
    TrigPolynomial.constant(F(1, 3))
    + TrigPolynomial.cosine(IntVecFin({1: 2, 2: -1, 3: 1}), F(5, 2))
    + TrigPolynomial.sine(IntVecFin({2: 1, 3: -3}), F(2, 3))
)


def _start_points(depth):
    exact = TorusPoint.exact_point([F(3 * j + 1, 17) for j in range(depth)])
    floats = TorusPoint.float_point([0.25 + 0.7 * j for j in range(depth)])
    return exact, floats


@pytest.mark.parametrize(
    "fv,depth,t1",
    [(T3, 3, 1e12), (FACTORIAL_SQRT2, 8, 1e12), (BO_OPAQUE, 16, 1e6)],
    ids=["t3", "factorial-d8", "bo-d16"],
)
def test_trajectory_rows_equal_per_time_flow(fv, depth, t1):
    omegas = float_omegas(fv, depth)
    for theta0 in _start_points(depth):
        for t0, t1_, steps in ((0.0, 10.0, 40), (7.0, t1, 50)):
            rows = sample_trajectory(fv, theta0, t0, t1_, steps)
            assert len(rows) == steps + 1
            for k, (t, angles) in enumerate(rows):
                assert t == t0 + (t1_ - t0) * k / steps
                assert angles == flow_angles_per_sample(omegas, theta0.to_radians(), t)
                assert tuple(angles) == flow(fv, theta0, t).angles


def test_trajectory_validates_before_sampling():
    with pytest.raises(ValidationError, match="^index 5 beyond finite vector of length 3$"):
        sample_trajectory(T3, TorusPoint.origin(5), 0.0, 1.0, 4)
    with pytest.raises(ValidationError, match="^time window is reversed$"):
        sample_trajectory(T3, TorusPoint.origin(3), 1.0, 0.0, 4)


def test_flow_sampling_quadrature_and_probe_refuse_depth_0():
    """The depth rule of ``clamp_depth``: flow on both branches, trajectory
    sampling, the quadrature and the probe refuse a start point of depth 0."""
    origin = TorusPoint.origin(0)
    calls = [
        lambda: flow(T3, origin, 1),
        lambda: flow(T3, origin, 1.0),
        lambda: sample_trajectory(T3, origin, 0.0, 1.0, 4),
        lambda: time_average_quadrature(T3, POLY, origin, 1.0, 5),
        lambda: minimality_probe(T3, origin, 0, 0.1, 10.0),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="^depth must be >= 1, got 0$"):
            call()


def test_quadrature_polynomial_matches_per_sample_loop():
    omegas = float_omegas(T3, 3)
    for theta0 in _start_points(3):
        t_final, samples = 37.5, 2001
        ts = np.linspace(0.0, t_final, samples)
        vals = [
            evaluate_polynomial(
                POLY, TorusPoint.float_point(flow_angles_per_sample(omegas, theta0.to_radians(), t))
            )
            for t in ts
        ]
        expected = float(np.trapezoid(vals, ts) / t_final)
        got = time_average_quadrature(T3, POLY, theta0, t_final, samples)
        assert abs(got - expected) <= 1e-12


def test_quadrature_callable_observable():
    seen = []

    def observable(pt):
        seen.append(pt)
        return evaluate_polynomial(POLY, pt)

    theta0 = TorusPoint.exact_point(["1/5", "2/5", "3/5"])
    got = time_average_quadrature(T3, observable, theta0, 20.0, 501)
    assert len(seen) == 501 and all(not pt.exact and pt.depth == 3 for pt in seen)
    assert abs(got - time_average_quadrature(T3, POLY, theta0, 20.0, 501)) <= 1e-12


def _probe_oracle(fv, target, depth, eps, t_max):
    """The probe over all int(t_max / step) + 1 samples at once; keep t_max
    small, the oracle holds every sample in memory."""
    omegas = float_omegas(fv, depth)
    step = eps / (4.0 * max(abs(w) for w in omegas))
    hit, time, dist, samples = probe_single_chunk(
        omegas, [float(v) for v in target.angles], eps, t_max, step
    )
    return dynamics.ProbeResult(hit, time, dist, samples)


def test_probe_hit_in_first_chunk():
    target = planted_target(T3, 3, 3.0, F(1, 10**4))
    res = minimality_probe(T3, target, 3, 1e-2, 20.0)
    assert res.hit and res.samples <= PROBE_FIRST_CHUNK
    assert res == _probe_oracle(T3, target, 3, 1e-2, 20.0)


def test_probe_hit_after_several_doublings():
    target = planted_target(T3, 3, 200.0, F(1, 10**4))
    res = minimality_probe(T3, target, 3, 3e-3, 250.0)
    assert res.hit and res.samples > 7 * PROBE_FIRST_CHUNK
    assert res == _probe_oracle(T3, target, 3, 3e-3, 250.0)


def test_probe_no_hit_reports_best_sample():
    target = TorusPoint.exact_point(["1/2", "1/3", "1/7"])
    res = minimality_probe(T3, target, 3, 1e-4, 3.0)
    oracle = _probe_oracle(T3, target, 3, 1e-4, 3.0)
    assert not res.hit and res.samples > 3 * PROBE_FIRST_CHUNK
    assert (res.time, res.distance, res.samples) == (oracle.time, oracle.distance, oracle.samples)
    assert res == oracle


def test_each_omega_evaluated_once_per_call(monkeypatch):
    """Each float call reads the integer table once, at its depth."""
    calls = []

    def counting(fv, depth):
        calls.append((fv, depth))
        return integer_rows(fv, depth)

    monkeypatch.setattr(dynamics, "integer_rows", counting)
    sample_trajectory(FACTORIAL_SQRT2, TorusPoint.origin(8), 0.0, 1e6, 200)
    assert calls == [(FACTORIAL_SQRT2, 8)]
    calls.clear()
    time_average_quadrature(T3, POLY, TorusPoint.origin(3), 30.0, 4001)
    assert calls == [(T3, 3)]
    calls.clear()
    minimality_probe(T3, planted_target(T3, 3, 200.0, F(0)), 3, 1e-2, 1e4)
    assert calls == [(T3, 3)]



def test_float_omegas_read_the_width_once_per_omega(monkeypatch):
    """``_float_omegas`` on the BO d16 spec reads ``working_bits`` once per
    call, not once per omega_j or per generator of its two-generator map."""
    import kronflow.frequency as frequency

    expected = dynamics._float_omegas(BO_OPAQUE, 16)
    calls = []
    real = frequency.working_bits
    for module in (frequency, dynamics):
        monkeypatch.setattr(module, "working_bits", lambda: calls.append(1) or real())
    assert dynamics._float_omegas(BO_OPAQUE, 16).tolist() == expected.tolist()
    assert len(calls) == 1
