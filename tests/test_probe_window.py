"""The windowed minimality probe against the full-grid oracle: random
non-resonant specs, a target at the edge of the first-angle window, and the
time bounds of the sizes the full grid could not reach; the float paths'
checks on times and tolerances."""

import json
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kronflow.dynamics as dynamics
from kronflow.dynamics import (
    ProbeResult,
    TrigPolynomial,
    flow,
    minimality_probe,
    time_average_quadrature,
)
from kronflow.errors import ValidationError
from kronflow.frequency import parse_frequency_spec
from kronflow.resonance_reduction import resonance_basis
from kronflow.solenoid_geometry import TorusPoint
from oracles import float_omegas, planted_target, probe_single_chunk

TAU = 2 * math.pi
BUILTINS = ["1", "sqrt2", "sqrt3", "sqrt5", "pi", "pi^2"]
T3 = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"},{"sqrt3":"1"}]}')


def _step(omegas, eps):
    return eps / (4.0 * max(abs(w) for w in omegas))


def _turns_at(omegas, k, step):
    """The probe's phases k * step * omega / 2 pi at sample k, as it computes them."""
    ts = (np.array([k]) * step)[:, None]
    return (ts * (np.array(omegas) / TAU)[None, :])[0]


def _oracle(fv, target, depth, eps, t_max):
    omegas = float_omegas(fv, depth)
    tgt = [float(v) for v in target.angles] if target.exact else [v / TAU for v in target.angles]
    return ProbeResult(*probe_single_chunk(omegas, tgt, eps, t_max, _step(omegas, eps)))


coefficient = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(lambda q: q != 0)
coordinate = st.dictionaries(st.sampled_from(BUILTINS), coefficient, min_size=1, max_size=2)


@st.composite
def probe_cases(draw):
    mode = draw(st.sampled_from(["planted", "far", "far-second", "free"]))
    depth = draw(st.integers(2 if mode == "far-second" else 1, 4))
    terms = [{g: str(c) for g, c in draw(coordinate).items()} for _ in range(depth)]
    fv = parse_frequency_spec(json.dumps({"kind": "finite", "terms": terms}))
    if not resonance_basis(fv, depth).is_trivial():
        draw(st.nothing())
    eps = draw(st.floats(1e-3, {"far": 0.2, "far-second": 0.1}.get(mode, 0.3)))
    omegas = float_omegas(fv, depth)
    step = _step(omegas, eps)
    if mode in ("far", "far-second"):
        # the first (second) angle stays more than 2 eps (4 eps) from the
        # target, so every sample has d > eps: no hit
        reach = (0.5 - 2 * eps, 0.5 - 4 * eps)[mode == "far-second"]
        turn = step * omegas[mode == "far-second"] / TAU
        n = draw(st.integers(0, min(120_000, int(reach / abs(turn)) - 2)))
    else:
        n = draw(st.integers(0, 120_000))
    t_max = n * step
    if mode in ("planted", "far-second"):
        # a target on a grid sample's orbit point, so that sample hits; for
        # far-second, only in the first angle, the second angle at 1/2
        k = draw(st.integers(0, max(n - 1, 0)))
        turns = [F(float(v)) % 1 for v in _turns_at(omegas, k, step)]
        if mode == "far-second":
            rest = draw(st.lists(st.fractions(0, 1, max_denominator=1000), min_size=depth - 2, max_size=depth - 2))
            turns = [turns[0], F(1, 2)] + rest
        target = TorusPoint.exact_point(turns)
    elif mode == "far":
        rest = draw(st.lists(st.fractions(0, 1, max_denominator=1000), min_size=depth - 1, max_size=depth - 1))
        target = TorusPoint.exact_point([F(1, 2)] + rest)
    elif draw(st.booleans()):
        target = TorusPoint.exact_point(
            draw(st.lists(st.fractions(0, 1, max_denominator=10**6), min_size=depth, max_size=depth))
        )
    else:
        target = TorusPoint.float_point(draw(st.lists(st.floats(0, 6.28), min_size=depth, max_size=depth)))
    return fv, target, depth, eps, t_max, mode


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(probe_cases())
def test_probe_equals_full_grid_oracle(case):
    fv, target, depth, eps, t_max, mode = case
    res = minimality_probe(fv, target, depth, eps, t_max)
    assert res == _oracle(fv, target, depth, eps, t_max)
    if mode == "planted":
        assert res.hit
    elif mode in ("far", "far-second"):
        assert not res.hit


def _edge_targets(omegas, k0, step, eps):
    """Exact depth-1 targets whose first angle is 2 eps from the probe's phase
    at sample k0, moved by -6..6 ulps."""
    centre = float((_turns_at(omegas, k0, step)[0] + math.copysign(2 * eps, omegas[0])) % 1.0)
    for j in range(-6, 7):
        g = centre
        for _ in range(abs(j)):
            g = float(np.nextafter(g, math.copysign(2.0, j)))
        yield TorusPoint.exact_point([F(g)])


@pytest.mark.parametrize("sign", ["1", "-1"])
def test_probe_window_edge(sign):
    """A sample whose delta_1 sits a few ulps either side of 2 eps: at depth 1
    it hits exactly when delta_1 < 2 eps.  With the default step, k0 is the
    first approach to the target."""
    fv = parse_frequency_spec(json.dumps({"kind": "finite", "terms": [{"sqrt2": sign}]}))
    eps = 1e-3
    omegas = float_omegas(fv, 1)
    step = _step(omegas, eps)
    k0 = 20_000  # the first angle has moved less than one turn - 5 eps
    assert k0 * step * abs(omegas[0]) / TAU < 1 - 5 * eps
    t_max = (k0 + 50) * step
    first_hits = set()
    for target in _edge_targets(omegas, k0, step, eps):
        res = minimality_probe(fv, target, 1, eps, t_max)
        assert res == _oracle(fv, target, 1, eps, t_max)
        first_hits.add(res.samples)
    assert first_hits == {k0 + 1, k0 + 2}  # both sides of the edge were probed


@pytest.mark.parametrize("sign", ["1", "-1"])
@pytest.mark.parametrize("k0", [200_003, 271_828])
def test_probe_window_edge_at_large_phases(sign, k0):
    """The same edge with 0.37 turns per sample: the phases reach 1e5 turns, so
    float rounding moves delta_1 by far more than an ulp of 2 eps, and the
    window needs its rounding margin to keep every sample that can hit."""
    fv = parse_frequency_spec(json.dumps({"kind": "finite", "terms": [{"sqrt2": sign}]}))
    eps = 1e-7
    omegas = float_omegas(fv, 1)
    step = 0.37 * TAU / abs(omegas[0])
    t_max = (k0 + 1) * step
    for target in _edge_targets(omegas, k0, step, eps):
        res = minimality_probe(fv, target, 1, eps, t_max, step)
        want = probe_single_chunk(omegas, [float(v) for v in target.angles], eps, t_max, step)
        assert res == ProbeResult(*want)


def _second_angle_spec(c2, depth, slow=False):
    """omega = (1, c2 sqrt2, sqrt3 / 7)[:depth], the third divided by 1e9 if
    ``slow``.  With |c2| = 3 and the default step the second angle outruns
    the first enough that the sample after k0 comes nearer the target."""
    terms = [{"1": "1"}, {"sqrt2": c2}, {"sqrt3": "1/7000000000" if slow else "1/7"}][:depth]
    return parse_frequency_spec(json.dumps({"kind": "finite", "terms": terms}))


def _second_edge_targets(omegas, k0, step, eps):
    """Exact targets on the probe's phases at sample k0 (delta = 0) but for the
    second angle, whose turn is 4 eps (2 radius at the first scan) ahead of
    its motion, moved on by -6..6 ulps of that turn; so at k0 the exact
    delta_2 and 4 d are 4 eps plus j ulps."""
    phases = _turns_at(omegas, k0, step)
    ahead = math.copysign(1.0, omegas[1])
    edge = F(float(phases[1])) + ahead * F(4 * eps)
    unit = F(float(np.spacing(float(abs(edge)))))
    for j in range(-6, 7):
        turns = [F(float(v)) % 1 for v in phases]
        turns[1] = (edge + ahead * j * unit) % 1
        yield TorusPoint.exact_point(turns)


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("c2", ["3", "-3"])
def test_probe_second_angle_edge(c2, depth):
    """delta_1 = 0 and delta_2 a few ulps either side of 2 radius at sample
    k0: the two-angle window keeps k0, which hits exactly when delta_2 < 4
    eps, and otherwise the next sample hits.  With the default step, k0 is
    the first approach to the target."""
    fv = _second_angle_spec(c2, depth)
    eps = 1e-3
    omegas = float_omegas(fv, depth)
    step = _step(omegas, eps)
    k0 = 20_000  # the first angle has moved less than one turn - 5 eps
    assert k0 * step * abs(omegas[0]) / TAU < 1 - 5 * eps
    t_max = (k0 + 50) * step
    first_hits = set()
    for target in _second_edge_targets(omegas, k0, step, eps):
        res = minimality_probe(fv, target, depth, eps, t_max)
        assert res == _oracle(fv, target, depth, eps, t_max)
        first_hits.add(res.samples)
    assert first_hits == {k0 + 1, k0 + 2}  # both sides of the edge were probed


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("c2", ["1/1000000", "-1/1000000"])
def test_probe_second_angle_edge_at_large_phases(c2, depth):
    """The same edge with 0.37 first-angle turns per sample: each first-angle
    run is one sample, and the first angle, at 7.4e4 turns by k0, returns
    to within rounding every 100 samples, while the second moves 2.6 eps
    nearer the target (and the third about 1e-8 turns).  So k0 + 100 hits
    whenever k0 does not.  Ahead of a positive omega_2 the target's second
    turn lies above the phase, and the probe's reduction mod 1 rounds
    delta_2 to a multiple of 2^-53, which at this eps can fall below 4 eps:
    k0 hits where its exact delta_2 is an ulp above 4 eps, so a window
    without its rounding margin, or with r_2 below 2 radius, finds k0 + 100
    first."""
    fv = _second_angle_spec(c2, depth, slow=True)
    eps, k0 = 2e-5, 200_003
    omegas = float_omegas(fv, depth)
    step = 0.37 * TAU / abs(omegas[0])
    t_max = (k0 + 1000) * step
    first_hits = set()
    for target in _second_edge_targets(omegas, k0, step, eps):
        res = minimality_probe(fv, target, depth, eps, t_max, step)
        want = probe_single_chunk(omegas, [float(v) for v in target.angles], eps, t_max, step)
        assert res == ProbeResult(*want)
        first_hits.add(res.samples)
    assert first_hits == {k0 + 1, k0 + 101}  # both sides of the edge were probed


@pytest.mark.parametrize("eps", [1e-2, 5e-3, 3e-3])
def test_second_angle_cuts_the_samples_evaluated(monkeypatch, eps):
    """On a T^3 planted target the two-angle window yields at most a quarter
    of the indices that the first-angle window alone yields, for the same
    result."""
    target = planted_target(T3, 3, 200.0, F(0))
    real = dynamics._probe_candidates
    yielded = {}

    def counting(one_angle):
        def candidates(a, g, radius, n_samples, second=None):
            for ks in real(a, g, radius, n_samples, None if one_angle else second):
                yielded[one_angle] = yielded.get(one_angle, 0) + ks.size
                yield ks
        return candidates

    results = []
    for one_angle in (False, True):
        monkeypatch.setattr(dynamics, "_probe_candidates", counting(one_angle))
        results.append(minimality_probe(T3, target, 3, eps, 1e4))
    assert results[0] == results[1] and results[0].hit
    assert 4 * yielded[False] <= yielded[True]


TINY = "1.23456789012345678901234567890123"


@pytest.mark.parametrize("value", [TINY + "e-400", "-" + TINY + "e-400", TINY + "e-310"])
@pytest.mark.parametrize("eps", [1e-2, 0.3])
def test_probe_first_omega_rounding_to_zero_or_subnormal(value, eps):
    """float(omega_1) is 0 (every sample has the first angle of t = 0, so the
    window holds every index or none) or subnormal."""
    fv = parse_frequency_spec(json.dumps({
        "kind": "finite",
        "generators": [{"name": "b", "kind": "opaque", "value": value}],
        "terms": [{"b": "1"}, {"sqrt2": "1"}],
    }))
    for angles in (["0", "1/3"], ["1/1000", "1/3"], ["1/2", "1/3"], ["99999/100000", "1/5"]):
        target = TorusPoint.exact_point(angles)
        assert minimality_probe(fv, target, 2, eps, 100.0) == _oracle(fv, target, 2, eps, 100.0)


def test_probe_roadmap_case_under_one_second():
    target = TorusPoint.exact_point(["1/2", "1/3", "1/7"])
    start = time.perf_counter()
    res = minimality_probe(T3, target, 3, 1e-3, 1e5)
    assert time.perf_counter() - start < 1.0
    assert res.hit and res.distance < 1e-3 and res.time <= 1e5
    step = _step(float_omegas(T3, 3), 1e-3)
    assert res.time == (res.samples - 1) * step


def test_probe_no_hit_on_a_large_grid_is_fast():
    target = TorusPoint.exact_point(["1/2", "1/3", "1/7"])
    start = time.perf_counter()
    res = minimality_probe(T3, target, 3, 1e-4, 1e3)
    assert time.perf_counter() - start < 3.0
    step = _step(float_omegas(T3, 3), 1e-4)
    assert not res.hit and res.distance >= 1e-4
    assert res.samples == int(1e3 / step) + 1 and res.time <= 1e3


@pytest.mark.parametrize(
    "eps,t_max,step",
    [(math.nan, 1.0, None), (math.inf, 1.0, None), (0.01, math.nan, None), (0.01, math.inf, None),
     (0.01, -1.0, None), (0.0, 1.0, None), (0.01, 1.0, 0.0), (0.01, 1.0, math.nan)],
)
def test_probe_rejects_bad_tolerances_and_times(eps, t_max, step):
    with pytest.raises(ValidationError):
        minimality_probe(T3, TorusPoint.origin(3), 3, eps, t_max, step)


@pytest.mark.parametrize("t_final", [math.nan, math.inf, 0.0, -5.0])
def test_quadrature_rejects_bad_windows(t_final):
    with pytest.raises(ValidationError):
        time_average_quadrature(T3, TrigPolynomial.constant(1), TorusPoint.origin(3), t_final, 101)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_float_flow_rejects_nonfinite_time(t):
    with pytest.raises(ValidationError):
        flow(T3, TorusPoint.origin(3), t)
