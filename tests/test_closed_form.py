"""``kron average`` and ``kron equidistribution`` against the closed form as
first written (``oracles.average_rows_as_first_written`` and
``equidistribution_rows_as_first_written``), bit for bit, and the reality
fix: a real polynomial with large coefficients at an exact start point has a
real average, whatever the rounding of its phases."""

import contextlib
import io
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kronflow.cli import main
from kronflow.dynamics import (
    TrigPolynomial,
    equidistribution_report,
    parse_polynomial,
    time_average,
)
from kronflow.errors import ValidationError
from kronflow.exact_linalg import IntVecFin
from kronflow.frequency import parse_frequency_spec
from kronflow.solenoid_geometry import TorusPoint
from oracles import average_rows_as_first_written, equidistribution_rows_as_first_written

T3_SPEC = '{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"},{"sqrt3":"1"}]}'
HALVING_SPEC = '{"kind":"solenoid","generator":"1","a":{"prefix":[1,2],"tail":{"constant":2}}}'
SPECS = {"t3": (T3_SPEC, 3), "halving": (HALVING_SPEC, None)}
LARGE_POLY = ('{"terms":[{"cos":{"1":1,"2":-3,"3":2},"scale":"%s"},'
              '{"sin":{"1":2,"3":1},"scale":"%s"}]}')
START = ["1/3", "2/7", "5/11"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Writes a named input file and returns its path."""
    folder = tmp_path_factory.mktemp("closed-form")

    def write(name: str, text: str) -> str:
        path = folder / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def _kron(*argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def _payload_bytes(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(sorted(SPECS)))
    text, depth = SPECS[name]
    depth = depth or draw(st.integers(2, 8))
    nus = st.lists(st.integers(-3, 3), min_size=depth, max_size=depth)
    scale = st.fractions(min_value=F(1, 8), max_value=F(10**6), max_denominator=12)
    terms = draw(st.lists(st.tuples(st.sampled_from(["const", "cos", "sin"]), nus, scale), max_size=4))
    windows = draw(st.lists(st.floats(1e-2, 1e7), min_size=1, max_size=3))
    angles = st.fractions(min_value=0, max_value=1, max_denominator=60)
    theta0 = draw(st.none() | st.lists(angles, min_size=depth, max_size=depth))
    monomials = draw(st.lists(nus, min_size=1, max_size=3))
    return name, text, depth, terms, windows, theta0, monomials


def _polynomial(terms) -> tuple[dict, TrigPolynomial]:
    """The JSON polynomial of ``terms`` and the same polynomial built as a
    sum of one-term polynomials."""
    doc, poly = {"terms": []}, TrigPolynomial.from_table({})
    for op, nu, scale in terms:
        vec = IntVecFin.from_list(nu)
        if op == "const":
            doc["terms"].append({"const": str(scale)})
            poly = poly + TrigPolynomial.constant(scale)
        else:
            doc["terms"].append({op: vec.to_json(), "scale": str(scale)})
            poly = poly + (TrigPolynomial.cosine if op == "cos" else TrigPolynomial.sine)(vec, scale)
    return doc, poly


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_cli_payloads_match_the_closed_form_bit_for_bit(files, case):
    name, text, depth, terms, windows, theta0, monomials = case
    fv = parse_frequency_spec(text)
    doc, poly = _polynomial(terms)
    start = TorusPoint.exact_point(theta0) if theta0 else TorusPoint.origin(depth)
    try:
        rows = average_rows_as_first_written(fv, poly, start, windows)
    except ValidationError as exc:  # the reality check, since removed, rejected it
        assert "reality violated" in str(exc)
        rows = None
    common = ["--T", *map(repr, windows), "--depth", str(depth)]
    if theta0:
        common += ["--theta0", ",".join(map(str, theta0))]
    spec = files(f"{name}.json", text)
    code, out = _kron("average", spec, "--poly", files("poly.json", json.dumps(doc)), *common)
    assert code == 0
    if rows is not None:
        haar = next((re for nu, (re, _) in poly.coeffs if nu.is_zero()), F(0))
        assert out == _payload_bytes({"haar": str(haar), "rows": rows})
    nus = [IntVecFin.from_list(nu) for nu in monomials]
    code, out = _kron("equidistribution", spec, *("--nu=" + ",".join(map(str, nu)) for nu in monomials), *common)
    assert code == 0
    assert out == _payload_bytes({"rows": equidistribution_rows_as_first_written(fv, nus, windows, start)})


@settings(max_examples=30, deadline=None)
@given(_cases(), st.lists(st.floats(0.0, 2 * math.pi), min_size=8, max_size=8))
def test_library_at_float_start_points_matches_the_closed_form(case, radians):
    name, text, depth, terms, windows, _, monomials = case
    fv = parse_frequency_spec(text)
    _, poly = _polynomial(terms)
    start = TorusPoint.float_point(radians[:depth])
    try:
        rows = average_rows_as_first_written(fv, poly, start, windows)
    except ValidationError as exc:
        assert "reality violated" in str(exc)
        assume(False)
    got = [{"T": t, "value": v, "envelope": e} for t, (v, e) in zip(windows, time_average(fv, poly, start, windows))]
    assert _payload_bytes(got) == _payload_bytes(rows)
    nus = [IntVecFin.from_list(nu) for nu in monomials]
    assert _payload_bytes(equidistribution_report(fv, nus, windows, start)) == _payload_bytes(
        equidistribution_rows_as_first_written(fv, nus, windows, start)
    )


# -- the reality fix


def test_large_real_polynomial_at_an_exact_start_point_has_an_average(files):
    spec = files("t3.json", T3_SPEC)
    argv = ["average", spec, "--depth", "3", "--theta0", ",".join(START)]
    code, out = _kron(*argv, "--poly", files("large.json", LARGE_POLY % ("100000", "100000")))
    assert code == 0
    code, unit = _kron(*argv, "--poly", files("unit.json", LARGE_POLY % ("1", "1")))
    assert code == 0
    for row, unit_row in zip(json.loads(out)["rows"], json.loads(unit)["rows"]):
        assert row["T"] == unit_row["T"]
        assert row["value"] == pytest.approx(1e5 * unit_row["value"], rel=1e-9, abs=1e-6)
        assert row["envelope"] == pytest.approx(1e5 * unit_row["envelope"], rel=1e-12)


@pytest.mark.parametrize("scale", [10**5, 10**6, 10**7, 10**8])
def test_time_average_of_large_real_polynomials_is_real(scale):
    fv = parse_frequency_spec(T3_SPEC)
    start = TorusPoint.exact_point(START)
    windows = [100.0, 1000.0, 10000.0]
    unit = time_average(fv, parse_polynomial(json.loads(LARGE_POLY % (1, 1))), start, windows)
    large = time_average(fv, parse_polynomial(json.loads(LARGE_POLY % (scale, scale))), start, windows)
    for (value, envelope), (unit_value, unit_envelope) in zip(large, unit):
        assert isinstance(value, float)
        assert value == pytest.approx(scale * unit_value, rel=1e-9, abs=1e-14 * scale)
        assert envelope == pytest.approx(scale * unit_envelope, rel=1e-12)
