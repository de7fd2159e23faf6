"""The exact module verdicts against ``oracles.lattice_witness``, which reads
the frequencies omega_1..omega_N themselves: per generator, the gcd g_N of
its coordinates and the p-adic growth e_p(N) = -v_p(g_N / g_1).  For every
prime p <= 31, a finite Lambda_p means e_p stops growing (and the least
valuation of the subgroup, v_p(i) - Lambda_p, is reached), an infinite one
that it grows between N = 32 and N = 64; a component is free iff g_32 = g_64;
the closure has one circle per free component and one solenoid per other
one; and two homeomorphic single-component closures grow at the same primes.
The specs keep every prefix short and every periodic tail shorter than 32,
so a finite exponent is reached by N = 32 and an infinite one grows again by
N = 64."""

import contextlib
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronflow.classification import INF, decompose_module
from kronflow.cli import main
from kronflow.frequency import parse_frequency_spec
from oracles import lattice_witness

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

_tails = st.one_of(
    st.integers(2, 40).map(lambda c: {"constant": c}),
    st.lists(st.integers(2, 40), min_size=1, max_size=4).map(lambda cycle: {"periodic": cycle}),
    st.sampled_from(["increment", "odd_indexed_primes"]),
)
SEQUENCES = st.builds(lambda prefix, tail: {"prefix": [1, *prefix], "tail": tail},
                      st.lists(st.integers(2, 30), max_size=6), _tails)
SOLENOIDS = SEQUENCES.map(lambda a: {"kind": "solenoid", "a": a})
_components = st.one_of(
    st.fractions(min_value=F(1, 20), max_value=50, max_denominator=20).map(lambda r: {"free": str(r)}),
    SEQUENCES.map(lambda a: {"qa": a}),
)
PRODUCTS = st.lists(_components, min_size=1, max_size=3).map(lambda cs: {"kind": "product", "components": cs})
_actions = st.fractions(min_value=0, max_value=20, max_denominator=12)
_ratios = st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12)
BOS = st.builds(
    lambda prefix, c, r: {"kind": "bo", "s": {"prefix": [str(x) for x in prefix],
                                              **({"tail": {"c": str(c), "r": str(r)}} if c else {})}},
    st.lists(_actions, max_size=5), _actions, _ratios,
)


def _valuation(x: F, p: int) -> int:
    n, d, v = abs(x.numerator), x.denominator, 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _growth(doc) -> dict:
    """Per generator: (g_1, g_32, g_64)."""
    fv = parse_frequency_spec(doc)
    w32, w64 = lattice_witness(fv, 32), lattice_witness(fv, 64)
    assert set(w32) == set(w64)
    return {g: (g1, g32, w64[g][1]) for g, (g1, g32) in w32.items()}


def _growing_primes(doc) -> set[int]:
    [(_, g32, g64)] = _growth(doc).values()
    return {p for p in PRIMES if _valuation(g64, p) < _valuation(g32, p)}


@settings(max_examples=120, deadline=None)
@given(st.one_of(SOLENOIDS, PRODUCTS, BOS))
def test_verdicts_agree_with_the_lattice_witness(doc):
    md = decompose_module(parse_frequency_spec(doc), 16)
    growth = _growth(doc)
    assert set(growth) == {c.generator for c in md.components}
    for c in md.components:
        g1, g32, g64 = growth[c.generator]
        assert c.free == (g32 == g64), (c.generator, g32, g64)
        for p in PRIMES:
            lam = c.baer.lam.resolve(p)
            e32 = _valuation(g1, p) - _valuation(g32, p)
            e64 = _valuation(g1, p) - _valuation(g64, p)
            assert (lam != INF) == (e32 == e64), (c.generator, p, lam, e32, e64)
            if lam != INF:
                assert _valuation(g64, p) == _valuation(F(c.baer.i), p) - lam, (c.generator, p)
    assert md.is_free == all(g32 == g64 for _, g32, g64 in growth.values())
    circles = sum(1 for _, g32, g64 in growth.values() if g32 == g64)
    closure = md.closure()
    assert closure.count("circle") == circles and len(closure) == len(growth)
    assert all(f == "circle" or list(f) == ["solenoid"] for f in closure)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("witness")


def _iso(folder, left, right) -> bool:
    paths = []
    for k, doc in enumerate((left, right)):
        path = folder / f"spec{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["iso", *paths]) == 0
    return json.loads(out.getvalue())["homeomorphic"]


_single = st.one_of(SOLENOIDS, SEQUENCES.map(lambda a: {"kind": "product", "components": [{"qa": a}]}))


@settings(max_examples=60, deadline=None)
@given(_single, st.data())
def test_homeomorphic_closures_grow_at_the_same_primes(folder, left, data):
    # half the pairs share the tail of the left spec, so many are homeomorphic
    a = left["a"] if left["kind"] == "solenoid" else left["components"][0]["qa"]
    prefix = data.draw(st.lists(st.integers(2, 30), max_size=6))
    right = data.draw(st.sampled_from([
        {"kind": "solenoid", "a": {"prefix": [1, *prefix], "tail": a["tail"]}},
        data.draw(_single),
    ]))
    if _iso(folder, left, right):
        assert _growing_primes(left) == _growing_primes(right)
