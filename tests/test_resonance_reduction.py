import json
import random
import time
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronflow import exact_linalg
from kronflow.cli import main
from kronflow.errors import ValidationError
from kronflow.exact_linalg import IntVecFin, RowFiniteIntMatrix
from kronflow.frequency import (
    UNIT,
    BoRule,
    Generator,
    ProductConstruction,
    RationalSequenceSpec,
    SigmaSequence,
    SolenoidRule,
    SubgroupOfQSpec,
    build_product_vector,
    clamp_depth,
    integer_rows,
    parse_frequency_spec,
    rational_vector,
)
from kronflow.resonance_reduction import (
    apply_automorphism,
    reduce_flow,
    reduce_vector,
    resonance_basis,
)
from kronflow.dynamics import flow
from kronflow.solenoid_geometry import TorusPoint
from test_exact_linalg import assert_matches_dense_hermite
from test_lattice_witness import PRODUCTS, SOLENOIDS
from oracles import (
    brute_force_kernel,
    dense_hermite_transform,
    dense_rows,
    dot_fractions,
    euclid_gcd,
    literal_reduction,
    omega_columns,
    rational_rank,
    span_contains_all,
    verify_inverse,
)


# -- resonance_basis examples


def test_resonance_harmonic_prefix():
    # 6 nu1 + 3 nu2 + 2 nu3 = 0; oracle: enumeration up to 6 + span comparison
    fv = rational_vector(["1", "1/2", "1/3"])
    basis = resonance_basis(fv, 3)
    assert basis.rank == 2
    brute = brute_force_kernel([[F(1), F(1, 2), F(1, 3)]], 6)
    assert span_contains_all([b.to_list(3) for b in basis.vectors], brute)
    assert span_contains_all([b.to_list(3) for b in basis.vectors], np.array([[1, -2, 0], [0, 2, -3]]))


def test_resonance_independent_pair():
    fv = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"}]}')
    assert resonance_basis(fv, 2).is_trivial()


def test_resonance_solenoid_rule():
    # omega = (1, 1/2, 1/4): relations omega_j = 2 omega_{j+1}
    a = SigmaSequence((1, 2, 2), "constant", (2,))
    basis = resonance_basis(SolenoidRule(UNIT, a), 3)
    assert basis.rank == 2
    for quoted in ([1, -2, 0], [0, 1, -2]):
        v = IntVecFin.from_list(quoted)
        assert dot_fractions(v, [F(1), F(1, 2), F(1, 4)]) == 0
        assert span_contains_all([b.to_list(3) for b in basis.vectors], np.array([quoted]))


# -- reduce_vector examples


def test_reduce_single_entry():
    cert = reduce_vector(IntVecFin({1: 6}))
    assert cert.result == IntVecFin({1: 6})
    assert cert.transform == RowFiniteIntMatrix.identity(1)
    assert cert.gcd == 6


def test_reduce_coprime_pair():
    cert = reduce_vector(IntVecFin.from_list([2, 3]))
    assert cert.result == IntVecFin({1: 1})
    assert cert.gcd == euclid_gcd([2, 3]) == 1
    # trace (2,3)->(2,1)->(1,2)->(1,1)->(1,0): normalized sums 5 > 3 > 2 > 1
    assert cert.pass_sums == (5, 3, 2, 1)


def test_reduce_common_factor():
    cert = reduce_vector(IntVecFin.from_list([4, 6, 10]))
    assert cert.result == IntVecFin({1: 2})
    assert cert.gcd == euclid_gcd([4, 6, 10]) == 2


def test_reduce_zero_rejected():
    with pytest.raises(ValidationError):
        reduce_vector(IntVecFin())


@st.composite
def sparse_vectors(draw):
    n = draw(st.integers(1, 8))
    vals = draw(
        st.lists(st.integers(-50, 50), min_size=n, max_size=n).filter(lambda v: any(v))
    )
    return IntVecFin.from_list(vals)


@settings(max_examples=150, deadline=None)
@given(sparse_vectors())
def test_reduction_certificate_properties(nu):
    cert = reduce_vector(nu)
    assert cert.transform.apply(nu) == cert.result
    assert cert.result.support() in ((1,),)
    assert cert.result[1] == cert.gcd == euclid_gcd(v for _, v in nu.items())
    assert cert.gcd > 0
    assert verify_inverse(cert.transform)
    assert all(s1 > s2 for s1, s2 in zip(cert.pass_sums, cert.pass_sums[1:]))
    assert all(s > 0 for s in cert.pass_sums)


def _expand_runs(steps: list[dict]) -> list[dict]:
    """The trail with each subtract_head run written out as its literal
    row_i -= row_1 records, one per row and pass."""
    out = []
    for s in steps:
        if s["op"] != "subtract_head":
            out.append(s)
            continue
        for p in range(s["pass"], s["pass"] + s["repeat"]):
            out += [{"op": "add_multiple", "i": i, "j": 1, "factor": -1, "pass": p} for i in range(2, s["rows"] + 1)]
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=8).filter(any))
def test_run_trail_expands_to_the_literal_trail(vals):
    _assert_literal_trail(vals)


@st.composite
def stratified_vectors(draw):
    """16 to 30 entries of size <= 1000, one from each of n equal sub-ranges
    of [1, 1000] in a drawn order with drawn signs (as the benchmark's
    ``reduce`` requests draw them), or n entries drawn freely from
    [-1000, 1000]."""
    n = draw(st.integers(16, 30))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n).filter(any))
    lows = [1 + 1000 * k // n for k in range(n + 1)]
    vals = [draw(st.sampled_from((-1, 1))) * draw(st.integers(lo, hi - 1)) for lo, hi in zip(lows, lows[1:])]
    return draw(st.permutations(vals))


@settings(max_examples=40, deadline=None)
@given(stratified_vectors())
def test_run_trail_expands_to_the_literal_trail_at_workload_size(vals):
    _assert_literal_trail(vals)


def _assert_literal_trail(vals):
    """reduce_vector's trail, pass sums, rows, inverse rows and head are the
    literal reduction's, its runs expanded."""
    nu = IntVecFin.from_list(vals)
    cert = reduce_vector(nu)
    want = literal_reduction(nu.to_list(nu.max_index()))
    steps = list(cert.steps)
    assert _expand_runs(steps) == want["steps"]
    assert list(cert.pass_sums) == want["pass_sums"]
    doc = cert.transform.to_json()
    n = doc["dimension"]
    assert n == len(want["rows"])
    assert dense_rows(doc, "rows", n) == want["rows"]
    assert dense_rows(doc, "inverse_rows", n) == want["inverse_rows"]
    assert cert.gcd == want["head"]
    # runs are maximal: each one but the last ends where a swap is needed
    for s, after in zip(steps, steps[1:]):
        if s["op"] == "subtract_head":
            assert after["op"] == "swap"


def test_run_trail_of_a_long_quotient():
    cert = reduce_vector(IntVecFin.from_list([3, 20, 0, 0]))
    # (3, 20): 6 passes of row_2 -= row_1, then (2, 3) -> one pass -> (2, 1) ...
    assert cert.steps[0] == {"op": "subtract_head", "pass": 1, "repeat": 6, "rows": 2}
    assert cert.pass_sums[:7] == (23, 20, 17, 14, 11, 8, 5)
    assert cert.result == IntVecFin({1: 1})


# -- reduce_flow examples


def test_reduce_flow_nonresonant():
    fv = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"}]}')
    red = reduce_flow(fv, 2)
    assert red.zero_rank == 0
    assert red.transform == RowFiniteIntMatrix.identity(2)
    assert red.reduced.terms == fv.terms
    assert red.nonresonance_scope == "global"


def test_reduce_flow_harmonic_prefix():
    fv = rational_vector(["1", "1/2", "1/3"])
    red = reduce_flow(fv, 3)
    assert red.zero_rank == 2
    first, second, tail = map(dict, red.reduced.terms)
    assert first == {} and second == {}
    assert set(tail) == {UNIT} and tail[UNIT] != 0
    _assert_exact_transform(fv, red)


def test_reduce_flow_repeated_entry():
    fv = parse_frequency_spec(
        '{"kind":"finite","terms":[{"1":"1"},{"1":"1"},{"sqrt2":"1"}]}'
    )
    red = reduce_flow(fv, 3)
    assert red.zero_rank == 1
    assert red.reduced.terms[0] == ()
    assert red.nonzero_block_independent
    _assert_exact_transform(fv, red)


def _assert_exact_transform(fv, red):
    """coordinate matrix of the reduced vector equals A times the original."""
    depth = red.depth
    cols = omega_columns(fv, depth)
    reduced = [dict(term) for term in red.reduced.terms]
    assert len(reduced) == depth
    gens = set()
    for c in cols:
        gens |= set(c)
    rows = dense_rows(red.transform.to_json(), "rows", depth)
    for g in gens:
        col = [c.get(g, F(0)) for c in cols]
        out = [sum((a * c for a, c in zip(row, col)), F(0)) for row in rows]
        expect = [c.get(g, F(0)) for c in reduced]
        assert out == expect


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=2, max_size=5
    )
)
def test_reduce_flow_random_rational(vals):
    fv = rational_vector(vals)
    depth = len(vals)
    red = reduce_flow(fv, depth)
    _assert_exact_transform(fv, red)
    assert verify_inverse(red.transform)
    assert red.reduced.terms[: red.zero_rank] == ((),) * red.zero_rank
    # nonzero block has trivial kernel at this depth
    tail = resonance_basis(red.reduced, depth)
    assert all(max(v.support()) <= red.zero_rank for v in tail.vectors)


README_SPECS = {
    "halving": '{"kind": "solenoid", "generator": "1", "a": {"prefix": [1, 2], "tail": {"constant": 2}}}',
    "product": '{"kind": "product", "components": [{"free": "1"}, {"qa": {"prefix": [1], "tail": {"constant": 2}}}]}',
}


@pytest.mark.parametrize("family", sorted(README_SPECS))
def test_reduce_flow_memory_is_linear_in_depth(family):
    """The transform's rows hold a few nonzeros each, so the traced peak of
    ``reduce_flow(fv, d).to_json()`` grows at most 2.5x per doubling of d from
    256 to 1024 (a dense n x n block grows about 4x)."""
    fv = parse_frequency_spec(README_SPECS[family])
    peaks = []
    for depth in (256, 512, 1024):
        tracemalloc.start()
        try:
            reduce_flow(fv, depth).to_json()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert all(later <= 2.5 * earlier for earlier, later in zip(peaks, peaks[1:])), peaks


# -- apply_automorphism examples


def _elementary(n, op, *args):
    m = RowFiniteIntMatrix.identity(n)
    getattr(m, op)(*args)
    return m


def test_apply_identity():
    theta = TorusPoint.exact_point(["1/4", "1/3"])
    assert apply_automorphism(RowFiniteIntMatrix.identity(2), theta) == theta


def test_apply_swap():
    theta = TorusPoint.exact_point(["1/4", "1/3"])
    out = apply_automorphism(_elementary(2, "swap", 1, 2), theta)
    assert out.angles == (F(1, 3), F(1, 4))


def test_apply_addrow():
    theta = TorusPoint.exact_point(["1/4", "1/3"])
    out = apply_automorphism(_elementary(2, "add_to_rows", [2], 1, -1), theta)
    assert out.angles == (F(1, 4), F(1, 12))


def test_apply_depth_mismatch():
    with pytest.raises(ValidationError):
        apply_automorphism(_elementary(3, "swap", 1, 3), TorusPoint.exact_point(["1/4", "1/3"]))


# -- conjugacy semantics (exact)


def test_conjugacy_commutes_exactly():
    fv = rational_vector(["1", "1/2", "1/3"])
    red = reduce_flow(fv, 3)
    rng = random.Random(7)
    for _ in range(100):
        t = F(rng.randint(-400, 400), rng.randint(1, 60))
        theta = TorusPoint.exact_point([F(rng.randint(0, 59), 60) for _ in range(3)])
        left = apply_automorphism(red.transform, flow(fv, theta, t))
        right = flow(red.reduced, apply_automorphism(red.transform, theta), t)
        assert left == right


def test_reduce_flow_full_rank_rule():
    # depth-4 truncation of the halving rule: relations at every adjacent pair
    a = SigmaSequence((1, 2), "constant", (2,))
    fv = SolenoidRule(UNIT, a)
    red = reduce_flow(fv, 4)
    assert red.zero_rank == 3
    *zeros, last = map(dict, red.reduced.terms)
    assert zeros == [{}, {}, {}]
    assert last[UNIT] != 0
    _assert_exact_transform(fv, red)
    assert verify_inverse(red.transform)


def test_reduce_flow_support_away_from_first_column():
    fv = parse_frequency_spec(
        '{"kind":"finite","terms":[{"sqrt2":"1"},{"1":"1"},{"1":"1"}]}'
    )
    red = reduce_flow(fv, 3)
    assert red.zero_rank == 1
    _assert_exact_transform(fv, red)


def test_reduce_flow_zero_vector_fully_resonant():
    red = reduce_flow(rational_vector(["0", "0"]), 2)
    assert red.zero_rank == 2
    assert red.reduced.terms == ((), ())


def test_apply_automorphism_float_points():
    import math

    th = TorusPoint.float_point([0.5, 1.25])
    out = apply_automorphism(_elementary(2, "add_to_rows", [2], 1, -1), th)
    assert not out.exact
    assert abs(out.angles[0] - 0.5) < 1e-15
    assert abs(out.angles[1] - 0.75) < 1e-15


# -- deep truncations (README families)


def _echelon_reduce(basis, vec):
    """vec minus its integer combination of an echelon basis (pivots strictly
    increasing), taken pivot by pivot; zero iff vec lies in the basis's span."""
    vec = dict(vec.items())
    for b in basis:
        p = b.support()[0]
        q, r = divmod(vec.get(p, 0), b[p])
        if r:
            return vec
        for i, v in b.items():
            vec[i] = vec.get(i, 0) - q * v
    return {i: v for i, v in vec.items() if v}


def _echelon_basis(vectors):
    """An echelon basis of the span of integer vectors, for ``_echelon_reduce``:
    each vector is inserted at its pivot by Euclid's algorithm on the pivot
    entries, the smaller remainder staying as the basis vector."""
    basis = {}
    for nu in vectors:
        vec = dict(nu.items())
        while vec:
            p = min(vec)
            held = basis.setdefault(p, vec)
            if held is vec:
                break
            q = vec[p] // held[p]
            vec = {i: w for i in held.keys() | vec.keys() if (w := vec.get(i, 0) - q * held.get(i, 0))}
            if p in vec:
                basis[p], vec = vec, held
    return [IntVecFin(basis[p]) for p in sorted(basis)]


DEEP_SPECS = {
    "halving": '{"kind": "solenoid", "generator": "1", "a": {"prefix": [1, 2], "tail": {"constant": 2}}}',
    "bo": '{"kind": "bo", "beta": {"name": "beta", "kind": "opaque"}, '
    '"s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}}}',
    "product": '{"kind": "product", "components": [{"free": "1"}, '
    '{"qa": {"prefix": [1], "tail": {"constant": 2}}}]}',
}


def _coordinate_rows(fv, depth):
    cols = omega_columns(fv, depth)
    gens = sorted({g for col in cols for g in col}, key=str)
    return [[col.get(g, F(0)) for col in cols] for g in gens]


@pytest.mark.parametrize("depth", [64, 128])
@pytest.mark.parametrize("family", sorted(DEEP_SPECS))
def test_reduce_flow_deep(family, depth):
    fv = parse_frequency_spec(DEEP_SPECS[family])
    start = time.perf_counter()
    red = reduce_flow(fv, depth)
    assert time.perf_counter() - start < 2.0
    assert red.zero_rank == depth - rational_rank(_coordinate_rows(fv, depth))
    _assert_exact_transform(fv, red)
    assert verify_inverse(red.transform)
    # the zero block and the resonance basis span one lattice: each basis
    # vector's coordinates in the rows of A, nu A^-1, vanish past zero_rank,
    # and each row of the zero block lies in the span of the basis
    basis = resonance_basis(fv, depth)
    assert basis.rank == red.zero_rank
    inverse = dense_rows(red.transform.to_json(), "inverse_rows", depth)
    for nu in basis.vectors:
        coords = [sum(v * inverse[i - 1][r] for i, v in nu.items()) for r in range(depth)]
        assert not any(coords[red.zero_rank :])
    echelon = _echelon_basis(basis.vectors)
    assert all(not _echelon_reduce(echelon, red.transform.row(i)) for i in range(1, red.zero_rank + 1))
    assert red.nonzero_block_independent


@pytest.mark.parametrize("depth", [1, 2, 7, 16, 33, 64, 128])
@pytest.mark.parametrize("family", sorted(DEEP_SPECS))
def test_family_hermite_transform_matches_dense_oracle(family, depth):
    assert_matches_dense_hermite(_coordinate_rows(parse_frequency_spec(DEEP_SPECS[family]), depth))


def test_halving_hermite_writes_linear_in_depth(monkeypatch):
    """Entries written by the sparse combination step for the integer kernel
    of the halving and product coordinates (the product's frequencies lie on
    two generators, so its columns carry two row labels between them), and
    the nonzeros of the kernel: one column adds a bounded number, so doubling the
    depth from 128 to 1024 at most about doubles each count (a dense graph
    vector writes m + n entries per step, which made it quadratic)."""
    written = []
    real = exact_linalg._combine

    def counting(x, y, a, b):
        written.append((len(x) if a != 1 else 0) + (len(y) if b else 0))
        return real(x, y, a, b)

    monkeypatch.setattr(exact_linalg, "_combine", counting)
    for family, zero_rank in (("halving", lambda d: d - 1), ("product", lambda d: d - 2)):
        fv = parse_frequency_spec(DEEP_SPECS[family])
        writes, nonzeros = [], []
        for depth in (128, 256, 512, 1024):
            written.clear()
            kernel = exact_linalg.integer_kernel(integer_rows(fv, depth), depth)
            assert len(kernel) == zero_rank(depth)
            writes.append(sum(written))
            nonzeros.append(sum(len(v.support()) for v in kernel))
        assert writes[0] > 0
        for counts in (writes, nonzeros):
            assert all(b <= 2.1 * a for a, b in zip(counts, counts[1:])), (family, counts)


def test_resonance_bo_depth_128():
    fv = parse_frequency_spec(DEEP_SPECS["bo"])
    start = time.perf_counter()
    basis = resonance_basis(fv, 128)
    assert time.perf_counter() - start < 2.0
    rows = _coordinate_rows(fv, 128)
    assert basis.rank == 128 - rational_rank(rows)
    for nu in basis.vectors:
        assert all(dot_fractions(nu, row) == 0 for row in rows)


def test_resonance_basis_rejects_a_wrong_kernel_vector(monkeypatch):
    import kronflow.resonance_reduction as rr

    fv = rational_vector(["1", "1/2", "1/3"])
    # (1, -2, 0) is a relation; (1, -1, 0) is not: 1 - 1/2 != 0
    monkeypatch.setattr(rr, "integer_kernel", lambda rows, n: [IntVecFin({1: 1, 2: -2}), IntVecFin({1: 1, 2: -1})])
    with pytest.raises(ValidationError, match="fails exact resonance check"):
        resonance_basis(fv, 3)


def test_halving_coordinate_matrix_is_linear_in_terms(monkeypatch):
    # the d256 table is one running product: at most one term call per index
    calls = []
    term = SigmaSequence.term

    def counting(self, j):
        calls.append(j)
        return term(self, j)

    monkeypatch.setattr(SigmaSequence, "term", counting)
    basis = resonance_basis(parse_frequency_spec(DEEP_SPECS["halving"]), 256)
    assert basis.rank == 255
    assert len(calls) <= 256


# -- sequence rules: the adjacent relations in closed form


@settings(max_examples=100, deadline=None)
@given(st.one_of(SOLENOIDS, PRODUCTS), st.integers(1, 64))
def test_sequence_basis_spans_the_dense_hermite_kernel(doc, depth):
    """The adjacent relations and the dense oracle's Hermite kernel span one
    lattice, and ``reduce_flow``'s transform is the oracle's."""
    fv = parse_frequency_spec(doc)
    cols = omega_columns(fv, depth)
    rows = [[col.get(g, F(0)) for col in cols] for g in sorted({g for col in cols for g in col})]
    dense = dense_hermite_transform(rows) if rows else None
    kernel = [IntVecFin.from_list(r) for r in dense.rows[: dense.zero_rank]] if dense else [
        IntVecFin({j: 1}) for j in range(1, depth + 1)]
    basis = resonance_basis(fv, depth).vectors
    assert len(basis) == len(kernel)
    assert all(not _echelon_reduce(kernel, nu) for nu in basis)
    assert all(not _echelon_reduce(basis, nu) for nu in kernel)
    assert all(nu[nu.support()[0]] == 1 and len(nu.support()) <= 2 for nu in basis)
    red = reduce_flow(fv, depth)
    if dense and red.zero_rank:
        doc = red.transform.to_json()
        assert dense_rows(doc, "rows", depth) == dense.rows
        assert dense_rows(doc, "inverse_rows", depth) == dense.inverse_rows


@pytest.mark.parametrize("family", ["halving", "product"])
def test_sequence_rules_reject_a_wrong_adjacent_relation(monkeypatch, family):
    """An adjacent relation with its second coefficient off by one fails the
    exact re-check on the integer table that every family's basis passes."""
    import kronflow.resonance_reduction as rr

    real = rr._adjacent_relations

    def corrupt(rows, depth):
        relations = real(rows, depth)
        nu = next(nu for nu in relations if len(nu) == 2)
        nu[max(nu)] -= 1
        return relations

    monkeypatch.setattr(rr, "_adjacent_relations", corrupt)
    with pytest.raises(ValidationError, match="^internal error: kernel vector fails exact resonance check$"):
        resonance_basis(parse_frequency_spec(DEEP_SPECS[family]), 16)


SEQUENCE_SPECS = {
    "factorial": '{"kind": "solenoid", "a": {"prefix": [1], "tail": "increment"}}',
    "halving": DEEP_SPECS["halving"],
}


LINEAR_RESONANCE_SPECS = {**SEQUENCE_SPECS, "bo": DEEP_SPECS["bo"]}
BO_ODD = '{"kind": "bo", "s": {"prefix": ["1/2"], "tail": {"c": "1/2", "r": "1/3"}}}'


@pytest.mark.parametrize("text, call", [
    (DEEP_SPECS["bo"], resonance_basis), (BO_ODD, resonance_basis),
    *((text, call) for text in (DEEP_SPECS["halving"], SEQUENCE_SPECS["factorial"], DEEP_SPECS["product"])
      for call in (resonance_basis, reduce_flow)),
], ids=["readme", "odd", "halving", "halving-reduce-flow", "factorial", "factorial-reduce-flow",
        "product", "product-reduce-flow"])
def test_bo_resonance_makes_no_fraction_per_index(monkeypatch, text, call):
    """``resonance_basis`` on a BO spec reads its integer table straight from
    the integer sigmas, and ``resonance_basis`` and ``reduce_flow`` on the
    sequence rules read theirs from the closed-form rows, so the Fractions
    they make do not grow with the depth; building the table from the
    coordinates made 2N + 2 on BO, and the sequence rules' relations made one
    per index."""
    fv = parse_frequency_spec(text)
    made = []
    original = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    counts = []
    for depth in (64, 512):
        made.clear()
        call(fv, depth)
        counts.append(len(made))
    assert counts[0] == counts[1] <= 8, counts


@pytest.mark.parametrize("family", sorted(LINEAR_RESONANCE_SPECS))
def test_sequence_resonance_output_linear_in_depth(tmp_path, capsys, family):
    """``kron resonance`` prints one relation of two entries per index on
    sequence rules, and of five small entries per index past a fixed head on
    BO, so its stdout grows at most 2.2x per doubling of the depth from 256
    to 1024 (the Hermite basis e_j - (P_N / P_j) e_N grew about 4x on
    factorial, and BO's Hermite basis about 3.7x)."""
    spec = tmp_path / "spec.json"
    spec.write_text(LINEAR_RESONANCE_SPECS[family])
    sizes = []
    for depth in (256, 512, 1024):
        assert main(["resonance", str(spec), "--depth", str(depth)]) == 0
        sizes.append(len(capsys.readouterr().out.encode()))
    assert all(later <= 2.2 * earlier for earlier, later in zip(sizes, sizes[1:])), sizes


# -- BO: a Hermite head, then the shifts of the tail's recurrence

BETA = Generator("beta", "opaque")


@st.composite
def bo_rules(draw):
    """BO rules with a prefix of 0-8 entries, zeros among them, a finite
    support one time in five, and a tail ratio p/q with q <= 12."""
    prefix = draw(st.lists(st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=5, max_denominator=12)),
                           max_size=8))
    q = draw(st.integers(2, 12))
    ratio = F(draw(st.integers(1, q - 1)), q)
    c = F(0) if draw(st.integers(0, 4)) == 0 else draw(st.fractions(min_value=F(1, 12), max_value=5,
                                                                      max_denominator=12))
    return BoRule(BETA, RationalSequenceSpec(tuple(prefix), c, ratio))


@settings(max_examples=150, deadline=None)
@given(bo_rules(), st.integers(1, 64))
def test_bo_basis_spans_the_dense_hermite_kernel(fv, depth):
    """The head and the shifts span the lattice of the dense oracle's Hermite
    kernel: each vector reduces to zero against the kernel, and each kernel
    vector against an echelon basis of their span."""
    cols = omega_columns(fv, depth)
    dense = dense_hermite_transform([[col.get(g, F(0)) for col in cols] for g in (UNIT, BETA)])
    kernel = [IntVecFin.from_list(r) for r in dense.rows[: dense.zero_rank]]
    basis = resonance_basis(fv, depth).vectors
    assert len(basis) == len(kernel)
    assert all(not _echelon_reduce(kernel, nu) for nu in basis)
    echelon = _echelon_basis(basis)
    assert all(not _echelon_reduce(echelon, nu) for nu in kernel)


def test_bo_basis_is_a_short_head_then_the_shifts():
    """On the README spec the head is the Hermite kernel of the first five
    columns, and every later vector is the shift of (E - 1)^3 (2E - 1)."""
    fv = parse_frequency_spec(DEEP_SPECS["bo"])
    basis = resonance_basis(fv, 64).vectors
    assert list(basis[:3]) == exact_linalg.integer_kernel(integer_rows(fv, 5), 5)
    assert list(basis[3:]) == [IntVecFin({j - 4: 1, j - 3: -5, j - 2: 9, j - 1: -7, j: 2}) for j in range(6, 65)]


@pytest.mark.parametrize("fv, depths", [
    (BoRule(BETA, RationalSequenceSpec()), range(1, 17)),  # s = 0: omega_j = j^2, rank 1
    (BoRule(BETA, RationalSequenceSpec((F(0), F(0)))), range(1, 17)),
    (parse_frequency_spec(DEEP_SPECS["bo"]), range(1, 6)),  # d < L + 5
    (BoRule(BETA, RationalSequenceSpec((F(1, 2), F(0), F(3)), F(2, 5), F(3, 7))), range(1, 8)),
    (BoRule(BETA, RationalSequenceSpec((F(1, 2), F(1, 3)))), range(1, 6)),  # finite: d < L + 4
], ids=["zero", "zero-prefix", "readme", "long-prefix", "finite"])
def test_bo_below_the_head_or_at_rank_one_takes_the_hermite_path(fv, depths):
    """With s = 0 (rank 1) the basis is the Hermite kernel of all the columns;
    at a depth that leaves no shift past the head (d < L + 5 on a geometric
    tail, d < L + 4 on a finite support) the head is all the columns, so its
    kernel is that basis too.  Either way ``kron resonance`` prints the same
    bytes as the kernel's JSON."""
    for depth in depths:
        want = {"depth": depth, "rank": depth - len(dense_hermite_transform(_coordinate_rows(fv, depth)).image),
                "vectors": [v.to_json() for v in exact_linalg.integer_kernel(integer_rows(fv, depth), depth)]}
        assert resonance_basis(fv, depth).to_json() == want


@pytest.mark.parametrize("index", [4, 10])
def test_bo_basis_rejects_a_wrong_module_index(monkeypatch, index):
    """d*_4 lies in the README spec's head, d*_10 past it; either one doubled
    breaks the head's index certificate, which also runs at depth 5 or 10,
    where the head is every column."""
    import kronflow.resonance_reduction as rr

    fv = parse_frequency_spec(DEEP_SPECS["bo"])
    real = rr._module_indices

    def corrupt(x, y):
        indices = real(x, y)
        indices[index - 1] *= 2
        return indices

    monkeypatch.setattr(rr, "_module_indices", corrupt)
    for depth in (max(index, 5), 32):
        with pytest.raises(ValidationError, match="^internal error: relation basis fails the module index check$"):
            resonance_basis(fv, depth)


def test_bo_basis_rejects_a_head_that_misses_relations(monkeypatch):
    """A head vector doubled is still a relation, but the head then spans a
    sublattice of index 2, which the product of its pivots shows."""
    import kronflow.resonance_reduction as rr

    fv = parse_frequency_spec(DEEP_SPECS["bo"])
    real = rr.integer_kernel
    monkeypatch.setattr(rr, "integer_kernel", lambda rows, n: [real(rows, n)[0].scale(2), *real(rows, n)[1:]])
    with pytest.raises(ValidationError, match="^internal error: relation basis fails the module index check$"):
        resonance_basis(fv, 32)


@pytest.mark.parametrize("term", [0, 1, 2, 3])
def test_bo_basis_rejects_a_wrong_shift_coefficient(monkeypatch, term):
    """A coefficient of P off by one makes every shift fail the re-check."""
    import kronflow.resonance_reduction as rr

    fv = parse_frequency_spec(DEEP_SPECS["bo"])
    real = rr._recurrence
    monkeypatch.setattr(rr, "_recurrence", lambda s: [c + (k == term) for k, c in enumerate(real(s))])
    with pytest.raises(ValidationError, match="^internal error: kernel vector fails exact resonance check$"):
        resonance_basis(fv, 32)


def test_product_with_a_repeated_generator_is_rejected():
    """The closed forms read one chain per generator, so a product built by
    hand with one generator twice, or with one number under two names, is
    rejected when it is built (pi Z[1/2] would classify as rank 2)."""
    built = build_product_vector([SubgroupOfQSpec(F(1)), SubgroupOfQSpec(qa=SigmaSequence((1,), "constant", (2,)))])
    (pi, free), (_, qa) = built.components
    with pytest.raises(ValidationError, match="^generator 'pi' carries two product components$"):
        ProductConstruction(((pi, qa), (pi, free)))
    with pytest.raises(ValidationError, match="^generators 'p' and 'pi' are the same number$"):
        ProductConstruction(((Generator("p", "pi_power", 1), qa), (pi, free)))


# -- reduce_flow: one Hermite pass at most, its flag read off the image

RESONANT_FINITE = '{"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}, {"1": "2"}, {"1": "1/3", "sqrt3": "1"}]}'
GUARD_SPECS = {
    "finite": (RESONANT_FINITE, 1),
    "finite, trivial kernel": ('{"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}, {"sqrt3": "1"}]}', 1),
    "bo": (DEEP_SPECS["bo"], 1),
    "halving": (DEEP_SPECS["halving"], 1),
    "factorial": (SEQUENCE_SPECS["factorial"], 1),
    "product": (DEEP_SPECS["product"], 1),
}


@pytest.mark.parametrize("family", list(GUARD_SPECS))
def test_reduce_flow_runs_at_most_one_hermite_pass(monkeypatch, family):
    """Every family takes one ``hermite_transform`` call, and no spec runs
    ``integer_kernel`` or ``resonance_basis``: the flag is read off the
    image, not from a second pass on the reduced vector."""
    import kronflow.resonance_reduction as rr

    calls = []
    for name in ("hermite_transform", "integer_kernel", "resonance_basis"):
        def counting(*args, _real=getattr(rr, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(rr, name, counting)
    text, hermite = GUARD_SPECS[family]
    fv = parse_frequency_spec(text)
    for depth in (4, 16, 64):
        calls.clear()
        red = reduce_flow(fv, depth)
        assert calls == ["hermite_transform"] * hermite, (depth, calls)
        assert red.nonzero_block_independent


def _patched_hermite(monkeypatch, change):
    """Make ``resonance_reduction.hermite_transform`` return the real
    transform after ``change`` has acted on it."""
    import kronflow.resonance_reduction as rr

    real = rr.hermite_transform
    monkeypatch.setattr(rr, "hermite_transform", lambda rows, n: change(real(rows, n)))


def test_reduce_flow_flags_a_repeated_image_pivot(monkeypatch):
    fv = parse_frequency_spec(RESONANT_FINITE)
    red = reduce_flow(fv, 4)
    assert red.zero_rank == 1 and red.nonzero_block_independent
    # the second image vector replaced by the first: still N - d of them, one pivot twice
    _patched_hermite(monkeypatch, lambda h: h._replace(image=[h.image[0], h.image[0], *h.image[2:]]))
    assert not reduce_flow(fv, 4).nonzero_block_independent


@pytest.mark.parametrize("text, depth", [(RESONANT_FINITE, 4), (DEEP_SPECS["bo"], 16), (DEEP_SPECS["halving"], 16),
                                         (DEEP_SPECS["product"], 16)], ids=["finite", "bo", "halving", "product"])
def test_reduce_flow_rejects_a_corrupted_kernel_row(monkeypatch, text, depth):
    """A kernel row of A with one entry off by one is no relation, and the
    exact re-check that ``resonance`` runs catches it in ``reduce_flow``."""
    fv = parse_frequency_spec(text)
    assert reduce_flow(fv, depth).zero_rank >= 1

    def corrupt(h):
        row = h.transform.rows[0]
        row[min(row)] += 1
        return h

    _patched_hermite(monkeypatch, corrupt)
    with pytest.raises(ValidationError, match="^internal error: kernel vector fails exact resonance check$"):
        reduce_flow(fv, depth)


# -- the exact paths read the integer table, never the coordinate maps

PRODUCT_CHAINS = json.dumps({"kind": "product", "components": [
    {"free": "1"}, {"qa": {"prefix": [1], "tail": {"constant": 2}}},
    {"free": "1/2"}, {"qa": {"prefix": [1, 3], "tail": "increment"}}]})
TABLE_SPECS = {
    "finite, trivial kernel": GUARD_SPECS["finite, trivial kernel"][0],
    "finite": RESONANT_FINITE,
    "halving": DEEP_SPECS["halving"],
    "factorial": SEQUENCE_SPECS["factorial"],
    "product": DEEP_SPECS["product"],
    "product-chains": PRODUCT_CHAINS,
    "bo": DEEP_SPECS["bo"],
    "bo, finite support": '{"kind": "bo", "s": {"prefix": ["1/3", "0", "5/2"]}}',
}


@pytest.mark.parametrize("family", list(TABLE_SPECS))
def test_exact_paths_read_no_coordinate_maps(family):
    """Every exact path answers at depths 1, 2 and 16 on each family from
    ``integer_rows`` (BO's R from its integer tail sums), the one table of
    the frequencies the library holds."""
    from kronflow.benjamin_ono import bo_report
    from kronflow.classification import decompose_module

    fv = parse_frequency_spec(TABLE_SPECS[family])
    for depth in (1, 2, 16):
        assert resonance_basis(fv, depth).truncation_depth == clamp_depth(fv, depth)
        reduce_flow(fv, depth)
        decompose_module(fv, depth)
        integer_rows(fv, clamp_depth(fv, depth))
        if isinstance(fv, BoRule) and depth > 1:  # the tail-module report needs depth >= 2
            bo_report(fv, depth)


@pytest.mark.parametrize("family", ["product", "product-chains", "halving", "bo"])
def test_hermite_re_reduces_the_image_only_after_it_changed(monkeypatch, family):
    """A column that reaches the kernel by exact divisions alone changes no
    image vector, so ``reduce_flow`` calls ``_hermite_reduce`` about once per
    column, not once per image vector and column."""
    calls = []
    real = exact_linalg._hermite_reduce
    monkeypatch.setattr(exact_linalg, "_hermite_reduce", lambda basis, k: calls.append(k) or real(basis, k))
    fv = parse_frequency_spec({**DEEP_SPECS, "product-chains": PRODUCT_CHAINS}[family])
    for depth in (256, 1024):
        calls.clear()
        reduce_flow(fv, depth)
        assert len(calls) <= depth + 8, (depth, len(calls))
