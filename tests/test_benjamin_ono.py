import json
from collections.abc import Iterable
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronflow.benjamin_ono import (
    _baer_of_span,
    _span_data,
    baer_contains,
    bo_report,
    bo_tail_module,
    module_descriptor,
    span_contains,
)
from kronflow.cli import main
from kronflow.classification import (
    INF,
    baer_isomorphic,
    decompose_module,
    is_free,
)
from kronflow.errors import ValidationError
from kronflow.exact_linalg import rational_gcd
from kronflow.frequency import (
    UNIT,
    BoRule,
    Generator,
    RationalSequenceSpec,
    coordinates,
    finite_vector,
    parse_frequency_spec,
)
from oracles import sigma_by_partial_sums

BETA = Generator("beta", "opaque")
DYADIC = BoRule(BETA, RationalSequenceSpec((), F(1, 2), F(1, 2)))
TRIADIC2 = BoRule(BETA, RationalSequenceSpec((), F(2, 3), F(1, 3)))
PREFIX_ONLY = BoRule(BETA, RationalSequenceSpec((F(1, 3),)))
ZERO = BoRule(BETA, RationalSequenceSpec(()))


# -- sigma closed form vs partial-sum oracle


def test_sigma_closed_form_matches_oracle_exactly():
    s = DYADIC.s
    for j in range(1, 13):
        oracle = sigma_by_partial_sums(s.term, j, s.tail_c, s.tail_r, cutoff=60)
        assert s.sigma(j) == oracle
        assert s.sigma(j) == 2 - F(2) ** (1 - j)


def test_sigma_with_prefix_matches_oracle():
    s = RationalSequenceSpec((F(1, 3), F(0), F(5, 7)), F(1, 5), F(2, 5))
    for j in range(1, 10):
        oracle = sigma_by_partial_sums(s.term, j, s.tail_c, s.tail_r, cutoff=80)
        assert s.sigma(j) == oracle


def test_sigma_prefix_only_example():
    # s = (1/3), finite: min(j,1) = 1 for all j, so sigma_j = 1/3
    assert [PREFIX_ONLY.s.sigma(j) for j in (1, 2, 3, 9)] == [F(1, 3)] * 4


# -- truncated frequencies


def test_frequencies_zero_actions():
    fv = finite_vector(coordinates(ZERO, 4))
    assert coordinates(fv, 4) == [
        {UNIT: F(1)},
        {UNIT: F(4)},
        {UNIT: F(9)},
        {UNIT: F(16)},
    ]


def test_frequencies_dyadic():
    fv = finite_vector(coordinates(DYADIC, 5))
    for j, coords in enumerate(coordinates(fv, 5), 1):
        assert coords[UNIT] == j * j
        assert coords[BETA] == -2 * (2 - F(2) ** (1 - j))


def test_frequencies_prefix_only():
    fv = finite_vector(coordinates(PREFIX_ONLY, 3))
    assert coordinates(fv, 3) == [{UNIT: F(j * j), BETA: F(-2, 3)} for j in (1, 2, 3)]


# -- tail sums and telescoping


def test_telescoping_identity():
    rep = bo_tail_module(DYADIC, 42)
    for n in range(1, 41):
        assert rep.tail_sums[n - 1] == rep.sigma_values[n] - rep.sigma_values[n - 1]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=0, max_value=5, max_denominator=12), max_size=5),
    st.fractions(min_value=0, max_value=3, max_denominator=7),
    st.integers(2, 9),
    st.integers(2, 64),
)
def test_tail_module_sigma_table_matches_closed_form(prefix, c, m, depth):
    """The running sigma table against the closed-form sigma_j, which the
    table no longer calls."""
    s = RationalSequenceSpec(tuple(prefix), c, F(1, m))
    rep = bo_tail_module(BoRule(BETA, s), depth)
    assert list(rep.sigma_values) == [s.sigma(j) for j in range(1, depth + 1)]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.fractions(min_value=0, max_value=5, max_denominator=12), max_size=5),
    st.fractions(min_value=0, max_value=3, max_denominator=7),
    st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9),
    st.integers(2, 64),
)
def test_tail_module_json_prints_the_closed_forms(prefix, c, r, depth):
    """``to_json`` writes each sigma and tail sum from the integer table: the
    text of the closed forms ``sigma(j)`` and ``tail_sum(n)``, reduced."""
    s = RationalSequenceSpec(tuple(prefix), c, r)
    doc = bo_tail_module(BoRule(BETA, s), depth).to_json()
    assert doc["sigma"] == [str(s.sigma(j)) for j in range(1, depth + 1)]
    assert doc["tail_sums"] == [str(s.tail_sum(n)) for n in range(1, depth)]


def test_tail_module_json_makes_no_fraction_per_entry(monkeypatch):
    """The printed tables come from the integers: building the report and
    writing it make as many Fractions at depth 128 as at depth 16 (those of R's
    presentation), and only the views ``sigma_values`` and ``tail_sums`` make
    one per entry."""
    rule = BoRule(BETA, RationalSequenceSpec((F(2, 3), F(5, 4)), F(3, 2), F(1, 6)))
    made = []
    original = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    counts = []
    for depth in (16, 128):
        made.clear()
        rep = bo_tail_module(rule, depth)
        doc = rep.to_json()
        counts.append(len(made))
    assert counts[0] == counts[1]
    made.clear()
    assert [str(x) for x in rep.sigma_values + rep.tail_sums] == doc["sigma"] + doc["tail_sums"]
    assert len(made) == 128 + 127


def _over_scale(table: tuple[int, Iterable[int]]) -> list[F]:
    """The values of a ``scaled_*`` table, (D, integers), each over D."""
    scale, values = table
    return [F(v, scale) for v in values]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.fractions(min_value=0, max_value=5, max_denominator=12), max_size=60),
    st.booleans(),
    st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9),
    st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9),
    st.integers(0, 80),
)
def test_running_tables_match_closed_forms(prefix, finite, c, r, n):
    """scaled_tail_sums/scaled_sigmas (one operation per value) over their
    denominator D and the presentation of R built from them, against the
    closed forms tail_sum/sigma per index."""
    s = RationalSequenceSpec(tuple(prefix), F(0) if finite else c, r)
    assert _over_scale(s.scaled_tail_sums(n)) == [s.tail_sum(k) for k in range(n)]
    assert _over_scale(s.scaled_sigmas(n)) == [s.sigma(j) for j in range(1, n + 1)]
    n0 = max(len(prefix), 1)
    if finite:
        expected = (rational_gcd([s.sigma(j) for j in range(1, n0 + 1)]), None, None)
    else:
        gens = [s.sigma(1)] + [s.tail_sum(k) for k in range(1, n0)]
        expected = (rational_gcd(gens), s.tail_sum(n0), r.denominator)
    assert _span_data(s) == expected


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=7, max_denominator=15)), max_size=12),
    st.one_of(st.just(F(0)), st.fractions(min_value=F(1, 15), max_value=7, max_denominator=15)),
    st.integers(2, 15).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q))),
    st.integers(0, 60),
)
def test_integer_tables_match_closed_forms(prefix, c, ratio, n):
    """The tail sums and sigmas, run as integers over one denominator, are
    the closed forms, with zeros in the prefix, on a finite support and for
    ratios p/q with p > 1."""
    s = RationalSequenceSpec(tuple(prefix), c, F(*ratio))
    assert _over_scale(s.scaled_tail_sums(n)) == [s.tail_sum(k) for k in range(n)]
    assert _over_scale(s.scaled_sigmas(n)) == [s.sigma(j) for j in range(1, n + 1)]


def test_long_prefix_reads_no_closed_form_per_index(monkeypatch):
    """A BO report on a long prefix evaluates the closed forms a fixed number
    of times, not once per index (which made the prefix quadratic)."""
    calls = []
    for name in ("tail_sum", "sigma", "weighted_partial"):
        real = getattr(RationalSequenceSpec, name)
        monkeypatch.setattr(
            RationalSequenceSpec, name, lambda self, k, _real=real, _name=name: calls.append(_name) or _real(self, k)
        )
    for tail in ((), (F(1, 2), F(1, 3))):
        s = RationalSequenceSpec(tuple(F(1, k + 1) for k in range(1, 301)), *tail)
        calls.clear()
        out = bo_report(BoRule(BETA, s), 300)
        assert len(out["sigma"]) == 300
        assert len(calls) <= 4, (tail, calls)


def test_tail_sums_positive_decreasing():
    rep = bo_tail_module(DYADIC, 30)
    gs = rep.tail_sums
    assert all(g > 0 for g in gs)
    assert all(a > b for a, b in zip(gs, gs[1:]))
    assert gs[-1] < F(1, 10**7)


def test_triadic_tail_sums():
    # s_k = 2*3^-k: g_n = 3^-n
    rep = bo_tail_module(TRIADIC2, 10)
    for n in range(1, 10):
        assert rep.tail_sums[n - 1] == F(1, 3**n)


# -- the subgroup R


def test_dyadic_tail_module():
    rep = bo_tail_module(DYADIC, 12)
    assert rep.r_type.i == 1
    assert rep.r_type.lam.resolve(2) == INF and rep.r_type.lam.resolve(3) == 0
    assert not is_free(rep.r_type)
    assert rep.full_support


def test_dyadic_containments_both_directions():
    s = DYADIC.s
    f, h, v = _span_data(s)
    rep = bo_tail_module(DYADIC, 12)
    # tail sums and sigma values lie in the emitted subgroup
    for n in range(0, 20):
        assert baer_contains(rep.r_type, s.tail_sum(n))
    for j in range(1, 20):
        assert baer_contains(rep.r_type, s.sigma(j))
    # generators of the emitted subgroup lie in the span presentation
    for k in range(20):
        assert span_contains(f, h, v, F(1, 2**k))
    assert not span_contains(f, h, v, F(1, 3))
    assert not baer_contains(rep.r_type, F(1, 3))


def test_finite_support_gives_free_module():
    rep = bo_tail_module(PREFIX_ONLY, 8)
    assert is_free(rep.r_type)
    assert rep.module.closure() == ["circle", "circle"]


def test_triadic_r_type():
    rep = bo_tail_module(TRIADIC2, 8)
    assert rep.r_type.lam.resolve(3) == INF
    assert rep.r_type.lam.resolve(2) == 0


def test_general_ratio_supported():
    # r = 5/6: denominator not a prime power; span{r^k} still fills Z[1/6]
    spec = BoRule(BETA, RationalSequenceSpec((), F(1), F(5, 6)))
    rep = bo_tail_module(spec, 8)
    assert rep.r_type.lam.resolve(2) == INF and rep.r_type.lam.resolve(3) == INF
    f, h, v = _span_data(spec.s)
    assert span_contains(f, h, v, F(1, 36)) and span_contains(f, h, v, F(1, 48))


# -- closures


def test_dyadic_closure_circle_times_solenoid():
    assert decompose_module(DYADIC, 16).closure() == ["circle", {"solenoid": {"pairs": [{"primes": [2], "exp": "inf"}, {"primes": "all", "exp": 0}]}}]
    unit, beta_part = module_descriptor(DYADIC).components
    assert unit.free and not beta_part.free and beta_part.baer.lam.resolve(2) == INF


def test_zero_actions_closure_single_circle():
    assert decompose_module(ZERO, 16).closure() == ["circle"]


def test_finite_actions_closure_torus():
    assert decompose_module(PREFIX_ONLY, 16).closure() == ["circle", "circle"]


# -- pipeline consistency


def test_module_descriptor_agrees_with_tail_module():
    md = decompose_module(DYADIC, 12)
    rep = bo_tail_module(DYADIC, 12)
    assert md.components[0].generator == UNIT
    assert md.components[0].baer.i == 1 and is_free(md.components[0].baer)
    assert md.components[1].generator == BETA
    assert baer_isomorphic(md.components[1].baer, rep.r_type)


def test_beta_component_is_exactly_twice_r():
    # beta coordinates are -2 sigma_j, so the beta span is 2R = S(2, all-inf at 3)
    md = module_descriptor(TRIADIC2)
    beta_comp = md.components[1].baer
    assert beta_comp.i == 2
    assert beta_comp.lam.resolve(3) == INF
    rep = bo_tail_module(TRIADIC2, 8)
    assert baer_isomorphic(beta_comp, rep.r_type)


def test_report_embeds_classification():
    out = bo_report(DYADIC, 10)
    assert out["closure"] == [
        "circle",
        {"solenoid": {"pairs": [{"primes": [2], "exp": "inf"}, {"primes": "all", "exp": 0}]}},
    ]
    assert out["module"]["rank"] == 2
    assert out["full_support"] is True


def test_bo_and_classify_print_one_closure(tmp_path, capsys):
    # an odd-denominator ratio: R carries Lambda_2 = 2 where the module's beta
    # part 2R carries Lambda_2 = 1; the report, its module and classify all
    # print the module's closure
    spec = tmp_path / "bo.json"
    spec.write_text('{"kind":"bo","s":{"prefix":["1/2"],"tail":{"c":"1/2","r":"1/3"}}}')
    assert main(["bo", str(spec), "--depth", "3"]) == 0
    bo = json.loads(capsys.readouterr().out)
    assert main(["classify", str(spec), "--depth", "3"]) == 0
    classify = json.loads(capsys.readouterr().out)
    assert bo["closure"] == bo["module"]["closure"] == classify["closure"]
    assert decompose_module(parse_frequency_spec(spec.read_text()), 3).closure() == bo["closure"]
    pairs = bo["closure"][1]["solenoid"]["pairs"]
    assert {"primes": [2], "exp": 1} in pairs and {"primes": [3], "exp": "inf"} in pairs
    assert {"primes": [2], "exp": 2} in bo["r_type"]["lambda"]["pairs"]


def test_partial_support_flagged():
    spec = BoRule(BETA, RationalSequenceSpec((F(0), F(1, 2)), F(1, 2), F(1, 2)))
    rep = bo_tail_module(spec, 8)
    assert rep.full_support is False
    # still classifiable: infinite nonnegative support forces a solenoid
    closure = rep.module.closure()
    assert len(closure) == 2 and closure.count("circle") == 1


# -- parsing


def test_parse_bo_spec():
    rule = parse_frequency_spec('{"kind": "bo", "beta": {"name": "b", "kind": "opaque"}, "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}}}')
    assert rule.s.term(1) == F(1, 3) and rule.s.term(2) == F(1, 2)
    with pytest.raises(ValidationError):
        parse_frequency_spec('{"kind": "bo", "beta": "1", "s": {"prefix": []}}')  # rational scale rejected
    with pytest.raises(ValidationError):
        parse_frequency_spec('{"kind": "bo", "s": {"prefix": [], "tail": {"c": "1/2", "r": "3/2"}}}')


def test_random_specs_containments():
    # randomized cross-check of the span presentation vs the emitted (i, Lambda)
    import random

    rng = random.Random(99)
    for _ in range(60):
        L = rng.randint(0, 3)
        prefix = tuple(F(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(L))
        c = F(rng.randint(1, 6), rng.randint(1, 6))
        r = F(rng.randint(1, 7), rng.randint(2, 9))
        if r >= 1:
            r = F(1, 2)
        spec = BoRule(BETA, RationalSequenceSpec(prefix, c, r))
        f, h, v = _span_data(spec.s)
        t = _baer_of_span(f, h, v)
        for j in range(1, 20):
            assert baer_contains(t, spec.s.sigma(j))
        for n in range(0, 20):
            assert baer_contains(t, spec.s.tail_sum(n))
        inf_primes = [p for p in (2, 3, 5, 7, 11, 13) if t.lam.resolve(p) == INF]
        for _ in range(5):
            x = F(t.i * rng.randint(-20, 20))
            for p in inf_primes[:2]:
                x /= F(p) ** rng.randint(0, 5)
            assert span_contains(f, h, v, x)


def test_baer_contains_large_numerators_fast():
    # membership must not factorize the numerator (sigma numerators get huge)
    import time

    spec = BoRule(BETA, RationalSequenceSpec((), F(5, 7), F(6, 7)))
    rep = bo_tail_module(spec, 40)
    start = time.perf_counter()
    for j in range(30, 41):
        assert baer_contains(rep.r_type, spec.s.sigma(j))
    assert time.perf_counter() - start < 1.0
