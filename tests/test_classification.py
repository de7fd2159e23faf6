import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kronflow.classification import (
    INF,
    BaerType,
    SupernaturalNumber,
    baer_isomorphic,
    baer_to_qa,
    classification_report,
    decompose_module,
    free_baer_type,
    is_free,
    qa_to_baer,
)
from kronflow.errors import UnsupportedStructureError, ValidationError
from kronflow.frequency import (
    UNIT,
    SigmaSequence,
    SolenoidRule,
    SubgroupOfQSpec,
    build_product_vector,
    parse_frequency_spec,
    rational_vector,
)
from kronflow.resonance_reduction import reduce_flow, resonance_basis
from oracles import (
    express_in_span,
    rational_rank,
    state_machine_resolve,
    state_machine_supernatural,
    supernatural_json,
)

INCREMENT = SigmaSequence((1,), "increment")
CONST2 = SigmaSequence((1,), "constant", (2,))
ODD_PRIMES = SigmaSequence((1,), "odd_indexed_primes")


def sn(**exps):
    """Finite-exception supernatural number from {prime: exponent} kwargs."""
    return SupernaturalNumber.from_exponents({int(k[1:]): v for k, v in exps.items()})


# -- qa_to_baer examples


def test_qa_increment_all_infinite():
    # oracle: the exponent of p in 1*2*...*N grows without bound
    for p in (2, 3, 5):
        acc, n = 0, 0
        exps = []
        for k in range(1, 200):
            q = k
            while q % p == 0:
                acc += 1
                q //= p
            exps.append(acc)
        assert exps[-1] > exps[len(exps) // 2] > exps[len(exps) // 4]
    t = qa_to_baer(INCREMENT)
    assert all(t.lam.resolve(p) == INF for p in (2, 3, 5, 7, 11, 13))
    assert not is_free(t)


def test_qa_constant2():
    t = qa_to_baer(CONST2)
    assert t.lam.resolve(2) == INF
    assert t.lam.resolve(3) == 0 and t.lam.resolve(7) == 0
    assert t.i == 1


def test_qa_odd_indexed_primes():
    t = qa_to_baer(ODD_PRIMES)
    # p1=2, p3=5, p5=11 carry exponent 1; p2=3, p4=7 carry 0
    assert [t.lam.resolve(p) for p in (2, 3, 5, 7, 11)] == [1, 0, 1, 0, 1]


def test_qa_prefix_contributions():
    a = SigmaSequence((1, 6, 2), "constant", (5,))
    t = qa_to_baer(a)
    assert t.lam.resolve(2) == 2  # from 6 and 2
    assert t.lam.resolve(3) == 1
    assert t.lam.resolve(5) == INF


# -- baer_to_qa examples


def test_baer_to_qa_dyadic():
    t = BaerType(1, sn(p2=INF))
    a = baer_to_qa(t)
    assert a.prefix == (1,) and a.tail_kind == "constant" and a.tail_params == (2,)


def test_baer_to_qa_all_infinite():
    a = baer_to_qa(BaerType(1, SupernaturalNumber.all_infinite()))
    assert a.tail_kind == "increment"
    assert baer_isomorphic(qa_to_baer(a), BaerType(1, SupernaturalNumber.all_infinite()))


def test_baer_to_qa_finite_product_rejected():
    # Lambda = 1 on {2, 5}: the product is 10, the group is cyclic
    t = BaerType(1, sn(p2=1, p5=1))
    assert is_free(t)
    with pytest.raises(ValidationError):
        baer_to_qa(t)


def test_baer_to_qa_mixed_finite_and_infinite():
    t = BaerType(1, sn(p2=INF, p3=5))
    a = baer_to_qa(t)
    assert a.prefix == (1, 3, 3, 3, 3, 3)
    assert a.tail_params == (2,)
    assert qa_to_baer(a).lam.profile() == t.lam.profile()


def test_baer_to_qa_unsupported_profiles():
    with pytest.raises(UnsupportedStructureError):
        baer_to_qa(BaerType(1, SupernaturalNumber((((("even_indexed",), 1)), (("all",), 0)))))
    # finite exception over the all-infinite profile
    pairs = ((("finite", frozenset({2})), 3), (("all",), INF))
    with pytest.raises(UnsupportedStructureError):
        baer_to_qa(BaerType(1, SupernaturalNumber(pairs)))


# -- is_free examples


def test_is_free_examples():
    assert is_free(BaerType(1, sn(p2=3)))  # (1/8)Z
    assert not is_free(BaerType(1, sn(p2=INF)))
    assert not is_free(qa_to_baer(ODD_PRIMES))


def test_nonfree_has_null_sequence():
    # dyadics: 2^-n in the subgroup, nonzero, tending to 0
    from kronflow.benjamin_ono import baer_contains

    t = BaerType(1, sn(p2=INF))
    seq = [F(1, 2**n) for n in range(1, 30)]
    assert all(baer_contains(t, x) for x in seq)
    assert all(x != 0 for x in seq) and seq[-1] < F(1, 10**6)


# -- baer_isomorphic examples


def test_iso_equal_all_infinite():
    t1 = BaerType(1, SupernaturalNumber.all_infinite())
    pairs = ((("finite", frozenset({2})), INF), (("all",), INF))
    t2 = BaerType(1, SupernaturalNumber(pairs))
    assert baer_isomorphic(t1, t2)


def test_iso_infinite_vs_odd_class():
    assert not baer_isomorphic(qa_to_baer(INCREMENT), qa_to_baer(ODD_PRIMES))


def test_iso_single_finite_disagreement():
    t1 = BaerType(1, sn(p2=INF, p3=5))
    t2 = BaerType(1, sn(p2=INF, p3=7))
    assert baer_isomorphic(t1, t2)
    t3 = BaerType(1, sn(p2=INF, p3=INF))
    assert not baer_isomorphic(t1, t3)


def test_iso_is_equivalence_relation():
    reps = [
        BaerType(1, SupernaturalNumber.all_infinite()),
        qa_to_baer(ODD_PRIMES),
        BaerType(1, sn(p2=INF)),
        BaerType(1, sn(p2=INF, p3=4)),
        BaerType(3, sn(p2=INF)),
        free_baer_type(F(1, 6)),
    ]
    for t in reps:
        assert baer_isomorphic(t, t)
    for t1, t2 in itertools.permutations(reps, 2):
        assert baer_isomorphic(t1, t2) == baer_isomorphic(t2, t1)
    for t1, t2, t3 in itertools.permutations(reps, 3):
        if baer_isomorphic(t1, t2) and baer_isomorphic(t2, t3):
            assert baer_isomorphic(t1, t3)


# -- supernatural number mechanics


def test_supernatural_precedence_and_canonical_form():
    pairs = (
        (("finite", frozenset({2})), 7),
        (("odd_indexed",), 1),
        (("finite", frozenset({2})), 3),  # shadowed
        (("all",), 0),
    )
    lam = SupernaturalNumber(pairs)
    assert lam.resolve(2) == 7
    assert lam.resolve(5) == 1
    assert lam.resolve(3) == 0
    assert len(lam.pairs) == 3  # the shadowed pair is dropped


def test_supernatural_requires_total_assignment():
    with pytest.raises(ValidationError):
        SupernaturalNumber(((("finite", frozenset({2})), 1),))
    with pytest.raises(ValidationError):
        SupernaturalNumber(((("odd_indexed",), 1),))


def test_supernatural_cofinite():
    pairs = ((("cofinite", frozenset({2, 3})), 4), (("all",), 0))
    lam = SupernaturalNumber(pairs)
    assert lam.resolve(2) == 0 and lam.resolve(3) == 0 and lam.resolve(5) == 4
    odd_a, even_a, exc = lam.profile()
    assert odd_a == 4 and even_a == 4 and exc == {2: 0, 3: 0}


# -- decompose_module examples


def test_decompose_harmonic_prefix():
    # Z-span of {1, 1/2, 1/3} is (1/6)Z; oracle: express 1/6 with small coefficients
    combo = express_in_span(F(1, 6), [F(1), F(1, 2), F(1, 3)], 3)
    assert combo is not None
    for g in (F(1), F(1, 2), F(1, 3)):
        assert (g / F(1, 6)).denominator == 1
    md = decompose_module(rational_vector(["1", "1/2", "1/3"]), 3)
    assert md.rank == 1 and md.is_free
    comp = md.components[0]
    assert comp.baer.i == 1
    assert comp.baer.lam.resolve(2) == 1 and comp.baer.lam.resolve(3) == 1


def test_decompose_solenoid_rule():
    a = SigmaSequence((1, 2), "constant", (2,))
    md = decompose_module(SolenoidRule(UNIT, a), 8)
    assert md.rank == 1 and not md.is_free
    assert md.components[0].baer.lam.resolve(2) == INF


def test_decompose_pi_powers():
    fv = parse_frequency_spec(
        '{"kind":"finite","terms":[{"pi":"1"},{"pi^2":"1"},{"pi^3":"1"}]}'
    )
    md = decompose_module(fv, 3)
    assert md.rank == 3 and md.is_free


def test_module_rank_examples():
    assert decompose_module(rational_vector(["1", "1/2", "1/3"]), 3).rank == 1
    two = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"}]}')
    assert decompose_module(two, 2).rank == 2
    assert decompose_module(SolenoidRule(UNIT, CONST2), 6).rank == 1


@st.composite
def mixed_term_specs(draw):
    """Finite specs whose terms may mix several generators, with the depth."""
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        gens = draw(st.lists(st.sampled_from(["1", "sqrt2", "sqrt3", "pi"]), min_size=1, max_size=3, unique=True))
        terms.append({g: str(draw(coeffs)) for g in gens})
    return {"kind": "finite", "terms": terms}, draw(st.integers(1, 7))


@settings(max_examples=100, deadline=None)
@given(mixed_term_specs())
def test_finite_rank_is_the_coordinate_rank(case):
    # the declared generators are rationally independent, so the Z-span of
    # omega_1..omega_N has the rank of the coordinate matrix
    spec, depth = case
    terms = spec["terms"][:depth]
    rank = rational_rank([[F(t.get(g, "0")) for t in terms] for g in ("1", "sqrt2", "sqrt3", "pi")])
    report = classification_report(parse_frequency_spec(json.dumps(spec)), depth)
    assert report["rank"] == rank
    assert report["closure"] == ["circle"] * rank


def test_mixed_term_rank_examples():
    one = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1","sqrt2":"1"}]}')
    (comp,) = decompose_module(one, 16).components
    assert comp.generator.name == "1" and comp.baer.i == 1 and comp.free
    doubled = parse_frequency_spec('{"kind":"finite","terms":[{"1":"1","sqrt2":"1"},{"1":"2","sqrt2":"2"}]}')
    assert decompose_module(doubled, 2).rank == 1


# -- orbit closure examples


def test_closure_full_torus():
    fv = parse_frequency_spec(
        '{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"},{"sqrt3":"1"}]}'
    )
    assert decompose_module(fv, 3).closure() == ["circle", "circle", "circle"]


def test_closure_factorial_solenoid():
    fv = SolenoidRule(UNIT, INCREMENT)
    assert decompose_module(fv, 8).closure() == [{"solenoid": {"pairs": [{"primes": "all", "exp": "inf"}]}}]
    (c,) = decompose_module(fv, 8).components
    assert not c.free and c.baer.lam.resolve(97) == INF


# -- closure homeomorphism examples


def test_homeo_factorial_vs_odd_primes():
    factorial = decompose_module(SolenoidRule(UNIT, INCREMENT), 8)
    assert not factorial.closure_homeomorphic(decompose_module(SolenoidRule(UNIT, ODD_PRIMES), 8))


def test_homeo_free_rank_one():
    md = decompose_module(rational_vector(["1", "1/2"]), 2)
    assert md.closure_homeomorphic(decompose_module(rational_vector(["1/3"]), 2))


def test_homeo_reflexive_and_symmetric():
    md = decompose_module(SolenoidRule(UNIT, CONST2), 6)
    assert md.closure_homeomorphic(md)
    md2 = decompose_module(SolenoidRule(UNIT, SigmaSequence((1, 4), "constant", (2,))), 6)
    assert md.closure_homeomorphic(md2) == md2.closure_homeomorphic(md)


# -- product construction pipeline


def test_build_single_free_group():
    fv = build_product_vector([SubgroupOfQSpec(free_generator=F(1))])
    assert decompose_module(fv, 8).closure() == ["circle"]


def test_build_dyadic_roundtrip():
    fv = build_product_vector([SubgroupOfQSpec(qa=CONST2)])
    md = decompose_module(fv, 16)
    assert md.rank == 1 and md.components[0].baer.lam.resolve(2) == INF


def test_build_circle_times_solenoid():
    fv = build_product_vector(
        [SubgroupOfQSpec(free_generator=F(1)), SubgroupOfQSpec(qa=CONST2)]
    )
    closure = decompose_module(fv, 16).closure()
    assert closure.count("circle") == 1 and len(closure) == 2
    assert [f for f in closure if f != "circle"] == [{"solenoid": {"pairs": [{"primes": [2], "exp": "inf"}, {"primes": "all", "exp": 0}]}}]
    (sol,) = decompose_module(fv, 16).nonfree_components()
    assert sol.baer.lam.resolve(2) == INF and sol.baer.lam.resolve(3) == 0


def test_build_empty_rejected():
    with pytest.raises(ValidationError):
        build_product_vector([])


def random_group_spec(rng):
    if rng.random() < 0.4:
        return SubgroupOfQSpec(
            free_generator=F(rng.randint(1, 9), rng.randint(1, 9))
        )
    kind = rng.choice(["constant", "periodic", "increment", "odd_indexed_primes"])
    prefix = (1,) + tuple(rng.randint(2, 7) for _ in range(rng.randint(0, 2)))
    if kind == "constant":
        return SubgroupOfQSpec(qa=SigmaSequence(prefix, "constant", (rng.randint(2, 7),)))
    if kind == "periodic":
        cycle = tuple(rng.randint(2, 7) for _ in range(rng.randint(1, 3)))
        return SubgroupOfQSpec(qa=SigmaSequence(prefix, "periodic", cycle))
    return SubgroupOfQSpec(qa=SigmaSequence(prefix, kind))


def test_roundtrip_random_group_lists():
    rng = random.Random(20240817)
    for _ in range(20):
        groups = [random_group_spec(rng) for _ in range(rng.randint(1, 4))]
        fv = build_product_vector(groups)
        md = decompose_module(fv, 16)
        assert md.rank == len(groups)
        want_free = [g for g in groups if g.is_free]
        got_free = [c for c in md.components if c.free]
        assert len(want_free) == len(got_free)
        want_nonfree = [qa_to_baer(g.qa) for g in groups if not g.is_free]
        got_nonfree = [c.baer for c in md.components if not c.free]
        for t in want_nonfree:
            k = next(
                (i for i, u in enumerate(got_nonfree) if baer_isomorphic(t, u)), None
            )
            assert k is not None
            got_nonfree.pop(k)
        assert not got_nonfree


def test_classification_report_shape():
    rep = classification_report(SolenoidRule(UNIT, CONST2), 8)
    assert set(rep) == {"depth", "module", "rank", "free", "closure"}
    assert rep["rank"] == 1 and rep["free"] is False
    assert rep["closure"][0]["solenoid"]["pairs"][0] == {"primes": [2], "exp": "inf"}


def test_each_report_decomposes_once(monkeypatch, tmp_path, capsys):
    import kronflow.benjamin_ono as bo
    import kronflow.classification as cl
    from kronflow.cli import main

    calls = []
    for mod, name in ((cl, "decompose_module"), (bo, "_span_data")):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "solenoid", "a": {"prefix": [1], "tail": "increment"}}))
    bo_spec = tmp_path / "bo.json"
    bo_spec.write_text(json.dumps({"kind": "bo", "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}}}))
    # upper bounds: kron bo presents R once, for the tail report and the
    # module section both
    at_most = {
        "classify": {"decompose_module": 1},
        "iso": {"decompose_module": 2},
        "bo": {"decompose_module": 1, "_span_data": 1},
    }
    for argv in (["classify", str(spec)], ["iso", str(spec), str(spec)], ["bo", str(bo_spec)]):
        calls.clear()
        assert main(argv) == 0
        capsys.readouterr()
        for name in ("decompose_module", "_span_data"):
            assert calls.count(name) <= at_most[argv[0]].get(name, 0), argv


def test_cross_variant_homeomorphism():
    # dyadic quadratic spectrum (Z + beta-span) vs product [Z, Z[1/2]]:
    # same invariants, so the closures match across construction routes
    from kronflow.frequency import BoRule, Generator, RationalSequenceSpec

    dyadic = BoRule(Generator("beta", "opaque"), RationalSequenceSpec((), F(1, 2), F(1, 2)))
    product = build_product_vector(
        [SubgroupOfQSpec(free_generator=F(1)), SubgroupOfQSpec(qa=CONST2)]
    )
    product_md = decompose_module(product, 16)
    assert decompose_module(dyadic, 16).closure_homeomorphic(product_md)
    triadic = BoRule(Generator("beta", "opaque"), RationalSequenceSpec((), F(2, 3), F(1, 3)))
    assert not decompose_module(triadic, 16).closure_homeomorphic(product_md)


def test_supernatural_cofinite_shadowing():
    # a cofinite pair can be shadowed by class pairs plus explicit primes
    pairs = (
        (("odd_indexed",), 2),
        (("even_indexed",), 3),
        (("cofinite", frozenset({2, 3})), 9),  # fully shadowed
        (("all",), 0),  # fully shadowed as well
    )
    lam = SupernaturalNumber(pairs)
    assert len(lam.pairs) == 2
    assert lam.resolve(2) == 2 and lam.resolve(3) == 3 and lam.resolve(5) == 2


def test_supernatural_cofinite_exclusion_falls_through():
    pairs = (
        (("cofinite", frozenset({5})), 1),
        (("finite", frozenset({5})), 8),
        (("all",), 0),
    )
    lam = SupernaturalNumber(pairs)
    assert lam.resolve(5) == 8 and lam.resolve(7) == 1
    odd_a, even_a, exc = lam.profile()
    assert (odd_a, even_a) == (1, 1) and exc == {5: 8}


def test_iso_with_cofinite_profiles():
    t1 = BaerType(1, SupernaturalNumber(((("cofinite", frozenset({2})), 3), (("all",), 0))))
    t2 = BaerType(1, SupernaturalNumber(((("cofinite", frozenset({7})), 3), (("all",), 0))))
    # disagree only at 2 and 7, both finite values on both sides
    assert baer_isomorphic(t1, t2)
    t3 = BaerType(1, SupernaturalNumber(((("finite", frozenset({2})), INF), (("cofinite", frozenset({2})), 3))))
    assert not baer_isomorphic(t1, t3)


def _reference_resolve(pairs, p):
    from kronflow.primes import is_odd_indexed_prime

    for pset, exp in pairs:
        kind = pset[0]
        if kind == "finite" and p in pset[1]:
            return exp
        if kind == "all":
            return exp
        if kind == "odd_indexed" and is_odd_indexed_prime(p):
            return exp
        if kind == "even_indexed" and not is_odd_indexed_prime(p):
            return exp
        if kind == "cofinite" and p not in pset[1]:
            return exp
    return None


def test_canonicalization_preserves_assignment():
    # dropping shadowed pairs must never change any resolved exponent
    rng = random.Random(424242)
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19]
    horizon = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
    for _ in range(300):
        pairs = []
        for _ in range(rng.randint(0, 5)):
            kind = rng.choice(["finite", "all", "odd_indexed", "even_indexed", "cofinite"])
            exp = rng.choice([0, 1, 2, 3, INF])
            if kind in ("finite", "cofinite"):
                members = frozenset(rng.sample(small_primes, rng.randint(1, 3)))
                pairs.append(((kind, members), exp))
            else:
                pairs.append(((kind,), exp))
        pairs.append((("all",), rng.choice([0, 1, INF])))
        lam = SupernaturalNumber(tuple(pairs))
        for p in horizon:
            assert lam.resolve(p) == _reference_resolve(pairs, p), (pairs, p)


PAIR_PRIMES = st.frozensets(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]), max_size=4)
PAIRS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.sampled_from(["finite", "cofinite"]), PAIR_PRIMES),
            st.tuples(st.sampled_from(["all", "odd_indexed", "even_indexed"])),
        ),
        st.sampled_from([0, 1, 2, 3, INF]),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=400, deadline=None)
@given(PAIRS)
def test_coverage_rule_matches_state_machine_oracle(pairs):
    try:
        canonical, profile = state_machine_supernatural(pairs)
    except ValidationError as exc:
        with pytest.raises(type(exc)) as raised:
            SupernaturalNumber(tuple(pairs))
        assert str(raised.value) == str(exc)
        return
    lam = SupernaturalNumber(tuple(pairs))
    assert lam.pairs == canonical
    assert lam.to_json() == supernatural_json(canonical)
    assert lam.profile() == profile
    odd_a, even_a, exceptions = profile
    assert is_free(BaerType(1, lam)) == (odd_a == even_a == 0 and INF not in exceptions.values())
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
        assert lam.resolve(p) == state_machine_resolve(canonical, p), p


def test_unresolved_prime_error_names_the_smallest():
    pairs = ((("cofinite", frozenset({13, 2, 7})), 1),)
    with pytest.raises(ValidationError, match="^prime 2 resolves to no exponent$"):
        SupernaturalNumber(pairs)


def test_named_non_prime_is_rejected_even_when_shadowed():
    with pytest.raises(ValidationError, match="^4 is not prime$"):
        SupernaturalNumber(((("all",), 0), (("cofinite", frozenset({9, 4})), 1)))


def test_profile_is_computed_once():
    lam = SupernaturalNumber(((("finite", frozenset({3})), INF), (("odd_indexed",), 1), (("all",), 0)))
    assert lam.profile() is lam.profile()
    assert lam.profile() == (1, 0, {3: INF})
    # the stored profile stays out of equality, hashing and repr
    same = SupernaturalNumber(lam.pairs)
    assert same == lam and hash(same) == hash(lam) and "_profile" not in repr(lam)


@pytest.mark.parametrize(
    "spec",
    [
        '{"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}]}',
        '{"kind": "solenoid", "generator": "1", "a": {"prefix": [1, 2], "tail": {"constant": 2}}}',
    ],
)
def test_library_entry_points_reject_depth_zero(spec):
    fv = parse_frequency_spec(spec)
    for entry in (resonance_basis, reduce_flow, decompose_module, classification_report):
        with pytest.raises(ValidationError, match="^depth must be >= 1, got 0$"):
            entry(fv, 0)
