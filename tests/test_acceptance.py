"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the oracles (Euclid, exhaustive
enumeration, partial sums) are independent of the code paths they check.
"""

import math
import random
import time
from fractions import Fraction as F

from kronflow.benjamin_ono import bo_tail_module
from kronflow.classification import (
    INF,
    SupernaturalNumber,
    BaerType,
    baer_isomorphic,
    baer_to_qa,
    decompose_module,
    qa_to_baer,
)
from kronflow.dynamics import TrigPolynomial, equidistribution_report, flow, time_average
from kronflow.exact_linalg import IntVecFin
from kronflow.frequency import (
    UNIT,
    BoRule,
    Generator,
    RationalSequenceSpec,
    SigmaSequence,
    SolenoidRule,
    SubgroupOfQSpec,
    build_product_vector,
    parse_frequency_spec,
    rational_vector,
)
from kronflow.resonance_reduction import apply_automorphism, reduce_flow, reduce_vector, resonance_basis
from kronflow.solenoid_geometry import (
    GeometricWeights,
    SolenoidCoords,
    TorusPoint,
    approximating_times,
    from_coordinates,
    is_member,
    product_metric,
    to_coordinates,
)
from oracles import (
    brute_force_kernel,
    dot_fractions,
    euclid_gcd,
    sigma_by_partial_sums,
    span_contains_all,
    verify_inverse,
)


def report(n, name, detail):
    print(f"ACCEPTANCE {n} ({name}): PASS [{detail}]")


def test_criterion_1_reduction_certificates():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(500):
        n = rng.randint(1, 8)
        vals = [rng.randint(-50, 50) for _ in range(n)]
        if not any(vals):
            vals[rng.randrange(n)] = rng.randint(1, 50)
        nu = IntVecFin.from_list(vals)
        cert = reduce_vector(nu)
        assert cert.transform.apply(nu) == IntVecFin({1: cert.gcd})
        assert cert.result.support() == (1,)
        assert cert.gcd == euclid_gcd(vals) > 0
        assert verify_inverse(cert.transform)
        sums = cert.pass_sums
        assert all(s > 0 for s in sums)
        assert all(a > b for a, b in zip(sums, sums[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, "vector reduction certificates", f"500 vectors, {elapsed:.2f}s < 5s")


def test_criterion_2_resonance_kernels():
    rng = random.Random(202)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = rng.choice([2, 3, 4, 5])
        vals = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        fv = rational_vector(vals)
        basis = resonance_basis(fv, n)
        for b in basis.vectors:  # inclusion 1: basis inside the exact kernel
            assert dot_fractions(b, vals) == 0
        brute = brute_force_kernel([vals], 10)
        checked += len(brute)
        # inclusion 2: every enumerated solution is an integer combination
        assert span_contains_all([b.to_list(n) for b in basis.vectors], brute)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, "resonance kernels vs enumeration", f"200 vectors, {checked} solutions, {elapsed:.1f}s < 30s")


def test_criterion_3_solenoid_geometry():
    sequences = [
        SigmaSequence((1, 2), "constant", (2,)),
        SigmaSequence((1,), "increment"),
        SigmaSequence((1, 3, 5), "constant", (5,)),
    ]
    rng = random.Random(303)
    depth = 8
    weights = GeometricWeights(F(1, 2))
    roundtrips = members = approx = 0
    origin = TorusPoint.origin(depth)
    for a in sequences:
        rule = SolenoidRule(UNIT, a)
        for _ in range(1000):
            tau = F(rng.randint(0, 119), 120)
            digits = tuple(rng.randrange(a.term(j)) for j in range(2, depth + 1))
            coords = SolenoidCoords(tau, digits)
            pt = from_coordinates(a, coords)
            assert to_coordinates(a, pt) == coords
            roundtrips += 1
        for _ in range(334):
            t = F(rng.randint(-10**6, 10**6), rng.randint(1, 999))
            assert is_member(a, flow(rule, origin, t))
            members += 1
        for _ in range(50):
            tau = F(rng.randint(0, 119), 120)
            digits = tuple(rng.randrange(a.term(j)) for j in range(2, depth + 1))
            coords = SolenoidCoords(tau, digits)
            target = from_coordinates(a, coords)
            for k, t in enumerate(approximating_times(a, coords), start=1):
                moved = flow(rule, origin, t)
                assert moved.angles[:k] == target.angles[:k]
                residual, _tail = product_metric(weights, moved, target)
                assert residual <= F(1, 2**k)  # sum_{j>k} 2^-j
                approx += 1
    report(
        3,
        "solenoid coordinate bijection / confinement / approximation",
        f"{roundtrips} roundtrips, {members} member checks, {approx} time checks",
    )


def test_criterion_4_equidistribution():
    fv = parse_frequency_spec(
        '{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"},{"sqrt3":"1"}]}'
    )
    nus = [
        IntVecFin.from_list([1, -1, 0]),
        IntVecFin.from_list([2, 0, -1]),
        IntVecFin.from_list([1, 1, 1]),
    ]
    t_grid = [1e2, 1e3, 1e4]
    rows = equidistribution_report(fv, nus, t_grid, TorusPoint.origin(3))
    assert len(rows) == 9
    for row in rows:
        assert row["flag"] is None
        assert row["magnitude"] <= row["bound"] + 1e-12
        if row["T"] == 1e4:
            assert abs(row["magnitude"] - 0.0) < 1e-3  # Haar value of the monomial is 0
    # resonant control: omega = (1,1), average of cos(Theta_1 - Theta_2) == 1 exactly
    res = rational_vector(["1", "1"])
    cos12 = TrigPolynomial.cosine(IntVecFin({1: 1, 2: -1}))
    for value, _ in time_average(res, cos12, TorusPoint.origin(2), t_grid):
        assert value == 1.0
    report(4, "equidistribution decay bounds", "9 rows <= 2/(T|w.nu|)+1e-12; resonant control exact")


def _random_supported_type(rng) -> BaerType:
    shape = rng.choice(["zero_profile", "all_infinite", "odd_class"])
    if shape == "all_infinite":
        return BaerType(1, SupernaturalNumber.all_infinite())
    primes = [2, 3, 5, 7, 11, 13]
    rng.shuffle(primes)
    exps = {}
    if shape == "zero_profile":
        n_inf = rng.randint(1, 3)
        for p in primes[:n_inf]:
            exps[p] = INF
        for p in primes[n_inf : n_inf + rng.randint(0, 2)]:
            exps[p] = rng.randint(1, 5)
        return BaerType(1, SupernaturalNumber.from_exponents(exps))
    pairs = []
    for p in primes[: rng.randint(0, 2)]:
        pairs.append((("finite", frozenset({p})), rng.randint(0, 4)))
    pairs.append((("odd_indexed",), 1))
    pairs.append((("all",), 0))
    return BaerType(1, SupernaturalNumber(tuple(pairs)))


def test_criterion_5_baer_classification():
    rng = random.Random(505)
    for _ in range(50):
        t = _random_supported_type(rng)
        a = baer_to_qa(t)
        assert baer_isomorphic(qa_to_baer(a), t)
    # the two classical examples: 1/j! vs p_2j/p_{2j-1} have modules Q(a) and
    # Q(a') with a = (1,2,3,4,...) and a' = (1,p1,p3,p5,...): not isomorphic
    factorial_md = decompose_module(SolenoidRule(UNIT, SigmaSequence((1,), "increment")), 16)
    odd_prime_md = decompose_module(SolenoidRule(UNIT, SigmaSequence((1,), "odd_indexed_primes")), 16)
    t_fact = factorial_md.components[0].baer
    t_odd = odd_prime_md.components[0].baer
    assert all(t_fact.lam.resolve(p) == INF for p in (2, 3, 5, 7))
    assert [t_odd.lam.resolve(p) for p in (2, 3, 5, 7, 11)] == [1, 0, 1, 0, 1]
    assert not baer_isomorphic(t_fact, t_odd)
    assert not factorial_md.closure_homeomorphic(odd_prime_md)
    # omega_j = 1/j has module Q: at finite depth the span is (1/lcm)Z, and the
    # full rule-level module Q((1,2,3,...)) = {m/N!} carries Lambda = infinity
    # everywhere, the type of (Q, +)
    harmonic10 = rational_vector([F(1, j) for j in range(1, 11)])
    md = decompose_module(harmonic10, 10)
    assert md.rank == 1
    comp = md.components[0].baer
    assert comp.i == 1
    for p, e in {2: 3, 3: 2, 5: 1, 7: 1}.items():  # lcm(1..10) = 2520 = 2^3 3^2 5 7
        assert comp.lam.resolve(p) == e
    assert math.lcm(*range(1, 11)) == 2520
    assert all(t_fact.lam.resolve(p) == INF for p in (2, 3, 5, 7, 11, 13))
    # every small rational m/q lies in {m'/N!}: q divides q!
    for _ in range(50):
        q = rng.randint(1, 40)
        m = rng.randint(-40, 40)
        assert (F(m, q) * math.factorial(q)).denominator == 1
    report(5, "rank-1 classification", "50 roundtrips; classical pair split; harmonic module = Q")


def test_criterion_6_product_construction_pipeline():
    groups = [SubgroupOfQSpec(free_generator=F(1)), SubgroupOfQSpec(qa=SigmaSequence((1,), "constant", (2,)))]
    fv = build_product_vector(groups)
    closure = decompose_module(fv, 16).closure()
    assert len(closure) == 2 and closure.count("circle") == 1
    assert [f for f in closure if f != "circle"] == [{"solenoid": {"pairs": [{"primes": [2], "exp": "inf"}, {"primes": "all", "exp": 0}]}}]
    (sol,) = decompose_module(fv, 16).nonfree_components()
    assert sol.baer.lam.resolve(2) == INF and sol.baer.lam.resolve(3) == 0
    rng = random.Random(606)
    for _ in range(20):
        n = rng.randint(1, 4)
        specs = []
        for _ in range(n):
            if rng.random() < 0.4:
                specs.append(SubgroupOfQSpec(free_generator=F(rng.randint(1, 9), rng.randint(1, 9))))
            else:
                kind = rng.choice(["constant", "periodic", "increment", "odd_indexed_primes"])
                prefix = (1,) + tuple(rng.randint(2, 7) for _ in range(rng.randint(0, 2)))
                if kind == "constant":
                    specs.append(SubgroupOfQSpec(qa=SigmaSequence(prefix, kind, (rng.randint(2, 7),))))
                elif kind == "periodic":
                    cycle = tuple(rng.randint(2, 7) for _ in range(rng.randint(1, 3)))
                    specs.append(SubgroupOfQSpec(qa=SigmaSequence(prefix, kind, cycle)))
                else:
                    specs.append(SubgroupOfQSpec(qa=SigmaSequence(prefix, kind)))
        md = decompose_module(build_product_vector(specs), 16)
        assert md.rank == n
        assert md.free_rank == sum(1 for s in specs if s.is_free)
        remaining = [c.baer for c in md.components if not c.free]
        for s in specs:
            if s.is_free:
                continue
            want = qa_to_baer(s.qa)
            k = next((i for i, u in enumerate(remaining) if baer_isomorphic(want, u)), None)
            assert k is not None
            remaining.pop(k)
        assert not remaining
    report(6, "product construction pipeline", "circle x solenoid(2) exact; 20 random lists recovered")


def test_criterion_7_integrable_flow():
    beta = Generator("beta", "opaque")
    dyadic = BoRule(beta, RationalSequenceSpec((), F(1, 2), F(1, 2)))
    rep = bo_tail_module(dyadic, 41)
    assert rep.module.closure() == ["circle", {"solenoid": {"pairs": [{"primes": [2], "exp": "inf"}, {"primes": "all", "exp": 0}]}}]
    unit, beta_part = decompose_module(dyadic, 41).components
    assert unit.free and not beta_part.free
    assert beta_part.baer.lam.resolve(2) == INF and beta_part.baer.lam.resolve(3) == 0
    for n in range(1, 41):  # telescoping identity, exact
        assert rep.tail_sums[n - 1] == rep.sigma_values[n] - rep.sigma_values[n - 1]
    for j in range(1, 42):  # closed form vs 60-term partial-sum oracle, exact
        oracle = sigma_by_partial_sums(dyadic.s.term, j, F(1, 2), F(1, 2), cutoff=60)
        assert rep.sigma_values[j - 1] == oracle
    zero = BoRule(beta, RationalSequenceSpec(()))
    md = decompose_module(parse_frequency_spec({"kind": "bo", "beta": {"name": "beta", "kind": "opaque"}, "s": {"prefix": []}}), 8)
    assert md.rank == 1 and md.components[0].baer.i == 1 and md.is_free
    assert decompose_module(zero, 8).closure() == ["circle"]
    report(7, "integrable-flow pipeline", "dyadic -> circle x solenoid(2); telescoping n<=40 exact; zero-action control")


def test_criterion_8_conjugacy_semantics():
    fv = rational_vector(["1", "1/2", "1/3"])
    red = reduce_flow(fv, 3)
    assert red.zero_rank == 2
    rng = random.Random(808)
    for _ in range(100):
        t = F(rng.randint(-10**4, 10**4), rng.randint(1, 500))
        theta = TorusPoint.exact_point([F(rng.randint(0, 839), 840) for _ in range(3)])
        left = apply_automorphism(red.transform, flow(fv, theta, t))
        right = flow(red.reduced, apply_automorphism(red.transform, theta), t)
        assert left == right
    report(8, "conjugacy semantics", "zero block rank 2; 100 exact commutation checks")
