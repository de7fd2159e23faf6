"""Seeded request lists for the three benchmark workloads.

A request is either one ``kron`` subcommand (argv for ``cli.main``) or, for
the two float routines without a subcommand, a library call made the way the
``scripts/`` make them: parse a spec, call ``kronflow.dynamics``.  The
structure of each list (which subcommands, which families, which depths) is
fixed per workload, so run cost does not depend on the seed; the seed draws
the free parameters (random vectors, coefficients, start points, targets,
digits) and the order.  Every request carries in ``ctx`` what its
independent check needs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mpmath
from kronflow import dynamics, frequency, solenoid_geometry

import reference as ref

WORKLOADS = ("exact-reduce", "float-flow", "classify-geom")


@dataclass
class Request:
    kind: str  # selects the checker
    label: str  # size class, e.g. "bo-d16"
    argv: list[str] | None = None  # kron argv, or None for a library call
    call: Callable[[], object] | None = None
    ctx: dict = field(default_factory=dict)


class _Files:
    """Writes generated spec and polynomial files into the work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.n = 0

    def json(self, obj) -> str:
        self.n += 1
        path = self.workdir / f"in{self.n:04d}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def out(self, suffix: str) -> str:
        self.n += 1
        return str(self.workdir / f"out{self.n:04d}{suffix}")


# -- specs shared with the README families

HALVING = {"kind": "solenoid", "generator": "1", "a": {"prefix": [1, 2], "tail": {"constant": 2}}}
BO_README = {
    "kind": "bo",
    "beta": {"name": "beta", "kind": "opaque"},
    "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}},
}
PRODUCT = {
    "kind": "product",
    "components": [
        {"free": "1"},
        {"qa": {"prefix": [1], "tail": {"constant": 2}}},
        {"qa": {"prefix": [1], "tail": "increment"}},
    ],
}
T3 = {"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}, {"sqrt3": "1"}]}
FACTORIAL_SQRT2 = {"kind": "solenoid", "generator": "sqrt2", "a": {"prefix": [1], "tail": "increment"}}


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# exact-reduce


def _random_resonant_finite(rng: random.Random, n: int) -> dict:
    """n terms over {1, sqrt2, sqrt3}; n > 3 forces resonance.  Each term uses
    one or two generators with coefficients in {+-1, +-2}: on the seed these
    reduce in under 25 ms, while wider coefficient ranges make rare vectors
    that take seconds."""
    gens = ["1", "sqrt2", "sqrt3"]
    terms = []
    for _ in range(n):
        used = rng.sample(gens, rng.choice((1, 1, 2)))
        terms.append({g: str(rng.choice((-2, -1, 1, 2))) for g in used})
    return {"kind": "finite", "terms": terms}


def _stratified_nu(rng: random.Random, n: int) -> list[int]:
    """n entries of size <= 1000, one drawn uniformly from each of n equal
    sub-ranges of [1, 1000], in seeded order with seeded signs.  The cost of
    the subtractive reduction follows the spread of the magnitudes; drawing
    one per sub-range keeps that spread, and so the cost of a size, about the
    same from seed to seed (the step-trail length varies about 7% instead of
    20% between seeds)."""
    lows = [1 + 1000 * k // n for k in range(n + 1)]
    nu = [rng.choice((-1, 1)) * rng.randrange(lows[k], lows[k + 1]) for k in range(n)]
    rng.shuffle(nu)
    return nu


def _exact_reduce(rng: random.Random, files: _Files) -> list[Request]:
    reqs = []
    paths = {"halving": files.json(HALVING), "bo": files.json(BO_README), "product": files.json(PRODUCT)}
    specs = {"halving": HALVING, "bo": BO_README, "product": PRODUCT}

    def flow_req(kind, family, depth, spec=None, path=None):
        spec = spec or specs[family]
        path = path or paths[family]
        return Request(kind, f"{family}-d{depth}", [kind, path, "--depth", str(depth)],
                       ctx={"spec": spec, "depth": depth})

    # dense depth sweeps: each shows its complexity class, and the spread of
    # fixed costs keeps the latency median away from gaps in the mix.  BO
    # resonance cost is irregular past d64 (on the seed d76/84/88/92 take
    # 0.5-0.75 s, d80 0.45 s, d96 0.27 s); sweeping it every 4 there puts six
    # fixed-spec requests above the slowest seeded `reduce`, so the latency
    # p90 (within the 6th slowest of 58) does not move with the seed.  Four
    # cheap halving depths (d40/56/80/112) balance them below, and product
    # resonance d80 and halving reduce-flow d11 (about 30 ms each) thicken the
    # fixed-spec requests at the latency median, so it stays on them too
    bo_depths = (16, 24, 32, 48, 64, 76, 80, 84, 88, 92, 96)
    halving_depths = (16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128)
    for family, depths in (("bo", bo_depths), ("product", (64, 80, 96, 128, 192, 256)),
                           ("halving", halving_depths)):
        reqs += [flow_req("resonance", family, d) for d in depths]
    for family, depths in (("halving", (8, 10, 11, 12, 14, 16)), ("bo", (4, 5, 6)), ("product", (16, 24, 32))):
        reqs += [flow_req("reduce-flow", family, d) for d in depths]
    for n in (6, 6, 7, 7, 8, 8, 9, 10):
        spec = _random_resonant_finite(rng, n)
        reqs.append(flow_req("reduce-flow", "finite", n, spec, files.json(spec)))
    # fixed sizes spread over 5..30, so the seed moves the entries, not the mix
    for k in range(10):
        n = 5 + round(25 * k / 9)
        nu = _stratified_nu(rng, n)
        reqs.append(Request("reduce", f"n{n}", ["reduce", "--nu=" + ",".join(map(str, nu))], ctx={"nu": nu}))
    return reqs


# ---------------------------------------------------------------------------
# float-flow


def _probe_call(spec_path: str, target: list[Fraction], eps: float, t_max: float):
    def call():
        fv = frequency.parse_frequency_spec(Path(spec_path).read_text(encoding="utf-8"))
        point = solenoid_geometry.TorusPoint.exact_point(target)
        return dynamics.minimality_probe(fv, point, len(target), eps, t_max)
    return call


def _quadrature_call(spec_path: str, poly_path: str, t_final: float, samples: int):
    def call():
        fv = frequency.parse_frequency_spec(Path(spec_path).read_text(encoding="utf-8"))
        poly = dynamics.parse_polynomial(json.loads(Path(poly_path).read_text(encoding="utf-8")))
        origin = solenoid_geometry.TorusPoint.origin(3)
        return dynamics.time_average_quadrature(fv, poly, origin, t_final, samples)
    return call


def _random_nu(rng: random.Random, depth: int) -> list[int]:
    while True:
        nu = [rng.randint(-3, 3) for _ in range(depth)]
        if any(nu):
            return nu


def _random_poly(rng: random.Random) -> dict:
    terms = [{"const": _rat(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))}]
    for op in ("cos", "sin"):
        nu = _random_nu(rng, 3)
        terms.append({op: {str(j + 1): v for j, v in enumerate(nu) if v},
                      "scale": _rat(Fraction(rng.randint(1, 6), rng.randint(1, 3)))})
    return {"terms": terms}


def _planted_target(rng: random.Random, eps: float) -> list[Fraction]:
    """A point within eps/4 (weighted distance) of the T^3 orbit at a time in
    [190, 210]: the probe's grid must hit it by then, so its cost is bounded
    and nearly seed independent.  Computed at 200 bits from the spec."""
    t_star = rng.uniform(190.0, 210.0)
    out = []
    with mpmath.workprec(200):
        for w in ref.omegas(T3, 3):
            turns = float((w * t_star / (2 * mpmath.pi)) % 1) + rng.uniform(-eps / 4, eps / 4)
            out.append(Fraction(round(turns * 10**9), 10**9) % 1)
    return out


def _float_flow(rng: random.Random, files: _Files) -> list[Request]:
    reqs = []
    bo_float = {
        "kind": "bo",
        "generators": [{"name": "beta", "kind": "opaque", "value": f"0.{rng.randrange(10**44, 10**45)}"}],
        "beta": "beta",
        "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}},
    }
    # BO frequencies reach 250 at depth 16, so its window stops at 1e6: at 1e12
    # the double-precision phase error would be 1e-2 rad and swamp the metric
    sims = [("t3", T3, 3, 200, (1e2, 1e6, 1e12)), ("factorial", FACTORIAL_SQRT2, 8, 200, (1e2, 1e6, 1e12)),
            ("bo", bo_float, 16, 100, (1e2, 1e6))]
    for family, spec, depth, steps, windows in sims:
        path = files.json(spec)
        for t1 in windows:
            theta0 = [Fraction(rng.randrange(1000), 1000) for _ in range(depth)]
            t0 = float(rng.randrange(0, 10))
            out = files.out(".csv")
            argv = ["simulate", path, "--t0", repr(t0), "--t1", repr(t1), "--steps", str(steps),
                    "--depth", str(depth), "--theta0", ",".join(map(_rat, theta0)), "--out", out]
            reqs.append(Request("simulate", f"{family}-d{depth}-t{t1:.0e}", argv,
                                ctx={"spec": spec, "depth": depth, "t0": t0, "t1": t1, "steps": steps,
                                     "theta0": theta0, "out": out}))
    t3_path = files.json(T3)
    windows = [100.0, 1000.0, 10000.0]
    for _ in range(4):
        poly = _random_poly(rng)
        reqs.append(Request("average", "t3-d3", ["average", t3_path, "--poly", files.json(poly), "--T",
                                                 *map(repr, windows), "--depth", "3"],
                            ctx={"spec": T3, "poly": poly, "T": windows}))
    for _ in range(4):
        nus = [_random_nu(rng, 3) for _ in range(3)]
        argv = ["equidistribution", t3_path]
        for nu in nus:
            argv.append("--nu=" + ",".join(map(str, nu)))
        argv += ["--T", *map(repr, windows), "--depth", "3"]
        reqs.append(Request("equidistribution", "t3-d3", argv, ctx={"spec": T3, "nus": nus, "T": windows}))
    for eps, t_max in ((1e-2, 1e4), (5e-3, 3e4), (3e-3, 1e5)):
        target = _planted_target(rng, eps)
        reqs.append(Request("minimality_probe", f"t3-eps{eps:g}", None, _probe_call(t3_path, target, eps, t_max),
                            ctx={"spec": T3, "target": target, "eps": eps, "t_max": t_max}))
    poly = _random_poly(rng)
    t_final = rng.uniform(20.0, 80.0)
    reqs.append(Request("time_average_quadrature", "t3-n4001", None,
                        _quadrature_call(t3_path, files.json(poly), t_final, 4001),
                        ctx={"spec": T3, "poly": poly, "T": t_final, "samples": 4001}))
    return reqs


# ---------------------------------------------------------------------------
# classify-geom

_BUILTIN_GENS = ("1", "sqrt2", "sqrt3", "sqrt5", "pi")


def _family(rng: random.Random, name: str) -> dict:
    """One spec of a README family, with seeded free parameters."""
    if name == "finite":
        gens = rng.sample(_BUILTIN_GENS, rng.randint(1, 4))
        terms = [{g: _rat(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))}
                 for g in gens for _ in range(rng.randint(1, 2))]
        rng.shuffle(terms)
        return {"kind": "finite", "terms": terms}
    if name == "halving":
        c = rng.choice((2, 3, 4, 6, 10))
        return {"kind": "solenoid", "generator": "1", "a": {"prefix": [1, c], "tail": {"constant": c}}}
    if name == "periodic":
        cycle = rng.sample((2, 3, 5, 7), 2)
        return {"kind": "solenoid", "generator": "1", "a": {"prefix": [1], "tail": {"periodic": cycle}}}
    if name == "factorial":
        return {"kind": "solenoid", "generator": rng.choice(("1", "sqrt2")), "a": {"prefix": [1], "tail": "increment"}}
    if name == "odd_primes":
        return {"kind": "solenoid", "generator": "1", "a": {"prefix": [1], "tail": "odd_indexed_primes"}}
    if name == "bo":
        m = rng.choice((2, 3, 5, 6))
        prefix = [_rat(Fraction(rng.randint(1, 5), rng.randint(1, 5))) for _ in range(rng.randint(0, 2))]
        c = _rat(Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        return {"kind": "bo", "beta": {"name": "beta", "kind": "opaque"},
                "s": {"prefix": prefix, "tail": {"c": c, "r": f"1/{m}"}}}
    if name == "product":
        comps = []
        for _ in range(rng.randint(1, 3)):
            choice = rng.choice(("free", "halving", "increment", "odd"))
            if choice == "free":
                comps.append({"free": _rat(Fraction(rng.randint(1, 3), rng.randint(1, 3)))})
            elif choice == "halving":
                comps.append({"qa": {"prefix": [1], "tail": {"constant": rng.choice((2, 3, 5))}}})
            elif choice == "increment":
                comps.append({"qa": {"prefix": [1], "tail": "increment"}})
            else:
                comps.append({"qa": {"prefix": [1], "tail": "odd_indexed_primes"}})
        return {"kind": "product", "components": comps}
    raise ValueError(name)


CLASSIFY_FAMILIES = ("finite", "halving", "factorial", "odd_primes", "bo", "product")
_SOLENOID_SEQS = {
    "halving": lambda rng: {"prefix": [1, 2], "tail": {"constant": 2}},
    "constant": lambda rng: {"prefix": [1], "tail": {"constant": rng.choice((3, 6, 10))}},
    "periodic": lambda rng: {"prefix": [1], "tail": {"periodic": [2, 3]}},
    "factorial": lambda rng: {"prefix": [1], "tail": "increment"},
    "odd_primes": lambda rng: {"prefix": [1], "tail": "odd_indexed_primes"},
}


def _solenoid_point(rng: random.Random, seq: dict, depth: int):
    a = ref.sequence_terms(seq, depth)
    tau = Fraction(rng.randrange(1, 720), 720)
    digits = [rng.randrange(a[j - 1]) for j in range(2, depth + 1)]
    return tau, digits, ref.solenoid_point(a, tau, digits)


def _classify_geom(rng: random.Random, files: _Files) -> list[Request]:
    reqs = []
    for depth in (16, 64, 128):
        d = str(depth)
        for fam in CLASSIFY_FAMILIES:
            spec = _family(rng, fam)
            reqs.append(Request("classify", f"{fam}-d{depth}", ["classify", files.json(spec), "--depth", d],
                                ctx={"spec": spec}))
        pairs = [("factorial", "odd_primes")]
        pairs += [tuple(rng.sample(CLASSIFY_FAMILIES + ("periodic",), 2)) for _ in range(2)]
        for left, right in pairs:
            s1, s2 = _family(rng, left), _family(rng, right)
            reqs.append(Request("iso", f"{left}-{right}-d{depth}",
                                ["iso", files.json(s1), files.json(s2), "--depth", d],
                                ctx={"left": s1, "right": s2}))
        spec = _family(rng, "bo")
        reqs.append(Request("bo", f"bo-d{depth}", ["bo", files.json(spec), "--depth", d],
                            ctx={"spec": spec, "depth": depth}))
        for op, seq_name, member in (("member", "constant", True), ("member", "odd_primes", False),
                                     ("coords", "factorial", True), ("times", "periodic", True),
                                     ("times", "halving", True)):
            seq = _SOLENOID_SEQS[seq_name](rng)
            tau, digits, theta = _solenoid_point(rng, seq, depth)
            if not member:
                # a_N * theta_N moves by 1/2, which breaks relation N-1
                a_n = ref.sequence_terms(seq, depth)[-1]
                theta = theta[:-1] + [(theta[-1] + Fraction(1, 2 * a_n)) % 1]
            argv = ["solenoid", op, "--a", json.dumps(seq, separators=(",", ":"))]
            if op == "times":
                argv += ["--tau", _rat(tau), "--digits", ",".join(map(str, digits))]
            else:
                argv += ["--theta", ",".join(map(_rat, theta))]
            reqs.append(Request(f"solenoid-{op}", f"{seq_name}-d{depth}", argv,
                                ctx={"seq": seq, "depth": depth, "tau": tau, "digits": digits,
                                     "theta": theta, "member": member}))
    return reqs


_BUILDERS = {"exact-reduce": _exact_reduce, "float-flow": _float_flow, "classify-geom": _classify_geom}


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Request], list[Request]]:
    """The seeded request list of one pass, and its warm-up subset.

    Inputs are written to workdir.  The builders emit the cheapest request of
    each kind first, so the warm-up subset (first of each kind) stays small;
    it also feeds the checker self-test.
    """
    rng = random.Random(f"{workload}:{seed}")
    reqs = _BUILDERS[workload](rng, _Files(workdir))
    warm: dict[str, Request] = {}
    for r in reqs:
        warm.setdefault(r.kind, r)
    rng.shuffle(reqs)
    return reqs, list(warm.values())
