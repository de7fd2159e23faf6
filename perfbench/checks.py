"""One independent output check per request kind, plus a corruption per kind
for the checker self-test.

A check gets the request's ``ctx`` and its output: ``(exit code, stdout)``
for a ``kron`` subcommand, the return value for a library call.  It raises
``CheckError`` on a wrong output and returns a dict of observations (the
float phase error, for ``simulate``).  Checks never compare with recorded
outputs of the program: a reduction transform or float digits may change
legitimately as long as the mathematical property holds.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath

import reference as ref

PREC_BITS = 200


class CheckError(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _doc(out) -> dict:
    rc, text = out
    _require(rc == 0, f"exit code {rc}")
    return json.loads(text)


def _int_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def _vec(obj: dict, n: int) -> list[int]:
    """Dense 1..n list from a {"index": value} JSON map."""
    v = [0] * n
    for k, x in obj.items():
        _require(1 <= int(k) <= n, f"index {k} outside 1..{n}")
        v[int(k) - 1] = int(x)
    return v


def _matrix(obj: dict, key: str, n: int) -> list[list[int]]:
    """Rows 1..n of a tracked matrix; absent rows are identity rows."""
    _require(int(obj["dimension"]) <= n, "transform larger than the vector")
    rows = obj[key]
    return [_vec(rows[str(i)], n) if str(i) in rows else [int(j == i) for j in range(1, n + 1)]
            for i in range(1, n + 1)]


def _is_identity(a: list[list[int]], b: list[list[int]]) -> bool:
    n = len(a)
    for i in range(n):
        nz = [(k, v) for k, v in enumerate(a[i]) if v]
        for j in range(n):
            if sum(v * b[k][j] for k, v in nz) != (i == j):
                return False
    return True


# ---------------------------------------------------------------------------
# exact-reduce


def check_resonance(ctx, out) -> dict:
    doc = _doc(out)
    depth = ctx["depth"]
    _gens, rows = ref.coordinate_rows(ctx["spec"], depth)
    vecs = [_vec(v, depth) for v in doc["vectors"]]
    _require(doc["depth"] == depth, "depth mismatch")
    _require(doc["rank"] == len(vecs) == depth - ref.rank(rows), "rank != depth - rank(coordinate matrix)")
    for row in _int_rows(rows):
        for v in vecs:
            _require(any(v), "zero basis vector")
            _require(sum(a * b for a, b in zip(row, v)) == 0, "vector does not annihilate the coordinates")
    _require(ref.independent_mod_p(vecs), "basis vectors are dependent")
    return {}


def check_reduce_flow(ctx, out) -> dict:
    doc = _doc(out)
    depth = ctx["depth"]
    gens, rows = ref.coordinate_rows(ctx["spec"], depth)
    a = _matrix(doc["transform"], "rows", depth)
    a_inv = _matrix(doc["transform"], "inverse_rows", depth)
    _require(_is_identity(a, a_inv), "rows times inverse_rows is not the identity")
    reduced = doc["reduced"]["terms"]
    _require(len(reduced) == depth, "reduced vector has the wrong length")
    _require(all(set(term) <= set(gens) for term in reduced), "reduced vector uses a foreign generator")
    zeros = doc["zero_rank"]
    _require(zeros == depth - ref.rank(rows), "zero_rank != resonance rank")
    for gi, g in enumerate(gens):
        col = rows[gi]
        for j in range(depth):
            got = Fraction(reduced[j].get(g, "0"))
            want = sum((x * c for x, c in zip(a[j], col) if x), Fraction(0))
            _require(got == want, f"A.omega differs from 'reduced' at {j + 1}, generator {g}")
            _require(j >= zeros or got == 0, f"entry {j + 1} inside the zero block is nonzero")
    tail = [[Fraction(reduced[j].get(g, "0")) for j in range(zeros, depth)] for g in gens]
    _require(ref.rank(tail) == depth - zeros, "the nonzero block still has an integer relation")
    return {}


def check_reduce(ctx, out) -> dict:
    doc = _doc(out)
    nu = ctx["nu"]
    n = len(nu)
    g = math.gcd(*nu)
    _require(doc["gcd"] == g, "gcd differs from math.gcd")
    _require(_vec(doc["result"], n) == [g] + [0] * (n - 1), "result is not (gcd, 0, ...)")
    _require(_vec(doc["input"], n) == nu, "input echo differs")
    t = _matrix(doc["transform"], "rows", n)
    t_inv = _matrix(doc["transform"], "inverse_rows", n)
    _require([sum(x * y for x, y in zip(row, nu)) for row in t] == [g] + [0] * (n - 1),
             "transform . nu is not the result")
    _require(_is_identity(t, t_inv), "transform times inverse is not the identity")
    sums = doc["pass_sums"]
    _require(all(s > 0 for s in sums) and all(x > y for x, y in zip(sums, sums[1:])),
             "pass sums do not decrease strictly")
    return {}


# ---------------------------------------------------------------------------
# classify-geom: closure verdicts from PAPER.md / README


def _seq_label(seq: dict) -> object:
    tail = seq["tail"]
    if tail == "increment":
        return "all"
    if tail == "odd_indexed_primes":
        return "odd_indexed"
    cycle = [tail["constant"]] if "constant" in tail else tail["periodic"]
    return tuple(sorted(set().union(*(ref.prime_factors(int(c)) for c in cycle))))


def expected_closure(spec: dict) -> list:
    """Closure factors of a README family: one circle per free rank-1
    component, one solenoid (labelled by its type) per non-free one."""
    kind = spec["kind"]
    if kind == "finite":
        gens = {g for t in spec["terms"] for g, v in t.items() if Fraction(v)}
        return ["circle"] * len(gens)
    if kind == "solenoid":
        return [_seq_label(spec["a"])]
    if kind == "bo":
        # Z from the squares, times the dual of the sigma span R; a geometric
        # tail with ratio 1/m puts every prime of m at infinite exponent
        r = Fraction(spec["s"]["tail"]["r"])
        _require(r.numerator == 1, "only ratios 1/m are tabulated")
        return ["circle", tuple(sorted(ref.prime_factors(r.denominator)))]
    if kind == "product":
        comps = spec["components"]
        return ["circle"] * sum("free" in c for c in comps) + [_seq_label(c["qa"]) for c in comps if "qa" in c]
    raise ValueError(kind)


def closure_labels(closure: list) -> list:
    out = []
    for f in closure:
        if f == "circle":
            out.append("circle")
            continue
        pairs = f["solenoid"]["pairs"]
        if any(p["primes"] == "all" and p["exp"] == "inf" for p in pairs):
            out.append("all")
            continue
        inf = sorted({q for p in pairs if p["exp"] == "inf" and isinstance(p["primes"], list) for q in p["primes"]})
        if inf:
            out.append(tuple(inf))
        elif any(p["primes"] == "odd_indexed" and p["exp"] != 0 for p in pairs):
            out.append("odd_indexed")
        else:
            out.append(("finite-type", json.dumps(pairs, sort_keys=True)))
    return out


def _same(a: list, b: list) -> bool:
    return sorted(map(repr, a)) == sorted(map(repr, b))


def check_classify(ctx, out) -> dict:
    doc = _doc(out)
    want = expected_closure(ctx["spec"])
    _require(_same(closure_labels(doc["closure"]), want), f"closure {doc['closure']} != {want}")
    _require(doc["rank"] == len(want), "rank != number of closure factors")
    _require(doc["free"] == all(w == "circle" for w in want), "freeness verdict wrong")
    return {}


def check_iso(ctx, out) -> dict:
    doc = _doc(out)
    left, right = expected_closure(ctx["left"]), expected_closure(ctx["right"])
    _require(_same(closure_labels(doc["left"]), left), "left closure wrong")
    _require(_same(closure_labels(doc["right"]), right), "right closure wrong")
    _require(doc["homeomorphic"] == _same(left, right), "homeomorphism verdict wrong")
    return {}


def check_bo(ctx, out) -> dict:
    doc = _doc(out)
    depth, s = ctx["depth"], ctx["spec"]["s"]
    want = expected_closure(ctx["spec"])
    _require(_same(closure_labels(doc["closure"]), want), "closure wrong")
    sig = [Fraction(x) for x in doc["sigma"]]
    tails = [Fraction(x) for x in doc["tail_sums"]]
    _require(len(sig) == depth and len(tails) == depth - 1, "table lengths wrong")
    _require(sig[0] == ref.sigma(s, 1) and sig[-1] == ref.sigma(s, depth), "sigma values wrong")
    _require(all(tails[n] == sig[n + 1] - sig[n] for n in range(depth - 1)), "g_n != sigma_(n+1) - sigma_n")
    return {}


def check_solenoid_member(ctx, out) -> dict:
    doc = _doc(out)
    _require(doc["member"] is ctx["member"], "membership verdict wrong")
    _require(doc["depth"] == ctx["depth"], "depth wrong")
    return {}


def check_solenoid_coords(ctx, out) -> dict:
    doc = _doc(out)
    _require(Fraction(doc["tau"]) == ctx["tau"], "tau does not round-trip")
    _require(doc["digits"] == ctx["digits"], "digits do not round-trip")
    return {}


def check_solenoid_times(ctx, out) -> dict:
    doc = _doc(out)
    theta = ctx["theta"]
    _require([Fraction(x) for x in doc["target"]] == theta, "target differs from the coordinates' point")
    times = [Fraction(t) for t in doc["times"]]
    _require(0 < len(times) <= len(theta), "wrong number of times")
    products, p = [], 1
    for a_j in ref.sequence_terms(ctx["seq"], len(theta)):
        p *= a_j
        products.append(p)
    for k, t in enumerate(times, start=1):
        for j in range(k):
            _require((t / products[j]) % 1 == theta[j], f"time {k} misses coordinate {j + 1}")
    return {}


# ---------------------------------------------------------------------------
# float-flow: 200-bit references


def _phase_tolerance(x) -> float:
    """Double-precision budget for phase x = theta0 + omega t mod 2 pi: a few
    roundings of x, plus the 12 significant digits the CSV keeps."""
    return 2.0 ** -50 * (abs(float(x)) + 8 * math.pi) + 1e-10


def check_simulate(ctx, out) -> dict:
    doc = _doc(out)
    depth, steps, t0, t1 = ctx["depth"], ctx["steps"], ctx["t0"], ctx["t1"]
    _require(doc["steps"] == steps and doc["depth"] == depth, "echo differs")
    with open(ctx["out"], newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    _require(len(table) == steps + 2 and len(table[0]) == depth + 1, "CSV shape wrong")
    worst = 0.0
    with mpmath.workprec(PREC_BITS):
        two_pi = 2 * mpmath.pi
        omegas = ref.omegas(ctx["spec"], depth)
        base = [two_pi * mpmath.mpf(th.numerator) / th.denominator for th in ctx["theta0"]]
        for k, row in enumerate(table[1:]):
            t = t0 + (t1 - t0) * k / steps  # the grid time, recomputed, not read back
            _require(abs(float(row[0]) - t) <= 1e-11 * max(1.0, abs(t)), f"row {k} time wrong")
            for j in range(depth):
                x = base[j] + omegas[j] * mpmath.mpf(t)
                err = ref.circular_distance(float(row[j + 1]), x, two_pi)
                _require(err <= _phase_tolerance(x), f"row {k} angle {j + 1} off by {err:.3g} rad")
                worst = max(worst, err)
    return {"phase_err_rad": worst}


def _poly_table(poly: dict) -> dict[tuple, complex]:
    """{nu: a_nu} of a {"terms": [...]} polynomial, with mirror terms."""
    table: dict[tuple, complex] = {}

    def add(nu, a):
        table[nu] = table.get(nu, 0) + a

    for term in poly["terms"]:
        if "const" in term:
            add((0, 0, 0), complex(Fraction(term["const"])))
            continue
        op = "cos" if "cos" in term else "sin"
        nu = tuple(int(term[op].get(str(j), 0)) for j in (1, 2, 3))
        s = float(Fraction(term.get("scale", "1")))
        neg = tuple(-v for v in nu)
        add(nu, s / 2 if op == "cos" else -0.5j * s)
        add(neg, s / 2 if op == "cos" else 0.5j * s)
    return {nu: a for nu, a in table.items() if a != 0}


def _nu_omega(omegas, nu) -> mpmath.mpf:
    return mpmath.fsum(v * w for v, w in zip(nu, omegas))


def _window_average(a: complex, w, t_final: float) -> complex:
    """(1/T) int_0^T a exp(i w t) dt from the origin, at working precision."""
    if w == 0:
        return a
    wt = w * t_final
    return complex(mpmath.mpc(a) * (mpmath.expj(wt) - 1) / (1j * wt))


def check_average(ctx, out) -> dict:
    doc = _doc(out)
    table = _poly_table(ctx["poly"])
    _require(Fraction(doc["haar"]) == Fraction(ctx["poly"]["terms"][0]["const"]), "haar average wrong")
    _require(len(doc["rows"]) == len(ctx["T"]), "row count wrong")
    with mpmath.workprec(PREC_BITS):
        omegas = ref.omegas(ctx["spec"], 3)
        ws = {nu: _nu_omega(omegas, nu) for nu in table}
        for row, t_final in zip(doc["rows"], ctx["T"]):
            value = sum(_window_average(a, ws[nu], t_final) for nu, a in table.items()).real
            envelope = sum(2 * abs(a) / (t_final * abs(float(ws[nu]))) for nu, a in table.items() if any(nu))
            _require(row["T"] == t_final, "window echo differs")
            _require(abs(row["value"] - value) <= 1e-9, f"average {row['value']} != {value}")
            _require(abs(row["envelope"] - envelope) <= 1e-9 * envelope, "envelope wrong")
    return {}


def check_equidistribution(ctx, out) -> dict:
    doc = _doc(out)
    rows = doc["rows"]
    _require(len(rows) == len(ctx["nus"]) * len(ctx["T"]), "row count wrong")
    with mpmath.workprec(PREC_BITS):
        omegas = ref.omegas(ctx["spec"], 3)
        k = 0
        for nu in ctx["nus"]:
            w = _nu_omega(omegas, nu)
            for t_final in ctx["T"]:
                row = rows[k]
                k += 1
                bound = float(2 / (t_final * abs(w)))
                mag = abs(_window_average(1, w, t_final))
                _require(row["flag"] is None and row["pass"] is True, "row flagged or failed")
                _require(abs(row["magnitude"] - mag) <= 1e-9 * max(mag, 1e-3), "magnitude wrong")
                _require(abs(row["bound"] - bound) <= 1e-9 * bound, "bound != 2/(T|omega.nu|)")
                _require(row["magnitude"] <= bound * (1 + 1e-9), "magnitude above 2/(T|omega.nu|)")
    return {}


def check_minimality_probe(ctx, out) -> dict:
    _require(out.hit, "planted target was not hit")
    _require(0 <= out.time <= ctx["t_max"], "hit time outside the window")
    with mpmath.workprec(PREC_BITS):
        omegas = ref.omegas(ctx["spec"], 3)
        t = mpmath.mpf(out.time)
        dist = sum(2.0 ** -(k + 1) * ref.circular_distance(float(tgt), w * t / (2 * mpmath.pi), 1)
                   for k, (w, tgt) in enumerate(zip(omegas, ctx["target"])))
    _require(dist < ctx["eps"], f"distance {dist:.3g} at the hit time is not below eps")
    _require(abs(dist - out.distance) <= 1e-9, "reported distance wrong")
    return {}


def check_time_average_quadrature(ctx, out) -> dict:
    table = _poly_table(ctx["poly"])
    t_final, samples = ctx["T"], ctx["samples"]
    with mpmath.workprec(PREC_BITS):
        omegas = ref.omegas(ctx["spec"], 3)
        ws = {nu: float(_nu_omega(omegas, nu)) for nu in table}
        exact = sum(_window_average(a, ws[nu], t_final) for nu, a in table.items()).real
    # trapezoid error: h^2/12 max|f''| <= h^2/12 sum |a_nu| w_nu^2
    h = t_final / (samples - 1)
    tol = h * h / 12 * sum(abs(a) * ws[nu] ** 2 for nu, a in table.items()) + 1e-9
    _require(abs(out - exact) <= tol, f"quadrature {out} != closed form {exact} (tol {tol:.2g})")
    return {}


CHECKS = {
    "resonance": check_resonance,
    "reduce-flow": check_reduce_flow,
    "reduce": check_reduce,
    "classify": check_classify,
    "iso": check_iso,
    "bo": check_bo,
    "solenoid-member": check_solenoid_member,
    "solenoid-coords": check_solenoid_coords,
    "solenoid-times": check_solenoid_times,
    "simulate": check_simulate,
    "average": check_average,
    "equidistribution": check_equidistribution,
    "minimality_probe": check_minimality_probe,
    "time_average_quadrature": check_time_average_quadrature,
}


# ---------------------------------------------------------------------------
# checker self-test: one deliberate corruption per kind


def _edit(out, fn):
    rc, text = out
    doc = json.loads(text)
    fn(doc)
    return rc, json.dumps(doc)


def _bump_first(vec: dict) -> None:
    k = next(iter(vec))
    vec[k] = int(vec[k]) + 1


def _shift_csv(ctx):
    bad = dict(ctx, out=ctx["out"] + ".bad.csv")
    with open(ctx["out"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[-1][1] = repr(float(rows[-1][1]) + 1e-3)
    with open(bad["out"], "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return bad


def corrupt(kind: str, ctx: dict, out):
    """A deliberately wrong (ctx, output) pair for the given kind."""
    ctx = copy.deepcopy(ctx)
    if kind == "resonance":
        return ctx, _edit(out, lambda d: _bump_first(d["vectors"][0]))
    if kind == "reduce-flow":
        return ctx, _edit(out, lambda d: _bump_first(d["transform"]["rows"]["1"]))
    if kind == "reduce":
        return ctx, _edit(out, lambda d: d.update(gcd=d["gcd"] + 1))
    if kind == "classify":
        return ctx, _edit(out, lambda d: d["closure"].pop())
    if kind == "iso":
        return ctx, _edit(out, lambda d: d.update(homeomorphic=not d["homeomorphic"]))
    if kind == "bo":
        return ctx, _edit(out, lambda d: d.update(closure=["circle"]))
    if kind == "solenoid-member":
        return ctx, _edit(out, lambda d: d.update(member=not d["member"]))
    if kind == "solenoid-coords":
        return ctx, _edit(out, lambda d: d["digits"].__setitem__(0, d["digits"][0] + 1))
    if kind == "solenoid-times":
        return ctx, _edit(out, lambda d: d["times"].__setitem__(-1, str(Fraction(d["times"][-1]) + Fraction(1, 3))))
    if kind == "simulate":
        return _shift_csv(ctx), out
    if kind == "average":
        return ctx, _edit(out, lambda d: d["rows"][0].update(value=d["rows"][0]["value"] + 1e-3))
    if kind == "equidistribution":
        return ctx, _edit(out, lambda d: d["rows"][0].update(magnitude=2 * d["rows"][0]["bound"]))
    if kind == "minimality_probe":
        return ctx, dataclasses.replace(out, time=out.time + 1.0)
    if kind == "time_average_quadrature":
        return ctx, out + 1.0
    raise ValueError(kind)


def self_test(samples: list[tuple[str, dict, object]]) -> list[str]:
    """Each (kind, ctx, good output) must pass its check, and its corrupted
    copy must fail.  Returns the problems found (empty when sound)."""
    problems = []
    for kind, ctx, out in samples:
        check = CHECKS[kind]
        try:
            check(ctx, out)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            problems.append(f"{kind}: good output rejected ({exc})")
            continue
        bad_ctx, bad_out = corrupt(kind, ctx, out)
        try:
            check(bad_ctx, bad_out)
            problems.append(f"{kind}: corrupted output accepted")
        except (CheckError, KeyError, ValueError, TypeError, IndexError, ZeroDivisionError):
            pass
        if kind == "simulate":
            Path(bad_ctx["out"]).unlink(missing_ok=True)
    return problems
