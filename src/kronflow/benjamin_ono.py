"""Quadratic integrable-flow frequencies and their exact module classification.

For actions gamma_k = beta * s_k (beta irrational, s_k nonnegative rationals
with a geometric tail) the frequencies are

    omega_j = j^2 - 2 * beta * sigma_j,      sigma_j = sum_k min(j,k) s_k,

computed in closed form.  The frequency module splits as Z (from the squares)
plus beta times twice the subgroup R generated by the sigma values.  The key
exact facts: the differences e_{n+1} - e_n produce the tail sums
g_n = sum_{k>n} s_k inside R, and for a geometric tail with ratio u/v the
powers of the ratio span Z[1/v], which pins down R as an explicit (i, Lambda)
subgroup of Q.  Infinite nonnegative support forces g_n -> 0 through nonzero
values, so R is not free and the closure picks up a solenoid factor.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from fractions import Fraction

from .classification import (
    INF,
    BaerType,
    ModuleComponent,
    ModuleDescriptor,
    SupernaturalNumber,
    free_baer_type,
    is_free,
    module_report,
)
from .errors import ValidationError, _Record
from .exact_linalg import format_rational_pair, rational_gcd
from .frequency import UNIT, BoRule, RationalSequenceSpec, clamp_depth
from .primes import factorize


# ---------------------------------------------------------------------------
# The subgroup R = Z-span of the sigma values, presented as f*Z + h*Z[1/v]


_Span = tuple[Fraction, Fraction | None, int | None]  # (f, h, v)


def _span_data(s: RationalSequenceSpec) -> _Span:
    """R = span{sigma_j} = f*Z + h*Z[1/v] (h, v absent for finite support).

    Follows from sigma_{n+1} - sigma_n = g_n and the geometric tail: the g_n
    with n past the prefix are h * r^m, and span{r^m : m >= 0} = Z[1/v] for
    r = u/v in lowest terms (numerators u^a v^b reach gcd 1 by Bezout).  Over
    the integer tail sums' denominator D, f = gcd(D g_0, ..., D g_(n0-1)) / D
    (of the D sigma_j on a finite support) and h = D g_n0 / D.
    """
    n0 = max(len(s.prefix), 1)
    if s.support_is_finite():
        scale, sigmas = s.scaled_sigmas(n0)
        return Fraction(math.gcd(*sigmas), scale), None, None
    # sigma_1 = g_0, then g_1..g_{n0-1}; g_{n0} = h starts the geometric tail
    scale, (*finite_gens, h) = s.scaled_tail_sums(n0 + 1)
    return Fraction(math.gcd(*finite_gens), scale), Fraction(h, scale), s.tail_r.denominator


def _int_valuation(n: int, p: int) -> int:
    n = abs(n)
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


def _valuation(x: Fraction, p: int) -> int:
    if x == 0:
        raise ValidationError("valuation of zero is undefined")
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def _baer_of_span(f: Fraction, h: Fraction | None, v: int | None) -> BaerType | None:
    """The unique (i, Lambda) with f*Z + h*Z[1/v] = S(i, Lambda).

    The minimal p-valuation over the subgroup determines both i and Lambda:
    primes dividing v are unbounded below; elsewhere the minimum of the
    valuations of f and h is attained by a pure element.
    """
    if h is None:
        if f == 0:
            return None
        return free_baer_type(f)
    inf_primes = set(factorize(v))
    # positive minimal valuation requires a prime dividing both numerators;
    # negative requires a prime from one of the denominators
    candidates = set(factorize(math.gcd(abs(f.numerator), abs(h.numerator))))
    for val in (f, h):
        if val.denominator > 1:
            candidates |= set(factorize(val.denominator))
    candidates -= inf_primes
    i = 1
    exps: dict[int, int | float] = {p: INF for p in inf_primes}
    for p in sorted(candidates):
        m = min(_valuation(f, p), _valuation(h, p))
        if m > 0:
            i *= p**m
        elif m < 0:
            exps[p] = -m
    return BaerType(i, SupernaturalNumber.from_exponents(exps))


def span_contains(f: Fraction, h: Fraction | None, v: int | None, x: Fraction) -> bool:
    """Exact membership of x in f*Z + h*Z[1/v], by direct decomposition."""
    x = Fraction(x)
    if x == 0:
        return True
    if h is None:
        return f != 0 and (x / f).denominator == 1
    depth = 1
    for p, e in factorize(x.denominator).items():
        if p in factorize(v):
            depth = max(depth, e + 1)
    extra = max(abs(_valuation(h, p)) for p in factorize(v))
    for k in range(depth + extra + 2):
        d = rational_gcd([f, h / Fraction(v) ** k])
        if d != 0 and (x / d).denominator == 1:
            return True
    return False


def baer_contains(t: BaerType, x: Fraction) -> bool:
    """Membership of x in S(i, Lambda): v_p(x) >= v_p(i) - Lambda_p for all p.

    Only primes of the denominator and of i can violate the floor (elsewhere
    the floor is <= 0 <= v_p(x)), so the numerator is never factorized.
    """
    x = Fraction(x)
    if x == 0:
        return True
    candidates = set(factorize(t.i))
    if x.denominator > 1:
        candidates |= set(factorize(x.denominator))
    for p in candidates:
        lam = t.lam.resolve(p)
        floor = _int_valuation(t.i, p) - (lam if lam != INF else INF)
        if floor != -INF and _valuation(x, p) < floor:
            return False
    return True


# ---------------------------------------------------------------------------
# Reports and the classification pipeline


class BoModuleReport(_Record):
    """The sigma and tail-sum tables as one integer table over the common
    denominator D = ``scale`` of ``RationalSequenceSpec.scaled_tail_sums``:
    D g_0, ..., D g_(N-1), whose running sums are D sigma_1, ..., D sigma_N.
    ``r_type`` is None when R = {0}; ``module`` is the frequency module, read
    off the same R."""

    __slots__ = ("scale", "scaled_tail_sums", "r_type", "module", "full_support", "depth")

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "sigma": _texts(itertools.accumulate(self.scaled_tail_sums), self.scale),
            "tail_sums": _texts(self.scaled_tail_sums[1:], self.scale),
            "r_type": self.r_type.to_json() if self.r_type else "trivial",
            "r_free": bool(self.r_type and is_free(self.r_type)),
            "full_support": self.full_support,
            "closure": self.module.closure(),
        }


def _texts(values: Iterable[int], scale: int) -> list[str]:
    """The text of each x / scale, reduced by one integer gcd."""
    texts = []
    for x in values:
        g = math.gcd(x, scale)
        texts.append(format_rational_pair(x // g, scale // g))
    return texts


def bo_tail_module(rule: BoRule, depth: int) -> BoModuleReport:
    """Exact presentation of R (the subgroup generated by the sigma values)
    together with the truncated sigma/tail-sum tables and the frequency
    module, R presented once for both.

    The report's guarantees: g_n = sigma_{n+1} - sigma_n for every tabulated
    n, every tabulated g_n lies in R, and R equals the emitted (i, Lambda)
    subgroup (both containments checkable via ``span_contains`` /
    ``baer_contains``).
    """
    if clamp_depth(rule, depth) < 2:
        raise ValidationError("tail-module report needs depth >= 2")
    s = rule.s
    span = _span_data(s)
    scale, values = s.scaled_tail_sums(depth)
    return BoModuleReport(
        scale,
        tuple(values),
        _baer_of_span(*span),
        _module_of_span(rule, span),
        s.full_support(),
        depth,
    )


def module_descriptor(rule: BoRule) -> ModuleDescriptor:
    """Components of the frequency module: Z on the unit generator (the
    squares reach 1 at j = 1), and the exact beta-coefficient subgroup, which
    is 2R since every beta-coordinate is -2 sigma_j."""
    return _module_of_span(rule, _span_data(rule.s))


def _module_of_span(rule: BoRule, span: _Span) -> ModuleDescriptor:
    comps = [ModuleComponent(UNIT, free_baer_type(Fraction(1)))]
    f, h, v = span
    if h is not None or f != 0:
        scaled = _baer_of_span(2 * f, 2 * h if h is not None else None, v)
        comps.append(ModuleComponent(rule.beta, scaled))
    return ModuleDescriptor(tuple(comps))


def bo_report(rule: BoRule, depth: int) -> dict:
    """Full JSON report: the tail tables, with the module classification
    embedded."""
    rep = bo_tail_module(rule, depth)
    return {**rep.to_json(), "module": module_report(rep.module, depth)}
