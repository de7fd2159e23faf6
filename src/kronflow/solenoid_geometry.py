"""Exact geometry of solenoidal orbit closures.

A depth-N solenoid for a sequence a is the set of angle vectors whose
normalized coordinates satisfy theta_j = a_{j+1} * theta_{j+1} mod 1 for all
j < N.  Exact points carry normalized angles (rationals in [0,1), i.e. the
angle divided by a full turn); float points carry radians in [0, 2*pi).  The
coordinate bijection maps a member point to the pair (tau, digit list) and
back, and the associated approximating times land on the target in the first
k coordinates exactly.  Membership and coordinates check the relations on
integer pairs (p_j, q_j), theta_j = p_j / q_j: an exact point's Fractions, or
the pairs the CLI reads, which are neither reduced nor made Fractions.  The
approximating times and their target are made as reduced integer pairs too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import ValidationError, _Record
from .exact_linalg import format_rational, parse_rational
from .frequency import SigmaSequence

# angles as integer pairs (p_j, q_j), theta_j = p_j / q_j with q_j > 0
Pair = tuple[int, int]
Pairs = Sequence[Pair]


class TorusPoint(_Record):
    """A truncated point on the torus: wholly exact or wholly float.

    Exact angles are fractions of a turn in [0,1); float angles are radians
    in [0, 2*pi).
    """

    __slots__ = ("angles", "exact")

    def __init__(self, angles: tuple, exact: bool):
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "exact", exact)

    @property
    def depth(self) -> int:
        return len(self.angles)

    @classmethod
    def exact_point(cls, values: Sequence[Fraction | int | str]) -> "TorusPoint":
        vals = [parse_rational(v) if isinstance(v, str) else Fraction(v) for v in values]
        return cls(tuple(x if 0 <= x.numerator < x.denominator else x % 1 for x in vals), True)

    @classmethod
    def float_point(cls, values: Sequence[float]) -> "TorusPoint":
        return cls(tuple(float(v) % (2 * math.pi) for v in values), False)

    @classmethod
    def origin(cls, depth: int) -> "TorusPoint":
        return cls((Fraction(0),) * depth, True)

    def to_radians(self) -> list[float]:
        if self.exact:
            return [2 * math.pi * float(v) for v in self.angles]
        return list(self.angles)


class SolenoidCoords(_Record):
    """(tau, digits): tau in [0,1) exact, digit n_j in {0, ..., a_j - 1}."""

    __slots__ = ("tau", "digits")

    def __init__(self, tau: Fraction, digits: tuple[int, ...]):
        if not isinstance(tau, Fraction):
            tau = Fraction(tau)
        if not 0 <= tau < 1:
            raise ValidationError(f"tau must lie in [0,1), got {tau}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "digits", digits)

    @property
    def depth(self) -> int:
        return len(self.digits) + 1

    def to_json(self) -> dict:
        return {"tau": format_rational(self.tau), "digits": list(self.digits)}


def _check_digits(terms: Sequence[int], digits: Sequence[int]) -> None:
    for offset, n in enumerate(digits, start=2):
        if not 0 <= n < terms[offset - 1]:
            raise ValidationError(f"digit n_{offset} = {n} outside range 0..{terms[offset - 1] - 1}")


def _digits(terms: Sequence[int], pairs: Pairs) -> list[int] | None:
    """n_j = a_j theta_j - theta_{j-1} for j = 2..N, or None if a relation fails, on angles
    given as pairs theta_j = p_j/q_j with q_j > 0, in lowest terms or not.  When q_{j-1}
    divides q_j, with g = q_j / q_{j-1}, n_j = (a_j p_j - g p_{j-1}) / q_j, so the relation
    holds iff q_j divides a_j p_j - g p_{j-1}: linear in the size of the angles.  A member
    in lowest terms always takes this branch (theta_{j-1} = a_j theta_j - n_j has a
    denominator dividing q_j); any other pair takes one cross-multiplication."""
    if len(pairs) < 2:
        raise ValidationError("membership needs depth >= 2")
    digits = []
    p0, q0 = pairs[0]
    for a_j, (p, q) in zip(terms[1:], pairs[1:]):
        g, s = divmod(q, q0)
        n, r = divmod(a_j * p * q0 - p0 * q, q * q0) if s else divmod(a_j * p - g * p0, q)
        if r:
            return None
        digits.append(n)
        p0, q0 = p, q
    return digits


def _pairs(theta: TorusPoint | Pairs, what: str) -> Pairs:
    """theta's angles as (numerator, denominator) pairs: an exact point's
    Fractions, or pairs as given."""
    if not isinstance(theta, TorusPoint):
        return theta
    if not theta.exact:
        raise ValidationError(f"{what} requires an exact point")
    return [(x.numerator, x.denominator) for x in theta.angles]


def _running_sums(terms: Sequence[int], coords: SolenoidCoords) -> Iterator[tuple[int, int]]:
    """(u + v sum_{m<=j} n_m A_{m-1}, v A_j) for j = 2..N: tau = u/v, A_j = a_1 ... a_j."""
    _check_digits(terms, coords.digits)
    acc, scale = coords.tau.numerator, coords.tau.denominator
    for n, a_j in zip(coords.digits, terms[1:]):
        acc += n * scale
        scale *= a_j
        yield acc, scale


def is_member(a: SigmaSequence, theta: TorusPoint | Pairs) -> bool:
    """Exact membership at the point's depth: checks the N-1 defining relations.
    theta is an exact point or its angles as (p_j, q_j) pairs, q_j > 0."""
    pairs = _pairs(theta, "solenoid membership")
    return _digits(a.terms(len(pairs)), pairs) is not None


def to_coordinates(a: SigmaSequence, theta: TorusPoint | Pairs) -> SolenoidCoords:
    """Digit extraction: tau = theta_1, n_j = a_j theta_j - theta_{j-1}; theta
    as for ``is_member``, and only tau is reduced."""
    pairs = _pairs(theta, "coordinate extraction")
    terms = a.terms(len(pairs))
    digits = _digits(terms, pairs)
    if digits is None:
        raise ValidationError("point is not a solenoid member at this depth")
    tau = theta.angles[0] if isinstance(theta, TorusPoint) else Fraction(*pairs[0])
    coords = SolenoidCoords(tau, tuple(digits))
    _check_digits(terms, coords.digits)
    return coords


def times_and_target(a: SigmaSequence, coords: SolenoidCoords) -> tuple[list[Pair], list[Pair]]:
    """The approximating times t_1..t_N (in turns) and the target theta_1..theta_N,
    the unique member with the given coordinates, as reduced pairs (p, q), q > 0:

        t_j = tau + sum_{m=2..j} n_m A_(m-1),    theta_j = t_j / A_j,    A_j = a_1 ... a_j.

    With tau = u/v, t_j = acc_j / v and theta_j = acc_j / (v A_j), for acc_j = u +
    v sum_{m<=j} n_m A_(m-1).  Since acc_j = u (mod v), gcd(acc_j, v) = gcd(u, v) = 1:
    t_j is reduced, and theta_j reduces by g_j = gcd(acc_j, v A_j) = gcd(acc_j, A_j).

    That gcd needs no second number of N log N bits: g_1 = gcd(u, 1) = 1 and
    g_j = gcd(acc_j, g_(j-1) a_j).  Proof: acc_j = acc_(j-1) (mod v A_(j-1)), so
    gcd(acc_j, A_(j-1)) = g_(j-1).  And gcd(x, B c) = gcd(x, gcd(x, B) c) for all
    x, B, c: at each prime p, replacing v_p(B) by min(v_p(x), v_p(B)) leaves
    min(v_p(x), v_p(B) + v_p(c)) unchanged, since when the new value is v_p(x)
    both minima are v_p(x).  Take x = acc_j, B = A_(j-1), c = a_j.

    Each target pair is checked to lie in [0,1), and the target is re-checked
    for membership against the digits."""
    terms = a.terms(coords.depth)
    u, v = coords.tau.numerator, coords.tau.denominator
    times, target, g = [(u, v)], [(u, v)], 1
    for (acc, scale), a_j in zip(_running_sums(terms, coords), terms[1:]):
        if not 0 <= acc < scale:
            raise ValidationError("internal error: reconstructed angle left [0,1)")
        g = math.gcd(acc, g * a_j)
        times.append((acc, v))
        target.append((acc // g, scale // g))
    if _digits(terms, target) != list(coords.digits):
        raise ValidationError("internal error: reconstructed point fails membership")
    return times, target


def local_chart(a: SigmaSequence, theta: TorusPoint) -> tuple[Fraction, tuple[int, ...]]:
    """Interval-times-digits chart away from the slice theta_1 = 0."""
    coords = to_coordinates(a, theta)
    if coords.tau == 0:
        raise ValidationError("point lies outside the chart (theta_1 = 0 slice)")
    return coords.tau, coords.digits


# ---------------------------------------------------------------------------
# Product metric


class GeometricWeights(_Record):
    """Weights rho_k = r**k for 0 < r < 1 (summable by construction)."""

    __slots__ = ("r",)

    def __init__(self, r: Fraction = Fraction(1, 2)):
        r = Fraction(r)
        if not 0 < r < 1:
            raise ValidationError("geometric weight ratio must satisfy 0 < r < 1")
        object.__setattr__(self, "r", r)

    def weight(self, k: int) -> Fraction:
        return self.r**k

    def tail(self, n: int) -> Fraction:
        """sum_{k>n} rho_k = r^(n+1) / (1-r)."""
        return self.r ** (n + 1) / (1 - self.r)


def circle_distance(x, y):
    """Arc distance between normalized angles on the unit-circumference
    circle (values in [0, 1/2]); exact for Fraction inputs."""
    d = (x - y) % 1
    return min(d, 1 - d)


def product_metric(rho: GeometricWeights, theta: TorusPoint, phi: TorusPoint) -> tuple:
    """d_rho(theta, phi) = sum_k rho_k d(theta_k, phi_k), plus the truncation
    tail bound sum_{k>N} rho_k: exact in, exact out, so both are Fractions
    when both points are exact and floats otherwise."""
    if theta.depth != phi.depth:
        raise ValidationError("product metric needs equal depths")
    turns = [p.angles if p.exact else [v / (2 * math.pi) for v in p.angles] for p in (theta, phi)]
    dists = map(circle_distance, *turns)
    total = sum((rho.weight(k) * d for k, d in enumerate(dists, 1)), Fraction(0))
    tail = rho.tail(theta.depth)
    return (total, tail) if theta.exact and phi.exact else (float(total), float(tail))
