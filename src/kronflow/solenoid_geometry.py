"""Exact geometry of solenoidal orbit closures.

A depth-N solenoid for a sequence a is the set of angle vectors whose
normalized coordinates satisfy theta_j = a_{j+1} * theta_{j+1} mod 1 for all
j < N.  Exact points carry normalized angles (rationals in [0,1), i.e. the
angle divided by a full turn); float points carry radians in [0, 2*pi).  The
coordinate bijection maps a member point to the pair (tau, digit list) and
back, and the associated approximating times land on the target in the first
k coordinates exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError
from .exact_linalg import format_rational, parse_rational
from .frequency import SigmaSequence


@dataclass(frozen=True)
class TorusPoint:
    """A truncated point on the torus: wholly exact or wholly float.

    Exact angles are fractions of a turn in [0,1); float angles are radians
    in [0, 2*pi).
    """

    angles: tuple
    exact: bool

    @property
    def depth(self) -> int:
        return len(self.angles)

    @classmethod
    def exact_point(cls, values: Sequence[Fraction | int | str]) -> "TorusPoint":
        vals = tuple(Fraction(parse_rational(v) if isinstance(v, str) else v) % 1 for v in values)
        return cls(vals, True)

    @classmethod
    def float_point(cls, values: Sequence[float]) -> "TorusPoint":
        return cls(tuple(float(v) % (2 * math.pi) for v in values), False)

    @classmethod
    def origin(cls, depth: int, exact: bool = True) -> "TorusPoint":
        if exact:
            return cls.exact_point([Fraction(0)] * depth)
        return cls.float_point([0.0] * depth)

    def to_radians(self) -> list[float]:
        if self.exact:
            return [2 * math.pi * float(v) for v in self.angles]
        return list(self.angles)

    def to_json(self):
        if self.exact:
            return [format_rational(v) for v in self.angles]
        return list(self.angles)


@dataclass(frozen=True)
class SolenoidCoords:
    """(tau, digits): tau in [0,1) exact, digit n_j in {0, ..., a_j - 1}."""

    tau: Fraction
    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tau", Fraction(self.tau))
        if not 0 <= self.tau < 1:
            raise ValidationError(f"tau must lie in [0,1), got {self.tau}")

    @property
    def depth(self) -> int:
        return len(self.digits) + 1

    def to_json(self) -> dict:
        return {"tau": format_rational(self.tau), "digits": list(self.digits)}


def _require_exact(theta: TorusPoint, what: str) -> None:
    if not theta.exact:
        raise ValidationError(f"{what} requires an exact point")


def _check_digits(a: SigmaSequence, digits: Sequence[int]) -> None:
    for offset, n in enumerate(digits, start=2):
        bound = a.term(offset)
        if not 0 <= n < bound:
            raise ValidationError(
                f"digit n_{offset} = {n} outside range 0..{bound - 1}"
            )


def is_member(a: SigmaSequence, theta: TorusPoint) -> bool:
    """Exact membership at the point's depth: checks the N-1 defining relations."""
    _require_exact(theta, "solenoid membership")
    if theta.depth < 2:
        raise ValidationError("membership needs depth >= 2")
    vals = theta.angles
    for j in range(1, theta.depth):
        if (a.term(j + 1) * vals[j] - vals[j - 1]) % 1 != 0:
            return False
    return True


def to_coordinates(a: SigmaSequence, theta: TorusPoint) -> SolenoidCoords:
    """Digit extraction: tau = theta_1, n_j = a_j theta_j - theta_{j-1}."""
    _require_exact(theta, "coordinate extraction")
    if not is_member(a, theta):
        raise ValidationError("point is not a solenoid member at this depth")
    vals = theta.angles
    digits = []
    for j in range(2, theta.depth + 1):
        n = a.term(j) * vals[j - 1] - vals[j - 2]
        if n.denominator != 1:
            raise ValidationError("internal error: digit is not an integer")
        digits.append(int(n))
    coords = SolenoidCoords(vals[0], tuple(digits))
    _check_digits(a, coords.digits)
    return coords


def from_coordinates(a: SigmaSequence, coords: SolenoidCoords) -> TorusPoint:
    """Unique member with the given coordinates:

        theta_j = omega_j * (tau + sum_{m<=j} n_m / omega_{m-1}),
        omega_j = 1 / (a_1 ... a_j).
    """
    _check_digits(a, coords.digits)
    products = a.partial_products(coords.depth)  # a_1 ... a_j for j = 1..N
    vals = [coords.tau]
    acc = coords.tau  # tau + sum_{m<=j} n_m * (a_1 ... a_{m-1})
    for n, previous, product in zip(coords.digits, products, products[1:]):
        acc += n * previous
        theta_j = acc / product
        if not 0 <= theta_j < 1:
            raise ValidationError("internal error: reconstructed angle left [0,1)")
        vals.append(theta_j)
    point = TorusPoint.exact_point(vals)
    if not is_member(a, point):
        raise ValidationError("internal error: reconstructed point fails membership")
    return point


def approximating_times(a: SigmaSequence, coords: SolenoidCoords) -> list[Fraction]:
    """Times t_1..t_N (in turns) whose flow points match the target in the
    first k coordinates: t_k = tau + sum_{m=2..k} n_m / omega_{m-1}."""
    _check_digits(a, coords.digits)
    times = [Fraction(coords.tau)]
    acc = Fraction(coords.tau)
    for n, product in zip(coords.digits, a.partial_products(coords.depth - 1)):
        acc += n * product
        times.append(acc)
    return times


def orbit_point(a: SigmaSequence, t: Fraction, depth: int) -> TorusPoint:
    """Exact flow point of the solenoidal frequency rule at time t (in turns),
    started at the origin: theta_j = t / (a_1 ... a_j) mod 1."""
    t = Fraction(t)
    return TorusPoint.exact_point([t / product for product in a.partial_products(depth)])


def local_chart(a: SigmaSequence, theta: TorusPoint) -> tuple[Fraction, tuple[int, ...]]:
    """Interval-times-digits chart away from the slice theta_1 = 0."""
    coords = to_coordinates(a, theta)
    if coords.tau == 0:
        raise ValidationError("point lies outside the chart (theta_1 = 0 slice)")
    return coords.tau, coords.digits


# ---------------------------------------------------------------------------
# Product metric


@dataclass(frozen=True)
class GeometricWeights:
    """Weights rho_k = r**k for 0 < r < 1 (summable by construction)."""

    r: Fraction = Fraction(1, 2)

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if not 0 < self.r < 1:
            raise ValidationError("geometric weight ratio must satisfy 0 < r < 1")

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


def product_metric(
    rho: GeometricWeights | Sequence[float],
    theta: TorusPoint,
    phi: TorusPoint,
) -> tuple[float, float]:
    """d_rho(theta, phi) = sum_k rho_k d(theta_k, phi_k), plus the truncation
    tail bound sum_{k>N} rho_k.

    Explicit weight lists must be positive; for them the reported tail bound
    is 0 (the metric is the finitely weighted object itself).
    """
    if theta.depth != phi.depth:
        raise ValidationError("product metric needs equal depths")
    n = theta.depth
    if isinstance(rho, GeometricWeights):
        weights = [rho.weight(k) for k in range(1, n + 1)]
        tail = float(rho.tail(n))
    else:
        weights = [float(w) for w in rho[:n]]
        if len(weights) < n or any(w <= 0 for w in weights):
            raise ValidationError("explicit weights must be positive and cover the depth")
        tail = 0.0

    a_vals = theta.angles if theta.exact else [v / (2 * math.pi) for v in theta.angles]
    b_vals = phi.angles if phi.exact else [v / (2 * math.pi) for v in phi.angles]
    total = 0.0
    for k in range(n):
        total += float(weights[k]) * float(circle_distance(a_vals[k], b_vals[k]))
    return total, tail


def product_metric_exact(
    rho: GeometricWeights, theta: TorusPoint, phi: TorusPoint
) -> Fraction:
    """Exact d_rho for exact points with geometric weights."""
    if not (theta.exact and phi.exact):
        raise ValidationError("exact metric needs exact points")
    if theta.depth != phi.depth:
        raise ValidationError("product metric needs equal depths")
    total = Fraction(0)
    for k in range(theta.depth):
        total += rho.weight(k + 1) * circle_distance(theta.angles[k], phi.angles[k])
    return total
