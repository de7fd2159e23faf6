"""Flow evaluation, the invariant average on trigonometric polynomials, and
closed-form time averages with their decay bounds.

Time averages of trigonometric polynomials are evaluated in closed form (the
integrand is a finite sum of exponentials), so the decay bound
2 / (T |omega . nu|) can be checked without discretization error; a sampled
quadrature mode exists as a cross-check.  Exact flow is available whenever the
initial point is exact, the time is rational (measured in turns), and all
frequency coordinates sit on a single generator.

The float paths (flow, trajectory sampling, quadrature, the minimality probe)
evaluate omega_1..omega_N once per call, at the caller's working precision,
and form the angles (Theta0 + omega t) mod 2*pi for all sample times at once
as numpy arrays.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import mpmath
import numpy as np

from .errors import ValidationError
from .exact_linalg import IntVecFin, RowFiniteIntMatrix, parse_list, parse_rational
from .frequency import (
    FrequencyVector,
    Generator,
    coordinates,
    evaluate_float,
    working_bits,
)
from .resonance_reduction import resonance_basis
from .solenoid_geometry import TorusPoint

NEAR_RESONANCE_FLOOR = 1e-9
TAU = 2 * math.pi
# minimality_probe samples in chunks that double from the first size up to the cap
PROBE_FIRST_CHUNK = 1 << 14
PROBE_MAX_CHUNK = 1_000_000


# ---------------------------------------------------------------------------
# Trigonometric polynomials with the reality constraint


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite sum  p(theta) = sum_nu a_nu exp(i nu . Theta)  with
    a_nu = conj(a_{-nu}), stored as exact (real, imag) rational pairs."""

    coeffs: tuple[tuple[IntVecFin, tuple[Fraction, Fraction]], ...]

    def __post_init__(self):
        table = {nu: c for nu, c in self.coeffs}
        for nu, (re, im) in table.items():
            mirror = table.get(-nu)
            if mirror is None or mirror[0] != re or mirror[1] != -im:
                raise ValidationError(
                    f"reality violated at {nu!r}: need a_nu = conj(a_(-nu))"
                )
        ordered = sorted(table.items(), key=lambda kv: tuple(kv[0].items()))
        object.__setattr__(self, "coeffs", tuple(ordered))

    def items(self):
        return self.coeffs

    def constant_term(self) -> tuple[Fraction, Fraction]:
        for nu, c in self.coeffs:
            if nu.is_zero():
                return c
        return (Fraction(0), Fraction(0))

    @classmethod
    def from_table(
        cls, table: Mapping[IntVecFin, tuple[Fraction, Fraction]]
    ) -> "TrigPolynomial":
        return cls(tuple((nu, (Fraction(re), Fraction(im))) for nu, (re, im) in table.items()))

    @classmethod
    def constant(cls, c: Fraction | int) -> "TrigPolynomial":
        return cls.from_table({IntVecFin(): (Fraction(c), Fraction(0))})

    @classmethod
    def one(cls) -> "TrigPolynomial":
        return cls.constant(1)

    @classmethod
    def cosine(cls, nu: IntVecFin, scale: Fraction | int = 1) -> "TrigPolynomial":
        s = Fraction(scale)
        if nu.is_zero():
            return cls.constant(s)
        return cls.from_table({nu: (s / 2, Fraction(0)), -nu: (s / 2, Fraction(0))})

    @classmethod
    def sine(cls, nu: IntVecFin, scale: Fraction | int = 1) -> "TrigPolynomial":
        s = Fraction(scale)
        if nu.is_zero():
            return cls.constant(0)
        return cls.from_table({nu: (Fraction(0), -s / 2), -nu: (Fraction(0), s / 2)})

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        table: dict[IntVecFin, tuple[Fraction, Fraction]] = {}
        for nu, (re, im) in list(self.coeffs) + list(other.coeffs):
            old = table.get(nu, (Fraction(0), Fraction(0)))
            table[nu] = (old[0] + re, old[1] + im)
        return TrigPolynomial.from_table({k: v for k, v in table.items() if v != (0, 0)})


def parse_polynomial(document: Mapping) -> TrigPolynomial:
    """JSON format: {"terms": [ {"const": "3"} | {"cos": {"1": 1}, "scale": "2"}
    | {"sin": ...} | {"nu": {...}, "re": "1/2", "im": "0"} ... ]}."""
    if not isinstance(document, Mapping) or "terms" not in document:
        raise ValidationError("polynomial spec needs field 'terms'")
    poly = TrigPolynomial.from_table({})
    for k, term in enumerate(parse_list(document["terms"], "polynomial terms")):
        if not isinstance(term, Mapping):
            raise ValidationError(f"terms[{k}] must be an object, got {term!r}")
        if "const" in term:
            poly = poly + TrigPolynomial.constant(parse_rational(term["const"]))
        elif "cos" in term:
            nu = IntVecFin.from_json(term["cos"])
            poly = poly + TrigPolynomial.cosine(nu, parse_rational(term.get("scale", "1")))
        elif "sin" in term:
            nu = IntVecFin.from_json(term["sin"])
            poly = poly + TrigPolynomial.sine(nu, parse_rational(term.get("scale", "1")))
        elif "nu" in term:
            nu = IntVecFin.from_json(term["nu"])
            re = parse_rational(term.get("re", "0"))
            im = parse_rational(term.get("im", "0"))
            poly = poly + TrigPolynomial.from_table(
                {nu: (re, im), -nu: (re, -im)} if not nu.is_zero() else {nu: (re, im)}
            )
        else:
            raise ValidationError(f"terms[{k}] must carry 'const', 'cos', 'sin', or 'nu'")
    return poly


# ---------------------------------------------------------------------------
# Flow


def _single_generator(fv: FrequencyVector, depth: int):
    """If all coordinates up to ``depth`` live on one generator, return the
    list of rational coefficients; otherwise None."""
    gen: Generator | None = None
    coeffs = []
    for j in range(1, depth + 1):
        c = coordinates(fv, j)
        if len(c) > 1:
            return None
        if c:
            (g, val), = c.items()
            if gen is None:
                gen = g
            elif gen != g:
                return None
            coeffs.append(val)
        else:
            coeffs.append(Fraction(0))
    return coeffs


def _float_omegas(fv: FrequencyVector, depth: int) -> np.ndarray:
    """omega_1..omega_depth as doubles, each evaluated once at the working
    precision."""
    return np.array([float(evaluate_float(fv, j)) for j in range(1, depth + 1)])


def _flow_angles(fv: FrequencyVector, theta0: TorusPoint, ts) -> np.ndarray:
    """Float angles (Theta0 + omega t) mod 2*pi, one row per time in ``ts``."""
    base = np.array(theta0.to_radians())
    omegas = _float_omegas(fv, theta0.depth)
    return (base + omegas * np.asarray(ts, dtype=float)[:, None]) % TAU


def flow(
    fv: FrequencyVector,
    theta0: TorusPoint | None,
    t,
    depth: int | None = None,
) -> TorusPoint:
    """Flow point Theta_j = Theta0_j + omega_j * t mod full turn.

    Exact when theta0 is exact, t is rational, and the coordinates sit on a
    single generator; the rational t is then measured in turns of that
    generator's scale (t = 1 advances the first unit-frequency angle by one
    full turn).  Otherwise floats, with t in radian time.
    """
    if theta0 is None:
        if depth is None:
            raise ValidationError("flow needs a point or an explicit depth")
        theta0 = TorusPoint.origin(depth)
    if depth is None:
        depth = theta0.depth
    if depth != theta0.depth:
        raise ValidationError(f"depth {depth} does not match point depth {theta0.depth}")

    if theta0.exact and isinstance(t, (int, Fraction)):
        coeffs = _single_generator(fv, depth)
        if coeffs is not None:
            t = Fraction(t)
            vals = [(theta0.angles[j] + coeffs[j] * t) % 1 for j in range(depth)]
            return TorusPoint.exact_point(vals)

    return TorusPoint.float_point(_flow_angles(fv, theta0, [float(t)])[0])


# ---------------------------------------------------------------------------
# Averages


def haar_average(p: TrigPolynomial) -> Fraction:
    """The invariant average: constant-term extraction (all other monomials
    integrate to zero)."""
    re, im = p.constant_term()
    if im != 0:
        raise ValidationError("reality forces a real constant term")
    return re


def _nu_omega_combination(fv: FrequencyVector, nu: IntVecFin) -> dict[Generator, Fraction]:
    combo: dict[Generator, Fraction] = {}
    for j, v in nu.items():
        for g, c in coordinates(fv, j).items():
            combo[g] = combo.get(g, Fraction(0)) + v * c
    return {g: c for g, c in combo.items() if c != 0}


def nu_dot_omega(
    fv: FrequencyVector, nu: IntVecFin, precision_bits: int | None = None
) -> tuple[bool, float]:
    """(resonant?, float value of nu . omega).

    Resonance is decided exactly in generator coordinates; the float value is
    computed from the exact coordinates at ``working_bits(precision_bits)``.
    A non-resonant nu whose value rounds to 0 at that precision is an error.
    """
    combo = _nu_omega_combination(fv, nu)
    if not combo:
        return True, 0.0
    bits = working_bits(precision_bits)
    with mpmath.workprec(bits):
        total = mpmath.mpf(0)
        for g, c in combo.items():
            total += mpmath.mpf(c.numerator) / c.denominator * g.float_value(bits)
    value = float(total)
    if value == 0.0:
        raise ValidationError(
            f"omega . nu for non-resonant nu {nu.to_json()} rounds to 0 at {bits} bits; "
            "raise --precision"
        )
    if abs(value) < NEAR_RESONANCE_FLOOR:
        warnings.warn(
            f"|omega . nu| = {value:.3e} is below {NEAR_RESONANCE_FLOOR}; "
            "the decay bound is uninformative",
            stacklevel=2,
        )
    return False, value


def _phase_at(nu: IntVecFin, theta: TorusPoint) -> float:
    """nu . Theta in radians."""
    if theta.exact:
        frac = Fraction(0)
        for j, v in nu.items():
            if j > theta.depth:
                raise ValidationError(f"monomial touches index {j} beyond depth {theta.depth}")
            frac += v * theta.angles[j - 1]
        return TAU * float(frac % 1)
    total = 0.0
    for j, v in nu.items():
        if j > theta.depth:
            raise ValidationError(f"monomial touches index {j} beyond depth {theta.depth}")
        total += v * theta.angles[j - 1]
    return total


def averaged_phase(
    fv: FrequencyVector, nu: IntVecFin, theta0: TorusPoint, t_final: float
) -> complex:
    """(1/T) integral_0^T exp(i nu . Theta(t)) dt in closed form."""
    if t_final <= 0:
        raise ValidationError("averaging window T must be positive")
    if nu.is_zero():
        return 1.0 + 0.0j
    resonant, value = nu_dot_omega(fv, nu)
    phase0 = cmath.exp(1j * _phase_at(nu, theta0))
    if resonant:
        return phase0
    wt = value * t_final
    return phase0 * (cmath.exp(1j * wt) - 1.0) / (1j * wt)


def time_average(
    fv: FrequencyVector, p: TrigPolynomial, theta0: TorusPoint, t_final: float
) -> float:
    """Closed-form (1/T) integral_0^T p(Phi^t(theta0)) dt.

    Resonant monomials contribute their constant value a_nu exp(i nu.Theta0);
    the others decay like 1/T with the explicit oscillatory factor.
    """
    total = 0.0 + 0.0j
    for nu, (re, im) in p.items():
        a = complex(re) + 1j * complex(im)
        total += a * averaged_phase(fv, nu, theta0, t_final)
    if abs(total.imag) > 1e-12:
        raise ValidationError("reality violated: average has a nonzero imaginary part")
    return total.real


def _polynomial_values(p: TrigPolynomial, angles: np.ndarray) -> np.ndarray:
    """p at every row of a float angle array, summed like evaluate_polynomial."""
    depth = angles.shape[1]
    total = np.zeros(len(angles), dtype=complex)
    for nu, (re, im) in p.items():
        phase = np.zeros(len(angles))
        for j, v in nu.items():
            if j > depth:
                raise ValidationError(f"monomial touches index {j} beyond depth {depth}")
            phase += v * angles[:, j - 1]
        total += (complex(re) + 1j * complex(im)) * np.exp(1j * phase)
    return total.real


def evaluate_polynomial(p: TrigPolynomial, theta: TorusPoint) -> float:
    total = 0.0 + 0.0j
    for nu, (re, im) in p.items():
        a = complex(re) + 1j * complex(im)
        total += a * cmath.exp(1j * _phase_at(nu, theta))
    return total.real


def time_average_quadrature(
    fv: FrequencyVector,
    observable: TrigPolynomial | Callable[[TorusPoint], float],
    theta0: TorusPoint,
    t_final: float,
    samples: int = 4001,
) -> float:
    """Trapezoid-rule average, O(step^2); cross-checks the closed form and
    handles non-polynomial observables."""
    if samples < 3:
        raise ValidationError("quadrature needs at least 3 samples")
    ts = np.linspace(0.0, t_final, samples)
    angles = _flow_angles(fv, theta0, ts)
    if isinstance(observable, TrigPolynomial):
        vals = _polynomial_values(observable, angles)
    else:
        vals = [observable(TorusPoint.float_point(row)) for row in angles]
    return float(np.trapezoid(vals, ts) / t_final)


# ---------------------------------------------------------------------------
# Equidistribution report


@dataclass(frozen=True)
class EquidistributionRow:
    nu: IntVecFin
    t_final: float
    magnitude: float | None
    bound: float | None
    passed: bool | None
    flag: str | None  # "resonant", "zero", or None

    def to_json(self) -> dict:
        return {
            "nu": self.nu.to_json(),
            "T": self.t_final,
            "magnitude": self.magnitude,
            "bound": self.bound,
            "pass": self.passed,
            "flag": self.flag,
        }


def equidistribution_report(
    fv: FrequencyVector,
    nus: Sequence[IntVecFin],
    t_finals: Sequence[float],
    theta0: TorusPoint,
) -> list[EquidistributionRow]:
    """Rows (nu, T, |time average of exp(i nu.Theta)|, 2/(T |omega.nu|), pass).

    Resonant and zero monomials are flagged per row rather than rejected.
    """
    rows = []
    for nu in nus:
        if nu.is_zero():
            for t_final in t_finals:
                rows.append(EquidistributionRow(nu, float(t_final), None, None, None, "zero"))
            continue
        resonant, value = nu_dot_omega(fv, nu)
        for t_final in t_finals:
            t_final = float(t_final)
            if resonant:
                rows.append(EquidistributionRow(nu, t_final, None, None, None, "resonant"))
                continue
            mag = abs(averaged_phase(fv, nu, theta0, t_final))
            bound = 2.0 / (t_final * abs(value))
            rows.append(EquidistributionRow(nu, t_final, mag, bound, mag <= bound + 1e-12, None))
    return rows


# ---------------------------------------------------------------------------
# Minimality probe and resonance confinement witness


@dataclass(frozen=True)
class ProbeResult:
    hit: bool
    time: float | None
    distance: float
    samples: int


def minimality_probe(
    fv: FrequencyVector,
    target: TorusPoint,
    depth: int,
    epsilon: float,
    t_max: float,
    step: float | None = None,
) -> ProbeResult:
    """Smallest sampled t <= t_max with d_rho(flow(0, t), target) < epsilon,
    rho_k = 2^-k.  Requires a vector certified non-resonant at this depth."""
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if not resonance_basis(fv, depth).is_trivial():
        raise ValidationError(
            "resonant vector at this depth: the orbit closure is a proper subgroup, "
            "so a density probe is meaningless (reduce the flow first)"
        )
    omegas = _float_omegas(fv, depth)
    if target.depth != depth:
        raise ValidationError(f"target depth {target.depth} != probe depth {depth}")
    tgt = np.array(
        [float(v) for v in target.angles]
        if target.exact
        else [v / TAU for v in target.angles]
    )
    weights = np.array([2.0 ** -(k + 1) for k in range(depth)])
    if step is None:
        step = epsilon / (4.0 * float(np.max(np.abs(omegas))))

    turns = omegas / TAU
    n_samples = int(t_max / step) + 1
    best_d, best_t = math.inf, None
    start, chunk = 0, PROBE_FIRST_CHUNK
    while start < n_samples:
        ts = (np.arange(start, min(start + chunk, n_samples)) * step)[:, None]
        frac = (ts * turns[None, :] - tgt[None, :]) % 1.0
        dists = (np.minimum(frac, 1.0 - frac) * weights[None, :]).sum(axis=1)
        idx = int(np.argmin(dists))
        if dists[idx] < best_d:
            best_d, best_t = float(dists[idx]), float(ts[idx, 0])
        hit_idx = np.nonzero(dists < epsilon)[0]
        if hit_idx.size:
            i = int(hit_idx[0])
            return ProbeResult(True, float(ts[i, 0]), float(dists[i]), start + i + 1)
        start += chunk
        chunk = min(2 * chunk, PROBE_MAX_CHUNK)
    return ProbeResult(False, best_t, best_d, n_samples)


def resonance_witness(
    fv: FrequencyVector,
    nu: IntVecFin,
    theta0: TorusPoint,
    times: Sequence[Fraction],
) -> bool:
    """Confinement check: nu . Theta(t) mod full turn stays at nu . Theta0,
    exactly, for every sampled rational time.

    The combination nu . Theta(t) equals nu . Theta0 plus t times the exact
    generator-coordinate sums of nu . omega; resonance makes those sums
    vanish, which is verified (not assumed) here.
    """
    if not theta0.exact:
        raise ValidationError("confinement witness needs an exact starting point")
    combo = _nu_omega_combination(fv, nu)
    if combo:
        raise ValidationError("nu is not resonant for this vector (nu . omega != 0)")
    base = Fraction(0)
    for j, v in nu.items():
        if j > theta0.depth:
            raise ValidationError(f"nu touches index {j} beyond depth {theta0.depth}")
        base += v * theta0.angles[j - 1]
    base %= 1
    for t in times:
        t = Fraction(t)
        drift = sum((coeff * t for coeff in combo.values()), Fraction(0))
        if (base + drift) % 1 != base:
            return False
    return True


# ---------------------------------------------------------------------------
# Conjugation of observables and trajectory sampling


def transform_polynomial(p: TrigPolynomial, a: RowFiniteIntMatrix) -> TrigPolynomial:
    """p composed with the automorphism of matrix ``a``: monomial exp(i nu.A Theta)
    equals exp(i (A* nu).Theta), so indices map through the transpose."""
    table = {}
    for nu, coeff in p.items():
        table[a.apply_transpose(nu)] = coeff
    return TrigPolynomial.from_table(table)


def sample_trajectory(
    fv: FrequencyVector,
    theta0: TorusPoint | None,
    t0: float,
    t1: float,
    steps: int,
    depth: int,
) -> list[tuple[float, list[float]]]:
    """Float trajectory samples (t, angles in [0, 2*pi)) on a uniform grid of
    steps + 1 times, all computed before returning."""
    if steps < 1:
        raise ValidationError("trajectory needs at least one step")
    if t1 < t0:
        raise ValidationError("time window is reversed")
    base = theta0 if theta0 is not None else TorusPoint.origin(depth)
    if base.depth != depth:
        raise ValidationError(f"depth {depth} does not match point depth {base.depth}")
    ts = [t0 + (t1 - t0) * k / steps for k in range(steps + 1)]
    return list(zip(ts, _flow_angles(fv, base, ts).tolist()))
