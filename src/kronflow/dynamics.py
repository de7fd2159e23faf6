"""Flow evaluation, the invariant average on trigonometric polynomials, and
closed-form time averages with their decay bounds.

Time averages of trigonometric polynomials are evaluated in closed form (the
integrand is a finite sum of exponentials): the window average of
exp(i nu . Theta) is exp(i nu . Theta0) (e^{iwT} - 1) / (iwT) with
w = nu . omega, bounded by 2 / (T |w|), so the decay bound can be checked
without discretization error; a sampled quadrature mode exists as a
cross-check.  Exact flow is available whenever the initial point is exact,
the time is rational (measured in turns), and all frequency coordinates sit
on a single generator.

The float paths (flow, trajectory sampling, quadrature, the minimality probe)
read the integer table of omega_1..omega_N once per call, make each omega_j a
double in fixed point, and form the angles (Theta0 + omega t) mod 2*pi for
all sample times at once as numpy arrays; the probe forms them only for the
samples whose first two angles are near the target's.  numpy is imported inside
those paths only, so the closed-form averages (``time_average``,
``equidistribution_report``) and ``import kronflow.dynamics`` never load it.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import ValidationError, _Record
from .exact_linalg import IntVecFin, parse_list, parse_rational
from .frequency import FrequencyVector, Generator, _value_at, clamp_depth, integer_rows, working_bits
from .resonance_reduction import resonance_basis
from .solenoid_geometry import TorusPoint

NEAR_RESONANCE_FLOOR = 1e-9
GENERATOR_RANGE = 1 << 14  # the float paths take generators of magnitude 2^-16384 .. 2^16384
TAU = 2 * math.pi
# minimality_probe samples in chunks that double from the first size up to the cap
PROBE_FIRST_CHUNK = 1 << 14
PROBE_MAX_CHUNK = 1_000_000
# the kinds of polynomial term, each with the optional fields it may carry
_TERM_FIELDS = {"const": (), "cos": ("scale",), "sin": ("scale",), "nu": ("re", "im")}


# ---------------------------------------------------------------------------
# Trigonometric polynomials with the reality constraint


class TrigPolynomial(_Record):
    """Finite sum  p(theta) = sum_nu a_nu exp(i nu . Theta)  with
    a_nu = conj(a_{-nu}), stored as exact (real, imag) rational pairs."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[IntVecFin, tuple[Fraction, Fraction]], ...]):
        table = dict(coeffs)
        if len(table) < len(coeffs):
            raise ValidationError("a monomial is repeated: give each nu one coefficient")
        for nu, (re, im) in table.items():
            mirror = table.get(-nu)
            if mirror is None or mirror[0] != re or mirror[1] != -im:
                raise ValidationError(
                    f"reality violated at {nu!r}: need a_nu = conj(a_(-nu))"
                )
        ordered = sorted(table.items(), key=lambda kv: tuple(kv[0].items()))
        super().__init__(tuple(ordered))

    @classmethod
    def from_table(
        cls, table: Mapping[IntVecFin, tuple[Fraction, Fraction]]
    ) -> "TrigPolynomial":
        return cls(tuple((nu, (Fraction(re), Fraction(im))) for nu, (re, im) in table.items()))

    @classmethod
    def constant(cls, c: Fraction | int) -> "TrigPolynomial":
        return cls.cosine(IntVecFin(), c)

    @classmethod
    def cosine(cls, nu: IntVecFin, scale: Fraction | int = 1) -> "TrigPolynomial":
        return _summed([_scaled("cos", nu, Fraction(scale))])

    @classmethod
    def sine(cls, nu: IntVecFin, scale: Fraction | int = 1) -> "TrigPolynomial":
        return _summed([_scaled("sin", nu, Fraction(scale))])

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        table: dict[IntVecFin, tuple[Fraction, Fraction]] = {}
        for nu, (re, im) in list(self.coeffs) + list(other.coeffs):
            old = table.get(nu, (Fraction(0), Fraction(0)))
            table[nu] = (old[0] + re, old[1] + im)
        return TrigPolynomial.from_table({k: v for k, v in table.items() if v != (0, 0)})


def _scaled(kind: str, nu: IntVecFin, s: Fraction) -> tuple[IntVecFin, Fraction, Fraction]:
    """(nu, re, im) of a_nu for s cos(nu . Theta) (kind "cos") or s sin(nu . Theta):
    s cos is s at nu = 0 and s/2 elsewhere, s sin is 0 at nu = 0 and -i s/2
    elsewhere; ``_summed`` adds the mirror at -nu."""
    if kind == "cos":
        return nu, s if nu.is_zero() else s / 2, Fraction(0)
    return nu, Fraction(0), Fraction(0) if nu.is_zero() else -s / 2


def _summed(terms: Iterable[tuple[IntVecFin, Fraction, Fraction]]) -> TrigPolynomial:
    """The sum of the terms a_nu = re + i im, each with its mirror conj(a_nu)
    at -nu for nu != 0, as one coefficient table: the polynomial (with its
    reality check) is built once from it."""
    table: dict[IntVecFin, tuple[Fraction, Fraction]] = {}
    for nu, re, im in terms:
        for key, part in ((nu, im), (-nu, -im)) if not nu.is_zero() else ((nu, im),):
            old_re, old_im = table.get(key, (0, 0))
            table[key] = (old_re + re, old_im + part)
    return TrigPolynomial.from_table({nu: c for nu, c in table.items() if c != (0, 0)})


def parse_polynomial(document: Mapping) -> TrigPolynomial:
    """JSON format: {"terms": [ {"const": "3"} | {"cos": {"1": 1}, "scale": "2"}
    | {"sin": ...} | {"nu": {...}, "re": "1/2", "im": "0"} ... ]}, summed
    into one coefficient table; a term has one kind and that kind's fields."""
    if not isinstance(document, Mapping) or "terms" not in document:
        raise ValidationError("polynomial spec needs field 'terms'")
    terms = []
    for k, term in enumerate(parse_list(document["terms"], "polynomial terms")):
        if not isinstance(term, Mapping):
            raise ValidationError(f"terms[{k}] must be an object, got {term!r}")
        kind = next((kind for kind in _TERM_FIELDS if kind in term), None)
        if kind is None or not set(term) <= {kind, *_TERM_FIELDS[kind]}:
            raise ValidationError(f"terms[{k}] must carry one of 'const', 'cos', 'sin' or 'nu' and only that "
                                  f"kind's fields, got the keys {sorted(map(str, term))}")
        if kind == "const":
            terms.append(_scaled("cos", IntVecFin(), parse_rational(term["const"])))
        elif kind == "nu":
            nu = IntVecFin.from_json(term["nu"])
            terms.append((nu, parse_rational(term.get("re", "0")), parse_rational(term.get("im", "0"))))
        else:
            terms.append(_scaled(kind, IntVecFin.from_json(term[kind]), parse_rational(term.get("scale", "1"))))
    return _summed(terms)


# ---------------------------------------------------------------------------
# Flow


def _single_generator(fv: FrequencyVector, depth: int):
    """The rational coefficients of omega_1..omega_depth if the table up to
    ``depth`` has at most one generator's row; otherwise None."""
    rows = integer_rows(fv, depth)
    if len(rows) > 1:
        return None
    scale, row = next(iter(rows.values()), (1, {}))
    return [Fraction(row.get(j, 0), scale) for j in range(1, depth + 1)]


class _OmegaTable:
    """The integer table of omega_1..omega_depth, read once for one request,
    and the one memo of a generator's number: each generator's number at
    each width, evaluated the first time a value made from the table needs
    it, so a generator that no value needs is never evaluated.  The memo
    lives as long as the request's table."""

    __slots__ = ("depth", "rows", "_numbers")

    def __init__(self, fv: FrequencyVector, depth: int):
        self.depth = depth
        self.rows = integer_rows(fv, depth)
        self._numbers: dict[tuple[int, Generator], tuple[int, int]] = {}

    def _number(self, gen: Generator, bits: int) -> tuple[int, int]:
        """(m, e) with gen's number at ``bits`` of mantissa m 2^e; a generator
        beyond 2^+-GENERATOR_RANGE is an error."""
        number = self._numbers.get((bits, gen))
        if number is None:
            sign, man, exp, size = _value_at(gen, bits)._mpf_
            if man and abs(exp + size) > GENERATOR_RANGE:
                raise ValidationError(f"generator {gen.name!r} is beyond 2^+-{GENERATOR_RANGE} for the float paths")
            number = self._numbers[bits, gen] = (-int(man) if sign else int(man), exp)
        return number

    def fixed_point(self, gens: tuple[Generator, ...], bits: int) -> tuple[list, int]:
        """([(row_g, F_g)], D) for the rows of ``gens``, a subsequence of the
        table's, with omega_j = sum_g row_g[j] F_g / D: where g's entry is
        (s_g, row_g) and its number at bits + 64 bits is m_g 2^e_g, S =
        lcm(s_g), e = min(0, e_g), D = S 2^-e, F_g = (S / s_g) m_g 2^(e_g - e)."""
        numbers = [self._number(g, bits + 64) for g in gens]
        scale = math.lcm(*(self.rows[g][0] for g in gens))
        low = min([0] + [exp for _, exp in numbers])
        return [(self.rows[g][1], (scale // self.rows[g][0] * man) << (exp - low))
                for g, (man, exp) in zip(gens, numbers)], scale << -low


def _to_double(terms: list[int], denominator: int, bits: int) -> float | None:
    """sum(terms) / denominator by one correctly rounded int/int division (+-inf
    past a double's range), or None when |sum| 2^bits <= sum |term|: the
    cancellation ate every working bit."""
    total = sum(terms)
    if abs(total) << bits <= sum(map(abs, terms)):
        return None
    try:
        return total / denominator
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _float_omegas(fv: FrequencyVector, depth: int) -> np.ndarray:
    """omega_1..omega_depth as doubles by ``_to_double``, 0.0 at an index with
    no coordinates; the first omega_j that overflows a double, or that
    cancels to 0 from nonempty coordinates (not one that underflows), is an
    error."""
    import numpy as np

    bits = working_bits()
    table = _OmegaTable(fv, depth)
    factors, denominator = table.fixed_point(tuple(table.rows), bits)
    omegas = [0.0] * depth
    for j in range(1, depth + 1):
        terms = [row[j] * f for row, f in factors if j in row]
        if terms:
            value = _to_double(terms, denominator, bits)
            if value is None:
                raise ValidationError(f"omega_{j} rounds to 0 at {bits} bits; raise --precision")
            if not math.isfinite(value):
                raise ValidationError(f"omega_{j} overflows a double")
            omegas[j - 1] = value
    return np.array(omegas)


def _flow_angles(fv: FrequencyVector, theta0: TorusPoint, ts) -> np.ndarray:
    """Float angles (Theta0 + omega t) mod 2*pi, one row per time in ``ts``,
    a monotone grid of finite times, so the largest |t| is at one of its ends;
    max |omega_j| times that |t| must not overflow a double."""
    import numpy as np

    clamp_depth(fv, theta0.depth)  # a point of depth 0 is an error
    base = np.array(theta0.to_radians())
    omegas = _float_omegas(fv, theta0.depth)
    ts = np.asarray(ts, dtype=float)
    reach = float(np.abs(omegas).max()) * float(max(abs(ts[0]), abs(ts[-1])))
    _require_finite(reach, "largest |omega_j t|")
    return (base + omegas * ts[:, None]) % TAU


def flow(fv: FrequencyVector, theta0: TorusPoint, t) -> TorusPoint:
    """Flow point Theta_j = Theta0_j + omega_j * t mod full turn, at the depth
    of ``theta0``.

    Exact when theta0 is exact, t is rational, and the coordinates sit on a
    single generator; the rational t is then measured in turns of that
    generator's scale (t = 1 advances the first unit-frequency angle by one
    full turn).  Otherwise floats, with t in radian time.  A point of depth 0
    is an error on both branches.
    """
    clamp_depth(fv, theta0.depth)
    if theta0.exact and isinstance(t, (int, Fraction)):
        coeffs = _single_generator(fv, theta0.depth)
        if coeffs is not None:
            t = Fraction(t)
            return TorusPoint.exact_point([(angle + c * t) % 1 for angle, c in zip(theta0.angles, coeffs)])

    t = float(t)
    _require_finite(t, "t")
    return TorusPoint.float_point(_flow_angles(fv, theta0, [t])[0])


# ---------------------------------------------------------------------------
# Averages


def haar_average(p: TrigPolynomial) -> Fraction:
    """The invariant average: constant-term extraction (all other monomials
    integrate to zero); the reality condition makes the constant term real."""
    return next((re for nu, (re, _) in p.coeffs if nu.is_zero()), Fraction(0))


def nu_dot_omega(fv: FrequencyVector, nu: IntVecFin, table: _OmegaTable | None = None) -> tuple[bool, float]:
    """(resonant?, float value of nu . omega).

    Resonance is decided in integers on the table of omega_1..omega_n, n =
    nu.max_index(): sum_j nu_j x_gj = 0 on every generator's row.  The value
    is made from the same integers by ``_to_double``; a non-resonant nu whose
    value rounds to 0 (by cancellation or underflow), or overflows a double,
    is an error.  ``table``, one request's table of fv at an index of at
    least n, is read instead of a new one.  Its rows are scaled otherwise
    than the table at n, but each entry over its scale is the same rational,
    and both the value and the cancellation test are the same at any scale.
    """
    if table is None or nu.max_index() > table.depth:
        table = _OmegaTable(fv, nu.max_index())
    sums = {g: n for g, (_, row) in table.rows.items() if (n := sum(v * row.get(j, 0) for j, v in nu.items()))}
    if not sums:
        return True, 0.0
    bits = working_bits()
    factors, denominator = table.fixed_point(tuple(sums), bits)
    value = _to_double([n * f for n, (_, f) in zip(sums.values(), factors)], denominator, bits)
    if not value:
        shown = {str(i): v for i, v in nu.items()}  # in index order, whatever order nu was built in
        raise ValidationError(f"omega . nu for non-resonant nu {shown} rounds to 0 at {bits} bits; raise --precision")
    _require_finite(value, "omega . nu")
    if abs(value) < NEAR_RESONANCE_FLOOR:
        warnings.warn(
            f"|omega . nu| = {abs(value):.3e} is below {NEAR_RESONANCE_FLOOR}; "
            "the decay bound is uninformative",
            stacklevel=2,
        )
    return False, value


def _check_within(nu: IntVecFin, depth: int) -> None:
    """Reject a monomial that touches an index of T^infinity beyond ``depth``."""
    for j in nu.support():
        if j > depth:
            raise ValidationError(f"monomial touches index {j} beyond depth {depth}")


def _phase_at(nu: IntVecFin, theta: TorusPoint) -> float:
    """nu . Theta in radians."""
    _check_within(nu, theta.depth)
    if theta.exact:
        frac = sum((v * theta.angles[j - 1] for j, v in nu.items()), Fraction(0))
        return TAU * float(frac % 1)
    total = 0.0
    for j, v in nu.items():
        total += v * theta.angles[j - 1]
    return total


def _require_finite(value: float, name: str) -> None:
    """Reject a nan or infinite time or tolerance with a ValidationError."""
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


def _check_window(t_final: float) -> None:
    _require_finite(t_final, "averaging window T")
    if t_final <= 0:
        raise ValidationError("averaging window T must be positive")


def _phases_and_frequencies(
    fv: FrequencyVector, nus: Sequence[IntVecFin], theta0: TorusPoint, t_finals: Sequence[float]
) -> list[tuple[complex, float]]:
    """(exp(i nu . Theta0), w = nu . omega) for each nu of ``nus``, where w is
    0.0 exactly when nu = 0 or nu is resonant.  Every window is checked
    first, then the depth of theta0 (at least 1) and every monomial against
    it, and only then is any frequency evaluated, once per nonzero monomial;
    |w| T must neither overflow a double nor, for w != 0, underflow to 0 for
    any pair.  The frequencies read one ``_OmegaTable``, at the largest index
    the monomials touch, clamped to the length of a finite vector."""
    for t_final in t_finals:
        _check_window(t_final)
    clamp_depth(fv, theta0.depth)  # a point of depth 0 is an error
    for nu in nus:
        _check_within(nu, theta0.depth)
    top = max((nu.max_index() for nu in nus), default=0)
    table = _OmegaTable(fv, clamp_depth(fv, top)) if top else None
    pairs = [
        (1.0 + 0.0j, 0.0) if nu.is_zero() else (cmath.exp(1j * _phase_at(nu, theta0)), nu_dot_omega(fv, nu, table)[1])
        for nu in nus
    ]
    w_max = max((abs(w) for _, w in pairs), default=0.0)
    _require_finite(w_max * max(t_finals, default=0.0), "largest |omega . nu| T")
    if min((abs(w) for _, w in pairs if w), default=math.inf) * min(t_finals, default=math.inf) == 0.0:
        raise ValidationError("smallest nonzero |omega . nu| T underflows to 0; widen the window T")
    return pairs


def _averaged_phase(phase0: complex, w: float, t_final: float) -> complex:
    """(1/T) integral_0^T exp(i (nu . Theta0 + w t)) dt for phase0 =
    exp(i nu . Theta0): phase0 itself when w = 0, else
    phase0 (e^{iwT} - 1) / (iwT)."""
    if w == 0.0:
        return phase0
    wt = w * t_final
    return phase0 * (cmath.exp(1j * wt) - 1.0) / (1j * wt)


def _decay_bound(scale: float, w: float, t_final: float) -> float:
    """2 |a| / (T |w|) for |a| = ``scale``: the bound on |a| times the window
    average of a monomial with w = nu . omega != 0; one past a double's
    range is an error."""
    bound = 2.0 * scale / (t_final * abs(w))
    _require_finite(bound, "decay bound 2 |a| / (T |omega . nu|)")
    return bound


def _coefficient(re: Fraction, im: Fraction) -> complex:
    """The float coefficient re + i im of a monomial; one past a double's
    range is an error."""
    try:
        return complex(float(re), float(im))
    except OverflowError:
        raise ValidationError("a polynomial coefficient is beyond a double's range") from None


def time_average(
    fv: FrequencyVector,
    p: TrigPolynomial,
    theta0: TorusPoint,
    t_finals: Sequence[float],
) -> list[tuple[float, float | None]]:
    """Closed-form (1/T) integral_0^T p(Phi^t(theta0)) dt for each window T,
    with its envelope, as one (value, envelope) pair per window.

    Resonant monomials contribute their constant value a_nu exp(i nu.Theta0);
    the others decay like 1/T with the explicit oscillatory factor.  The value
    sums the real parts of the terms: p is real, so the imaginary parts cancel
    up to the rounding of the phases.  The envelope bounds |value - haar| by
    the sum over the nonzero monomials of 2 |a_nu| / (T |nu . omega|); it is
    None when one of them is resonant, since that term never decays.
    """
    t_finals = [float(t_final) for t_final in t_finals]
    nus = [nu for nu, _ in p.coeffs]
    pairs = _phases_and_frequencies(fv, nus, theta0, t_finals)
    coeffs = [_coefficient(re, im) for _, (re, im) in p.coeffs]
    bounded = all(w != 0.0 or nu.is_zero() for nu, (_, w) in zip(nus, pairs))
    rows = []
    for t_final in t_finals:
        value, envelope = 0.0, 0.0
        for a, (phase0, w) in zip(coeffs, pairs):
            value += (a * _averaged_phase(phase0, w, t_final)).real
            if w != 0.0:
                envelope += _decay_bound(abs(a), w, t_final)
        _require_finite(value, "time average")
        _require_finite(envelope, "envelope")
        rows.append((value, envelope if bounded else None))
    return rows


def _polynomial_values(p: TrigPolynomial, angles: np.ndarray) -> np.ndarray:
    """p at every row of a float angle array, summed like evaluate_polynomial."""
    import numpy as np

    depth = angles.shape[1]
    total = np.zeros(len(angles), dtype=complex)
    for nu, (re, im) in p.coeffs:
        phase = np.zeros(len(angles))
        _check_within(nu, depth)
        for j, v in nu.items():
            phase += v * angles[:, j - 1]
        total += _coefficient(re, im) * np.exp(1j * phase)
    return total.real


def evaluate_polynomial(p: TrigPolynomial, theta: TorusPoint) -> float:
    total = 0.0 + 0.0j
    for nu, (re, im) in p.coeffs:
        total += _coefficient(re, im) * cmath.exp(1j * _phase_at(nu, theta))
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
    import numpy as np

    if samples < 3:
        raise ValidationError("quadrature needs at least 3 samples")
    _check_window(t_final)
    ts = np.linspace(0.0, t_final, samples)
    angles = _flow_angles(fv, theta0, ts)
    if isinstance(observable, TrigPolynomial):
        vals = _polynomial_values(observable, angles)
    else:
        vals = [observable(TorusPoint.float_point(row)) for row in angles]
    return float(np.trapezoid(vals, ts) / t_final)


# ---------------------------------------------------------------------------
# Equidistribution report


def equidistribution_report(
    fv: FrequencyVector,
    nus: Sequence[IntVecFin],
    t_finals: Sequence[float],
    theta0: TorusPoint,
) -> list[dict]:
    """The rows of ``kron equidistribution``, one per (nu, T): the magnitude
    of the window average of exp(i nu . Theta), the bound 2/(T |omega . nu|)
    and whether it holds.

    Resonant and zero monomials are flagged per row ("resonant", "zero")
    rather than rejected, with null magnitude, bound and pass; every window T
    must be finite and positive, and every monomial must lie within the depth
    of ``theta0`` (checked before any frequency is computed).
    """
    t_finals = [float(t_final) for t_final in t_finals]
    rows = []
    for nu, (phase0, w) in zip(nus, _phases_and_frequencies(fv, nus, theta0, t_finals)):
        for t_final in t_finals:
            row = {"nu": nu.to_json(), "T": t_final, "magnitude": None, "bound": None, "pass": None, "flag": None}
            if w == 0.0:
                row["flag"] = "zero" if nu.is_zero() else "resonant"
            else:
                row["magnitude"] = abs(_averaged_phase(phase0, w, t_final))
                row["bound"] = _decay_bound(1.0, w, t_final)
                row["pass"] = row["magnitude"] <= row["bound"] + 1e-12
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Minimality probe


def _rounding_margin(a: float, g: float, n_samples: int) -> float:
    """A bound, far above a few ulps of the largest phase, on the float
    rounding of k * step * turn - g and of a window's bounds on it."""
    return (n_samples * abs(a) + abs(g) + 1.0) * 2.0 ** -46


def _probe_candidates(a: float, g: float, radius: float, n_samples: int, second: tuple[float, float] | None = None):
    """Grid indices 0 <= k < n_samples, in increasing order and in the probe's
    doubling blocks, that include every k whose first angle k * a - g (in
    turns, computed as the probe computes it) lies within ``radius`` of an
    integer and, given ``second`` = (b, g2), whose second angle k * b - g2
    lies within 2 * radius of one.  Yields one index array per block,
    possibly empty, or nothing when no sample is near."""
    import numpy as np

    if second is not None:
        b, g2 = second
        r2 = 2.0 * radius + _rounding_margin(b, g2, n_samples)
        if not r2 < 0.5:  # every second angle is near (or b is not finite)
            second = None
    if a < 0:  # ||k a - g|| = ||k |a| + g||
        a, g = -a, -g
    r = radius + _rounding_margin(a, g, n_samples)
    off = g % 1.0
    whole = r >= 0.5 or (a == 0.0 and min(off, 1.0 - off) <= r)
    if a == 0.0 and not whole:  # every sample has the first angle of t = 0
        return
    start, chunk = 0, PROBE_FIRST_CHUNK
    while start < n_samples:
        end = min(start + chunk, n_samples)
        if whole:
            yield np.arange(start, end)
        else:
            m_lo, m_hi = math.floor(start * a - g - r), math.ceil(end * a - g + r)
            if m_hi - m_lo >= end - start:
                yield np.arange(start, end)
            else:
                # wrap m holds the run (g + m - r) / a <= k <= (g + m + r) / a
                m = np.arange(m_lo, m_hi + 1, dtype=float)
                with np.errstate(over="ignore"):  # a subnormal a: bounds clip from inf
                    lo = np.clip(np.ceil((g + m - r) / a), start, end).astype(np.int64)
                    hi = np.clip(np.floor((g + m + r) / a), start - 1, end - 1).astype(np.int64)
                lo[1:] = np.maximum(lo[1:], hi[:-1] + 1)
                sizes = np.maximum(hi - lo + 1, 0)
                if second is not None:
                    # the second angle is linear in k, so on the run it spans
                    # the segment between its values at the ends
                    ends = lo * b - g2, hi * b - g2
                    sizes[np.floor(np.maximum(*ends) + r2) < np.ceil(np.minimum(*ends) - r2)] = 0
                firsts = np.cumsum(sizes) - sizes
                yield np.repeat(lo - firsts, sizes) + np.arange(int(sizes.sum()))
        start += chunk
        chunk = min(2 * chunk, PROBE_MAX_CHUNK)


def minimality_probe(
    fv: FrequencyVector,
    target: TorusPoint,
    depth: int,
    epsilon: float,
    t_max: float,
    step: float | None = None,
) -> ProbeResult:
    """Smallest sampled t <= t_max with d_rho(flow(0, t), target) < epsilon,
    rho_k = 2^-k.  Requires a vector certified non-resonant at this depth.

    The samples are the grid t = k * step, k = 0 .. int(t_max / step).  At a
    hit, ``samples`` is k + 1 for the first hit; without one it is the grid
    size and (time, distance) is the first sample of least distance.  Either
    way ``samples`` is the grid index reached, not the number of samples
    evaluated: only samples near the target's first two angles are.  The
    distance is d = sum_k 2^-(k+1) delta_k, delta_k the circular distance of
    angle k in turns, so d >= delta_1 / 2 and d >= delta_2 / 4: d < epsilon
    forces delta_1 < 2 epsilon and delta_2 < 4 epsilon.  The first angle
    advances by a fixed a = step * omega_1 / 2 pi per sample, so for each wrap
    m the samples with delta_1 <= r form one run of indices k in (g_1 + m -+
    r) / a.  Non-resonance forces omega_1 != 0 (else e_1 is a relation); if
    its float still rounds to 0, the window holds every index or none.  At
    depth >= 2 a run is kept only if the second angle's phase k b - g_2, b =
    step * omega_2 / 2 pi, comes within r_2 = 2 r of an integer somewhere on
    it: the phase is linear in k, so on the run it spans the segment between
    its values at the two ends.  The runs are scanned in index order with r =
    2 epsilon, r and r_2 each plus a rounding margin, so the first hit ends
    the scan.  Without a hit, r doubles, but to no more than twice the least
    distance found, and the runs are scanned again until that distance is at
    most r / 2: a sample outside the runs has delta_1 > r or delta_2 > 2 r,
    so d > r / 2 either way, and none can be closer.  Each candidate's
    distance is the same float expression as on the full grid, so the result
    does not depend on the window.
    """
    import numpy as np

    from .probe_result import ProbeResult

    _require_finite(epsilon, "epsilon")
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    _require_finite(t_max, "t_max")
    if t_max < 0:
        raise ValidationError("t_max must be >= 0")
    if step is not None:
        _require_finite(step, "step")
        if step <= 0:
            raise ValidationError("step must be positive")
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
    for v in tgt:
        _require_finite(v, "target angle")
    weights = np.array([2.0 ** -(k + 1) for k in range(depth)])
    if step is None:
        step = epsilon / (4.0 * float(np.max(np.abs(omegas))))

    turns = omegas / TAU
    n_samples = int(t_max / step) + 1
    second = (step * turns[1], tgt[1]) if depth > 1 else None
    radius = 2.0 * epsilon
    while True:
        best_d, best_t = math.inf, None
        for ks in _probe_candidates(step * turns[0], tgt[0], radius, n_samples, second):
            if not ks.size:
                continue
            ts = (ks * step)[:, None]
            frac = (ts * turns[None, :] - tgt[None, :]) % 1.0
            dists = (np.minimum(frac, 1.0 - frac) * weights[None, :]).sum(axis=1)
            hit_idx = np.nonzero(dists < epsilon)[0]
            if hit_idx.size:
                i = int(hit_idx[0])
                return ProbeResult(True, float(ts[i, 0]), float(dists[i]), int(ks[i]) + 1)
            idx = int(np.argmin(dists))
            if dists[idx] < best_d:
                best_d, best_t = float(dists[idx]), float(ts[idx, 0])
        # a sample outside the runs has delta_1 > radius or delta_2 > 2 radius,
        # so d > radius / 2
        if best_d <= radius / 2 or radius >= 1.0:
            return ProbeResult(False, best_t, best_d, n_samples)
        radius = 2.0 * min(best_d, radius)


def __getattr__(name: str):
    if name == "ProbeResult":
        from .probe_result import ProbeResult

        return ProbeResult
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Trajectory sampling


def sample_trajectory(
    fv: FrequencyVector,
    theta0: TorusPoint,
    t0: float,
    t1: float,
    steps: int,
) -> list[tuple[float, list[float]]]:
    """Float trajectory samples (t, angles in [0, 2*pi)) on a uniform grid of
    steps + 1 times at the depth of ``theta0``, all computed before returning."""
    if steps < 1:
        raise ValidationError("trajectory needs at least one step")
    _require_finite(t0, "t0")
    _require_finite(t1, "t1")
    if t1 < t0:
        raise ValidationError("time window is reversed")
    ts = [t0 + (t1 - t0) * k / steps for k in range(steps + 1)]
    _require_finite(ts[-1], "last sample time")  # (t1 - t0) * steps can overflow
    return list(zip(ts, _flow_angles(fv, theta0, ts).tolist()))
