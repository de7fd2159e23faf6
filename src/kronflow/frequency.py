"""Exact symbolic frequency vectors over declared rationally-independent generators.

A frequency vector is either a finite list of exact coordinate maps or one of
three rule-based infinite families (solenoidal product rule, the quadratic
integrable-flow rule, and the prime-power product construction), held as one
integer table (``integer_rows``).  A generator's number is made on demand via
mpmath, at the caller's working precision (``mpmath.workprec``), never below
64 bits; mpmath is imported only then (``working_bits``, ``_value_at``), so
the exact operations never load it.

Rational independence of the declared generators is an axiom of the input.
The built-in kinds (the rational unit, square roots of distinct primes, and
powers of pi) form sets whose independence is classical; ``opaque``
generators are trusted as declared.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction

from .errors import UnsupportedStructureError, ValidationError, _Record
from .exact_linalg import format_rational, parse_int, parse_list, parse_rational
from .primes import factorize, is_prime, nth_prime, odd_indexed_primes

DEFAULT_DEPTH = 16
DEFAULT_PRECISION_BITS = 64  # floor of every float evaluation's mantissa
_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")  # an opaque generator's value


def working_bits() -> int:
    """The mantissa of every float evaluation: the caller's mpmath working
    precision, raised to the DEFAULT_PRECISION_BITS floor."""
    import mpmath

    return max(mpmath.mp.prec, DEFAULT_PRECISION_BITS)


# ---------------------------------------------------------------------------
# Generators


_KIND_ORDER = {"rational_unit": 0, "sqrt_prime": 1, "pi_power": 2, "opaque": 3}


class Generator(_Record):
    """A real number declared rationally independent from the other generators.

    kind is one of ``rational_unit`` (the number 1), ``sqrt_prime`` (sqrt(p)),
    ``pi_power`` (pi**k), or ``opaque`` (value supplied as a decimal string
    with at least 30 significant digits, or omitted when only exact
    classification is needed).
    """

    # outside the fields, so eq, repr and ordering ignore it: the hash of the
    # fields, which copies and pickles rebuild, since a string's hash differs
    # between processes
    __slots__ = ("name", "kind", "param", "value_digits", "_hash")

    def __init__(self, name: str, kind: str, param: int | None = None, value_digits: str | None = None):
        if kind == "sqrt_prime":
            if param is None or not is_prime(param):
                raise ValidationError(f"generator {name!r}: sqrt_prime needs a prime param")
        elif kind == "pi_power":
            if param is None or param < 1:
                raise ValidationError(f"generator {name!r}: pi_power needs param >= 1")
        elif kind == "rational_unit":
            pass
        elif kind == "opaque":
            if value_digits is not None:
                if not _DECIMAL.fullmatch(value_digits):
                    raise ValidationError(
                        f"generator {name!r}: opaque value {value_digits!r} is not a decimal numeral"
                    )
                digits = sum(c.isdigit() for c in value_digits)
                if digits < 30:
                    raise ValidationError(
                        f"generator {name!r}: opaque value needs >= 30 significant digits"
                    )
        else:
            raise ValidationError(f"generator {name!r}: unknown kind {kind!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "value_digits", value_digits)
        object.__setattr__(self, "_hash", hash((name, kind, param, value_digits)))

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Generator") -> bool:
        """By kind, then param, then name: the order of the rows of a
        coordinate matrix and of the coordinates of a finite term."""
        return (_KIND_ORDER[self.kind], self.param or 0, self.name) < (
            _KIND_ORDER[other.kind], other.param or 0, other.name)


def _value_at(gen: Generator, bits: int) -> mpmath.mpf:
    """``gen``'s number at ``bits`` of mantissa, computed afresh and kept
    nowhere; the unit is the exact ``mpf(1)`` at every width."""
    import mpmath

    if gen.kind == "rational_unit":
        return mpmath.mpf(1)
    if gen.kind == "opaque" and gen.value_digits is None:
        raise ValidationError(f"generator {gen.name!r} is opaque with no declared numeric value")
    with mpmath.workprec(bits):
        if gen.kind == "sqrt_prime":
            return mpmath.sqrt(gen.param)
        if gen.kind == "pi_power":
            return mpmath.pi ** gen.param
        return mpmath.mpf(gen.value_digits)


UNIT = Generator("1", "rational_unit")


def sqrt_prime_generator(p: int) -> Generator:
    return Generator(f"sqrt{p}", "sqrt_prime", p)


def pi_power_generator(k: int) -> Generator:
    return Generator("pi" if k == 1 else f"pi^{k}", "pi_power", k)


def builtin_generator(name: str) -> Generator:
    """Resolve the built-in generator names: "1", "sqrt<p>", "pi", "pi^<k>"."""
    if name == "1":
        return UNIT
    if name.startswith("sqrt"):
        try:
            p = int(name[4:])
        except ValueError:
            raise ValidationError(f"generator name {name!r} is not builtin") from None
        return sqrt_prime_generator(p)
    if name == "pi":
        return pi_power_generator(1)
    if name.startswith("pi^"):
        try:
            k = int(name[3:])
        except ValueError:
            raise ValidationError(f"generator name {name!r} is not builtin") from None
        return pi_power_generator(k)
    raise ValidationError(f"generator name {name!r} is neither declared nor builtin")


# ---------------------------------------------------------------------------
# Integer sequences a = (1, a_2, a_3, ...) with structured tails


class SigmaSequence(_Record):
    """Sequence with a_1 = 1 and a_j > 1 afterwards, given as an explicit
    prefix plus a structured tail.

    Tails: ``constant`` c, ``periodic`` cycle, ``increment`` (a_j = j), and
    ``odd_indexed_primes`` (the tail enumerates the odd-indexed primes from
    the start of that class, regardless of prefix length).
    """

    __slots__ = ("prefix", "tail_kind", "tail_params")

    def __init__(self, prefix: tuple[int, ...], tail_kind: str, tail_params: tuple[int, ...] = ()):
        if not prefix or prefix[0] != 1:
            raise ValidationError("sequence prefix must start with a_1 = 1")
        if any(v <= 1 for v in prefix[1:]):
            raise ValidationError("sequence entries after a_1 must exceed 1")
        if tail_kind == "constant":
            if len(tail_params) != 1 or tail_params[0] <= 1:
                raise ValidationError("constant tail needs a single value > 1")
        elif tail_kind == "periodic":
            if not tail_params or any(v <= 1 for v in tail_params):
                raise ValidationError("periodic tail needs values > 1")
        elif tail_kind in ("increment", "odd_indexed_primes"):
            if tail_params:
                raise ValidationError(f"{tail_kind} tail takes no parameters")
        else:
            raise ValidationError(f"unknown sequence tail {tail_kind!r}")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail_kind", tail_kind)
        object.__setattr__(self, "tail_params", tail_params)

    def term(self, j: int) -> int:
        if j < 1:
            raise ValidationError(f"sequence index must be >= 1, got {j}")
        if j <= len(self.prefix):
            return self.prefix[j - 1]
        m = j - len(self.prefix)
        if self.tail_kind == "constant":
            return self.tail_params[0]
        if self.tail_kind == "periodic":
            return self.tail_params[(m - 1) % len(self.tail_params)]
        if self.tail_kind == "increment":
            return j
        return nth_prime(2 * m - 1)

    def terms(self, n: int) -> list[int]:
        """[a_1, ..., a_n]: the prefix slice, then the tail written at once."""
        head = list(self.prefix[: max(n, 0)])
        m = n - len(self.prefix)
        if m <= 0:
            return head
        if self.tail_kind == "constant":
            return head + [self.tail_params[0]] * m
        if self.tail_kind == "periodic":
            return head + list(itertools.islice(itertools.cycle(self.tail_params), m))
        if self.tail_kind == "increment":
            return head + list(range(len(self.prefix) + 1, n + 1))
        return head + odd_indexed_primes(m)

    def partial_product(self, j: int) -> int:
        """a_1 ... a_j (1 for j = 0).  No path of the library calls it, but the
        benchmark's tracer (``perfbench/spans.py``) wraps it by name, so it
        stays; ``tests/test_trace_harness.py`` guards that."""
        return math.prod(self.terms(j))

    def prefix_prime_exponents(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for v in self.prefix:
            for p, e in factorize(v).items():
                out[p] = out.get(p, 0) + e
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "SigmaSequence":
        if not isinstance(obj, Mapping) or "prefix" not in obj or "tail" not in obj:
            raise ValidationError("sequence needs 'prefix' and 'tail' fields")
        _fields(obj, "sequence", "prefix", "tail")
        prefix = tuple(parse_int(v, "sequence entry") for v in parse_list(obj["prefix"], "sequence prefix"))
        tail = obj["tail"]
        if isinstance(tail, str):
            return cls(prefix, tail)
        if isinstance(tail, Mapping):
            if "constant" in tail:
                _fields(tail, "constant tail", "constant")
                return cls(prefix, "constant", (parse_int(tail["constant"], "sequence entry"),))
            if "periodic" in tail:
                _fields(tail, "periodic tail", "periodic")
                cycle = parse_list(tail["periodic"], "periodic tail")
                return cls(prefix, "periodic", tuple(parse_int(v, "sequence entry") for v in cycle))
        raise ValidationError(f"malformed sequence tail {tail!r}")


# ---------------------------------------------------------------------------
# Nonnegative rational sequences with geometric tails (integrable-flow input)


class RationalSequenceSpec(_Record):
    """s = (s_k): explicit nonnegative prefix, then s_{L+m} = c * r^(m-1).

    c = 0 means finite support.  The weighted sum  sum_k k*s_k  is finite by
    construction (geometric tail), which the quadratic frequency rule needs.
    """

    __slots__ = ("prefix", "tail_c", "tail_r")

    def __init__(self, prefix: tuple[Fraction, ...] = (), tail_c: Fraction = Fraction(0),
                 tail_r: Fraction = Fraction(1, 2)):
        prefix = tuple(Fraction(v) for v in prefix)
        tail_c, tail_r = Fraction(tail_c), Fraction(tail_r)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail_c", tail_c)
        object.__setattr__(self, "tail_r", tail_r)
        if any(v < 0 for v in prefix):
            raise ValidationError("sequence prefix entries must be >= 0")
        if tail_c < 0:
            raise ValidationError("tail coefficient c must be >= 0")
        if tail_c > 0 and not (0 < tail_r < 1):
            raise ValidationError("tail ratio r must satisfy 0 < r < 1")

    def term(self, k: int) -> Fraction:
        if k < 1:
            raise ValidationError(f"sequence index must be >= 1, got {k}")
        L = len(self.prefix)
        if k <= L:
            return self.prefix[k - 1]
        if self.tail_c == 0:
            return Fraction(0)
        return self.tail_c * self.tail_r ** (k - L - 1)

    def support_is_finite(self) -> bool:
        return self.tail_c == 0

    def full_support(self) -> bool:
        return self.tail_c > 0 and all(v > 0 for v in self.prefix)

    def tail_sum(self, n: int) -> Fraction:
        """g_n = sum_{k > n} s_k, in closed form."""
        if n < 0:
            raise ValidationError("tail index must be >= 0")
        L = len(self.prefix)
        geo_total = self.tail_c / (1 - self.tail_r) if self.tail_c else Fraction(0)
        if n >= L:
            if self.tail_c == 0:
                return Fraction(0)
            return geo_total * self.tail_r ** (n - L)
        return sum(self.prefix[n:L], Fraction(0)) + geo_total

    def weighted_partial(self, j: int) -> Fraction:
        """sum_{k <= j} k * s_k, in closed form."""
        L = len(self.prefix)
        total = sum((k + 1) * self.prefix[k] for k in range(min(j, L)))
        if j > L and self.tail_c:
            m = j - L  # tail terms 1..m, weight L + i at tail position i
            r, c = self.tail_r, self.tail_c
            geom = (1 - r**m) / (1 - r)
            ramp = (1 - (m + 1) * r**m + m * r ** (m + 1)) / (1 - r) ** 2
            total += c * (L * geom + ramp)
        return Fraction(total)

    def sigma(self, j: int) -> Fraction:
        """sigma_j = sum_k min(j,k) s_k = (sum_{k<=j} k s_k) + j g_j."""
        if j < 1:
            raise ValidationError(f"sigma index must be >= 1, got {j}")
        return self.weighted_partial(j) + j * self.tail_sum(j)

    def scaled_tail_sums(self, n: int) -> tuple[int, Iterator[int]]:
        """(D, D g_0, ..., D g_{n-1}): the tail sums as integers over one
        common denominator D = lcm(prefix denominators, den g_L) q^(n-1-L),
        r = p/q (no power of q on a finite support).  D g_0 is the whole sum,
        then D g_k = D g_{k-1} - D s_k down the prefix and D g_{k+1} =
        (D g_k / q) p on the tail, each division exact (``tail_sum`` is the
        closed form)."""
        L, r = len(self.prefix), self.tail_r
        tail = self.tail_c / (1 - r) if self.tail_c else Fraction(0)  # g_L
        scale = math.lcm(tail.denominator, *(v.denominator for v in self.prefix))
        if self.tail_c and n - 1 > L:
            scale *= r.denominator ** (n - 1 - L)
        drops = [v.numerator * (scale // v.denominator) for v in self.prefix]
        p, q = r.numerator, r.denominator

        def values(g: int) -> Iterator[int]:
            for k in range(n):
                if k:
                    g = g - drops[k - 1] if k <= L else g // q * p
                yield g

        return scale, values(tail.numerator * (scale // tail.denominator) + sum(drops))

    def scaled_sigmas(self, n: int) -> tuple[int, Iterator[int]]:
        """(D, D sigma_1, ..., D sigma_n), D as for ``scaled_tail_sums``: the
        running sum of the tail sums, sigma_1 = g_0 and sigma_j = sigma_{j-1}
        + g_{j-1}."""
        scale, values = self.scaled_tail_sums(n)
        return scale, itertools.accumulate(values)

    @classmethod
    def from_json(cls, obj: Mapping) -> "RationalSequenceSpec":
        if not isinstance(obj, Mapping):
            raise ValidationError("action sequence must be an object with 'prefix'/'tail'")
        _fields(obj, "action sequence", "prefix", "tail")
        prefix = tuple(parse_rational(v) for v in parse_list(obj.get("prefix", ()), "action prefix"))
        tail = obj.get("tail")
        if tail is None:
            return cls(prefix)
        if not isinstance(tail, Mapping) or "c" not in tail or "r" not in tail:
            raise ValidationError("geometric tail needs fields 'c' and 'r'")
        _fields(tail, "geometric tail", "c", "r")
        return cls(prefix, parse_rational(tail["c"]), parse_rational(tail["r"]))


# ---------------------------------------------------------------------------
# Subgroup-of-Q presentations used by the product construction


class SubgroupOfQSpec(_Record):
    """Either the cyclic group r*Z (free) or Q(a) presented by a sequence."""

    __slots__ = ("free_generator", "qa")

    def __init__(self, free_generator: Fraction | None = None, qa: SigmaSequence | None = None):
        if (free_generator is None) == (qa is None):
            raise ValidationError("subgroup spec needs exactly one of 'free' or 'qa'")
        if free_generator is not None:
            free_generator = Fraction(free_generator)
            if free_generator <= 0:
                raise ValidationError("free subgroup generator must be positive")
        object.__setattr__(self, "free_generator", free_generator)
        object.__setattr__(self, "qa", qa)

    @property
    def is_free(self) -> bool:
        return self.free_generator is not None

    @classmethod
    def from_json(cls, obj: Mapping) -> "SubgroupOfQSpec":
        if not isinstance(obj, Mapping) or ("free" not in obj and "qa" not in obj):
            raise ValidationError("subgroup spec must carry 'free' or 'qa'")
        _fields(obj, "subgroup spec", "free", "qa")
        return cls(parse_rational(obj["free"]) if "free" in obj else None,
                   SigmaSequence.from_json(obj["qa"]) if "qa" in obj else None)


# ---------------------------------------------------------------------------
# Frequency vectors: one family object each

def _freeze_coords(coords: Mapping[Generator, Fraction]) -> tuple[tuple[Generator, Fraction], ...]:
    items = [(g, c) for g, c in coords.items() if c != 0]
    items.sort(key=lambda gc: gc[0])
    return tuple(items)


def _one_name_per_number(gens) -> None:
    """Reject a built-in number (the unit, sqrt(p), pi^k) under two names,
    which would hide the relation e_i -+ e_k; opaque generators are trusted."""
    numbers: dict[tuple, Generator] = {}  # the number a builtin kind names -> its first generator
    for gen in sorted(set(gens)):
        key = (gen.kind, None if gen.kind == "rational_unit" else gen.param)
        if gen.kind != "opaque" and numbers.setdefault(key, gen) is not gen:
            raise ValidationError(f"generators {numbers[key].name!r} and {gen.name!r} are the same number")


class Finite(_Record):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[tuple[Generator, Fraction], ...], ...]):
        _one_name_per_number(g for term in terms for g, _ in term)
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    def to_json(self) -> dict:
        return {"kind": "finite", "terms": [{g.name: format_rational(c) for g, c in term} for term in self.terms]}


class SolenoidRule(_Record):
    __slots__ = ("generator", "a")

    def __init__(self, generator: Generator, a: SigmaSequence):
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "a", a)


class BoRule(_Record):
    """omega_j = j^2 - 2 beta sigma_j for the actions gamma_k = beta * s_k,
    beta irrational (the integrable-flow family of ``benjamin_ono``)."""

    __slots__ = ("beta", "s")

    def __init__(self, beta: Generator, s: RationalSequenceSpec):
        if beta.kind == "rational_unit":
            raise ValidationError("the quadratic-rule scale must be an irrational generator")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "s", s)


class ProductConstruction(_Record):
    __slots__ = ("components",)

    def __init__(self, components: tuple[tuple[Generator, SubgroupOfQSpec], ...]):
        if not components:
            raise ValidationError("product construction needs at least one component")
        gens = [g for g, _ in components]
        for k, gen in enumerate(gens):
            if gen in gens[:k]:
                raise ValidationError(f"generator {gen.name!r} carries two product components")
        _one_name_per_number(gens)
        object.__setattr__(self, "components", components)


FrequencyVector = Finite | SolenoidRule | BoRule | ProductConstruction


def clamp_depth(fv: FrequencyVector, depth: int) -> int:
    """``depth``, clamped to the length of a finite vector: the depth rule
    of resonance bases, flow reduction, finite classification and
    trajectory sampling.  A depth below 1 is an error."""
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    return min(depth, len(fv)) if isinstance(fv, Finite) else depth


def finite_vector(maps: Sequence[Mapping[Generator, Fraction]]) -> Finite:
    return Finite(tuple(_freeze_coords(m) for m in maps))


def rational_vector(values: Sequence[Fraction | int | str]) -> Finite:
    """Finite vector with all coordinates on the rational unit generator."""
    return finite_vector([{UNIT: parse_rational(v) if isinstance(v, str) else Fraction(v)} for v in values])


# ---------------------------------------------------------------------------
# Operations


def _finite_terms(fv: FrequencyVector, depth: int) -> tuple:
    """The first ``depth`` terms (depth >= 0) of a finite vector; any other
    family is unknown."""
    if not isinstance(fv, Finite):
        raise UnsupportedStructureError(f"unknown frequency family {type(fv).__name__}")
    if depth > len(fv):
        raise ValidationError(f"index {depth} beyond finite vector of length {len(fv)}")
    return fv.terms[:depth]


def _chains(fv: SolenoidRule | ProductConstruction, depth: int) -> dict[Generator, tuple[Sequence[int], list[int]]]:
    """Per generator of a sequence rule, the indices j_1 < ... < j_m <= depth
    it sits on, omega at j_t being 1 / (a_1 ... a_t) times it, and a_1..a_m.
    A product's non-free component k sits on the powers of p_k, and each free
    component, a = (1), on the next index left, while one is left."""
    if isinstance(fv, SolenoidRule):
        return {fv.generator: (range(1, depth + 1), fv.a.terms(depth))} if depth > 0 else {}
    chains, k = {}, 0
    for gen, spec in fv.components:
        if not spec.is_free:
            k += 1
            q = nth_prime(k)
            if powers := list(itertools.takewhile(depth.__ge__, (q**e for e in itertools.count(1)))):
                chains[gen] = (powers, spec.qa.terms(len(powers)))
    taken = {j for indices, _ in chains.values() for j in indices}
    free = (j for j in range(1, depth + 1) if j not in taken)
    for gen, spec in fv.components:
        if spec.is_free and (j := next(free, None)) is not None:
            chains[gen] = ([j], [1])
    return chains


def integer_rows(fv: FrequencyVector, depth: int) -> dict[Generator, tuple[int, dict[int, int]]]:
    """The exact table of omega_1..omega_depth: per generator (scale, {j:
    nonzero int}, j increasing), its coordinate in omega_j the int over the
    scale > 0, an absent j a zero.  A sequence rule's row on a chain is (a_1
    ... a_m, {j_t: a_(t+1) ... a_m}), one reversed running product; a BO
    rule's are (1, j^2) and (D, -2 D sigma_j) from ``scaled_sigmas``; a finite
    vector's row is scaled by the lcm of its denominators."""
    if depth < 0:
        raise ValidationError(f"frequency depth must be >= 0, got {depth}")
    if isinstance(fv, (SolenoidRule, ProductConstruction)):
        rows = {}
        for gen, (indices, terms) in _chains(fv, depth).items():
            scale, *entries = reversed(list(itertools.accumulate(reversed(terms), operator.mul, initial=1)))
            rows[gen] = (scale, dict(zip(indices, entries)))
        return rows
    if isinstance(fv, BoRule):
        scale, sigmas = fv.s.scaled_sigmas(depth)
        return {UNIT: (1, {j: j * j for j in range(1, depth + 1)}),
                fv.beta: (scale, {j: -2 * s for j, s in enumerate(sigmas, 1) if s})}
    rows: dict = {}  # generator -> [(j, nonzero coordinate)], then its scaled row
    for j, term in enumerate(_finite_terms(fv, depth), 1):
        for g, x in term:
            rows.setdefault(g, []).append((j, x))
    for g, row in rows.items():
        scale = math.lcm(*(x.denominator for _, x in row))
        rows[g] = (scale, {j: x.numerator * (scale // x.denominator) for j, x in row})
    return rows


# ---------------------------------------------------------------------------
# Parsing


def _fields(obj: Mapping, what: str, *allowed: str) -> None:
    """Reject the first key of the spec object ``obj`` that is not one of its fields."""
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{what} has no field {key!r}")


def _generator_from_json(obj: Mapping) -> Generator:
    if not isinstance(obj, Mapping) or "name" not in obj or "kind" not in obj:
        raise ValidationError("generator declarations need 'name' and 'kind'")
    _fields(obj, "generator declaration", "name", "kind", "param", "value")
    kind = obj["kind"]
    param = obj.get("param")
    value = obj.get("value")
    if value is not None and not isinstance(value, str):
        raise ValidationError(f"generator {obj['name']!r}: value must be a decimal string, got {value!r}")
    return Generator(
        str(obj["name"]),
        str(kind),
        parse_int(param, "generator param") if param is not None else None,
        value,
    )


def _resolve_generator(name_or_obj, declared: dict[str, Generator]) -> Generator:
    """A declared generator, or a builtin one, which joins ``declared`` so that
    each distinct name of a spec is built and checked once."""
    if isinstance(name_or_obj, Mapping):
        return _generator_from_json(name_or_obj)
    name = str(name_or_obj)
    if name not in declared:
        declared[name] = builtin_generator(name)
    return declared[name]


_SPEC_FIELDS = {"finite": ("terms",), "solenoid": ("a", "generator"), "bo": ("s", "beta"), "product": ("components",)}


def parse_frequency_spec(document: str | Mapping) -> FrequencyVector:
    """Parse and validate the JSON frequency-vector format.

    Top level: {"kind": "finite"|"solenoid"|"bo"|"product", optional
    "generators": [{name, kind, param?, value?}], plus the family's fields}.
    Rationals are strings "p/q"; sequences are {"prefix": [...], "tail": ...}.
    Each object takes its own fields only; any other key is an error.
    """
    if isinstance(document, str):
        try:
            obj = json.loads(document)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"spec is not valid JSON: {exc}") from None
    else:
        obj = document
    if not isinstance(obj, Mapping):
        raise ValidationError("spec must be a JSON object")
    kind = obj.get("kind")
    declared = {}
    for g in parse_list(obj.get("generators", ()), "generators"):
        gen = _generator_from_json(g)
        if declared.setdefault(gen.name, gen) is not gen:
            raise ValidationError(f"generator {gen.name!r} is declared twice")
    fields = _SPEC_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ValidationError(f"unknown spec kind {kind!r}")
    _fields(obj, f"{kind} spec", "kind", "generators", *fields)
    if fields[0] not in obj:  # each kind's first field is the one it needs
        raise ValidationError(f"{kind} spec needs field {fields[0]!r}")

    if kind == "finite":
        maps = []
        for k, term in enumerate(parse_list(obj["terms"], "finite terms")):
            if not isinstance(term, Mapping):
                raise ValidationError(f"terms[{k}] must map generator names to rationals")
            maps.append({_resolve_generator(name, declared): parse_rational(val) for name, val in term.items()})
        if not maps:
            raise ValidationError("finite spec needs at least one term")
        return finite_vector(maps)

    if kind == "solenoid":
        a = SigmaSequence.from_json(obj["a"])
        return SolenoidRule(_resolve_generator(obj.get("generator", "1"), declared), a)

    if kind == "bo":
        s = RationalSequenceSpec.from_json(obj["s"])
        return BoRule(_resolve_generator(obj.get("beta", {"name": "beta", "kind": "opaque"}), declared), s)

    components = parse_list(obj["components"], "product components")
    return build_product_vector([SubgroupOfQSpec.from_json(c) for c in components])


def build_product_vector(groups: Sequence[SubgroupOfQSpec]) -> ProductConstruction:
    """Assign generators to subgroup specs per the prime-power layout.

    Non-free component n gets sqrt(p_n) and lives on indices p_n^N; free
    component k gets pi^k on the k-th unreserved index.
    """
    free, nonfree = itertools.count(1), itertools.count(1)  # the k of each free, the n of each non-free
    return ProductConstruction(tuple(
        (pi_power_generator(next(free)) if spec.is_free else sqrt_prime_generator(nth_prime(next(nonfree))), spec)
        for spec in groups))

