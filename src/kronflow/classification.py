"""Classification of frequency modules as direct sums of rank-1 subgroups of Q.

A rank-1 subgroup of the rationals is pinned down by a pair (i, Lambda): a
positive integer i and a formal product of primes with exponents in
N union {infinity} (a supernatural number).  Two such subgroups are
isomorphic exactly when the exponent lists agree at all but finitely many
primes and every disagreement involves two finite values.  The conversion
between a sequence presentation Q(a) and the (i, Lambda) descriptor goes via
prime-exponent accumulation in one direction and prime-power enumeration in
the other; structured tails are resolved analytically, never by sampling.

Orbit closures follow componentwise: a circle for each free component, a
solenoid carrying Lambda for each non-free one.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import UnsupportedStructureError, ValidationError, _Record
from .exact_linalg import hermite_transform
from .frequency import (
    BoRule,
    Finite,
    FrequencyVector,
    ProductConstruction,
    SigmaSequence,
    SolenoidRule,
    clamp_depth,
    integer_rows,
)
from .primes import factorize, is_odd_indexed_prime, nth_prime, prime_index

INF = math.inf

# prime-set tags used inside SupernaturalNumber pairs
_FINITE, _ALL, _ODD, _EVEN, _COFINITE = "finite", "all", "odd_indexed", "even_indexed", "cofinite"


def _check_exponent(e) -> int | float:
    if e == INF:
        return INF
    if isinstance(e, int) and e >= 0:
        return e
    raise ValidationError(f"exponent must be a nonnegative integer or infinity, got {e!r}")


def _format_exponent(e) -> object:
    return "inf" if e == INF else int(e)


def _covers(pset: tuple, p: int) -> bool:
    """Whether the prime set of a pair contains the prime p."""
    kind = pset[0]
    if kind == _FINITE:
        return p in pset[1]
    if kind == _COFINITE:
        return p not in pset[1]
    return kind == _ALL or (kind == _ODD) == is_odd_indexed_prime(p)


def _first_exponent(pairs, p: int):
    """The exponent of the first pair whose set contains p, or None."""
    return next((exp for pset, exp in pairs if _covers(pset, p)), None)


class SupernaturalNumber(_Record):
    """Formal product prod_p p^(Lambda_p) given as prioritized (prime set,
    exponent) pairs; the first matching pair wins.

    Supported prime sets: an explicit finite set, all primes, the odd- or
    even-indexed primes, and the complement of a finite set.  Construction
    canonicalizes the list (pairs fully shadowed by earlier ones are dropped)
    and checks that every prime resolves.

    Every pair treats a prime that no finite or cofinite set names the way it
    treats any other unnamed prime of the same index parity.  So all of this
    is decided on the probe primes: the named ones, then the next two primes
    after the largest of them, one odd-indexed and one even-indexed.
    """

    __slots__ = ("pairs", "_profile")

    def __init__(self, pairs: tuple[tuple[tuple, int | float], ...]):
        cleaned = []
        for pset, exp in pairs:
            kind = pset[0]
            if kind in (_FINITE, _COFINITE):
                pset = (kind, frozenset(int(p) for p in pset[1]))
                if kind == _FINITE and not pset[1]:
                    continue
            elif kind not in (_ALL, _ODD, _EVEN):
                raise ValidationError(f"unknown prime set kind {kind!r}")
            cleaned.append((pset, _check_exponent(exp)))
        named = sorted({p for pset, _ in cleaned if pset[0] in (_FINITE, _COFINITE) for p in pset[1]})
        k = max(map(prime_index, named), default=0)
        after = nth_prime(k + 1), nth_prime(k + 2)
        odd_probe, even_probe = after if k % 2 == 0 else after[::-1]
        probes = (*named, odd_probe, even_probe)
        # a pair is kept iff it covers a probe that no earlier kept pair covers
        kept, covered = [], set()
        for pset, exp in cleaned:
            hit = {p for p in probes if p not in covered and _covers(pset, p)}
            if hit:
                kept.append((pset, exp))
                covered |= hit
        odd_a, even_a = _first_exponent(kept, odd_probe), _first_exponent(kept, even_probe)
        if odd_a is None or even_a is None:
            raise ValidationError("prime-set pairs leave infinitely many primes unassigned")
        exceptions = {}
        for p in named:
            e = _first_exponent(kept, p)
            if e is None:
                raise ValidationError(f"prime {p} resolves to no exponent")
            if e != (odd_a if is_odd_indexed_prime(p) else even_a):
                exceptions[p] = e
        object.__setattr__(self, "_profile", (odd_a, even_a, exceptions))
        super().__init__(tuple(kept))

    def resolve(self, p: int):
        """Exponent assigned to the prime p (first matching pair)."""
        return _first_exponent(self.pairs, p)

    def profile(self):
        """(odd asymptotic, even asymptotic, finite exception map), computed
        once at construction; the map is shared, not copied."""
        return self._profile

    def to_json(self) -> dict:
        out = []
        for pset, exp in self.pairs:
            kind = pset[0]
            if kind == _FINITE:
                primes: object = sorted(pset[1])
            elif kind == _COFINITE:
                primes = {"all_except": sorted(pset[1])}
            else:
                primes = kind
            out.append({"primes": primes, "exp": _format_exponent(exp)})
        return {"pairs": out}

    # -- constructors

    @classmethod
    def all_infinite(cls) -> "SupernaturalNumber":
        return cls((((_ALL,), INF),))

    @classmethod
    def from_exponents(cls, exps: dict[int, int | float]) -> "SupernaturalNumber":
        pairs = [((_FINITE, frozenset({p})), e) for p, e in sorted(exps.items())]
        pairs.append(((_ALL,), 0))
        return cls(tuple(pairs))


class BaerType(_Record):
    """Descriptor (i, Lambda) of a rank-1 subgroup of Q: the fractions
    n*i / prod p^(lambda_p) with lambda <= Lambda componentwise."""

    __slots__ = ("i", "lam")

    def __init__(self, i: int, lam: SupernaturalNumber):
        if i < 1:
            raise ValidationError(f"Baer index i must be a positive integer, got {i}")
        for p in factorize(i):
            if lam.resolve(p) != 0:
                raise ValidationError(
                    f"index i = {i} is divisible by {p} which carries a positive exponent"
                )
        super().__init__(i, lam)

    def to_json(self) -> dict:
        return {"i": self.i, "lambda": self.lam.to_json()}


def free_baer_type(generator: Fraction) -> BaerType:
    """Descriptor of the cyclic subgroup g*Z for g = i / prod p^e > 0."""
    g = Fraction(generator)
    if g <= 0:
        raise ValidationError("cyclic subgroup generator must be positive")
    lam = SupernaturalNumber.from_exponents({p: e for p, e in factorize(g.denominator).items()})
    return BaerType(g.numerator, lam)


def is_free(t: BaerType) -> bool:
    """True iff prod_p p^(Lambda_p) is finite."""
    odd_a, even_a, exceptions = t.lam.profile()
    return odd_a == 0 and even_a == 0 and INF not in exceptions.values()


def baer_isomorphic(t1: BaerType, t2: BaerType) -> bool:
    """Almost-everywhere agreement with only finite-finite disagreements."""
    odd1, even1, exc1 = t1.lam.profile()
    odd2, even2, exc2 = t2.lam.profile()
    if odd1 != odd2 or even1 != even2:
        return False
    for p in set(exc1) | set(exc2):
        base = odd1 if is_odd_indexed_prime(p) else even1
        e1 = exc1.get(p, base)
        e2 = exc2.get(p, base)
        if e1 != e2 and (e1 == INF or e2 == INF):
            return False
    return True


# ---------------------------------------------------------------------------
# Conversions between sequence presentations and Baer descriptors


def qa_to_baer(a: SigmaSequence) -> BaerType:
    """Lambda_p = total exponent of p across the sequence entries, with the
    structured tail folded in analytically (no sampling); i = 1."""
    prefix_exps = a.prefix_prime_exponents()
    pairs: list[tuple[tuple, int | float]] = []
    if a.tail_kind == "increment":
        return BaerType(1, SupernaturalNumber.all_infinite())
    if a.tail_kind in ("constant", "periodic"):
        inf_primes: set[int] = set()
        for v in a.tail_params:
            inf_primes |= set(factorize(v))
        for p in sorted(set(prefix_exps) - inf_primes):
            pairs.append(((_FINITE, frozenset({p})), prefix_exps[p]))
        if inf_primes:
            pairs.append(((_FINITE, frozenset(inf_primes)), INF))
        pairs.append(((_ALL,), 0))
        return BaerType(1, SupernaturalNumber(tuple(pairs)))
    if a.tail_kind == "odd_indexed_primes":
        for p in sorted(prefix_exps):
            total = prefix_exps[p] + (1 if is_odd_indexed_prime(p) else 0)
            pairs.append(((_FINITE, frozenset({p})), total))
        pairs.append(((_ODD,), 1))
        pairs.append(((_ALL,), 0))
        return BaerType(1, SupernaturalNumber(tuple(pairs)))
    raise UnsupportedStructureError(f"sequence tail {a.tail_kind!r} has no analytic resolution")


def baer_to_qa(t: BaerType) -> SigmaSequence:
    """A sequence a with Q(a) isomorphic to the given non-free type.

    Finite exceptional exponents are realized through the prefix whenever the
    prefix can only add (never subtract), so the roundtrip reproduces the
    type up to the almost-everywhere isomorphism criterion.
    """
    if is_free(t):
        raise ValidationError("free type: the subgroup is cyclic and has no sequence presentation")
    odd_a, even_a, exceptions = t.lam.profile()

    if odd_a == 0 and even_a == 0:
        inf_primes = sorted(p for p, e in exceptions.items() if e == INF)
        finite_exc = {p: e for p, e in exceptions.items() if e != INF and e > 0}
        prefix = [1]
        for p in sorted(finite_exc):
            prefix.extend([p] * int(finite_exc[p]))
        if len(inf_primes) == 1:
            return SigmaSequence(tuple(prefix), "constant", (inf_primes[0],))
        return SigmaSequence(tuple(prefix), "periodic", tuple(inf_primes))

    if odd_a == INF and even_a == INF:
        if any(e != INF for e in exceptions.values()):
            raise UnsupportedStructureError(
                "finite exceptional exponents over an all-infinite tail are not expressible "
                "with the structured tails"
            )
        return SigmaSequence((1,), "increment")

    if odd_a == 1 and even_a == 0:
        prefix = [1]
        for p in sorted(exceptions):
            e = exceptions[p]
            if e == INF:
                raise UnsupportedStructureError(
                    f"infinite exponent at prime {p} cannot ride on the odd-indexed-primes tail"
                )
            baseline = 1 if is_odd_indexed_prime(p) else 0
            extra = int(e) - baseline
            if extra > 0:
                prefix.extend([p] * extra)
            # extra < 0 (e.g. exponent 0 on an odd-indexed prime) is absorbed
            # by the isomorphism criterion: single finite disagreement
        return SigmaSequence(tuple(prefix), "odd_indexed_primes")

    raise UnsupportedStructureError(
        f"asymptotic profile (odd={odd_a}, even={even_a}) is outside the representable class"
    )


# ---------------------------------------------------------------------------
# Module descriptors


class ModuleComponent(_Record):
    __slots__ = ("generator", "baer")

    @property
    def free(self) -> bool:
        return is_free(self.baer)


class ModuleDescriptor(_Record):
    __slots__ = ("components",)

    @property
    def free_rank(self) -> int:
        return sum(1 for c in self.components if c.free)

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def is_free(self) -> bool:
        return all(c.free for c in self.components)

    def nonfree_components(self) -> list[ModuleComponent]:
        return [c for c in self.components if not c.free]

    def closure(self) -> list:
        """The orbit closure as ``kron classify`` prints it: ``"circle"`` for
        each free component, ``{"solenoid": Lambda}`` for each non-free one."""
        return ["circle" if c.free else {"solenoid": c.baer.lam.to_json()} for c in self.components]

    def closure_homeomorphic(self, other: "ModuleDescriptor") -> bool:
        """Componentwise criterion for the direct-sum-of-rank-1 class: equal
        free ranks and a Baer-isomorphism matching between the non-free
        components."""
        if self.free_rank != other.free_rank:
            return False
        left = self.nonfree_components()
        right = other.nonfree_components()
        if len(left) != len(right):
            return False
        for c in left:
            match = next((k for k, d in enumerate(right) if baer_isomorphic(c.baer, d.baer)), None)
            if match is None:
                return False
            right.pop(match)
        return True

    def to_json(self) -> dict:
        return {
            "components": [
                {"generator": c.generator.name, "free": c.free, "baer": c.baer.to_json()}
                for c in self.components
            ]
        }


# ---------------------------------------------------------------------------
# Decomposition pipeline


def decompose_module(fv: FrequencyVector, depth: int) -> ModuleDescriptor:
    """Direct sum of rank-1 components.

    A finite vector spans a free module: one cyclic component per vector of
    the echelon image basis of its coordinate matrix, labelled by the
    generator at its pivot.  Rule-based families give one component per
    generator, their tails resolved analytically.
    """
    depth = clamp_depth(fv, depth)
    if isinstance(fv, Finite):
        comps = []
        for vec in hermite_transform(integer_rows(fv, depth), depth).image:
            pivot = min(vec)
            comps.append(ModuleComponent(pivot, free_baer_type(vec[pivot])))
        return ModuleDescriptor(tuple(comps))
    if isinstance(fv, SolenoidRule):
        return ModuleDescriptor((ModuleComponent(fv.generator, qa_to_baer(fv.a)),))
    if isinstance(fv, BoRule):
        from . import benjamin_ono

        return benjamin_ono.module_descriptor(fv)
    if isinstance(fv, ProductConstruction):
        return ModuleDescriptor(tuple(
            ModuleComponent(gen, free_baer_type(Fraction(1)) if spec.is_free else qa_to_baer(spec.qa))
            for gen, spec in fv.components))
    raise UnsupportedStructureError(
        f"no decomposition rule for frequency family {type(fv).__name__}"
    )


def classification_report(fv: FrequencyVector, depth: int) -> dict:
    depth = clamp_depth(fv, depth)
    return module_report(decompose_module(fv, depth), depth)


def module_report(md: ModuleDescriptor, depth: int) -> dict:
    return {
        "depth": depth,
        "module": md.to_json(),
        "rank": md.rank,
        "free": md.is_free,
        "closure": md.closure(),
    }

