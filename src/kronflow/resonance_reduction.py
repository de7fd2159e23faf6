"""Resonance modules and the reduction of resonant flows.

``resonance_basis`` realizes the set of integer relations among the first N
frequencies, read from the integer table of ``integer_rows``.  On a solenoid
rule, and on a product's chains, omega_i is a_(t+1) times the next omega of
its generator, so the basis is these adjacent relations, read off the
closed-form rows, and e_j at each index no row touches.  On a BO rule, past
the prefix both rows obey one recurrence with constant integer
coefficients, so the basis is the Hermite primitive's integer kernel of a
short head of columns followed by the recurrence's shifts, the head's length
and its completeness certified by the module indices [M_j : M_(j-1)].
Otherwise it is the integer kernel of all the columns.  Every relation is
re-checked against the rows of that table.
``reduce_vector`` collapses one integer vector to (g, 0, 0, ...) by a tracked
composition of elementary automorphisms; it is the certificate behind
``kron reduce``.  Its trail records each swap and negate, and each run of
identical subtraction passes as one record with a repeat count, so its length
is bounded by the Euclidean steps; the entry sum of every pass is listed, and
the sums are strictly decreasing positive integers (that is the termination
argument, asserted literally).  ``reduce_flow`` conjugates the flow, by the
Hermite transform of the integer table on every family, to one whose
frequency vector starts with a zero block followed by a block with trivial
integer kernel: the automorphism stacks the re-checked kernel basis over
integer preimages of an echelon image basis, the nonzero block.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction

from .errors import UnsupportedStructureError, ValidationError, _Record
from .exact_linalg import IntVecFin, RowFiniteIntMatrix, gcd_of_vector, hermite_transform, integer_kernel
from .frequency import (UNIT, BoRule, Finite, FrequencyVector, ProductConstruction,
                        RationalSequenceSpec, SolenoidRule, clamp_depth, finite_vector, integer_rows)
from .solenoid_geometry import TorusPoint

# ---------------------------------------------------------------------------


class ResonanceBasis(_Record):
    __slots__ = ("vectors", "truncation_depth")

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def is_trivial(self) -> bool:
        return not self.vectors

    def to_json(self) -> dict:
        return {
            "depth": self.truncation_depth,
            "rank": self.rank,
            "vectors": [v.to_json() for v in self.vectors],
        }


def _adjacent_relations(rows: dict, depth: int) -> list[dict]:
    """On a sequence rule's table, in order of first index: e_i - (x_i / x_k)
    e_k for each pair of consecutive indices i < k of one row (x_i / x_k is
    the term a_(t+1), exact), and e_i at each index that no row touches."""
    steps, ends = {}, set()
    for _, row in rows.values():
        indices = list(row)
        steps.update((i, {i: 1, k: -(row[i] // row[k])}) for i, k in zip(indices, indices[1:]))
        ends.add(indices[-1])
    return [steps.get(i) or {i: 1} for i in range(1, depth + 1) if i not in ends]


def _check_relations(rows: dict, vectors: list[dict]) -> None:
    """Re-check relations {j: entry} exactly on each row of an integer table;
    a relation with no index in a row's support is 0 on it as it stands."""
    for _, row in rows.values():
        get, support = row.get, row.keys()
        if any(sum(map(operator.mul, nu.values(), map(get, nu, itertools.repeat(0))))
               for nu in vectors if not support.isdisjoint(nu)):
            raise ValidationError("internal error: kernel vector fails exact resonance check")


def _recurrence(s: RationalSequenceSpec) -> list[int]:
    """The coefficients, lowest first, of P(E) = (E - 1)^3 (qE - p), r = p/q
    the tail ratio, or of (E - 1)^3 on a finite support.  Past the prefix,
    (E - 1) sigma_j = g_j is geometric (or 0) and j^2 is quadratic, so the
    shift of P that starts at j > L annihilates both coordinate rows."""
    if s.support_is_finite():
        return [-1, 3, -3, 1]
    p, q = s.tail_r.numerator, s.tail_r.denominator
    return [p, -(3 * p + q), 3 * (p + q), -(p + 3 * q), q]


def _module_indices(x: list[int], y: list[int]) -> list[int]:
    """d*_j = [M_j : M_(j-1)] for j = 1..N, M_j the span of the points (x_i,
    y_i), i <= j, in Z^2, and 0 where the rank rises.  x_1 = 1, so M_j has
    the Hermite basis (1, b), (0, c): c = 0 while the rank is 1, and then c
    is the covolume, so d*_j is the quotient of the last two c's."""
    b, c, out = y[0], 0, [0]
    for xj, yj in zip(x[1:], y[1:]):
        c_new = math.gcd(c, yj - b * xj)
        out.append(c // c_new if c else 0 if c_new else 1)
        c = c_new
        if c:
            b %= c
    return out


def _recurrence_basis(fv: BoRule, rows: dict, depth: int) -> list[IntVecFin] | None:
    """On a BO rule: the integer kernel of the first J columns, then the
    shifts of P that end at J+1..N, J at most N; None when the rank is below 2.

    Relations ordered by last index span the lattice iff the one ending at
    each j where the rank does not rise has leading coefficient d*_j (the
    echelon argument), and J is the largest of L + deg P, the index r where
    the rank reaches 2, and the last j with d*_j other than P's leading
    coefficient.  The head is certified too: the product of its pivots is
    [Z^J : head + Z e_i + Z e_k], i and k its free indices, which must equal
    [M_J : Z omega_i + Z omega_k] = |det(omega_i, omega_k)| prod d*_j /
    |det(omega_1, omega_r)|."""
    x, y = ([row.get(j, 0) for j in range(1, depth + 1)] for _, row in (rows[UNIT], rows[fv.beta]))
    indices = _module_indices(x, y)
    rises = [j for j, d in enumerate(indices, 1) if not d]  # 1, then where the rank reaches 2
    if len(rises) < 2:
        return None
    coeffs = _recurrence(fv.s)
    head = min(depth, max(len(fv.s.prefix) + len(coeffs) - 1, rises[1],
                          *(j for j, d in enumerate(indices, 1) if j > rises[1] and d != coeffs[-1])))
    kernel = integer_kernel({g: (scale, {j: v for j, v in row.items() if j <= head})
                             for g, (scale, row) in rows.items()}, head)
    pivots = {nu.support()[0]: nu[nu.support()[0]] for nu in kernel}
    free = [j for j in range(1, head + 1) if j not in pivots]

    def det(i: int, k: int) -> int:
        return abs(x[i - 1] * y[k - 1] - x[k - 1] * y[i - 1])

    if len(free) != 2 or math.prod(pivots.values()) * det(1, rises[1]) != det(*free) * math.prod(
            d for d in indices[:head] if d):
        raise ValidationError("internal error: relation basis fails the module index check")
    first = 1 - len(coeffs)
    return kernel + [IntVecFin.wrap({end + first + k: c for k, c in enumerate(coeffs)})
                     for end in range(head + 1, depth + 1)]


def resonance_basis(fv: FrequencyVector, depth: int) -> ResonanceBasis:
    """Basis of {nu in Z^N : nu . (omega_1..omega_N) = 0}, N the depth
    clamped to the length of a finite vector."""
    depth = clamp_depth(fv, depth)
    rows = integer_rows(fv, depth)
    if isinstance(fv, (SolenoidRule, ProductConstruction)):
        basis = [IntVecFin.wrap(nu) for nu in _adjacent_relations(rows, depth)]
    else:
        basis = _recurrence_basis(fv, rows, depth) if isinstance(fv, BoRule) else None
        if basis is None:
            basis = integer_kernel(rows, depth)
    _check_relations(rows, [nu._entries for nu in basis])
    return ResonanceBasis(tuple(basis), depth)


# ---------------------------------------------------------------------------
# Single-vector reduction


class ReductionCertificate(_Record):
    __slots__ = ("transform", "result", "steps", "pass_sums", "gcd")

    def to_json(self) -> dict:
        return {
            "gcd": self.gcd,
            "result": self.result.to_json(),
            "transform": self.transform.to_json(),
            "pass_sums": list(self.pass_sums),
            "steps": list(self.steps),
        }


def reduce_vector(nu: IntVecFin) -> ReductionCertificate:
    """Collapse nu != 0 to (g, 0, 0, ...) with g = gcd of the entries.

    Each pass sorts the surviving entries by absolute value (stable, ties in
    current index order), flips signs to make them positive, then subtracts
    the first entry from every other one.  The sum of entries after each
    normalization is recorded; the sums decrease strictly, which forces
    termination.  Every step acts on a dense copy of the vector and, as a row
    operation, on the transform, which starts as the identity.

    A normalized pass (v1 <= v2 <= ... <= vk) is followed by q = v2 // v1
    passes that need no swap or negate: the next normalization is a no-op
    exactly while v2 - v1 >= v1, a tie keeping v1 first.  The q passes are
    one ``subtract_head`` record and one ``add_to_rows`` on the transform,
    rows 2..k -= q * row 1, and their q pass sums s - p (k - 1) v1 are
    filled in directly.

    ``steps`` holds the records ``kron reduce`` prints, each with ``op`` and
    ``pass``: a ``swap`` exchanges rows ``i`` and ``j`` and a ``negate``
    flips the sign of row ``i``; a ``subtract_head`` is a run, rows
    2..``rows`` -= row 1 in each of the ``repeat`` passes from ``pass`` on.
    A reduction whose passes a list cannot hold (more than ``sys.maxsize``)
    is an UnsupportedStructureError.
    """
    if nu.is_zero():
        raise ValidationError("cannot reduce the zero vector")
    vec = nu.to_list(nu.max_index())
    transform = RowFiniteIntMatrix.identity(len(vec))
    steps: list[dict] = []
    pass_sums: list[int] = []
    pass_index = 1

    while True:
        support = [i for i, v in enumerate(vec, 1) if v]
        # normalization: move support to the front, sorted ascending by |.|,
        # stable with ties kept in current index order
        order = sorted(support, key=lambda i: (abs(vec[i - 1]), i))
        # entries are named by their index at the pass start: where[e] is the
        # index entry e was swapped to, and at[i] the entry swapped to index i
        where: dict[int, int] = {}
        at: dict[int, int] = {}
        for target, entry in enumerate(order, 1):
            src = where.get(entry, entry)
            if src != target:
                vec[target - 1], vec[src - 1] = vec[src - 1], vec[target - 1]
                transform.swap(target, src)
                steps.append({"op": "swap", "pass": pass_index, "i": target, "j": src})
                displaced = at.get(target, target)  # the entry that was at `target` now lives at `src`
                where[displaced], at[src] = src, displaced
        k = len(order)
        for i in range(1, k + 1):
            if vec[i - 1] < 0:
                vec[i - 1] = -vec[i - 1]
                transform.negate(i)
                steps.append({"op": "negate", "pass": pass_index, "i": i})
        total = sum(vec[:k])
        if pass_sums and not total < pass_sums[-1]:
            raise ValidationError("internal error: pass sums failed to decrease")
        if k == 1:
            pass_sums.append(total)
            break
        head = vec[0]
        repeat = vec[1] // head
        drop = (k - 1) * head  # > 0, so the run's own sums decrease strictly
        if len(pass_sums) + repeat > sys.maxsize:
            raise UnsupportedStructureError(f"the reduction has at least {len(pass_sums) + repeat} passes, "
                                            f"more than a list of pass sums holds ({sys.maxsize})")
        pass_sums.extend(range(total, total - repeat * drop, -drop))
        vec[1:k] = [v - repeat * head for v in vec[1:k]]
        transform.add_to_rows(range(2, k + 1), 1, -repeat)
        steps.append({"op": "subtract_head", "pass": pass_index, "repeat": repeat, "rows": k})
        pass_index += repeat

    result = transform.apply(nu)
    if result != IntVecFin({1: vec[0]}):
        raise ValidationError("internal error: transform does not reproduce the reduced vector")
    g = gcd_of_vector(nu)
    if vec[0] != g:
        raise ValidationError("internal error: reduced head is not the gcd")
    return ReductionCertificate(transform, result, tuple(steps), tuple(pass_sums), g)


# ---------------------------------------------------------------------------
# Flow reduction


class FlowReduction(_Record):
    """``reduced`` is (0_d, omega-bar).  ``nonresonance_scope`` is "depth"
    when the kernel is trivial for integer vectors supported on 1..depth, and
    "global" when in addition the vector has no coordinates beyond depth."""

    __slots__ = ("transform", "reduced", "zero_rank", "depth", "nonzero_block_independent", "nonresonance_scope")

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "zero_rank": self.zero_rank,
            "transform": self.transform.to_json(),
            "reduced": self.reduced.to_json(),
            "nonzero_block_independent": self.nonzero_block_independent,
            "nonresonance_scope": self.nonresonance_scope,
        }


def reduce_flow(fv: FrequencyVector, depth: int) -> FlowReduction:
    """Conjugate the depth-N truncation to (0_d, omega-bar) with omega-bar
    having trivial integer kernel at depth N, N the depth clamped to the
    length of a finite vector.

    One Hermite transform of the integer table, on every family, gives A =
    [kernel basis; image preimages]: its first d rows are the canonical
    column Hermite basis of the resonances, re-checked in integers, so (A
    omega)_i = 0 for i <= d, and the remaining rows map omega to an echelon
    basis of the coordinate lattice.  Its N - d entries are independent
    because their pivots (least labels with a nonzero entry) strictly
    increase, which sets ``nonzero_block_independent``.  A is unimodular because Z^N is the kernel
    plus the span of the preimages; it stays the identity when the kernel is
    trivial.
    """
    depth = clamp_depth(fv, depth)
    rows = integer_rows(fv, depth)
    transform, zeros, image = hermite_transform(rows, depth)
    _check_relations(rows, transform.rows[:zeros])
    pivots = [min(g for g, x in v.items() if x) for v in image if any(v.values())]
    independent = len(pivots) == len(image) == depth - zeros and all(p < q for p, q in zip(pivots, pivots[1:]))
    if not zeros:
        transform, image = RowFiniteIntMatrix.identity(depth), [{} for _ in range(depth)]
        for g, (scale, row) in rows.items():  # one pass over the table's nonzero entries
            for j, x in row.items():
                image[j - 1][g] = Fraction(x, scale)
    scope = "global" if isinstance(fv, Finite) and len(fv) <= depth else "depth"
    return FlowReduction(transform, finite_vector([{}] * zeros + image), zeros, depth, independent, scope)


# ---------------------------------------------------------------------------
# Automorphism action on points


def apply_automorphism(a: RowFiniteIntMatrix, theta: TorusPoint) -> TorusPoint:
    """Image of a point under the automorphism with matrix ``a``.

    Component i is sum_j a_ij Theta_j mod a full turn; exact for exact points.
    """
    if a.dimension > theta.depth:
        raise ValidationError(
            f"point depth {theta.depth} does not cover the automorphism block {a.dimension}"
        )
    angles = list(theta.angles)
    mixed = [sum(row[j] * angles[j - 1] for j in sorted(row)) for row in a.rows]
    if theta.exact:
        return TorusPoint.exact_point([s % 1 for s in mixed] + angles[a.dimension :])
    return TorusPoint.float_point([s % (2 * math.pi) for s in mixed + angles[a.dimension :]])
