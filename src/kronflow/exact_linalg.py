"""Exact integer and rational linear algebra.

Everything here is arbitrary precision: rationals are ``fractions.Fraction``,
integer vectors are finitely supported maps, and infinite invertible integer
matrices are represented by a finite active block of sparse rows (implicit
identity beyond it) together with the sparse columns of its inverse.  One
Hermite primitive, ``hermite_transform``, serves both integer kernels and
flow reduction: a column reduction taken one column at a time from the last,
which yields the canonical column Hermite basis of the kernel directly, an
echelon basis of the image with integer preimages, and the inverse of the
unimodular transform they form.  Its input is the integer table {row label:
(scale, {column: nonzero int})} that ``frequency.integer_rows`` returns for
omega_1..omega_N, read as it is, and its image comes back as rational maps
keyed by the same labels, so no dense matrix stands between the frequency
table and the transform.  It works on sparse graph vectors, so a step costs
the nonzero entries it touches rather than the depth, and hands those
vectors to ``RowFiniteIntMatrix`` as its rows and inverse columns;
``integer_kernel`` reads its kernel vectors straight from the sparse basis.
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from typing import NamedTuple

from .errors import ValidationError

# ---------------------------------------------------------------------------
# Rationals: stdlib Fraction plus the wire format "p/q" (or "p" when q == 1).


def parse_rational_pair(text: str | int) -> tuple[int, int]:
    """(p, q) with q > 0 and value p/q, neither reduced: the one reader of
    rational text.  ASCII ``[+-]digits[/digits]`` with q != 0 is split and read
    directly (as bytes, whose ``isdigit`` is a table lookup); any other text is
    read by ``Fraction``, whose grammar and error messages it keeps."""
    if isinstance(text, int):
        return int(text), 1
    s = str(text).strip()
    try:
        if s.isascii():
            num, slash, den = s.encode().partition(b"/")
            if num[num[:1] in (b"+", b"-"):].isdigit() and (den.isdigit() or not slash):
                p, q = int(num), int(den) if slash else 1
                if q:
                    return p, q
        value = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed rational {text!r}: {exc}") from None
    return value.numerator, value.denominator


def parse_rational(text: str | int) -> Fraction:
    return Fraction(*parse_rational_pair(text))


def parse_int(value, what: str) -> int:
    """An int, or the decimal string of one; JSON floats and booleans are rejected."""
    try:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return int(value)
    except ValueError:
        pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def parse_list(value, what: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a list, got {value!r}")
    return value


def format_rational_pair(p: int, q: int) -> str:
    """The text of p/q, q > 0, as given: the one writer of rational text.  A
    caller that holds a reduced pair prints it with no gcd and no Fraction."""
    return str(p) if q == 1 else f"{p}/{q}"


def format_rational(q: Fraction | int) -> str:
    return format_rational_pair(q.numerator, q.denominator)


def rational_gcd(values: Iterable[Fraction]) -> Fraction:
    """Positive generator of the Z-span of finitely many rationals.

    Folds the two-element identity gcd(a/b, c/d) = gcd(ad, cb)/(bd); returns 0
    for an empty or all-zero collection.
    """
    g = Fraction(0)
    for v in values:
        v = Fraction(v)
        if v == 0:
            continue
        if g == 0:
            g = abs(v)
        else:
            num = math.gcd(g.numerator * v.denominator, v.numerator * g.denominator)
            g = Fraction(num, g.denominator * v.denominator)
    return g


# ---------------------------------------------------------------------------
# Finitely supported integer vectors, 1-based indices.


class IntVecFin:
    """Integer vector with finite support; indices start at 1."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if isinstance(entries, Mapping):
            items = entries.items()
        else:
            items = entries
        store: dict[int, int] = {}
        for i, v in items:
            # exact ints only: int() would read 2.7 as 2 and True as 1
            if type(i) is not int or type(v) is not int:
                raise ValidationError(f"vector entries must map int indices to ints, got {i!r}: {v!r}")
            if i < 1:
                raise ValidationError(f"vector index must be >= 1, got {i}")
            if v != 0:
                store[i] = store.get(i, 0) + v
                if store[i] == 0:
                    del store[i]
        self._entries = store

    @classmethod
    def wrap(cls, entries: dict[int, int]) -> "IntVecFin":
        """The vector over ``entries``, nonzero ints at int indices >= 1, unchecked."""
        vec = cls.__new__(cls)
        vec._entries = entries
        return vec

    @classmethod
    def from_list(cls, values: Sequence[int], start: int = 1) -> "IntVecFin":
        return cls((start + k, v) for k, v in enumerate(values) if v)

    def __getitem__(self, i: int) -> int:
        return self._entries.get(i, 0)

    def items(self):
        return sorted(self._entries.items())

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._entries))

    def is_zero(self) -> bool:
        return not self._entries

    def max_index(self) -> int:
        return max(self._entries) if self._entries else 0

    def to_list(self, n: int) -> list[int]:
        return [self._entries.get(i, 0) for i in range(1, n + 1)]

    def scale(self, c: int) -> "IntVecFin":
        return IntVecFin((i, c * v) for i, v in self._entries.items())

    def __neg__(self) -> "IntVecFin":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntVecFin) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {v}" for i, v in self.items())
        return f"IntVecFin({{{body}}})"

    def to_json(self) -> dict[str, int]:
        return {str(i): v for i, v in self._entries.items()}  # the writer sorts the keys

    @classmethod
    def from_json(cls, obj: Mapping[str, int]) -> "IntVecFin":
        if not isinstance(obj, Mapping):
            raise ValidationError(f"sparse vector must map indices to integers, got {obj!r}")
        return cls(
            (parse_int(k, "sparse vector index"), parse_int(v, "sparse vector entry"))
            for k, v in obj.items()
        )


def gcd_of_vector(nu: IntVecFin) -> int:
    """gcd of the entries; 0 iff nu == 0."""
    g = 0
    for _, v in nu.items():
        g = math.gcd(g, abs(v))
    return g


# ---------------------------------------------------------------------------
# Row-finite invertible integer matrices with tracked inverse.


_Sparse = dict[int, int]  # index -> nonzero entry


def _combine(x: _Sparse, y: _Sparse, a: int, b: int) -> None:
    """x <- a*x + b*y on sparse vectors, in place; cancelled entries are dropped."""
    if a != 1:
        if a:
            for i in x:
                x[i] *= a
        else:
            x.clear()
    if b:
        for i, v in y.items():
            w = x.get(i, 0) + b * v
            if w:
                x[i] = w
            else:
                del x[i]


class RowFiniteIntMatrix:
    """Invertible integer matrix equal to the identity outside a finite block.

    ``rows[i - 1]`` is row i of the n x n active block and
    ``inverse_cols[j - 1]`` column j of its inverse, each a map {index:
    nonzero entry}, indices 1-based; rows beyond the block are implicitly
    e_i.  Row operations act in place on the rows and are mirrored as the
    inverse column operations on the inverse columns, at the cost of the
    nonzero entries they touch.
    """

    __slots__ = ("dimension", "rows", "inverse_cols")

    def __init__(self, rows: list[_Sparse], inverse_cols: list[_Sparse]):
        self.dimension = len(rows)
        self.rows = rows
        self.inverse_cols = inverse_cols

    @classmethod
    def identity(cls, n: int = 0) -> "RowFiniteIntMatrix":
        return cls([{i: 1} for i in range(1, n + 1)], [{i: 1} for i in range(1, n + 1)])

    # -- in-place row operations, 1-based

    def _check(self, *indices: int) -> None:
        for i in indices:
            if not 1 <= i <= self.dimension:
                raise ValidationError(f"row {i} is outside the {self.dimension}-block")

    def swap(self, i: int, j: int) -> None:
        """Rows i and j exchange; so do columns i and j of the inverse."""
        self._check(i, j)
        a, b = i - 1, j - 1
        self.rows[a], self.rows[b] = self.rows[b], self.rows[a]
        self.inverse_cols[a], self.inverse_cols[b] = self.inverse_cols[b], self.inverse_cols[a]

    def negate(self, i: int) -> None:
        self._check(i)
        for vec in (self.rows[i - 1], self.inverse_cols[i - 1]):
            for k in vec:
                vec[k] = -vec[k]

    def add_to_rows(self, targets: Sequence[int], j: int, c: int) -> None:
        """Row ops row_i += c * row_j for each i of ``targets``, none of them
        j; the inverse gets the one column op col_j -= c * (sum of the col_i).
        One call serves a whole run of the reduction trail, up to every row
        of the block, so the sums are written out here: a ``_combine`` call
        per row costs more than the few entries it touches."""
        self._check(j, *targets)
        if j in targets:
            raise ValidationError("add_to_rows requires target rows other than the source row")
        if not c:
            return
        src = self.rows[j - 1].items()
        for i in targets:
            row = self.rows[i - 1]
            for k, v in src:
                w = row.get(k, 0) + c * v
                if w:
                    row[k] = w
                else:
                    del row[k]
        col = self.inverse_cols[j - 1]
        for i in targets:
            for k, v in self.inverse_cols[i - 1].items():
                w = col.get(k, 0) - c * v
                if w:
                    col[k] = w
                else:
                    del col[k]

    # -- access

    def row(self, i: int) -> IntVecFin:
        if i <= self.dimension:
            return IntVecFin(self.rows[i - 1])
        return IntVecFin({i: 1})

    def inverse_row(self, i: int) -> IntVecFin:
        if i <= self.dimension:
            return IntVecFin((j, col[i]) for j, col in enumerate(self.inverse_cols, 1) if i in col)
        return IntVecFin({i: 1})

    def apply(self, nu: IntVecFin) -> IntVecFin:
        acc = {i: sum(v * nu[j] for j, v in row.items()) for i, row in enumerate(self.rows, 1)}
        for j, v in nu.items():
            if j > self.dimension:
                # column j is e_j beyond the block
                acc[j] = v
        return IntVecFin(acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RowFiniteIntMatrix):
            return False
        n = max(self.dimension, other.dimension)
        return all(self.row(i) == other.row(i) for i in range(1, n + 1))

    def __repr__(self) -> str:
        return f"RowFiniteIntMatrix(dim={self.dimension})"

    def to_json(self) -> dict:
        inverse_rows: list[dict[str, int]] = [{} for _ in self.inverse_cols]  # transposed from the columns
        for j, col in enumerate(self.inverse_cols, 1):
            for i, v in col.items():
                inverse_rows[i - 1][str(j)] = v
        return {
            "dimension": self.dimension,
            "rows": {str(i): {str(j): v for j, v in row.items()} for i, row in enumerate(self.rows, 1)},
            "inverse_rows": {str(i): row for i, row in enumerate(inverse_rows, 1)},
        }


# ---------------------------------------------------------------------------
# One Hermite primitive, shared by integer kernels and flow reduction.


class HermiteTransform(NamedTuple):
    """Result of ``hermite_transform`` on a rational m x n matrix M, given as
    its integer table.

    ``transform`` is a unimodular n x n matrix A with its inverse.  Its first
    ``zero_rank`` rows are the canonical column Hermite basis of
    {nu in Z^n : M nu = 0}: pivot rows strictly increasing, pivots positive,
    entries at later pivot rows reduced into [0, pivot).  ``image`` is an
    echelon basis of the lattice M Z^n as maps {row label: nonzero
    ``Fraction``}, the pivot being the least label, its entry positive; row
    zero_rank + k of A is an integer preimage of image[k].
    """

    transform: RowFiniteIntMatrix
    zero_rank: int
    image: list[dict]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) > 0; a != 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


_Basis = dict[int, tuple[_Sparse, _Sparse]]  # pivot row -> ((M t, t), t*)


def _hermite_reduce(basis: _Basis, k: int) -> None:
    """Reduce basis[k] into [0, pivot) at every later pivot row, in increasing
    order.  Only nonzero entries at pivot rows are visited: a subtraction of
    the vector with pivot r adds entries past r only, which join the queue."""
    x, xd = basis[k]
    queue = [r for r in x if r > k and r in basis]
    heapq.heapify(queue)
    last = k
    while queue:
        r = heapq.heappop(queue)
        if r == last or r not in x:
            continue
        last = r
        y, yd = basis[r]
        q = x[r] // y[r]
        if q:
            _combine(x, y, 1, -q)
            _combine(yd, xd, 1, q)
            for i in y:
                if i > r and i in basis:
                    heapq.heappush(queue, i)


def _hermite_basis(rows: Mapping, n: int) -> tuple[list, _Basis]:
    """The Hermite basis of the graph lattice of M as sparse vectors: (labels,
    basis), row r of M being rows[labels[r]], and basis mapping each pivot row
    to the pair ((M t, t), t*); see ``hermite_transform``."""
    if n < 1:
        raise ValidationError("the Hermite transform needs at least one column")
    labels = sorted(rows)
    columns: list[_Sparse] = [{} for _ in range(n)]
    for r, label in enumerate(labels):
        for j, v in rows[label][1].items():
            columns[j - 1][r] = v
    m = len(labels)

    basis: _Basis = {}
    image: list[int] = []  # the pivots below m, increasing
    for j in range(n - 1, -1, -1):
        g = columns[j]
        g[m + j] = 1
        dual = {j + 1: 1}  # 1-based: it becomes column j + 1 of A^-1
        p = min(g)
        replaced = False  # whether an xgcd step replaced an image vector
        while p in basis:
            b, bd = basis[p]
            if g[p] % b[p] == 0:
                q = g[p] // b[p]
                _combine(g, b, 1, -q)
                _combine(bd, dual, 1, q)
            else:
                d, s, u = _xgcd(b[p], g[p])
                x, y = b[p] // d, g[p] // d
                nb, nbd = dict(b), dict(bd)
                _combine(nb, g, s, u)
                _combine(nbd, dual, x, y)
                _combine(g, b, x, -y)
                _combine(dual, bd, s, -u)
                basis[p] = (nb, nbd)
                replaced = True
            p = min(g)
        if g[p] < 0:
            g = {i: -v for i, v in g.items()}
            dual = {i: -v for i, v in dual.items()}
        basis[p] = (g, dual)
        if p < m:
            bisect.insort(image, p)
        # a kernel vector reached by exact divisions alone changed no image vector
        for k in image if p < m else [*image, p] if replaced else [p]:
            _hermite_reduce(basis, k)
    return labels, basis


def hermite_transform(rows: Mapping, n: int) -> HermiteTransform:
    """Column Hermite reduction of M with a tracked unimodular transform.

    M's rows are the table's labels in increasing order, row r its ints over
    its scale (absent columns zero).  Every step compares and combines the
    entries of one row with each other, taking the same quotients whatever
    positive scale the row carries, so only ``image`` reads the scale.
    Column j is taken as its graph vector (M e_j, e_j), the columns from last
    to first.  Before column j is taken, ``basis`` is the Hermite basis of
    the graph lattice {(M t, t)} over t in Z^{j+1..n}, the m labelled rows
    ordered before the n index rows: at most m image vectors, pivoted in the
    M t part, and the kernel vectors, whose M t part is zero.  Column j is
    inserted by xgcd steps on the image vectors.  If its M t part reduces to
    zero it is the primitive kernel vector with pivot j, and reducing it
    against the later kernel vectors into [0, pivot) gives the canonical
    kernel form directly.  After a column that adds an image pivot or
    replaces an image vector by an xgcd step, the image vectors are
    re-reduced against every later pivot, which keeps their preimages reduced
    modulo the kernel and the coefficients small; exact divisions alone
    change no image vector.  Every vector t carries its dual t* (its column
    of A^-1): an operation t_a += q t_b is mirrored as t_b* -= q t_a*.

    The vectors are sparse maps {index: entry}, so an operation costs the
    number of nonzero entries it touches, not the length m + n; the next
    pivot is the smallest index present.  The returned ``RowFiniteIntMatrix``
    takes the t parts as its rows and the duals, as they are, as its
    inverse columns.
    """
    labels, basis = _hermite_basis(rows, n)
    m = len(labels)
    pivots = sorted(basis, key=lambda r: (r < m, r))  # kernel first, then image
    forward = [{i - m + 1: v for i, v in basis[r][0].items() if i >= m} for r in pivots]
    inverse = [basis[r][1] for r in pivots]
    image = [{labels[i]: Fraction(v, rows[labels[i]][0]) for i, v in basis[r][0].items() if i < m}
             for r in pivots if r < m]
    return HermiteTransform(RowFiniteIntMatrix(forward, inverse), len(pivots) - len(image), image)


def integer_kernel(rows: Mapping, n: int) -> list[IntVecFin]:
    """Basis of {nu in Z^n : M nu = 0} for a rational matrix M given as its
    integer table, as for ``hermite_transform``.

    The returned basis is primitive and in canonical column Hermite form
    (pivots positive, entries at later pivot rows reduced into [0, pivot)),
    so identical inputs produce identical bases.  A zero matrix yields the
    standard basis of Z^n.
    """
    labels, basis = _hermite_basis(rows, n)
    m = len(labels)
    return [IntVecFin.wrap({i - m + 1: v for i, v in basis[r][0].items()}) for r in sorted(basis) if r >= m]
