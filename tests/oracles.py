"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own algorithms: kernels come from
exhaustive enumeration, gcds from Euclid, sigma sums from direct term-by-term
summation with a hand-written geometric remainder, span checks from
bounded coefficient searches, matrix checks from the JSON form of a
tracked matrix, multiplied out entry by entry, reduction certificates
from the literal one-subtraction-per-step reduction on plain lists,
frequency coordinates from the per-index definition of each family,
solenoid membership, coordinates and approximating times from the
relations theta_j = a_{j+1} theta_{j+1} mod 1 in Fraction arithmetic,
the float frequencies from those coordinates and mpmath's own constants at
200 bits, supernatural numbers from a per-class coverage state machine, and the
``simulate`` CSV from ``csv.writer`` with one format per cell.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np

from kronflow.errors import ValidationError
from kronflow.frequency import UNIT, BoRule, Finite, ProductConstruction, SolenoidRule
from kronflow.solenoid_geometry import SolenoidCoords, TorusPoint

_GRID_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _grid(n: int, bound: int) -> np.ndarray:
    key = (n, bound)
    if key not in _GRID_CACHE:
        axis = np.arange(-bound, bound + 1, dtype=np.int16)
        grids = np.meshgrid(*([axis] * n), indexing="ij")
        _GRID_CACHE[key] = np.stack([g.ravel() for g in grids], axis=1)
    return _GRID_CACHE[key]


def scaled_integer_rows(rows) -> list[list[int]]:
    out = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        scale = 1
        for f in fracs:
            scale = scale * f.denominator // math.gcd(scale, f.denominator)
        out.append([int(f * scale) for f in fracs])
    return out


def table_of(rows) -> tuple[dict[int, tuple[int, dict[int, int]]], int]:
    """A dense rational matrix as the arguments of the library's Hermite
    transform and kernel: the integer table {row index: (scale, {column:
    nonzero int})}, each row over the lcm of its denominators, and the
    column count."""
    table = {}
    for i, (row, ints) in enumerate(zip(rows, scaled_integer_rows(rows))):
        scale = math.lcm(*(Fraction(x).denominator for x in row))
        table[i] = (scale, {j: v for j, v in enumerate(ints, 1) if v})
    return table, len(rows[0])


def sparse_image(dense_image) -> list[dict[int, Fraction]]:
    """The dense oracle's image vectors as maps {row index: nonzero entry},
    the form of the library's image."""
    return [{i: x for i, x in enumerate(vec) if x} for vec in dense_image]


def brute_force_kernel(rows, bound: int) -> np.ndarray:
    """All nu with |nu|_inf <= bound and (exact) M nu = 0, as an int64 array."""
    int_rows = scaled_integer_rows(rows)
    n = len(int_rows[0])
    grid = _grid(n, bound).astype(np.int64)
    mat = np.array(int_rows, dtype=np.int64)
    prods = grid @ mat.T
    mask = np.all(prods == 0, axis=1)
    return grid[mask]


def span_contains_all(basis_cols: list[list[int]], vectors: np.ndarray) -> bool:
    """Every row of ``vectors`` is an integer combination of the echelon basis
    columns (pivot rows strictly increasing, as integer_kernel emits)."""
    if vectors.size == 0:
        return True
    residue = vectors.astype(np.int64).copy()
    for col in basis_cols:
        col = np.array(col, dtype=np.int64)
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        p = nz[0]
        piv = col[p]
        if np.any(residue[:, p] % piv != 0):
            return False
        c = residue[:, p] // piv
        residue -= np.outer(c, col)
    return not np.any(residue)


def dot_fractions(nu, values) -> Fraction:
    """sum_j nu_j * values[j-1] in Fractions; an index of nu beyond the
    values is an error."""
    total = Fraction(0)
    for i, v in nu.items():
        if i > len(values):
            raise ValueError(f"vector touches index {i} beyond provided length {len(values)}")
        total += v * Fraction(values[i - 1])
    return total


def weighted_total(spec) -> Fraction:
    """sum_k k * s_k of a rational sequence spec with a geometric tail: the
    prefix term by term, plus c sum_{i >= 1} (L + i) r^(i-1) in closed form."""
    L = len(spec.prefix)
    total = sum((k + 1) * spec.prefix[k] for k in range(L))
    if spec.tail_c:
        r, c = spec.tail_r, spec.tail_c
        total += c * (L / (1 - r) + 1 / (1 - r) ** 2)
    return Fraction(total)


def rational_rank(rows) -> int:
    """Rank over Q by plain Gaussian elimination on Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def euclid_gcd(values) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, abs(int(v)))
    return g


def literal_reduction(values: list[int]) -> dict:
    """The subtractive reduction of a nonzero integer list, one trail record
    per elementary operation, on plain dense lists.

    Each pass sorts the surviving entries by absolute value (stable, ties in
    current index order), flips signs to make them positive, records their
    sum, then subtracts the first entry from every other one, until one entry
    is left.  Returns the trail as JSON step records, the pass sums, the
    transform's rows and inverse rows and the reduced head.
    """
    vec = list(values)
    n = len(vec)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [[int(i == j) for j in range(n)] for i in range(n)]
    steps: list[dict] = []
    pass_sums: list[int] = []
    pass_index = 1
    while True:
        order = sorted((i for i in range(n) if vec[i]), key=lambda i: (abs(vec[i]), i))
        for pos in range(len(order)):
            src = order[pos]
            if src != pos:
                vec[pos], vec[src] = vec[src], vec[pos]
                rows[pos], rows[src] = rows[src], rows[pos]
                for row in inverse:
                    row[pos], row[src] = row[src], row[pos]
                steps.append({"op": "swap", "i": pos + 1, "j": src + 1, "pass": pass_index})
                # the entry displaced from `pos` now lives at `src`
                order[pos + 1 :] = [src if o == pos else o for o in order[pos + 1 :]]
        k = len(order)
        for i in range(k):
            if vec[i] < 0:
                vec[i] = -vec[i]
                rows[i] = [-v for v in rows[i]]
                for row in inverse:
                    row[i] = -row[i]
                steps.append({"op": "negate", "i": i + 1, "pass": pass_index})
        pass_sums.append(sum(vec[:k]))
        if k == 1:
            break
        for i in range(1, k):
            # row_i -= row_1; the inverse gets col_1 += col_i
            vec[i] -= vec[0]
            rows[i] = [u - v for u, v in zip(rows[i], rows[0])]
            for row in inverse:
                row[0] += row[i]
            steps.append({"op": "add_multiple", "i": i + 1, "j": 1, "factor": -1, "pass": pass_index})
        pass_index += 1
    return {"steps": steps, "pass_sums": pass_sums, "rows": rows, "inverse_rows": inverse, "head": vec[0]}


def dense_rows(matrix_json: dict, key: str, n: int) -> list[list[int]]:
    """Rows 1..n of ``matrix_json[key]`` ("rows" or "inverse_rows") as dense
    lists; rows beyond the stored dimension are identity rows."""
    stored = matrix_json[key]
    return [
        [int(stored[str(i)].get(str(j), 0)) for j in range(1, n + 1)]
        if str(i) in stored
        else [int(i == j) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def _is_identity_product(a: list[list[int]], b: list[list[int]]) -> bool:
    n = len(a)
    for i in range(n):
        acc = [0] * n
        for k, v in enumerate(a[i]):
            if v:
                acc = [x + v * y for x, y in zip(acc, b[k])]
        if acc != [int(i == j) for j in range(n)]:
            return False
    return True


def verify_inverse(matrix) -> bool:
    """Both products of a tracked matrix's rows and inverse rows, read from
    its ``to_json()`` output, are the identity."""
    doc = matrix.to_json()
    n = doc["dimension"]
    a, b = dense_rows(doc, "rows", n), dense_rows(doc, "inverse_rows", n)
    return _is_identity_product(a, b) and _is_identity_product(b, a)


def transform_polynomial(p, matrix):
    """p composed with the automorphism of ``matrix``: the monomial
    exp(i nu.A Theta) equals exp(i (A^T nu).Theta), so every index vector maps
    through the transpose of the rows read from ``to_json()``."""
    from kronflow.dynamics import TrigPolynomial
    from kronflow.exact_linalg import IntVecFin

    doc = matrix.to_json()
    table = {}
    for nu, coeff in p.coeffs:
        n = max(doc["dimension"], nu.max_index())
        rows = dense_rows(doc, "rows", n)
        image = [sum(v * rows[i - 1][j] for i, v in nu.items()) for j in range(n)]
        table[IntVecFin.from_list(image)] = coeff
    return TrigPolynomial.from_table(table)


def sigma_by_partial_sums(s_terms, j: int, tail_c: Fraction, tail_r: Fraction, cutoff: int) -> Fraction:
    """sigma_j = sum_k min(j,k) s_k via ``cutoff`` explicit terms plus the
    exact geometric remainder (all indices past the cutoff have min = j)."""
    total = Fraction(0)
    for k in range(1, cutoff + 1):
        total += min(j, k) * s_terms(k)
    if tail_c:
        # remainder sum_{k > cutoff} j * s_k for a tail already geometric there
        first = s_terms(cutoff + 1)
        total += j * first / (1 - tail_r)
    return total


def express_in_span(target: Fraction, generators, coeff_bound: int):
    """Small-coefficient integer combination of ``generators`` equal to
    ``target``, or None."""
    gens = [Fraction(g) for g in generators]
    for combo in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=len(gens)):
        if sum(c * g for c, g in zip(combo, gens)) == target:
            return combo
    return None


def flow_angles_per_sample(omegas, theta0_radians, t: float) -> list[float]:
    """Float flow angles at one time, one coordinate at a time in Python
    floats: (theta0_j + omega_j t) mod 2 pi."""
    return [(b + w * float(t)) % (2 * math.pi) for b, w in zip(theta0_radians, omegas)]


def probe_single_chunk(omegas, target_turns, epsilon: float, t_max: float, step: float):
    """(hit, time, distance, samples) of the brute-force density probe, with
    every sample time on the grid k * step evaluated in one array."""
    turns = np.array(omegas) / (2 * math.pi)
    tgt = np.array(target_turns)
    weights = np.array([2.0 ** -(k + 1) for k in range(len(omegas))])
    n_samples = int(t_max / step) + 1
    if n_samples > 2_000_000:
        raise ValueError(f"{n_samples} samples would not fit one small array")
    ts = (np.arange(n_samples) * step)[:, None]
    frac = (ts * turns[None, :] - tgt[None, :]) % 1.0
    dists = (np.minimum(frac, 1.0 - frac) * weights[None, :]).sum(axis=1)
    hits = np.nonzero(dists < epsilon)[0]
    if hits.size:
        i = int(hits[0])
        return True, float(ts[i, 0]), float(dists[i]), i + 1
    i = int(np.argmin(dists))
    return False, float(ts[i, 0]), float(dists[i]), n_samples


@functools.cache
def _prime_power(j: int) -> tuple[int, int] | None:
    """(p, e) when j = p^e with e >= 1, by trial division; else None."""
    if j < 2:
        return None
    p = next(d for d in range(2, j + 1) if j % d == 0)
    e = 0
    while j % p == 0:
        j //= p
        e += 1
    return (p, e) if j == 1 else None


@functools.cache
def _nth_prime(n: int) -> int:
    count, k = 0, 1
    while count < n:
        k += 1
        if all(k % d for d in range(2, math.isqrt(k) + 1)):
            count += 1
    return k


def omega_by_index(fv, j: int) -> dict:
    """omega_j from its family's per-index definition: the j-th finite term;
    1 / (a_1 ... a_j) for a solenoid; j^2 - 2 beta sigma_j for the quadratic
    rule, with sigma_j = sum_k min(j,k) s_k summed by ``sigma_by_partial_sums``
    over s_k written out here (the prefix, then c r^(k-L-1)); and for the
    product construction, the layout read off the factorization of j
    (non-free component k on the powers p_k^e, at 1 / (a_1 ... a_e); the free
    components, then nothing, on the other indices in order)."""
    if isinstance(fv, Finite):
        return dict(fv.terms[j - 1])
    if isinstance(fv, SolenoidRule):
        return {fv.generator: Fraction(1, math.prod(fv.a.term(i) for i in range(1, j + 1)))}
    if isinstance(fv, BoRule):
        s = fv.s
        L = len(s.prefix)

        def s_k(k):
            return s.prefix[k - 1] if k <= L else s.tail_c * s.tail_r ** (k - L - 1)

        sigma = sigma_by_partial_sums(s_k, j, s.tail_c, s.tail_r, cutoff=max(j, L))
        return {UNIT: Fraction(j * j), fv.beta: -2 * sigma}
    nonfree = [(g, spec) for g, spec in fv.components if not spec.is_free]
    free = [g for g, spec in fv.components if spec.is_free]
    owner = {_nth_prime(k): comp for k, comp in enumerate(nonfree, 1)}

    def reserved(i):
        hit = _prime_power(i)
        return hit is not None and hit[0] in owner

    if reserved(j):
        p, e = _prime_power(j)
        g, spec = owner[p]
        return {g: Fraction(1, math.prod(spec.qa.term(i) for i in range(1, e + 1)))}
    rank = sum(1 for i in range(1, j + 1) if not reserved(i))
    return {free[rank - 1]: Fraction(1)} if rank <= len(free) else {}


def omega_columns(fv, depth: int) -> list[dict]:
    """omega_1..omega_depth by ``omega_by_index``, each without its zero
    coordinates."""
    return [{g: c for g, c in omega_by_index(fv, j).items() if c} for j in range(1, depth + 1)]


def _generator_number(gen):
    """gen's number at the working precision, from mpmath's own constants."""
    if gen.kind == "rational_unit":
        return mpmath.mpf(1)
    if gen.kind == "sqrt_prime":
        return mpmath.sqrt(gen.param)
    if gen.kind == "pi_power":
        return mpmath.pi ** gen.param
    return mpmath.mpf(gen.value_digits)


def omega_values(fv, depth: int) -> list:
    """omega_1..omega_depth as mpmath numbers at the working precision: the
    sum over the ``omega_by_index`` coordinates of each coefficient times its
    generator's number."""
    return [sum((mpmath.mpf(c.numerator) / c.denominator * _generator_number(g)
                 for g, c in omega_by_index(fv, j).items()), mpmath.mpf(0))
            for j in range(1, depth + 1)]


def float_omegas(fv, depth: int) -> list[float]:
    """The doubles nearest omega_1..omega_depth, from 200-bit sums."""
    with mpmath.workprec(200):
        return [float(w) for w in omega_values(fv, depth)]


def planted_target(fv, depth: int, t_star: float, offset: Fraction) -> TorusPoint:
    """An exact target within ``offset`` turns per coordinate (plus the
    1e-9 rounding of each turn) of the orbit of 0 at time t_star, from the
    200-bit frequencies."""
    with mpmath.workprec(200):
        turns = [(w * t_star / (2 * mpmath.pi)) % 1 for w in omega_values(fv, depth)]
    return TorusPoint.exact_point([Fraction(round(float(v) * 10**9), 10**9) + offset for v in turns])


def lattice_witness(fv, n: int) -> dict:
    """Per generator g, the pair (g_1, g_N) for N = ``n``: g_N is the gcd of
    the first N nonzero coordinates of g in index order (read from
    ``omega_by_index``), the generator of the subgroup of Q they span, and
    g_1 the first of them.  The p-adic growth e_p(N) = -v_p(g_N / g_1) is
    bounded in N iff Lambda_p is finite, and g_N is eventually constant iff
    the component is free.  A solenoid or BO generator has a nonzero
    coordinate at every index (BO's beta-projection is -2 sigma_j), so its
    window is omega_1..omega_N.  The k-th non-free component of a product has
    one only at the powers of the k-th prime, so its window is p_k^1..p_k^N;
    a free one has a single coordinate, within omega_1..omega_N for the
    small products of the tests.  A generator whose coordinates are all zero
    has no entry."""
    indices = set(range(1, n + 1))
    if isinstance(fv, ProductConstruction):
        nonfree = sum(1 for _, spec in fv.components if not spec.is_free)
        indices |= {_nth_prime(k) ** e for k in range(1, nonfree + 1) for e in range(1, n + 1)}
    chains: dict = {}
    for j in sorted(indices):
        for g, c in omega_by_index(fv, j).items():
            if c != 0 and len(chains.setdefault(g, [])) < n:
                chains[g].append(c)
    return {
        g: (cs[0], Fraction(math.gcd(*(c.numerator for c in cs)), math.lcm(*(c.denominator for c in cs))))
        for g, cs in chains.items() if cs
    }


def _dense_xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) > 0; a != 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def _lin(x: list[int], y: list[int], a: int, b: int) -> list[int]:
    return [a * u + b * v for u, v in zip(x, y)]


def _hermite_reduce(basis: dict[int, list[list[int]]], k: int) -> None:
    """Reduce basis[k] into [0, pivot) at every later pivot row, in increasing order."""
    x, xd = basis[k]
    for r in range(k + 1, len(x)):
        if x[r] and r in basis:
            y, yd = basis[r]
            q = x[r] // y[r]
            if q:
                x, basis[r][1] = _lin(x, y, 1, -q), _lin(yd, xd, 1, q)
    basis[k][0] = x


class DenseHermite(NamedTuple):
    """The dense transform A as its rows and the rows of A^-1, the number of
    kernel rows, and the image basis."""

    rows: list[list[int]]
    inverse_rows: list[list[int]]
    zero_rank: int
    image: list[list[Fraction]]


def dense_hermite_transform(rows) -> DenseHermite:
    """The column Hermite transform on dense lists: every graph vector
    (M t, t) has length m + n and every dual t* length n, so each step costs
    O(n) whatever the vectors' supports.  The same steps, in the same order,
    as the library's sparse transform, scanning every later row for pivots
    where the library visits only nonzero entries."""
    n = len(rows[0])
    mat = scaled_integer_rows(rows)
    scales = []
    for row in rows:
        scale = 1
        for f in map(Fraction, row):
            scale = scale * f.denominator // math.gcd(scale, f.denominator)
        scales.append(scale)
    m = len(mat)

    basis: dict[int, list[list[int]]] = {}  # pivot row -> [(M t, t), t*]
    for j in range(n - 1, -1, -1):
        g = [row[j] for row in mat] + [0] * n
        g[m + j] = 1
        dual = [0] * n
        dual[j] = 1
        p = next(r for r, x in enumerate(g) if x)
        while p in basis:
            b, bd = basis[p]
            if g[p] % b[p] == 0:
                q = g[p] // b[p]
                g, basis[p][1] = _lin(g, b, 1, -q), _lin(bd, dual, 1, q)
            else:
                d, s, u = _dense_xgcd(b[p], g[p])
                x, y = b[p] // d, g[p] // d
                basis[p] = [_lin(b, g, s, u), _lin(bd, dual, x, y)]
                g, dual = _lin(b, g, -y, x), _lin(bd, dual, -u, s)
            p = next(r for r in range(p + 1, m + n) if g[r])
        if g[p] < 0:
            g, dual = [-x for x in g], [-x for x in dual]
        basis[p] = [g, dual]
        for k in sorted(basis):
            if k < m or k == p:
                _hermite_reduce(basis, k)

    pivots = sorted(basis, key=lambda r: (r < m, r))  # kernel first, then image
    image = [[Fraction(x, s) for x, s in zip(basis[r][0], scales)] for r in pivots if r < m]
    return DenseHermite(
        [basis[r][0][m:] for r in pivots],
        [list(r) for r in zip(*(basis[r][1] for r in pivots))],
        len(pivots) - len(image),
        image,
    )


# ---------------------------------------------------------------------------
# Solenoid geometry in Fraction arithmetic: every relation is evaluated as
# (a_j theta_j - theta_{j-1}) with Fraction multiply, subtract and % 1, and
# the reconstruction divides Fractions.  Same checks, in the same order, with
# the same messages, as the library's integer cross-multiplication.


def _fraction_check_digits(a, digits) -> None:
    for offset, n in enumerate(digits, start=2):
        bound = a.term(offset)
        if not 0 <= n < bound:
            raise ValidationError(f"digit n_{offset} = {n} outside range 0..{bound - 1}")


def fraction_is_member(a, theta: TorusPoint) -> bool:
    if not theta.exact:
        raise ValidationError("solenoid membership requires an exact point")
    if theta.depth < 2:
        raise ValidationError("membership needs depth >= 2")
    vals = theta.angles
    for j in range(1, theta.depth):
        if (a.term(j + 1) * vals[j] - vals[j - 1]) % 1 != 0:
            return False
    return True


def fraction_to_coordinates(a, theta: TorusPoint) -> SolenoidCoords:
    if not theta.exact:
        raise ValidationError("coordinate extraction requires an exact point")
    if not fraction_is_member(a, theta):
        raise ValidationError("point is not a solenoid member at this depth")
    vals = theta.angles
    digits = []
    for j in range(2, theta.depth + 1):
        n = a.term(j) * vals[j - 1] - vals[j - 2]
        if n.denominator != 1:
            raise ValidationError("internal error: digit is not an integer")
        digits.append(int(n))
    coords = SolenoidCoords(vals[0], tuple(digits))
    _fraction_check_digits(a, coords.digits)
    return coords


def _partial_products(a, n: int) -> list[int]:
    """[a_1, a_1 a_2, ..., a_1 ... a_n], term by term."""
    return list(itertools.accumulate((a.term(j) for j in range(1, n + 1)), operator.mul))


def fraction_from_coordinates(a, coords: SolenoidCoords) -> TorusPoint:
    """theta_j = (tau + sum_{m<=j} n_m a_1 ... a_{m-1}) / (a_1 ... a_j)."""
    _fraction_check_digits(a, coords.digits)
    products = _partial_products(a, coords.depth)
    vals = [coords.tau]
    acc = coords.tau
    for n, previous, product in zip(coords.digits, products, products[1:]):
        acc += n * previous
        theta_j = acc / product
        if not 0 <= theta_j < 1:
            raise ValidationError("internal error: reconstructed angle left [0,1)")
        vals.append(theta_j)
    point = TorusPoint(tuple(Fraction(v) % 1 for v in vals), True)
    if not fraction_is_member(a, point):
        raise ValidationError("internal error: reconstructed point fails membership")
    return point


def fraction_approximating_times(a, coords: SolenoidCoords) -> list[Fraction]:
    """t_k = tau + sum_{m=2..k} n_m a_1 ... a_{m-1}."""
    _fraction_check_digits(a, coords.digits)
    times = [Fraction(coords.tau)]
    acc = Fraction(coords.tau)
    for n, product in zip(coords.digits, _partial_products(a, coords.depth - 1)):
        acc += n * product
        times.append(acc)
    return times


def solenoid_flow_angles(a, t: Fraction, depth: int) -> list[Fraction]:
    """The exact flow of omega_j = 1 / (a_1 ... a_j) from the origin, in turns:
    t / (a_1 ... a_j) mod 1 for j = 1..depth, the product taken term by term."""
    angles, product = [], 1
    for j in range(1, depth + 1):
        product *= a.term(j)
        angles.append(Fraction(t) / product % 1)
    return angles


# ---------------------------------------------------------------------------
# Supernatural numbers by the earlier coverage state machine


@functools.cache
def _is_odd_indexed(p: int) -> bool:
    """Whether p sits at an odd position in the list of primes, by counting
    the primes up to p."""
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValidationError(f"{p} is not prime")
    return sum(1 for q in range(2, p + 1) if all(q % d for d in range(2, math.isqrt(q) + 1))) % 2 == 1


def _state_machine_check_exponent(e):
    if e == math.inf:
        return math.inf
    if isinstance(e, int) and e >= 0:
        return e
    raise ValidationError(f"exponent must be a nonnegative integer or infinity, got {e!r}")


def _state_machine_drop_shadowed(pairs):
    """Drop each pair whose primes are all covered by earlier kept pairs,
    tracking per index class either the explicit covered set ("partial") or
    the finite set still missing ("cofinite")."""
    state = {True: ("partial", frozenset()), False: ("partial", frozenset())}

    def covered(p: int) -> bool:
        mode, data = state[_is_odd_indexed(p)]
        return p in data if mode == "partial" else p not in data

    def class_covered_except_within(odd: bool, allowed: frozenset) -> bool:
        mode, data = state[odd]
        return mode == "cofinite" and data <= allowed

    out = []
    for pset, exp in pairs:
        kind = pset[0]
        if kind == "finite":
            shadowed = all(covered(p) for p in pset[1])
        elif kind == "all":
            shadowed = class_covered_except_within(True, frozenset()) and class_covered_except_within(
                False, frozenset()
            )
        elif kind in ("odd_indexed", "even_indexed"):
            shadowed = class_covered_except_within(kind == "odd_indexed", frozenset())
        else:
            shadowed = class_covered_except_within(True, pset[1]) and class_covered_except_within(False, pset[1])
        if shadowed:
            continue
        out.append((pset, exp))
        for odd in (True, False):
            mode, data = state[odd]
            if kind in ("finite", "cofinite"):
                members = frozenset(p for p in pset[1] if _is_odd_indexed(p) == odd)
            if kind == "finite":
                state[odd] = (mode, data | members) if mode == "partial" else (mode, data - members)
            elif kind == "all" or kind == ("odd_indexed" if odd else "even_indexed"):
                state[odd] = ("cofinite", frozenset())
            elif kind == "cofinite":
                state[odd] = ("cofinite", members - data) if mode == "partial" else ("cofinite", data & members)
    return out


def state_machine_resolve(pairs, p: int):
    """Exponent of the first pair whose prime set contains p, or None."""
    for pset, exp in pairs:
        kind = pset[0]
        if kind == "finite" and p in pset[1]:
            return exp
        if kind == "all":
            return exp
        if kind == "odd_indexed" and _is_odd_indexed(p):
            return exp
        if kind == "even_indexed" and not _is_odd_indexed(p):
            return exp
        if kind == "cofinite" and p not in pset[1]:
            return exp
    return None


def state_machine_supernatural(pairs):
    """(canonical pairs, (odd asymptotic, even asymptotic, exceptions)) of a
    supernatural number given as prioritized (prime set, exponent) pairs.
    Invalid input raises ValidationError with the library's messages; the
    unresolved prime named is the smallest one."""
    cleaned = []
    for pset, exp in pairs:
        kind = pset[0]
        if kind == "finite":
            pset = ("finite", frozenset(int(p) for p in pset[1]))
            if not pset[1]:
                continue
        elif kind == "cofinite":
            pset = ("cofinite", frozenset(int(p) for p in pset[1]))
        elif kind not in ("all", "odd_indexed", "even_indexed"):
            raise ValidationError(f"unknown prime set kind {kind!r}")
        cleaned.append((pset, _state_machine_check_exponent(exp)))
    kept = _state_machine_drop_shadowed(cleaned)

    def asymptotic(wanted: str):
        return next((exp for pset, exp in kept if pset[0] in ("all", "cofinite", wanted)), None)

    odd_a, even_a = asymptotic("odd_indexed"), asymptotic("even_indexed")
    if odd_a is None or even_a is None:
        raise ValidationError("prime-set pairs leave infinitely many primes unassigned")
    candidates = sorted({p for pset, _ in kept if pset[0] in ("finite", "cofinite") for p in pset[1]})
    exceptions = {}
    for p in candidates:
        e = state_machine_resolve(kept, p)
        if e is None:
            raise ValidationError(f"prime {p} resolves to no exponent")
        if e != (odd_a if _is_odd_indexed(p) else even_a):
            exceptions[p] = e
    return tuple(kept), (odd_a, even_a, exceptions)


def supernatural_json(pairs) -> dict:
    """The JSON form of canonical pairs: a finite set as its sorted primes,
    a cofinite one as {"all_except": sorted primes}, the rest by name."""
    out = []
    for pset, exp in pairs:
        if pset[0] == "finite":
            primes: object = sorted(pset[1])
        elif pset[0] == "cofinite":
            primes = {"all_except": sorted(pset[1])}
        else:
            primes = pset[0]
        out.append({"primes": primes, "exp": "inf" if exp == math.inf else exp})
    return {"pairs": out}


# ---------------------------------------------------------------------------
# The closed-form average, its envelope and the equidistribution rows as the
# library first wrote them, float operation for float operation, so that the
# CLI payloads can be compared bit for bit.  nu . omega comes from
# ``dynamics.nu_dot_omega``; everything after it is spelled out here.


def _phase_as_first_written(nu, theta0: TorusPoint) -> float:
    """nu . Theta0 in radians: the exact angles reduced mod 1 before the one
    rounding to a double, the float angles summed in index order."""
    if theta0.exact:
        frac = sum((v * theta0.angles[j - 1] for j, v in nu.items()), Fraction(0))
        return 2 * math.pi * float(frac % 1)
    total = 0.0
    for j, v in nu.items():
        total += v * theta0.angles[j - 1]
    return total


def _window_average_as_first_written(nu, omega_nu, theta0: TorusPoint, t_final: float) -> complex:
    """(1/T) integral_0^T exp(i nu . Theta(t)) dt for ``omega_nu = (resonant,
    nu . omega)``: 1 for nu = 0, exp(i nu . Theta0) for a resonant nu, else
    exp(i nu . Theta0) (e^{iwT} - 1) / (iwT)."""
    import cmath

    if nu.is_zero():
        return 1.0 + 0.0j
    resonant, value = omega_nu
    phase0 = cmath.exp(1j * _phase_as_first_written(nu, theta0))
    if resonant:
        return phase0
    wt = value * t_final
    return phase0 * (cmath.exp(1j * wt) - 1.0) / (1j * wt)


def average_rows_as_first_written(fv, poly, theta0: TorusPoint, t_finals) -> list[dict]:
    """The ``rows`` of ``kron average``: per window, the complex sum of
    a_nu times the window average of each monomial, which had to be real to
    1e-12 (a ValidationError naming reality otherwise), and the envelope
    sum over the nonzero monomials of 2 |a_nu| / (T |nu . omega|), None when
    one of them is resonant."""
    from kronflow.dynamics import nu_dot_omega

    omega_nus = {nu: nu_dot_omega(fv, nu) for nu, _ in poly.coeffs if not nu.is_zero()}
    rows = []
    for t_final in t_finals:
        total = 0.0 + 0.0j
        for nu, (re, im) in poly.coeffs:
            a = complex(re) + 1j * complex(im)
            total += a * _window_average_as_first_written(nu, omega_nus.get(nu), theta0, t_final)
        if abs(total.imag) > 1e-12:
            raise ValidationError("reality violated: average has a nonzero imaginary part")
        envelope = 0.0
        for nu, (re, im) in poly.coeffs:
            if nu.is_zero():
                continue
            resonant, w = omega_nus[nu]
            if resonant:
                envelope = None
                break
            envelope += 2.0 * abs(complex(re) + 1j * complex(im)) / (t_final * abs(w))
        rows.append({"T": t_final, "value": total.real, "envelope": envelope})
    return rows


def equidistribution_rows_as_first_written(fv, nus, t_finals, theta0: TorusPoint) -> list[dict]:
    """The ``rows`` of ``kron equidistribution``: per monomial and window,
    the magnitude of the window average against 2 / (T |nu . omega|), or the
    flag "zero" or "resonant" with null fields."""
    from kronflow.dynamics import nu_dot_omega

    rows = []
    for nu in nus:
        flagged = {"nu": nu.to_json(), "magnitude": None, "bound": None, "pass": None}
        if nu.is_zero():
            rows += [{**flagged, "T": t_final, "flag": "zero"} for t_final in t_finals]
            continue
        omega_nu = nu_dot_omega(fv, nu)
        resonant, value = omega_nu
        for t_final in t_finals:
            if resonant:
                rows.append({**flagged, "T": t_final, "flag": "resonant"})
                continue
            mag = abs(_window_average_as_first_written(nu, omega_nu, theta0, t_final))
            bound = 2.0 / (t_final * abs(value))
            rows.append({"nu": nu.to_json(), "T": t_final, "magnitude": mag, "bound": bound,
                         "pass": mag <= bound + 1e-12, "flag": None})
    return rows


# ---------------------------------------------------------------------------
# The simulate CSV as the CLI first wrote it: ``csv.writer`` (QUOTE_MINIMAL,
# "\r\n" line ends) fed one ``f"{x:.12g}"`` string per cell.


def simulate_csv_as_first_written(rows, depth: int) -> bytes:
    """The bytes of the CSV of (t, angles) rows under the header t,theta_1..theta_depth."""
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(["t"] + [f"theta_{j}" for j in range(1, depth + 1)])
    for t, angles in rows:
        writer.writerow([f"{t:.12g}"] + [f"{a:.12g}" for a in angles])
    return fh.getvalue().encode("utf-8")
