"""Independent arithmetic for the benchmark's output checks.

Nothing here imports kronflow.  Coordinates are rebuilt from the spec JSON
as the README defines the families, ranks come from plain Gaussian
elimination, and float references are evaluated with mpmath at the
caller's working precision (the checks use 200 bits).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np

# ---------------------------------------------------------------------------
# primes and sequences


def primes(count: int) -> list[int]:
    """The first ``count`` primes."""
    out: list[int] = []
    n = 2
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


def prime_factors(n: int) -> set[int]:
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def sequence_terms(seq: dict, n: int) -> list[int]:
    """a_1..a_n of a {"prefix", "tail"} sequence."""
    prefix = [int(v) for v in seq["prefix"]]
    tail = seq["tail"]
    out = prefix[:n]
    odd = primes(2 * n)[0::2] if tail == "odd_indexed_primes" else []
    for j in range(len(out) + 1, n + 1):
        m = j - len(prefix)
        if tail == "increment":
            out.append(j)
        elif tail == "odd_indexed_primes":
            out.append(odd[m - 1])
        elif "constant" in tail:
            out.append(int(tail["constant"]))
        else:
            cycle = tail["periodic"]
            out.append(int(cycle[(m - 1) % len(cycle)]))
    return out


def solenoid_point(a: list[int], tau: Fraction, digits: list[int]) -> list[Fraction]:
    """Inverse of the digit map: theta_1 = tau, theta_j = (theta_{j-1} + n_j) / a_j."""
    theta = [Fraction(tau)]
    for j, n in enumerate(digits, start=2):
        theta.append((theta[-1] + n) / a[j - 1])
    return theta


# ---------------------------------------------------------------------------
# exact coordinates of omega_1..omega_depth, keyed by generator name


def sigma(s: dict, j: int) -> Fraction:
    """sigma_j = sum_k min(j, k) s_k, with the geometric tail summed in closed form."""
    prefix = [Fraction(v) for v in s.get("prefix", [])]
    tail = s.get("tail")
    c, r = (Fraction(tail["c"]), Fraction(tail["r"])) if tail else (Fraction(0), Fraction(0))
    total = sum((min(j, k) * v for k, v in enumerate(prefix, start=1)), Fraction(0))
    if c:
        big_l = len(prefix)
        # tail terms k = L+1, L+2, ...: s_k = c r^(k-L-1)
        for k in range(big_l + 1, max(j, big_l) + 1):
            total += k * c * r ** (k - big_l - 1)
        first = max(j, big_l) + 1
        total += j * c * r ** (first - big_l - 1) / (1 - r)
    return total


def _beta_name(spec: dict) -> str:
    beta = spec.get("beta", {"name": "beta"})
    return beta["name"] if isinstance(beta, dict) else beta


def coordinates(spec: dict, depth: int) -> list[dict[str, Fraction]]:
    kind = spec["kind"]
    if kind == "finite":
        return [{g: Fraction(v) for g, v in t.items() if Fraction(v)} for t in spec["terms"][:depth]]
    if kind == "solenoid":
        out, prod = [], 1
        for a_j in sequence_terms(spec["a"], depth):
            prod *= a_j
            out.append({spec.get("generator", "1"): Fraction(1, prod)})
        return out
    if kind == "bo":
        beta = _beta_name(spec)
        return [{"1": Fraction(j * j), beta: -2 * sigma(spec["s"], j)} for j in range(1, depth + 1)]
    if kind == "product":
        # non-free component n: generator sqrt(p_n) on indices p_n^N with
        # coordinate 1/(a_1...a_N); free component k: pi^k on the k-th index
        # that is no such prime power; every other index is zero
        comps = spec["components"]
        nonfree = [c for c in comps if "qa" in c]
        ps = primes(len(nonfree))
        n_free = len(comps) - len(nonfree)
        out: list[dict[str, Fraction]] = [{} for _ in range(depth)]
        for p, comp in zip(ps, nonfree):
            a = sequence_terms(comp["qa"], depth)
            q, n_pow, prod = p, 1, a[0]
            while q <= depth:
                out[q - 1] = {f"sqrt{p}": Fraction(1, prod)}
                n_pow += 1
                prod *= a[n_pow - 1]
                q *= p
        reserved = {j for j in range(2, depth + 1) if len(prime_factors(j)) == 1 and prime_factors(j) <= set(ps)}
        free_rank = 0
        for j in range(1, depth + 1):
            if j not in reserved:
                free_rank += 1
                if free_rank <= n_free:
                    out[j - 1] = {"pi" if free_rank == 1 else f"pi^{free_rank}": Fraction(1)}
        return out
    raise ValueError(f"unknown spec kind {kind!r}")


def coordinate_rows(spec: dict, depth: int) -> tuple[list[str], list[list[Fraction]]]:
    """Rows indexed by generator, columns by j = 1..depth."""
    cols = coordinates(spec, depth)
    gens = sorted({g for c in cols for g in c})
    return gens, [[c.get(g, Fraction(0)) for c in cols] for g in gens]


def rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination."""
    m = [list(r) for r in rows if any(r)]
    rk = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(len(m)):
            if i != rk and m[i][col] != 0:
                f = m[i][col] / m[rk][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rk])]
        rk += 1
    return rk


_P = 33554393  # a prime below 2^25, so products of residues fit in int64


def independent_mod_p(vectors: list[list[int]]) -> bool:
    """True if the integer vectors are linearly independent.  Full rank mod p
    implies full rank over Q, so a True answer is certain."""
    if not vectors:
        return True
    m = np.array([[v % _P for v in vec] for vec in vectors], dtype=np.int64)
    rows, cols = m.shape
    rk = 0
    for col in range(cols):
        nz = np.nonzero(m[rk:, col])[0]
        if nz.size == 0:
            continue
        piv = rk + int(nz[0])
        m[[rk, piv]] = m[[piv, rk]]
        m[rk] = m[rk] * pow(int(m[rk, col]), -1, _P) % _P
        others = np.nonzero(m[:, col])[0]
        others = others[others != rk]
        m[others] = (m[others] - np.outer(m[others, col], m[rk]) % _P) % _P
        rk += 1
        if rk == rows:
            break
    return rk == rows


# ---------------------------------------------------------------------------
# float references (call inside mpmath.workprec)


def generator_value(name: str, spec: dict) -> mpmath.mpf:
    declared = {g["name"]: g for g in spec.get("generators", [])}
    beta = spec.get("beta")
    if isinstance(beta, dict):
        declared.setdefault(beta["name"], beta)
    if name in declared:
        return mpmath.mpf(declared[name]["value"])
    if name == "1":
        return mpmath.mpf(1)
    if name.startswith("sqrt"):
        return mpmath.sqrt(int(name[4:]))
    if name == "pi":
        return +mpmath.pi
    if name.startswith("pi^"):
        return mpmath.pi ** int(name[3:])
    raise ValueError(f"no value for generator {name!r}")


def omegas(spec: dict, depth: int) -> list[mpmath.mpf]:
    values = {}
    out = []
    for coords in coordinates(spec, depth):
        total = mpmath.mpf(0)
        for g, c in coords.items():
            if g not in values:
                values[g] = generator_value(g, spec)
            total += mpmath.mpf(c.numerator) / c.denominator * values[g]
        out.append(total)
    return out


def circular_distance(x: float, ref: mpmath.mpf, period) -> float:
    d = (mpmath.mpf(x) - ref) % period
    return float(min(d, period - d))

