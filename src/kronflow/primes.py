"""Small-prime utilities: enumeration, indexing, and integer factorization.

Every number handled here is tiny (sequence entries, rational denominators),
so trial division is plenty and keeps imports light.
"""

from __future__ import annotations

import bisect

from .errors import ValidationError

_PRIMES: list[int] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _is_prime_trial(n: int) -> bool:
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _extend_primes(upto_count: int = 0, upto_value: int = 0) -> None:
    while len(_PRIMES) < upto_count or _PRIMES[-1] < upto_value:
        candidate = _PRIMES[-1] + 2
        while not _is_prime_trial(candidate):
            candidate += 2
        _PRIMES.append(candidate)


def nth_prime(n: int) -> int:
    """The n-th prime, 1-based (nth_prime(1) == 2)."""
    if n < 1:
        raise ValidationError(f"prime index must be >= 1, got {n}")
    _extend_primes(upto_count=n)
    return _PRIMES[n - 1]


def is_prime(n: int) -> bool:
    """Looked up in the prime table when n is within it, else tested by trial
    division in O(sqrt n), without growing the table."""
    if n < 2:
        return False
    if n > _PRIMES[-1]:
        return _is_prime_trial(n)
    return _PRIMES[bisect.bisect_left(_PRIMES, n)] == n


def prime_index(p: int) -> int:
    """1-based position of p in the ascending list of primes."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    _extend_primes(upto_value=p)
    return bisect.bisect_left(_PRIMES, p) + 1


def is_odd_indexed_prime(p: int) -> bool:
    return prime_index(p) % 2 == 1


def odd_indexed_primes(count: int) -> list[int]:
    """The first ``count`` odd-indexed primes: positions 1, 3, 5, ... in the
    prime list."""
    _extend_primes(upto_count=2 * count)
    return _PRIMES[: 2 * count : 2]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n < 1:
        raise ValidationError(f"cannot factorize non-positive integer {n}")
    out: dict[int, int] = {}
    rest = n
    d = 2
    while d * d <= rest:
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
        d += 1 if d == 2 else 2
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out
