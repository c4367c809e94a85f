"""Slow, obviously correct reference functions that the tests check the
exact routes against: trial-division factorization, r(n)/4 from a
factorization, r(n) by a lattice scan, and chi4."""

from __future__ import annotations

from math import isqrt

from smoothcircle.counting import _local_r4
from smoothcircle.errors import DomainError


def chi4(n: int) -> int:
    """The nontrivial character mod 4: 0 on evens, else (-1)^((n-1)/2)."""
    if n < 1:
        raise DomainError(f"chi4 needs n >= 1, got {n}")
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as an ascending list of (p, exponent)."""
    if n < 1:
        raise DomainError(f"factorize needs n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 5
    while d * d <= n:
        for step in (d, d + 2):
            if n % step == 0:
                e = 0
                while n % step == 0:
                    n //= step
                    e += 1
                out.append((step, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    out.sort()
    return out


def r_over_4(n: int, factorization: list[tuple[int, int]]) -> int:
    """r(n)/4 evaluated multiplicatively from the prime factorization of n.

    Local values: 1 at powers of 2, e+1 at p^e for p = 1 (mod 4), and 1 or 0
    at p^e for p = 3 (mod 4) according as e is even or odd.  Equivalent to
    counting divisors d of n weighted by chi4(d).
    """
    if n < 1:
        raise DomainError(f"r_over_4 needs n >= 1, got {n}")
    prod = 1
    val = 1
    seen: set[int] = set()
    for p, e in factorization:
        if p < 2 or e < 1 or p in seen:
            raise DomainError(f"invalid factorization entry ({p}, {e})")
        seen.add(p)
        prod *= p**e
        val *= _local_r4(p, e)
    if prod != n:
        raise DomainError(f"factorization product {prod} != n = {n}")
    return val


def lattice_r(n: int) -> int:
    """r(n) by brute-force lattice scan: pairs (a, b) with a^2 + b^2 = n.

    Independent oracle for the multiplicative route; O(sqrt n) work.
    """
    if n < 1:
        raise DomainError(f"lattice_r needs n >= 1, got {n}")
    count = 0
    a = 0
    while a * a <= n:
        b2 = n - a * a
        b = isqrt(b2)
        if b * b == b2:
            count += (2 if a else 1) * (2 if b else 1)
        a += 1
    return count
