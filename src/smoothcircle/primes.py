"""Prime tables with the mod-4 character attached, and trial-division
factorization."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import CacheFormatError, DomainError


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    comp = np.zeros(limit + 1, dtype=bool)
    comp[:2] = True
    for p in range(2, isqrt(limit) + 1):
        if not comp[p]:
            comp[p * p :: p] = True
    return np.flatnonzero(~comp).astype(np.int64)


@dataclass(frozen=True)
class PrimeTable:
    """Immutable table of the primes p <= y_limit with chi_4(p) and log p.

    chi is 0 at p=2, +1 for p = 1 (mod 4) and -1 for p = 3 (mod 4).  The
    arrays are read-only and shared freely between threads.
    """

    y_limit: int
    p: np.ndarray = field(repr=False)
    chi: np.ndarray = field(repr=False)
    logp: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return int(self.p.size)

    def restrict(self, limit: int) -> "PrimeTable":
        """View of the table truncated to primes <= limit."""
        if limit >= self.y_limit:
            return self
        k = int(np.searchsorted(self.p, limit, side="right"))
        return PrimeTable(limit, self.p[:k], self.chi[:k], self.logp[:k])

    def validate(self) -> None:
        if self.p.size and not np.all(np.diff(self.p) > 0):
            raise CacheFormatError("prime table not strictly increasing")
        expect = np.where(self.p % 4 == 1, 1, -1)
        expect[self.p == 2] = 0
        if not np.array_equal(self.chi, expect):
            raise CacheFormatError("chi_4 column inconsistent with residues mod 4")


@lru_cache(maxsize=16)
def prime_table(y: int) -> PrimeTable:
    """Cached PrimeTable for the bound y >= 2."""
    if y < 2:
        raise DomainError(f"prime table needs y >= 2, got {y}")
    p = sieve_primes(y)
    chi = np.where(p % 4 == 1, 1, -1).astype(np.int8)
    chi[p == 2] = 0
    logp = np.log(p.astype(np.float64))
    for arr in (p, chi, logp):
        arr.setflags(write=False)
    return PrimeTable(y, p, chi, logp)


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
