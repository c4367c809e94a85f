"""Prime tables with the mod-4 character attached."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import DomainError


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2).

    The sieve holds the odd numbers only: index i stands for 2i + 1.  An
    odd prime p strikes its odd multiples from p^2 on, which are indices
    p^2 // 2, p^2 // 2 + p, ...  Index 0 (the number 1) is never struck,
    and its slot in the result holds 2.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


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


@lru_cache(maxsize=16)
def prime_table(y: int) -> PrimeTable:
    """Cached PrimeTable for the bound y >= 2."""
    if y < 2:
        raise DomainError(f"prime table needs y >= 2, got {y}")
    p = sieve_primes(y)
    chi = (2 - (p & 3)).astype(np.int8)  # p & 3 is 1, 3 or 2 (at p = 2 only)
    logp = np.log(p.astype(np.float64))
    for arr in (p, chi, logp):
        arr.setflags(write=False)
    return PrimeTable(y, p, chi, logp)
