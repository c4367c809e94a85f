"""Prime tables with the mod-4 character attached."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import DomainError


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
