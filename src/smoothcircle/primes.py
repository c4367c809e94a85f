"""Prime tables with the mod-4 character and log p attached, sieved from the
odd numbers in cache-sized segments."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import DomainError


# Odd numbers per segment of the sieve: 2^18 bool slots, 256 KB, which
# stay in the CPU cache while every base prime strikes them.
_SIEVE_SEGMENT = 1 << 18


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2).

    A segmented sieve (Bays and Hudson, BIT 17, 1977) of the odd numbers
    only: slot i stands for 2i + 1, and the slots are struck _SIEVE_SEGMENT
    at a time.  An odd prime p <= sqrt(limit) strikes its odd multiples
    from p^2 on, which are slots p^2 // 2, p^2 // 2 + p, ...  Slot 0 (the
    number 1) is never struck, and its place in the result holds 2.  The
    survivors go straight into one array of ceil(1.25506 limit / log limit)
    entries, more than pi(limit) for limit > 1 (Rosser and Schoenfeld,
    Illinois J. Math. 6, 1962, (3.6)), allocated before the base primes
    are sieved: a limit whose array numpy cannot allocate raises its
    MemoryError at once, and so does a limit whose slots pass numpy's
    index range, before numpy is asked.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    index_max = np.iinfo(np.intp).max
    if (limit + 1) // 2 > index_max:
        raise MemoryError(
            f"Unable to allocate a prime sieve of over {index_max} entries (numpy's index range)"
        )
    return _sieve(limit)


def _sieve(limit: int) -> np.ndarray:
    """sieve_primes(limit) for limit >= 2, its base primes sieved by itself."""
    out = np.empty(math.ceil(1.25506 * limit / math.log(limit)), dtype=np.int64)
    root = isqrt(limit)
    base = _sieve(root)[1:].tolist() if root >= 3 else []  # the odd primes <= sqrt(limit)
    size = (limit + 1) // 2
    seg = np.empty(min(size, _SIEVE_SEGMENT), dtype=bool)
    nxt = [p * p // 2 for p in base]  # each base prime's next slot to strike
    n = active = 0
    for lo in range(0, size, _SIEVE_SEGMENT):
        hi = min(lo + _SIEVE_SEGMENT, size)
        window = seg[: hi - lo]
        window.fill(True)
        while active < len(base) and nxt[active] < hi:
            active += 1
        for k in range(active):
            p, j = base[k], nxt[k]
            window[j - lo :: p] = False
            # the first slot >= hi; a j past this segment (j < hi + p) stays
            nxt[k] = j + (hi - j + p - 1) // p * p
        idx = np.flatnonzero(window)
        dst = out[n : n + idx.size]
        np.multiply(idx, 2, out=dst)
        dst += 2 * lo + 1
        n += idx.size
    out[0] = 2
    return out[:n]


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


# The table of the largest bound sieved so far; every smaller bound reads a
# prefix of it.  Replaced, under the lock, only by a table of a larger bound.
_largest: PrimeTable | None = None
_largest_lock = threading.Lock()


@lru_cache(maxsize=16)
def prime_table(y: int) -> PrimeTable:
    """Cached PrimeTable for the bound y >= 2.

    A bound no larger than one already sieved sieves nothing: its arrays
    are read-only prefix views of that table's, cut at one searchsorted.
    Only a bound past every earlier one runs sieve_primes.
    """
    global _largest
    if y < 2:
        raise DomainError(f"prime table needs y >= 2, got {y}")
    largest = _largest
    if largest is not None and largest.y_limit >= y:
        n = int(np.searchsorted(largest.p, y, side="right"))
        return PrimeTable(y, largest.p[:n], largest.chi[:n], largest.logp[:n])
    p = sieve_primes(y)
    # chi = 2 - (p & 3), p & 3 being 1, 3 or 2 (at p = 2 only), and log p,
    # each formed in its own array with no whole-array temporary
    chi = np.bitwise_and(p, 3, out=np.empty(p.size, dtype=np.int8), casting="unsafe")
    np.subtract(2, chi, out=chi)
    logp = np.log(p, dtype=np.float64)
    for arr in (p, chi, logp):
        arr.setflags(write=False)
    table = PrimeTable(y, p, chi, logp)
    with _largest_lock:
        if _largest is None or _largest.y_limit < y:
            _largest = table
    return table
