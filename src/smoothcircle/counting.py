"""Exact arithmetic for sums of two squares over smooth numbers.

r(n) counts representations n = a^2 + b^2 with signs and order distinct;
r(n)/4 is multiplicative.  The central exact quantity is the circle sum
sum of r(n) over y-smooth n <= x (n = 1 included, r(1) = 4).  Two routes
compute it independently; they share only the prime table.  The recursive
route is the one `exact_circle_sum` takes by default; the sieve is the
independent cross-check.

The sieve walks [1, x] in segments.  For each prime p <= y and each power
p^k below the segment end, strided views a[s::p^k] multiply the y-smooth
part of n by p and count the exponent of p in an int8 scratch; the local
factor of r/4 is then applied once over a[s::p].  n is y-smooth iff its
smooth part equals n.

The recursive route walks the y-smooth n by descending primes.  A node
(cur, p) stands for the n = cur k with k <= m = x // cur built from the
primes <= p.  Each node has its own y-smooth cur <= x, so a walk has at
most as many nodes as there are terms, and never more than x.  Most
subtrees close without a walk:

- m <= p (every k counts): a closed form.
- p < 128 and m <= 2^14: one lookup in the small-m table, which holds the
  weight and the count of the p-smooth k <= m for each of the 31 primes
  below 128 and every m <= 2^14 (the small-argument table of Meissel-Lehmer
  counting).  It is built once per process, on first use, by one numpy
  recurrence over the primes.
- p^2 >= m: then k has at most one prime factor q > p, so Buchstab's
  identity gives the whole subtree:

    sum of r(k)/4 = S4(m) - 2 sum_{p < q <= m, q = 1 (mod 4)} S4(m // q),
    count         = m - sum_{p < q <= m} m // q,

  with S4(v) = sum_{n <= v} r(n)/4, the first-quadrant lattice points of
  the disc of radius sqrt v.  The q-sums are grouped by k = m // q < sqrt m
  and read pi(v) and sum chi4(p) over p <= v at the quotients v = x // j
  from one Lucy-Legendre table.

A walked node closes the powers of 2 itself: it counts k = 1, 2, 4, ...
<= m, m.bit_length() terms of weight r(2^e)/4 = 1 each, and has children
only for the primes from 3 up, so a node with p = 2 is a table lookup or a
walked node without children.  Past the table, a node with m <= 2^14 has
p >= 131 > sqrt(2^14), so m <= p or p^2 >= m: no node with m <= 2^14 is
walked.  Every node, whether walked, closed in a closed form, a table
lookup or a Buchstab leaf, counts as one node against the enumeration
budget.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .config import Config
from .errors import DomainError, ResourceBudgetError
from .primes import prime_table, sieve_primes

_SEGMENT_SIZE = 1 << 20  # integers per sieve segment: 8 MB per int64 array


def _local_r4(p: int, e: int) -> int:
    # Local factor of r(n)/4 at p^e.
    if p == 2:
        return 1
    if p % 4 == 1:
        return e + 1
    return 0 if e & 1 else 1


def lattice_r_table(limit: int) -> np.ndarray:
    """r(n) for all 0 <= n <= limit by one sweep over the lattice quadrant.

    Entry 0 is the origin count (1).  Each row a contributes a^2 + b^2 for
    b = 0..floor(sqrt(limit - a^2)) with the sign/order multiplicities; the
    targets within a row are distinct, so fancy-index accumulation is exact.
    """
    if limit < 0:
        raise DomainError(f"lattice_r_table needs limit >= 0, got {limit}")
    counts = np.zeros(limit + 1, dtype=np.int64)
    amax = isqrt(limit)
    for a in range(amax + 1):
        bmax = isqrt(limit - a * a)
        b = np.arange(bmax + 1, dtype=np.int64)
        w = np.full(bmax + 1, 4 if a else 2, dtype=np.int64)
        w[0] = 2 if a else 1
        counts[a * a + b * b] += w
    return counts


@dataclass(frozen=True)
class ExactCount:
    """Exact circle sum over y-smooth n <= x, with the count of those n.

    value is a plain (unbounded) int and is always a multiple of 4;
    terms is the number of y-smooth n <= x, n = 1 included, whichever
    route counted them.  nodes is what the call charged against its node
    budget: the recursive route's nodes (walked nodes, which count their
    powers of 2 themselves, closed forms, table lookups and Buchstab
    leaves, one each), or x for the sieve.  The same call
    succeeds with node_budget=nodes and raises with nodes - 1.
    """

    x: int
    y: int
    value: int
    terms: int
    method: str
    nodes: int


def _isqrt_array(v: np.ndarray) -> np.ndarray:
    # Exact floor square roots of an int64 array with 0 <= v < 2^62: the
    # float root is within one of the true one, the corrections make it exact.
    s = np.sqrt(v.astype(np.float64)).astype(np.int64)
    s -= s * s > v
    s += (s + 1) * (s + 1) <= v
    return s


def _disc_s4(m: int) -> int:
    # S4(m) = sum_{n <= m} r(n)/4, the lattice points (a, b) with a >= 1,
    # b >= 0 and a^2 + b^2 <= m: O(sqrt m) exact integer square roots.
    a = np.arange(1, isqrt(m) + 1, dtype=np.int64)
    return int(_isqrt_array(m - a * a).sum()) + a.size


class _QuotientPrimes:
    """pi(v) and sum_{p <= v} chi4(p) at every quotient v = x // j <= limit,
    for 1 <= limit <= x.

    Quotients up to min(sqrt x, limit) are indexed by v, larger ones by
    j = x // v.  With limit <= sqrt x every v <= limit is a quotient and the
    rows are prefix sums over sieve_primes(limit).  Otherwise one
    Lucy-Legendre pass over the primes up to sqrt(limit) (`primes` must hold
    them, ascending) fills them; the set of quotients <= limit is closed
    under v -> v // p, so the pass never needs a value it does not hold.
    Both rows start from the completely multiplicative sums over 2..v of 1
    and of chi4 and strip composites prime by prime.
    """

    def __init__(self, x: int, limit: int, primes: np.ndarray) -> None:
        r = isqrt(x)
        self.x = x
        if limit <= r:
            ps = sieve_primes(limit)
            marks = np.zeros((2, limit + 1), dtype=np.int64)
            marks[0, ps] = 1
            marks[1, ps] = 2 - ps % 4  # chi4(p): 0 at p = 2, else +-1
            self.s, self.j0, self.small = limit, r + 1, np.cumsum(marks, axis=1)
            self.large = self.small[:, :0]
            return
        j0 = x // (limit + 1) + 1
        v = np.arange(r + 1, dtype=np.int64)
        big = x // np.arange(j0, r + 1, dtype=np.int64)
        small = np.stack([np.maximum(v - 1, 0), _chi4_prefix(v)])
        large = np.stack([big - 1, _chi4_prefix(big)])
        for p in primes[: np.searchsorted(primes, isqrt(limit), side="right")]:
            p = int(p)
            f = np.array([[1], [0 if p == 2 else 1 - 2 * (p % 4 == 3)]], dtype=np.int64)
            below = small[:, p - 1 : p].copy()
            jmax = min(r, x // (p * p))
            if jmax >= j0:
                jb = max(j0 - 1, min(jmax, r // p))
                # v // p = x // (j p): from `large` while j p <= r, else `small`.
                inner = large[:, j0 * p - j0 : jb * p - j0 + 1 : p]
                outer = small[:, x // (np.arange(jb + 1, jmax + 1, dtype=np.int64) * p)]
                large[:, : jmax - j0 + 1] -= f * (np.concatenate([inner, outer], axis=1) - below)
            if p * p <= r:
                small[:, p * p :] -= f * (small[:, v[p * p :] // p] - below)
        self.s, self.j0, self.small, self.large = r, j0, small, large

    def counts(self, vs: np.ndarray) -> np.ndarray:
        """Rows (pi(v), sum chi4(p) over p <= v) for a descending array of
        quotients v <= limit."""
        nbig = int(np.count_nonzero(vs > self.s))
        if nbig == 0:  # also where x itself would overflow int64
            return self.small[:, vs]
        return np.concatenate(
            [self.large[:, self.x // vs[:nbig] - self.j0], self.small[:, vs[nbig:]]], axis=1
        )


def _chi4_prefix(v: np.ndarray) -> np.ndarray:
    # sum_{2 <= n <= v} chi4(n): the full sum is 1 for v = 1, 2 (mod 4), else 0.
    return np.where(v >= 1, (v % 4 == 1) | (v % 4 == 2), 1).astype(np.int64) - 1


# The small-m table: rows for the 31 primes below 128, columns m <= 2^14,
# two int32 arrays of about 2 MB each.  The next prime, 131, has
# 131^2 > 2^14, so a node the table misses with m <= 2^14 has m <= p or
# p^2 >= m: a closed form or a Buchstab leaf.
_SMALL_PRIMES = 31
_SMALL_M = 1 << 14
# Once sqrt x passes this cap, leaves are limited to m <= cap, so the
# quotient table holds at most about 2 cap entries and all its arithmetic
# stays within int64 for any x.
_QUOTIENT_CAP = 1 << 20


@lru_cache(maxsize=None)
def _small_table() -> tuple[list[memoryview], list[memoryview]]:
    """Rows (W[j], C[j]) for j < 31: W[j][m] = sum of r(k)/4 and C[j][m] =
    the number of k, over the k <= m built from the first j + 1 primes, for
    every m <= 2^14.

    A k splits as p^e k' with k' <= m // p^e built from the smaller primes,
    so row j is row j - 1 plus one gather at m // p^e per power p^e <= 2^14.
    The rows are read-only memoryviews: indexing one gives a Python int.
    """
    m = np.arange(_SMALL_M + 1, dtype=np.int64)
    weight = np.empty((_SMALL_PRIMES, _SMALL_M + 1), dtype=np.int32)
    count = np.empty_like(weight)
    w_prev = c_prev = (m >= 1).astype(np.int32)  # only k = 1
    for j, p in enumerate(sieve_primes(127).tolist()):
        w, c = weight[j], count[j]
        w[:], c[:] = w_prev, c_prev
        q, e = p, 1
        while q <= _SMALL_M:
            k = m[q:] // q
            w[q:] += _local_r4(p, e) * w_prev[k]
            c[q:] += c_prev[k]
            q *= p
            e += 1
        w_prev, c_prev = w, c
    weight.setflags(write=False)
    count.setflags(write=False)
    return [memoryview(row) for row in weight], [memoryview(row) for row in count]


def _exact_recursive(x: int, y: int, node_budget: int) -> tuple[int, int, int]:
    table = prime_table(y)
    ps = [int(p) for p in table.p]
    pi1 = np.cumsum(table.chi == 1)  # pi1[i] = #{q <= ps[i], q = 1 (mod 4)}
    t = min(isqrt(x), y)
    r4 = lattice_r_table(t) // 4  # r4[0] = 0
    s4 = np.cumsum(r4).tolist()
    small_w, small_c = _small_table()
    reach = min(x, y * y)
    if isqrt(x) > _QUOTIENT_CAP:
        reach = min(reach, _QUOTIENT_CAP)
    # With no prime past the table, every node a leaf could close is a lookup.
    quot = _QuotientPrimes(x, reach, table.p) if len(ps) > _SMALL_PRIMES else None
    total = 0
    terms = 0
    nodes = 0

    def s4_at(m: int) -> int:
        return s4[m] if m <= t else _disc_s4(m)

    def leaf(hi: int, m: int) -> tuple[int, int]:
        # Weight and count of the p-smooth n <= m, p = ps[hi], p < m <= p^2.
        # The others are n = q k, q > p prime, k <= m // q < p; grouped by
        # k, sum_q S4(m // q) = sum_k r(k)/4 #{p < q <= m // k}, and k runs
        # up to kmax = m // (p + 1) < sqrt m.
        kmax = m // (ps[hi] + 1)
        pi, chi_sum = quot.counts(m // np.arange(1, kmax + 1, dtype=np.int64))
        extra1 = (pi - 1 + chi_sum) // 2 - int(pi1[hi])  # q = 1 (mod 4)
        weight = s4_at(m) - 2 * int(np.dot(r4[1 : kmax + 1], extra1))
        return weight, m - int(pi.sum()) + kmax * (hi + 1)

    # Depth-first over descending primes: node (hi, cur, w) stands for the
    # n = cur k with k <= x // cur built from ps[0..hi], and w = r(cur)/4;
    # r/4 is multiplicative, so w times r(k)/4 is the weight of n.
    def rec(hi: int, cur: int, w: int) -> None:
        nonlocal total, terms, nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceBudgetError(
                f"smooth enumeration exceeded node budget {node_budget}"
            )
        m = x // cur
        if hi < _SMALL_PRIMES and m <= _SMALL_M:  # one small-m table lookup
            total += w * small_w[hi][m]
            terms += small_c[hi][m]
            return
        p = ps[hi]
        if m <= p:  # every k <= m qualifies
            total += w * s4_at(m)
            terms += m
            return
        if m <= min(p * p, reach):
            weight, count = leaf(hi, m)
            total += w * weight
            terms += count
            return
        c = m.bit_length()  # k = 1, 2, 4, ..., each of weight r(2^e)/4 = 1
        total += w * c
        terms += c
        top = bisect_right(ps, m) - 1
        if top > hi:
            top = hi
        for i in range(top, 0, -1):  # every prime but 2, whose powers are counted above
            p = ps[i]
            v = cur * p
            e = 1
            while v <= x:
                rec(i - 1, v, w * _local_r4(p, e))
                v *= p
                e += 1

    rec(len(ps) - 1, 1, 1)
    return 4 * total, terms, nodes


def _exact_sieve(x: int, y: int, node_budget: int) -> tuple[int, int, int]:
    if x > node_budget:
        raise ResourceBudgetError(
            f"sieve range {x} exceeds node budget {node_budget}"
        )
    ps = [int(p) for p in prime_table(y).p]
    total = 0
    terms = 0
    lo = 1
    while lo <= x:
        hi = min(lo + _SEGMENT_SIZE, x + 1)
        smooth = np.ones(hi - lo, dtype=np.int64)  # y-smooth part of n
        val = np.ones(hi - lo, dtype=np.int64)  # r(n)/4 over the primes so far
        e = np.zeros(hi - lo, dtype=np.int8)  # exponent of the current prime
        for p in ps:
            if p >= hi:
                break
            q = p
            while q < hi:
                s = -lo % q
                smooth[s::q] *= p
                e[s::q] += 1
                q *= p
            s = -lo % p
            if p % 4 == 1:
                val[s::p] *= e[s::p] + 1
            elif p % 4 == 3:
                val[s::p] *= 1 - (e[s::p] & 1)
            e[s::p] = 0
        ok = smooth == np.arange(lo, hi, dtype=np.int64)
        total += int(val[ok].sum())
        terms += int(np.count_nonzero(ok))
        lo = hi
    return 4 * total, terms, x


def exact_circle_sum(
    x: int,
    y: int,
    method: str = "auto",
    *,
    node_budget: int = Config.node_budget,
) -> ExactCount:
    """Exact sum of r(n) over y-smooth n <= x (n = 1 counts, with r(1) = 4).

    "recursive" (what "auto" takes) walks the smooth numbers by descending
    primes and closes most subtrees at once (see the module docstring);
    more than node_budget nodes raise ResourceBudgetError, and since each
    node has its own y-smooth number <= x, the walk never needs more
    budget than the sieve.  "sieve", the independent cross-check, factors
    [1, x] segment by segment and refuses x > node_budget.  Both routes
    agree bit for bit; terms is the number of y-smooth n <= x, and nodes
    what the call charged.
    """
    if x < 1:
        raise DomainError(f"exact_circle_sum needs x >= 1, got {x}")
    if y < 2:
        raise DomainError(f"exact_circle_sum needs y >= 2, got {y}")
    if method == "auto":
        method = "recursive"
    # No prime above x divides an n <= x, so the routes sieve to min(x, y).
    y_sieve = max(min(x, y), 2)
    if method == "sieve":
        value, terms, nodes = _exact_sieve(x, y_sieve, node_budget)
    elif method == "recursive":
        value, terms, nodes = _exact_recursive(x, y_sieve, node_budget)
    else:
        raise DomainError(f"unknown method {method!r}")
    return ExactCount(x=x, y=y, value=value, terms=terms, method=method, nodes=nodes)
