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
most as many nodes as there are terms, and never more than x.  Only walked
nodes recurse: a walked node settles each of its children in its own loop,
and most children close without a walk:

- p < 128 and m <= 2^14: one lookup in the small-m table, which holds the
  weight and the count of the p-smooth k <= m for each of the 31 primes
  below 128 and every m <= 2^14 (the small-argument table of Meissel-Lehmer
  counting).  It is built once per process, on first use, by one numpy
  recurrence over the primes whose reads at m // p^e are repeats, not
  divisions.
- m <= p (every k counts): a closed form, S4(m).  Below the root m < p^e
  and m p^e <= x, so m <= min(sqrt x, y), the extent of a prefix table.
- p^2 >= m: then k has at most one prime factor q > p, so Buchstab's
  identity gives the whole subtree, a leaf:

    sum of r(k)/4 = S4(m) - 2 sum_{p < q <= m, q = 1 (mod 4)} S4(m // q),
    count         = m - sum_{p < q <= m} m // q,

  with S4(v) = sum_{n <= v} r(n)/4, the first-quadrant lattice points of
  the disc of radius sqrt v.  The q-sums are grouped by k = m // q < sqrt m
  and read pi(v) and sum chi4(p) over p <= v at the quotients v = x // j
  from one Lucy-Legendre table (the table of combinatorial prime counting:
  Lagarias-Miller-Odlyzko, Math. Comp. 44, 1985; Deleglise-Rivat, Math.
  Comp. 65, 1996).

The table is filled in two phases.  The primes p up to cut =
max(floor(limit^(1/3)), floor(sqrt(sqrt x))) are stepped one at a time,
each step one numpy update of the entries v >= p^2.  A prime past the cut
has p^2 > sqrt x, so it changes only large entries v >= p^2, and p^3 >
limit, so it reads only v // p <= limit / p < p^2 and S(p - 1): entries
that are final once the stepped primes are done and that no prime past the
cut writes.  Those primes' steps therefore commute, and one scatter-subtract
over every pair (j, p) with p^2 <= x // j applies them all at once.

There is one table per x, not one per cell.  Its limit is x wherever
x <= 16 y^2 and sqrt x is within _QUOTIENT_CAP, and elsewhere the walk's
own reach: min(x, y^2), and at most the cap once sqrt x passes it.  Below
the ratio 16 a table to x costs a table to y^2 at most 16 more large
entries and the primes in (y, 4y], and the cells at one x then share it;
each walk still reads only the quotients up to its own reach.  The last
table built is cached, its arrays read-only, and stays alive until a cell
asks for another (x, limit): about 32 MB at x = 10^12.  Its rows are
pi(v) and the chi4 sums at the quotients of x, which no cell changes, so
no result depends on the cache.

Leaves wait in a batch, and a flush closes the batch's leaves together in
numpy: one gather from the Lucy table of the quotients m // k of every
leaf, per-leaf sums by np.add.reduceat, and S4(m) for the leaves past the
prefix table from one pass of exact square roots.  A batch flushes once its
leaves would gather _LEAF_BATCH elements, which bounds the flush's
temporaries.

A walked node closes the powers of 2 itself: it counts k = 1, 2, 4, ...
<= m, m.bit_length() terms of weight r(2^e)/4 = 1 each, and has children
only for the primes from 3 up, so a node with p = 2 is a table lookup or a
walked node without children.  Past the table, a node with m <= 2^14 has
p >= 131 > sqrt(2^14), so m <= p or p^2 >= m: no node with m <= 2^14 is
walked.  Every node, whether walked, closed in a closed form, a table
lookup or a Buchstab leaf, counts as one node against the enumeration
budget; a walked node charges its children before each walk and at its end.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from operator import mul

import numpy as np

from .config import Config
from .errors import DomainError, ResourceBudgetError
from .primes import prime_table

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


def _disc_s4(ms: np.ndarray) -> np.ndarray:
    # S4(m) = sum_{n <= m} r(n)/4 for each m >= 1 of an int64 array: the
    # lattice points (a, b) with a >= 1, b >= 0 and a^2 + b^2 <= m, by one
    # pass of exact integer square roots over every pair (m, a <= sqrt m).
    na = _isqrt_array(ms)
    start = np.cumsum(na) - na
    a = np.arange(1, int(na.sum()) + 1, dtype=np.int64) - np.repeat(start, na)
    return np.add.reduceat(_isqrt_array(np.repeat(ms, na) - a * a), start) + na


class _QuotientPrimes:
    """pi(v) and sum_{p <= v} chi4(p) at every quotient v = x // j <= limit,
    for 1 <= limit <= x.

    Quotients up to min(sqrt x, limit) are indexed by v, larger ones by
    j = x // v.  With limit <= sqrt x every v <= limit is a quotient and the
    rows are prefix sums over prime_table(limit).  Otherwise one
    Lucy-Legendre pass over the primes up to sqrt(limit) (`primes` must hold
    them, ascending) fills them; the set of quotients <= limit is closed
    under v -> v // p, so the pass never needs a value it does not hold.
    Both rows start from the completely multiplicative sums over 2..v of 1
    and of chi4 and strip composites: prime by prime up to cut =
    max(icbrt(limit), isqrt(isqrt(x))), then every later prime in one batch.
    A later prime p writes only large entries v >= p^2 > sqrt x and reads
    only v // p < p^2 (as p^3 > limit) and S(p - 1), none of which a later
    prime writes, so the batch gives the rows the steps would.

    The walk reads one table per x, from _quotient_table: to limit = x
    where x <= 16 y^2 and sqrt x <= _QUOTIENT_CAP, else to its own reach.
    The cached table stays alive until the next x, about 32 MB at
    x = 10^12; its rows depend on x alone, so no result depends on the cache.
    """

    def __init__(self, x: int, limit: int, primes: np.ndarray) -> None:
        r = isqrt(x)
        self.x = x
        if limit <= r:
            ps = prime_table(limit).p if limit >= 2 else np.empty(0, dtype=np.int64)
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
        self.s, self.j0, self.small, self.large = r, j0, small, large
        cut = max(_icbrt(limit), isqrt(r))
        ncut, nps = np.searchsorted(primes, [cut, isqrt(limit)], side="right")
        for p in primes[:ncut].tolist():
            f = np.array([[1], [2 - p % 4]], dtype=np.int64)  # 1 and chi4(p)
            below = small[:, p - 1 : p].copy()
            jmax = min(r, x // (p * p))
            if jmax >= j0:
                jb = max(j0 - 1, min(jmax, r // p))
                # v // p = x // (j p): from `large` while j p <= r, else `small`.
                inner = large[:, j0 * p - j0 : jb * p - j0 + 1 : p]
                outer = np.take(small, x // np.arange((jb + 1) * p, jmax * p + 1, p), axis=1)
                d = np.concatenate([inner, outer], axis=1)
                d -= below
                d *= f
                large[:, : jmax - j0 + 1] -= d
            if p * p <= r:
                d = np.take(small, v[p * p :] // p, axis=1)
                d -= below
                d *= f
                small[:, p * p :] -= d
        if nps > ncut:
            # The primes past the cut in one batch over the pairs (j, p) with
            # p^2 <= x // j, grouped by j: each j's primes are a prefix of
            # `late`.  v // p = x // (j p) is read through counts (at v = r,
            # small[r] and, where x < r^2 + r, large[j = r] both hold S(r)),
            # and each j sums its prefix of S(p - 1).  Runs of j with at most
            # r / 2 + len(late) pairs keep the temporaries within about twice
            # the table's size.
            late = primes[ncut:nps].astype(np.int64)
            f = np.stack([np.ones_like(late), 2 - late % 4])  # 1 and chi4(p)
            below = np.cumsum(f * small[:, late - 1], axis=1)
            n = np.searchsorted(late * late, big, side="right")  # nonincreasing in j
            n = n[: np.count_nonzero(n)]
            runs = np.searchsorted(np.cumsum(n), np.arange(0, n.sum(), r // 2)).tolist()
            for a, b in zip(runs, [*runs[1:], n.size]):
                nj = n[a:b]
                start = np.cumsum(nj) - nj
                k = np.arange(int(nj.sum())) - np.repeat(start, nj)  # late[k] is the pair's p
                jp = np.repeat(np.arange(j0 + a, j0 + b, dtype=np.int64), nj)
                jp *= late[k]
                got = self.counts(np.floor_divide(x, jp, out=jp))
                got[1] *= f[1, k]
                large[:, a:b] -= np.add.reduceat(got, start, axis=1) - below[:, nj - 1]

    def counts(self, vs: np.ndarray) -> np.ndarray:
        """Rows (pi(v), sum chi4(p) over p <= v) for an array of quotients
        v <= limit, in any order."""
        big = np.flatnonzero(vs > self.s)
        if big.size == 0:  # also where x itself would overflow int64
            return np.take(self.small, vs, axis=1)
        # Read every v from `small` (clipped for the large ones), then
        # replace the large ones by their rows at j = x // v.
        got = np.take(self.small, vs, axis=1, mode="clip")
        got[:, big] = np.take(self.large, self.x // vs[big] - self.j0, axis=1)
        return got


def _icbrt(n: int) -> int:
    # floor(n^(1/3)) for n >= 0: the float root is within one of it.
    c = round(n ** (1 / 3))
    c -= c**3 > n
    return c + ((c + 1) ** 3 <= n)


def _chi4_prefix(v: np.ndarray) -> np.ndarray:
    # sum_{2 <= n <= v} chi4(n): the full sum is 1 for v = 1, 2 (mod 4), else 0.
    return np.where(v >= 1, (v % 4 == 1) | (v % 4 == 2), 1).astype(np.int64) - 1


# The small-m table: rows for the 31 primes below 128, columns m <= 2^14,
# two int16 arrays of about 1 MB each: the largest entries are W = 4 632
# and C = 6 094, and every partial sum of a row, and every term added to
# it, is at most the row's final value.  The next prime, 131, has
# 131^2 > 2^14, so a node the table misses with m <= 2^14 has m <= p or
# p^2 >= m: a closed form or a Buchstab leaf.
_SMALL_PRIMES = 31
_SMALL_M = 1 << 14
# Once sqrt x passes this cap, leaves are limited to m <= cap, so the
# quotient table holds at most about 2 cap entries and all its arithmetic
# stays within int64 for any x.
_QUOTIENT_CAP = 1 << 20
# A flush of the pending Buchstab leaves starts once they would gather this
# many int64 elements (their quotients m // k, and the square roots of S4(m)
# past the prefix table), which bounds the flush's temporaries.
_LEAF_BATCH = 1 << 15
# Where x <= _SHARED_RATIO y^2 (and sqrt x is within the cap) the quotient
# table reaches x, so every such y at one x reads the same table.
_SHARED_RATIO = 16
# The one cached quotient table, (x, limit, table), or None.
_quotient_cache: tuple[int, int, _QuotientPrimes] | None = None


def _quotient_table(x: int, limit: int) -> _QuotientPrimes:
    """The _QuotientPrimes of (x, limit) over the primes up to sqrt(limit),
    its arrays read-only, cached until the next (x, limit) asks for a table.

    The last table is dropped before the next one is built, so at most one
    is alive; a table's rows are pi(v) and the chi4 sums at the quotients of
    x, which no cell changes, so no result depends on the cache.
    """
    global _quotient_cache
    held = _quotient_cache
    if held is not None and held[:2] == (x, limit):
        return held[2]
    _quotient_cache = None
    table = _QuotientPrimes(x, limit, prime_table(isqrt(limit)).p)
    table.small.setflags(write=False)
    table.large.setflags(write=False)
    _quotient_cache = (x, limit, table)
    return table


@lru_cache(maxsize=None)
def _small_table() -> tuple[list[memoryview], list[memoryview]]:
    """Rows (W[j], C[j]) for j < 31: W[j][m] = sum of r(k)/4 and C[j][m] =
    the number of k, over the k <= m built from the first j + 1 primes, for
    every m <= 2^14.

    A k splits as p^e k' with k' <= m // p^e built from the smaller primes,
    so row j is row j - 1 plus, per power q = p^e <= 2^14, row j - 1 read at
    m // q: its entries 1, 2, ... each repeated q times.
    The rows are read-only memoryviews: indexing one gives a Python int.
    """
    weight = np.empty((_SMALL_PRIMES, _SMALL_M + 1), dtype=np.int16)
    count = np.empty_like(weight)
    w_prev = c_prev = (np.arange(_SMALL_M + 1) >= 1).astype(np.int16)  # only k = 1
    for j, p in enumerate(prime_table(127).p.tolist()):
        w, c = weight[j], count[j]
        w[:], c[:] = w_prev, c_prev
        q, e = p, 1
        while q <= _SMALL_M:
            # m // q for m = q..2^14 runs through 1, 2, ..., each value q times
            n, f = _SMALL_M + 1 - q, _local_r4(p, e)
            if f:  # 0 at odd powers of p = 3 (mod 4)
                w[q:] += f * np.repeat(w_prev[1 : _SMALL_M // q + 1], q)[:n]
            c[q:] += np.repeat(c_prev[1 : _SMALL_M // q + 1], q)[:n]
            q *= p
            e += 1
        w_prev, c_prev = w, c
    weight.setflags(write=False)
    count.setflags(write=False)
    return [memoryview(row) for row in weight], [memoryview(row) for row in count]


def _exact_recursive(x: int, y: int, node_budget: int) -> tuple[int, int, int]:
    table = prime_table(y)
    ps = table.p.tolist()
    pi1 = np.cumsum(table.chi == 1)  # pi1[i] = #{q <= ps[i], q = 1 (mod 4)}
    t = min(isqrt(x), y)
    r4 = lattice_r_table(t) // 4  # r4[0] = 0
    s4_arr = np.cumsum(r4)
    s4 = s4_arr.tolist()
    small_w, small_c = _small_table()
    reach = min(x, y * y)  # the largest m a leaf reads
    capped = isqrt(x) > _QUOTIENT_CAP
    if capped:
        reach = min(reach, _QUOTIENT_CAP)
    # With no prime past the table, every node a leaf could close is a lookup.
    if len(ps) > _SMALL_PRIMES:
        near = x <= _SHARED_RATIO * y * y and not capped
        quot = _quotient_table(x, x if near else reach)
    else:
        quot = None
    total = 0
    terms = 0
    nodes = 1  # the root
    leaf_hi: list[int] = []
    leaf_m: list[int] = []
    leaf_w: list[int] = []
    batch = 0  # elements the pending leaves will gather
    leaf_tops = [min(q * q, reach) for q in ps]

    def charge() -> None:
        if nodes > node_budget:
            raise ResourceBudgetError(
                f"smooth enumeration exceeded node budget {node_budget}"
            )

    def flush() -> None:
        # Weight and count of the p-smooth n <= m for every pending leaf
        # (hi, m, w), p = ps[hi] < m <= p^2.  The others are n = q k, q > p
        # prime, k <= m // q < p; grouped by k, sum_q S4(m // q) =
        # sum_k r(k)/4 #{p < q <= m // k}, and k runs up to kmax = m // (p + 1)
        # < sqrt m.  The leaves' runs of k are laid end to end.  Each m <= reach
        # < 2^41, so every int64 sum here stays far below 2^63.
        nonlocal total, terms, batch
        hs = np.array(leaf_hi, dtype=np.intp)
        ms = np.array(leaf_m, dtype=np.int64)
        kmax = ms // (table.p[hs] + 1)
        start = np.cumsum(kmax) - kmax
        k = np.arange(1, int(kmax.sum()) + 1, dtype=np.int64) - np.repeat(start, kmax)
        pi, chi_sum = quot.counts(np.repeat(ms, kmax) // k)
        extra1 = (pi - 1 + chi_sum) // 2 - np.repeat(pi1[hs], kmax)  # q = 1 (mod 4)
        s4m = s4_arr[np.minimum(ms, t)]
        past = np.flatnonzero(ms > t)
        s4m[past] = _disc_s4(ms[past])
        weight = s4m - 2 * np.add.reduceat(r4[k] * extra1, start)
        count = ms - np.add.reduceat(pi, start) + kmax * (hs + 1)
        total += sum(map(mul, leaf_w, weight.tolist()))
        terms += int(count.sum())
        leaf_hi.clear()
        leaf_m.clear()
        leaf_w.clear()
        batch = 0

    # Depth-first over descending primes: node (hi, m, w) stands for the
    # n = cur k with k <= m = x // cur built from ps[0..hi], and w = r(cur)/4;
    # r/4 is multiplicative, so w times r(k)/4 is the weight of n.  A child
    # cur p^e has m // p^e, since x // (cur p^e) = (x // cur) // p^e.  rec
    # runs for walked nodes only: each settles its children in its own loop,
    # by a lookup, a closed form, a pending leaf or a walk, and charges them
    # to the budget before each walk and at its end.
    def rec(hi: int, m: int, w: int) -> None:
        nonlocal total, terms, nodes, batch
        weight = count = m.bit_length()  # k = 1, 2, 4, ..., each of weight 1
        n = 0
        for i in range(min(hi, bisect_right(ps, m) - 1), 0, -1):
            # every prime but 2, whose powers are counted above
            p = ps[i]
            j = i - 1
            q = ps[j]
            leaf_top = leaf_tops[j]
            rows = j < _SMALL_PRIMES
            if rows:
                row_w, row_c = small_w[j], small_c[j]
            split = p & 3 == 1  # r(p^e)/4 is e + 1, else 1 or 0 as e is even or odd
            mv = m // p
            e = 1
            while mv:
                n += 1
                f = e + 1 if split else ~e & 1
                if rows and mv <= _SMALL_M:
                    weight += f * row_w[mv]
                    count += row_c[mv]
                elif mv <= q:  # every k <= mv qualifies; mv < p^e, so mv <= t
                    weight += f * s4[mv]
                    count += mv
                elif mv <= leaf_top:
                    leaf_hi.append(j)
                    leaf_m.append(mv)
                    leaf_w.append(w * f)
                    batch += mv // (q + 1) + (isqrt(mv) if mv > t else 0)
                    if batch >= _LEAF_BATCH:
                        flush()
                else:
                    nodes += n
                    n = 0
                    charge()
                    rec(j, mv, w * f)
                mv //= p
                e += 1
        nodes += n
        charge()
        total += w * weight
        terms += count

    # The root is settled as a child would be, but its closed form (x prime,
    # y >= x) lies past the S4 prefix table.
    hi = len(ps) - 1
    charge()
    if hi < _SMALL_PRIMES and x <= _SMALL_M:
        return 4 * small_w[hi][x], small_c[hi][x], nodes
    if x <= ps[hi]:
        return 4 * int(_disc_s4(np.array([x], dtype=np.int64))[0]), x, nodes
    if x <= leaf_tops[hi]:
        leaf_hi.append(hi)
        leaf_m.append(x)
        leaf_w.append(1)
    else:
        rec(hi, x, 1)
    if leaf_m:
        flush()
    return 4 * total, terms, nodes


def _exact_sieve(x: int, y: int, node_budget: int) -> tuple[int, int, int]:
    if x > node_budget:
        raise ResourceBudgetError(
            f"sieve range {x} exceeds node budget {node_budget}"
        )
    ps = prime_table(y).p.tolist()
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
    what the call charged.  The recursive route keeps one quotient table
    per x, to x where x <= 16 y^2 (see the module docstring), which the
    next cell at that x reuses; it stays alive until a cell at another x,
    about 32 MB at x = 10^12, and no result depends on it.
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
