"""Exact arithmetic for sums of two squares over smooth numbers.

r(n) counts representations n = a^2 + b^2 with signs and order distinct;
r(n)/4 is multiplicative.  The central exact quantity is the circle sum
sum of r(n) over y-smooth n <= x (n = 1 included, r(1) = 4).  Two routes
compute it independently; they share only the prime table.

The sieve walks [1, x] in segments.  For each prime p <= y and each power
p^k below the segment end, strided views a[s::p^k] multiply the y-smooth
part of n by p and count the exponent of p in an int8 scratch; the local
factor of r/4 is then applied once over a[s::p].  n is y-smooth iff its
smooth part equals n.

The recursive route walks the y-smooth n by descending primes.  A node
(cur, p) stands for the n = cur k with k <= m = x // cur built from the
primes <= p.  Once p^2 >= m, such a k has at most one prime factor q > p,
so Buchstab's identity gives the whole subtree:

    sum of r(k)/4 = S4(m) - 2 sum_{p < q <= m, q = 1 (mod 4)} S4(m // q),
    count         = m - sum_{p < q <= m} m // q,

with S4(v) = sum_{n <= v} r(n)/4, the first-quadrant lattice points of the
disc of radius sqrt v.  The q-sums are grouped by k = m // q < sqrt m and
read pi(v) and sum chi4(p) over p <= v at the quotients v = x // j from one
Lucy-Legendre table.  Subtrees with m <= p (every k counts) or only the
prime 2 left are closed forms too.  Each such leaf counts as one node
against the enumeration budget.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import DomainError, ResourceBudgetError
from .primes import prime_table

DEFAULT_NODE_BUDGET = 10**9
DEFAULT_SEGMENT_SIZE = 1 << 20


def chi4(n: int) -> int:
    """The nontrivial character mod 4: 0 on evens, else (-1)^((n-1)/2)."""
    if n < 1:
        raise DomainError(f"chi4 needs n >= 1, got {n}")
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


def _local_r4(p: int, e: int) -> int:
    # Local factor of r(n)/4 at p^e.
    if p == 2:
        return 1
    if p % 4 == 1:
        return e + 1
    return 0 if e & 1 else 1


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
    route counted them.
    """

    x: int
    y: int
    value: int
    terms: int
    method: str


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

    One Lucy-Legendre pass over the primes up to sqrt(limit) (`primes` must
    hold them, ascending).  Quotients up to min(sqrt x, limit) are indexed
    by v, larger ones by j = x // v; the set of quotients <= limit is closed
    under v -> v // p, so the pass never needs a value it does not hold.
    Both rows start from the completely multiplicative sums over 2..v of 1
    and of chi4 and strip composites prime by prime.
    """

    def __init__(self, x: int, limit: int, primes: np.ndarray) -> None:
        r = isqrt(x)
        s = min(r, limit)
        j0 = x // (limit + 1) + 1 if limit > r else r + 1
        v = np.arange(s + 1, dtype=np.int64)
        big = x // np.arange(j0, r + 1, dtype=np.int64) if j0 <= r else v[:0]
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
            if p * p <= s:
                small[:, p * p :] -= f * (small[:, v[p * p :] // p] - below)
        self.x, self.s, self.j0 = x, s, j0
        self.small, self.large = small, large

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


# A Buchstab leaf costs a dozen numpy calls, about as much as walking a
# subtree of a few dozen nodes; below this bound the walk is cheaper.
_LEAF_MIN = 128
# Once sqrt x passes this cap, leaves are limited to m <= cap, so the
# quotient table holds at most about 2 cap entries and all its arithmetic
# stays within int64 for any x.
_QUOTIENT_CAP = 1 << 20


def _exact_recursive(x: int, y: int, node_budget: int) -> tuple[int, int]:
    table = prime_table(y)
    ps = [int(p) for p in table.p]
    pi1 = np.cumsum(table.chi == 1)  # pi1[i] = #{q <= ps[i], q = 1 (mod 4)}
    t = min(isqrt(x), y)
    r4 = lattice_r_table(t) // 4  # r4[0] = 0
    s4 = np.cumsum(r4).tolist()
    reach = min(x, y * y)
    if isqrt(x) > _QUOTIENT_CAP:
        reach = min(reach, _QUOTIENT_CAP)
    quot = _QuotientPrimes(x, reach, table.p) if reach >= _LEAF_MIN else None
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
        if hi <= 0:  # k = 1, or k a power of 2
            c = m.bit_length() if hi == 0 else 1
            total += w * c
            terms += c
            return
        p = ps[hi]
        if m <= p:  # every k <= m qualifies
            total += w * s4_at(m)
            terms += m
            return
        if _LEAF_MIN <= m <= min(p * p, reach):
            weight, count = leaf(hi, m)
            total += w * weight
            terms += count
            return
        total += w
        terms += 1
        top = bisect_right(ps, m) - 1
        if top > hi:
            top = hi
        for i in range(top, -1, -1):
            p = ps[i]
            v = cur * p
            e = 1
            while v <= x:
                rec(i - 1, v, w * _local_r4(p, e))
                v *= p
                e += 1

    rec(len(ps) - 1, 1, 1)
    return 4 * total, terms


def _exact_sieve(x: int, y: int, node_budget: int, segment_size: int) -> tuple[int, int]:
    if x > node_budget:
        raise ResourceBudgetError(
            f"sieve range {x} exceeds node budget {node_budget}"
        )
    ps = [int(p) for p in prime_table(y).p]
    total = 0
    terms = 0
    lo = 1
    while lo <= x:
        hi = min(lo + segment_size, x + 1)
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
    return 4 * total, terms


def exact_circle_sum(
    x: int,
    y: int,
    method: str = "auto",
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> ExactCount:
    """Exact sum of r(n) over y-smooth n <= x (n = 1 counts, with r(1) = 4).

    method "sieve" factors every integer in [1, x] over the primes <= y with
    strided slices, segment by segment, and refuses x > node_budget.
    "recursive" walks the smooth numbers by descending primes and closes a
    subtree in one leaf once its largest allowed prime p has p^2 >= x // cur
    (Buchstab's identity, see the module docstring); a leaf counts as one
    node, and more than node_budget nodes raise ResourceBudgetError.  "auto"
    picks the sieve iff y^2 >= x and x <= node_budget.  Both routes use exact
    integer arithmetic and agree bit for bit; terms is the number of y-smooth
    n <= x either way.
    """
    if x < 1:
        raise DomainError(f"exact_circle_sum needs x >= 1, got {x}")
    if y < 2:
        raise DomainError(f"exact_circle_sum needs y >= 2, got {y}")
    if method == "auto":
        method = "sieve" if y * y >= x and x <= node_budget else "recursive"
    if method == "sieve":
        value, terms = _exact_sieve(x, y, node_budget, segment_size)
    elif method == "recursive":
        value, terms = _exact_recursive(x, y, node_budget)
    else:
        raise DomainError(f"unknown method {method!r}")
    return ExactCount(x=x, y=y, value=value, terms=terms, method=method)
