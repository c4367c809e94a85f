"""The truncated Euler product H(s; y) = prod_{p<=y} (1-p^-s)^-1 (1-chi4(p)p^-s)^-1
and the derivatives of its logarithm.

H is the Dirichlet series of r(n)/4 over y-smooth n.  Each quantity has one
evaluator.  On the real axis every quantity is a sum over p <= y of the
per-prime terms formed by one real kernel, prime_terms: log H = phi in log
space (no overflow for large y) and its sigma-derivatives phi_1..phi_4, all
exact closed forms in the reciprocals 1/(p^sigma - 1) and
1/(p^sigma - chi4(p)).  Off the axis, h_log_line
evaluates log H on a vertical line as a blocked product, for the Perron
integrand's many nodes.  Nothing is truncated, so no truncation bound
exists.

The line product takes its nodes as centers plus offsets: p^-it =
p^-ic p^-id for t = c + d, so a Perron quadrature level, whose panels
share one offsets array, costs the offsets' phase factors once and one
complex exp per prime per panel midpoint.

prime_terms evaluates the primes in blocks of a few thousand: the heap
reuses block-sized temporaries from call to call, while whole-array ones
(628 KB each at y = 1e6) were faulted in again on every call, which cost
more than the arithmetic.  One call can form several orders: the
reciprocals are computed once per prime for all of them, so a Newton
step's phi_1 and phi_2 (phi1_phi2) and all of phi_derivatives each cost
one pass over the primes.

The real-axis evaluators sum each order once per point: they read the
csums of the prime_terms rows of the last (sigma, y) evaluated from a
one-point memo, and a call makes one pass for the orders it lacks.  The
saddle terms read phi_0..phi_2 at one alpha from several calls, of which
only the first at that alpha (the solve's last Newton step, phi_1 and
phi_2) and the first that needs phi_0 make a pass.  The solve's
small-prime model reads its sums through phi1_phi2 at y = 1000 too.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .numutil import csum
from .primes import prime_table


# Primes per prime_terms block: temporaries of 32 KB, which the heap reuses
# from call to call without page faults.  At y = 1e6 a call's transient
# memory peaks at 1.3 to 1.7 times its output for one order, 1.3 times for
# (1, 2) and 1.2 times for orders 0..4, against 5 to 9 times for the whole
# array.
_TERMS_BLOCK = 4096


def prime_terms(sigma: float, y: int, orders: Sequence[int]) -> list[np.ndarray]:
    """Per-prime terms of (-1)^k phi_k, the k-th sigma-derivative of log H(sigma; y),
    at real sigma > 0, one array for each order k in the sequence orders.
    Every real-axis evaluator reaches sigma through here, so this is where
    sigma <= 0 or nan raises DomainError.

    k = 0: the log-factors -log(1 - 1/P) - log(1 - c/P) = log1p(r1) + log1p(c r2);
    k = 1..4: (log p)^k [Li_{1-k}(1/P) + Li_{1-k}(c/P)]; P = p^sigma,
    c = chi4(p), all in the reciprocals r1 = 1/(P - 1) and r2 = 1/(P - c),
    formed as 1/(expm1(sigma log p) + (1 - c)): P is never rounded, so the
    terms keep full relative accuracy as sigma -> 0 (inf, unwarned, once
    1/expm1 overflows), and no power of P can overflow as sigma grows.
    One pass forms the reciprocals once per prime for every order, each
    order's array bitwise what a call for it alone gives: separate arrays,
    not one 2-D array, each the size the heap reuses for one-order calls.

    The primes go _TERMS_BLOCK at a time into their slice of the output:
    the floats of one whole-array expression, but with block-sized
    temporaries, so a call's transient memory stays within a few blocks.
    """
    if not sigma > 0:
        raise DomainError(f"the Euler product needs sigma > 0, got {sigma}")
    table = prime_table(y)
    n = len(table)
    out = [np.empty(n) for _ in orders]
    # r = 0 at P = inf; held here, since a with held across a yield leaks
    with np.errstate(over="ignore"):
        for lo in range(0, n, _TERMS_BLOCK):
            hi = lo + _TERMS_BLOCK
            terms = _block_terms(sigma, table.logp[lo:hi], table.chi[lo:hi], orders)
            for row, block in zip(out, terms):
                row[lo:hi] = block
    return out


def _block_terms(sigma, lp, chi4, orders):
    """prime_terms on one block of primes: yields one array per order.

    Each closed form keeps the order of operations of the whole-array
    form; the reciprocals r1 = 1/(P - 1), r2 = 1/(P - chi4(p)) and, for
    k >= 2, a = c r (1 + c r) are formed once for all orders.  At
    chi4(p) = 0 (p = 2) the c = chi4(p) half reads 0.
    """
    chi = chi4.astype(np.float64)
    em1 = np.expm1(sigma * lp)
    r1, r2 = 1.0 / em1, 1.0 / (em1 + (1.0 - chi))
    cr = chi * r2
    if max(orders) > 1:
        a1, a2 = r1 * (1.0 + r1), cr * (1.0 + cr)
    # -log(1 - c/P) = log(P/(P - c)) = log1p(c r), Li_0(c/P) = c r, and
    # with a = c r (1 + c r):
    # Li_-1(c/P) = cP/(P - c)^2 = a,
    # Li_-2(c/P) = cP(P + c)/(P - c)^3 = a (1 + 2 c r),
    # Li_-3(c/P) = cP(P^2 + 4cP + c^2)/(P - c)^4 = a (1 + 6 c r + 6 r^2).
    # At c = 1 the factor c is dropped: 1.0 * r is r.
    for k in orders:
        if k == 0:
            yield np.log1p(r1) + np.log1p(cr)
        elif k == 1:
            yield lp * (r1 + cr)
        elif k == 2:
            yield np.square(lp) * (a1 + a2)
        elif k == 3:
            yield np.power(lp, 3) * (a1 * (1.0 + 2.0 * r1) + a2 * (1.0 + 2.0 * chi * r2))
        else:
            tail1 = 1.0 + 6.0 * r1 + 6.0 * r1 * r1
            tail2 = 1.0 + 6.0 * chi * r2 + 6.0 * r2 * r2
            yield np.power(lp, 4) * (a1 * tail1 + a2 * tail2)


# A block of the line product ends before the log-magnitude bound of its
# factors passes this, well inside the exp(709) float range.
_LINE_BLOCK_LOG = 600.0

# Bytes of each complex temporary of an h_log_line chunk, (centers x
# offsets x primes) factors of 16 bytes: as many offsets as fit, then as
# many centers.  A level of 110 Perron panels at y = 1000 (31 offsets,
# three centers a chunk) took 6.2 ms at this bound, 9.5 ms at 1 << 20, whose
# temporaries spill the CPU cache (best of 15 on a 2-vCPU Xeon).
_LINE_CHUNK_BYTES = 1 << 18


def h_log_line(sigma: float, y: int) -> Callable[..., np.ndarray]:
    """The function (offsets, centers=0.0) -> log H(sigma + i(c + d); y)
    modulo 2 pi i, one value for each center c and offset d: an array of
    shape centers.shape + offsets.shape.

    H is formed as a product, not as a sum of per-prime logs: with
    a = p^-sigma, b = chi4(p) p^-sigma and z = p^-it (one complex exp of an
    imaginary argument, i.e. a cos and a sin, per t and prime),
    1/H = prod_p (1 - a z)(1 - b z), kept factored because the expanded
    quadratic loses digits as a -> 1.  The primes are cut into blocks and
    each block's product gets one complex log.  |1 - a z| lies between
    1 - a and 1 + a, and log(1 + a) <= -log1p(-a), so a block ends before
    the running sum of -log1p(-a) - log1p(-|b|), each capped at
    _LINE_BLOCK_LOG, passes it and no partial product can over- or
    underflow, for any y and sigma > 0.  -log1p(-a) is formed as
    log1p(1/expm1(sigma log p)), which stays finite where a rounds to 1.

    z = p^-ic p^-id: a call forms the offsets' phase factors a E and b E,
    E = exp(-i d log p), once, and for each chunk of offsets one complex
    exp per prime per center, exp(-i c log p), which multiplies into them.
    The chunks' complex temporaries stay within _LINE_CHUNK_BYTES, so
    memory does not grow with the node count; 31 offsets make one chunk up
    to y = 3 802.  At the default center 0 the center's factor is exactly
    1, so log_h(ts) is the product at the nodes ts themselves.  The caller
    arranges that c + d is exact.

    Summing principal logs of block products gives log H up to a multiple
    of 2 pi i.  That is exact for every use of the result, which is
    exp(log H): the Perron integrand and h_value.  Everything that depends
    on sigma alone -- a, b and the block starts -- is computed here, once;
    the returned function does only the per-t work and keeps no state.
    """
    if not sigma > 0:
        raise DomainError(f"h_log_line needs sigma > 0, got {sigma}")
    table = prime_table(y)
    lp = table.logp
    with np.errstate(over="ignore"):  # a = 0 where sigma log p overflows
        a = np.exp(-sigma * lp)
        per_prime = (1.0 + np.abs(table.chi)) * np.log1p(1.0 / np.expm1(sigma * lp))
    b = table.chi * a
    bound = np.cumsum(np.minimum(per_prime, _LINE_BLOCK_LOG))
    starts = []
    lo, base = 0, 0.0
    while lo < lp.size:
        starts.append(lo)
        lo = max(lo + 1, int(np.searchsorted(bound, base + _LINE_BLOCK_LOG, side="right")))
        base = bound[lo - 1]
    rows = max(1, _LINE_CHUNK_BYTES // (16 * lp.size))  # nodes per chunk

    def log_h(offsets: np.ndarray, centers: float | np.ndarray = 0.0) -> np.ndarray:
        offsets = np.asarray(offsets, dtype=np.float64)
        centers = np.asarray(centers, dtype=np.float64)
        d, c = offsets.ravel(), centers.ravel()
        out = np.empty((c.size, d.size), dtype=np.complex128)
        nd = max(1, min(d.size, rows))
        nc = max(1, rows // nd)
        for j in range(0, d.size, nd):
            e = np.exp(-1j * np.multiply.outer(d[j : j + nd], lp))
            ae, be = a * e, b * e
            for i in range(0, c.size, nc):
                zc = np.exp(-1j * np.multiply.outer(c[i : i + nc], lp))[:, None]
                factors = (1.0 - ae * zc) * (1.0 - be * zc)
                blocks = np.multiply.reduceat(factors, starts, axis=-1)
                with np.errstate(divide="ignore"):  # a factor of 0: H = inf
                    out[i : i + nc, j : j + nd] = -np.log(blocks).sum(axis=-1)
        return out.reshape(centers.shape + offsets.shape)

    return log_h


def h_value(s: complex, y: int) -> complex:
    """H(s; y) = exp(log H), log H from h_log_real on the real axis and from
    h_log_line off it; Re s > 0, and |Im s| log y within float range.
    Where |H| leaves float range the result has an infinite part (or is 0),
    without a warning."""
    s = complex(s)
    if s.imag == 0.0:
        log_h = h_log_real(s.real, y)
    else:
        # refused before the line product's set-up; a y below 2, which
        # math.log may not take, is refused by h_log_line's prime table
        if y >= 2 and math.isinf(s.imag * math.log(y)):
            raise DomainError(f"t={s.imag} is out of range for y={y}: the phases t log p overflow")
        log_h = h_log_line(s.real, y)(np.array([s.imag]))[0]
    with np.errstate(over="ignore"):
        return complex(np.exp(log_h))


# The memo: the real-axis point (sigma, y) evaluated last, and the csums of
# its prime_terms rows by order k.  Floats only, so it keeps no
# array alive.  A dict is only ever filled for its own point, so a thread
# that finds the memo replaced under it still reads its own point's sums.
_memo: tuple[float, int, dict[int, float]] = (math.nan, 0, {})


def _order_sums(sigma: float, y: int, orders: tuple[int, ...]) -> list[float]:
    """csum(prime_terms(sigma, y, (k,))[0]) for each k in orders, bitwise,
    or inf where that csum overflows.

    The orders the memo lacks at (sigma, y) come from one prime_terms
    pass, which also checks sigma; a call at another point replaces the
    memo.  The point is compared with ==, so nan never matches.
    """
    global _memo
    memo = _memo
    if not (memo[0] == sigma and memo[1] == y):
        memo = _memo = (sigma, y, {})
    sums = memo[2]
    missing = tuple(k for k in orders if k not in sums)
    if missing:
        for k, terms in zip(missing, prime_terms(sigma, y, missing)):
            try:
                sums[k] = csum(terms)
            except OverflowError:  # every term is >= 0: the sum is +inf
                sums[k] = math.inf
    return [sums[k] for k in orders]


def h_log_real(sigma: float, y: int) -> float:
    """log H(sigma; y) for real sigma > 0: the real-axis evaluator."""
    return _order_sums(sigma, y, (0,))[0]


def phi1_closed(sigma: float, y: int) -> float:
    """phi_1(sigma; y) = -sum_p [log p/(p^sigma - 1) + chi4(p) log p/(p^sigma - chi4(p))]."""
    return -_order_sums(sigma, y, (1,))[0]


def phi2_closed(sigma: float, y: int) -> float:
    """phi_2(sigma; y) = sum_p (log p)^2 p^sigma [1/(p^sigma-1)^2 + chi4(p)/(p^sigma-chi4(p))^2]."""
    return _order_sums(sigma, y, (2,))[0]


def phi1_phi2(sigma: float, y: int) -> tuple[float, float]:
    """(phi1_closed(sigma, y), phi2_closed(sigma, y)), bitwise, from at most
    one kernel pass: a Newton step's value and slope at the cost of one."""
    s1, s2 = _order_sums(sigma, y, (1, 2))
    return -s1, s2


@dataclass(frozen=True)
class PhiDerivatives:
    """phi(sigma; y) = log H and its first derivatives at a real point.

    d holds (phi_1, .., phi_kmax).  For sigma > 0 the closed forms give
    phi_1 < 0 and phi_2 >= 0 termwise (convexity of sigma log x + phi).
    """

    sigma: float
    y: int
    phi: float
    d: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.d) >= 1 and not self.d[0] < 0:
            raise ConvergenceError(f"phi_1 must be negative, got {self.d[0]}")
        if len(self.d) >= 2 and self.d[1] < 0:
            raise ConvergenceError(f"phi_2 must be nonnegative, got {self.d[1]}")

    @property
    def phi1(self) -> float:
        return self.d[0]

    @property
    def phi2(self) -> float:
        return self.d[1]


def phi_derivatives(sigma: float, y: int, kmax: int = 4) -> PhiDerivatives:
    """phi and phi_1..phi_kmax at real sigma > 0, each an exact sum of
    prime_terms, phi_k = (-1)^k sum_p (order-k terms), the orders
    not yet summed at (sigma, y) from one kernel pass."""
    if not 1 <= kmax <= 4:
        raise DomainError(f"kmax must be in 1..4, got {kmax}")
    sums = _order_sums(sigma, y, tuple(range(kmax + 1)))
    if sums[1] == 0.0:  # every order-1 term is >= 0: r1 >= r2 in floats
        raise DomainError(
            f"sigma={sigma} is out of range for y={y}: every term of phi_1 underflows to 0"
        )
    d = tuple((-1.0) ** k * sums[k] for k in range(1, kmax + 1))
    return PhiDerivatives(sigma=sigma, y=y, phi=sums[0], d=d)
