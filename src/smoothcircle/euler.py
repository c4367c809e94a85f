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

The real-axis kernel forms the terms of a block of a few thousand primes
at a time, in scratch rows allocated once per pass, and feeds each order's
row of two blocks to its own certified accumulator
(numutil.CertifiedAccumulator): the sums are csum's, bit for bit, with no
pi(y)-sized array.  A table of one row is a whole array, which csum sums
as it is.  An order the accumulator cannot certify is summed as
csum(prime_terms(...)), whose whole-array rows are that fallback and what
the tests read.  One pass can
form several orders: the reciprocals are computed once per prime for all
of them, so a Newton step's phi_1 and phi_2 (phi1_phi2) and all of
phi_derivatives each cost one pass over the primes.

The real-axis evaluators sum each order once per point: they read the
sums of the last (sigma, y) evaluated from a one-point memo, and a call
makes one pass for the orders it lacks.  The saddle terms read
phi_0..phi_2 at one alpha from several calls, of which only the first at
that alpha (the solve's last Newton step, phi_1 and phi_2) and the first
that needs phi_0 make a pass.  The solve's small-prime model reads its
sums through phi1_phi2 at y = 1000 too.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .numutil import CertifiedAccumulator, csum
from .primes import prime_table


# Primes per kernel block: scratch rows of 32 KB, which the heap reuses from
# call to call without page faults.  A pass allocates its rows once and
# reuses them for every block: _WORK_ROWS of them (chi4(p) as a float, r1,
# c r2, a1, a2 and two temporaries), while prime_terms writes each order
# into its output.
_TERMS_BLOCK = 4096
_WORK_ROWS = 7
# Terms per accumulated block: a pass writes two kernel blocks into each
# order's row before the row's accumulator sums it.  Each numpy call costs
# about 0.5 us whatever its length, and an accumulator makes 11 per row: at
# y = 1e6 a (1, 2) pass took 1.49 ms this way, 1.70 ms with a row per
# kernel block (best of 30 on a 2-vCPU Xeon), and its tracemalloc peak is
# 0.47 MB (rows, accumulator scratch and work rows).
_ACC_BLOCK = 2 * _TERMS_BLOCK
# A pass's accumulators take this multiple of the first row's largest
# |term| as their bound: that row holds the smallest primes, whose terms
# are the largest (each order's term falls as p^sigma grows).
_BOUND_SLACK = 2.0


def prime_terms(sigma: float, y: int, orders: Sequence[int]) -> list[np.ndarray]:
    """Per-prime terms of (-1)^k phi_k, the k-th sigma-derivative of log H(sigma; y),
    at real sigma > 0, one array for each order k in the sequence orders.
    sigma <= 0 or nan raises DomainError.

    k = 0: the log-factors -log(1 - 1/P) - log(1 - c/P) = log1p(r1) + log1p(c r2);
    k = 1..4: (log p)^k [Li_{1-k}(1/P) + Li_{1-k}(c/P)]; P = p^sigma,
    c = chi4(p), all in the reciprocals r1 = 1/(P - 1) and r2 = 1/(P - c),
    formed as 1/(expm1(sigma log p) + (1 - c)): P is never rounded, so the
    terms keep full relative accuracy as sigma -> 0 (inf, unwarned, once
    1/expm1 overflows), and no power of P can overflow as sigma grows.
    One pass forms the reciprocals once per prime for every order, each
    order's array bitwise what a call for it alone gives.

    The primes go _TERMS_BLOCK at a time into their slice of the output:
    the floats of one whole-array expression, but with block-sized
    scratch, so a call's transient memory stays within a few blocks.  The
    real-axis evaluators sum the terms block by block (_kernel_pass) and
    call this only where that sum cannot be certified; the tests read it.
    """
    if not sigma > 0:
        raise DomainError(f"the Euler product needs sigma > 0, got {sigma}")
    table = prime_table(y)
    n = len(table)
    out = [np.empty(n) for _ in orders]
    work = np.empty((_WORK_ROWS, min(n, _TERMS_BLOCK)))
    with np.errstate(over="ignore"):  # r = 0 at P = inf
        for lo in range(0, n, _TERMS_BLOCK):
            hi = lo + _TERMS_BLOCK
            rows = [row[lo:hi] for row in out]
            _block_terms(sigma, table.logp[lo:hi], table.chi[lo:hi], orders, work, rows)
    return out


def _kernel_pass(sigma: float, y: int, orders: tuple[int, ...]) -> list[float]:
    """csum(prime_terms(sigma, y, (k,))[0]) for each k in orders, bitwise,
    or inf where that csum overflows: one pass over the primes.

    The terms go _TERMS_BLOCK primes at a time into one row per order of
    _ACC_BLOCK terms.  Primes that fit one row make whole arrays, which
    csum sums: math.fsum below its _CSUM_MIN values, certified_sum above.
    An accumulator per order would cost more there: a (1, 2) pass took
    24, 42 and 61 us at y = 100, 1000 and 1e4 this way, and 49, 52 and
    69 us through the accumulators (best of 21 x 300 on a 2-vCPU Xeon).
    Past one row, each order's row goes, in place, into its own
    CertifiedAccumulator, whose bound is _BOUND_SLACK times the largest
    |term| of the first row, so no pi(y)-sized array is formed.  An order
    whose accumulator declines (a term past the bound, a non-finite term, a
    sum it cannot certify) is summed from prime_terms by csum, in one more
    pass for all such orders.  sigma <= 0 or nan raises DomainError.
    """
    if not sigma > 0:
        raise DomainError(f"the Euler product needs sigma > 0, got {sigma}")
    table = prime_table(y)
    n = len(table)
    work = np.empty((_WORK_ROWS, min(n, _TERMS_BLOCK)))
    terms = np.empty((len(orders), min(n, _ACC_BLOCK)))
    accs: list[CertifiedAccumulator] = []
    with np.errstate(over="ignore"):  # r = 0 at P = inf
        for lo in range(0, n, _ACC_BLOCK):
            rows = terms[:, : min(n - lo, _ACC_BLOCK)]
            for j in range(0, rows.shape[1], _TERMS_BLOCK):
                block = slice(lo + j, lo + j + _TERMS_BLOCK)
                outs = rows[:, j : j + _TERMS_BLOCK]
                _block_terms(sigma, table.logp[block], table.chi[block], orders, work, outs)
            if n <= _ACC_BLOCK:  # the rows are the whole arrays
                return [_csum_or_inf(row) for row in rows]
            if not accs:
                accs = [
                    CertifiedAccumulator(n, _BOUND_SLACK * max(row.max(), -row.min()))
                    for row in rows
                ]
            for acc, row in zip(accs, rows):
                acc.add(row)
    sums = [acc.result() for acc in accs]
    declined = tuple(k for k, v in zip(orders, sums) if v is None)
    if declined:
        redo = iter(prime_terms(sigma, y, declined))
        sums = [_csum_or_inf(next(redo)) if v is None else v for v in sums]
    return sums


def _csum_or_inf(terms: np.ndarray) -> float:
    """csum(terms), or +inf where it overflows: every real-axis term is >= 0."""
    try:
        return csum(terms)
    except OverflowError:
        return math.inf


def _block_terms(sigma, lp, chi4, orders, work, outs) -> None:
    """prime_terms on one block of primes, written into outs, one array of
    lp.size per order; work has _WORK_ROWS rows of at least lp.size.

    Each closed form gives the floats of the whole-array form.  The
    reciprocal r1 = 1/(P - 1), c r2 = c/(P - c) and, for k >= 2,
    a = c r (1 + c r) (c = 1 in the first half) are formed once for all
    orders.  c/(P - c) is one division, bitwise c * (1/(P - c)) as c is 0
    or +-1, and r2 enters every term as c r2: the r2^2 of Li_-3 is
    (c r2)^2 where c = +-1, and a2 = 0 where c = 0 (p = 2), whose second
    half reads 0.
    """
    chi, t1, r1, cr, a1, a2, t2 = (row[: lp.size] for row in work[:_WORK_ROWS])
    np.copyto(chi, chi4)  # int8 operands would cost a cast in each ufunc
    np.expm1(np.multiply(sigma, lp, out=t1), out=t1)  # P - 1
    np.divide(1.0, t1, out=r1)
    np.divide(chi, np.add(t1, np.subtract(1.0, chi, out=cr), out=cr), out=cr)
    if max(orders) > 1:
        np.multiply(r1, np.add(1.0, r1, out=a1), out=a1)
        np.multiply(cr, np.add(1.0, cr, out=a2), out=a2)
    # -log(1 - c/P) = log(P/(P - c)) = log1p(c r), Li_0(c/P) = c r, and
    # with a = c r (1 + c r):
    # Li_-1(c/P) = cP/(P - c)^2 = a,
    # Li_-2(c/P) = cP(P + c)/(P - c)^3 = a (1 + 2 c r),
    # Li_-3(c/P) = cP(P^2 + 4cP + c^2)/(P - c)^4 = a (1 + 6 c r + 6 r^2).
    # At c = 1 the factor c is dropped: 1.0 * r is r.  Every product
    # below is rounded once, so its operands may come in either order.
    for k, o in zip(orders, outs):
        if k == 0:  # log1p(r1) + log1p(c r2)
            np.add(np.log1p(r1, out=o), np.log1p(cr, out=t1), out=o)
        elif k == 1:  # log p (r1 + c r2)
            np.multiply(lp, np.add(r1, cr, out=o), out=o)
        elif k == 2:  # (log p)^2 (a1 + a2)
            np.multiply(np.square(lp, out=t1), np.add(a1, a2, out=o), out=o)
        elif k == 3:  # (log p)^3 (a1 (1 + 2 r1) + a2 (1 + 2 c r2))
            for a, r, t in ((a1, r1, t1), (a2, cr, t2)):
                np.multiply(a, np.add(1.0, np.multiply(2.0, r, out=t), out=t), out=t)
            np.multiply(np.power(lp, 3, out=o), np.add(t1, t2, out=t1), out=o)
        else:  # (log p)^4 (a1 tail(r1) + a2 tail(c r2)), tail(r) = (1 + 6 r) + (6 r) r
            for a, r, t in ((a1, r1, t1), (a2, cr, t2)):
                np.multiply(6.0, r, out=t)
                np.add(np.add(1.0, t, out=o), np.multiply(t, r, out=t), out=t)
                np.multiply(a, t, out=t)
            np.multiply(np.power(lp, 4, out=o), np.add(t1, t2, out=t1), out=o)


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
    starts = _line_starts(np.cumsum(np.minimum(per_prime, _LINE_BLOCK_LOG)))
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


def _line_starts(bound: np.ndarray) -> list[int]:
    """The block starts of the line product, greedily: a block starting at
    lo ends at the last i with bound[i] <= base + _LINE_BLOCK_LOG, base
    being bound[lo - 1] (0 at lo = 0), and holds at least one prime.

    One searchsorted over every possible start gives the next start after
    each, and a walk over that table picks the starts: no numpy call per
    block, of which there are 78 498 at sigma = 1e-76, y = 1e6.  The walk
    reads the table through a memoryview, whose items are Python ints, so
    it converts only the entries it visits: at y = 1e6 one block took
    0.6 ms this way and 2.6 ms from the table's list, 78 498 blocks 6 ms
    either way (best of 9 on a 2-vCPU Xeon).
    """
    n = bound.size
    bases = np.concatenate(([0.0], bound[:-1]))
    nxt = np.searchsorted(bound, bases + _LINE_BLOCK_LOG, side="right")
    nxt = memoryview(np.maximum(nxt, np.arange(1, n + 1), out=nxt))
    starts, lo = [], 0
    while lo < n:
        starts.append(lo)
        lo = nxt[lo]
    return starts


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


# The memo: the real-axis point (sigma, y) evaluated last, and the sums of
# its prime_terms rows by order k.  Floats only, so it keeps no
# array alive.  A dict is only ever filled for its own point, so a thread
# that finds the memo replaced under it still reads its own point's sums.
_memo: tuple[float, int, dict[int, float]] = (math.nan, 0, {})


def _order_sums(sigma: float, y: int, orders: tuple[int, ...]) -> list[float]:
    """csum(prime_terms(sigma, y, (k,))[0]) for each k in orders, bitwise,
    or inf where that csum overflows.

    The orders the memo lacks at (sigma, y) come from one _kernel_pass,
    which also checks sigma; a call at another point replaces the memo.
    The point is compared with ==, so nan never matches.
    """
    global _memo
    memo = _memo
    if not (memo[0] == sigma and memo[1] == y):
        memo = _memo = (sigma, y, {})
    sums = memo[2]
    missing = tuple(k for k in orders if k not in sums)
    if missing:
        sums.update(zip(missing, _kernel_pass(sigma, y, missing)))
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
