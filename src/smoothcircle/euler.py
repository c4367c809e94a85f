"""The truncated Euler product H(s; y) = prod_{p<=y} (1-p^-s)^-1 (1-chi4(p)p^-s)^-1
and the derivatives of its logarithm.

H is the Dirichlet series of r(n)/4 over y-smooth n.  Every quantity here is
a sum over p <= y of the per-prime terms formed by one kernel, prime_terms:
log H = phi in log space (no overflow for large y), and its sigma-derivatives
phi_1..phi_4 from exact polylogarithm closed forms.  The one exception is
h_log_line, which evaluates H on a vertical line as a blocked product, for
the Perron integrand's many nodes.  Nothing is truncated, so no truncation
bound exists.

prime_terms evaluates the primes in fixed blocks written into one output
array.  Whole-array temporaries (628 KB each at y = 1e6) went back to the
OS on every free and were faulted in again on the next call, which cost
more than the arithmetic; block-sized ones are reused, and a call's
transient memory stays within a few blocks of its output.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .numutil import csum
from .primes import prime_table


# Primes per prime_terms block: float temporaries of 32 KB, which the heap
# reuses from call to call.  At 32 768 (256 KB temporaries) the k = 4 form
# faults again, and a call's transient memory peaks at 1.5 times its output
# here against 5 to 9 times for the whole array.
_TERMS_BLOCK = 4096


def prime_terms(s, y: int, k: int) -> np.ndarray:
    """Per-prime terms of (-1)^k phi_k, the k-th sigma-derivative of log H(s; y).

    k = 0: the log-factors -log(1 - w) - log(1 - chi4(p) w), w = p^-s; s may
    be real or complex.
    k = 1..4 (s real): (log p)^k [Li_{1-k}(1/P) + Li_{1-k}(chi4(p)/P)],
    P = p^s = expm1(s log p) + 1.

    The primes are taken _TERMS_BLOCK at a time, each block written into
    the one output array: the same floats as one whole-array expression,
    but no temporary is larger than a block, so none is faulted in afresh
    on every call and the call's transient memory is bounded.
    """
    table = prime_table(y)
    out = np.empty(len(table), dtype=np.result_type(s, np.float64))
    # The k = 2 form holds while P^2 is finite at the largest prime.
    with np.errstate(over="ignore"):
        squares_finite = k == 2 and np.expm1(s * table.logp[-1:])[0] < 1e150
    for lo in range(0, out.size, _TERMS_BLOCK):
        hi = lo + _TERMS_BLOCK
        out[lo:hi] = _block_terms(
            s, table.logp[lo:hi], table.chi[lo:hi].astype(np.float64), k, squares_finite
        )
    return out


def _block_terms(s, lp: np.ndarray, chi: np.ndarray, k: int, squares_finite: bool) -> np.ndarray:
    """prime_terms on one block of primes, given log p and chi4(p) as floats."""
    if k == 0:
        w = np.exp(-s * lp)
        # log1p for real s; complex s keeps log(1 - w), the form every
        # complex-s report (H(s), Perron, |H| ratios) was computed with.
        if np.iscomplexobj(w):
            return -np.log(1.0 - w) - np.where(chi == 0.0, 0.0, np.log(1.0 - chi * w))
        return -np.log1p(-w) - np.where(chi == 0.0, 0.0, np.log1p(-chi * w))
    with np.errstate(over="ignore"):  # P = inf is fine: every form below tends to 0
        em1 = np.expm1(s * lp)
    el = em1 + 1.0
    lpk = lp**k
    if k == 1:  # Li_0(c/P) = c/(P - c)
        return lpk / em1 + np.where(chi == 0.0, 0.0, chi * lpk / (el - chi))
    if squares_finite:  # Li_-1(c/P) = cP/(P - c)^2
        return lpk * el / em1**2 + np.where(chi == 0.0, 0.0, chi * lpk * el / (el - chi) ** 2)

    # In r = 1/(P - c), c = +-1, no power of P can overflow:
    # Li_-1(c/P) = cP/(P - c)^2 = c r (1 + c r),
    # Li_-2(c/P) = cP(P + c)/(P - c)^3 = c r (1 + c r)(1 + 2 c r),
    # Li_-3(c/P) = cP(P^2 + 4cP + c^2)/(P - c)^4 = c r (1 + c r)(1 + 6 c r + 6 r^2).
    def li(c, r):
        if k == 2:
            tail = 1.0
        elif k == 3:
            tail = 1.0 + 2.0 * c * r
        else:
            tail = 1.0 + 6.0 * c * r + 6.0 * r * r
        return c * r * (1.0 + c * r) * tail

    return lpk * (li(1.0, 1.0 / em1) + li(chi, 1.0 / (em1 + (1.0 - chi))))


def h_log_value(s: complex, y: int) -> complex:
    """log H(s; y) with principal logarithms; requires Re(s) > 0.

    All poles of H sit on the line Re(s) = 0, so the product is finite and
    nonvanishing on the open right half plane.  For real s every term is
    real and the imaginary part is 0.0 without a sum.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError(f"h_log_value needs Re(s) > 0, got {s}")
    terms = prime_terms(s, y, 0)
    return complex(csum(terms.real), csum(terms.imag) if s.imag else 0.0)


# A block of the line product ends before the log-magnitude bound of its
# factors passes this, well inside the exp(709) float range.
_LINE_BLOCK_LOG = 600.0


def h_log_line(sigma: float, y: int) -> Callable[[np.ndarray], np.ndarray]:
    """The function t -> log H(sigma + it; y) modulo 2 pi i, for arrays of t.

    H is formed as a product, not as a sum of per-prime logs: with
    a = p^-sigma, b = chi4(p) p^-sigma and z = p^-it (one complex exp of an
    imaginary argument, i.e. a cos and a sin, per t and prime),
    1/H = prod_p (1 - a z)(1 - b z), kept factored because the expanded
    quadratic loses digits as a -> 1.  The primes are cut into blocks and
    each block's product gets one complex log.  |1 - a z| lies between
    1 - a and 1 + a, and log(1 + a) <= -log1p(-a), so a block ends before
    the running sum of -log1p(-a) - log1p(-|b|) passes _LINE_BLOCK_LOG and
    no partial product can over- or underflow, for any y and sigma > 0.

    Summing principal logs of block products gives log H up to a multiple
    of 2 pi i.  That is exact for every use of the result, which is
    exp(log H): the Perron integrand.  Use h_log_value for the principal
    branch.  Everything that depends on sigma alone -- a, b and the block
    starts -- is computed here, once; the returned function does only the
    per-t work.
    """
    if sigma <= 0:
        raise DomainError(f"h_log_line needs sigma > 0, got {sigma}")
    table = prime_table(y)
    lp = table.logp
    a = np.exp(-sigma * lp)
    b = table.chi * a
    bound = np.cumsum(-np.log1p(-a) - np.log1p(-np.abs(b)))
    starts = []
    lo, base = 0, 0.0
    while lo < lp.size:
        starts.append(lo)
        lo = max(lo + 1, int(np.searchsorted(bound, base + _LINE_BLOCK_LOG, side="right")))
        base = bound[lo - 1]

    def log_h(ts: np.ndarray) -> np.ndarray:
        z = np.exp(-1j * np.multiply.outer(ts, lp))
        blocks = np.multiply.reduceat((1.0 - a * z) * (1.0 - b * z), starts, axis=-1)
        return -np.log(blocks).sum(axis=-1)

    return log_h


def h_value(s: complex, y: int) -> complex:
    """H(s; y) itself, as exp of the log-space accumulation."""
    return np.exp(h_log_value(s, y))


def h_log_real(sigma: float, y: int) -> float:
    """log H(sigma; y) for real sigma > 0 (cheaper real-only path)."""
    if sigma <= 0:
        raise DomainError(f"h_log_real needs sigma > 0, got {sigma}")
    return csum(prime_terms(sigma, y, 0))


def phi1_closed(sigma: float, y: int) -> float:
    """phi_1(sigma; y) = -sum_p [log p/(p^sigma - 1) + chi4(p) log p/(p^sigma - chi4(p))]."""
    if sigma <= 0:
        raise DomainError(f"phi1_closed needs sigma > 0, got {sigma}")
    return -csum(prime_terms(sigma, y, 1))


def phi2_closed(sigma: float, y: int) -> float:
    """phi_2(sigma; y) = sum_p (log p)^2 p^sigma [1/(p^sigma-1)^2 + chi4(p)/(p^sigma-chi4(p))^2]."""
    if sigma <= 0:
        raise DomainError(f"phi2_closed needs sigma > 0, got {sigma}")
    return csum(prime_terms(sigma, y, 2))


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
    prime_terms: phi_k = (-1)^k sum_p prime_terms(sigma, y, k)."""
    if sigma <= 0:
        raise DomainError(f"phi_derivatives needs sigma > 0, got {sigma}")
    if not 1 <= kmax <= 4:
        raise DomainError(f"kmax must be in 1..4, got {kmax}")
    terms = [prime_terms(sigma, y, k) for k in range(1, kmax + 1)]
    if not terms[0].any():
        raise DomainError(
            f"sigma={sigma} is out of range for y={y}: every term of phi_1 underflows to 0"
        )
    d = tuple((-1.0) ** k * csum(t) for k, t in enumerate(terms, 1))
    return PhiDerivatives(sigma=sigma, y=y, phi=csum(prime_terms(sigma, y, 0)), d=d)


def h_ratio_profile(x: float, y: int, t_grid) -> list[tuple[float, float]]:
    """|H(alpha + it; y) / H(alpha; y)| over t_grid, alpha the saddle point of (x, y).

    Ratios live in (0, 1]; exactly 1 at t = 0.
    """
    from .saddle import solve_alpha  # deferred: saddle depends on this module

    alpha = solve_alpha(x, y).alpha
    return [(float(t), h_abs_ratio(alpha, y, float(t))) for t in t_grid]


def h_abs_ratio(alpha: float, y: int, t: float) -> float:
    """|H(alpha+it; y)| / H(alpha; y) for a known saddle point alpha > 0.

    The log-factors at alpha+it and at alpha are differenced per prime before
    summing, so t = 0 gives exactly 1.
    """
    if alpha <= 0:
        raise DomainError(f"h_abs_ratio needs alpha > 0, got {alpha}")
    diff = prime_terms(complex(alpha, t), y, 0) - prime_terms(complex(alpha, 0.0), y, 0)
    return math.exp(csum(diff.real))
