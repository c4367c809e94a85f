"""Small numerical helpers: exact sums, safeguarded root finding,
panel-based Gauss-Legendre quadrature.

csum returns exactly what math.fsum returns -- the correctly rounded sum --
but sums a large float64 array in numpy, by the error-free ExtractVector
transformation (Rump, Ogita and Oishi, "Accurate floating-point summation,
Part I: faithful rounding", SIAM J. Sci. Comput. 30, 2008).  With
u = 2^-53, sigma = 2^k and n + 2 <= 2^M, every |x_i| <= 2^-M sigma gives

    q_i = fl(fl(sigma + x_i) - sigma),    x_i' = x_i - q_i,

where fl(sigma + x_i) lies within a factor 2 of sigma, so the subtraction
is exact (Sterbenz), q_i is x_i rounded to a multiple of u sigma, and
x_i' = x_i - q_i is exact with |x_i'| <= u sigma.  Every partial sum of the
q_i is a multiple of u sigma below n 2^-M sigma < sigma in magnitude, so it
has at most 53 significant bits: the float sum of the q_i is exact in any
order.  One more extraction with sigma_2 = 2^M u sigma leaves remainders
below u sigma_2, whose float sum is within gamma_(n-1) n u sigma_2 of their
exact sum, gamma_m = m u / (1 - m u) (Higham, Accuracy and Stability of
Numerical Algorithms, sec. 4.2), in any summation order.  The sum is then
accepted only when that bound proves it rounds to the same float as the
exact sum.  Every other case -- small or non-array input, non-finite
values, sums near zero or near overflow, a bound that cannot decide -- goes
to math.fsum, so values, nan, inf and exceptions are math.fsum's own.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError

# Euler-Mascheroni constant, 16 decimal digits.
EULER_GAMMA = 0.5772156649015329


# csum's fast path: arrays shorter than _CSUM_MIN go to math.fsum, which is
# as fast there (best of 3 x 3000 calls on a 2-vCPU Xeon: 21 us against
# certified_sum's 24 at 256 values, 29 against 17 at 512, 72 against 18 at
# 1 229); the extraction runs _CSUM_BLOCK values at a time, which bounds
# its scratch memory; an array of n values with n + 2 above
# _CSUM_EXTRACT_LIMIT = 2^26 goes to math.fsum, since two extractions leave
# a bound that grows like 2^(4M) and stops deciding near there; max|x| in
# (_CSUM_TINY, _CSUM_LIMIT / n) keeps every unit of extraction normal and
# every partial sum, here and in math.fsum, far from overflow.
_CSUM_MIN = 512
_CSUM_BLOCK = 1 << 15
_CSUM_EXTRACT_LIMIT = 1 << 26
_CSUM_TINY = 2.0**-800
_CSUM_LIMIT = 2.0**1000
_U = 2.0**-53


def csum(terms) -> float:
    """The correctly rounded sum of an iterable or array: math.fsum(terms), bit
    for bit, with the same nan, inf, OverflowError and ValueError.

    A 1-D float64 array of at least _CSUM_MIN values is summed by
    certified_sum; when that cannot certify its rounding, and for any other
    input, the sum is math.fsum's.
    """
    if (
        isinstance(terms, np.ndarray)
        and terms.ndim == 1
        and terms.dtype == np.float64
        and terms.size >= _CSUM_MIN
    ):
        value = certified_sum(terms)
        if value is not None:
            return value
    return math.fsum(terms)


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """(fl(a + b), a + b - fl(a + b)), the error exact (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def certified_sum(x: np.ndarray) -> float | None:
    """math.fsum(x) for a 1-D float64 array, or None where it cannot certify.

    sigma is the least power of two with max|x| <= 2^-M sigma, n + 2 <= 2^M,
    and sigma_2 = 2^M u sigma.  Block by block, the first extraction splits
    x into q + x' and the second splits x' into q2 + x''; tau1 = sum(q) and
    tau2 = sum(q2) are exact floats (see the module docstring), and
    sum(x) = tau1 + tau2 + sum(x'') exactly.  With (a, e) = TwoSum(tau1,
    tau2), c = fl(e + s3), s3 the float sum of x'', and r = fl(a + c) with
    TwoSum error t:

        sum(x) - r = t + (e + s3 - c) + (sum(x'') - s3),
        |sum(x) - r| <= |t| + u |c| + gamma_(n-1) n u sigma_2.

    gamma_(n-1) n u sigma_2 < n^2 u^2 sigma_2 for n <= 2^26, and the float
    D = fl(u |c| + 2 n^2 u^2 sigma_2) is at least u |c| plus that.  r is
    the correctly rounded sum, in any tie-breaking rule, once
    fl(|t| + D) < gap/2, gap the distance from r to its nearer float
    neighbour: gap/2 is a power of two and rounding is monotone, so the
    float test implies the exact one.  None when that fails, when x holds
    nan or inf or is empty or all zero, when max|x| is below _CSUM_TINY or
    n max|x| reaches _CSUM_LIMIT, when n + 2 > _CSUM_EXTRACT_LIMIT, and when
    |r| <= 1e-290, where the gap nears the subnormals.
    """
    n = x.size
    top = max(x.max(initial=0.0), -x.min(initial=0.0))
    if not (_CSUM_TINY < top < _CSUM_LIMIT / max(n, 1) and n + 2 <= _CSUM_EXTRACT_LIMIT):
        return None
    m = (n + 1).bit_length()  # n + 2 <= 2^m
    sigma = math.ldexp(1.0, m + math.frexp(top)[1])  # top < 2^frexp exponent
    sigma2 = math.ldexp(sigma, m - 53)
    size = min(n, _CSUM_BLOCK)
    q, rest = np.empty(size), np.empty(size)
    tau1 = tau2 = s3 = 0.0
    for lo in range(0, n, _CSUM_BLOCK):
        xb = x[lo : lo + _CSUM_BLOCK]
        qb, rb = q[: xb.size], rest[: xb.size]
        np.subtract(np.add(xb, sigma, out=qb), sigma, out=qb)
        tau1 += float(qb.sum())
        np.subtract(xb, qb, out=rb)
        np.subtract(np.add(rb, sigma2, out=qb), sigma2, out=qb)
        tau2 += float(qb.sum())
        s3 += float(np.subtract(rb, qb, out=rb).sum())
    a, e = _two_sum(tau1, tau2)
    c = e + s3
    r, t = _two_sum(a, c)
    if not (math.isfinite(r) and abs(r) > 1e-290):
        return None
    bound = _U * abs(c) + 2.0 * float(n * n) * _U * _U * sigma2
    gap = min(r - math.nextafter(r, -math.inf), math.nextafter(r, math.inf) - r)
    if abs(t) + bound < 0.5 * gap:
        return r
    return None


# bracketed_newton's iteration budget: xi runs to float stagnation in at
# most about 10 iterations, and the saddle solve stops in under 10.
_NEWTON_ITERS = 200


def bracketed_newton(
    fdf: Callable[[float], tuple[float, float]],
    x0: float,
    *,
    ftol: float,
) -> tuple[float, float, int, tuple[float, float]]:
    """Newton iteration for a root on (0, inf), with a bisection fallback.

    f <= 0 on (0, root] and f >= 0 on [root, inf), and x0 > 0.  Every
    iterate is evaluated once, by fdf(x) = (f(x), d), the step being
    x - f/d: d = f'(x) for plain Newton, or the slope that makes it a
    Newton step on a monotone transform of f.  Each iterate becomes the
    new lo or hi of the bracket (0, inf) by the sign of f; a step that
    moves x out of (lo, hi), or has no finite d > 0, is replaced by the
    midpoint, or by 2x while hi is inf.  Stops once |f| <= ftol or the
    Newton step no longer moves x, and raises ConvergenceError after
    _NEWTON_ITERS.
    Returns (root, f(root), iterations, (lo, hi)), lo < root < hi.
    """
    lo, hi = 0.0, math.inf
    x = x0
    for it in range(1, _NEWTON_ITERS + 1):
        fx, d = fdf(x)
        if abs(fx) <= ftol:
            return x, fx, it, (lo, hi)
        if fx > 0:
            hi = x
        else:
            lo = x
        step = x - fx / d if (d > 0 and math.isfinite(d)) else math.nan
        # A step that rounds back onto x has stagnated; replacing it would
        # bisect from a stale end of the bracket.
        if step != x and not (lo < step < hi):
            step = 2.0 * x if hi == math.inf else 0.5 * (lo + hi)
        if step == x:  # float resolution exhausted
            return x, fx, it, (lo, hi)
        x = step
    raise ConvergenceError(f"no convergence after {_NEWTON_ITERS} iterations (|f|={abs(fx):.3e})")


_GL_LO = leggauss(15)
_GL_HI = leggauss(31)
# Both rules' nodes in one array: a panel evaluates f once, on all 46.
_GL_NODES = np.concatenate((_GL_LO[0], _GL_HI[0]))
_GL_SPLIT = _GL_LO[0].size
# integrate_panels' budget of bisections, and of base panels, which
# refuses perron --T 1e15 before any panel is allocated.
_MAX_SPLITS = 4000


def integrate_panels(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    panel_width: float,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-10,
) -> float:
    """Integrate f, which maps an array of abscissae to an array of values,
    over [a, b] with fixed panels refined adaptively.

    Each panel is bisected until its nested 15/31-point Gauss-Legendre
    rules agree; more than _MAX_SPLITS bisections, or base panels, raise
    ConvergenceError, the latter before f is called.  f is called once per
    panel, on the 15 nodes followed by the 31, so an elementwise f gives
    the same float as one call per rule.  math.fsum rounds the exact sum
    of the panels once, so their order does not matter.
    """
    if b <= a:
        return 0.0

    n_base = max(1, math.ceil((b - a) / panel_width))
    if n_base > _MAX_SPLITS:
        raise ConvergenceError(
            f"quadrature budget exceeded: {n_base} base panels ({_MAX_SPLITS} splits)"
        )
    edges = np.linspace(a, b, n_base + 1)
    work = [(edges[i], edges[i + 1]) for i in range(n_base)]
    done: list[float] = []
    splits = 0
    while work:
        lo, hi = work.pop()
        mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v = f(mid + hw * _GL_NODES)
        coarse = hw * float(np.dot(_GL_LO[1], v[:_GL_SPLIT]))
        fine = hw * float(np.dot(_GL_HI[1], v[_GL_SPLIT:]))
        if abs(fine - coarse) <= max(atol, rtol * abs(fine)):
            done.append(fine)
            continue
        splits += 1
        if splits > _MAX_SPLITS:
            raise ConvergenceError(
                f"quadrature refinement budget exceeded ({_MAX_SPLITS} splits)"
            )
        work.append((mid, hi))
        work.append((lo, mid))
    return math.fsum(done)
