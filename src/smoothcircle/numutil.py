"""Small numerical helpers: exact sums, safeguarded root finding,
panel-based Gauss-Kronrod quadrature.

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
exact sum.

sigma needs only n and a bound on max|x| known before the first value, so
CertifiedAccumulator takes the values block by block, as online exact
summation does (Zhu and Hayes, ACM TOMS 37, 2010): the prime sums, and
the Euler kernel past one row of terms, stream their terms through it with
no whole array, and fall back to csum only where it declines.  csum runs
certified_sum, one accumulator over an array, and sends every other case
-- small or non-array input, non-finite values, sums near zero or near
overflow, a bound that cannot decide -- to math.fsum, so values, nan, inf
and exceptions are math.fsum's own.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError

# Euler-Mascheroni constant, 16 decimal digits.
EULER_GAMMA = 0.5772156649015329


# csum's fast path: arrays shorter than _CSUM_MIN go to math.fsum, which is
# as fast there (best of 3 x 3000 calls on a 2-vCPU Xeon: 21 us against
# certified_sum's 24 at 256 values, 29 against 17 at 512, 72 against 18 at
# 1 229); the extraction runs _CSUM_BLOCK values at a time, which bounds
# its scratch memory; an array of n values with n + 2 above
# _CSUM_EXTRACT_LIMIT = 2^26 goes to math.fsum, since two extractions leave
# a bound that grows like 2^(4M) and stops deciding near there; a bound on
# max|x| in (_CSUM_TINY, _CSUM_LIMIT / n) keeps every unit of extraction
# normal and every partial sum, here and in math.fsum, far from overflow.
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
    input, the sum is math.fsum's.  The Euler kernel sums the whole
    arrays of a table of one row (y < 84 047) by this; past that, and in
    the prime sums, the terms go through a CertifiedAccumulator block by
    block, and this sums them only where it declines.
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
    """math.fsum(x) for a 1-D float64 array, or None where it cannot certify:
    a CertifiedAccumulator of x.size values with the bound max|x|, which
    extracts x's _CSUM_BLOCK-value blocks into scratch remainders, leaving
    x alone.  max|x| bounds every block, so none is checked again.  None
    also for an array that holds nan or inf (max|x| is then nan or inf),
    or is empty or all zero.
    """
    n = x.size
    acc = CertifiedAccumulator(n, max(x.max(initial=0.0), -x.min(initial=0.0)))
    if acc._ok:
        rest = np.empty(min(n, _CSUM_BLOCK))
        for lo in range(0, n, _CSUM_BLOCK):
            block = x[lo : lo + _CSUM_BLOCK]
            acc._extract(block, rest[: block.size])
    return acc.result()


class CertifiedAccumulator:
    """math.fsum of up to n float64 values, given block by block, each
    |value| <= bound: the sum is exact whatever the blocks' sizes, so a
    caller need never hold all n values at once.

    sigma is the least power of two with bound <= 2^-M sigma, n + 2 <= 2^M,
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
    float test implies the exact one.

    result() is that r, or None: when a block holds a value above bound in
    magnitude, or nan or inf, or the blocks bring more than n values; when
    bound is below _CSUM_TINY or n bound reaches _CSUM_LIMIT; when
    n + 2 > _CSUM_EXTRACT_LIMIT; when |r| <= 1e-290, where the gap nears
    the subnormals; and when the test above fails.  Once a block breaks
    the bound, later blocks are not summed.  Each block is extracted in
    place, so one scratch array the size of the largest block serves.
    """

    def __init__(self, n: int, bound: float) -> None:
        self._n = n
        self._bound = bound
        self._ok = _CSUM_TINY < bound < _CSUM_LIMIT / max(n, 1) and n + 2 <= _CSUM_EXTRACT_LIMIT
        if self._ok:
            m = (n + 1).bit_length()  # n + 2 <= 2^m
            self._sigma = math.ldexp(1.0, m + math.frexp(bound)[1])  # bound < 2^frexp exponent
            self._sigma2 = math.ldexp(self._sigma, m - 53)
        self._seen = 0
        self._tau1 = self._tau2 = self._s3 = 0.0
        self._q = np.empty(0)

    def add(self, block: np.ndarray) -> None:
        """Sum one 1-D float64 block into the total.  A block within the
        bound is overwritten by its remainders: pass a copy of values still
        needed.

        The reductions are the ufuncs' own, which ndarray.sum, min and max
        wrap: the same floats, without a Python call per block.
        """
        size = block.size
        self._seen += size
        if not size or not self._ok:
            return
        if not (
            self._seen <= self._n
            and -self._bound <= np.minimum.reduce(block)  # False at nan
            and np.maximum.reduce(block) <= self._bound
        ):
            self._ok = False
            return
        self._extract(block, block)

    def _extract(self, block: np.ndarray, rest: np.ndarray) -> None:
        """Sum a block within the bound into the total, its remainders
        written to rest, an array of block.size that may be block itself."""
        size = block.size
        if self._q.size < size:
            self._q = np.empty(size)
        qb = self._q[:size]
        sigma, sigma2 = self._sigma, self._sigma2
        np.subtract(np.add(block, sigma, out=qb), sigma, out=qb)
        self._tau1 += float(np.add.reduce(qb))
        np.subtract(block, qb, out=rest)  # x'
        np.subtract(np.add(rest, sigma2, out=qb), sigma2, out=qb)
        self._tau2 += float(np.add.reduce(qb))
        self._s3 += float(np.add.reduce(np.subtract(rest, qb, out=rest)))  # x''

    def result(self) -> float | None:
        """The correctly rounded sum of the blocks added, or None."""
        if not self._ok:
            return None
        a, e = _two_sum(self._tau1, self._tau2)
        c = e + self._s3
        r, t = _two_sum(a, c)
        if not (math.isfinite(r) and abs(r) > 1e-290):
            return None
        n = self._n
        bound = _U * abs(c) + 2.0 * float(n * n) * _U * _U * self._sigma2
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


# The 31-point Gauss-Kronrod rule (Kronrod, 1965; QUADPACK's qk31, Piessens
# et al., 1983) on [-1, 1], the nodes >= 0 from the largest down to 0.0, and
# their weights: tests/oracles.py::kronrod31_decimal computes both in decimal
# arithmetic, and a tier-1 test holds these floats to it bit for bit.
_K31_HALF_NODES = (
    0.9980022986933971, 0.9879925180204854, 0.9677390756791391, 0.937273392400706,
    0.8972645323440819, 0.8482065834104272, 0.790418501442466, 0.7244177313601701,
    0.650996741297417, 0.5709721726085388, 0.4850818636402397, 0.3941513470775634,
    0.29918000715316884, 0.20119409399743451, 0.1011420669187175, 0.0,
)
_K31_HALF_WEIGHTS = (
    0.005377479872923349, 0.015007947329316122, 0.02546084732671532, 0.03534636079137585,
    0.04458975132476488, 0.05348152469092809, 0.06200956780067064, 0.06985412131872826,
    0.07684968075772038, 0.08308050282313302, 0.08856444305621176, 0.09312659817082532,
    0.09664272698362368, 0.09917359872179196, 0.10076984552387559, 0.10133000701479154,
)
# The 15-point Gauss-Legendre weights of K31's odd nodes >= 0, in the same
# order, correctly rounded: the same oracle and test hold them.
_G15_HALF_WEIGHTS = (
    0.03075324199611727, 0.07036604748810812, 0.10715922046717194, 0.13957067792615432,
    0.16626920581699392, 0.1861610000155622, 0.19843148532711158, 0.2025782419255613,
)
# All 31 nodes, ascending, and their weights.  The 15-point Gauss rule's
# nodes are the odd columns, its middle one, column 15, is 0.0.
_K31_NODES = np.concatenate((-np.array(_K31_HALF_NODES[:-1]), _K31_HALF_NODES[::-1]))
_K31_WEIGHTS = np.concatenate((_K31_HALF_WEIGHTS[:-1], _K31_HALF_WEIGHTS[::-1]))
_G15_WEIGHTS = np.concatenate((_G15_HALF_WEIGHTS[:-1], _G15_HALF_WEIGHTS[::-1]))
# integrate_panels' budget of bisections, and of base panels, which
# refuses perron --T 1e15 before any panel is allocated.
_MAX_SPLITS = 4000
# integrate_panels' tolerances on the difference of a panel's two rules.
_QUAD_RTOL = 1e-9
_QUAD_ATOL = 1e-9


def integrate_panels(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    panel_width: float,
) -> float:
    """Integrate f, which maps a 2-D array of abscissae to values of the
    same shape, over [a, b] with fixed panels refined adaptively.

    Each panel is evaluated at the 31 nodes of the Gauss-Kronrod rule K31,
    whose odd columns are the nodes of the 15-point Gauss rule G15, and is
    bisected until the two rules agree within max(_QUAD_ATOL,
    _QUAD_RTOL |K31|); K31 is its value.  More than _MAX_SPLITS
    bisections, or base panels, raise ConvergenceError, the latter before
    f is called.  f is called once per level of equal-width panels (the
    base panels, then the halves of those that failed), on one row of 31
    nodes per panel.  Midpoints and offsets hw x_i are rounded to
    multiples of q = ulp(2 max(|a|, |b|)), so every row is exactly its
    column 15, the midpoint, plus one offsets array per level; that moves
    a node by at most q/2.  Each rule sums a row's products in numpy's
    own order, the same for every row, and math.fsum rounds the exact sum
    of the panels once, so their order does not matter.
    """
    if b <= a:
        return 0.0

    panels = (b - a) / panel_width  # inf where the quotient overflows
    if not panels <= _MAX_SPLITS:
        raise ConvergenceError(
            f"quadrature budget exceeded: {panels:.4g} base panels ({_MAX_SPLITS} splits)"
        )
    n_base = max(1, math.ceil(panels))
    q = 2.0 * math.ulp(max(abs(a), abs(b)))  # ulp(2 max(|a|, |b|)), without overflow

    def on_grid(v: np.ndarray) -> np.ndarray:
        return np.round(v / q) * q

    edges = np.linspace(a, b, n_base + 1)
    mids = on_grid(0.5 * (edges[:-1] + edges[1:]))
    hw = 0.5 * (b - a) / n_base
    done, splits = [], 0
    while mids.size:
        v = f(mids[:, None] + on_grid(hw * _K31_NODES))
        with np.errstate(invalid="ignore"):  # inf - inf: a nan, which fails
            coarse = hw * (v[:, 1::2] * _G15_WEIGHTS).sum(axis=1)
            fine = hw * (v * _K31_WEIGHTS).sum(axis=1)
            ok = np.abs(fine - coarse) <= np.maximum(_QUAD_ATOL, _QUAD_RTOL * np.abs(fine))
        done.append(fine[ok])
        splits += np.count_nonzero(~ok)
        if splits > _MAX_SPLITS:
            raise ConvergenceError(f"quadrature refinement budget exceeded ({_MAX_SPLITS} splits)")
        hw *= 0.5
        mids = (mids[~ok, None] + on_grid(np.array([-hw, hw]))).ravel()
    return math.fsum(np.concatenate(done))
