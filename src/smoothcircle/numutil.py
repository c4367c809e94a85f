"""Small numerical helpers: exact sums, safeguarded root finding,
panel-based Gauss-Legendre quadrature.

csum returns exactly what math.fsum returns -- the correctly rounded sum --
but sums a large float64 array in numpy: a blocked pairwise TwoSum cascade
(Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM J. Sci.
Comput. 2005) turns the array into one float plus the exact rounding errors
of every addition, and the float sum of those errors is accepted only when
a rigorous error bound proves that it rounds to the same float as the exact
sum.  Every other case -- small or non-array input, non-finite values,
sums near zero or near overflow, a bound that cannot decide -- goes to
math.fsum, so values, nan, inf and exceptions are math.fsum's own.
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
# as fast there; the cascade halves blocks of _CSUM_BLOCK values (bounding
# its scratch memory) down to _CSUM_HEADS values each, then halves the heads
# of all blocks down to one; n max|x| below _CSUM_LIMIT keeps every partial
# sum, here and in math.fsum, far from overflow.
_CSUM_MIN = 2048
_CSUM_BLOCK = 1 << 15
_CSUM_HEADS = 64
_CSUM_LIMIT = 2.0**1000


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


def _two_sum_cascade(v: np.ndarray, stop: int) -> tuple[np.ndarray, float, float, int]:
    """Halve v by pairwise TwoSum until at most `stop` values are left.

    Returns (rest, e_sum, abs_sum, m): sum(v) equals sum(rest) plus the m
    TwoSum errors exactly; e_sum and abs_sum are float sums of the errors
    and of their magnitudes.  An odd level gets a zero appended.
    """
    errs = np.empty(v.size + 64)  # at most one padding zero per level
    m = 0
    while v.size > stop:
        if v.size & 1:
            v = np.append(v, 0.0)
        a, b = v[0::2], v[1::2]
        s = a + b
        bb = s - a
        e = errs[m : m + s.size]
        np.subtract(s, bb, out=e)
        np.subtract(a, e, out=e)
        np.subtract(b, bb, out=bb)
        e += bb  # (a - (s - bb)) + (b - bb) = a + b - s
        m += s.size
        v = s
    e = errs[:m]
    e_sum = float(e.sum())
    return v, e_sum, float(np.abs(e, out=e).sum()), m


def certified_sum(x: np.ndarray) -> float | None:
    """math.fsum(x) for a 1-D float64 array, or None where it cannot certify.

    The TwoSum cascade leaves sum(x) = s + (sum of m errors) exactly.  With
    E and A the float sums of the errors and of their magnitudes, any
    summation order gives |E - sum(errors)| <= gamma_(m-1) A_exact <=
    2 (m + 1) 2^-53 A.  r = fl(s + E) with TwoSum error t is then the
    correctly rounded sum, in any tie-breaking rule, once |t| plus that
    bound is below half the gap from r to its nearer float neighbour.
    None when that fails, when x holds nan or inf or is empty, all zero or
    so large that n max|x| reaches _CSUM_LIMIT, and when |r| <= 1e-290,
    where the bound might round into the subnormals.
    """
    if not 0.0 < max(x.max(initial=0.0), -x.min(initial=0.0)) < _CSUM_LIMIT / max(x.size, 1):
        return None
    heads = []
    e_sum = abs_sum = 0.0
    m = 0
    for lo in range(0, x.size, _CSUM_BLOCK):
        rest, es, ab, k = _two_sum_cascade(x[lo : lo + _CSUM_BLOCK], _CSUM_HEADS)
        heads.append(rest)
        e_sum, abs_sum, m = e_sum + es, abs_sum + ab, m + k
    rest, es, ab, k = _two_sum_cascade(np.concatenate(heads), 1)
    s = float(rest[0])
    e_sum, abs_sum, m = e_sum + es, abs_sum + ab, m + k
    r = s + e_sum
    bv = r - s
    t = (s - (r - bv)) + (e_sum - bv)
    if not (math.isfinite(r) and abs(r) > 1e-290):
        return None
    gap = min(r - math.nextafter(r, -math.inf), math.nextafter(r, math.inf) - r)
    if abs(t) + 2.0 * (m + 1) * 2.0**-53 * abs_sum < 0.5 * gap:
        return r
    return None


# bracketed_newton halves lo, or doubles hi, at most this many times.
_WIDEN_STEPS = 200


def bracketed_newton(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    lo: float,
    hi: float,
    x0: float | None = None,
    *,
    ftol: float,
    max_iters: int = 100,
) -> tuple[float, float, int, tuple[float, float]]:
    """Newton iteration confined to a sign-changing bracket, with bisection fallback.

    Requires f nondecreasing.  [lo, hi] is a starting guess: lo is halved
    while f(lo) > 0 and hi doubled while f(hi) < 0, at most _WIDEN_STEPS
    times each, and f is evaluated once at every end tried.  Raises
    ConvergenceError when the widened ends still have no sign change
    f(lo) <= 0 <= f(hi), or do not satisfy lo < hi; lo = hi on entry is
    fine if widening separates them.  Newton then starts at x0 if it lies
    strictly inside the bracket, else at the midpoint.  Returns
    (root, f(root), iterations, (lo, hi)); the returned bracket still
    straddles the root strictly.
    """
    flo = f(lo)
    for _ in range(_WIDEN_STEPS):
        if flo <= 0:
            break
        lo *= 0.5
        flo = f(lo)
    fhi = f(hi)
    for _ in range(_WIDEN_STEPS):
        if fhi >= 0:
            break
        hi *= 2.0
        fhi = f(hi)
    if not (lo < hi):
        raise ConvergenceError(f"empty bracket [{lo}, {hi}]")
    if flo > 0 or fhi < 0:
        raise ConvergenceError(f"bracket [{lo}, {hi}] does not straddle a sign change")
    x = x0 if (x0 is not None and lo < x0 < hi) else 0.5 * (lo + hi)
    for it in range(1, max_iters + 1):
        fx = f(x)
        if abs(fx) <= ftol:
            return x, fx, it, (lo, hi)
        if fx > 0:
            hi = x
        else:
            lo = x
        d = fprime(x)
        step = x - fx / d if (d > 0 and math.isfinite(d)) else math.nan
        if not (lo < step < hi):
            step = 0.5 * (lo + hi)
        if step == x:  # float resolution exhausted
            return x, fx, it, (lo, hi)
        x = step
    raise ConvergenceError(f"no convergence after {max_iters} iterations (|f|={abs(fx):.3e})")


_GL_LO = leggauss(15)
_GL_HI = leggauss(31)
# Both rules' nodes in one array: a panel evaluates f once, on all 46.
_GL_NODES = np.concatenate((_GL_LO[0], _GL_HI[0]))
_GL_SPLIT = _GL_LO[0].size


def integrate_panels(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    panel_width: float,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    max_splits: int = 4000,
) -> float:
    """Integrate f over [a, b] with fixed panels refined adaptively.

    f must map an array of abscissae to an array of values.  Each panel is
    evaluated with nested 15/31-point Gauss-Legendre rules and bisected until
    the two agree; exceeding the split budget raises ConvergenceError.  f is
    called once per panel, on the 15 nodes followed by the 31 nodes, so for
    an f that acts elementwise the result is the same float as calling it
    once per rule.  The final reduction order is deterministic (panels
    sorted by position).
    """
    if b <= a:
        return 0.0

    n_base = max(1, math.ceil((b - a) / panel_width))
    edges = np.linspace(a, b, n_base + 1)
    work = [(edges[i], edges[i + 1]) for i in range(n_base)]
    done: list[tuple[float, float]] = []
    splits = 0
    while work:
        lo, hi = work.pop()
        mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v = f(mid + hw * _GL_NODES)
        coarse = hw * float(np.dot(_GL_LO[1], v[:_GL_SPLIT]))
        fine = hw * float(np.dot(_GL_HI[1], v[_GL_SPLIT:]))
        if abs(fine - coarse) <= max(atol, rtol * abs(fine)):
            done.append((lo, fine))
            continue
        splits += 1
        if splits > max_splits:
            raise ConvergenceError(
                f"quadrature refinement budget exceeded ({max_splits} splits)"
            )
        work.append((mid, hi))
        work.append((lo, mid))
    done.sort(key=lambda t: t[0])
    return math.fsum(v for _, v in done)
