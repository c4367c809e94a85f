"""The smooth-density special functions: xi(u), its derivative, the Dickman
function rho(u), and the entire integral int_0^v (e^s - 1)/s ds.

rho solves u rho'(u) + rho(u-1) = 0 with rho = 1 on [0, 1].  It decays like
u^-u while perturbations of the delay equation decay only polynomially, so
any fixed-order forward quadrature leaves an absolute error floor that
swamps rho(u) beyond u of about 15.  rho is therefore held as one Taylor
series per unit interval, about its midpoint (the power-series method of
Marsaglia, Zaman and Marsaglia, Math. Comp. 1989): the delay equation turns
into an exact coefficient recurrence, advanced interval by interval in
binary fixed point on Python ints, and rho(u) is the float Horner sum of its
interval's series.  The same absolute error floor is why the arithmetic is
fixed point: rounding errors do not shrink with rho, so every coefficient
carries one absolute precision, 2^-1197.  The process holds one table, to
u = 128 at those 1 197 bits, and rho reads it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .errors import ConvergenceError, DomainError
from .numutil import EULER_GAMMA, bracketed_newton

RHO_UNDERFLOW = 1e-300  # rho values below this clamp to zero, flagged
_SERIES_CAP = 4000
# rho(u) < RHO_UNDERFLOW for every u >= _U_CUT, by the Laplace bound in
# rho's docstring, so the table stops at _U_CUT + 2.
_U_CUT = 126
# The one absolute precision of the table's fixed point, 2^-_BITS.  rho falls
# to about 10^-300 on the table while the delay recurrence's rounding errors
# keep one absolute size from interval to interval, so every term needs the
# same absolute precision, not a relative one: 341 decimal digits (an
# estimate of -log10 rho(128), 301, plus 40 of headroom) in binary, and 64
# guard bits, which keep the divisions' rounding, piled up over ~10^3 terms
# per interval and 127 intervals, out of the last bit of every float
# coefficient.
_BITS = 1197
_EXP_SAFE = 709.0  # e^z is finite, below 1e308, for z up to here


def xi(u: float) -> float:
    """The nonzero solution of e^xi = 1 + u xi for u > 1, with xi(1) = 0.

    Solved by safeguarded Newton to float stagnation on
    F(z) = (e^z - 1 - z)/z = u - 1, in which the leading z of e^z - 1 and
    u z no longer cancels: below z = 1, F and F' are summed from their
    positive series sum_{k>=2} z^(k-1)/k!, so the root keeps full relative
    precision as u -> 1.  Past z = _EXP_SAFE, where e^z nears the end of
    float range, the step is taken on g(z) = e^z - 1 - u z = z (F - (u - 1))
    with g and g' scaled by e^-z: the sign is that of F - (u - 1), so every
    finite u >= 1 has its root, xi(u) ~ log u + log log u, up to about 716.
    The residual satisfies |e^xi - 1 - u xi| well below 1e-12 max(1, u xi),
    or in log form |xi - log(1 + u xi)| below 1e-12 xi.
    """
    if not 1.0 <= u < math.inf:
        raise DomainError(f"xi needs finite u >= 1, got {u}")
    if u == 1.0:
        return 0.0
    log_u = math.log(u)
    u_m1 = u - 1.0

    def fdf(z: float) -> tuple[float, float]:
        if z < 1.0:  # F = sum p_k z, F' = sum (k - 1) p_k, p_k = z^(k-2)/k!
            f = d = 0.0
            p, k = 0.5, 2
            while p > 1e-17 * d:
                f += p * z
                d += (k - 1) * p
                k += 1
                p *= z / k
            return f - u_m1, d
        if z <= _EXP_SAFE:
            zz = z * z  # F' = ((z - 1) e^z + 1)/z^2, divided first: finite up to _EXP_SAFE
            return (math.expm1(z) - z) / z - u_m1, (z - 1.0) / zz * math.exp(z) + 1.0 / zz
        # g and g' scaled by e^-z: 1 - (1 + u z) e^-z and 1 - u e^-z
        return -math.expm1(log_u + math.log(z + 1.0 / u) - z), -math.expm1(log_u - z)

    # F < u - 1 on (0, root) and F -> inf: the bracket is (0, inf).  The
    # seed log(u log u + 1) is log u + log log u, up to rounding, where
    # u log u overflows.
    u_log_u = u * log_u
    seed = math.log(u_log_u + 1.0) if u_log_u < math.inf else log_u + math.log(log_u)
    root, _, _, _ = bracketed_newton(fdf, seed, ftol=0.0)
    return root


def xi_prime(u: float) -> float:
    """xi'(u) = xi / (u xi - (u - 1)) by implicit differentiation; u > 1.

    As u -> 1, u xi ~ 2(u - 1): the grouping subtracts u - 1, exact up to
    u = 2, from about twice itself, where 1 + u xi - u would cancel to
    u - 1 out of 1."""
    if not 1.0 < u < math.inf:
        raise DomainError(f"xi_prime needs finite u > 1, got {u}")
    v = xi(u)
    return v / (u * v - (u - 1.0))


def exp_integral(v: float) -> float:
    """int_0^v (e^s - 1)/s ds = sum_{k>=1} v^k / (k k!).

    Every term is positive, so the float sum loses nothing to cancellation
    at any v >= 0; it stops once a term drops below 1e-17 of the total.
    """
    if not v >= 0:
        raise DomainError(f"exp_integral needs v >= 0, got {v}")
    if v == 0.0:
        return 0.0
    total = 0.0
    m = 1.0
    k = 0
    while True:
        k += 1
        m *= v / k
        term = m / k
        total += term
        if term <= 1e-17 * total:
            return total


def _rho_interval_series() -> Iterator[list[int]]:
    """Taylor coefficients of rho about k + 1/2 for each interval [k, k + 1],
    in binary fixed point.

    Writing f_k(tau) = rho(k + 1/2 + tau) = sum a[m] tau^m, the delay
    equation gives (c + tau) f_k'(tau) = -f_{k-1}(tau) with c = k + 1/2.  In
    the terms at |tau| = 1/2, A[m] = a[m] 2^-m, that is the exact recurrence
    A[m+1] = -(B[m] + m A[m]) / ((2k + 1)(m + 1)), B being the previous
    interval's terms; each A[m] is held as the integer nearest A[m] 2^_BITS.
    Continuity at tau = -1/2 anchors A[0] = rho(k) + sum_{odd m} A[m] -
    sum_{even m >= 2} A[m], and rho(k + 1) = sum A[m].  A series ends once
    the next term rounds to 0 with B used up (every later term is then 0 as
    well), trailing zeros trimmed.  Yields interval k = 1 .. _U_CUT + 1 in
    turn; each yielded list is emptied, term by term, as the next is built.
    """
    rho_left = 1 << _BITS  # rho(1)
    b = [rho_left]  # the constant series on [0, 1]
    for k in range(1, _U_CUT + 2):
        a = [0]  # a[0] is anchored below; the recurrence never reads it
        m = 0
        # b.pop() is then B[m], freed once read.  Reading b[m] in place
        # would keep the previous interval's ~750 big ints alive until this
        # one is built: one pymalloc arena, about 1 MB, more at peak.
        b.reverse()
        while True:
            num = -((b.pop() if b else 0) + m * a[m])
            den = (2 * k + 1) * (m + 1)
            nxt = (2 * num + den) // (2 * den)  # num / den, rounded to nearest
            if nxt == 0 and not b:
                break
            a.append(nxt)
            m += 1
            if m > _SERIES_CAP:
                raise ConvergenceError(f"rho series stalled on interval [{k}, {k + 1}]")
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        a[0] = rho_left + sum(a[1::2]) - sum(a[2::2])
        rho_left = sum(a)
        yield a
        b = a


class DickmanTable:
    """rho on [0, u_max] as one float Taylor series per unit interval, each
    computed on first use from one running _rho_interval_series.

    _coeffs[k - 1] is the series of rho about k + 1/2 on [k, k + 1], highest
    power first (k = 1 .. u_max - 1); values below RHO_UNDERFLOW read 0.
    """

    u_max = _U_CUT + 2  # the extent bench/spans.py reads from each build

    def __init__(self) -> None:
        self._series = _rho_interval_series()
        self._coeffs: list[tuple[float, ...]] = []

    def _fill(self, k: int) -> None:
        """Convert each interval up to k that no call has reached yet.  A
        float series ends at its last term that reaches 2^-70 max(rho(k +
        1/2), RHO_UNDERFLOW) at |tau| = 1/2: later terms shrink like 3^-m
        (rho's continuation is analytic within 3/2 of the midpoint) and rho
        falls by less than 2^10 within the interval, so the cut stays far
        below an ulp of every unclamped value and keeps at most ~40 terms.
        Each coefficient is the correctly rounded float of its fixed-point
        value; only those at or before a conservative cut, found from their
        bit lengths with a factor 4 of slack, are converted."""
        while len(self._coeffs) < k:
            a = next(self._series)
            floor = 2.0**-70 * max(abs(a[0] / (1 << _BITS)), RHO_UNDERFLOW)
            # The term a[m] 2^-_BITS is below 2^(bit_length - _BITS), so past
            # `top` no term reaches floor / 4 >= 2^(frexp exponent - 3).
            least = _BITS + math.frexp(floor)[1] - 2
            top = max((m for m, am in enumerate(a) if am.bit_length() >= least), default=0)
            cf = [am / (1 << (_BITS - m)) for m, am in enumerate(a[: top + 1])]
            n = 1 + max((m for m, c in enumerate(cf) if abs(c) * 0.5**m >= floor), default=0)
            self._coeffs.append(tuple(reversed(cf[:n])))

    def value_at(self, u: float) -> float:
        """rho(u) for 1 < u < _U_CUT by Horner's rule on u's interval.  A u
        off the table, nan included, raises rather than read a wrong interval."""
        if not 1.0 < u < self.u_max:
            raise DomainError(f"the rho table reads 1 < u < {self.u_max}, got {u}")
        k = int(u)
        self._fill(k)
        tau = u - (k + 0.5)
        value = 0.0
        for c in self._coeffs[k - 1]:
            value = value * tau + c
        return value if value >= RHO_UNDERFLOW else 0.0


def build_dickman_table() -> DickmanTable:
    """A fresh DickmanTable; no interval is computed until read.

    rho makes its one table through this name, not DickmanTable(), because
    bench/spans.py wraps it by name to count and time the build.
    """
    return DickmanTable()


_table: DickmanTable | None = None  # the process's one table, made on first use


def rho(u: float) -> float:
    """The Dickman function rho(u) for u >= 0, from the process's one table.

    u <= 1 reads 1.0, and a u in [k, k + 1] below _U_CUT computes the
    table's intervals 1 .. k once, whatever the order of the calls; no
    table is built before such a u.  u >= _U_CUT reads 0.0, the clamp
    value, from no interval: rho's Laplace transform gives
    int_0^inf rho(t) e^(xi t) dt = e^(gamma + I(xi)) for real xi,
    I(v) = int_0^v (e^s - 1)/s ds (Tenenbaum, Introduction to Analytic and
    Probabilistic Number Theory, III.5), and rho is nonincreasing, so
    rho(u) (e^(xi u) - 1)/xi is at most that integral:

        rho(u) <= xi e^(gamma + I(xi)) / (e^(xi u) - 1),   xi = xi(u).

    The bound lies within 2.3 decades of rho on [50, 120] and first drops
    below RHO_UNDERFLOW at the integer u = 126 (about 10^-301.5); since rho
    is nonincreasing, so is every rho(u) with u >= 126.
    """
    global _table
    if not u >= 0:
        raise DomainError(f"rho needs u >= 0, got {u}")
    if u <= 1.0:
        return 1.0
    if u >= _U_CUT:
        return 0.0
    if _table is None:
        _table = build_dickman_table()
    return _table.value_at(u)


def log_rho_saddle_form(u: float) -> float:
    """log of the saddle-point approximation to rho(u) for u > 1:

    log sqrt(xi'(u) / (2 pi)) + gamma - u xi(u) + I(xi(u)),
    I(v) = int_0^v (e^s - 1)/s ds.  Finite wherever xi is.
    """
    if u <= 1.0:
        raise DomainError(f"the saddle form of rho needs u > 1, got {u}")
    v = xi(u)
    return 0.5 * math.log(xi_prime(u) / (2.0 * math.pi)) + EULER_GAMMA - u * v + exp_integral(v)


def rho_saddle_form(u: float) -> float:
    """Saddle-point approximation to rho(u) for u > 1, exp of log_rho_saddle_form;
    relative accuracy improves like 1/u."""
    return math.exp(log_rho_saddle_form(u))
