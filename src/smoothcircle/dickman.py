"""The smooth-density special functions: xi(u), its derivative, the Dickman
function rho(u), and the entire integral int_0^v (e^s - 1)/s ds.

rho solves u rho'(u) + rho(u-1) = 0 with rho = 1 on [0, 1].  It decays like
u^-u while perturbations of the delay equation decay only polynomially, so
any fixed-order forward quadrature leaves an absolute error floor that
swamps rho(u) beyond u of about 15.  rho is therefore held as one Taylor
series per unit interval, about its midpoint (the power-series method of
Marsaglia, Zaman and Marsaglia, Math. Comp. 1989): the delay equation turns
into an exact coefficient recurrence, advanced interval by interval in
decimal arithmetic with precision scaled to the requested range, and rho(u)
is the float Horner sum of its interval's series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext

from .errors import ConvergenceError, DomainError
from .numutil import EULER_GAMMA, bracketed_newton

RHO_UNDERFLOW = 1e-300  # rho values below this clamp to zero, flagged
DEFAULT_RHO_UMAX = 64
_SERIES_CAP = 4000
_LOG10_2 = math.log10(2.0)


def xi(u: float) -> float:
    """The nonzero solution of e^xi = 1 + u xi for u > 1, with xi(1) = 0.

    Solved by safeguarded Newton to float stagnation; the residual satisfies
    |e^xi - 1 - u xi| well below 1e-12 max(1, u xi).
    """
    if u < 1.0:
        raise DomainError(f"xi needs u >= 1, got {u}")
    if u == 1.0:
        return 0.0

    def g(z: float) -> float:
        return math.expm1(z) - u * z

    def gp(z: float) -> float:
        return math.exp(z) - u

    # g < 0 strictly between the trivial root 0 and the sought root, and
    # min(1, u-1) always lands in that gap.
    lo = min(1.0, u - 1.0)
    hi = max(1.0, math.log(u * math.log(u) + 1.0))
    for _ in range(200):
        if g(hi) >= 0:
            break
        hi *= 2.0
    seed = math.log(u * math.log(u) + 1.0)
    root, _, _, _ = bracketed_newton(g, gp, lo, hi, seed, ftol=0.0, max_iters=200)
    return root


def xi_prime(u: float) -> float:
    """xi'(u) = xi / (1 + u xi - u) by implicit differentiation; u > 1."""
    if u <= 1.0:
        raise DomainError(f"xi_prime needs u > 1, got {u}")
    v = xi(u)
    return v / (1.0 + u * v - u)


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


def _rho_digits(u_max: float) -> int:
    # Roughly -log10 rho(u_max): the cancellation the interval recursion has
    # to survive, plus fixed headroom.
    if u_max <= 3:
        lg = 3.0
    else:
        lg = u_max * (math.log(u_max) + math.log(math.log(u_max)) - 1.0) / math.log(10.0)
    return 40 + int(lg)


def _rho_interval_series(u_max: int, prec: int) -> list[list[Decimal]]:
    """Taylor coefficients of rho about k + 1/2 for each interval [k, k+1].

    Writing f_k(tau) = rho(k + 1/2 + tau), the delay equation gives
    (c + tau) f_k'(tau) = -f_{k-1}(tau) with c = k + 1/2, i.e. the exact
    recurrence a[m+1] = -(b[m] + m a[m]) / (c (m+1)) where b are the previous
    interval's coefficients; a[0] is anchored by continuity at tau = -1/2.
    The series converge geometrically on |tau| <= 1/2, so truncation is
    driven to the working precision rather than to a fixed power of a step.
    """
    with localcontext() as ctx:
        ctx.prec = prec
        half = Decimal(1) / 2
        tail_eps = Decimal(10) ** (-(prec - 8))
        rho_left = Decimal(1)  # rho(1)
        b: list[Decimal] = [Decimal(1)]  # constant series on [0, 1]
        out: list[list[Decimal]] = []
        for k in range(1, u_max):
            c = Decimal(2 * k + 1) / 2
            a: list[Decimal] = [Decimal(0)]
            scale = abs(rho_left)
            m = 0
            pow_half = Decimal(1)
            while True:
                bm = b[m] if m < len(b) else Decimal(0)
                nxt = -(bm + m * a[m]) / (c * (m + 1))
                a.append(nxt)
                m += 1
                pow_half *= half
                if m >= 8 and m >= len(b) and abs(nxt) * pow_half < tail_eps * scale:
                    break
                if m > _SERIES_CAP:
                    raise ConvergenceError(f"rho series stalled on interval [{k}, {k + 1}]")
            tail = Decimal(0)  # sum_{m>=1} a[m] (-1/2)^m by Horner
            for mm in range(len(a) - 1, 0, -1):
                tail = (tail + a[mm]) * -half
            a[0] = rho_left - tail
            right = Decimal(0)  # f_k(1/2)
            for mm in range(len(a) - 1, -1, -1):
                right = a[mm] + half * right
            out.append(a)
            rho_left = right
            b = a
    return out


@dataclass(frozen=True)
class DickmanTable:
    """rho on [0, u_max] as one float Taylor series per unit interval.

    coeffs[k - 1] is the series of rho about k + 1/2 on [k, k + 1], highest
    power first (k = 1 .. u_max - 1); values below RHO_UNDERFLOW read 0.
    """

    u_max: int
    coeffs: tuple[tuple[float, ...], ...] = field(repr=False)

    def value_at(self, u: float) -> float:
        """rho(u) for 0 <= u <= u_max by Horner's rule on u's interval."""
        if u < 0:
            raise DomainError(f"rho needs u >= 0, got {u}")
        if u <= 1.0:
            return 1.0
        if u > self.u_max:
            raise DomainError(f"u={u} beyond table extent {self.u_max}")
        k = min(int(u), self.u_max - 1)
        tau = u - (k + 0.5)
        value = 0.0
        for c in self.coeffs[k - 1]:
            value = value * tau + c
        return value if value >= RHO_UNDERFLOW else 0.0


def build_dickman_table(u_max: int = DEFAULT_RHO_UMAX) -> DickmanTable:
    """rho's per-interval series on [1, u_max] as float coefficients.

    They are computed in decimal with enough digits that the float rounding
    dominates.  A float series ends at its last term that reaches
    2^-70 max(rho(k + 1/2), RHO_UNDERFLOW) at |tau| = 1/2: later terms shrink
    like 3^-m (rho's continuation is analytic within 3/2 of the midpoint) and
    rho falls by less than 2^10 within the interval, so the cut stays far
    below an ulp of every unclamped value and keeps at most ~40 terms.
    Only the decimals at or before a conservative cut, found from their
    decimal exponents with a decade of slack, are converted to float.
    """
    if u_max < 2:
        raise DomainError(f"u_max must be >= 2, got {u_max}")
    coeffs = []
    for a in _rho_interval_series(u_max, _rho_digits(u_max)):
        floor = 2.0**-70 * max(abs(float(a[0])), RHO_UNDERFLOW)
        # |a[m]| < 10^(adjusted + 1), so past `top` no term reaches floor / 10.
        cut = math.log10(floor) - 1.0
        top = max(
            (m for m, am in enumerate(a) if am.adjusted() + 1 - m * _LOG10_2 >= cut),
            default=0,
        )
        cf = [float(am) for am in a[: top + 1]]
        n = 1 + max((m for m, c in enumerate(cf) if abs(c) * 0.5**m >= floor), default=0)
        coeffs.append(tuple(reversed(cf[:n])))
    return DickmanTable(u_max, tuple(coeffs))


_table: DickmanTable | None = None  # rebuilt larger on demand

# The first integer u with 1/Gamma(u + 1) < RHO_UNDERFLOW (167): rho reads 0
# from the Gamma cut (about 166.92) on, so no table needs to pass _U_CUT + 2.
_U_CUT = next(k for k in range(2, 1000) if math.lgamma(k + 1.0) > -math.log(RHO_UNDERFLOW))


def rho(u: float) -> float:
    """The Dickman function rho(u) for u >= 0 (1 on [0, 1], cached table beyond).

    0.0, the table's clamp value, without building a table once the bound
    rho(u) <= 1/Gamma(u + 1) is below RHO_UNDERFLOW: u rho(u) is the integral
    of rho over [u - 1, u], which is at most rho(u - 1).  The first table
    reaches max(DEFAULT_RHO_UMAX, ceil(u) + 2); a u past it rebuilds to
    max(ceil(u) + 2, min(2 u_max, _U_CUT + 2)).
    """
    global _table
    if u < 0:
        raise DomainError(f"rho needs u >= 0, got {u}")
    if u <= 1.0:
        return 1.0
    if math.lgamma(u + 1.0) > -math.log(RHO_UNDERFLOW):
        return 0.0
    if _table is None or _table.u_max < u:
        # Grow by doubling, capped at the Gamma cut, so an ascending sweep
        # builds at most three tables.
        grow = DEFAULT_RHO_UMAX if _table is None else min(2 * _table.u_max, _U_CUT + 2)
        _table = build_dickman_table(max(grow, int(math.ceil(u)) + 2))
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
