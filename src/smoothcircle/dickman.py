"""The smooth-density special functions: xi(u), its derivative, the Dickman
function rho(u), and the entire integral int_0^v (e^s - 1)/s ds.

rho solves u rho'(u) + rho(u-1) = 0 with rho = 1 on [0, 1].  It decays like
u^-u while perturbations of the delay equation decay only polynomially, so
any fixed-order forward quadrature leaves an absolute error floor that
swamps rho(u) beyond u of about 15.  The table is therefore built from
per-interval Taylor expansions about the interval midpoints: the delay
equation turns into an exact coefficient recurrence, advanced interval by
interval in decimal arithmetic with precision scaled to the requested range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .errors import ConvergenceError, DomainError
from .numutil import EULER_GAMMA, bracketed_newton

RHO_UNDERFLOW = 1e-300  # table values below this clamp to zero, flagged
DEFAULT_RHO_STEP_INV = 1000
DEFAULT_RHO_UMAX = 64
_SERIES_CAP = 4000


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

    The series is summed for v <= 30; larger v falls back to panelwise
    Gauss-Legendre quadrature of the (entire) integrand.
    """
    if v < 0:
        raise DomainError(f"exp_integral needs v >= 0, got {v}")
    if v == 0.0:
        return 0.0
    if v <= 30.0:
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
    from .numutil import integrate_panels

    def f(s: np.ndarray) -> np.ndarray:
        return np.expm1(s) / s  # Gauss nodes are interior, s > 0

    return integrate_panels(f, 0.0, v, 1.0, rtol=1e-13, atol=1e-13)


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


# Queries only need the default table; rebuilt larger on demand.
_TABLE_CACHE: dict[int, "DickmanTable"] = {}


@dataclass(frozen=True)
class DickmanTable:
    """rho sampled on the uniform grid u = j/step_inv, j = 0..u_max*step_inv.

    values[j] = 1 exactly for u <= 1, then strictly decreasing; entries that
    underflow RHO_UNDERFLOW are clamped to 0 and `clamped` is set.  Built
    once, then immutable and shareable.
    """

    step_inv: int
    u_max: int
    values: np.ndarray
    clamped: bool

    @property
    def step(self) -> float:
        return 1.0 / self.step_inv

    def value_at(self, u: float) -> float:
        """Cubic interpolation of rho at 0 <= u <= u_max; the four-node
        stencil never straddles an integer knot (rho is only piecewise
        smooth there)."""
        if u < 0:
            raise DomainError(f"rho needs u >= 0, got {u}")
        if u <= 1.0:
            return 1.0
        if u > self.u_max:
            raise DomainError(f"u={u} beyond table extent {self.u_max}")
        N = self.step_inv
        q = u * N
        k0 = max(int(math.floor((q - 1e-9) / N)) * N, 0)
        lo = min(max(int(math.floor(q)) - 1, k0), k0 + N - 3, self.values.size - 4)
        t = q - lo
        total = 0.0
        for i in range(4):
            w = 1.0
            for j in range(4):
                if i != j:
                    w *= (t - j) / (i - j)
            total += w * float(self.values[lo + i])
        return total

    def validate(self) -> None:
        N = self.step_inv
        if not np.all(self.values[: N + 1] == 1.0):
            raise DomainError("rho table must be exactly 1 on [0, 1]")
        live = self.values[N:]
        if self.clamped:
            live = live[live > 0.0]
        if not np.all(np.diff(live) < 0.0):
            raise DomainError("rho table must decrease strictly beyond u = 1")
        if np.any(self.values > 1.0) or np.any(self.values < 0.0):
            raise DomainError("rho values must lie in [0, 1]")


def build_dickman_table(
    step_inv: int = DEFAULT_RHO_STEP_INV,
    u_max: int = DEFAULT_RHO_UMAX,
) -> DickmanTable:
    """Tabulate rho on a uniform grid from the per-interval Taylor series.

    Coefficients are carried in decimal with enough digits that the final
    float rounding dominates; each interval's grid slice is then a float
    Horner evaluation of its own series (relative accuracy persists down to
    the underflow clamp).
    """
    if step_inv < 8:
        raise DomainError(f"step_inv too coarse: {step_inv}")
    if u_max < 2:
        raise DomainError(f"u_max must be >= 2, got {u_max}")
    N = step_inv
    series = _rho_interval_series(u_max, _rho_digits(u_max))
    values = np.ones(u_max * N + 1, dtype=np.float64)
    clamped = False
    for k in range(1, u_max):
        coeffs = series[k - 1]
        scale = float(abs(coeffs[0]))
        j0, j1 = k * N, (k + 1) * N
        if scale < RHO_UNDERFLOW:
            values[j0 : j1 + 1] = 0.0
            clamped = True
            continue
        # float coefficients keep full relative precision at this scale
        cf = np.array([float(cm) for cm in coeffs])
        tau = np.arange(j0, j1 + 1, dtype=np.float64) / N - (k + 0.5)
        acc = np.zeros_like(tau)
        for cm in cf[::-1]:
            acc = acc * tau + cm
        values[j0 : j1 + 1] = acc
    under = values < RHO_UNDERFLOW
    if under.any():
        values[under] = 0.0
        clamped = True
    values[: N + 1] = 1.0
    values.setflags(write=False)
    return DickmanTable(step_inv=N, u_max=u_max, values=values, clamped=clamped)


def _table_for(u: float, step_inv: int) -> DickmanTable:
    tab = _TABLE_CACHE.get(step_inv)
    if tab is None or tab.u_max < u:
        u_max = max(DEFAULT_RHO_UMAX, int(math.ceil(u)) + 2)
        tab = build_dickman_table(step_inv, u_max)
        _TABLE_CACHE[step_inv] = tab
    return tab


def rho(u: float, *, step_inv: int = DEFAULT_RHO_STEP_INV) -> float:
    """The Dickman function rho(u) for u >= 0 (1 on [0, 1], cached table beyond).

    0.0, the table's clamp value, without building a table once the bound
    rho(u) <= 1/Gamma(u + 1) is below RHO_UNDERFLOW: u rho(u) is the integral
    of rho over [u - 1, u], which is at most rho(u - 1).
    """
    if u < 0:
        raise DomainError(f"rho needs u >= 0, got {u}")
    if u <= 1.0:
        return 1.0
    if math.lgamma(u + 1.0) > -math.log(RHO_UNDERFLOW):
        return 0.0
    return _table_for(u, step_inv).value_at(u)


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
