"""The smooth-density special functions: xi(u), its derivative, the Dickman
function rho(u), and the entire integral int_0^v (e^s - 1)/s ds.

rho solves u rho'(u) + rho(u-1) = 0 with rho = 1 on [0, 1].  It decays like
u^-u while perturbations of the delay equation decay only polynomially, so
any fixed-order forward quadrature leaves an absolute error floor that
swamps rho(u) beyond u of about 15.  rho is therefore held as one Taylor
series per unit interval, about its midpoint (the power-series method of
Marsaglia, Zaman and Marsaglia, Math. Comp. 1989), and rho(u) is the float
Horner sum of its interval's series.  The delay equation turns into an
exact coefficient recurrence, whose rounding errors keep one absolute size
while rho falls to 10^-300, so it is run once, at 341 decimal digits, by
rho_table_text in tests/oracles.py, and its floats ship as data:
rho_table.txt holds one line per interval k = 1 .. 127, highest power
first, each coefficient in float.hex form, which reads back exactly.  The
process holds one table, to u = 128, and rho reads it; a read parses only
the line of its own interval, the first time a u lands there.
"""

from __future__ import annotations

import math
from importlib import resources

from .errors import DomainError
from .numutil import EULER_GAMMA, bracketed_newton

RHO_UNDERFLOW = 1e-300  # rho values below this clamp to zero, flagged
# rho(u) < RHO_UNDERFLOW for every u >= _U_CUT, by the Laplace bound in
# rho's docstring, so the table stops at _U_CUT + 2.
_U_CUT = 126
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


class DickmanTable:
    """rho on [0, u_max] as one float Taylor series per unit interval, each
    parsed from its line of rho_table.txt the first time a u lands in it.

    _coeffs[k - 1] is the series of rho about k + 1/2 on [k, k + 1], highest
    power first (k = 1 .. u_max - 1), or None until interval k is read; each
    series is cut where its terms at |tau| = 1/2 fall below 2^-70 of rho
    (tests/oracles.py gives the rule).  Values below RHO_UNDERFLOW read 0.
    """

    u_max = _U_CUT + 2  # the extent bench/spans.py reads from each build

    def __init__(self) -> None:
        with resources.files(__package__).joinpath("rho_table.txt").open(encoding="utf-8") as f:
            self._lines = f.readlines()
        self._coeffs: list[tuple[float, ...] | None] = [None] * len(self._lines)

    def value_at(self, u: float) -> float:
        """rho(u) for 1 < u < _U_CUT by Horner's rule on u's interval, whose
        line alone is parsed on its first read; a thread that races that
        read parses an equal tuple into the same slot.  A u off the table,
        nan included, raises rather than read a wrong interval."""
        if not 1.0 < u < self.u_max:
            raise DomainError(f"the rho table reads 1 < u < {self.u_max}, got {u}")
        k = int(u)
        series = self._coeffs[k - 1]
        if series is None:
            series = self._coeffs[k - 1] = tuple(map(float.fromhex, self._lines[k - 1].split()))
        tau = u - (k + 0.5)
        value = 0.0
        for c in series:
            value = value * tau + c
        return value if value >= RHO_UNDERFLOW else 0.0


def build_dickman_table() -> DickmanTable:
    """A fresh DickmanTable; no interval is parsed until read.

    rho makes its one table through this name, not DickmanTable(), because
    bench/spans.py wraps it by name to count and time the build.
    """
    return DickmanTable()


_table: DickmanTable | None = None  # the process's one table, made on first use


def rho(u: float) -> float:
    """The Dickman function rho(u) for u >= 0, from the process's one table.

    u <= 1 reads 1.0, and a u in [k, k + 1] below _U_CUT parses the
    table's interval k alone, on the first such u; no table is built
    before such a u.  u >= _U_CUT reads 0.0, the clamp
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
