"""The asymptotic routes to the smooth circle sum and their verification
against the exact oracle: saddle-point main term, closed-form estimate,
Dickman-density estimate, the Rankin upper bound, a truncated Perron
integral, and the short-interval difference diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Config
from .counting import exact_circle_sum
from .dickman import log_rho_saddle_form, rho
from .dickman import rho_saddle_form  # noqa: F401  (bench/spans.py wraps it by this name)
from .errors import DomainError, ResourceBudgetError, SmoothCircleError
from .euler import h_log_line, h_log_real, phi_derivatives
from .numutil import integrate_panels
from .saddle import solve_alpha

EPSILON0 = 0.1  # the fixed epsilon_0 > 0 of the Thm 1 and Thm 2 windows
LAMBDA = 0.25  # the fixed lambda of the short-interval range z <= exp((log y)^(3/2 - lambda))

FLAG_OUTSIDE_THM1 = "outside-thm1-range"
FLAG_OUTSIDE_THM2 = "outside-thm2-range"
FLAG_ORACLE_SKIPPED = "oracle-skipped"
FLAG_OVERFLOW = "overflow-logspace"
FLAG_UNDERFLOW = "underflow-logspace"
FLAG_RHO_UNDERFLOW = "rho-underflow"


def _exp_or_inf(log_value: float) -> float:
    """exp of a log-space estimate, inf where it leaves float range (and 0
    where it underflows; compare_cell flags both)."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def log_saddle_point_estimate(x: float, y: int, *, seed: float | None = None) -> float:
    """log of the saddle-point main term 4 x^a H(a; y) / (a sqrt(2 pi phi_2(a; y))),
    which is the smooth circle sum up to a factor 1 + O(1/u).  seed starts
    the saddle solve (solve_alpha's keyword)."""
    res = solve_alpha(x, y, seed=seed)
    a = res.alpha
    d = phi_derivatives(a, y, kmax=2)
    return (
        math.log(4.0)
        + a * math.log(x)
        + d.phi
        - math.log(a)
        - 0.5 * math.log(2.0 * math.pi * d.phi2)
    )


def closed_form_estimate(x: float, y: int) -> float:
    """Closed-form estimate pi x sqrt(xi'(u)/2pi) exp(gamma - u xi(u) + I(xi(u))).

    Composition of the saddle-form Dickman approximation with the trivial
    factor pi x, assembled in log space; requires u > 1 (x > y).
    """
    u = math.log(x) / math.log(y)
    if u <= 1.0:
        raise DomainError(f"closed_form_estimate needs x > y (u > 1), got u={u}")
    return _exp_or_inf(math.log(math.pi) + math.log(x) + log_rho_saddle_form(u))


def dickman_estimate(x: float, y: int) -> float:
    """The first-order density estimate pi rho(u) x, u = log x / log y;
    0 where rho(u) is below dickman.RHO_UNDERFLOW and reads 0."""
    u = math.log(x) / math.log(y)
    if u < 1.0:
        raise DomainError(f"dickman_estimate needs x >= y, got u={u}")
    return math.pi * rho(u) * x


def log_rankin_bound(x: float, y: int, *, seed: float | None = None) -> float:
    """log of the Rankin bound 4 x^a H(a; y) at the minimizing exponent a, an
    unconditional upper bound on the exact circle sum.  seed starts the
    saddle solve (solve_alpha's keyword)."""
    res = solve_alpha(x, y, seed=seed)
    return math.log(4.0) + res.alpha * math.log(x) + h_log_real(res.alpha, y)


@dataclass(frozen=True)
class PerronResult:
    """Truncated Perron integral next to the exact circle sum."""

    x: float
    y: int
    T: float
    alpha: float
    integral: float
    exact: int
    error: float  # integral - exact


def perron_verify(
    x: float,
    y: int,
    T: float,
    *,
    node_budget: int = Config.node_budget,
) -> PerronResult:
    """Evaluate (4/2pi) int_{-T}^{T} H(a+it; y) x^(a+it) / (a+it) dt and
    compare with the exact circle sum at floor(x).

    x must not be an integer (Perron's formula has a boundary jump there;
    work at half-integers).  The integrand is even in t after taking real
    parts.  It is a product of x^(it) and the factors p^(-it), p <= y, the
    fastest of which turns once per 2 pi / max(log x, log y) in t; base
    panels are that period wide, which the 15-point Gauss rule and its
    31-point Kronrod extension resolve, and a panel on which the two differ
    is bisected.  log H on the line Re s = a comes from euler.h_log_line,
    set up once per call: a blocked product over the primes, one complex
    log per block and node, correct modulo 2 pi i, which exp removes.

    integrate_panels calls the integrand once per level of panels, one row
    of 31 nodes per panel, each exactly its midpoint, column 15, plus the
    level's one offsets array: log H takes that array, ts[0] - ts[0, 15],
    and the midpoints, and forms the offsets' phase factors once per level
    and one complex exp per prime per panel.
    """
    if float(x).is_integer():
        raise DomainError(f"perron_verify needs non-integer x; shift to {x} + 0.5")
    if not T > 0:
        raise DomainError(f"perron_verify needs T > 0, got {T}")
    res = solve_alpha(x, y)
    a = res.alpha
    logx = math.log(x)
    log_h = h_log_line(a, y)

    def f(ts: np.ndarray) -> np.ndarray:
        sv = a + 1j * ts
        return (np.exp(log_h(ts[0] - ts[0, 15], ts[:, 15]) + sv * logx) / sv).real

    period = 2.0 * math.pi / max(logx, math.log(y))
    integral = 4.0 / math.pi * integrate_panels(f, 0.0, T, period)
    exact = exact_circle_sum(int(math.floor(x)), y, node_budget=node_budget).value
    return PerronResult(
        x=x, y=y, T=T, alpha=a, integral=integral, exact=exact,
        error=integral - exact,
    )


@dataclass(frozen=True)
class DifferenceReport:
    """Scale-free diagnostic for the short-interval increment of the circle sum.

    lhs is the exact increment over (x, x + x/z]; scale is x^a H(a; y)/z, the
    leading factor of its upper bound.  ratio = lhs/scale is reported, not
    asserted (the bound's constant is not explicit).
    """

    x: int
    y: int
    z: float
    u: float
    alpha: float
    lhs: int
    scale: float
    ratio: float


def difference_check(
    x: int,
    y: int,
    z: float,
    *,
    node_budget: int = Config.node_budget,
) -> DifferenceReport:
    """Exact increment of the circle sum over (x, x + x/z] against its bound scale."""
    if y < 2:
        raise DomainError(f"difference_check needs y >= 2, got {y}")
    big_z = math.exp(math.log(y) ** (1.5 - LAMBDA))
    if not 1.0 <= z <= big_z:
        raise DomainError(f"difference_check needs 1 <= z <= {big_z:.6g}, got {z}")
    res = solve_alpha(x, y)
    hi = exact_circle_sum(int(math.floor(x + x / z)), y, node_budget=node_budget).value
    lo = exact_circle_sum(int(x), y, node_budget=node_budget).value
    lhs = hi - lo
    scale = math.exp(res.alpha * math.log(x) + h_log_real(res.alpha, y)) / z
    return DifferenceReport(
        x=x, y=y, z=z, u=res.u, alpha=res.alpha,
        lhs=lhs, scale=scale, ratio=lhs / scale,
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One (x, y) cell of the estimate comparison sweep.

    exact is None when the oracle was skipped; ratios are estimate/exact.
    An estimate assembled in log space that leaves float range reads inf
    (flagged overflow-logspace) or 0 (flagged underflow-logspace).
    """

    x: float
    y: int
    u: float | None = None
    alpha: float | None = None
    residual: float | None = None
    exact: int | None = None
    thm1: float | None = None
    thm2: float | None = None
    goswami: float | None = None
    rankin: float | None = None
    ratio_thm1: float | None = None
    ratio_thm2: float | None = None
    ratio_goswami: float | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if (
            self.exact is not None
            and self.rankin is not None
            and math.isfinite(self.rankin)
            and not self.rankin >= self.exact
        ):
            raise SmoothCircleError(
                f"Rankin bound {self.rankin} below exact value {self.exact} "
                f"at (x={self.x}, y={self.y})"
            )


def _thm1_window(u: float, y: int) -> bool:
    lly = math.log(math.log(y))
    low = max(1.0, lly * lly) if lly > 0 else 1.0
    high = y ** (1.0 / (2.0 + EPSILON0)) / math.log(y)
    return low <= u <= high


def _thm2_window(x: float, y: int) -> bool:
    return math.log(x) ** (2.0 + EPSILON0) < y < x


def compare_cell(
    x: float,
    y: int,
    with_exact: bool,
    *,
    node_budget: int = Config.node_budget,
) -> ComparisonRow:
    """Build one ComparisonRow; per-cell failures are recorded, not raised."""
    flags: list[str] = []
    try:
        res = solve_alpha(x, y)
    except SmoothCircleError:
        return ComparisonRow(x=x, y=y)
    u = res.u

    # Seeded at the cell's alpha, each solve stops on its first iteration
    # and both estimates read that alpha bit for bit.  The kernel still
    # holds phi_1 and phi_2 at alpha from the solve's last step, so of the
    # reads at alpha below only Thm 1's phi makes a kernel pass.
    thm1 = _exp_or_inf(log_saddle_point_estimate(x, y, seed=res.alpha))
    rankin = _exp_or_inf(log_rankin_bound(x, y, seed=res.alpha))
    try:
        thm2 = closed_form_estimate(x, y)
    except DomainError:
        thm2 = None
    if math.isinf(thm1) or math.isinf(rankin) or thm2 == math.inf:
        flags.append(FLAG_OVERFLOW)
    if thm1 == 0.0 or rankin == 0.0 or thm2 == 0.0:
        flags.append(FLAG_UNDERFLOW)
    if not _thm1_window(u, y):
        flags.append(FLAG_OUTSIDE_THM1)
    if not _thm2_window(x, y):
        flags.append(FLAG_OUTSIDE_THM2)
    goswami = dickman_estimate(x, y) if u >= 1.0 else None
    if goswami == 0.0:
        flags.append(FLAG_RHO_UNDERFLOW)

    exact: int | None = None
    if with_exact:
        try:
            exact = exact_circle_sum(int(math.floor(x)), y, node_budget=node_budget).value
        except ResourceBudgetError:
            flags.append(FLAG_ORACLE_SKIPPED)

    def ratio(v: float | None) -> float | None:
        if exact is None or v is None or not math.isfinite(v):
            return None
        return v / exact

    return ComparisonRow(
        x=x, y=y, u=u, alpha=res.alpha, residual=res.residual,
        exact=exact, thm1=thm1, thm2=thm2, goswami=goswami, rankin=rankin,
        ratio_thm1=ratio(thm1), ratio_thm2=ratio(thm2), ratio_goswami=ratio(goswami),
        flags=tuple(flags),
    )


def compare_grid(
    x_list,
    y_list,
    with_exact: bool = False,
    *,
    node_budget: int = Config.node_budget,
) -> list[ComparisonRow]:
    """One ComparisonRow per (x, y) in row-major input order; an x <= 1 or
    a y < 2 anywhere in the grid raises before any cell runs."""
    if not x_list or not y_list:
        raise DomainError("compare_grid needs nonempty x and y lists")
    for x in x_list:
        if not x > 1:
            raise DomainError(f"compare_grid needs x > 1, got {x}")
    for y in y_list:
        if y < 2:
            raise DomainError(f"compare_grid needs y >= 2, got {y}")
    return [
        compare_cell(x, y, with_exact, node_budget=node_budget)
        for x in x_list
        for y in y_list
    ]
