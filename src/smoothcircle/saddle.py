"""Saddle point of the weighted Rankin bound x^sigma H(sigma; y).

The saddle alpha(x, y) is the unique positive root of log x + phi_1(sigma; y),
which exists for any x > 1 because -phi_1 decreases continuously from infinity
to zero (phi_2 >= 0).  The solver is a bracketed Newton iteration with
bisection fallback on the rational closed forms of phi_1 and phi_2: phi_1
alone at the two bracket ends, and phi_1 with phi_2 from one kernel pass
(euler.phi1_phi2) at every Newton step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dickman import xi
from .errors import DomainError
from .euler import phi1_closed, phi1_phi2
from .euler import phi2_closed  # noqa: F401  (bench/spans.py wraps it by this name)
from .numutil import bracketed_newton

RESIDUAL_TOL = 1e-12  # relative to log x
DEFAULT_BOUNDS_FLOOR_Y = 1000  # inequality checks are asymptotic; skip tiny y


@dataclass(frozen=True)
class SaddleResult:
    """Solved saddle point with its residual and final enclosing bracket."""

    x: float
    y: int
    u: float
    alpha: float
    residual: float
    iters: int
    bracket: tuple[float, float]


def solve_alpha(
    x: float,
    y: int,
    *,
    max_iters: int = 200,
) -> SaddleResult:
    """Solve log x + phi_1(alpha; y) = 0 for the unique alpha > 0.

    The usual smooth-counting regime has x >= y, but any x > 1 is accepted.
    The residual satisfies |log x + phi_1(alpha)| <= RESIDUAL_TOL log x; the
    returned bracket strictly encloses alpha with a sign change across it.
    """
    if y < 2:
        raise DomainError(f"solve_alpha needs y >= 2, got {y}")
    if not x > 1:
        raise DomainError(f"solve_alpha needs x > 1, got {x}")
    logx = math.log(x)
    logy = math.log(y)

    def f(sigma: float) -> float:
        return logx + phi1_closed(sigma, y)

    def fdf(sigma: float) -> tuple[float, float]:
        phi1, phi2 = phi1_phi2(sigma, y)
        return logx + phi1, phi2

    seed = math.log1p(y / logx) / logy  # closed-form approximant, good everywhere
    alpha, residual, iters, bracket = bracketed_newton(
        f, fdf, 1.0 / logy, 1.0 + 3.0 / logy, seed,
        ftol=0.25 * RESIDUAL_TOL * logx, max_iters=max_iters,
    )
    return SaddleResult(
        x=x, y=y, u=logx / logy, alpha=alpha, residual=residual,
        iters=iters, bracket=bracket,
    )


@dataclass(frozen=True)
class AlphaBoundsReport:
    """Outcome of the explicit saddle-point inequalities.

    Inapplicable checks (outside their u-window or below the y floor) carry
    holds=None rather than a verdict.
    """

    x: float
    y: int
    u: float
    alpha: float
    lower_bound: float
    lower_holds: bool | None
    upper_bound: float
    upper_holds: bool | None


def alpha_bounds_check(
    x: float,
    y: int,
    *,
    y_floor: int = DEFAULT_BOUNDS_FLOOR_Y,
) -> AlphaBoundsReport:
    """Check alpha >= 2/log y (for 1 <= u <= y/(8 log y)) and
    alpha <= 1 - 4/log y (for u >= 14) on the solved saddle point."""
    res = solve_alpha(x, y)
    logy = math.log(y)
    lower = 2.0 / logy
    upper = 1.0 - 4.0 / logy
    lower_ok: bool | None = None
    upper_ok: bool | None = None
    if y >= y_floor and 1.0 <= res.u <= y / (8.0 * logy):
        lower_ok = res.alpha >= lower
    if y >= y_floor and res.u >= 14.0:
        upper_ok = res.alpha <= upper
    return AlphaBoundsReport(
        x=x, y=y, u=res.u, alpha=res.alpha,
        lower_bound=lower, lower_holds=lower_ok,
        upper_bound=upper, upper_holds=upper_ok,
    )


@dataclass(frozen=True)
class XiApproxReport:
    """The solved saddle point next to its closed-form approximants.

    approx is 1 - xi(u)/log y and gap = alpha - approx.  log_form
    (1 - log(u log u)/log y) is only meaningful for u >= 3; closed_form is
    log(1 + y/log x)/log y.
    """

    x: float
    y: int
    u: float
    alpha: float
    approx: float
    gap: float
    log_form: float | None
    closed_form: float


def alpha_xi_approx(x: float, y: int) -> XiApproxReport:
    """Compare alpha(x, y) with its xi-based and logarithmic approximants."""
    res = solve_alpha(x, y)
    if res.u < 1.0:
        raise DomainError(f"alpha_xi_approx needs u >= 1, got u={res.u}")
    logy = math.log(y)
    approx = 1.0 - xi(res.u) / logy
    log_form = 1.0 - math.log(res.u * math.log(res.u)) / logy if res.u >= 3.0 else None
    closed = math.log1p(y / math.log(x)) / logy
    return XiApproxReport(
        x=x, y=y, u=res.u, alpha=res.alpha,
        approx=approx, gap=res.alpha - approx,
        log_form=log_form, closed_form=closed,
    )
