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

from .errors import DomainError
from .euler import phi1_closed, phi1_phi2
from .euler import phi2_closed  # noqa: F401  (bench/spans.py wraps it by this name)
from .numutil import bracketed_newton

RESIDUAL_TOL = 1e-12  # relative to log x


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
