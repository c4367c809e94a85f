"""Saddle point of the weighted Rankin bound x^sigma H(sigma; y).

The saddle alpha(x, y) is the unique positive root of f = log x + phi_1(sigma; y).
-phi_1 is a positive sum of exponentials in sigma: 1/(P - 1) = sum_k P^-k
for P = p^sigma, and the chi4(p) = -1 pair sums to 2/(P^2 - 1).  So
log(-phi_1) is convex and decreasing, from infinity at 0+ to -infinity, and
the root is known to lie in (0, inf) before f is evaluated.  The solver
takes Newton steps on h = log log x - log(-phi_1), which has the root of f
and is increasing and concave: from below the root Newton climbs without
overshoot, from above it lands below.  A step costs one kernel pass
(euler.phi1_phi2), and its slope for f is phi_2 q / log1p(q), q = f / -phi_1,
since h = log1p(q) and h' = phi_2 / -phi_1.  The kernel remembers the sums
of the last point it evaluated, so the step at a point it has just seen,
such as the alpha of the solve before, costs no pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .euler import phi1_closed, phi2_closed  # noqa: F401  (bench/spans.py wraps both by name)
from .euler import phi1_phi2
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


def solve_alpha(x: float, y: int, *, seed: float | None = None) -> SaddleResult:
    """Solve log x + phi_1(alpha; y) = 0 for the unique alpha > 0, any finite x > 1.

    |log x + phi_1(alpha)| <= RESIDUAL_TOL log x.  The returned bracket
    strictly encloses alpha, f < 0 at its lower end and f > 0 at its upper
    end, which is inf while no iterate has landed above alpha.

    Newton starts from seed, a finite number > 0, or from a closed-form
    approximant when seed is None.  A seed that already meets the
    tolerance, such as the alpha of an earlier solve of the same (x, y),
    stops on the first iteration and is returned unchanged, with iters == 1
    and the bracket (0, inf).  That iteration costs no kernel pass when the
    kernel's last real-axis point was (seed, y), as it is straight after
    the solve that found the seed.
    """
    if y < 2:
        raise DomainError(f"solve_alpha needs y >= 2, got {y}")
    if not 1 < x < math.inf:
        raise DomainError(f"solve_alpha needs finite x > 1, got {x}")
    if seed is not None and not 0 < seed < math.inf:
        raise DomainError(f"solve_alpha needs a finite seed > 0, got {seed}")
    logx = math.log(x)
    logy = math.log(y)

    def fdf(sigma: float) -> tuple[float, float]:
        phi1, phi2 = phi1_phi2(sigma, y)
        f = logx + phi1
        q = f / -phi1
        return f, phi2 * (q / math.log1p(q) if q else 1.0)  # the ratio tends to 1 as q -> 0

    if seed is None:
        seed = math.log1p(y / logx) / logy  # closed-form approximant, good everywhere
    alpha, residual, iters, bracket = bracketed_newton(fdf, seed, ftol=0.25 * RESIDUAL_TOL * logx)
    return SaddleResult(
        x=x, y=y, u=logx / logy, alpha=alpha, residual=residual,
        iters=iters, bracket=bracket,
    )
