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

The seed: a given one, or else, at y <= _MODEL_A, the closed form
log1p(y/log x)/log y, which lies 11-37 % below alpha on the benchmark's
cells.  At y > _MODEL_A a cold solve starts from the root of a small-prime
model of f, log x + phi_1(sigma; A) - T(sigma), A = _MODEL_A: phi_1 summed
exactly over the p <= A by the kernel (euler.phi1_phi2 at y = A), and the
primes in (A, y] replaced by the prime number theorem's integral
T = int_A^y t^-sigma dt, since sum_{p <= t} (1 + chi4(p)) log p ~ t.  The
model's -phi_1 is again a positive sum of exponentials, so it is solved
the same way, from the closed form, to the loose tolerance
_MODEL_FTOL log x, in a few passes over its 168 primes.  On the
benchmark's cells at y in {1e4, 1e6} its root lies within 1e-3 of alpha
(2.6e-2 at (1e300, 1e4), where alpha = 0.35), closer than Hildebrand and
Tenenbaum's 1 - xi(u)/log y (Trans. AMS 296, 1986), and a cold solve at
y = 1e6 takes 3 kernel passes instead of 4-5.  At y <= _MODEL_A the model
would be the kernel itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .euler import phi1_closed, phi1_phi2, phi2_closed  # noqa: F401  (bench/spans.py wraps phi*_closed)
from .numutil import bracketed_newton

RESIDUAL_TOL = 1e-12  # relative to log x

# The model seed's exact primes, p <= _MODEL_A (168 of them), and the
# tolerance, relative to log x, its root is solved to: the root lies 1e-4
# to 3e-2 from alpha, so closer solves of the model buy nothing.
_MODEL_A = 1000
_MODEL_FTOL = 1e-6


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

    Newton starts from seed, a finite number > 0, or when seed is None
    from the closed form log1p(y/log x)/log y at y <= _MODEL_A and from the
    small-prime model's root above (see the module docstring).  iters
    counts the Newton iterations on the kernel, each at most one pass over
    the primes <= y, not the model's.  A seed that already meets the
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
    if seed is None:
        seed = math.log1p(y / logx) / logy  # closed-form approximant, good everywhere
        if y > _MODEL_A:
            seed = _model_root(logx, y, seed)
    alpha, residual, iters, bracket = bracketed_newton(
        lambda sigma: _log_step(logx, *phi1_phi2(sigma, y)), seed, ftol=0.25 * RESIDUAL_TOL * logx
    )
    return SaddleResult(
        x=x, y=y, u=logx / logy, alpha=alpha, residual=residual,
        iters=iters, bracket=bracket,
    )


def _log_step(logx: float, phi1: float, phi2: float) -> tuple[float, float]:
    """(f, slope) of a Newton step on log log x - log(-phi1) for f = log x + phi1,
    phi2 = d phi1 / d sigma."""
    f = logx + phi1
    q = f / -phi1
    return f, phi2 * (q / math.log1p(q) if q else 1.0)  # the ratio tends to 1 as q -> 0


def _model_tail(sigma: float, y: int) -> tuple[float, float]:
    """(T, -dT/dsigma) for T = int_A^y t^-sigma dt, A = _MODEL_A < y: the
    model's stand-in for the order-1 terms of the primes in (A, y].

    With t = A e^s, D = log(y/A) and z = (1 - sigma) D,
    T = A^(1 - sigma) D expm1(z)/z and
    -dT/dsigma = int_A^y log t t^-sigma dt = A^(1 - sigma) D (log A expm1(z)/z + D g(z)),
    g(z) = int_0^1 w e^(zw) dw = (z e^z - expm1(z))/z^2.  At sigma = 1 these
    are log(y/A) and (log^2 y - log^2 A)/2.  Below |z| = 1e-4, where the
    closed form of g cancels to about 4e-12 relative, g is its series to
    z^2, within 7e-14.
    """
    loga = math.log(_MODEL_A)
    d = math.log1p((y - _MODEL_A) / _MODEL_A)
    z = (1.0 - sigma) * d
    scale = math.exp((1.0 - sigma) * loga) * d
    e1 = math.expm1(z) / z if z else 1.0
    g = 0.5 + z * (1.0 / 3.0 + z / 8.0) if abs(z) < 1e-4 else (z * math.exp(z) - math.expm1(z)) / (z * z)
    return scale * e1, scale * (loga * e1 + d * g)


def _model_root(logx: float, y: int, seed: float) -> float:
    """The root of the model log x + phi_1(sigma; _MODEL_A) - T(sigma) of
    f = log x + phi_1(sigma; y), for y > _MODEL_A, from seed, to
    _MODEL_FTOL log x.

    The model's -phi_1, sum_{p <= A} + T, is a positive sum of exponentials,
    so its Newton steps are taken on log log x - log(-phi_1), as the
    kernel's are, and its p <= A sums come from the kernel, phi1_phi2 at y = A.
    """

    def fdf(sigma: float) -> tuple[float, float]:
        phi1, phi2 = phi1_phi2(sigma, _MODEL_A)
        tail, slope = _model_tail(sigma, y)
        return _log_step(logx, phi1 - tail, phi2 + slope)

    return bracketed_newton(fdf, seed, ftol=_MODEL_FTOL * logx)[0]
