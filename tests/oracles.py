"""Slow, obviously correct reference functions that the tests check the
package against: trial-division factorization, r(n)/4 from a
factorization, r(n) by a lattice scan, chi4, the Dickman rho interval
series and xi(u) in decimal arithmetic, the text of the shipped rho table
rendered from that series, the Euler kernel's per-prime terms
evaluated over the whole prime array at once and in decimal arithmetic,
and plain bracketed Newton with separate callbacks for f and f'."""

from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext
from math import isqrt

import numpy as np

from smoothcircle.counting import _local_r4
from smoothcircle.dickman import RHO_UNDERFLOW, DickmanTable
from smoothcircle.errors import ConvergenceError, DomainError
from smoothcircle.primes import prime_table


def chi4(n: int) -> int:
    """The nontrivial character mod 4: 0 on evens, else (-1)^((n-1)/2)."""
    if n < 1:
        raise DomainError(f"chi4 needs n >= 1, got {n}")
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as an ascending list of (p, exponent)."""
    if n < 1:
        raise DomainError(f"factorize needs n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 5
    while d * d <= n:
        for step in (d, d + 2):
            if n % step == 0:
                e = 0
                while n % step == 0:
                    n //= step
                    e += 1
                out.append((step, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    out.sort()
    return out


def r_over_4(n: int, factorization: list[tuple[int, int]]) -> int:
    """r(n)/4 evaluated multiplicatively from the prime factorization of n.

    Local values: 1 at powers of 2, e+1 at p^e for p = 1 (mod 4), and 1 or 0
    at p^e for p = 3 (mod 4) according as e is even or odd.  Equivalent to
    counting divisors d of n weighted by chi4(d).
    """
    if n < 1:
        raise DomainError(f"r_over_4 needs n >= 1, got {n}")
    prod = 1
    val = 1
    seen: set[int] = set()
    for p, e in factorization:
        if p < 2 or e < 1 or p in seen:
            raise DomainError(f"invalid factorization entry ({p}, {e})")
        seen.add(p)
        prod *= p**e
        val *= _local_r4(p, e)
    if prod != n:
        raise DomainError(f"factorization product {prod} != n = {n}")
    return val


def lattice_r(n: int) -> int:
    """r(n) by brute-force lattice scan: pairs (a, b) with a^2 + b^2 = n.

    Independent oracle for the multiplicative route; O(sqrt n) work.
    """
    if n < 1:
        raise DomainError(f"lattice_r needs n >= 1, got {n}")
    count = 0
    a = 0
    while a * a <= n:
        b2 = n - a * a
        b = isqrt(b2)
        if b * b == b2:
            count += (2 if a else 1) * (2 if b else 1)
        a += 1
    return count


def rho_interval_series_decimal(u_max: int, prec: int) -> list[list[Decimal]]:
    """Taylor coefficients of rho about k + 1/2 for each interval [k, k+1],
    in prec-digit decimal arithmetic.

    Writing f_k(tau) = rho(k + 1/2 + tau), the delay equation gives
    (c + tau) f_k'(tau) = -f_{k-1}(tau) with c = k + 1/2, i.e. the exact
    recurrence a[m+1] = -(b[m] + m a[m]) / (c (m+1)) where b are the previous
    interval's coefficients; a[0] is anchored by continuity at tau = -1/2.
    Every coefficient carries prec significant digits, and a series runs
    until its term at |tau| = 1/2 is below 10^-(prec - 8) of rho at the
    interval's left end.  The source of dickman's shipped float table.
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


@functools.cache
def converted_oracle_series() -> list[tuple[float, ...]]:
    """The float series of dickman's table: every decimal coefficient of
    intervals 1 .. 127 at 341 digits (an estimate of -log10 rho(128), 301,
    plus 40 of headroom) rounded to its float, highest power first.  A
    series ends at its last term that reaches 2^-70 max(rho(k + 1/2),
    RHO_UNDERFLOW) at |tau| = 1/2: later terms shrink like 3^-m (rho's
    continuation is analytic within 3/2 of the midpoint) and rho falls by
    less than 2^10 within the interval, so the cut stays far below an ulp
    of every unclamped value and keeps at most ~40 terms."""
    want = []
    for a in rho_interval_series_decimal(DickmanTable.u_max, 341):
        cf = [float(am) for am in a]
        floor = 2.0**-70 * max(abs(cf[0]), RHO_UNDERFLOW)
        n = 1 + max((m for m, c in enumerate(cf) if abs(c) * 0.5**m >= floor), default=0)
        want.append(tuple(reversed(cf[:n])))
    return want


def rho_table_text() -> str:
    """src/smoothcircle/rho_table.txt as converted_oracle_series renders it:
    one line per interval, its coefficients in float.hex form, one space
    apart.  A tier-1 test holds the file to this string byte for byte; to
    regenerate the file (say at more digits, for a longer table), write
    the string to it, from the repository root:

        PYTHONPATH=src:tests python -c "from oracles import rho_table_text; \\
            open('src/smoothcircle/rho_table.txt', 'w').write(rho_table_text())"
    """
    return "".join(" ".join(c.hex() for c in cf) + "\n" for cf in converted_oracle_series())


def xi_decimal(u: float, digits: int = 40) -> Decimal:
    """The root z > 0 of (e^z - 1 - z)/z = u - 1, i.e. of e^z = 1 + u z, at
    the float u, for 1 < u <= 2 (so z < 1.3), by Newton in digits-digit
    decimal arithmetic.

    The left side and its derivative are the positive series
    sum_{k>=2} z^(k-1)/k! and sum_{k>=2} (k-1) z^(k-2)/k!, so nothing
    cancels however close u is to 1.  Newton starts at 2(u - 1), right of
    the root of this convex increasing function, and stops once a step
    moves z by less than 10^-(digits-4) of it.
    """
    if not 1.0 < u <= 2.0:
        raise DomainError(f"xi_decimal needs 1 < u <= 2, got {u}")
    with localcontext() as ctx:
        ctx.prec = digits
        target = Decimal(u) - 1
        tiny = Decimal(10) ** (4 - digits)
        z = 2 * target
        while True:
            f, d = -target, Decimal(0)
            p, k = Decimal(1) / 2, 2
            while p > tiny * tiny:
                f += p * z
                d += (k - 1) * p
                k += 1
                p = p * z / k
            step = f / d
            z -= step
            if abs(step) < tiny * z:
                return z


def prime_terms_decimal(sigma: float, y: int, k: int, digits: int = 40) -> list[Decimal]:
    """The per-prime terms of euler.prime_terms for k = 0, 1 or 2 in
    digits-digit decimal arithmetic at the float sigma and the exact log p,
    a sum of one half for each w = c/P, c in {1, chi4(p)}, P = p^sigma:
    -ln(1 - w) for k = 0, and for k = 1, 2 the half of
    (log p)^k [Li_{1-k}(1/P) + Li_{1-k}(chi4(p)/P)]: with Li_0(w) = w/(1 - w)
    and Li_-1(w) = w/(1 - w)^2, it is w/(1 - w)^k.  An accuracy reference,
    not a bitwise one.
    """
    if k not in (0, 1, 2):
        raise DomainError(f"prime_terms_decimal needs k in (0, 1, 2), got {k}")
    with localcontext() as ctx:
        ctx.prec = digits
        s = Decimal(sigma)
        out = []
        for p in prime_table(y).p:
            lp = Decimal(int(p)).ln()
            big_p = (s * lp).exp()
            halves = [c / big_p for c in (1, chi4(int(p))) if c]
            if k == 0:
                out.append(sum(-(1 - w).ln() for w in halves))
            else:
                out.append(lp**k * sum(w / (1 - w) ** k for w in halves))
        return out


def prime_terms_whole_array(s, y: int, k: int) -> np.ndarray:
    """euler.prime_terms as one numpy expression over all pi(y) primes.

    The same per-element formulas as the blocked kernel, with every
    temporary as long as the prime table: the reference it must equal bit
    for bit, not an accuracy oracle.  Every order is in the reciprocals
    r = 1/(P - c) = 1/(expm1(s log p) + (1 - c)), P = p^s, c in {1, chi4(p)}:
    k = 0: log1p(r1) + log1p(chi4(p) r2) = -log(1 - 1/P) - log(1 - chi4(p)/P);
    k = 1..4: (log p)^k [Li_{1-k}(1/P) + Li_{1-k}(chi4(p)/P)].
    For complex s, k = 0 instead gives the per-prime logs
    -log(1 - w) - log(1 - chi4(p) w), w = p^-s, principal branch, which the
    tests of the line product euler.h_log_line compare against.
    """
    table = prime_table(y)
    lp = table.logp
    chi = table.chi.astype(np.float64)
    if np.iscomplexobj(s):  # order 0 only
        w = np.exp(-s * lp)
        return -np.log(1.0 - w) - np.where(chi == 0.0, 0.0, np.log(1.0 - chi * w))
    with np.errstate(over="ignore"):
        em1 = np.expm1(s * lp)
    r1, r2 = 1.0 / em1, 1.0 / (em1 + (1.0 - chi))
    if k == 0:
        return np.log1p(r1) + np.log1p(chi * r2)
    if k == 1:
        return lp * (r1 + chi * r2)

    def li(c, r):
        if k == 2:
            tail = 1.0
        elif k == 3:
            tail = 1.0 + 2.0 * c * r
        else:
            tail = 1.0 + 6.0 * c * r + 6.0 * r * r
        return c * r * (1.0 + c * r) * tail

    return lp**k * (li(1.0, r1) + li(chi, r2))


def bracketed_newton_two_callbacks(f, fprime, lo, hi, x0=None, *, ftol, max_iters=100):
    """Plain Newton on a nondecreasing f with f and f' as separate
    callbacks, from a starting bracket widened until f changes sign: f at
    every end tried and at every Newton point, then f' at the same point.

    Stops on |f| <= ftol, so its root and the solver's lie within the same
    residual tolerance whatever steps either takes.
    """
    flo = f(lo)
    for _ in range(200):
        if flo <= 0:
            break
        lo *= 0.5
        flo = f(lo)
    fhi = f(hi)
    for _ in range(200):
        if fhi >= 0:
            break
        hi *= 2.0
        fhi = f(hi)
    if not (lo < hi) or flo > 0 or fhi < 0:
        raise ConvergenceError(f"no bracket [{lo}, {hi}]")
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
        if step == x:
            return x, fx, it, (lo, hi)
        x = step
    raise ConvergenceError(f"no convergence after {max_iters} iterations")
