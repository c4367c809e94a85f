"""The weighted prime sum over primes up to a threshold, with the mod-4 twist.

The sum is math.fsum's correctly rounded one, accumulated block by block
(numutil.CertifiedAccumulator), so no pi(x)-sized array is formed.  Its
main-term column follows the classical first-order approximation so that
deviations can be monitored empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numutil import CertifiedAccumulator, csum
from .primes import prime_table

# Primes per block of the sum: a terms row, which the accumulator overwrites,
# and its scratch row, 64 KB each, which the heap reuses from call to call.
_SUM_BLOCK = 1 << 13
SIGMA_SLACK = 2.0  # admissible sigma range is [0, 1 + slack/log x]


@dataclass(frozen=True)
class PrimeSumReport:
    """A prime sum next to its first-order main term."""

    x: float
    value: float
    main_term: float
    deviation: float


def weighted_prime_sum(x: float, sigma: float, twist: bool = False) -> PrimeSumReport:
    """sum over p <= x of log p / p^sigma, optionally twisted by chi4(p).

    The untwisted main term is the integral of u^(-sigma) over [1, x]
    (log x when sigma = 1); the twisted sum has cancellation, main term 0.
    """
    if x < 2:
        raise DomainError(f"weighted_prime_sum needs x >= 2, got {x}")
    if not 0.0 <= sigma <= 1.0 + SIGMA_SLACK / math.log(x):
        raise DomainError(
            f"sigma={sigma} outside [0, 1 + {SIGMA_SLACK}/log x] for x={x}"
        )
    table = prime_table(int(x))
    n = len(table)
    # For sigma >= 0, |chi log p exp(-sigma log p)| <= log p <= log p_max.
    acc = CertifiedAccumulator(n, float(table.logp[-1]))
    row = np.empty(min(n, _SUM_BLOCK))
    for lo in range(0, n, _SUM_BLOCK):
        hi = lo + _SUM_BLOCK
        acc.add(_terms(table.logp[lo:hi], table.chi[lo:hi], sigma, twist, row))
    value = acc.result()
    if value is None:  # not certified: math.fsum's value, from the whole array
        value = csum(_terms(table.logp, table.chi, sigma, twist, np.empty(n)))
    if twist:
        main = 0.0
    elif sigma == 1.0:
        main = math.log(x)
    else:
        main = (x ** (1.0 - sigma) - 1.0) / (1.0 - sigma)
    return PrimeSumReport(x=x, value=value, main_term=main, deviation=value - main)


def _terms(logp, chi, sigma, twist, out):
    """log p exp(-sigma log p), times chi4(p) if twist, in out[:logp.size].
    chi is 0 or +-1, so multiplying it in last is exact: the same floats
    as (chi log p) exp(...)."""
    terms = np.multiply(logp, -sigma, out=out[: logp.size])
    np.exp(terms, out=terms)
    terms *= logp
    if twist:
        terms *= chi
    return terms
