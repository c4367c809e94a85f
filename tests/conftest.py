import numpy as np
import pytest

from smoothcircle.counting import lattice_r_table
from smoothcircle.primes import prime_table


@pytest.fixture(scope="session")
def lattice_1e6():
    """r(n) for n <= 10^6 by direct lattice enumeration (the exact oracle)."""
    return lattice_r_table(10**6)


@pytest.fixture(scope="session")
def table_1e6():
    return prime_table(10**6)


# Primes below 100, used as an independent cross-check list.
PRIMES_BELOW_100 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
]


# The cells of bench/workloads.py's compare workloads at seeds 0 and 1:
# estimates (3 x by 3 y, no oracle) and exact-oracle (2 x by 3 y).
WORKLOAD_CELLS = [
    (x, y)
    for xs, ys in (
        ((1e12, 1e30, 1e300), (100, 10**4, 10**6)),
        ((1.004031e12, 1.025423e30, 1.022913e300), (100, 10**4, 10**6)),
        ((1e6, 1e7), (100, 1000, 10**4)),
        ((1004031.0, 10254230.0), (100, 1000, 10**4)),
    )
    for x in xs
    for y in ys
]
