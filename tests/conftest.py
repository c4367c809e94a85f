import math
import os

import numpy as np
import pytest

from smoothcircle import euler
from smoothcircle.counting import lattice_r_table
from smoothcircle.primes import prime_table


def example_count(tier1: int, deep: int) -> int:
    """A property test's example count: deep where SMOOTHCIRCLE_TEST_DEEP=1
    is set, for a deep run of every property test at once, else tier1."""
    return deep if os.environ.get("SMOOTHCIRCLE_TEST_DEEP") == "1" else tier1


@pytest.fixture(autouse=True)
def empty_kernel_memo(monkeypatch):
    """Each test starts with no real-axis kernel sums remembered, so that a
    count of kernel passes does not depend on which tests ran before."""
    monkeypatch.setattr(euler, "_memo", (math.nan, 0, {}))


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
