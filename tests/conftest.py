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
