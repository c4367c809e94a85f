import math

import numpy as np
import pytest

from conftest import PRIMES_BELOW_100
from smoothcircle.errors import DomainError
from smoothcircle.primes import factorize, prime_table, sieve_primes


def test_sieve_small():
    assert sieve_primes(100).tolist() == PRIMES_BELOW_100
    assert sieve_primes(1).tolist() == []
    assert sieve_primes(2).tolist() == [2]


def test_sieve_against_trial_division():
    def is_prime(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    want = [n for n in range(2, 2000) if is_prime(n)]
    assert sieve_primes(1999).tolist() == want


def test_prime_count_1e6(table_1e6):
    assert len(table_1e6) == 78498


def test_prime_table_chi_and_log(table_1e6):
    table_1e6.validate()
    tab = prime_table(50)
    for p, chi, logp in zip(tab.p.tolist(), tab.chi.tolist(), tab.logp.tolist()):
        if p == 2:
            assert chi == 0
        elif p % 4 == 1:
            assert chi == 1
        else:
            assert chi == -1
        assert logp == pytest.approx(np.log(p), rel=1e-15)


def test_prime_table_restrict(table_1e6):
    sub = table_1e6.restrict(100)
    assert sub.p.tolist() == PRIMES_BELOW_100


def test_prime_table_rejects_y1():
    with pytest.raises(DomainError):
        prime_table(1)


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(75) == [(3, 1), (5, 2)]
    primes = set(sieve_primes(1000).tolist())
    for n in range(1, 1000):
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(p in primes for p, _ in fac)
    with pytest.raises(DomainError):
        factorize(0)
