import math
from bisect import bisect_right

import numpy as np
import pytest

from conftest import PRIMES_BELOW_100
from oracles import factorize
from smoothcircle.errors import DomainError
from smoothcircle.primes import prime_table, sieve_primes


def test_sieve_small():
    assert sieve_primes(100).tolist() == PRIMES_BELOW_100
    assert sieve_primes(1).tolist() == []
    assert sieve_primes(2).tolist() == [2]


def test_sieve_past_the_index_range_is_a_memory_error():
    # (limit + 1) // 2 entries past np.intp's range: refused before numpy,
    # which would raise ValueError, is asked
    with pytest.raises(MemoryError, match="Unable to allocate"):
        sieve_primes(2 * int(np.iinfo(np.intp).max) + 1)


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


def test_sieve_every_limit():
    # odd-only layout: every limit to 1000, and around each odd p^2 < 100^2,
    # where p first strikes
    want = [n for n in range(2, 97**2 + 2) if factorize(n) == [(n, 1)]]
    limits = set(range(1001))
    limits.update(p * p + d for p in PRIMES_BELOW_100[1:] for d in (-1, 0, 1))
    for n in sorted(limits):
        got = sieve_primes(n)
        assert got.dtype == np.int64
        assert got.tolist() == want[: bisect_right(want, n)], n


def test_prime_count_1e6(table_1e6):
    assert len(table_1e6) == 78498


def test_prime_table_chi_and_log(table_1e6):
    assert np.all(np.diff(table_1e6.p) > 0)
    expect = np.where(table_1e6.p % 4 == 1, 1, -1)
    expect[table_1e6.p == 2] = 0
    assert table_1e6.chi.dtype == np.int8
    assert np.array_equal(table_1e6.chi, expect)
    tab = prime_table(50)
    for p, chi, logp in zip(tab.p.tolist(), tab.chi.tolist(), tab.logp.tolist()):
        if p == 2:
            assert chi == 0
        elif p % 4 == 1:
            assert chi == 1
        else:
            assert chi == -1
        assert logp == pytest.approx(np.log(p), rel=1e-15)


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
