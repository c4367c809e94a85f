import dataclasses
import math
import os
import sys
import threading
import tracemalloc
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES_BELOW_100
from oracles import factorize, sieve_primes_plain
from smoothcircle.errors import DomainError
from smoothcircle import primes
from smoothcircle.primes import prime_table, sieve_primes

# Examples of the segment-boundary property test; a deeper run sets this
# variable.
SIEVE_EXAMPLES = int(os.environ.get("SMOOTHCIRCLE_TEST_SIEVE_EXAMPLES", "60"))


def test_sieve_small():
    assert sieve_primes(100).tolist() == PRIMES_BELOW_100
    assert sieve_primes(1).tolist() == []
    assert sieve_primes(2).tolist() == [2]


def test_sieve_past_the_index_range_is_a_memory_error():
    # (limit + 1) // 2 entries past np.intp's range: refused before numpy,
    # which would raise ValueError, is asked
    with pytest.raises(MemoryError, match="Unable to allocate"):
        sieve_primes(2 * int(np.iinfo(np.intp).max) + 1)


def test_sieve_refuses_an_unallocatable_limit_before_the_base_primes(monkeypatch):
    # the result array, 215 PiB at 1e18, is allocated first, so numpy's
    # refusal comes before the primes to 1e9 are sieved
    limits = []
    sieve = primes._sieve

    def counted(limit):
        limits.append(limit)
        return sieve(limit)

    monkeypatch.setattr(primes, "_sieve", counted)
    with pytest.raises(MemoryError, match="Unable to allocate"):
        sieve_primes(10**18)
    assert limits == [10**18]


@st.composite
def _segment_and_limit(draw):
    """A segment length and a limit within 2 of a multiple of 2 segment
    (a segment's odd slots cover 2 segment integers) or within 1 of the
    square of a base prime, where that prime first strikes."""
    segment = draw(st.sampled_from([1, 2, 7, 64]))
    if draw(st.booleans()):
        limit = 2 * segment * draw(st.integers(0, 300)) + draw(st.integers(-2, 2))
    else:
        limit = draw(st.sampled_from(PRIMES_BELOW_100[1:])) ** 2 + draw(st.integers(-1, 1))
    return segment, max(limit, 0)


@settings(max_examples=SIEVE_EXAMPLES, deadline=None)
@given(_segment_and_limit())
def test_segmented_sieve_matches_a_plain_sieve_at_segment_edges(case):
    segment, limit = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_SIEVE_SEGMENT", segment)
        got = sieve_primes(limit)
    assert got.dtype == np.int64
    assert got.tolist() == sieve_primes_plain(limit)


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


def _fresh_table(monkeypatch, y):
    """prime_table(y) sieved anew: no earlier table to cut, no cache."""
    monkeypatch.setattr(primes, "_largest", None)
    return prime_table.__wrapped__(y)


def test_prime_table_prefixes_equal_fresh_tables_bitwise(monkeypatch):
    big = _fresh_table(monkeypatch, 10**7 - 1)
    for y in (2, 3, 10, 97, 10**3, 10**5, 10**6, 1_007_652, 10**7 - 1):
        fresh = _fresh_table(monkeypatch, y)
        monkeypatch.setattr(primes, "_largest", big)
        cut = prime_table.__wrapped__(y)
        assert cut.y_limit == fresh.y_limit == y
        for name in ("p", "chi", "logp"):
            got, want = getattr(cut, name), getattr(fresh, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (y, name)
            assert not got.flags.writeable
            assert np.shares_memory(got, getattr(big, name))


def test_prime_table_build_peaks_near_its_own_arrays(monkeypatch):
    # the sieve strikes one cache-sized segment at a time and writes the
    # primes into one array; chi and log p are formed in their own arrays
    monkeypatch.setattr(primes, "_largest", None)
    tracemalloc.start()
    try:
        table = prime_table.__wrapped__(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = table.p.nbytes + table.chi.nbytes + table.logp.nbytes
    assert peak <= 1.25 * own, peak / own


def test_smaller_prime_table_after_a_larger_one_sieves_nothing(monkeypatch):
    limits = []

    def counted(limit):
        limits.append(limit)
        return sieve_primes(limit)

    monkeypatch.setattr(primes, "sieve_primes", counted)
    _fresh_table(monkeypatch, 20_011)
    for y in (20_011, 20_000, 1_000, 2):
        prime_table.__wrapped__(y)
    assert limits == [20_011]
    prime_table.__wrapped__(20_012)  # past the largest: sieved, and kept as the largest
    assert limits == [20_011, 20_012]
    assert primes._largest.y_limit == 20_012


def test_concurrent_tables_keep_the_largest(monkeypatch):
    # 8 threads build tables of mixed bounds at once: each is its bound's
    # primes, and the stored table ends as the largest bound's
    ys = [20_000 + 997 * i for i in range(8)]
    want = {y: sieve_primes(y).tolist() for y in ys}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(primes, "_largest", None)
            barrier = threading.Barrier(len(ys))

            def build(y):
                barrier.wait(timeout=30)
                return prime_table.__wrapped__(y)

            with ThreadPoolExecutor(len(ys)) as pool:
                tables = list(pool.map(build, ys[::2] + ys[1::2]))
            assert all(t.p.tolist() == want[t.y_limit] for t in tables)
            assert primes._largest.y_limit == max(ys)
    finally:
        sys.setswitchinterval(switch)


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


def test_prime_table_holds_three_arrays():
    # p, chi4 and log p only: a float64 copy of chi, or of 1 - chi, would
    # add 5.3 MB per column at y = 1e7.
    table = prime_table(1000)
    assert [f.name for f in dataclasses.fields(primes.PrimeTable)] == ["y_limit", "p", "chi", "logp"]
    assert (table.p.dtype, table.chi.dtype, table.logp.dtype) == (np.int64, np.int8, np.float64)
