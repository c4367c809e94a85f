import math
import os
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothcircle import counting
from oracles import chi4, factorize, lattice_r, r_over_4
from smoothcircle.counting import (
    ExactCount,
    _isqrt_array,
    _local_r4,
    _QuotientPrimes,
    exact_circle_sum,
    lattice_r_table,
)
from smoothcircle.errors import DomainError, ResourceBudgetError
from smoothcircle.primes import prime_table, sieve_primes

# Examples of the route-agreement property test; a deeper run sets this variable.
ROUTES_EXAMPLES = int(os.environ.get("SMOOTHCIRCLE_TEST_ROUTES_EXAMPLES", "60"))


def _plain_dfs(x, y):
    """(value, terms) by visiting every y-smooth n <= x once, over descending
    primes with its full exponent pattern: the walk without leaves, kept as
    the oracle for cells the sieve cannot reach."""
    ps = [int(p) for p in sieve_primes(y) if p <= x]
    total = 0
    terms = 0

    def rec(hi, cur, w):
        nonlocal total, terms
        total += w
        terms += 1
        for i in range(min(hi, bisect_right(ps, x // cur) - 1), -1, -1):
            p = ps[i]
            v = cur * p
            e = 1
            while v <= x:
                rec(i - 1, v, w * _local_r4(p, e))
                v *= p
                e += 1

    rec(len(ps) - 1, 1, 1)
    return 4 * total, terms


def test_chi4_values():
    assert chi4(2) == 0
    assert chi4(1) == 1
    assert chi4(7) == -1
    assert [chi4(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]
    with pytest.raises(DomainError):
        chi4(0)


@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_chi4_completely_multiplicative_on_odds(m, n):
    m = 2 * m - 1
    n = 2 * n - 1
    assert chi4(m * n) == chi4(m) * chi4(n)


def test_r_over_4_examples():
    assert r_over_4(1, []) == 1
    assert r_over_4(5, [(5, 1)]) == 2
    assert r_over_4(75, [(3, 1), (5, 2)]) == 0
    assert r_over_4(2, [(2, 1)]) == 1
    assert r_over_4(25, [(5, 2)]) == 3


def test_r_over_4_rejects_bad_factorization():
    with pytest.raises(DomainError):
        r_over_4(10, [(2, 1)])  # product mismatch
    with pytest.raises(DomainError):
        r_over_4(4, [(2, 1), (2, 1)])  # repeated prime
    with pytest.raises(DomainError):
        r_over_4(3, [(3, 0)])  # zero exponent


def test_lattice_r_examples():
    assert lattice_r(1) == 4
    assert lattice_r(2) == 4
    assert lattice_r(3) == 0
    assert lattice_r(25) == 12  # (0,5),(3,4),(4,3),(5,0) with signs
    with pytest.raises(DomainError):
        lattice_r(0)


@given(st.integers(1, 50_000))
@settings(max_examples=200)
def test_r_over_4_matches_lattice(n):
    assert 4 * r_over_4(n, factorize(n)) == lattice_r(n)


def test_lattice_table_rejects_negative_limit():
    with pytest.raises(DomainError):
        lattice_r_table(-1)


def test_lattice_table_matches_pointwise():
    table = lattice_r_table(2000)
    assert table[0] == 1  # origin
    for n in range(1, 2001):
        assert table[n] == lattice_r(n)


def test_exact_examples():
    assert exact_circle_sum(10, 2).value == 16
    assert exact_circle_sum(10, 2).terms == 4  # {1, 2, 4, 8}
    assert exact_circle_sum(1, 2).value == 4
    for method in ("sieve", "recursive"):
        got = exact_circle_sum(100, 100, method)
        assert got.value == 316
        assert got.terms == 100
        assert got.method == method


@pytest.mark.parametrize("y", [10**18, 10**30])
@pytest.mark.parametrize("method", ["sieve", "recursive"])
def test_y_above_x_sieves_only_to_x(y, method):
    # no prime above x divides an n <= x, so y past x costs no sieve
    got = exact_circle_sum(10, y, method)
    assert (got.value, got.terms, got.y) == (36, 10, y)


def test_exact_domain_errors():
    with pytest.raises(DomainError):
        exact_circle_sum(0, 2)
    with pytest.raises(DomainError):
        exact_circle_sum(10, 1)
    with pytest.raises(DomainError):
        exact_circle_sum(10, 2, "sorcery")


def test_exact_gauss_identity(lattice_1e6):
    # with y = x every n <= x counts, so the sum is the full disk count
    for x in (100, 1000):
        assert exact_circle_sum(x, x).value == int(lattice_1e6[1 : x + 1].sum())


@pytest.mark.parametrize("y", [2, 3, 5, 10, 30, 100])
def test_methods_agree(y):
    for x in (10**3, 10**4 + 7, 10**6):
        a = exact_circle_sum(x, y, "sieve")
        b = exact_circle_sum(x, y, "recursive")
        assert a.value == b.value
        assert a.terms == b.terms


def test_methods_agree_1e7_spot(monkeypatch):
    monkeypatch.setattr(counting, "_SEGMENT_SIZE", 1 << 19)
    a = exact_circle_sum(10**7, 30, "sieve")
    b = exact_circle_sum(10**7, 30, "recursive")
    assert a.value == b.value
    assert a.terms == b.terms


def test_parity_mod_4():
    for x, y in ((1, 2), (17, 3), (1000, 7), (12345, 30)):
        assert exact_circle_sum(x, y).value % 4 == 0


def test_monotone_in_x_and_y():
    vals = [exact_circle_sum(x, 10).value for x in (10, 50, 100, 500, 1000)]
    assert vals == sorted(vals)
    vals = [exact_circle_sum(1000, y).value for y in (2, 3, 5, 7, 11, 997)]
    assert vals == sorted(vals)


def test_node_budget_enforced():
    with pytest.raises(ResourceBudgetError):
        exact_circle_sum(10**6, 100, "recursive", node_budget=10)
    with pytest.raises(ResourceBudgetError):
        exact_circle_sum(10**6, 3, "sieve", node_budget=10**5)


def test_segment_size_does_not_change_result(monkeypatch):
    # At 2^8 the prime powers 2^9, 3^6 and the prime 997 exceed the segment.
    for x, y in ((54321, 50), (10**5 + 7, 997)):
        base = exact_circle_sum(x, y, "recursive")
        for seg in (1 << 8, 1 << 12, 1 << 20):
            monkeypatch.setattr(counting, "_SEGMENT_SIZE", seg)
            got = exact_circle_sum(x, y, "sieve")
            assert (got.value, got.terms) == (base.value, base.terms)


def test_exact_count_is_plain_int():
    c = exact_circle_sum(10**6, 1000)
    assert isinstance(c, ExactCount)
    assert isinstance(c.value, int)
    assert c.value % 4 == 0


@given(
    st.integers(1, 2 * 10**5), st.integers(2, 5000), st.integers(2, 5000),
    st.sampled_from([None, 1, 7, 64]),
)
@settings(max_examples=ROUTES_EXAMPLES, deadline=None)
@example(1000, 5000, 40, None)  # y >= x: the root is a leaf, every n <= x counts
@example(1009, 5000, 1009, None)  # x prime, y >= x: the root is a closed form
@example(2, 2, 3, None)
@example(127, 11, 2, None)  # x below the Buchstab-leaf bound
@example(961, 31, 961, None)  # m = p^2 exactly at the root
@example(10201, 101, 5000, None)
@example(10201, 102, 131, 1)
# y^2 < x <= 16 y^2 for both: the second cell reads the table of x the
# first one built
@example(2 * 10**5, 131, 400, None)
@example(2 * 10**5 + 3, 400, 131, 7)
# x > 16 y^2 for one cell or both: each builds its table to y^2, which
# replaces the one cached for the other cell
@example(300007, 131, 600, None)
@example(300007, 600, 131, None)
@example(300007, 136, 131, 64)
def test_routes_agree_in_value_and_terms(x, y, y2, batch):
    # Two cells at the same x, the recursive route run on both before either
    # is checked, so the second may read the quotient table the first one
    # left; batch, when drawn, is the leaf batch's flush bound in place of
    # the default.
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:
            mp.setattr(counting, "_LEAF_BATCH", batch)
        got = [exact_circle_sum(x, v, "recursive") for v in (y, y2)]
    for v, b in zip((y, y2), got):
        a = exact_circle_sum(x, v, "sieve")
        assert (a.value, a.terms) == (b.value, b.terms)


@pytest.mark.parametrize("x", [1, 2, 3, 10, 10**5 + 3])
def test_quotient_prime_counts(x):
    ps = sieve_primes(x)
    chi = np.where(ps % 4 == 1, 1, -1)
    chi[ps == 2] = 0
    quotients = {x // j for j in range(1, x + 1)}
    for limit in (x, max(1, math.isqrt(x) // 2), max(1, x // 7)):
        vs = np.array(sorted((v for v in quotients if v <= limit), reverse=True), dtype=np.int64)
        table = _QuotientPrimes(x, limit, ps)
        pi, chi_sum = table.counts(vs)
        k = np.searchsorted(ps, vs, side="right")
        assert pi.tolist() == k.tolist()
        assert chi_sum.tolist() == [int(chi[:i].sum()) for i in k]
        # in any order, as a flush of several leaves asks for them
        shuffle = np.random.default_rng(x).permutation(vs.size)
        assert table.counts(vs[shuffle]).tolist() == [pi[shuffle].tolist(), chi_sum[shuffle].tolist()]


@pytest.mark.parametrize(
    "x, limit, stepped, batched",
    [
        (10**7, 10**7, 47, 399),
        (10**7, 10**6, 25, 143),  # limit < x: the large rows start at j0 = 10
        (3 * 10**6 + 1, 9 * 10**4, 14, 48),
        (10**6, 1200, 11, 0),  # no prime in (cut, sqrt limit] = (31, 34]
        (10**6, 10**4, 11, 14),  # cut = isqrt(r) = 31, above icbrt(limit) = 21
    ],
)
def test_quotient_rows_at_benchmark_scale(x, limit, stepped, batched):
    # The primes up to cut = max(icbrt(limit), isqrt(isqrt(x))) are stepped
    # one by one, the rest up to sqrt(limit) in one batch; every quotient
    # v <= limit must read pi(v) and the chi4 prefix sum over the primes.
    r = math.isqrt(x)
    ps = sieve_primes(math.isqrt(limit))
    cut = max(counting._icbrt(limit), math.isqrt(r))
    assert (np.count_nonzero(ps <= cut), np.count_nonzero(ps > cut)) == (stepped, batched)
    quotients = np.union1d(np.arange(1, r + 1), x // np.arange(1, r + 1))
    vs = quotients[quotients <= limit][::-1]
    pi, chi_sum = _QuotientPrimes(x, limit, ps).counts(vs)
    below = sieve_primes(limit)
    k = np.searchsorted(below, vs, side="right")
    chi = np.concatenate([[0], np.cumsum(2 - below % 4)])  # 2 - p % 4 = chi4(p)
    assert pi.tolist() == k.tolist()
    assert chi_sum.tolist() == chi[k].tolist()


@pytest.mark.parametrize("x, limit", [(10**8, 3001), (10**8, 10**4), (10**6 + 7, 2)])
def test_quotient_rows_below_sqrt_x_match_the_lucy_rows(x, limit):
    # limit <= sqrt x: the rows come from a prime sieve to limit; a table to
    # limit = x runs the Lucy-Legendre pass and holds every v <= sqrt x too
    sieved = _QuotientPrimes(x, limit, sieve_primes(math.isqrt(limit)))
    lucy = _QuotientPrimes(x, x, sieve_primes(math.isqrt(x)))
    assert sieved.small.tolist() == lucy.small[:, : limit + 1].tolist()
    vs = np.arange(limit, 0, -1, dtype=np.int64)  # each is a quotient x // j
    assert sieved.counts(vs).tolist() == lucy.counts(vs).tolist()


@pytest.mark.parametrize("x, y", [(10**15, 7), (10**12, 13)])
def test_leaf_route_matches_plain_walk(x, y):
    got = exact_circle_sum(x, y, "recursive")
    assert (got.value, got.terms) == _plain_dfs(x, y)


def test_root_leaf_fires_within_tiny_budget():
    # (1e7, 1e4): p = 9973 has p^2 >= x, so the root is one Buchstab leaf
    got = exact_circle_sum(10**7, 10**4, "recursive", node_budget=10)
    want = exact_circle_sum(10**7, 10**4, "sieve")
    assert (got.value, got.terms) == (want.value, want.terms)


def test_isqrt_array_exact_near_squares():
    # past 2^52 the float root of k^2 - 1 rounds up to k
    k = np.array([3, 2**26 + 1, 2**30 + 3, 2**31 - 1], dtype=np.int64)
    v = np.concatenate([k * k - 1, k * k, k * k + 1, np.arange(100, dtype=np.int64)])
    assert _isqrt_array(v).tolist() == [math.isqrt(int(n)) for n in v]


def test_disc_s4_matches_lattice_counts():
    # S4(m) = sum_{n <= m} r(n)/4 for many m in one pass: against the lattice
    # table, and past its reach against a loop of integer square roots
    r4 = lattice_r_table(3000) // 4
    r4[0] = 0
    ms = np.array([3000, 1, 2, 25, 24, 26, 1000, 999], dtype=np.int64)
    assert counting._disc_s4(ms).tolist() == np.cumsum(r4)[ms].tolist()
    big = [10**10 + 1, (2**17 + 3) ** 2 - 1]
    want = [sum(math.isqrt(m - a * a) + 1 for a in range(1, math.isqrt(m) + 1)) for m in big]
    assert counting._disc_s4(np.array(big, dtype=np.int64)).tolist() == want


def test_x_beyond_int64():
    x = 10**30
    vs = np.arange(300, 0, -1, dtype=np.int64)  # every v <= sqrt x is a quotient of x
    pi, _ = _QuotientPrimes(x, 300, sieve_primes(17)).counts(vs)
    assert pi.tolist() == np.searchsorted(sieve_primes(300), vs, side="right").tolist()
    got = exact_circle_sum(x, 5, "recursive")
    assert (got.value, got.terms) == _plain_dfs(x, 5)


def test_quotient_table_is_capped_for_huge_x(monkeypatch):
    # sqrt(1e30) = 1e15, so without the cap the table would reach y^2 = 1e10.
    limits = []

    class Built(Exception):
        pass

    def record(x, limit, primes):
        limits.append(limit)
        raise Built

    monkeypatch.setattr(counting, "_quotient_cache", None)
    monkeypatch.setattr(counting, "_QuotientPrimes", record)
    with pytest.raises(Built):
        exact_circle_sum(10**30, 10**5, "recursive", node_budget=10)
    assert limits and limits[0] <= counting._QUOTIENT_CAP


@pytest.mark.parametrize(
    "x, y", [(1004031, 10**4), (10254230, 10**4), (10**7, 10**4), (10**6, 10**3)]
)
def test_auto_is_recursive_and_matches_sieve(x, y):
    # y^2 >= x on all four: the cells the benchmark's cross-check used to
    # send to the sieve and now recomputes by the route auto took.
    auto = exact_circle_sum(x, y)
    sieve = exact_circle_sum(x, y, "sieve")
    assert auto.method == "recursive"
    assert (auto.value, auto.terms) == (sieve.value, sieve.terms)


def test_pinned_value_at_1e9():
    # Computed once by both routes; the budget enforces < 1M nodes.
    got = exact_circle_sum(10**9, 10**3, node_budget=10**6)
    assert (got.value, got.terms) == (174522924, 59244184)


@pytest.mark.parametrize(
    "x, y, value, terms, nodes",
    [
        (2 * 10**7, 2000, 14552916, 4870685, 9242),
        (10**8, 3000, 62521164, 20856447, 37018),
        (10**9, 10**4, 669797360, 222597530, 318350),
        (4 * 10**9, 2 * 10**4, 2737746432, 908067247, 1021170),
    ],
)
def test_pinned_cells_whose_table_reaches_x(x, y, value, terms, nodes):
    # y^2 < x <= 16 y^2: the quotient table reaches x, not y^2 as the walk
    # does; computed when it reached y^2, and the walk is the same.
    got = exact_circle_sum(x, y)
    assert (got.value, got.terms, got.nodes) == (value, terms, nodes)


@pytest.mark.parametrize("x", [10**6, 10**7])
@pytest.mark.parametrize("ys", [(10**3, 10**4), (10**4, 10**3)])
def test_one_quotient_table_per_x(monkeypatch, x, ys):
    # Both cells have x <= 16 y^2, so they share one table to x, built by
    # whichever comes first; each result equals a run with no table cached.
    fresh = []
    for y in ys:
        monkeypatch.setattr(counting, "_quotient_cache", None)
        fresh.append(exact_circle_sum(x, y))
    built = []
    build = counting._QuotientPrimes

    def record(x, limit, primes):
        built.append((x, limit))
        return build(x, limit, primes)

    monkeypatch.setattr(counting, "_quotient_cache", None)
    monkeypatch.setattr(counting, "_QuotientPrimes", record)
    got = [exact_circle_sum(x, y) for y in ys]
    assert built == [(x, x)]
    assert [(c.value, c.terms, c.nodes) for c in got] == [(c.value, c.terms, c.nodes) for c in fresh]
    held_x, limit, table = counting._quotient_cache
    assert (held_x, limit) == (x, x)
    for rows in (table.small, table.large):
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[...] = 0
    # the next x replaces the table
    exact_circle_sum(3 * x, 10**4)
    assert built == [(x, x), (3 * x, 3 * x)] and counting._quotient_cache[0] == 3 * x


@pytest.mark.parametrize(
    "x, y, nodes", [(10**5, 100, 87), (10**6, 100, 706), (10**12, 13, 7861)]
)
def test_walked_node_counts_its_powers_of_2(x, y, nodes):
    # no node is spent on k = 2^e alone: the walked node above counts them
    c = exact_circle_sum(x, y)
    assert c.nodes == nodes
    if x <= 10**6:
        sieve = exact_circle_sum(x, y, "sieve")
        assert (c.value, c.terms) == (sieve.value, sieve.terms)


@pytest.mark.parametrize(
    "x, y, method",
    [(1, 2, "recursive"), (10**6, 100, "recursive"), (10**7, 10**4, "recursive"),
     (10**5 + 7, 997, "recursive"), (10**12, 13, "recursive"), (54321, 50, "sieve"),
     # the last nodes charged are lookups and closed forms settled in a
     # walked node's loop, and leaves waiting in its batch
     (10**6, 10**3, "recursive"), (10**7, 10**3, "recursive"), (3 * 10**6, 300, "recursive")],
)
def test_nodes_is_the_exact_budget(x, y, method):
    c = exact_circle_sum(x, y, method)
    if method == "sieve":
        assert c.nodes == x
    else:  # one node per distinct smooth number at most
        assert 1 <= c.nodes <= c.terms <= x
    again = exact_circle_sum(x, y, method, node_budget=c.nodes)
    assert (again.value, again.terms, again.nodes) == (c.value, c.terms, c.nodes)
    with pytest.raises(ResourceBudgetError):
        exact_circle_sum(x, y, method, node_budget=c.nodes - 1)


@pytest.mark.parametrize("batch", [1, 64])
def test_leaf_batch_bound_does_not_change_result(monkeypatch, batch):
    # A flush after every leaf, or after every few, gives the default's bits;
    # the cells are the benchmark's six, two with more walked nodes and one
    # whose root is a leaf.
    cells = [(x, y) for x in (10**6, 10**7) for y in (100, 10**3, 10**4)]
    cells += [(3 * 10**6, 300), (1125000, 10**3), (10**9, 10**5)]
    want = [exact_circle_sum(x, y) for x, y in cells]
    monkeypatch.setattr(counting, "_LEAF_BATCH", batch)
    for (x, y), c in zip(cells, want):
        got = exact_circle_sum(x, y)
        assert (got.value, got.terms, got.nodes) == (c.value, c.terms, c.nodes)


def test_leaf_batch_bounds_the_walk_memory():
    # About 3 MiB at (1e9, 1e3), the Lucy table included; a batch flushed
    # only at the end of the walk holds tens of MiB of quotients.
    counting._small_table()
    prime_table(10**3)
    tracemalloc.start()
    try:
        exact_circle_sum(10**9, 10**3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_small_table_rows_match_brute_force():
    m = counting._SMALL_M
    lpf = np.ones(m + 1, dtype=np.int64)  # largest prime factor, 1 for k = 1
    for p in sieve_primes(m).tolist():
        lpf[p::p] = p
    r4 = lattice_r_table(m) // 4
    r4[0] = 0
    weight, count = counting._small_table()
    ps = sieve_primes(127).tolist()
    assert len(weight) == len(count) == len(ps) == counting._SMALL_PRIMES
    for j, p in enumerate(ps):
        smooth = np.arange(m + 1) >= 1
        smooth &= lpf <= p
        assert np.asarray(weight[j]).tolist() == np.cumsum(r4 * smooth).tolist()
        assert np.asarray(count[j]).tolist() == np.cumsum(smooth).tolist()


def test_small_table_is_int16_and_equals_an_int64_build():
    # The rows as int64 cumulative sums of r(k)/4 and of 1 over the smooth k
    # (nothing overflows there): the int16 table holds the same values, its
    # largest 4 632 and 6 094, and takes 2 bytes an entry.
    m = counting._SMALL_M
    lpf = np.ones(m + 1, dtype=np.int64)
    for p in sieve_primes(m).tolist():
        lpf[p::p] = p
    r4 = lattice_r_table(m) // 4
    r4[0] = 0
    smooth = (np.arange(m + 1) >= 1) & (lpf <= np.array(sieve_primes(127))[:, None])
    want_w = np.cumsum(r4 * smooth, axis=1, dtype=np.int64)
    want_c = np.cumsum(smooth, axis=1, dtype=np.int64)
    weight, count = counting._small_table()
    for rows, want in ((weight, want_w), (count, want_c)):
        got = np.array([np.asarray(row) for row in rows])
        assert got.dtype == np.int16 and got.itemsize == 2
        assert np.array_equal(got.astype(np.int64), want)
    assert (want_w.max(), want_c.max()) == (4632, 6094)
    assert isinstance(weight[-1][m], int) and weight[-1][m] == 4632


@pytest.mark.parametrize("y", [2, 3, 113, 127, 131, 5000])
def test_table_edges_match_sieve(y):
    m = counting._SMALL_M
    for x in (m - 1, m, m + 1, 2 * m + 3):
        a = exact_circle_sum(x, y, "sieve")
        b = exact_circle_sum(x, y, "recursive")
        assert (a.value, a.terms) == (b.value, b.terms)
