import itertools
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from smoothcircle import euler
from smoothcircle.errors import DomainError
from smoothcircle.euler import (
    h_log_line,
    h_log_real,
    h_value,
    phi1_closed,
    phi1_phi2,
    phi2_closed,
    phi_derivatives,
    prime_terms,
)
from smoothcircle.numutil import csum
from smoothcircle.primes import prime_table, sieve_primes
from smoothcircle.saddle import solve_alpha

from oracles import prime_terms_decimal, prime_terms_whole_array


def test_h_value_small():
    assert h_value(1.0, 2) == pytest.approx(2.0, rel=1e-15)
    assert h_value(1.0, 3) == pytest.approx(9 / 4, rel=1e-14)
    with pytest.raises(DomainError):
        h_value(0.0, 10)
    with pytest.raises(DomainError):
        h_value(complex(-0.5, 3.0), 10)


def test_h_value_line_bound():
    h0 = abs(h_value(1.0, 100))
    for t in (0.1, 0.5, 2.0, 17.0):
        assert abs(h_value(complex(1.0, t), 100)) <= h0


def test_h_value_refuses_overflowing_phases_before_the_line_product(monkeypatch):
    # at sigma = 1e-76 the line product's set-up alone takes a third of a
    # second; a t whose phases t log p overflow never reaches it
    def unreachable(sigma, y):
        raise AssertionError("h_log_line was called")

    monkeypatch.setattr(euler, "h_log_line", unreachable)
    with pytest.raises(DomainError, match="phases"):
        h_value(complex(1e-76, 1.7e308), 10**6)


def test_exp_phi_matches_h():
    for sigma in (0.3, 0.6, 1.0, 1.5):
        for y in (100, 1000):
            d = phi_derivatives(sigma, y)
            assert math.exp(d.phi) == pytest.approx(abs(h_value(sigma, y)), rel=1e-10)
            assert d.phi == pytest.approx(h_log_real(sigma, y), rel=1e-12)


def test_phi_closed_forms_single_prime():
    # y = 2: phi1 = -log2/(2^s - 1), phi2 = 2^s (log 2)^2/(2^s - 1)^2
    assert phi1_closed(1.0, 2) == pytest.approx(-math.log(2), rel=1e-14)
    assert phi2_closed(1.0, 2) == pytest.approx(2 * math.log(2) ** 2, rel=1e-14)
    d = phi_derivatives(1.0, 2)
    assert d.d[0] == pytest.approx(-math.log(2), rel=1e-13)
    assert d.d[1] == pytest.approx(2 * math.log(2) ** 2, rel=1e-13)


def _assert_matches_series(sigma, y):
    d = phi_derivatives(sigma, y)
    want = _phi_series_longdouble(sigma, y, kmax=4)
    for got, ref in zip((d.phi, *d.d), want):
        assert got == pytest.approx(float(ref), rel=1e-12, abs=0.0)


def _direct_sums(sigma, y):
    """(phi, phi_1..phi_4) each summed straight from its own prime_terms row,
    past the evaluators' memo."""
    return tuple((-1.0) ** k * csum(row) for k, row in enumerate(prime_terms(sigma, y, range(5))))


@pytest.mark.parametrize("sigma", [0.4, 0.8, 1.3])
@pytest.mark.parametrize("y", [100, 10**4])
def test_phi_series_matches_closed_forms(sigma, y):
    _assert_matches_series(sigma, y)
    phi, phi1, phi2, _, _ = _direct_sums(sigma, y)
    assert phi_derivatives(sigma, y, kmax=2).d == (phi1, phi2)
    assert (phi1_closed(sigma, y), phi2_closed(sigma, y)) == (phi1, phi2)
    assert phi1_phi2(sigma, y) == (phi1, phi2)
    assert h_log_real(sigma, y) == phi


def _evaluator_reads(name, sigma, y):
    """What one real-axis evaluator returns, as (order, float) pairs."""
    if name == "h_log_real":
        return [(0, h_log_real(sigma, y))]
    if name == "phi1_closed":
        return [(1, phi1_closed(sigma, y))]
    if name == "phi2_closed":
        return [(2, phi2_closed(sigma, y))]
    if name == "phi1_phi2":
        return list(zip((1, 2), phi1_phi2(sigma, y)))
    d = phi_derivatives(sigma, y, kmax=2 if name == "phi_derivatives2" else 4)
    return list(enumerate((d.phi, *d.d)))


_EVALUATORS = ("h_log_real", "phi1_closed", "phi2_closed", "phi1_phi2", "phi_derivatives2",
               "phi_derivatives")


@pytest.mark.parametrize("sigma, y", [(0.6, 10**4), (0.05, 1000)])
def test_evaluators_are_the_direct_sums_in_every_call_order(sigma, y):
    # Whichever call filled the memo, and with whatever orders, every float
    # is bitwise the sum of its own prime_terms row.
    want = _direct_sums(sigma, y)
    for order in itertools.permutations(_EVALUATORS):
        euler._memo = (math.nan, 0, {})
        for name in order:
            for k, got in _evaluator_reads(name, sigma, y):
                assert got.hex() == want[k].hex(), (order, name, k)


def test_evaluators_sum_each_order_once_per_point(monkeypatch):
    passes = []
    kernel_pass = euler._kernel_pass

    def counting(s, y, k):
        passes.append(k)
        return kernel_pass(s, y, k)

    monkeypatch.setattr(euler, "_kernel_pass", counting)
    phi1_phi2(0.7, 1000)
    phi1_closed(0.7, 1000)
    phi_derivatives(0.7, 1000, kmax=2)
    h_log_real(0.7, 1000)
    phi_derivatives(0.7, 1000)
    assert passes == [(1, 2), (0,), (3, 4)]


@pytest.mark.parametrize("first, second", [((0.6, 100), (0.6, 1000)), ((0.6, 1000), (0.9, 1000))])
def test_a_new_point_reads_its_own_values(first, second):
    # Only sigma, or only y, moves: the second call gives the second point's
    # floats, not the first point's.
    want = _direct_sums(*second)
    assert want != _direct_sums(*first)
    for name in _EVALUATORS:
        _evaluator_reads(name, *first)
        for k, got in _evaluator_reads(name, *second):
            assert got.hex() == want[k].hex(), (name, k)


@pytest.mark.parametrize(
    "sigma",
    [
        0.05,  # q = 2^-sigma near 1: the closed forms divide by expm1(sigma log 2)
        math.log(2 + math.sqrt(3)) / math.log(3),  # chi = -1 at p = 3: 1 - 4q + q^2 = 0 in Li_-3
    ],
)
def test_phi_closed_forms_near_cancellation(sigma):
    _assert_matches_series(sigma, 100)


@pytest.mark.parametrize("sigma, y", [(60.0, 10**6), (1000.0, 100)])
def test_phi_closed_forms_where_p_sigma_overflows(sigma, y):
    # p^sigma passes 1e150 (and float range for the largest p at y = 10^6)
    _assert_matches_series(sigma, y)


def test_phi_vanishes_at_large_sigma():
    d = phi_derivatives(50.0, 10)
    assert abs(d.phi) <= 1e-12
    assert abs(d.phi - 2.0**-50.0) < 1e-16


def test_phi_signs():
    for sigma in (0.05, 0.5, 1.0, 3.0):
        d = phi_derivatives(sigma, 1000)
        assert d.phi1 < 0
        assert d.phi2 >= 0
        assert d.d[2] < 0  # odd derivatives negative termwise


def test_phi_domain():
    with pytest.raises(DomainError):
        phi_derivatives(0.0, 100)
    with pytest.raises(DomainError):
        phi_derivatives(1.0, 100, kmax=5)
    with pytest.raises(DomainError):  # 2^-2000 underflows: phi_1 would read -0.0
        phi_derivatives(2000.0, 100)
    with pytest.raises(DomainError):
        phi1_phi2(0.0, 100)


@pytest.mark.parametrize(
    "evaluator",
    [h_log_line, h_log_real, phi1_closed, phi2_closed, phi1_phi2, phi_derivatives],
    ids=lambda f: f.__name__,
)
def test_sigma_nan_is_a_domain_error(evaluator):
    evaluator(0.6, 100)  # a valid point first: nan must not read its values
    with pytest.raises(DomainError, match="needs sigma > 0, got nan"):
        evaluator(math.nan, 100)


def test_convexity_on_grid():
    # sigma -> sigma log x + phi(sigma) convex; log x drops out of second
    # differences, so check phi itself
    for y in (100, 1000):
        sigmas = np.linspace(0.2, 2.0, 40)
        vals = [h_log_real(s, y) for s in sigmas]
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9)


def test_finite_difference_consistency_spot():
    # full grid lives in the acceptance suite; one extended-precision spot here
    y, sigma = 1000, 0.8
    h = np.longdouble(1e-4)
    f = [_phi_series_longdouble(float(np.longdouble(sigma) + k * h), y)[0] for k in (-2, -1, 0, 1, 2)]
    d = phi_derivatives(sigma, y)
    assert float((f[3] - f[1]) / (2 * h)) == pytest.approx(d.d[0], rel=1e-5)
    assert float((f[3] - 2 * f[2] + f[1]) / h**2) == pytest.approx(d.d[1], rel=1e-5)


def _phi_series_longdouble(sigma, y, kmax=0):
    """Independent oracle for phi_0..phi_kmax in 80-bit arithmetic: the
    prime-power series phi_k = sum_p sum_nu (1 + chi4(p)^nu) (-nu log p)^k p^(-nu sigma) / nu,
    summed until every block falls below 1e-26 of its running total."""
    from smoothcircle.primes import prime_table

    tab = prime_table(y)
    lp = tab.logp.astype(np.longdouble)
    chi = tab.chi.astype(np.longdouble)
    base = np.exp(-np.longdouble(sigma) * lp)
    totals = [np.longdouble(0)] * (kmax + 1)
    pv = np.ones_like(base)
    chin = np.ones_like(chi)
    for nu in range(1, 100_000):
        pv = pv * base
        chin = chin * chi
        w = (1 + chin) * pv / nu
        small = True
        for k in range(kmax + 1):
            block = (w * (-nu * lp) ** k).sum()
            totals[k] += block
            small = small and abs(block) < np.longdouble(1e-26) * abs(totals[k])
        if small:
            return totals
    raise AssertionError("series oracle did not converge")


def test_dirichlet_series_cross_check():
    # truncated smooth Dirichlet sum of r(n)/4 at sigma = 1.5 vs the product.
    # tail over smooth n > B is at most B^-0.4 * H(1.1; y) <= 10 * B^-0.4,
    # so B = 10^23 pushes it below 1e-8.
    sigma, bound = 1.5, 10.0**23
    for y, primes in ((5, (2, 3, 5)), (10, (2, 3, 5, 7))):
        total = _smooth_r4_sum(primes, bound, sigma)
        assert total == pytest.approx(float(h_value(sigma, y).real), abs=2e-8)


def _smooth_r4_sum(primes, bound, sigma):
    def local(p, e):
        if p == 2:
            return 1
        if p % 4 == 1:
            return e + 1
        return 0 if e % 2 else 1

    terms = []

    def walk(i, n, w):
        if i == len(primes):
            if w:
                terms.append(w * n**-sigma)
            return
        p, e = primes[i], 0
        m = n
        while m <= bound:
            walk(i + 1, m, w * local(p, e))
            m *= p
            e += 1

    walk(0, 1.0, 1)
    return math.fsum(terms)


def h_abs_ratios(alpha, y, ts):
    """|H(alpha + it; y)| / H(alpha; y) for each t in ts, from the line
    product and the real-axis log."""
    log_ratio = h_log_line(alpha, y)(np.asarray(ts, dtype=float)).real - h_log_real(alpha, y)
    return np.exp(log_ratio)


def test_h_ratio_profile_basics():
    # ratios live in (0, 1], and are 1 at t = 0
    alpha = solve_alpha(10**6, 1000).alpha
    prof = h_abs_ratios(alpha, 1000, [0.0, 0.3, 2.0, 40.0])
    assert prof[0] == pytest.approx(1.0, rel=1e-12)
    assert ((0.0 < prof[1:]) & (prof[1:] <= 1.0)).all()
    assert prof[1] < 0.999  # strict decay already at small t


def test_h_ratio_small_t_boundary():
    alpha = solve_alpha(10**6, 1000).alpha
    assert h_abs_ratios(alpha, 1000, [1.0 / math.log(1000)])[0] < 0.999


def test_h_abs_ratio_matches_complex_route():
    alpha = solve_alpha(10**5, 300).alpha
    tab = prime_table(300)
    c = np.exp(-alpha * tab.logp)
    chi = tab.chi.astype(np.float64)

    def modulus_ratio(t):
        # real logs only: log |1 - z p^-s|^2 = log(1 - 2 z c cos(t log p) + z^2 c^2), z in {1, chi}
        cosv = np.cos(t * tab.logp)
        num = np.log1p(c * (c - 2.0 * cosv)) + np.log1p(chi * c * (chi * c - 2.0 * cosv))
        den = np.log1p(c * (c - 2.0)) + np.log1p(chi * c * (chi * c - 2.0))
        return math.exp(-0.5 * (math.fsum(num) - math.fsum(den)))

    ts = (0.25, 3.0, 11.0)
    for t, got in zip(ts, h_abs_ratios(alpha, 300, ts)):
        terms = prime_terms_whole_array(complex(alpha, t), 300, 0)  # the per-prime complex logs
        direct = math.exp(math.fsum(terms.real) - h_log_real(alpha, 300))
        assert got == pytest.approx(direct, rel=1e-12)
        assert got == pytest.approx(modulus_ratio(t), rel=1e-12)
    assert h_abs_ratios(alpha, 300, [0.0])[0] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("y", [10, 300, 1000, 10**6])
@pytest.mark.parametrize("sigma", [0.05, 0.6, 0.9])
def test_h_log_line_matches_per_prime_logs(y, sigma):
    # the blocked product against the per-prime sum of logs, modulo 2 pi i
    ts = np.array([0.0, 0.3, 49.9, 1000.0])
    got = h_log_line(sigma, y)(ts)
    assert got.shape == ts.shape
    for t, g in zip(ts, got):
        terms = prime_terms_whole_array(complex(sigma, t), y, 0)
        want = complex(math.fsum(terms.real), math.fsum(terms.imag))
        assert g.real == pytest.approx(want.real, rel=1e-12, abs=0)
        phase = (g.imag - want.imag + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(phase) <= 1e-12


def test_h_log_line_at_center_0_is_the_unanchored_product_bitwise():
    # center 0 (the default) forms z = p^-it per node and prime, the
    # product of one expression; at y = 100 the primes make one block
    sigma, ts = 0.7, np.array([0.0, 0.3, 2.5, 40.0])
    lp = prime_table(100).logp
    a = np.exp(-sigma * lp)
    b = prime_table(100).chi * a
    z = np.exp(-1j * np.multiply.outer(ts, lp))
    want = -np.log(np.multiply.reduceat((1.0 - a * z) * (1.0 - b * z), [0], axis=-1)).sum(axis=-1)
    log_h = h_log_line(sigma, 100)
    assert np.array_equal(log_h(ts), want)
    assert np.array_equal(log_h(ts, 0.0), want)


def test_h_log_line_row_chunks_match_single_rows_bitwise():
    # at y = 1000 a chunk holds 97 nodes of 168 complex factors: 46
    # offsets with 2 centers, the last center alone, or 97 offsets and then
    # 23 with one center each; each node's value is what a call with that
    # center and offset alone gives
    sigma, y = 0.7, 1000
    assert euler._LINE_CHUNK_BYTES // (16 * prime_table(y).logp.size) == 97
    log_h = h_log_line(sigma, y)
    for d, c in (
        (np.linspace(-0.2, 0.2, 46), np.linspace(3.0, 40.0, 5)),
        (np.linspace(-0.5, 0.5, 120), np.array([2.0, 7.5])),
    ):
        got = log_h(d, c)
        assert got.shape == (c.size, d.size)
        single = [[log_h(d[j : j + 1], c[i : i + 1])[0, 0] for j in range(d.size)]
                  for i in range(c.size)]
        assert np.array_equal(got, np.array(single))


def test_h_log_line_memory_does_not_grow_with_nodes():
    # 200 nodes at y = 1e5 would make 31 MB per whole-array temporary, and
    # 10 centers of 46 offsets 71 MB: a chunk is one node there
    log_h = h_log_line(0.7, 10**5)
    for args in (
        (np.linspace(0.0, 50.0, 200),),
        (np.linspace(-0.2, 0.2, 46), np.linspace(1.0, 50.0, 10)),
    ):
        tracemalloc.start()
        try:
            log_h(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * euler._LINE_CHUNK_BYTES


def test_h_log_line_finite_where_h_overflows():
    # at (y = 1e6, sigma = 0.05) H(sigma) itself is beyond float range, so
    # one product over all primes would overflow: the blocks keep it finite
    assert h_log_real(0.05, 10**6) > math.log(np.finfo(float).max)
    ts = np.linspace(0.0, 60.0, 46)
    got = h_log_line(0.05, 10**6)(ts)
    assert np.isfinite(got).all()
    assert got[0].real == pytest.approx(h_log_real(0.05, 10**6), rel=1e-12)


def test_h_log_line_rejects_sigma_le_0():
    for sigma in (0.0, -0.5):
        with pytest.raises(DomainError):
            h_log_line(sigma, 100)


def _y_with_prime_count(n: int) -> int:
    """The largest y with pi(y) = n."""
    p = sieve_primes(20 * n + 100)
    return int(p[n]) - 1


_BLOCK = euler._TERMS_BLOCK
# pi(y) one short of a block, one block, one over, and two blocks and one
_BLOCK_EDGE_YS = [_y_with_prime_count(n) for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)]


_KERNEL_CASES = [(sigma, k) for sigma in (0.05, 0.6, 2.0, 60.0) for k in range(5)]


@pytest.mark.parametrize("y", [2, 1000, *_BLOCK_EDGE_YS, 10**6])
def test_prime_terms_blocks_equal_the_whole_array_bitwise(y):
    for s, k in _KERNEL_CASES:
        [got] = prime_terms(s, y, (k,))
        want = prime_terms_whole_array(s, y, k)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (s, k)


@pytest.mark.parametrize("y", [*_BLOCK_EDGE_YS, 10**6])
def test_prime_terms_orders_equal_the_whole_array_bitwise(y):
    # One pass for several orders gives each order's row bit for bit, at
    # block edges.
    for sigma in (0.05, 0.6, 2.0, 60.0):
        for orders in ((1, 2, 3, 4), (0, 1, 2), (2, 1)):
            rows = prime_terms(sigma, y, orders)
            assert len(rows) == len(orders)
            for k, row in zip(orders, rows):
                assert np.array_equal(row, prime_terms_whole_array(sigma, y, k)), (sigma, k)


@pytest.mark.parametrize(
    "s, k",
    [(0.6, k) for k in range(5)] + [(60.0, range(5)), (0.6, (1, 2)), (0.6, range(5))],
)
def test_prime_terms_transient_memory_is_a_few_blocks(s, k):
    # The whole-array form peaks at 5-9 times its output; block-sized
    # temporaries keep a call, for one order or several, within a few
    # blocks of its output.
    orders = (k,) if isinstance(k, int) else k
    prime_table(10**6)  # cached before tracing: the table is not transient
    tracemalloc.start()
    try:
        rows = prime_terms(s, 10**6, orders)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sum(row.nbytes for row in rows)


@pytest.mark.parametrize("sigma", [1e-4, 1e-2, 0.05])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_prime_terms_keep_full_precision_at_small_sigma(sigma, k):
    # As sigma -> 0, P = p^sigma nears 1; a form that rounds P, or p^-sigma,
    # before it subtracts loses digits there (1.9e-13 at sigma = 1e-4 for
    # k = 1, and 1.1e-13 for k = 0 from -log1p(-p^-sigma)).
    [got] = prime_terms(sigma, 1000, (k,))
    want = prime_terms_decimal(sigma, 1000, k)
    worst = max(abs(Decimal(g) / w - 1) for g, w in zip(got.tolist(), want))
    assert worst <= Decimal("2e-15")


def _csum_or_inf(row):
    """csum(row), or inf where it overflows: the kernel's whole-array sum."""
    try:
        return csum(row)
    except OverflowError:
        return math.inf


_STREAM_SIGMAS = [1e-6, 1e-4, 1e-2, 0.05, 0.3, 0.6, 0.95, 1.0, 2.0, 5.0]


# pi(y) one short of an accumulated row, one row, one over, and a row and
# a kernel block and one
_ROW_EDGE_YS = [
    _y_with_prime_count(n)
    for n in (euler._ACC_BLOCK - 1, euler._ACC_BLOCK, euler._ACC_BLOCK + 1,
              euler._ACC_BLOCK + _BLOCK + 1)
]


@pytest.mark.parametrize(
    "y", [2, 100, 600, *_BLOCK_EDGE_YS[1:3], 10**4, *_ROW_EDGE_YS, 10**6]
)
def test_streamed_sums_equal_whole_array_csums_bitwise(y):
    # Orders 0..4, summed row by row through their accumulators, are csum
    # of each prime_terms row, for one prime, one short row and many rows.
    for sigma in _STREAM_SIGMAS:
        want = [_csum_or_inf(row) for row in prime_terms(sigma, y, range(5))]
        euler._memo = (math.nan, 0, {})
        got = euler._order_sums(sigma, y, (0, 1, 2, 3, 4))
        assert [v.hex() for v in got] == [v.hex() for v in want], sigma
        assert [v.hex() for v in euler._kernel_pass(sigma, y, (3, 1))] == [
            want[3].hex(), want[1].hex()
        ]


@pytest.mark.parametrize("y", [_ROW_EDGE_YS[2], 10**5])
def test_declined_orders_are_summed_from_prime_terms(y, monkeypatch):
    # A bound below the first row's largest term is broken at once: every
    # order falls back to csum(prime_terms(...)), in one pass, and the sums
    # do not move.
    want = {sigma: euler._kernel_pass(sigma, y, (0, 1, 2, 3, 4)) for sigma in (1e-4, 0.6, 5.0)}
    passes = []

    def counting(s, yy, orders):
        passes.append(tuple(orders))
        return prime_terms(s, yy, orders)

    monkeypatch.setattr(euler, "_BOUND_SLACK", 0.5)
    monkeypatch.setattr(euler, "prime_terms", counting)
    for sigma, sums in want.items():
        passes.clear()
        got = euler._kernel_pass(sigma, y, (0, 1, 2, 3, 4))
        assert [v.hex() for v in got] == [v.hex() for v in sums]
        assert passes == [(0, 1, 2, 3, 4)]


def test_overflowing_orders_read_inf():
    # At sigma = 1e-76 the order-4 terms pass 1e300 and math.fsum overflows:
    # the accumulator declines and the fallback reads inf, as csum did.
    got = euler._kernel_pass(1e-76, 10**6, (3, 4))
    assert got[1] == math.inf
    assert got[0] == _csum_or_inf(prime_terms(1e-76, 10**6, (3,))[0])


def test_kernel_pass_memory_is_a_few_blocks():
    # One (1, 2) pass at y = 1e6 holds scratch rows of 4096 and 8192 primes,
    # not the 628 KB of one whole-array row.
    prime_table(10**6)  # cached before tracing: the table is not transient
    tracemalloc.start()
    try:
        euler._kernel_pass(0.6, 10**6, (1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**19


def _greedy_line_starts(bound):
    """The line product's block starts, one searchsorted per block."""
    starts, lo, base = [], 0, 0.0
    while lo < bound.size:
        starts.append(lo)
        lo = max(lo + 1, int(np.searchsorted(bound, base + euler._LINE_BLOCK_LOG, side="right")))
        base = bound[lo - 1]
    return starts


@pytest.mark.parametrize("sigma", [1e-76, 1e-20, 1e-4, 0.6, 5.0])
def test_line_starts_are_the_greedy_starts(sigma):
    # The starts walked from the next-start table are the greedy loop's,
    # for one block, a few and tens of thousands.
    table = prime_table(10**6)
    with np.errstate(over="ignore"):
        per_prime = (1.0 + np.abs(table.chi)) * np.log1p(1.0 / np.expm1(sigma * table.logp))
    bound = np.cumsum(np.minimum(per_prime, euler._LINE_BLOCK_LOG))
    for n in (1, 2, 1000, bound.size):
        assert euler._line_starts(bound[:n]) == _greedy_line_starts(bound[:n]), n
