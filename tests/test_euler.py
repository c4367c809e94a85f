import math
import tracemalloc

import numpy as np
import pytest

from smoothcircle import euler
from smoothcircle.errors import DomainError
from smoothcircle.euler import (
    h_abs_ratio,
    h_log_line,
    h_log_real,
    h_log_value,
    h_ratio_profile,
    h_value,
    phi1_closed,
    phi1_phi2,
    phi2_closed,
    phi_derivatives,
    prime_terms,
)
from smoothcircle.primes import prime_table, sieve_primes

from oracles import prime_terms_whole_array


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


@pytest.mark.parametrize("sigma", [0.4, 0.8, 1.3])
@pytest.mark.parametrize("y", [100, 10**4])
def test_phi_series_matches_closed_forms(sigma, y):
    _assert_matches_series(sigma, y)
    assert phi_derivatives(sigma, y).d[:2] == (phi1_closed(sigma, y), phi2_closed(sigma, y))
    assert phi1_phi2(sigma, y) == (phi1_closed(sigma, y), phi2_closed(sigma, y))


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


def test_h_ratio_profile_basics():
    prof = h_ratio_profile(10**6, 1000, [0.0, 0.3, 2.0, 40.0])
    assert prof[0] == (0.0, 1.0)
    for t, ratio in prof:
        assert 0.0 < ratio <= 1.0
    assert prof[1][1] < 0.999  # strict decay already at small t


def test_h_ratio_small_t_boundary():
    t = 1.0 / math.log(1000)
    prof = h_ratio_profile(10**6, 1000, [t])
    assert prof[0][1] < 0.999


def test_h_abs_ratio_matches_complex_route():
    from smoothcircle.primes import prime_table
    from smoothcircle.saddle import solve_alpha

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

    for t in (0.25, 3.0, 11.0):
        direct = abs(np.exp(h_log_value(complex(alpha, t), 300))) / math.exp(
            h_log_real(alpha, 300)
        )
        assert h_abs_ratio(alpha, 300, t) == pytest.approx(direct, rel=1e-12)
        assert h_abs_ratio(alpha, 300, t) == pytest.approx(modulus_ratio(t), rel=1e-12)
    assert h_abs_ratio(alpha, 300, 0.0) == 1.0


@pytest.mark.parametrize("y", [10, 300, 1000, 10**6])
@pytest.mark.parametrize("sigma", [0.05, 0.6, 0.9])
def test_h_log_line_matches_per_prime_logs(y, sigma):
    # the blocked product against the per-prime sum of logs, modulo 2 pi i
    ts = np.array([0.0, 0.3, 49.9, 1000.0])
    got = h_log_line(sigma, y)(ts)
    assert got.shape == ts.shape
    for t, g in zip(ts, got):
        terms = prime_terms(complex(sigma, t), y, 0)
        want = complex(math.fsum(terms.real), math.fsum(terms.imag))
        assert g.real == pytest.approx(want.real, rel=1e-12, abs=0)
        phase = (g.imag - want.imag + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(phase) <= 1e-12


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


def test_h_log_value_real_s_skips_the_imaginary_sum(monkeypatch):
    sums = []

    def counting_csum(terms):
        sums.append(len(terms))
        return math.fsum(terms)

    monkeypatch.setattr(euler, "csum", counting_csum)
    v = h_log_value(0.6, 1000)
    assert sums == [168]  # the real part only
    assert v.imag == 0.0 and math.copysign(1.0, v.imag) == 1.0
    assert v.real == pytest.approx(h_log_real(0.6, 1000), rel=1e-15)
    sums.clear()
    h_log_value(complex(0.6, 2.0), 1000)
    assert sums == [168, 168]


def _y_with_prime_count(n: int) -> int:
    """The largest y with pi(y) = n."""
    p = sieve_primes(20 * n + 100)
    return int(p[n]) - 1


_BLOCK = euler._TERMS_BLOCK
# pi(y) one short of a block, one block, one over, and two blocks and one
_BLOCK_EDGE_YS = [_y_with_prime_count(n) for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)]


_KERNEL_CASES = [(sigma, k) for sigma in (0.05, 0.6, 2.0, 60.0) for k in range(5)] + [
    (complex(0.6, 3.0), 0), (complex(0.5, -40.0), 0), (complex(2.0, 0.0), 0),
]


@pytest.mark.parametrize("y", [2, 1000, *_BLOCK_EDGE_YS, 10**6])
def test_prime_terms_blocks_equal_the_whole_array_bitwise(y):
    for s, k in _KERNEL_CASES:
        got = prime_terms(s, y, k)
        want = prime_terms_whole_array(s, y, k)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (s, k)


@pytest.mark.parametrize("y", [_BLOCK_EDGE_YS[-1], 10**6])
@pytest.mark.parametrize("side", [-1, 1])
def test_prime_terms_k2_form_switch_matches_the_whole_array(y, side):
    # The k = 2 closed form changes where P = p^sigma at the largest prime
    # reaches 1e150; sigma just below and just above that point.
    lp_max = prime_table(y).logp[-1]
    sigma = math.log(1e150) / lp_max * (1.0 + side * 1e-9)
    assert (np.expm1(sigma * lp_max) < 1e150) == (side < 0)
    got = prime_terms(sigma, y, 2)
    assert np.array_equal(got, prime_terms_whole_array(sigma, y, 2))


@pytest.mark.parametrize("y", [*_BLOCK_EDGE_YS, 10**6])
def test_prime_terms_orders_equal_the_whole_array_bitwise(y):
    # One pass for several orders gives each order's row bit for bit, at
    # block edges and on both sides of the k = 2 form switch.
    switch = math.log(1e150) / prime_table(y).logp[-1]
    for sigma in (0.05, 0.6, 2.0, 60.0, switch * (1.0 - 1e-9), switch * (1.0 + 1e-9)):
        for orders in ((1, 2, 3, 4), (0, 1, 2), (2, 1)):
            rows = prime_terms(sigma, y, orders)
            assert len(rows) == len(orders)
            for k, row in zip(orders, rows):
                assert np.array_equal(row, prime_terms_whole_array(sigma, y, k)), (sigma, k)


@pytest.mark.parametrize(
    "s, k",
    [(0.6, k) for k in range(5)] + [(complex(0.6, 3.0), 0), (0.6, (1, 2)), (0.6, range(5))],
)
def test_prime_terms_transient_memory_is_a_few_blocks(s, k):
    # The whole-array form peaks at 5-9 times its output; block-sized
    # scratch written in place keeps a call, for one order or several,
    # within a few blocks of its output.
    prime_table(10**6)  # cached before tracing: the table is not transient
    tracemalloc.start()
    try:
        out = prime_terms(s, 10**6, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = out if isinstance(out, list) else [out]
    assert peak <= 2 * sum(row.nbytes for row in rows)
