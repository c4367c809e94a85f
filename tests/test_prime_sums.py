import math
import tracemalloc

import numpy as np
import pytest

from conftest import PRIMES_BELOW_100
from smoothcircle.config import (
    MERTENS_RATIO_SLACK,
    THETA_CHI4_FRACTION,
    THETA_REL_TOL_AT_1E6,
    WEIGHTED_DEV_ABS,
    WEIGHTED_DEV_COEF,
)
from smoothcircle import prime_sums
from smoothcircle.errors import DomainError
from smoothcircle.euler import h_log_real
from smoothcircle.numutil import EULER_GAMMA
from smoothcircle.prime_sums import weighted_prime_sum
from smoothcircle.primes import prime_table


def theta(x):
    """Chebyshev theta, the sum of log p over p <= x: the sigma = 0 weighted sum."""
    return weighted_prime_sum(x, 0.0).value


def theta_chi4(x):
    """The twisted theta, the sum of chi4(p) log p over p <= x."""
    return weighted_prime_sum(x, 0.0, twist=True).value


def mertens_product(y):
    """prod over p <= y of (1 - 1/p)^(-1) (1 - chi4(p)/p)^(-1) = H(1; y)."""
    return math.exp(h_log_real(1.0, y))


def test_theta_small():
    assert theta(2) == pytest.approx(math.log(2), rel=1e-15)
    assert theta(10) == pytest.approx(math.log(210), rel=1e-14)
    # independent oracle: direct sum over a hardcoded prime list
    want = math.fsum(math.log(p) for p in PRIMES_BELOW_100)
    assert theta(100) == pytest.approx(want, rel=1e-15)
    with pytest.raises(DomainError):
        theta(1.5)


def test_theta_chi4_small():
    assert theta_chi4(2) == 0.0
    assert theta_chi4(5) == pytest.approx(-math.log(3) + math.log(5), rel=1e-14)
    assert theta_chi4(10) == pytest.approx(
        -math.log(3) + math.log(5) - math.log(7), rel=1e-14
    )


def test_theta_accuracy_trend():
    devs = [abs(theta(x) / x - 1.0) for x in (10**4, 10**5, 10**6)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= THETA_REL_TOL_AT_1E6


def test_theta_chi4_cancellation():
    assert abs(theta_chi4(10**6)) <= THETA_CHI4_FRACTION * 10**6


def test_weighted_prime_sum_examples():
    rep = weighted_prime_sum(2, 0.0)
    assert rep.value == pytest.approx(math.log(2), rel=1e-15)
    assert rep.main_term == pytest.approx(1.0, rel=1e-15)

    # direct-summation oracles over primes <= 10
    rep = weighted_prime_sum(10, 1.0)
    want = math.log(2) / 2 + math.log(3) / 3 + math.log(5) / 5 + math.log(7) / 7
    assert rep.value == pytest.approx(want, rel=1e-14)
    assert rep.main_term == pytest.approx(math.log(10), rel=1e-15)

    rep = weighted_prime_sum(10, 1.0, twist=True)
    want = -math.log(3) / 3 + math.log(5) / 5 - math.log(7) / 7
    assert rep.value == pytest.approx(want, rel=1e-13)
    assert rep.main_term == 0.0
    assert rep.deviation == rep.value


@pytest.mark.parametrize("twist", [False, True])
@pytest.mark.parametrize("sigma", [0.5, 0.9])
def test_weighted_prime_sum_bits(sigma, twist):
    # the per-prime floats (w log p) exp(-sigma log p), summed exactly rounded
    tab = prime_table(10**5)
    w = tab.chi.astype(np.float64) if twist else 1.0
    terms = (w * tab.logp) * np.exp(-sigma * tab.logp)
    want = math.fsum(terms.tolist())
    assert weighted_prime_sum(1e5, sigma, twist).value.hex() == want.hex()


def test_weighted_prime_sum_domain():
    with pytest.raises(DomainError):
        weighted_prime_sum(100, -0.1)
    with pytest.raises(DomainError):
        weighted_prime_sum(100, 1.0 + 3.0 / math.log(100))
    # within the documented slack is fine
    weighted_prime_sum(100, 1.0 + 1.9 / math.log(100))


@pytest.mark.parametrize(
    "x, match",
    [
        (math.nan, "finite x"),
        (math.inf, "finite x"),
        (-math.inf, "finite x"),
        (1.5, "x >= 2"),
        (-3.0, "x >= 2"),
    ],
)
def test_weighted_prime_sum_rejects_bad_x(x, match):
    # x is checked before sigma's range, which reads log x, and before the
    # prime table, which reads int(x): a DomainError that names x.
    with pytest.raises(DomainError, match=match):
        weighted_prime_sum(x, 0.5)


@pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
def test_weighted_prime_sum_deviation_envelope(sigma):
    x = 10**6
    rep = weighted_prime_sum(x, sigma)
    assert abs(rep.deviation) <= WEIGHTED_DEV_ABS + WEIGHTED_DEV_COEF * x ** (1 - sigma)


def test_mertens_small():
    assert mertens_product(2) == pytest.approx(2.0, rel=1e-15)
    assert mertens_product(3) == pytest.approx(9 / 4, rel=1e-14)


def test_mertens_ratio_improves():
    # main term (pi/4) e^gamma log x; the additive error is O(1), so the
    # ratio closes in like 1/log x
    errs = []
    for x in (10**3, 10**4, 10**5, 10**6):
        main = math.pi / 4 * math.exp(EULER_GAMMA) * math.log(x)
        err = abs(mertens_product(x) / main - 1.0)
        assert err <= MERTENS_RATIO_SLACK / math.log(x)
        errs.append(err)
    assert errs == sorted(errs, reverse=True)


def _whole_array_sum(x, sigma, twist):
    """math.fsum of every term at once: (chi) log p exp(-sigma log p)."""
    tab = prime_table(int(x))
    terms = tab.logp * np.exp(tab.logp * -sigma)
    if twist:
        terms = terms * tab.chi
    return math.fsum(terms)


_STREAM_XS = [2, 3, 10, 1000, 65537, 10**6 + 3, 10**7]


@pytest.mark.parametrize("twist", [False, True])
@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.5, 0.9, 1.0, 1.1])
def test_streamed_prime_sum_is_the_whole_array_sum(sigma, twist):
    for x in _STREAM_XS:
        got = weighted_prime_sum(x, sigma, twist).value
        assert got.hex() == _whole_array_sum(x, sigma, twist).hex(), x


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_streamed_prime_sum_bound_holds_past_the_first_block(sigma, monkeypatch):
    # At small sigma |term| grows with p, so the largest term lies past the
    # first block: the bound is log p_max, not the first block's maximum,
    # and the accumulator certifies without the whole-array fallback.
    tab = prime_table(10**6)
    terms = tab.logp * np.exp(tab.logp * -sigma)
    assert int(np.argmax(terms)) >= prime_sums._SUM_BLOCK
    calls = []
    csum = prime_sums.csum

    def counting(arr):
        calls.append(arr.size)
        return csum(arr)

    monkeypatch.setattr(prime_sums, "csum", counting)
    for twist in (False, True):
        got = weighted_prime_sum(10**6, sigma, twist).value
        assert got.hex() == _whole_array_sum(10**6, sigma, twist).hex()
    assert calls == []


@pytest.mark.parametrize("twist", [False, True])
def test_uncertified_prime_sum_falls_back_to_the_whole_array(twist, monkeypatch):
    class Declines(prime_sums.CertifiedAccumulator):
        def result(self):
            return None

    monkeypatch.setattr(prime_sums, "CertifiedAccumulator", Declines)
    for x in (10, 10**5):
        got = weighted_prime_sum(x, 0.5, twist).value
        assert got.hex() == _whole_array_sum(x, 0.5, twist).hex()


def test_prime_sum_memory_is_a_few_blocks():
    # 5.3 MB of terms at x = 1e7 as one array; blocks of 8192 primes here.
    prime_table(10**7)  # cached before tracing: the table is not transient
    tracemalloc.start()
    try:
        weighted_prime_sum(1e7, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
