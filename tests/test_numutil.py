import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numpy.polynomial.legendre import leggauss

from smoothcircle import numutil
from smoothcircle.errors import ConvergenceError
from smoothcircle.euler import prime_terms
from smoothcircle.numutil import (
    _CSUM_BLOCK,
    _CSUM_MIN,
    bracketed_newton,
    certified_sum,
    csum,
    integrate_panels,
)

from oracles import prime_terms_whole_array

# Both sides of the small-array cutoff and of one extraction block, and a
# block plus a short or a long partial block.
SIZES = [
    _CSUM_MIN - 1, _CSUM_MIN, _CSUM_MIN + 1, 5001,
    _CSUM_BLOCK - 1, _CSUM_BLOCK, _CSUM_BLOCK + 1,
    _CSUM_BLOCK + 65, 2 * _CSUM_BLOCK + 3, 3 * _CSUM_BLOCK - 5,
]
ULP1 = 2.0**-52  # ulp of 1.0
# Examples of the csum property test; a deeper run sets this variable.
CSUM_EXAMPLES = int(os.environ.get("SMOOTHCIRCLE_TEST_CSUM_EXAMPLES", "150"))


def _same_as_fsum(x):
    """csum(x) is math.fsum(x) bit for bit, or raises what it raises."""
    try:
        want = math.fsum(x)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            csum(x)
        return
    got = csum(x)
    assert type(got) is float
    assert got.hex() == want.hex()


def _array(kind: str, n: int, seed: int, scale: int) -> np.ndarray:
    """n floats of one hard shape, shuffled; see the cases below."""
    rng = np.random.default_rng(seed)
    if kind == "wide":  # exponents across most of the range
        x = rng.standard_normal(n) * 2.0 ** rng.integers(-1000, 960, n)
    elif kind == "cancel":  # condition numbers from ~1 to ~1e30
        spread = seed % 36
        half = rng.standard_normal(n // 2) * np.exp(rng.uniform(-spread, spread, n // 2))
        x = np.concatenate([half, -half * (1.0 + ULP1 * rng.integers(-4, 5, half.size))])
        x = np.append(x, rng.standard_normal(n - x.size))
    elif kind == "tie":  # exact total 1 + 2^-53, 1 + 3 2^-53 or 1 + 5 2^-53
        half = rng.standard_normal((n - 3) // 2) * 2.0 ** rng.integers(-120, -40, (n - 3) // 2)
        x = np.concatenate([half, -half, [1.0 + ULP1 * (seed % 3), 2.0**-54, 2.0**-54]])
        x = np.append(x, np.zeros(n - x.size))
    elif kind == "binade":  # totals on, just below and just above powers of two
        x = rng.standard_normal(n - 2) * 2.0**-20
        x = np.concatenate([x, [2.0 - math.fsum(x), ULP1 * (seed % 5 - 2)]])
    elif kind == "subnormal":  # cancels down to a subnormal or tiny normal total
        half = rng.standard_normal(n // 2) * 1e-300
        tail = 5e-324 * rng.integers(-9, 10, n - 2 * (n // 2))
        x = np.concatenate([half, -half, tail])
    else:  # "zero": cancels exactly
        half = rng.standard_normal(n // 2)
        x = np.concatenate([half, -half, np.zeros(n % 2)])
    rng.shuffle(x)
    return np.ldexp(x, scale) if kind in ("cancel", "zero") else x


KINDS = ["wide", "cancel", "tie", "binade", "subnormal", "zero"]


@given(
    kind=st.sampled_from(KINDS),
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
    scale=st.integers(-900, 900),
)
@settings(max_examples=CSUM_EXAMPLES, deadline=None)
@example(kind="tie", n=_CSUM_MIN, seed=0, scale=0)
@example(kind="tie", n=_CSUM_BLOCK + 1, seed=1, scale=0)
@example(kind="binade", n=_CSUM_BLOCK, seed=0, scale=0)
@example(kind="subnormal", n=_CSUM_MIN + 1, seed=0, scale=0)
def test_csum_is_fsum_bitwise(kind, n, seed, scale):
    x = _array(kind, n, seed, scale)
    _same_as_fsum(x)
    got = certified_sum(x)  # certifies or declines, never a different float
    assert got is None or got.hex() == math.fsum(x).hex()


# below the fast path's cutoff, at it, further inside the first block, and past it
@pytest.mark.parametrize("n", [2, _CSUM_MIN, 2048, _CSUM_BLOCK + 1])
@pytest.mark.parametrize(
    "head",
    [
        [1.0, 2.0**-53],  # a tie, rounds to even: 1.0
        [1.0 + ULP1, 2.0**-53],  # a tie, rounds to even: 1 + 2 ulp
        [1.0, 2.0**-53, 2.0**-105],  # just past the tie
        [2.0, -(2.0**-53)],  # the lower neighbour of 2 is twice as close
        [2.0, -(2.0**-54)],  # a tie below a power of two
        [2.0, -(2.0**-53), -(2.0**-110)],  # just past it: 2 - 2^-52, not 2
        [1e-300, -1e-300, 5e-324],  # a subnormal total
        [3.5, -3.5],  # zero
    ],
)
def test_csum_hand_made_cases(head, n):
    x = np.zeros(max(n, len(head)))
    x[: len(head)] = head
    _same_as_fsum(x)
    _same_as_fsum(x[::-1].copy())
    _same_as_fsum(list(x))


@pytest.mark.parametrize(
    "special",
    [
        [math.nan],
        [math.inf],
        [-math.inf],
        [math.inf, -math.inf],  # ValueError
        [1e308, 1e308],  # OverflowError
        [1e308, 0.0, 1e308, -1e308],  # overflows in math.fsum's order only
        [1e300] * 3000,  # finite, but n max|x| is past the fast path's limit
    ],
)
@pytest.mark.parametrize("n", [_CSUM_MIN, 2048, _CSUM_BLOCK + 7])
def test_csum_non_finite_and_overflow_as_fsum(special, n):
    x = np.full(max(n, len(special)), 0.25)
    x[: len(special)] = special
    _same_as_fsum(x)


def test_csum_other_inputs_go_to_fsum():
    x = np.linspace(-1.0, 3.0, 3000) ** 3
    want = math.fsum(x)
    assert csum(list(x)) == want
    assert csum(v for v in x) == want
    assert csum(x.astype(np.float32)) == math.fsum(x.astype(np.float32))
    assert csum(x.reshape(30, 100).T[0]) == math.fsum(x.reshape(30, 100).T[0])
    assert csum(np.empty(0)) == 0.0
    assert certified_sum(np.empty(0)) is None
    assert certified_sum(np.zeros(5000)) is None


@pytest.mark.parametrize("sigma", [0.1, 0.3, 0.6, 0.95, 2.0])
@pytest.mark.parametrize("k", range(5))
def test_fast_path_certifies_kernel_sums(sigma, k):
    [terms] = prime_terms(sigma, 10**6, (k,))
    got = certified_sum(terms)
    assert got is not None
    assert got == math.fsum(terms)


@pytest.mark.parametrize("n", [5001, _CSUM_BLOCK + 1, 78498])
@pytest.mark.parametrize("log2_cond", [16, 28])
def test_csum_certifies_sums_that_need_the_second_extraction(n, log2_cond):
    # The sum is about 2^-log2_cond, far below max|x|.  One extraction
    # leaves remainders up to u sigma, ~2^(M-53) max|x|, whose float sum
    # carries a bound of ~n^2 2^(M-106) max|x|: above half an ulp of the
    # sum for every case here.  The second extraction shrinks that by
    # 2^(M-53).  The last value, far below the rest, keeps the exact sum
    # off a rounding tie, where certification rightly declines.
    rng = np.random.default_rng(n + log2_cond)
    x = rng.standard_normal(n)
    x[-2:] = 0.0
    x[-2] = -math.fsum(x) + 2.0**-log2_cond * 1.2345
    x[-1] = 2.0 ** (-log2_cond - 60) * 0.777
    x = x[rng.permutation(n)]
    top = float(np.abs(x).max())
    m = (n + 1).bit_length()
    one_pass_bound = n * n * 2.0 ** (m - 106) * 2.0 * top
    want = math.fsum(x)
    assert one_pass_bound > 0.5 * math.ulp(want)
    got = certified_sum(x)
    assert got is not None
    assert got.hex() == want.hex()


def test_csum_extraction_limit_goes_to_fsum(monkeypatch):
    # n + 2 above the limit is declined, and csum returns math.fsum's float;
    # the limit itself is checked with a small patched value, not a 2^26 array.
    x = np.linspace(-1.0, 3.0, 5000) ** 3
    assert certified_sum(x) == math.fsum(x)
    monkeypatch.setattr(numutil, "_CSUM_EXTRACT_LIMIT", x.size + 2)
    assert certified_sum(x) == math.fsum(x)
    monkeypatch.setattr(numutil, "_CSUM_EXTRACT_LIMIT", x.size + 1)
    assert certified_sum(x) is None
    assert csum(x).hex() == math.fsum(x).hex()


def test_fast_path_certifies_strided_complex_parts():
    # the per-prime complex logs of H(0.6 + 40i; 1e6)
    terms = prime_terms_whole_array(complex(0.6, 40.0), 10**6, 0)
    for part in (terms.real, terms.imag):
        assert certified_sum(part) == math.fsum(part)


def test_bracketed_newton_doubles_toward_an_infinite_hi(monkeypatch):
    # With no usable slope every step falls back: x doubles while hi is inf,
    # then bisects the bracket the first positive f closes.
    calls = []

    def fdf(x):
        calls.append(x)
        return x - 10.0, 0.0

    x, fx, iters, bracket = bracketed_newton(fdf, 1.0, ftol=0.0)
    assert calls == [1.0, 2.0, 4.0, 8.0, 16.0, 12.0, 10.0]
    assert (x, fx, iters, bracket) == (10.0, 0.0, 7, (8.0, 12.0))
    monkeypatch.setattr(numutil, "_NEWTON_ITERS", 6)
    with pytest.raises(ConvergenceError):
        bracketed_newton(fdf, 1.0, ftol=0.0)


def _two_call_panels(f, a, b, panel_width, *, rtol=1e-10, atol=1e-10, max_splits=4000):
    """integrate_panels as it was with one call of f per Gauss rule: the
    reference the one-call form must reproduce bit for bit."""
    gl_lo, gl_hi = leggauss(15), leggauss(31)

    def rule(lo, hi, nodes, wts):
        mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return hw * float(np.dot(wts, f(mid + hw * nodes)))

    n_base = max(1, math.ceil((b - a) / panel_width))
    edges = np.linspace(a, b, n_base + 1)
    work = [(edges[i], edges[i + 1]) for i in range(n_base)]
    done = []
    splits = 0
    while work:
        lo, hi = work.pop()
        coarse = rule(lo, hi, *gl_lo)
        fine = rule(lo, hi, *gl_hi)
        if abs(fine - coarse) <= max(atol, rtol * abs(fine)):
            done.append((lo, fine))
            continue
        splits += 1
        if splits > max_splits:
            raise ConvergenceError("budget")
        mid = 0.5 * (lo + hi)
        work.append((mid, hi))
        work.append((lo, mid))
    done.sort(key=lambda t: t[0])
    return math.fsum(v for _, v in done)


INTEGRANDS = {
    "smooth": (lambda t: np.exp(-t) * np.cos(5.0 * t), 0.0, 3.0, 1.0),
    "peaked": (lambda t: 1.0 / (1e-4 + (t - 0.3) ** 2), 0.0, 1.0, 0.5),
    "oscillating": (lambda t: np.sin(40.0 * t) / (1.0 + t), 0.0, 10.0, 0.7),
    "perron-like": (
        lambda t: (np.exp((0.7 + 1j * t) * math.log(50.5)) / (0.7 + 1j * t)).real,
        0.0, 40.0, 0.4,
    ),
}


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_integrate_panels_one_call_per_panel(name):
    f, a, b, width = INTEGRANDS[name]
    calls = []

    def counted(ts):
        calls.append(ts.copy())
        return f(ts)

    integrate_panels(counted, a, b, width)
    panels = {(float(ts.min()), float(ts.max())) for ts in calls}
    assert len(panels) == len(calls)  # no panel is evaluated twice
    # each call holds the 15 nodes of the coarse rule, then the 31 of the
    # fine one, both mapped to the same panel
    x15, x31 = leggauss(15)[0], leggauss(31)[0]
    for ts in calls:
        assert ts.shape == (46,)
        hw = (ts[-1] - ts[15]) / (x31[-1] - x31[0])
        mid = ts[15] - hw * x31[0]
        assert ts[:15] == pytest.approx(mid + hw * x15, rel=1e-12, abs=1e-12)
        assert ts[15:] == pytest.approx(mid + hw * x31, rel=1e-12, abs=1e-12)
    n_base = math.ceil((b - a) / width)
    assert len(calls) >= n_base and (len(calls) - n_base) % 2 == 0  # each split adds two
    if name == "peaked":
        assert len(calls) > n_base


def test_integrate_panels_smooth_needs_no_split():
    calls = []
    integrate_panels(lambda ts: calls.append(ts.size) or np.cos(ts), 0.0, 3.0, 1.0)
    assert calls == [46, 46, 46]


def test_integrate_panels_split_budget_raises(monkeypatch):
    f, a, b, width = INTEGRANDS["peaked"]  # 2 base panels, more than 2 splits
    monkeypatch.setattr(numutil, "_MAX_SPLITS", 2)
    with pytest.raises(ConvergenceError, match="refinement budget"):
        integrate_panels(f, a, b, width)


def test_integrate_panels_base_panels_over_budget_raise_before_f():
    # 1e15 base panels: refused before the edges are allocated or f is called
    calls = []
    with pytest.raises(ConvergenceError, match="base panels"):
        integrate_panels(lambda ts: calls.append(ts) or np.cos(ts), 0.0, 1e15, 1.0)
    assert calls == []


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0)])
def test_integrate_panels_empty_interval_is_zero_before_f(a, b):
    calls = []
    assert integrate_panels(lambda ts: calls.append(ts) or np.cos(ts), a, b, 1.0) == 0.0
    assert calls == []


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_integrate_panels_matches_two_calls_bitwise(name):
    f, a, b, width = INTEGRANDS[name]
    got = integrate_panels(f, a, b, width)
    want = _two_call_panels(f, a, b, width)
    assert got.hex() == want.hex()
