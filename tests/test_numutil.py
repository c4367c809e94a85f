import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numpy.polynomial.legendre import leggauss

from smoothcircle import estimators, numutil
from smoothcircle.errors import ConvergenceError
from smoothcircle.euler import _BLOCK, _FSUM_MIN, prime_terms
from smoothcircle.numutil import (
    CertifiedAccumulator,
    bracketed_newton,
    csum,
    integrate_panels,
)

from conftest import example_count
from oracles import kronrod31_decimal

# Both sides of the Euler kernel's csum cut and of one kernel block, and
# sums of four to twelve blocks.
SIZES = [
    _FSUM_MIN - 1, _FSUM_MIN, _FSUM_MIN + 1, 5001,
    _BLOCK - 1, _BLOCK, _BLOCK + 1,
    4 * _BLOCK + 65, 8 * _BLOCK + 3, 12 * _BLOCK - 5,
]
ULP1 = 2.0**-52  # ulp of 1.0
# The 31-point Gauss-Kronrod rule's nodes and weights, and the 15-point
# Gauss rule's weights, from the decimal oracle, rounded to floats.
*K31, G15_WEIGHTS = (np.array([float(v) for v in part]) for part in kronrod31_decimal())


def _certified(x):
    """x summed as one block by a CertifiedAccumulator with the tight bound
    max|x|: math.fsum's float or None.  x is left alone."""
    return _accumulate(x, x.size, float(np.abs(x).max(initial=0.0)), [])


def _same_as_fsum(x):
    """csum(x) is math.fsum(x) bit for bit, or raises what it raises; an
    array summed by _certified gives fsum's float or None, and None where
    fsum raises."""
    certified = _certified(x) if isinstance(x, np.ndarray) else None
    try:
        want = math.fsum(x)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            csum(x)
        assert certified is None
        return
    got = csum(x)
    assert type(got) is float
    assert got.hex() == want.hex()
    assert certified is None or certified.hex() == want.hex()


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
@settings(max_examples=example_count(150, 2000), deadline=None)
@example(kind="tie", n=_FSUM_MIN, seed=0, scale=0)
@example(kind="tie", n=4 * _BLOCK + 1, seed=1, scale=0)
@example(kind="binade", n=4 * _BLOCK, seed=0, scale=0)
@example(kind="subnormal", n=_FSUM_MIN + 1, seed=0, scale=0)
def test_csum_is_fsum_bitwise(kind, n, seed, scale):
    """csum is math.fsum bit for bit, and one block of a CertifiedAccumulator
    with a tight bound (_certified, which _same_as_fsum runs) is fsum's
    float or None, on arrays of each hard shape at both sides of the
    kernel's csum cut and of its blocks."""
    _same_as_fsum(_array(kind, n, seed, scale))


# below the kernel's csum cut, at it, inside one kernel block, and past four
@pytest.mark.parametrize("n", [2, _FSUM_MIN, 2048, 4 * _BLOCK + 1])
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
        [1e300] * 3000,  # finite, but n max|x| is past the accumulator's limit
    ],
)
@pytest.mark.parametrize("n", [_FSUM_MIN, 2048, 4 * _BLOCK + 7])
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


@pytest.mark.parametrize("sigma", [0.1, 0.3, 0.6, 0.95, 2.0])
@pytest.mark.parametrize("k", range(5))
def test_fast_path_certifies_kernel_sums(sigma, k):
    [terms] = prime_terms(sigma, 10**6, (k,))
    got = _certified(terms)
    assert got is not None
    assert got == math.fsum(terms)


@pytest.mark.parametrize("n", [5001, 4 * _BLOCK + 1, 78498])
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
    got = _certified(x)
    assert got is not None
    assert got.hex() == want.hex()


def test_csum_extraction_limit_goes_to_fsum(monkeypatch):
    # n + 2 above the limit is declined, and csum, the fallback, returns
    # math.fsum's float; the limit itself is checked with a small patched
    # value, not a 2^26 array.
    x = np.linspace(-1.0, 3.0, 5000) ** 3
    assert _certified(x) == math.fsum(x)
    monkeypatch.setattr(numutil, "_CSUM_EXTRACT_LIMIT", x.size + 2)
    assert _certified(x) == math.fsum(x)
    monkeypatch.setattr(numutil, "_CSUM_EXTRACT_LIMIT", x.size + 1)
    assert _certified(x) is None
    assert csum(x).hex() == math.fsum(x).hex()


def _accumulate(x, n, bound, cuts):
    """CertifiedAccumulator(n, bound) fed copies of x cut at the sorted
    positions cuts (add overwrites a block with its remainders)."""
    acc = CertifiedAccumulator(n, bound)
    for block in np.split(x, sorted(cuts)):
        acc.add(block.copy())
    return acc.result()


@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(3, 3000) | st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
    scale=st.integers(-900, 900),
    cut_fracs=st.lists(st.floats(0.0, 1.0), max_size=12),
    how=st.sampled_from(["tight", "loose", "broken"]),
    log2_slack=st.integers(0, 80),
)
@settings(max_examples=example_count(150, 2000), deadline=None)
@example(kind="tie", n=_FSUM_MIN, seed=0, scale=0, cut_fracs=[0.5], how="tight", log2_slack=0)
@example(kind="wide", n=5001, seed=3, scale=0, cut_fracs=[0.1, 0.9], how="loose", log2_slack=1)
@example(kind="subnormal", n=_FSUM_MIN + 1, seed=0, scale=0, cut_fracs=[], how="tight",
         log2_slack=0)
@example(kind="cancel", n=4 * _BLOCK + 65, seed=5, scale=900, cut_fracs=[0.3], how="broken",
         log2_slack=0)
def test_accumulator_is_fsum_bitwise_or_none(kind, n, seed, scale, cut_fracs, how, log2_slack):
    """The block-by-block certified accumulator against math.fsum: any cut
    of the values into blocks (empty blocks too), any bound at or above
    max|x| (tight or loose), gives fsum's float or None.  A bound one float
    below max|x| (broken) is broken by the block that holds it: always
    None."""
    x = _array(kind, n, seed, scale)
    top = float(np.abs(x).max())
    bound = {
        "tight": top,
        "loose": top * 2.0**log2_slack * 1.25,  # inf past the float range
        "broken": math.nextafter(top, 0.0),
    }[how]
    got = _accumulate(x, n, bound, [int(f * n) for f in cut_fracs])
    if how == "broken" and top > 0.0:
        assert got is None
        return
    try:
        want = math.fsum(x)
    except OverflowError:
        assert got is None
        return
    assert got is None or got.hex() == want.hex()


@pytest.mark.parametrize("block", [1, 7, _FSUM_MIN, 4096, _BLOCK, 4 * _BLOCK])
def test_accumulator_blocks_give_certified_sums_bits(block):
    # Kernel-like sums certify at any block size, with a loose bound, to
    # the bits of one block with a tight bound, which are math.fsum's.
    x = prime_terms(0.6, 10**5, (1,))[0]
    want = _certified(x)
    assert want is not None and want == math.fsum(x)
    got = _accumulate(x, x.size, 2.0 * float(x.max()), range(block, x.size, block))
    assert got is not None and got.hex() == want.hex()


def test_accumulator_declines_what_it_cannot_certify():
    x = np.linspace(-1.0, 3.0, 5000) ** 3
    top = float(np.abs(x).max())
    assert _accumulate(x, x.size, top, [2500]) == math.fsum(x)
    assert _accumulate(x, x.size + 7, top, [2500]) == math.fsum(x)  # fewer values than n
    assert _accumulate(x, x.size - 1, top, [2500]) is None  # more values than n
    for bad in (math.nan, math.inf, -math.inf):
        y = x.copy()
        y[4000] = bad
        assert _accumulate(y, y.size, top, [2500]) is None
    for bound in (0.0, 2.0**-801, math.inf, math.nan, 2.0**1000 / x.size):
        assert _accumulate(x, x.size, bound, [2500]) is None
    assert _accumulate(np.zeros(5000), 5000, 1.0, []) is None  # |r| too near zero
    assert CertifiedAccumulator(10, 1.0).result() is None  # no values: a zero sum


def test_accumulator_scratch_is_block_sized():
    # Each block of 4096 values uses one scratch array of 4096 floats, freed
    # before the next block comes: 32 KB of transient memory for 2^20
    # values.  Each block is left holding its remainders.
    x = np.random.default_rng(0).standard_normal(1 << 20)
    want = math.fsum(x)
    acc = CertifiedAccumulator(x.size, float(np.abs(x).max()))
    tracemalloc.start()
    try:
        for lo in range(0, x.size, 4096):
            acc.add(x[lo : lo + 4096])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4096 * 8 + 4096
    assert acc.result() == want
    assert float(np.abs(x).max()) < 1e-9  # remainders, not the values


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


def _k31_rules():
    """(G15 nodes, G15 weights, K31 nodes, K31 weights) as floats, all from
    the decimal oracle: the Gauss rule is the Kronrod rule's odd nodes with
    their Gauss-Legendre weights."""
    nodes, weights = K31
    return nodes[1::2], G15_WEIGHTS, nodes, weights


def _two_call_levels(f, a, b, panel_width):
    """integrate_panels with one call of f per rule and level, G15's nodes
    apart from K31's, and each panel's two sums formed on its own row: the
    reference the one-call form must reproduce bit for bit."""
    x15, w15, x31, w31 = _k31_rules()
    q = math.ulp(2.0 * max(abs(a), abs(b)))

    def on_grid(v):
        return np.round(v / q) * q

    n_base = max(1, math.ceil((b - a) / panel_width))
    edges = np.linspace(a, b, n_base + 1)
    mids = on_grid(0.5 * (edges[:-1] + edges[1:]))
    hw = 0.5 * (b - a) / n_base
    done = []
    while mids.size:
        v15 = f(mids[:, None] + on_grid(hw * x15))
        v31 = f(mids[:, None] + on_grid(hw * x31))
        coarse = np.array([hw * (row * w15).sum() for row in v15])
        fine = np.array([hw * (row * w31).sum() for row in v31])
        ok = np.abs(fine - coarse) <= np.maximum(1e-9, 1e-9 * np.abs(fine))
        done.extend(fine[ok])
        hw *= 0.5
        mids = (mids[~ok, None] + on_grid(np.array([-hw, hw]))).ravel()
    return math.fsum(done)


def _two_call_panels(f, a, b, panel_width, *, rtol=1e-9, atol=1e-9, max_splits=4000):
    """integrate_panels as a loop over panels with one call of f per rule
    and nodes that are not rounded: the reference the level form must
    match to rounding."""
    x15, w15, x31, w31 = _k31_rules()

    def rule(lo, hi, nodes, wts):
        mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return hw * math.fsum(wts * f(mid + hw * nodes))

    n_base = max(1, math.ceil((b - a) / panel_width))
    edges = np.linspace(a, b, n_base + 1)
    work = [(edges[i], edges[i + 1]) for i in range(n_base)]
    done = []
    splits = 0
    while work:
        lo, hi = work.pop()
        coarse = rule(lo, hi, x15, w15)
        fine = rule(lo, hi, x31, w31)
        if abs(fine - coarse) <= max(atol, rtol * abs(fine)):
            done.append(fine)
            continue
        splits += 1
        if splits > max_splits:
            raise ConvergenceError("budget")
        mid = 0.5 * (lo + hi)
        work.append((mid, hi))
        work.append((lo, mid))
    return math.fsum(done)


INTEGRANDS = {
    "smooth": (lambda t: np.exp(-t) * np.cos(5.0 * t), 0.0, 3.0, 1.0),
    "peaked": (lambda t: 1.0 / (1e-4 + (t - 0.3) ** 2), 0.0, 1.0, 0.5),
    "oscillating": (lambda t: np.sin(40.0 * t) / (1.0 + t), 0.0, 10.0, 0.7),
    "perron-like": (
        lambda t: (np.exp((0.7 + 1j * t) * math.log(50.5)) / (0.7 + 1j * t)).real,
        0.0, 40.0, 0.4,
    ),
}


def _recording(f, calls):
    def g(ts):
        calls.append(ts.copy())
        return f(ts)

    return g


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_integrate_panels_one_call_per_panel(name):
    # every panel is evaluated once, in one call per level of equal-width
    # panels: one row each, the 31 Kronrod nodes mapped to the panel, whose
    # odd columns are the 15 Gauss nodes and whose column 15 is its midpoint
    f, a, b, width = INTEGRANDS[name]
    calls = []
    integrate_panels(_recording(f, calls), a, b, width)
    rows = np.concatenate(calls)
    assert len({(float(r.min()), float(r.max())) for r in rows}) == len(rows)
    x31 = K31[0]
    n_base = math.ceil((b - a) / width)
    hw = 0.5 * (b - a) / n_base
    for level, ts in enumerate(calls):
        assert ts.ndim == 2 and ts.shape[1] == 31
        assert ts.shape[0] == n_base if level == 0 else ts.shape[0] % 2 == 0  # each split adds two
        mid = ts[:, 15:16]
        assert ts == pytest.approx(mid + hw * x31, rel=1e-12, abs=1e-12)
        assert ts[:, 1::2] == pytest.approx(mid + hw * leggauss(15)[0], rel=1e-12, abs=1e-12)
        hw *= 0.5
    if name == "peaked":
        assert len(calls) > 1


_BISECTING = {
    "peaked": INTEGRANDS["peaked"],
    "peaked-left-of-0": (lambda t: 1.0 / (1e-4 + (t + 5.3) ** 2), -7.25, 2.5, 0.75),
}


@pytest.mark.parametrize("case", ["perron-1000", "perron-300", *_BISECTING])
def test_integrate_panels_rows_are_midpoint_plus_shared_offsets(monkeypatch, case):
    # every row of every call is its column 15, the panel's midpoint, plus
    # one offsets array shared by the call, bit for bit: on the diagnostics
    # workload's two Perron cells and on integrands that bisect
    calls = []
    if case.startswith("perron"):
        quad = estimators.integrate_panels
        monkeypatch.setattr(
            estimators, "integrate_panels", lambda f, *args: quad(_recording(f, calls), *args)
        )
        cell = {"perron-1000": (1000000.5, 1000, 50.0), "perron-300": (3000000.5, 300, 100.0)}
        estimators.perron_verify(*cell[case])
    else:
        f, a, b, width = _BISECTING[case]
        integrate_panels(_recording(f, calls), a, b, width)
        assert len(calls) > 2
    assert calls
    for ts in calls:
        assert np.array_equal(ts, ts[:, 15:16] + (ts[0] - ts[0, 15]))


def test_integrate_panels_smooth_needs_no_split():
    calls = []
    integrate_panels(lambda ts: calls.append(ts.shape) or np.cos(ts), 0.0, 3.0, 1.0)
    assert calls == [(3, 31)]


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
def test_integrate_panels_matches_the_panel_loop(name):
    # the same panels and rules, in another order of summation and with
    # nodes moved by at most half an ulp of 2 max(|a|, |b|)
    f, a, b, width = INTEGRANDS[name]
    want = _two_call_panels(f, a, b, width)
    assert integrate_panels(f, a, b, width) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_integrate_panels_matches_two_calls_bitwise(name):
    # both rules' nodes in one call, and both rules summed for every panel
    # at once, give the floats of one call per rule and a sum per panel
    f, a, b, width = INTEGRANDS[name]
    got = integrate_panels(f, a, b, width)
    want = _two_call_levels(f, a, b, width)
    assert got.hex() == want.hex()


def test_kronrod31_literals_match_the_oracle_bitwise():
    assert numutil._K31_NODES.tobytes() == K31[0].tobytes()
    assert numutil._K31_WEIGHTS.tobytes() == K31[1].tobytes()
    assert numutil._G15_WEIGHTS.tobytes() == G15_WEIGHTS.tobytes()


def test_kronrod31_integrates_monomials_to_degree_46():
    # K31 is exact for polynomials of degree 3n + 1 = 46, n = 15
    nodes, weights = numutil._K31_NODES, numutil._K31_WEIGHTS
    for k in range(47):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(weights * nodes**k) - exact) <= 1e-15, k


def test_kronrod31_extends_the_15_point_gauss_rule():
    nodes, weights = numutil._K31_NODES, numutil._K31_WEIGHTS
    # numpy's leggauss(15) rounds two of its nodes one ulp off the oracle's
    # correctly rounded ones
    np.testing.assert_array_max_ulp(nodes[1::2], leggauss(15)[0], maxulp=1)
    assert nodes[15] == 0.0 and not math.copysign(1.0, nodes[15]) < 0
    assert np.array_equal(nodes, -nodes[::-1]) and np.all(np.diff(nodes) > 0)
    assert weights[15] == 0.10133000701479154  # QUADPACK qk31's wgk(16)
    # G15 on the odd nodes is exact for polynomials of degree 2n - 1 = 29
    x15, w15 = nodes[1::2], numutil._G15_WEIGHTS
    assert np.array_equal(w15, w15[::-1]) and w15[7] == 0.2025782419255613  # qk31's wg(8)
    for k in range(30):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(w15 * x15**k) - exact) <= 1e-15, k
