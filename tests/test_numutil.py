import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothcircle.euler import prime_terms
from smoothcircle.numutil import (
    _CSUM_BLOCK,
    _CSUM_HEADS,
    _CSUM_MIN,
    certified_sum,
    csum,
)

# Both sides of the small-array cutoff, of one block and of a block plus a
# partial block that is shorter than, or just longer than, its heads.
SIZES = [
    _CSUM_MIN - 1, _CSUM_MIN, _CSUM_MIN + 1, 5001,
    _CSUM_BLOCK - 1, _CSUM_BLOCK, _CSUM_BLOCK + 1,
    _CSUM_BLOCK + _CSUM_HEADS + 1, 2 * _CSUM_BLOCK + 3,
]
ULP1 = 2.0**-52  # ulp of 1.0


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
@settings(max_examples=150, deadline=None)
@example(kind="tie", n=_CSUM_MIN, seed=0, scale=0)
@example(kind="tie", n=_CSUM_BLOCK + 1, seed=1, scale=0)
@example(kind="binade", n=_CSUM_BLOCK, seed=0, scale=0)
@example(kind="subnormal", n=_CSUM_MIN + 1, seed=0, scale=0)
def test_csum_is_fsum_bitwise(kind, n, seed, scale):
    x = _array(kind, n, seed, scale)
    _same_as_fsum(x)
    got = certified_sum(x)  # certifies or declines, never a different float
    assert got is None or got.hex() == math.fsum(x).hex()


@pytest.mark.parametrize("n", [2, _CSUM_MIN, _CSUM_BLOCK + 1])
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
@pytest.mark.parametrize("n", [_CSUM_MIN, _CSUM_BLOCK + 7])
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
    terms = prime_terms(sigma, 10**6, k)
    got = certified_sum(terms)
    assert got is not None
    assert got == math.fsum(terms)


def test_fast_path_certifies_strided_complex_parts():
    terms = prime_terms(complex(0.6, 40.0), 10**6, 0)
    for part in (terms.real, terms.imag):
        assert certified_sum(part) == math.fsum(part)
