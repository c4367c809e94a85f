import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothcircle import euler, numutil, saddle
from smoothcircle.config import (
    ALPHA_NEAR_ONE_ENVELOPE,
    XI_GAP_LOGY2_COEF,
    XI_GAP_UY_COEF,
)
from smoothcircle.dickman import xi
from smoothcircle.errors import ConvergenceError, DomainError
from smoothcircle.euler import h_log_real, phi1_closed, phi1_phi2, phi2_closed
from smoothcircle.saddle import _MODEL_A, RESIDUAL_TOL, _model_root, _model_tail, solve_alpha

from conftest import WORKLOAD_CELLS
from oracles import bracketed_newton_two_callbacks


def test_single_prime_closed_forms():
    # y = 2: the equation log x = log2/(2^a - 1) solves to a = log2(1 + 1/u)
    res = solve_alpha(2, 2)
    assert res.alpha == pytest.approx(1.0, abs=1e-12)
    assert abs(res.residual) <= 1e-12

    res = solve_alpha(4, 2)
    assert res.alpha == pytest.approx(math.log2(1.5), abs=1e-12)

    res = solve_alpha(10, 2)
    u = math.log(10) / math.log(2)
    assert res.alpha == pytest.approx(math.log2(1 + 1 / u), abs=1e-12)


def test_result_fields_and_bracket():
    res = solve_alpha(10**6, 1000)
    lo, hi = res.bracket
    assert lo < res.alpha < hi
    f = lambda s: math.log(10**6) + phi1_closed(s, 1000)
    assert f(lo) < 0 < f(hi)
    assert res.u == pytest.approx(2.0, rel=1e-15)
    assert abs(res.residual) <= 1e-12 * math.log(10**6)
    assert res.iters >= 1


@pytest.mark.parametrize("y,u", [(50, 1.5), (300, 3.0), (10**4, 7.0), (10**5, 2.5)])
def test_residual_scales_with_logx(y, u):
    x = float(y) ** u
    res = solve_alpha(x, y)
    assert abs(res.residual) <= 1e-12 * math.log(x)


def test_alpha_near_one_for_small_u():
    res = solve_alpha(float(10**5) ** 5.0, 10**5)
    assert abs(res.alpha - 1.0) <= ALPHA_NEAR_ONE_ENVELOPE / math.log(10**5)


def test_monotone_nonincreasing_in_x():
    alphas = [solve_alpha(float(x), 200).alpha for x in (250, 10**3, 10**5, 10**9, 10**13)]
    assert all(a >= b for a, b in zip(alphas, alphas[1:]))


def test_minimality_of_rankin_exponent():
    # x^a H(a) minimal at the saddle point: compare in log space
    x, y = 10**8, 500
    a = solve_alpha(x, y).alpha
    base = a * math.log(x) + h_log_real(a, y)
    for delta in (-0.05, -0.01, 0.01, 0.05):
        shifted = (a + delta) * math.log(x) + h_log_real(a + delta, y)
        assert shifted >= base


def test_domain_errors():
    with pytest.raises(DomainError):
        solve_alpha(1, 2)
    with pytest.raises(DomainError):
        solve_alpha(10, 1)
    for bad in (math.inf, math.nan):  # named in the error, not met as a bad sigma
        with pytest.raises(DomainError, match=f"finite x > 1, got {bad}"):
            solve_alpha(bad, 100)


@pytest.mark.parametrize("seed", [0.0, -1.0, math.nan, math.inf])
def test_bad_seed_is_a_domain_error(seed):
    # named as an input error, not met as a bisection walk or a ConvergenceError
    with pytest.raises(DomainError, match=f"finite seed > 0, got {seed}"):
        solve_alpha(1e6, 1000, seed=seed)


# Every cell a compare workload solves (with (1e300, 100)), two single-prime
# cells, and one past the estimates grid's largest x and y.
_SEEDED_CELLS = WORKLOAD_CELLS + [(2, 2), (4, 2), (1e305, 3 * 10**6)]


@pytest.mark.parametrize("x, y", _SEEDED_CELLS)
def test_seeded_at_alpha_is_the_cold_solve(x, y):
    cold = solve_alpha(x, y)
    warm = solve_alpha(x, y, seed=cold.alpha)
    assert warm.alpha.hex() == cold.alpha.hex()
    assert warm.residual.hex() == cold.residual.hex()
    assert warm.iters == 1 and warm.bracket == (0.0, math.inf)


@pytest.mark.parametrize("x, y", _SEEDED_CELLS)
@pytest.mark.parametrize("scale", [0.01, 50.0])
def test_far_seeds_converge(x, y, scale):
    alpha = solve_alpha(x, y).alpha
    res = solve_alpha(x, y, seed=scale * alpha)
    assert abs(res.residual) <= RESIDUAL_TOL * math.log(x)
    assert res.alpha == pytest.approx(alpha, rel=1e-11)


def test_nonconvergence_budget(monkeypatch):
    monkeypatch.setattr(numutil, "_NEWTON_ITERS", 1)
    with pytest.raises(ConvergenceError):
        solve_alpha(10**6, 10**3)


def test_each_iteration_is_one_kernel_pass(monkeypatch):
    # No pass at the bracket ends, which are known: one fused phi_1/phi_2
    # pass per Newton iteration, and few of them from the model seed, whose
    # own passes over the p <= 1000 come first, through the same kernel.
    passes = []

    def counting_terms(s, y, k):
        passes.append((y, k))
        return kernel_pass(s, y, k)

    kernel_pass = euler._kernel_pass
    monkeypatch.setattr(euler, "_kernel_pass", counting_terms)
    res = solve_alpha(1e30, 10**6)
    model = len(passes) - res.iters
    assert model >= 1
    assert passes == [(1000, (1, 2))] * model + [(10**6, (1, 2))] * res.iters
    assert res.iters <= 3  # from the model seed; 5 from the closed form


# The nine cells of the estimates benchmark workload, and one at y = 1e7.
_SOLVE_CELLS = [(x, y) for x in (1e12, 1e30, 1e300) for y in (100, 10**4, 10**6)]


@pytest.mark.parametrize("x, y", _SOLVE_CELLS + [(1e30, 10**7)])
def test_fused_step_solves_as_two_callbacks_bitwise(x, y, monkeypatch):
    # phi_1 and phi_2 from separate kernel passes: the same solve, bit for bit
    fused = solve_alpha(x, y)
    monkeypatch.setattr(saddle, "phi1_phi2", lambda s, y: (phi1_closed(s, y), phi2_closed(s, y)))
    two = solve_alpha(x, y)
    assert fused == two
    assert fused.alpha.hex() == two.alpha.hex()


@pytest.mark.parametrize("x, y", _SOLVE_CELLS + [(1e30, 10**7)])
def test_solves_as_plain_newton_within_tolerance(x, y):
    # Plain Newton on log x + phi_1 with phi_1 and phi_2 from separate
    # kernel passes, from a widened starting bracket, as solve_alpha ran it
    # before it stepped on log(-phi_1): the two roots lie within the
    # residual tolerance of each other.
    logx, logy = math.log(x), math.log(y)
    root, _, _, _ = bracketed_newton_two_callbacks(
        lambda s: logx + phi1_closed(s, y),
        lambda s: phi2_closed(s, y),
        1.0 / logy,
        1.0 + 3.0 / logy,
        math.log1p(y / logx) / logy,
        ftol=0.25 * RESIDUAL_TOL * logx,
        max_iters=200,
    )
    got = solve_alpha(x, y)
    assert got.alpha == pytest.approx(root, rel=2e-13, abs=0)
    assert abs(got.residual) <= RESIDUAL_TOL * logx


def _closed_seed(x, y):
    return math.log1p(y / math.log(x)) / math.log(y)


# The estimates benchmark workload's cells at y > 1000, at its seeds 0, 1
# and 2: at y <= 1000 the default seed is the closed form.
_MODEL_CELLS = [(x, y) for x, y in WORKLOAD_CELLS[:18] if y > _MODEL_A] + [
    (x, y) for x in (1.028681e12, 1.028435e30, 1.001697e300) for y in (10**4, 10**6)
]


@pytest.mark.parametrize("x, y", _MODEL_CELLS)
def test_model_seed_on_the_estimates_cells(x, y):
    # alpha from the model's root is the closed-form seed's to 1e-13
    default = solve_alpha(x, y)
    closed = solve_alpha(x, y, seed=_closed_seed(x, y))
    assert default.alpha == pytest.approx(closed.alpha, rel=1e-13, abs=0)
    assert abs(default.residual) <= RESIDUAL_TOL * math.log(x)
    seed = _model_root(math.log(x), y, _closed_seed(x, y))
    # alpha = 0.35 at (1e300, 1e4): the tail is weighed far from sigma = 1
    near = 3e-2 if (y, round(math.log10(x))) == (10**4, 300) else 1e-3
    assert seed == pytest.approx(default.alpha, rel=near, abs=0)
    if y == 10**6:
        assert default.iters <= 3 < closed.iters


@settings(max_examples=60, deadline=None)
@given(
    y=st.integers(min_value=_MODEL_A + 1, max_value=2 * 10**5),
    logx=st.floats(min_value=math.log(2.0), max_value=690.0),
)
def test_model_seeded_solve_is_the_closed_seeded_one(y, logx):
    x = math.exp(logx)
    default = solve_alpha(x, y)
    closed = solve_alpha(x, y, seed=_closed_seed(x, y))
    assert abs(default.residual) <= RESIDUAL_TOL * math.log(x)
    assert default.alpha == pytest.approx(closed.alpha, rel=1e-12, abs=0)
    lo, hi = default.bracket
    assert lo < default.alpha < hi


@pytest.mark.parametrize("y", [_MODEL_A + 1, 10**4, 10**6, 10**9])
def test_model_tail_at_and_near_sigma_one(y):
    # T = int_A^y t^-sigma dt and -T' = int_A^y log t t^-sigma dt
    la, ly = math.log(_MODEL_A), math.log(y)
    tail, slope = _model_tail(1.0, y)  # log(y/A) and (log^2 y - log^2 A)/2
    assert tail == pytest.approx(math.log(y / _MODEL_A), rel=1e-12)
    assert slope == pytest.approx((ly - la) * (ly + la) / 2.0, rel=1e-12)
    for delta in (-1e-9, 1e-9):  # the series branch of g: T to first order in delta
        near_tail, near_slope = _model_tail(1.0 + delta, y)
        assert near_tail == pytest.approx(tail - delta * slope, rel=1e-13)
        assert near_slope == pytest.approx(slope, rel=1e-7)
    # against 60-point Gauss-Legendre in log t, whose integrands are smooth
    nodes, weights = np.polynomial.legendre.leggauss(60)
    logt = la + 0.5 * (ly - la) * (nodes + 1.0)
    for sigma in (0.2, 0.9, 0.999, 1.0, 1.001, 1.5, 3.0):
        mass = 0.5 * (ly - la) * weights * np.exp((1.0 - sigma) * logt)  # t^-sigma dt
        want = (float(mass.sum()), float((logt * mass).sum()))
        assert _model_tail(sigma, y) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize(
    "x, y",
    [(1e30, 2), (1e300, 2), (2, 2), (10, 2), (1e12, 3), (1e308, 3), (1.5, 3), (4, 100),
     (99.5, 100), (1 + 1e-12, 10**4), (math.nextafter(1.0, 2.0), 2), (1.001, 10**6)],
)
def test_residual_at_small_y_and_x_near_one(x, y):
    res = solve_alpha(x, y)
    assert abs(res.residual) <= RESIDUAL_TOL * math.log(x)
    assert math.log(x) + phi1_closed(res.alpha, y) == res.residual
    lo, hi = res.bracket
    assert 0 <= lo < res.alpha < hi


@settings(max_examples=60, deadline=None)
@given(
    log10_x=st.floats(min_value=1e-6, max_value=300.0),
    y=st.sampled_from([2, 3, 5, 10, 100, 1000, 10**4]),
)
def test_newton_on_log_phi1_never_overshoots(log10_x, y):
    # log log x - log(-phi_1) is increasing and concave, so a Newton step
    # from below the root stays below it: from a seed below alpha, or from
    # the first iterate below it, the iterates rise monotonically.  The
    # small-prime model's steps, at y = 1000 for y > 1000, are not recorded.
    steps = []

    def recording(sigma, yy):
        if yy == y:
            steps.append(sigma)
        return phi1_phi2(sigma, yy)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(saddle, "phi1_phi2", recording)
        res = solve_alpha(10.0**log10_x, y)
    assert steps[-1] == res.alpha and len(steps) == res.iters
    rising = steps[next(i for i, s in enumerate(steps) if s <= res.alpha):]
    assert all(a < b for a, b in zip(rising, rising[1:]))


def test_x_below_y_is_solvable():
    # the equation itself only needs x > 1
    res = solve_alpha(4, 100)
    assert res.alpha > 1.0
    assert abs(res.residual) <= 1e-12 * math.log(4)


def _xi_form(res):
    """The approximant 1 - xi(u)/log y of the solved saddle point."""
    return 1.0 - xi(res.u) / math.log(res.y)


def test_bounds_check_examples():
    # the saddle-point lemmas: alpha >= 2/log y for 1 <= u <= y/(8 log y),
    # alpha <= 1 - 4/log y for u >= 14
    res = solve_alpha(float(10**4) ** 20, 10**4)  # u = 20: both apply
    logy = math.log(10**4)
    assert 14.0 <= res.u <= 10**4 / (8.0 * logy)
    assert res.alpha >= 2 / logy
    assert res.alpha <= 1 - 4 / logy

    for x, y in ((float(10**4), 10**4), (float(10**3) ** 10, 10**3)):  # u = 1, 10
        res = solve_alpha(x, y)
        assert 1.0 <= res.u <= y / (8.0 * math.log(y))
        assert res.alpha >= 2 / math.log(y)


def test_xi_approx_at_u1():
    res = solve_alpha(1000, 1000)
    assert res.u == 1.0
    assert _xi_form(res) == 1.0  # xi(1) = 0


def test_xi_approx_envelope():
    y, u = 10**5, 10.0
    res = solve_alpha(float(y) ** u, y)
    env = XI_GAP_LOGY2_COEF / math.log(y) ** 2 + XI_GAP_UY_COEF * u / y
    assert abs(res.alpha - _xi_form(res)) <= env


def test_xi_approx_three_forms():
    # the three approximants 1 - xi(u)/log y, 1 - log(u log u)/log y (for
    # u >= 3) and log(1 + y/log x)/log y agree loosely at moderate u
    # (measured max pairwise spread 0.19 at this cell; the first-order
    # error terms differ)
    x, y = float(10**6) ** 3.0, 10**6
    res = solve_alpha(x, y)
    assert res.u >= 3.0
    logy = math.log(y)
    forms = [
        _xi_form(res),
        1.0 - math.log(res.u * math.log(res.u)) / logy,
        math.log1p(y / math.log(x)) / logy,
    ]
    for a in forms:
        for b in forms:
            assert abs(a - b) <= 0.25
    assert abs(res.alpha - _xi_form(res)) <= 0.05


def test_xi_gap_shrinks_with_y():
    # envelope-level decay; the sampled gaps are not strictly monotone
    # (measured: 1.9e-2, 2.2e-3, 3.5e-4, 5.9e-4), so assert the envelope
    # and the overall shrink
    u = 10.0
    gaps = []
    for y in (10**3, 10**4, 10**5, 10**6):
        res = solve_alpha(float(y) ** u, y)
        gap = res.alpha - _xi_form(res)
        env = XI_GAP_LOGY2_COEF / math.log(y) ** 2 + XI_GAP_UY_COEF * u / y
        assert abs(gap) <= env
        gaps.append(abs(gap))
    assert gaps[-1] < gaps[0] / 10


def test_seed_matches_closed_form_structure():
    # sanity: alpha and 1 - xi(u)/log y drift together as u moves
    # (x may exceed float range; plain ints are fine, only log x is used)
    y = 10**4
    for u in (2.0, 5.0, 20.0, 80.0):
        res = solve_alpha(y ** int(u), y)
        assert abs(res.alpha - _xi_form(res)) < 0.08
        assert 0 < res.alpha < 1.2
        assert _xi_form(res) == pytest.approx(1 - xi(u) / math.log(y), rel=1e-13)
