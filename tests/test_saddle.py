import math

import pytest

from smoothcircle import euler, saddle
from smoothcircle.config import (
    ALPHA_NEAR_ONE_ENVELOPE,
    XI_GAP_LOGY2_COEF,
    XI_GAP_UY_COEF,
)
from smoothcircle.dickman import xi
from smoothcircle.errors import ConvergenceError, DomainError
from smoothcircle.euler import h_log_real, phi1_closed, phi1_phi2, phi2_closed
from smoothcircle.saddle import RESIDUAL_TOL, SaddleResult, solve_alpha

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


def test_nonconvergence_budget():
    with pytest.raises(ConvergenceError):
        solve_alpha(10**6, 10**3, max_iters=1)


def test_each_bracket_end_is_evaluated_once(monkeypatch):
    # phi_1 alone once at each starting end (neither needs widening here),
    # then one fused phi_1/phi_2 pass per Newton iteration: iters + 2
    # kernel passes in all
    ends, steps, passes = [], [], []

    def counting_phi1(sigma, y):
        ends.append(sigma)
        return phi1_closed(sigma, y)

    def counting_step(sigma, y):
        steps.append(sigma)
        return phi1_phi2(sigma, y)

    def counting_terms(s, y, k):
        passes.append(k)
        return prime_terms(s, y, k)

    prime_terms = euler.prime_terms
    monkeypatch.setattr(saddle, "phi1_closed", counting_phi1)
    monkeypatch.setattr(saddle, "phi1_phi2", counting_step)
    monkeypatch.setattr(euler, "prime_terms", counting_terms)
    res = solve_alpha(1e30, 10**6)
    assert len(ends) == 2
    assert len(steps) == res.iters
    assert passes == [1, 1] + [(1, 2)] * res.iters


# The nine cells of the estimates benchmark workload, and one at y = 1e7.
_SOLVE_CELLS = [(x, y) for x in (1e12, 1e30, 1e300) for y in (100, 10**4, 10**6)]


@pytest.mark.parametrize("x, y", _SOLVE_CELLS + [(1e30, 10**7)])
def test_fused_step_solves_as_two_callbacks_bitwise(x, y):
    # The same Newton iteration with phi_1 and phi_2 from separate kernel
    # passes, as solve_alpha ran it before the fused step.
    logx, logy = math.log(x), math.log(y)
    root, residual, iters, bracket = bracketed_newton_two_callbacks(
        lambda s: logx + phi1_closed(s, y),
        lambda s: phi2_closed(s, y),
        1.0 / logy,
        1.0 + 3.0 / logy,
        math.log1p(y / logx) / logy,
        ftol=0.25 * RESIDUAL_TOL * logx,
        max_iters=200,
    )
    want = SaddleResult(
        x=x, y=y, u=logx / logy, alpha=root, residual=residual, iters=iters, bracket=bracket
    )
    got = solve_alpha(x, y)
    assert got == want
    assert got.alpha.hex() == want.alpha.hex()


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
