import math

import pytest

from smoothcircle import saddle
from smoothcircle.config import (
    ALPHA_NEAR_ONE_ENVELOPE,
    XI_GAP_LOGY2_COEF,
    XI_GAP_UY_COEF,
)
from smoothcircle.dickman import xi
from smoothcircle.errors import ConvergenceError, DomainError
from smoothcircle.euler import h_log_real, phi1_closed
from smoothcircle.saddle import alpha_bounds_check, alpha_xi_approx, solve_alpha


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
    # phi_1 once at each starting end (neither needs widening here), then
    # once per Newton iteration
    calls = []

    def counting_phi1(sigma, y):
        calls.append(sigma)
        return phi1_closed(sigma, y)

    monkeypatch.setattr(saddle, "phi1_closed", counting_phi1)
    res = solve_alpha(1e30, 10**6)
    assert len(calls) == res.iters + 2


def test_x_below_y_is_solvable():
    # the equation itself only needs x > 1
    res = solve_alpha(4, 100)
    assert res.alpha > 1.0
    assert abs(res.residual) <= 1e-12 * math.log(4)


def test_bounds_check_examples():
    rep = alpha_bounds_check(float(10**4) ** 20, 10**4)
    assert rep.lower_bound == pytest.approx(2 / math.log(10**4), rel=1e-15)
    assert rep.upper_bound == pytest.approx(1 - 4 / math.log(10**4), rel=1e-15)
    assert rep.lower_holds is True
    assert rep.upper_holds is True

    rep = alpha_bounds_check(float(10**4), 10**4)  # u = 1
    assert rep.upper_holds is None  # u < 14: check skipped
    assert rep.lower_holds is True

    rep = alpha_bounds_check(float(10**3) ** 10, 10**3)
    assert rep.lower_holds is True

    rep = alpha_bounds_check(float(100) ** 3, 100)  # below the y floor
    assert rep.lower_holds is None and rep.upper_holds is None


def test_xi_approx_at_u1():
    rep = alpha_xi_approx(1000, 1000)
    assert rep.approx == 1.0  # xi(1) = 0
    assert rep.gap == pytest.approx(rep.alpha - 1.0, rel=1e-12)
    assert rep.log_form is None  # u < 3


def test_xi_approx_envelope():
    y, u = 10**5, 10.0
    rep = alpha_xi_approx(float(y) ** u, y)
    env = XI_GAP_LOGY2_COEF / math.log(y) ** 2 + XI_GAP_UY_COEF * u / y
    assert abs(rep.gap) <= env


def test_xi_approx_three_forms():
    # the three approximants agree loosely at moderate u (measured max
    # pairwise spread 0.19 at this cell; the first-order error terms differ)
    rep = alpha_xi_approx(float(10**6) ** 3.0, 10**6)
    forms = [rep.approx, rep.log_form, rep.closed_form]
    assert all(f is not None for f in forms)
    for a in forms:
        for b in forms:
            assert abs(a - b) <= 0.25
    assert abs(rep.alpha - rep.approx) <= 0.05


def test_xi_gap_shrinks_with_y():
    # envelope-level decay; the sampled gaps are not strictly monotone
    # (measured: 1.9e-2, 2.2e-3, 3.5e-4, 5.9e-4), so assert the envelope
    # and the overall shrink
    u = 10.0
    gaps = []
    for y in (10**3, 10**4, 10**5, 10**6):
        rep = alpha_xi_approx(float(y) ** u, y)
        env = XI_GAP_LOGY2_COEF / math.log(y) ** 2 + XI_GAP_UY_COEF * u / y
        assert abs(rep.gap) <= env
        gaps.append(abs(rep.gap))
    assert gaps[-1] < gaps[0] / 10


def test_seed_matches_closed_form_structure():
    # sanity: alpha and 1 - xi(u)/log y drift together as u moves
    # (x may exceed float range; plain ints are fine, only log x is used)
    y = 10**4
    for u in (2.0, 5.0, 20.0, 80.0):
        rep = alpha_xi_approx(y ** int(u), y)
        assert abs(rep.gap) < 0.08
        assert 0 < rep.alpha < 1.2
        assert rep.approx == pytest.approx(1 - xi(u) / math.log(y), rel=1e-13)
