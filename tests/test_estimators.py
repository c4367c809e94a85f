import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from smoothcircle import estimators, euler
from smoothcircle.config import (
    GAUSS_BASELINE_COEF,
    PERRON_REL_TOL,
    RANKIN_SLACK_RANGE,
    ROUTE_CONSISTENCY_TOL,
    THM1_TREND_TOL,
)
from smoothcircle.counting import exact_circle_sum
from smoothcircle.dickman import rho, rho_saddle_form
from smoothcircle.errors import DomainError, SmoothCircleError
from smoothcircle.estimators import (
    FLAG_ORACLE_SKIPPED,
    FLAG_OUTSIDE_THM1,
    FLAG_OUTSIDE_THM2,
    FLAG_OVERFLOW,
    ComparisonRow,
    closed_form_estimate,
    compare_cell,
    compare_grid,
    dickman_estimate,
    difference_check,
    log_rankin_bound,
    log_saddle_point_estimate,
    perron_verify,
)
from smoothcircle.primes import prime_table
from smoothcircle.report import rows_to_csv, rows_to_json
from smoothcircle.saddle import solve_alpha

from conftest import WORKLOAD_CELLS


def test_saddle_estimate_single_prime_closed_form():
    # at (x=4, y=2): a = log2(3/2), H(a) = 3, phi2 = 6 (log 2)^2
    a = math.log2(1.5)
    want = 4 * 4**a * 3 / (a * math.sqrt(2 * math.pi * 6 * math.log(2) ** 2))
    assert math.exp(log_saddle_point_estimate(4, 2)) == pytest.approx(want, rel=1e-10)


def test_saddle_estimate_at_gauss_cell():
    est = math.exp(log_saddle_point_estimate(100, 100))
    assert math.isfinite(est) and est > 0
    assert est / 316 == pytest.approx(1.0, abs=0.2)  # measured 0.942


def test_closed_form_identity_and_window():
    x, y = 10**6, 1000
    assert closed_form_estimate(x, y) == pytest.approx(
        math.pi * x * rho_saddle_form(2.0), rel=1e-14
    )
    with pytest.raises(DomainError):
        closed_form_estimate(1000, 1000)  # u = 1


def test_closed_form_near_u1():
    x, y = 1001, 1000
    est = closed_form_estimate(float(x), y)
    assert est == pytest.approx(math.pi * x, rel=0.02)


def test_route_consistency():
    for u in (5.0, 10.0):
        x = float(10**5) ** u
        t1 = math.exp(log_saddle_point_estimate(x, 10**5))
        t2 = closed_form_estimate(x, 10**5)
        assert abs(t1 / t2 - 1.0) <= ROUTE_CONSISTENCY_TOL


def test_dickman_estimate_values():
    assert dickman_estimate(100, 100) == pytest.approx(100 * math.pi, rel=1e-14)
    assert dickman_estimate(10**4, 100) == pytest.approx(
        math.pi * (1 - math.log(2)) * 10**4, rel=1e-12
    )
    assert dickman_estimate(10**6, 10**6) == pytest.approx(math.pi * 10**6, rel=1e-14)
    with pytest.raises(DomainError):
        dickman_estimate(10, 100)


def test_gauss_baseline():
    for x in (10**4, 10**5, 10**6):
        exact = exact_circle_sum(x, x).value
        est = dickman_estimate(float(x), x)
        assert abs(est / exact - 1.0) <= GAUSS_BASELINE_COEF * x**-0.25


def test_rankin_bound_values():
    u = math.log(10) / math.log(2)
    a = math.log2(1 + 1 / u)
    want = 4 * 10**a / (1 - 2**-a)
    assert math.exp(log_rankin_bound(10, 2)) == pytest.approx(want, rel=1e-12)
    assert math.exp(log_rankin_bound(10, 2)) >= 16
    with pytest.raises(DomainError):  # x = 1 has no saddle point
        log_rankin_bound(1, 2)


def test_rankin_dominates_exact():
    for x, y in ((10, 2), (1000, 7), (10**4, 30), (10**5, 300)):
        assert math.exp(log_rankin_bound(float(x), y)) >= exact_circle_sum(x, y).value


def test_rankin_slack_moderate():
    lo, hi = RANKIN_SLACK_RANGE
    ratio = math.exp(log_rankin_bound(10**4, 30)) / exact_circle_sum(10**4, 30).value
    assert lo < ratio < hi


@pytest.mark.parametrize("x", [10**6, 10**7])
@pytest.mark.parametrize("y", [100, 1000, 10**4])
def test_thm1_tracks_exact_on_the_oracle_cells(x, y):
    # the exact-oracle benchmark cells; the largest measured |thm1/exact - 1|
    # is 0.021, at (1e6, 1e4)
    exact = exact_circle_sum(x, y).value
    thm1 = math.exp(log_saddle_point_estimate(float(x), y))
    assert abs(thm1 / exact - 1.0) <= THM1_TREND_TOL


def test_perron_converges_to_exact():
    res = perron_verify(100.5, 100, 50.0)
    assert res.exact == 316
    assert abs(res.error) / res.exact <= PERRON_REL_TOL
    assert res.error == res.integral - res.exact


def test_perron_tiny_T():
    res = perron_verify(100.5, 100, 1e-9)
    assert abs(res.integral) < 1e-3


def test_perron_rejects_integer_x():
    with pytest.raises(DomainError):
        perron_verify(100.0, 100, 10.0)
    with pytest.raises(DomainError):
        perron_verify(100.5, 100, 0.0)


@pytest.mark.parametrize(
    "x, y, T, integral",
    [
        (1000000.5, 1000, 50.0, 1027293.2887638136),
        (3000000.5, 300, 100.0, 1202685.3612215247),
    ],
)
def test_perron_pinned_integrals(x, y, T, integral):
    # values of the per-prime-log integrand, two Gauss rules per panel;
    # the diagnostics benchmark runs the same two cells
    res = perron_verify(x, y, T)
    assert res.integral == pytest.approx(integral, rel=1e-12, abs=0)
    assert res.exact == exact_circle_sum(int(x), y).value


_PERRON_CELLS = [(1000000.5, 1000, 50.0), (3000000.5, 300, 100.0)]


def _perron_panels(monkeypatch, x, y, T):
    """perron_verify's result and the nodes of every integrand call, in order."""
    calls = []
    quad = estimators.integrate_panels

    def recording(f, *args, **kwargs):
        def g(ts):
            calls.append(ts.copy())
            return f(ts)

        return quad(g, *args, **kwargs)

    monkeypatch.setattr(estimators, "integrate_panels", recording)
    return perron_verify(x, y, T), calls


@pytest.mark.parametrize("x, y, T, panels", [(*_PERRON_CELLS[0], 110), (*_PERRON_CELLS[1], 238)])
def test_perron_panel_count(monkeypatch, x, y, T, panels):
    # base panels one period of the fastest factor wide, 2 pi / max(log x,
    # log y): ceil(T max(log x, log y) / 2 pi) of them, none split, so one
    # integrand call, one row of the 31 Gauss-Kronrod nodes per panel
    _, calls = _perron_panels(monkeypatch, x, y, T)
    assert [ts.shape for ts in calls] == [(panels, 31)]
    assert panels == math.ceil(T * max(math.log(x), math.log(y)) / (2 * math.pi))


@pytest.mark.parametrize("x, y, T", _PERRON_CELLS)
def test_perron_anchor_is_exact_and_matches_the_direct_line_product(monkeypatch, x, y, T):
    # the integrand anchors each row at its middle node, column 15, the
    # panel's midpoint: ts[0] - ts[0, 15] is exact and shared by every row,
    # so the anchored nodes are the panels' own, and log H there agrees
    # with the product at the nodes themselves
    res, calls = _perron_panels(monkeypatch, x, y, T)
    log_h = euler.h_log_line(res.alpha, y)
    for ts in calls:
        d, mids = ts[0] - ts[0, 15], ts[:, 15]
        assert np.array_equal(ts, mids[:, None] + d)
        anchored, direct = log_h(d, mids), log_h(ts)
        assert anchored.shape == direct.shape == ts.shape
        assert np.max(np.abs(anchored.real - direct.real)) <= 1e-13
        phase = np.angle(np.exp(1j * (anchored.imag - direct.imag)))
        assert np.max(np.abs(phase)) <= 1e-13


class _CountingNumpy:
    """numpy, but counting the elements of the 2-D complex exps: the phase
    factors of the offsets and of the centers, one per node and prime."""

    def __init__(self):
        self.phase_exps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, v, *args, **kwargs):
        if np.ndim(v) == 2:
            self.phase_exps += np.size(v)
        return np.exp(v, *args, **kwargs)


@pytest.mark.parametrize("x, y, T, panels", [(*_PERRON_CELLS[0], 110), (*_PERRON_CELLS[1], 238)])
def test_perron_forms_the_offset_phase_factors_once_per_level(monkeypatch, x, y, T, panels):
    # one level of panels: the 31 offsets' phase factors once, then one
    # complex exp per prime per panel midpoint
    counting = _CountingNumpy()
    monkeypatch.setattr(euler, "np", counting)
    _, calls = _perron_panels(monkeypatch, x, y, T)
    assert len(calls) == 1
    assert counting.phase_exps == (31 + panels) * len(prime_table(y))


def test_perron_kept_phase_factors_equal_fresh_ones_bitwise():
    # the function keeps nothing between calls: one called before, at other
    # centers, gives a fresh function's floats
    d = 0.25 * np.linspace(-1.0, 1.0, 46)
    kept = euler.h_log_line(0.8, 1000)
    kept(d, 3.0)
    for center in (3.0, 5.5, 41.25):
        assert np.array_equal(kept(d, center), euler.h_log_line(0.8, 1000)(d, center))


def test_perron_line_product_shared_between_threads(monkeypatch):
    # 8 threads call one function at once, with 16 offset arrays cut into
    # two chunks and one or two centers each: the function keeps no state,
    # so every result is what a fresh function gives
    monkeypatch.setattr(euler, "_LINE_CHUNK_BYTES", 16 * 4 * 23)  # 23 nodes at y = 10
    calls = [
        (0.01 * (1 + i % 16) * np.linspace(-1.0, 1.0, 46), 3.0 + np.arange(1 + i % 2))
        for i in range(400)
    ]
    want = [euler.h_log_line(0.8, 10)(d, c) for d, c in calls]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            log_h = euler.h_log_line(0.8, 10)
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda args: log_h(*args), calls))
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    finally:
        sys.setswitchinterval(switch)


def test_perron_error_decays_envelope():
    # the truncation error oscillates in T; compare well-separated T values
    errs = [abs(perron_verify(100.5, 100, T).error) for T in (10.0, 50.0, 200.0)]
    assert errs[2] < errs[0]
    assert errs[2] < 0.01 * 316


def test_difference_check_z1():
    rep = difference_check(500, 30, 1.0)
    want = exact_circle_sum(1000, 30).value - exact_circle_sum(500, 30).value
    assert rep.lhs == want
    assert rep.lhs >= 0
    assert rep.ratio > 0


def test_difference_check_example_cell():
    rep = difference_check(10**4, 100, 10.0)
    assert rep.lhs >= 0
    assert 0.01 < rep.ratio < 100  # measured 0.27; O(1) scale-free diagnostic
    assert rep.scale == pytest.approx(math.exp(log_rankin_bound(10**4, 100) - math.log(4)) / 10.0, rel=1e-12)


def test_difference_check_z_window():
    big_z = math.exp(math.log(100) ** 1.25)
    with pytest.raises(DomainError):
        difference_check(10**4, 100, big_z * 1.01)
    with pytest.raises(DomainError):
        difference_check(10**4, 100, 0.5)


def test_compare_cell_gauss():
    row = compare_cell(100, 100, with_exact=True)
    assert row.exact == 316
    assert row.rankin >= row.exact
    assert row.ratio_goswami == pytest.approx(math.pi * 100 / 316, rel=1e-12)
    assert row.thm2 is None  # u = 1: no closed-form estimate
    assert FLAG_OUTSIDE_THM2 in row.flags
    assert FLAG_OUTSIDE_THM1 in row.flags  # u below (log log y)^2 window


def test_compare_cell_without_exact():
    row = compare_cell(10**4, 30, with_exact=False)
    assert row.exact is None
    assert row.ratio_thm1 is None and row.ratio_goswami is None
    assert row.thm1 > 0 and row.goswami > 0 and row.rankin > 0


def test_compare_cell_flags_an_overflowing_thm1(monkeypatch):
    # a main term past float range reads inf and is flagged, never silently
    monkeypatch.setattr(estimators, "log_saddle_point_estimate", lambda x, y, seed=None: 800.0)
    row = compare_cell(1e12, 100, False)
    assert row.thm1 == math.inf
    assert FLAG_OVERFLOW in row.flags


def test_exp_or_inf_is_finite_up_to_the_float_range():
    # exp(709.5) = 1.35e308 is a float, exp(710) is not
    assert estimators._exp_or_inf(709.5) == math.exp(709.5) < math.inf
    assert estimators._exp_or_inf(710.0) == math.inf


def test_compare_cell_infinite_x_is_a_failed_cell():
    # solve_alpha rejects x = inf, so the row is the one of a failed solve,
    # not estimates at u = inf with an unflagged goswami = nan
    assert compare_cell(math.inf, 100, with_exact=False) == ComparisonRow(x=math.inf, y=100)


@pytest.mark.parametrize("x, y", WORKLOAD_CELLS)
def test_compare_cell_estimates_are_the_unseeded_ones(x, y):
    # compare_cell seeds both solves at its own alpha: the floats do not move
    row = compare_cell(x, y, with_exact=False)
    assert row.thm1 == estimators._exp_or_inf(log_saddle_point_estimate(x, y))
    assert row.rankin == estimators._exp_or_inf(log_rankin_bound(x, y))


def test_compare_cell_sums_each_order_once_at_alpha(monkeypatch):
    # The cold solve's passes over the cell's primes, one of orders (1, 2)
    # per Newton iteration, and then one pass for Thm 1's phi: the seeded
    # solves, phi_2 at alpha and the Rankin bound's log H read the sums the
    # kernel already holds.  The model seed's passes over the p <= 1000
    # reach the kernel too, at y = 1000, and are not counted.
    passes = []

    def counting(s, y, k):
        passes.append((y, k))
        return kernel_pass(s, y, k)

    cells = WORKLOAD_CELLS[:9]
    iters = [solve_alpha(x, y).iters for x, y in cells]
    # 4 passes there: 6 from the closed-form seed, 9 before the memo
    assert dict(zip(cells, iters))[1e30, 10**6] == 3
    euler._memo = (math.nan, 0, {})
    kernel_pass = euler._kernel_pass
    monkeypatch.setattr(euler, "_kernel_pass", counting)
    for (x, y), n in zip(cells, iters):
        passes.clear()
        compare_cell(x, y, False)
        assert [k for yy, k in passes if yy == y] == [(1, 2)] * n + [(0,)], (x, y)


def test_compare_cell_budget_flag():
    row = compare_cell(10**6, 300, with_exact=True, node_budget=100)
    assert row.exact is None
    assert FLAG_ORACLE_SKIPPED in row.flags
    assert row.thm1 > 0  # estimates survive the oracle skip


def test_compare_grid_order_and_errors():
    rows = compare_grid([100.0, 1000.0], [10, 20], with_exact=True)
    assert [(r.x, r.y) for r in rows] == [(100.0, 10), (100.0, 20), (1000.0, 10), (1000.0, 20)]
    with pytest.raises(DomainError):
        compare_grid([], [10])
    for xs, ys in (([100.0], [1]), ([100.0, 1.0], [10]), ([math.nan], [10])):
        with pytest.raises(DomainError):
            compare_grid(xs, ys)


def test_comparison_row_rejects_rankin_violation():
    with pytest.raises(SmoothCircleError):
        ComparisonRow(x=10, y=2, exact=100, rankin=50.0)


def test_csv_and_json_rendering():
    rows = compare_grid([100.0], [10], with_exact=True)
    dicts = [r.__dict__.copy() for r in rows]
    columns = (
        "x,y,u,alpha,residual,exact,thm1,thm2,goswami,"
        "rankin,ratio_thm1,ratio_thm2,ratio_goswami,flags"
    )
    csv_text = rows_to_csv(dicts, "cafe01234567")
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("# smoothcircle ")
    assert "config=cafe01234567" in lines[0]
    assert lines[1] == columns  # the row's fields, in order
    assert len(lines) == 3

    doc = json.loads(rows_to_json(dicts, "cafe01234567"))
    assert doc["config"] == "cafe01234567"
    assert ",".join(doc["rows"][0]) == columns
    assert doc["rows"][0]["exact"] == rows[0].exact

    # determinism: identical inputs give identical bytes
    assert csv_text == rows_to_csv(dicts, "cafe01234567")


def test_nan_renders_as_nan():
    rows = [{"x": 2.0, "value": math.nan}]
    assert rows_to_csv(rows, "cafe01234567").splitlines()[1:] == ["x,value", "2,nan"]
    assert json.loads(rows_to_json(rows, "cafe01234567"))["rows"] == [{"x": 2.0, "value": "nan"}]
