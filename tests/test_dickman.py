import io
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothcircle import cli, dickman, numutil
from smoothcircle.config import RHO_SADDLE_WINDOW, XI_LOGLOG_ENVELOPE
from smoothcircle.dickman import (
    DickmanTable,
    build_dickman_table,
    exp_integral,
    rho,
    rho_saddle_form,
    xi,
    xi_prime,
)
from smoothcircle.errors import DomainError
from smoothcircle.numutil import EULER_GAMMA, bracketed_newton, integrate_panels

from oracles import converted_oracle_series, rho_table_text, xi_decimal

E = math.e


def test_xi_anchor_values():
    assert xi(1.0) == 0.0
    # invert u = (e^v - 1)/v at v = 1 and v = 2
    assert xi(E - 1) == pytest.approx(1.0, abs=1e-14)
    assert xi((E**2 - 1) / 2) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(DomainError):
        xi(0.99)


@given(st.floats(math.log(1.01), math.log(1000.0)))
@settings(max_examples=300)
def test_xi_roundtrip(logu):
    u = math.exp(logu)
    v = xi(u)
    assert abs(math.expm1(v) - u * v) <= 1e-12 * max(1.0, u * v)


def test_xi_strictly_increasing():
    us = np.exp(np.linspace(math.log(1.001), math.log(1000), 200))
    vals = [xi(float(u)) for u in us]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_xi_log_envelope():
    for u in (10, 30, 100, 1000):
        envelope = XI_LOGLOG_ENVELOPE * math.log(math.log(u)) / math.log(u)
        assert abs(xi(u) - math.log(u * math.log(u))) <= envelope


def test_xi_prime_values():
    assert xi_prime(E - 1) == pytest.approx(1.0, rel=1e-13)
    u = (E**2 - 1) / 2
    assert xi_prime(u) == pytest.approx(2 / (1 + u), rel=1e-13)  # = 0.476812...
    with pytest.raises(DomainError):
        xi_prime(1.0)


def test_xi_prime_matches_central_differences():
    for u in (1.5, 2.0, 7.0, 40.0, 500.0):
        h = 1e-6 * u
        numeric = (xi(u + h) - xi(u - h)) / (2 * h)
        assert xi_prime(u) == pytest.approx(numeric, rel=1e-6)


def test_xi_prime_large_u():
    u = 1000.0
    assert xi_prime(u) * u == pytest.approx(1.0, rel=0.2)


def test_rho_flat_piece():
    assert rho(0.0) == 1.0
    assert rho(0.5) == 1.0
    assert rho(1.0) == 1.0
    with pytest.raises(DomainError):
        rho(-0.1)


def test_rho_analytic_values():
    # rho = 1 - log u on [1, 2]
    assert rho(2.0) == pytest.approx(1 - math.log(2), abs=1e-13)
    assert rho(1.5) == pytest.approx(1 - math.log(1.5), abs=1e-13)
    # frozen quadrature oracle (forward Simpson, step 1e-5, run separately)
    assert rho(3.0) == pytest.approx(0.04860838829113281, abs=1e-9)


def test_rho_against_quadrature_oracle():
    # independent route: fixed-grid forward Simpson with interpolated
    # midpoints, float arithmetic, step 2e-4 (sound for u <= 6)
    oracle = _rho_quadrature(5000, 6)
    for u in (1.25, 2.5, 3.75, 5.0, 6.0):
        assert rho(u) == pytest.approx(oracle[int(u * 5000)], rel=1e-9)


def _rho_quadrature(N, umax):
    weights = {
        0.5: (5 / 16, 15 / 16, -5 / 16, 1 / 16),
        1.5: (-1 / 16, 9 / 16, 9 / 16, -1 / 16),
        2.5: (1 / 16, -5 / 16, 15 / 16, 5 / 16),
    }
    vals = [1.0] * (N + 1)
    for j in range(N + 1, umax * N + 1):
        g1 = vals[j - 1 - N] / ((j - 1) / N)
        g2 = vals[j - N] / (j / N)
        m = j - 1 - N
        k0 = (m // N) * N
        lo = min(max(m - 1, k0), k0 + N - 3)
        w = weights[m + 0.5 - lo]
        mid = w[0] * vals[lo] + w[1] * vals[lo + 1] + w[2] * vals[lo + 2] + w[3] * vals[lo + 3]
        gm = mid / ((j - 1) / N + 0.5 / N)
        vals.append(vals[j - 1] - (g1 + 4 * gm + g2) / (6 * N))
    return vals


def test_rho_strictly_decreasing():
    # in [0, 1], strictly decreasing while positive, 0 from the clamp on
    us = np.linspace(130, 1.01, 1200)
    vals = [rho(float(u)) for u in us][::-1]
    assert all(0.0 <= v <= 1.0 for v in vals)
    live = [v for v in vals if v > 0.0]
    assert 0 < len(live) < len(vals)
    assert vals[: len(live)] == live
    assert all(a > b for a, b in zip(live, live[1:]))


def _dilog(z):
    # Li2(z) for -2 <= z <= -1 by Landen's identity; the series at
    # w in [1/2, 2/3] is far below float precision after 400 terms
    w = z / (z - 1.0)
    return -math.fsum(w**k / k**2 for k in range(1, 400)) - 0.5 * math.log1p(-z) ** 2


def test_rho_matches_closed_forms_off_grid():
    rng = np.random.default_rng(7)
    for u in rng.uniform(1.0, 2.0, 250):
        assert rho(float(u)) == pytest.approx(1.0 - math.log(u), rel=1e-14, abs=0)
    for u in rng.uniform(2.0, 3.0, 250):
        want = (1.0 - (1.0 - math.log(u - 1.0)) * math.log(u)
                + _dilog(1.0 - u) + math.pi**2 / 12.0)
        assert rho(float(u)) == pytest.approx(want, rel=5e-14, abs=0)


# A fresh table read in the last interval below each extent, at the one
# precision; extents past the table's 128 read its last interval, 127.
# The read fills that interval's slot alone.
@pytest.mark.parametrize("u_max", [2, 3, 17, 38, 59, 64, 70, 100, 152, 169])
def test_rho_table_cuts_as_if_every_coefficient_were_converted(u_max):
    k = min(u_max, DickmanTable.u_max) - 1
    table = DickmanTable()
    table.value_at(k + 0.5)
    want = [None] * len(converted_oracle_series())
    want[k - 1] = converted_oracle_series()[k - 1]
    assert table._coeffs == want


def test_rho_table_file_is_the_oracle_text():
    # the shipped table is exactly what the 341-digit oracle renders
    shipped = resources.files("smoothcircle").joinpath("rho_table.txt").read_bytes()
    assert shipped == rho_table_text().encode("ascii")


def test_concurrent_first_reads_match_one_thread():
    # threads released together on a fresh table, two to each interval,
    # parse the interval they read; none raises, each series lands in its
    # own slot, and no other slot is filled.  A short switch interval lets
    # the threads interleave within one parse.
    us = (60.5, 61.5, 90.5, 120.5)
    want = [DickmanTable().value_at(u) for u in us]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            table = DickmanTable()
            barrier = threading.Barrier(2 * len(us))

            def read(u):
                barrier.wait(timeout=30)
                return table.value_at(u)

            with ThreadPoolExecutor(2 * len(us)) as pool:
                got = list(pool.map(read, us + us))
            assert got == want + want
            series = converted_oracle_series()
            assert table._coeffs == [
                series[k - 1] if k in (60, 61, 90, 120) else None
                for k in range(1, len(series) + 1)
            ]
    finally:
        sys.setswitchinterval(switch)


def test_import_reads_no_table():
    # importing the CLI reads nothing: the first rho builds the table,
    # which reads the file
    env = os.environ | {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys, smoothcircle.cli, smoothcircle.dickman as d; sys.exit(d._table is not None)"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize(
    "f", [rho, lambda u: DickmanTable().value_at(u), xi], ids=["rho", "value_at", "xi"]
)
def test_nan_raises_domain_error(f):
    with pytest.raises(DomainError):
        f(math.nan)


@pytest.mark.parametrize("f", [xi, xi_prime], ids=["xi", "xi_prime"])
def test_infinite_u_raises_domain_error(f):
    with pytest.raises(DomainError):
        f(math.inf)


def test_xi_at_2_starts_from_an_empty_bracket():
    # At u = 2 the bracket used to start empty, both ends at 1; the solve
    # now starts from the seed in (0, inf).  The float is the one the solve
    # has always returned.
    assert xi(2.0) == 1.2564312086261697


@pytest.mark.parametrize("u", [1e151, 1e200, 1e300, sys.float_info.max])
def test_xi_past_the_exp_range(u):
    # Past u of about 1e151 a doubled bracket end once passed z = 709, where
    # e^z nears float range, and for u = float max the root itself lies past
    # it (about 716): the residual e^xi = 1 + u xi is checked in log form,
    # xi = log u + log(xi + 1/u).
    v = xi(u)
    assert 2.0 < v < 720.0
    assert abs(v - (math.log(u) + math.log(v + 1.0 / u))) <= 1e-15 * v


def test_xi_below_the_guard_is_unchanged():
    # Up to u = 1e150 no evaluation passes z = 709.  xi(1e150) was
    # 351.2492600631708, 0.82 ulp from the root, while the solve bisected
    # from a stale bracket end once Newton had stagnated; it now stops on
    # the Newton iterate, 0.18 ulp from the root (a 60-digit solve).
    assert xi(1e100) == 235.72115887568532
    assert xi(1e150) == 351.2492600631709


def test_xi_stops_when_newton_stagnates(monkeypatch):
    # A Newton step that rounds back onto an iterate that just became the
    # bracket's hi ends the solve; it used to bisect from the first
    # iterate instead, 50 iterations at u = 1e10, 45 of them bisections.
    iters = []

    def counted(*args, **kwargs):
        res = bracketed_newton(*args, **kwargs)
        iters.append(res[2])
        return res

    monkeypatch.setattr(dickman, "bracketed_newton", counted)
    assert xi(1e10) == 26.29523881925088
    assert len(iters) == 1 and iters[0] <= 8


@pytest.mark.parametrize("u", [1 + 1e-12, 1 + 1e-8, 1 + 1.6e-8, 1 + 1e-4, 1.5, 2.0])
def test_xi_near_1_within_4_ulps(u):
    # In e^z - 1 - u z the leading z cancels, which cost up to 6e-9
    # relative near u - 1 = 1.6e-8; (e^z - 1 - z)/z = u - 1 keeps it.
    want = xi_decimal(u)
    assert abs(xi(u) - float(want)) <= 4 * math.ulp(float(want))
    # xi' = xi / (u xi - (u - 1)) keeps it too: 1 + u xi - u cost up to 8e-9
    want_prime = want / (Decimal(u) * want - (Decimal(u) - 1))
    assert abs(Decimal(xi_prime(u)) / want_prime - 1) <= Decimal("1e-15")


def test_rho_underflow_clamp():
    # rho(125) is already below 1e-300: the table's clamp, not the cut at
    # _U_CUT, reads 0 at 125.5
    assert DickmanTable().value_at(125.5) == 0.0
    assert rho(125.5) == 0.0


def test_rho_auto_extends_table():
    assert 0.0 < rho(70.0) < 1e-100


def _record_builds(monkeypatch):
    built = []
    real = dickman.build_dickman_table

    def recording():
        table = real()
        built.append(table.u_max)
        return table

    monkeypatch.setattr(dickman, "build_dickman_table", recording)
    monkeypatch.setattr(dickman, "_table", None)
    return built


def test_rho_ascending_sweep_builds_one_table(monkeypatch):
    built = _record_builds(monkeypatch)
    vals = [rho(float(u)) for u in range(65, 131)]
    assert built == [128]  # two past _U_CUT
    live = [v for v in vals if v > 0.0]
    assert all(a > b for a, b in zip(live, live[1:]))


def test_rho_builds_one_table_in_any_order(monkeypatch):
    # the compare sweep's order, a small u then a large one, and back down:
    # the one table reaches _U_CUT + 2, so no later u builds another
    built = _record_builds(monkeypatch)
    rho(3.0)
    rho(120.0)
    rho(2.5)
    rho(125.9)
    rho(150.0)
    assert built == [128]
    assert rho(125.9) == dickman._table.value_at(125.9)


def test_rho_up_to_1_builds_no_table(monkeypatch):
    built = _record_builds(monkeypatch)
    assert rho(0.0) == rho(0.5) == rho(1.0) == 1.0
    assert built == [] and dickman._table is None


def _parsed_intervals():
    return {k for k, c in enumerate(dickman._table._coeffs, 1) if c is not None}


def test_rho_first_call_converts_only_its_intervals(monkeypatch):
    # rho(3.5) reads interval [3, 4], so a fresh table parses interval 3
    # and no other; each later u adds its own interval alone
    _record_builds(monkeypatch)
    rho(3.5)
    assert _parsed_intervals() == {3}
    rho(2.5)
    assert _parsed_intervals() == {2, 3}
    rho(7.25)
    assert _parsed_intervals() == {2, 3, 7}


def test_compare_sweep_parses_only_the_intervals_its_u_land_in(monkeypatch):
    # the nine cells of the benchmark's estimates sweep read rho at
    # u = log x / log y, which rounds to just below 3, 6, 7.5, 15 and 75 and
    # lands on 2, 5 and 50; u near 150 is past the clamp and reads no interval
    _record_builds(monkeypatch)
    argv = ["compare", "--grid-x", "1e12,1e30,1e300", "--grid-y", "100,10000,1000000"]
    assert cli.main(argv, stdout=io.StringIO()) == 0
    assert _parsed_intervals() == {2, 5, 7, 14, 50, 74}


def _log_laplace_bound(u):
    """log of xi e^(gamma + I(xi)) / (e^(xi u) - 1), xi = xi(u), the bound
    on rho(u) that rho's docstring derives from its Laplace transform."""
    v = xi(u)
    z = v * u
    return math.log(v) + EULER_GAMMA + exp_integral(v) - z - math.log(-math.expm1(-z))


def test_laplace_bound_is_above_the_table():
    table = build_dickman_table()
    for u in np.linspace(1.5, 127.0, 1001):
        value = table.value_at(u)
        if value > 0.0:
            assert math.log(value) <= _log_laplace_bound(u)
    # within 2.3 decades of rho at the cut's end of the range
    assert _log_laplace_bound(120.0) - math.log(table.value_at(120.0)) < 2.3 * math.log(10.0)


def test_u_cut_from_the_laplace_bound():
    # the first integer u whose bound is below the clamp; rho is
    # nonincreasing, so every u past it is below the clamp as well
    log_clamp = math.log(dickman.RHO_UNDERFLOW)
    assert dickman._U_CUT == next(k for k in range(2, 200) if _log_laplace_bound(k) < log_clamp)
    assert dickman._U_CUT == 126


def test_rho_gamma_bound_and_cut():
    # rho(u) <= 1/Gamma(u + 1) on the table, and past _U_CUT rho is 0.0
    # without a table being built
    for u in (2.5, 10.0, 40.0, 63.0):
        assert rho(u) <= math.exp(-math.lgamma(u + 1.0))
    before = dickman._table
    assert rho(1023.15) == 0.0
    assert rho(float(dickman._U_CUT)) == 0.0
    assert dickman._table is before


def test_exp_integral_series_values():
    # independent oracle: exact rational partial sums of sum v^k/(k k!)
    def oracle(v, terms=60):
        acc = Fraction(0)
        fact = 1
        for k in range(1, terms + 1):
            fact *= k
            acc += Fraction(v) ** k / (k * fact)
        return float(acc)

    assert exp_integral(0.0) == 0.0
    assert exp_integral(1.0) == pytest.approx(oracle(1), rel=1e-14)
    assert exp_integral(2.0) == pytest.approx(oracle(2), rel=1e-14)
    # frozen: oracle(1) = 1.3179021514544038, oracle(2) = 3.6838715105404125
    assert exp_integral(1.0) == pytest.approx(1.3179021514544038, rel=1e-13)
    assert exp_integral(2.0) == pytest.approx(3.6838715105404125, rel=1e-13)
    for bad in (-1.0, math.nan):
        with pytest.raises(DomainError):
            exp_integral(bad)


def test_exp_integral_quadrature_branch(monkeypatch):
    # large v needs no quadrature fallback: every term of the series is
    # positive, and it matches both the exact rational series and a panel
    # quadrature of the integrand, refined to 1e-13
    monkeypatch.setattr(numutil, "_QUAD_RTOL", 1e-13)
    monkeypatch.setattr(numutil, "_QUAD_ATOL", 1e-13)
    def oracle(v, terms=450):
        acc = Fraction(0)
        fact = 1
        for k in range(1, terms + 1):
            fact *= k
            acc += Fraction(v) ** k / (k * fact)
        return float(acc)

    def integrand(s):
        return np.expm1(s) / s  # Gauss nodes are interior, s > 0

    for v in (35.0, 120.0):
        assert exp_integral(v) == pytest.approx(oracle(int(v)), rel=1e-13)
        quad = integrate_panels(integrand, 0.0, v, 1.0)
        assert exp_integral(v) == pytest.approx(quad, rel=1e-12)


def test_rho_saddle_form_accuracy_trend():
    assert rho_saddle_form(2.0) == pytest.approx(rho(2.0), rel=0.5)
    lo, hi = RHO_SADDLE_WINDOW
    errs = []
    for u in (5.0, 10.0, 20.0, 40.0):
        ratio = rho_saddle_form(u) / rho(u)
        if u >= 10:
            assert lo <= ratio <= hi
        errs.append(abs(ratio - 1.0))
    assert errs == sorted(errs, reverse=True)
    with pytest.raises(DomainError):
        rho_saddle_form(1.0)


def test_rho_saddle_form_u_near_one():
    # as u -> 1+, xi -> 0 and the form tends to sqrt(2/(2 pi)) e^gamma = 1.00488...
    val = rho_saddle_form(1.0 + 1e-8)
    assert val == pytest.approx(math.sqrt(1 / math.pi) * math.exp(0.5772156649015329), rel=1e-4)
