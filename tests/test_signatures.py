"""The settable parameters of the package's solvers, sums, quadrature,
estimators, Dickman table and config loader: a value that one caller needs
is a module constant, not a parameter."""

import inspect

import pytest

from smoothcircle.config import load_config
from smoothcircle.counting import exact_circle_sum
from smoothcircle.dickman import DickmanTable, build_dickman_table
from smoothcircle.estimators import compare_cell, compare_grid, difference_check
from smoothcircle.numutil import bracketed_newton, integrate_panels
from smoothcircle.saddle import solve_alpha


def _shape(fn) -> str:
    """fn's signature without annotations, each default other than None and
    'auto' written as …, since only the parameters are pinned here."""
    params = [
        p.replace(
            annotation=p.empty,
            default=p.default if p.default in (p.empty, None, "auto") else "…",
        )
        for p in inspect.signature(fn).parameters.values()
    ]
    return str(inspect.Signature(params)).replace("'…'", "…")


SIGNATURES = {
    bracketed_newton: "(fdf, x0, *, ftol)",
    solve_alpha: "(x, y, *, seed=None)",
    exact_circle_sum: "(x, y, method='auto', *, node_budget=…)",
    integrate_panels: "(f, a, b, panel_width, *, rtol=…, atol=…)",
    compare_grid: "(x_list, y_list, with_exact=…, *, node_budget=…)",
    compare_cell: "(x, y, with_exact, *, node_budget=…)",
    difference_check: "(x, y, z, *, node_budget=…)",
    load_config: "(path=None)",
    build_dickman_table: "()",
    DickmanTable: "()",
}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__name__)
def test_parameters(fn):
    assert _shape(fn) == SIGNATURES[fn]
