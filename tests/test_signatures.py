"""The settable parameters of the package's solvers, sums and quadrature:
a value that one caller needs is a module constant, not a parameter."""

import inspect

import pytest

from smoothcircle.counting import exact_circle_sum
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
}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__name__)
def test_parameters(fn):
    assert _shape(fn) == SIGNATURES[fn]
