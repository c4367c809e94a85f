"""Span recorder for the traced run.

The tracer replaces each public function of smoothcircle at the module
attribute it is called through (``estimators.solve_alpha``,
``euler.csum``, ...) with a wrapper that records a span -- name, start,
end, parent -- and the counts the per-layer metrics need, then calls the
original.  Spans stay in memory; ``layer_metrics`` rolls them up into
per-layer counts, inclusive times and self times (a span's duration minus
that of its direct children).  ``uninstall`` puts every original back.

Nothing here edits the package: only attributes are rebound, from outside.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass

from smoothcircle import (
    cli,
    counting,
    dickman,
    estimators,
    euler,
    numutil,
    prime_sums,
    primes,
    saddle,
)

_now = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    """Records spans and counts around calls into the package's modules."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._prime_table = primes.prime_table  # the unwrapped, lru-cached original

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name; returns (result, span)."""
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = _now()
            self._stack.pop()
        return result, span

    def _patch(self, module, attr: str, name: str, after=None, before=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result, span = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(span, result, args, kwargs)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    # -- hooks -------------------------------------------------------------

    def _count(self, key: str):
        def after(span, result, args, kwargs):
            self.counts[key] += 1
        return after

    def _euler_after(self, span, result, args, kwargs):
        y = args[1] if len(args) > 1 else kwargs["y"]
        self.counts["euler.calls"] += 1
        self.counts["euler.prime_terms"] += len(self._prime_table(y))

    def _csum_after(self, span, result, args, kwargs):
        terms = args[0] if args else kwargs["terms"]
        self.counts["numutil.csum_calls"] += 1
        self.counts["numutil.csum_elements"] += len(terms)

    def _quad_before(self, owner: str):
        def before(args, kwargs):
            if args:
                f, rest = args[0], args[1:]
            else:
                f, rest = kwargs.pop("f"), ()

            def integrand(ts):
                self.counts["numutil.quad_evals"] += 1
                self.counts["numutil.quad_nodes"] += len(ts)
                return self.call(f"{owner}.integrand", f, ts)[0]

            return (integrand, *rest), kwargs
        return before

    def _solve_after(self, span, result, args, kwargs):
        self.counts["saddle.solves"] += 1
        self.counts["saddle.newton_iters"] += result.iters

    def _dickman_after(self, span, result, args, kwargs):
        self.counts["dickman.table_builds"] += 1
        u_max = max(self.counts["dickman.table_u_max"], result.u_max)
        self.counts["dickman.table_u_max"] = float(u_max)

    def _exact_after(self, span, result, args, kwargs):
        span.name = f"counting.{result.method}"
        self.counts[f"counting.{result.method}_calls"] += 1
        if result.method == "sieve":
            self.counts["counting.sieve_integers"] += result.x
            self.counts["counting.sieve_terms"] += result.terms
        else:
            self.counts["counting.recursive_nodes"] += result.terms

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary the per-layer metrics are measured at."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        p = self._patch
        p(primes, "sieve_primes", "primes.sieve_primes")
        for mod in (primes, euler, counting, prime_sums):
            p(mod, "prime_table", "primes.prime_table", self._count("primes.table_calls"))
        for mod, attr in ((saddle, "phi1_closed"), (saddle, "phi2_closed"),
                          (estimators, "h_log_real"), (estimators, "phi_derivatives"),
                          (cli, "h_value"), (cli, "phi_derivatives")):
            p(mod, attr, f"euler.{attr}", self._euler_after)
        for mod in (euler, prime_sums):
            p(mod, "csum", "numutil.csum", self._csum_after)
        p(estimators, "integrate_panels", "numutil.integrate_panels",
          before=self._quad_before("estimators"))
        p(numutil, "integrate_panels", "numutil.integrate_panels",
          before=self._quad_before("dickman"))
        for mod in (saddle, estimators, cli):
            p(mod, "solve_alpha", "saddle.solve_alpha", self._solve_after)
        p(dickman, "build_dickman_table", "dickman.build_dickman_table", self._dickman_after)
        for mod in (dickman, estimators):
            p(mod, "rho", "dickman.rho", self._count("dickman.rho_calls"))
        p(estimators, "rho_saddle_form", "dickman.rho_saddle_form")
        for mod in (estimators, cli):
            p(mod, "exact_circle_sum", "counting.exact_circle_sum", self._exact_after)
        p(estimators, "compare_cell", "estimators.compare_cell")
        p(cli, "compare_grid", "estimators.compare_grid")
        p(cli, "perron_verify", "estimators.perron_verify")
        p(cli, "difference_check", "estimators.difference_check")
        p(cli, "weighted_prime_sum", "prime_sums.weighted_prime_sum")
        p(cli, "render", "report.render")

    def uninstall(self) -> None:
        """Restore every patched attribute, last patched first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- rollup ----------------------------------------------------------------

    def layer_metrics(self, result_rows: int) -> dict[str, float]:
        """Per-layer counts and times; result_rows is the number of CLI rows."""
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        for i, s in enumerate(self.spans):
            inclusive[s.name] += s.end - s.start
            self_time[s.name] += s.end - s.start - child_time[i]

        def layer_self(layer: str) -> float:
            return sum(v for k, v in self_time.items() if k.split(".")[0] == layer)

        c = self.counts
        info = self._prime_table.cache_info()
        return {
            "primes.table_calls": c["primes.table_calls"],
            "primes.table_builds": float(info.misses),
            "primes.sieve_s": inclusive["primes.sieve_primes"],
            "euler.calls": c["euler.calls"],
            "euler.prime_terms": c["euler.prime_terms"],
            "euler.self_s": layer_self("euler"),
            "numutil.csum_calls": c["numutil.csum_calls"],
            "numutil.csum_elements": c["numutil.csum_elements"],
            "numutil.csum_s": inclusive["numutil.csum"],
            "numutil.quad_evals": c["numutil.quad_evals"],
            "numutil.quad_nodes": c["numutil.quad_nodes"],
            "numutil.quad_s": inclusive["numutil.integrate_panels"],
            "saddle.solves": c["saddle.solves"],
            "saddle.solves_per_cell": c["saddle.solves"] / max(result_rows, 1),
            "saddle.newton_iters": c["saddle.newton_iters"],
            "saddle.solve_s": inclusive["saddle.solve_alpha"],
            "dickman.table_builds": c["dickman.table_builds"],
            "dickman.table_u_max": c["dickman.table_u_max"],
            "dickman.table_build_s": inclusive["dickman.build_dickman_table"],
            "dickman.rho_calls": c["dickman.rho_calls"],
            "counting.sieve_calls": c["counting.sieve_calls"],
            "counting.sieve_integers": c["counting.sieve_integers"],
            "counting.sieve_terms": c["counting.sieve_terms"],
            "counting.sieve_s": inclusive["counting.sieve"],
            "counting.recursive_calls": c["counting.recursive_calls"],
            "counting.recursive_nodes": c["counting.recursive_nodes"],
            "counting.recursive_s": inclusive["counting.recursive"],
            "estimators.cell_self_s": self_time["estimators.compare_cell"],
            "estimators.perron_self_s": (self_time["estimators.perron_verify"]
                                         + self_time["estimators.integrand"]),
            "prime_sums.self_s": layer_self("prime_sums"),
            "report.render_s": inclusive["report.render"],
        }
