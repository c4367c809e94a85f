"""Command-line front end.

Subcommands: exact, alpha, hval, estimate, compare, perron, xi, rho,
primesums, diffcheck.  Results go to stdout as CSV (or JSON with
--format json), diagnostics to stderr.  Exit codes: 0 success, 1 input
error, 2 resource error (a refused allocation too) or convergence error.

The global flags --config and --format may come before or after the
subcommand; when one is given on both sides, the later occurrence wins.

Identical invocations give identical bytes on one numpy build at one SIMD
dispatch level; across levels numpy's exp, log and complex kernels round
differently.  Over the benchmark's 22 workload invocations at seeds 0-2,
numpy 2.4.6 on an x86-64 Xeon at its X86_V2, X86_V3 and AVX512_SPR levels
gave the same bytes for 11.  Never moved: every input, integer and flags
column, compare's exact, thm1, thm2, goswami, rankin and ratios, all of
hval, diffcheck's alpha and lhs, perron's alpha and primesums' main_term.
Moved, at most: compare alpha 1 ulp, perron integral 5, diffcheck scale 16
and ratio 13, primesums value 1.  perron error and primesums deviation
move by as much as integral and value; compare residual, phi_1(alpha) +
log x, by up to 2 ulps of log x, which can flip its sign.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from functools import lru_cache

import numpy as np

from .config import Config, config_hash, load_config
from .counting import exact_circle_sum
from .errors import (
    ConvergenceError,
    DomainError,
    ResourceBudgetError,
    SmoothCircleError,
)
from .estimators import FLAG_OVERFLOW, FLAG_UNDERFLOW
from .estimators import compare_grid, difference_check, perron_verify
from .euler import h_value, phi_derivatives
from .prime_sums import weighted_prime_sum
from .report import render
from .saddle import solve_alpha
from . import dickman


class CliInputError(SmoothCircleError):
    """Bad command line; carries the usage text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        raise CliInputError(f"{self.format_usage()}error: {message}")


def _finite_float(text: str) -> float:
    """A float option value; nan, inf and literals that overflow are input errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    """A comma-separated list option; empty items are skipped, an empty list is an error."""
    vals = [_finite_float(tok) for tok in text.split(",") if tok]
    if not vals:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return vals


def _int_list(text: str) -> list[int]:
    vals = _float_list(text)
    for f in vals:
        if not f.is_integer():
            raise argparse.ArgumentTypeError(f"expected integers, got {f!r}")
    return [int(f) for f in vals]


def _global_flags(default) -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--config", default=default,
        help="config file (key=value lines); overrides $SMOOTHCIRCLE_CONFIG",
    )
    flags.add_argument(
        "--format", choices=("csv", "json"), default=default,
        help="output format (default csv)",
    )
    return flags


def _add_x_or_u(sp: argparse.ArgumentParser) -> None:
    """Exactly one of --x and --u; giving both, or neither, is a usage error."""
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--x", type=_finite_float)
    group.add_argument("--u", type=_finite_float, help="alternative to --x: x = y**u")


def build_parser() -> _Parser:
    description = __doc__.split("\n\n")[0]  # the contract stays in the source
    p = _Parser(prog="smoothcircle", description=description, parents=[_global_flags(None)])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # The subparser copies write a flag only when it is given after the
    # subcommand; a None default there would erase one given before it.
    sub_flags = _global_flags(argparse.SUPPRESS)

    def add_parser(name: str, help_text: str):
        return sub.add_parser(name, help=help_text, parents=[sub_flags])

    sp = add_parser("exact", "exact circle sum over smooth numbers")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--method", choices=("auto", "sieve", "recursive"), default="auto")

    sp = add_parser("alpha", "solve the saddle-point equation")
    _add_x_or_u(sp)
    sp.add_argument("--y", type=int, required=True)

    sp = add_parser("hval", "Euler product H(s; y) and log-derivatives")
    sp.add_argument("--sigma", type=_finite_float, required=True)
    sp.add_argument("--t", type=_finite_float, default=0.0)
    sp.add_argument("--y", type=int, required=True)

    sp = add_parser("estimate", "asymptotic estimates for one cell")
    _add_x_or_u(sp)
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--with-exact", action="store_true")

    sp = add_parser("compare", "estimate sweep over a grid")
    sp.add_argument("--grid-x", type=_float_list, required=True)
    sp.add_argument("--grid-y", type=_int_list, required=True)
    sp.add_argument("--with-exact", action="store_true")

    sp = add_parser("perron", "truncated Perron integral vs the exact sum")
    sp.add_argument("--x", type=_finite_float, required=True)
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--T", type=_finite_float, required=True)

    sp = add_parser("xi", "xi(u): nonzero root of e^xi = 1 + u xi")
    sp.add_argument("--u", type=_float_list, required=True)

    sp = add_parser("rho", "Dickman rho(u)")
    sp.add_argument("--u", type=_float_list, required=True)

    sp = add_parser("primesums", "weighted prime sums with main terms")
    sp.add_argument("--x", type=_float_list, required=True, help="threshold(s)")
    sp.add_argument("--sigma", type=_finite_float, default=0.0)
    sp.add_argument("--twist", action="store_true")

    sp = add_parser("diffcheck", "short-interval increment diagnostic")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--z", type=_finite_float, required=True)
    return p


@lru_cache(maxsize=1)
def _parser() -> _Parser:
    """build_parser's parser, built once per process: parse_args keeps no
    state between calls, so main reuses it (a first build took 3.4-5.1 ms
    on a 2-vCPU Xeon, a second 1.3-2.0 ms)."""
    return build_parser()


def _resolve_x(args) -> float:
    if args.x is not None:
        return args.x
    if args.y < 2:  # a negative y would make y**u complex
        raise DomainError(f"--u needs y >= 2, got {args.y}")
    try:
        return float(args.y) ** args.u
    except OverflowError:
        raise DomainError(f"x = y**u overflows at y={args.y}, u={args.u}") from None


def _run(args, cfg: Config) -> list[dict]:
    """The result rows of one subcommand, each dict's keys in column order."""
    if args.command == "exact":
        c = exact_circle_sum(args.x, args.y, args.method, node_budget=cfg.node_budget)
        return [asdict(c)]

    if args.command == "alpha":
        row = asdict(solve_alpha(_resolve_x(args), args.y))
        row["bracket_lo"], row["bracket_hi"] = row.pop("bracket")
        return [row]

    if args.command == "hval":
        # At t = 0, H is exp(phi), the float h_value gives, from the kernel
        # pass that gives the phi columns; off the axis those stay empty.
        phi = d1 = d2 = d3 = d4 = None
        if args.t == 0.0:
            d = phi_derivatives(args.sigma, args.y)
            phi, (d1, d2, d3, d4) = d.phi, d.d
            with np.errstate(over="ignore"):
                hv = complex(np.exp(phi))
        else:
            hv = h_value(complex(args.sigma, args.t), args.y)
        # |H| or a phi column past float range reads inf (or |H| 0), flagged
        big = any(v is not None and math.isinf(v) for v in (abs(hv), phi, d1, d2, d3, d4))
        flags = (FLAG_OVERFLOW,) if big else (FLAG_UNDERFLOW,) if hv == 0 else ()
        return [{"sigma": args.sigma, "t": args.t, "y": args.y, "re": hv.real, "im": hv.imag,
                 "phi": phi, "phi1": d1, "phi2": d2, "phi3": d3, "phi4": d4, "flags": flags}]

    if args.command in ("estimate", "compare"):
        if args.command == "estimate":
            xs, ys = [_resolve_x(args)], [args.y]
        else:
            xs, ys = args.grid_x, args.grid_y
        rows = compare_grid(xs, ys, args.with_exact, node_budget=cfg.node_budget)
        return [asdict(r) for r in rows]

    if args.command == "perron":
        r = perron_verify(args.x, args.y, args.T, node_budget=cfg.node_budget)
        return [asdict(r)]

    if args.command in ("xi", "rho"):
        f = dickman.xi if args.command == "xi" else dickman.rho
        return [{"u": u, "value": f(u)} for u in args.u]

    if args.command == "primesums":
        # the report's fields after the options; its x is the row's x
        return [{"x": x, "sigma": args.sigma, "twist": args.twist}
                | asdict(weighted_prime_sum(x, args.sigma, args.twist)) for x in args.x]

    # diffcheck: the required subparsers admit no other command
    r = difference_check(args.x, args.y, args.z, node_budget=cfg.node_budget)
    return [asdict(r)]


def main(argv: list[str] | None = None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _parser().parse_args(argv)
        cfg = load_config(args.config)
        out.write(render(_run(args, cfg), config_hash(cfg), args.format or "csv"))
        return 0
    except CliInputError as exc:
        err.write(f"{exc}\n")
        return 1
    except DomainError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except (ResourceBudgetError, ConvergenceError, MemoryError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def console_main() -> None:
    sys.exit(main())
