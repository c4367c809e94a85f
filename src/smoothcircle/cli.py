"""Command-line front end.

Subcommands: exact, alpha, hval, estimate, compare, perron, xi, rho,
primesums, diffcheck.  Results go to stdout as CSV (or JSON with
--format json), diagnostics to stderr.  Exit codes: 0 success, 1 input
error, 2 resource or convergence error.

The global flags --config and --format may come before or after the
subcommand; when one is given on both sides, the later occurrence wins.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict

from . import __version__
from .config import Config, config_hash, load_config
from .counting import exact_circle_sum
from .errors import (
    ConvergenceError,
    DomainError,
    ResourceBudgetError,
    SmoothCircleError,
)
from .estimators import compare_grid, difference_check, perron_verify
from .euler import h_value, phi_derivatives
from .prime_sums import weighted_prime_sum
from .report import COMPARE_COLUMNS, render
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
    return [_finite_float(tok) for tok in text.split(",") if tok]


def _int_list(text: str) -> list[int]:
    vals = []
    for tok in text.split(","):
        if not tok:
            continue
        f = _finite_float(tok)
        if not f.is_integer():
            raise argparse.ArgumentTypeError(f"expected integers, got {tok!r}")
        vals.append(int(f))
    return vals


def _global_flags(default) -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--config", default=default,
        help="config file (key=value lines); overrides $SMOOTHCIRCLE_CONFIG",
    )
    flags.add_argument(
        "--format", choices=("csv", "json"), default=default,
        help="output format (default from config)",
    )
    return flags


def build_parser() -> _Parser:
    p = _Parser(prog="smoothcircle", description=__doc__, parents=[_global_flags(None)])
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
    sp.add_argument("--x", type=_finite_float)
    sp.add_argument("--u", type=_finite_float, help="alternative to --x: x = y**u")
    sp.add_argument("--y", type=int, required=True)

    sp = add_parser("hval", "Euler product H(s; y) and log-derivatives")
    sp.add_argument("--sigma", type=_finite_float, required=True)
    sp.add_argument("--t", type=_finite_float, default=0.0)
    sp.add_argument("--y", type=int, required=True)

    sp = add_parser("estimate", "asymptotic estimates for one cell")
    sp.add_argument("--x", type=_finite_float)
    sp.add_argument("--u", type=_finite_float)
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
    sp.add_argument("--x", type=_float_list, help="threshold(s)")
    sp.add_argument("--grid-x", type=_float_list, help="alias list form of --x")
    sp.add_argument("--sigma", type=_finite_float, default=0.0)
    sp.add_argument("--twist", action="store_true")

    sp = add_parser("diffcheck", "short-interval increment diagnostic")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--z", type=_finite_float, required=True)
    return p


def _resolve_x(args) -> float:
    if args.x is not None:
        return args.x
    if getattr(args, "u", None) is not None:
        try:
            return float(args.y) ** args.u
        except OverflowError:
            raise DomainError(f"x = y**u overflows at y={args.y}, u={args.u}") from None
    raise CliInputError("one of --x or --u is required")


def _run(args, cfg: Config) -> tuple[tuple[str, ...], list[dict]]:
    if args.command == "exact":
        c = exact_circle_sum(
            args.x, args.y, args.method,
            node_budget=cfg.node_budget, segment_size=cfg.sieve_segment_size,
        )
        return ("x", "y", "value", "terms", "method"), [asdict(c)]

    if args.command == "alpha":
        r = solve_alpha(_resolve_x(args), args.y, tol=cfg.residual_tol)
        row = asdict(r)
        row["bracket_lo"], row["bracket_hi"] = row.pop("bracket")
        cols = ("x", "y", "u", "alpha", "residual", "iters", "bracket_lo", "bracket_hi")
        return cols, [row]

    if args.command == "hval":
        s = complex(args.sigma, args.t)
        hv = h_value(s, args.y)
        row = {"sigma": args.sigma, "t": args.t, "y": args.y, "re": hv.real, "im": hv.imag,
               "phi": None, "phi1": None, "phi2": None, "phi3": None, "phi4": None}
        if args.t == 0.0:
            d = phi_derivatives(args.sigma, args.y)
            row.update(phi=d.phi, phi1=d.d[0], phi2=d.d[1], phi3=d.d[2], phi4=d.d[3])
        cols = ("sigma", "t", "y", "re", "im", "phi", "phi1", "phi2", "phi3", "phi4")
        return cols, [row]

    if args.command in ("estimate", "compare"):
        if args.command == "estimate":
            xs, ys = [_resolve_x(args)], [args.y]
        else:
            xs, ys = args.grid_x, args.grid_y
        rows = compare_grid(
            xs, ys, args.with_exact,
            node_budget=cfg.node_budget, epsilon0=cfg.epsilon0,
        )
        dicts = []
        for r in rows:
            d = asdict(r)
            d.pop("log_thm1")
            d.pop("log_rankin")
            dicts.append(d)
        return COMPARE_COLUMNS, dicts

    if args.command == "perron":
        r = perron_verify(args.x, args.y, args.T, node_budget=cfg.node_budget)
        return ("x", "y", "T", "alpha", "integral", "exact", "error"), [asdict(r)]

    if args.command == "xi":
        rows = [{"u": u, "value": dickman.xi(u)} for u in args.u]
        return ("u", "value"), rows

    if args.command == "rho":
        rows = [{"u": u, "value": dickman.rho(u)} for u in args.u]
        return ("u", "value"), rows

    if args.command == "primesums":
        xs = (args.x or []) + (args.grid_x or [])
        if not xs:
            raise CliInputError("primesums needs --x or --grid-x")
        rows = []
        for x in xs:
            rep = weighted_prime_sum(x, args.sigma, args.twist)
            rows.append({
                "x": x, "sigma": args.sigma, "twist": args.twist,
                "value": rep.value, "main_term": rep.main_term, "deviation": rep.deviation,
            })
        return ("x", "sigma", "twist", "value", "main_term", "deviation"), rows

    if args.command == "diffcheck":
        r = difference_check(args.x, args.y, args.z, lam=cfg.lambda_, node_budget=cfg.node_budget)
        cols = ("x", "y", "z", "u", "alpha", "lhs", "scale", "ratio")
        return cols, [asdict(r)]

    raise CliInputError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, output_format=args.format)
        cols, rows = _run(args, cfg)
        out.write(render(cols, rows, config_hash(cfg), cfg.output_format))
        return 0
    except CliInputError as exc:
        err.write(f"{exc}\n")
        return 1
    except DomainError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except (ResourceBudgetError, ConvergenceError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def console_main() -> None:
    sys.exit(main())
