"""Row-by-row checks of the CLI's CSV output.

Every expected result row gets a verdict.  A row fails if its invocation
exited nonzero, if it is missing, or if any check below fails:

* at the default seed, against ``reference.json``: exact integer columns
  (``exact``, ``lhs``) must equal the reference, every other numeric
  column must lie within REL_TOL of it (columns that are differences of
  near-equal numbers, ROUNDING_COLUMNS, are only checked structurally);
* at every seed: ``|residual| <= RESIDUAL_TOL * log x``; estimates are
  finite or flagged; an estimate that is 0 or inf with no flag in its row
  fails (window flags such as ``outside-thm1-range`` say a theorem does
  not apply, not that a value is unavailable, so they do not count).

A failure is *hard* unless its only cause is that last rule.  Hard
failures mean the output is wrong and make a run incorrect; an unflagged
0 or inf is the known robustness defect that the ``failed`` count and
``ok_frac`` track.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

REL_TOL = 1e-12
RESIDUAL_TOL = 1e-12
EXACT_COLUMNS = ("exact", "lhs")
ESTIMATE_COLUMNS = ("alpha", "thm1", "rankin", "thm2", "goswami", "integral", "value")
ROUNDING_COLUMNS = ("residual", "error", "deviation")
UNEXPLAINING_FLAGS = frozenset({"outside-thm1-range", "outside-thm2-range", "oracle-skipped"})


@dataclass
class Verdict:
    """Outcome for one expected row."""

    reasons: list[str] = field(default_factory=list)
    hard: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.reasons)

    def fail(self, reason: str, hard: bool = True) -> None:
        self.reasons.append(reason)
        self.hard = self.hard or hard


def parse_csv(text: str) -> list[dict[str, str]]:
    """Result rows of one CLI report (the '#' header line is skipped)."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _float(text: str | None) -> float | None:
    if text is None or text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return None


def check_row(row: dict[str, str], ref: dict[str, str | None] | None) -> Verdict:
    """Verdict for one output row; ref is its reference row or None."""
    v = Verdict()
    flags = set(filter(None, (row.get("flags") or "").split(";")))
    explained = bool(flags - UNEXPLAINING_FLAGS)

    x, res = _float(row.get("x")), _float(row.get("residual"))
    if res is not None and x is not None and not abs(res) <= RESIDUAL_TOL * math.log(x):
        v.fail(f"residual {res} above {RESIDUAL_TOL} * log x")

    for col in ESTIMATE_COLUMNS:
        val = _float(row.get(col))
        if val is None or (0.0 < abs(val) < math.inf):
            continue
        if math.isnan(val):
            v.fail(f"{col} is nan")
        elif not explained:
            v.fail(f"{col}={row[col]} with no flag", hard=False)

    for col, want in (ref or {}).items():
        got = row.get(col)
        if want is None or col == "flags" or col in ROUNDING_COLUMNS:
            continue
        if got is None:
            v.fail(f"column {col} missing")
        elif col in EXACT_COLUMNS:
            if got != want:
                v.fail(f"{col}={got}, reference {want}")
        elif _float(want) is None:
            if got != want:
                v.fail(f"{col}={got!r}, reference {want!r}")
        else:
            g, w = _float(got), float(want)
            if g is None or not abs(g - w) <= REL_TOL * abs(w):
                v.fail(f"{col}={got}, reference {want} (rel tol {REL_TOL})")
    return v


def reference_row(row: dict[str, str]) -> dict[str, str | None]:
    """The trusted part of a row, as stored in reference.json: an estimate
    that is 0, inf or nan has no trusted value and is stored as null."""
    out: dict[str, str | None] = {}
    for col, val in row.items():
        f = _float(val)
        if col in ESTIMATE_COLUMNS and f is not None and not 0.0 < abs(f) < math.inf:
            out[col] = None
        else:
            out[col] = val
    return out


def check_invocation(
    rc: int, stdout: str, expected_rows: int, refs: list[dict] | None
) -> list[Verdict]:
    """One verdict per expected row of one CLI invocation."""
    if rc != 0:
        return [Verdict([f"exit code {rc}"], hard=True) for _ in range(expected_rows)]
    rows = parse_csv(stdout)
    verdicts = []
    for i in range(expected_rows):
        if i >= len(rows):
            verdicts.append(Verdict(["row missing"], hard=True))
        else:
            verdicts.append(check_row(rows[i], refs[i] if refs is not None else None))
    if len(rows) > expected_rows:
        verdicts[-1].fail(f"{len(rows) - expected_rows} unexpected extra rows")
    return verdicts


def exact_claims(argv: list[str], rows: list[dict[str, str]]):
    """(row index, [(sign, n, y), ...], claimed integer) for every exact
    value in a report: the claim is sum(sign * S(n, y)), S the circle sum
    over y-smooth integers up to n."""
    claims = []
    for i, row in enumerate(rows):
        y = int(row["y"]) if row.get("y") else None
        if argv[0] in ("compare", "perron") and row.get("exact"):
            claims.append((i, [(1, math.floor(float(row["x"])), y)], int(row["exact"])))
        elif argv[0] == "diffcheck":
            x, z = int(row["x"]), float(row["z"])
            claims.append((i, [(1, math.floor(x + x / z), y), (-1, x, y)], int(row["lhs"])))
    return claims


def auto_route(n: int, y: int) -> str:
    """The route exact_circle_sum(method="auto") takes for (n, y)."""
    return "sieve" if y * y >= n else "recursive"


def confirm_exact(argv: list[str], rows: list[dict[str, str]], routes) -> list[tuple[int, str]]:
    """Recompute every exact value of a report; routes(n, y) lists the
    methods to use for S(n, y), and the k-th recomputation uses the k-th
    method of every term.  Returns (row index, reason) per disagreement."""
    from smoothcircle.counting import exact_circle_sum

    bad = []
    for i, terms, claimed in exact_claims(argv, rows):
        methods = [routes(n, y) for _, n, y in terms]
        for k in range(len(methods[0])):
            value = sum(s * exact_circle_sum(n, y, ms[k]).value
                        for (s, n, y), ms in zip(terms, methods))
            if value != claimed:
                used = "/".join(ms[k] for ms in methods)
                bad.append((i, f"exact {claimed} but the {used} route gives {value}"))
    return bad
