"""Regenerate bench/reference.json from the current package, at the default seed.

    PYTHONPATH=src python3 bench/make_reference.py

Runs every workload's invocations in-process and stores each result row.
Every exact value is recomputed by both exact routes (segmented sieve and
recursive enumeration) and the script refuses to write the file unless
both agree with the report.  Estimates that are 0, inf or nan are stored
as null: they have no trusted value (see check.reference_row).
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

from check import confirm_exact, parse_csv, reference_row
from workloads import DEFAULT_SEED, WORKLOADS, invocations

from smoothcircle import cli


def main() -> int:
    out: dict = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        entries = []
        for argv in invocations(workload, DEFAULT_SEED):
            buf = io.StringIO()
            if cli.main(argv, stdout=buf) != 0:
                print(f"error: {argv} exited nonzero", file=sys.stderr)
                return 1
            rows = parse_csv(buf.getvalue())
            bad = confirm_exact(argv, rows, lambda n, y: ["sieve", "recursive"])
            if bad:
                print(f"error: {argv}: {bad}", file=sys.stderr)
                return 1
            entries.append({"argv": argv, "rows": [reference_row(r) for r in rows]})
        out["workloads"][workload] = entries
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
