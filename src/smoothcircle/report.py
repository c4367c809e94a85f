"""Deterministic CSV and JSON rendering of result rows.

Each row is a dict that carries its own columns: the renderers take the
column order from the first row's keys, so a new column is a new key (for
a dataclass result, a new field).  Floats are written with 17 significant
digits (round-trip safe); every report opens with a '#' comment line
carrying the tool version and the config hash, so identical invocations
give identical bytes on one numpy build and SIMD dispatch level (the cli
docstring says which columns move across levels, and how far).
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping, Sequence

from . import __version__


def fmt_value(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return format(v, ".17g")
    if isinstance(v, (tuple, list)):
        return ";".join(str(item) for item in v)
    return str(v)


def header_line(config_hash: str) -> str:
    return f"# smoothcircle {__version__} config={config_hash}"


def rows_to_csv(rows: Sequence[Mapping[str, Any]], config_hash: str) -> str:
    columns = list(rows[0])
    lines = [header_line(config_hash), ",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt_value(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _json_value(v: Any) -> Any:
    if isinstance(v, float) and not math.isfinite(v):
        return fmt_value(v)
    if isinstance(v, tuple):
        return list(v)
    return v


def rows_to_json(rows: Sequence[Mapping[str, Any]], config_hash: str) -> str:
    columns = list(rows[0])
    doc = {
        "tool": "smoothcircle",
        "version": __version__,
        "config": config_hash,
        "rows": [{c: _json_value(row[c]) for c in columns} for row in rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def render(rows, config_hash: str, output_format: str) -> str:
    if output_format == "json":
        return rows_to_json(rows, config_hash)
    return rows_to_csv(rows, config_hash)
