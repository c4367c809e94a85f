"""Runtime configuration: the node budget, from a key=value file named by
SMOOTHCIRCLE_CONFIG or --config, hashed into every report header so that
sweep outputs are reproducible byte for byte."""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import DomainError

ENV_VAR = "SMOOTHCIRCLE_CONFIG"


@dataclass(frozen=True)
class Config:
    # This default is also that of the library's node_budget keywords.
    node_budget: int = 10**9

    def __post_init__(self) -> None:
        if not self.node_budget > 0:
            raise DomainError("config field node_budget must be positive")


def parse_config_file(path: str | Path) -> dict:
    """Parse key=value lines ('#' comments and blanks ignored) into kwargs.
    A file that cannot be read or decoded is a DomainError naming the path;
    a bad line, key or value is one naming the path and line."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DomainError(f"{path}: cannot read config file: {reason}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key != "node_budget":
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = int(value.strip())
            Config(**out)  # the field's own check, reported at its line
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def load_config(path: str | Path | None = None) -> Config:
    """Config from (in increasing precedence) defaults, the file named by
    SMOOTHCIRCLE_CONFIG and an explicit path."""
    kwargs = {}
    env_path = os.environ.get(ENV_VAR)
    if env_path:
        kwargs.update(parse_config_file(env_path))
    if path is not None:
        kwargs.update(parse_config_file(path))
    return Config(**kwargs)


def config_hash(cfg: Config) -> str:
    """12-hex-digit digest of the canonical key=value rendering."""
    canon = "\n".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Empirical envelope constants for terms the estimates only bound up to O(.).
# These are desk-scale monitored thresholds that tests read, not proven
# constants; widen them only with a recorded justification.
# ---------------------------------------------------------------------------

THETA_REL_TOL_AT_1E6 = 0.01        # |theta(x)/x - 1| at x = 10^6
THETA_CHI4_FRACTION = 0.05         # |twisted theta(x)| <= fraction * x
WEIGHTED_DEV_ABS = 5.0             # |sum - integral| <= ABS + COEF * x^(1-sigma)
WEIGHTED_DEV_COEF = 0.05
MERTENS_RATIO_SLACK = 3.0          # |product/main - 1| <= SLACK / log x
ALPHA_NEAR_ONE_ENVELOPE = 10.0     # |alpha - 1| <= ENV / log y for u <= 14
XI_GAP_LOGY2_COEF = 50.0           # |alpha - (1 - xi(u)/log y)| envelope pieces
XI_GAP_UY_COEF = 10.0
XI_LOGLOG_ENVELOPE = 2.0           # |xi(u) - log(u log u)| <= ENV loglog u/log u
RANKIN_SLACK_RANGE = (1.0, 100.0)  # bound/exact window at moderate u
THM1_TREND_TOL = 0.5               # |thm1/exact - 1| ceiling in trend checks
ROUTE_CONSISTENCY_TOL = 0.3        # |thm1/thm2 - 1| at large y
GAUSS_BASELINE_COEF = 3.0          # |goswami/exact - 1| <= COEF * x^(-1/4) at y = x
PERRON_REL_TOL = 0.05              # |integral - exact|/exact at the pinned cell
RHO_SADDLE_WINDOW = (0.9, 1.1)     # rho_saddle_form/rho at u = 10
