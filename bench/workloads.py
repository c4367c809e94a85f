"""The benchmark's workloads: CLI argument lists generated from a seed.

Each workload is a list of invocations of ``smoothcircle.cli.main`` that
one cold worker process runs in order.  Seed 0 gives the fixed argv that
``reference.json`` was made from; any other seed multiplies every x by a
factor in [1, 1 + MANTISSA_SPREAD), which keeps it in its decade, so the
same code paths run on inputs no reference was made from.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0
# Small enough that the work per run barely depends on the seed (the sieve
# costs O(x)), large enough that every seed gives new integers to count.
MANTISSA_SPREAD = 0.03

WORKLOADS = ("estimates", "exact-oracle", "diagnostics")


class _Mantissas:
    """Draws one mantissa factor per x, in argv order, from the seed."""

    def __init__(self, seed: int) -> None:
        self._rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def real(self, literal: str) -> str:
        if self._rng is None:
            return literal
        return f"{float(literal) * (1.0 + MANTISSA_SPREAD * self._rng.random()):.7g}"

    def integer(self, literal: str) -> str:
        return literal if self._rng is None else str(int(float(self.real(literal))))


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The CLI argv lists of one workload at one seed."""
    m = _Mantissas(seed)
    if workload == "estimates":
        xs = ",".join(m.real(x) for x in ("1e12", "1e30", "1e300"))
        return [["compare", "--grid-x", xs, "--grid-y", "100,10000,1000000"]]
    if workload == "exact-oracle":
        xs = ",".join(m.integer(x) for x in ("1e6", "1e7"))
        return [["compare", "--grid-x", xs, "--grid-y", "100,1000,10000", "--with-exact"]]
    if workload == "diagnostics":
        # Perron's formula needs x off the integers: keep the .5 offset.
        p1 = m.integer("1000000") + ".5"
        p2 = m.integer("3000000") + ".5"
        dx = m.integer("1000000")
        sums = ",".join(m.real(x) for x in ("1e6", "1e7"))
        twist = m.real("1e7")
        return [
            ["hval", "--sigma", "0.6", "--y", "1000000"],
            ["perron", "--x", p1, "--y", "1000", "--T", "50"],
            ["perron", "--x", p2, "--y", "300", "--T", "100"],
            ["diffcheck", "--x", dx, "--y", "1000", "--z", "8"],
            ["primesums", "--x", sums, "--sigma", "0.5"],
            ["primesums", "--x", twist, "--sigma", "0.9", "--twist"],
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def expected_rows(argv: list[str]) -> int:
    """Result rows one invocation must print."""
    if argv[0] == "compare":
        return len(_option(argv, "--grid-x").split(",")) * len(_option(argv, "--grid-y").split(","))
    if argv[0] == "primesums":
        return len(_option(argv, "--x").split(","))
    return 1
