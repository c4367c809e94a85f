"""Self-tests of the benchmark's tracer, checker and workloads.

    python3 -m pytest bench/tests -q
"""

import io
import json
from pathlib import Path

import pytest

import check
import spans
import workloads
from smoothcircle import cli
from smoothcircle.counting import exact_circle_sum

REFERENCE = json.loads((Path(check.__file__).parent / "reference.json").read_text())


def _ref_rows(workload):
    return REFERENCE["workloads"][workload][0]["rows"]


def _modules():
    return (spans.cli, spans.counting, spans.dickman, spans.estimators, spans.euler,
            spans.numutil, spans.prime_sums, spans.primes, spans.saddle)


def test_tracer_restores_every_patched_attribute():
    before = {(m.__name__, k): v for m in _modules() for k, v in vars(m).items()}
    tracer = spans.Tracer()
    with tracer:
        during = {(m.__name__, k): v for m in _modules() for k, v in vars(m).items()}
        patched = {key for key in before if during[key] is not before[key]}
        assert len(patched) == len(tracer._patched) > 20
    after = {(m.__name__, k): v for m in _modules() for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_stdout_is_byte_identical():
    argv = ["compare", "--grid-x", "1e6", "--grid-y", "100,1000", "--with-exact"]
    plain = io.StringIO()
    assert cli.main(argv, stdout=plain) == 0
    traced = io.StringIO()
    tracer = spans.Tracer()
    with tracer:
        assert cli.main(argv, stdout=traced) == 0
    assert traced.getvalue() == plain.getvalue()
    layers = tracer.layer_metrics(result_rows=2)
    assert layers["saddle.solves_per_cell"] == 3
    assert layers["counting.sieve_calls"] + layers["counting.recursive_calls"] == 2


def test_checker_rejects_exact_off_by_four():
    ref = _ref_rows("exact-oracle")[0]
    row = dict(ref, exact=str(int(ref["exact"]) + 4))
    verdict = check.check_row(row, ref)
    assert verdict.failed and verdict.hard
    assert not check.check_row(dict(ref), ref).failed


def test_checker_rejects_unflagged_zero_estimate():
    ref = _ref_rows("estimates")[0]  # carries only window flags
    row = dict(ref, thm2="0")
    verdict = check.check_row(row, check.reference_row(row))
    assert verdict.failed and not verdict.hard
    flagged = dict(row, flags=row["flags"] + ";underflow-logspace")
    assert not check.check_row(flagged, check.reference_row(flagged)).failed


def test_checker_counts_failed_exit_and_missing_rows():
    assert all(v.hard for v in check.check_invocation(2, "", 3, None))
    text = "# header\nx,y,value\n1,2,3\n"
    verdicts = check.check_invocation(0, text, 2, None)
    assert [v.failed for v in verdicts] == [False, True]


@pytest.mark.parametrize("y", [100, 1000, 10000])
def test_exact_routes_agree_on_small_cells(y):
    sieve = exact_circle_sum(10**6, y, "sieve")
    recursive = exact_circle_sum(10**6, y, "recursive")
    assert sieve.value == recursive.value
    ref = {(r["x"], r["y"]): r for r in _ref_rows("exact-oracle")}["1000000", str(y)]
    assert sieve.value == int(ref["exact"])


def test_seed_moves_mantissas_within_their_decade():
    for name in workloads.WORKLOADS:
        default = workloads.invocations(name, workloads.DEFAULT_SEED)
        assert default == [r["argv"] for r in REFERENCE["workloads"][name]]
        seeded = workloads.invocations(name, 5)
        assert seeded == workloads.invocations(name, 5) != default
        assert [workloads.expected_rows(a) for a in seeded] == [
            workloads.expected_rows(a) for a in default]
