"""One cold benchmark worker: import the CLI, run a workload's invocations
in order, print one JSON line with timings, outputs and peak memory.

The worker also times a fixed calibration step (``calibrate``), outside
the timed spans: for CAL_SECONDS right after the import and after the
last invocation, and for a quarter of that between two invocations.  The
mean step time of a window tells how fast the host ran at that moment;
run.py scales each invocation's time by the windows on either side of it.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 bench/worker.py SPAWN_TIME TRACE ARGV_JSON

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so setup_s covers interpreter start-up and the imports.
TRACE is 0 or 1.  ARGV_JSON is a JSON list of CLI argv lists; an empty
list measures set-up only.
"""

import hashlib
import io
import json
import math
import resource
import sys
import time

import smoothcircle.cli as cli

_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import numpy as np  # noqa: E402  (after the set-up clock: smoothcircle imports it anyway)

CAL_SECONDS = 0.5  # half that in a set-up-only worker
_CAL_FLOATS = np.linspace(0.05, 0.2, 80000)
_CAL_INTS = np.arange(1 << 17, dtype=np.int64)


def _calibration_step() -> float:
    """About 3 ms of the kinds of work the workloads do: an interpreted
    float loop, math.fsum over a list of 80 000 logarithms (the size of
    an Euler product over the primes below 1e6), strided numpy updates."""
    s = 0.0
    for i in range(1, 1500):
        s += math.log(i) / i
    s += math.fsum(np.log1p(-_CAL_FLOATS).tolist())
    v = _CAL_INTS.copy()
    for p in (3, 5, 7, 11, 13):
        v[::p] //= p
    return s + float(v[-1])


def calibrate(seconds: float) -> list[float]:
    """Times of back-to-back calibration steps over about `seconds`."""
    _calibration_step()  # untimed: a first step touches fresh memory and runs slow
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t = time.perf_counter()
        _calibration_step()
        times.append(time.perf_counter() - t)
    return times


def mean_step(seconds: float) -> float:
    times = calibrate(seconds)
    return sum(times) / len(times)


def run(argvs: list[list[str]], trace: bool) -> dict:
    """Run the invocations, each timed on its own, with a calibration
    window before the first, between each two and after the last."""
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    outputs = []
    steps = [mean_step(CAL_SECONDS)]
    try:
        for k, argv in enumerate(argvs):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            if tracer is None:
                rc = cli.main(argv, stdout=out, stderr=err)
            else:
                rc = tracer.call("cli.main", cli.main, argv, stdout=out, stderr=err)[0]
            wall = time.perf_counter() - start
            outputs.append({"argv": argv, "rc": rc, "stdout": out.getvalue(),
                            "stderr": err.getvalue(), "wall_s": wall})
            steps.append(mean_step(CAL_SECONDS if k == len(argvs) - 1 else CAL_SECONDS / 4))
    finally:
        if tracer is not None:
            tracer.uninstall()
    digest = hashlib.sha256("".join(o["stdout"] for o in outputs).encode()).hexdigest()
    result = {"wall_s": sum(o["wall_s"] for o in outputs), "outputs": outputs,
              "stdout_sha256": digest, "cal_step_s": steps}
    if tracer is not None:
        rows = sum(max(o["stdout"].count("\n") - 2, 0) for o in outputs)
        result["layers"] = tracer.layer_metrics(rows)
    return result


def main() -> None:
    spawned, trace, argvs = float(sys.argv[1]), sys.argv[2] == "1", json.loads(sys.argv[3])
    result = run(argvs, trace) if argvs else {"cal_step_s": [mean_step(CAL_SECONDS / 2)]}
    result["setup_s"] = _IMPORTED - spawned
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
