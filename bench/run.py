"""Layered benchmark of the smoothcircle CLI.

    python3 bench/run.py --workload estimates --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all        # every workload, one table

Each sample is one fresh worker process (bench/worker.py) that imports
``smoothcircle.cli`` and runs the workload's CLI invocations in-process,
so every sample starts with cold caches, as a real CLI call does.  Workers
run one after another, single-threaded (BLAS thread pools pinned to 1).
Samples repeat until the next one would overrun --seconds.  Every output
row is checked (bench/check.py); at the default seed against
bench/reference.json, at other seeds structurally, plus an untimed
recomputation of every exact value by the route ``auto`` did not take.

--trace 0 reports the end-to-end metrics (BENCHMARK.json "end_to_end"):
setup_s, wall_s, peak_rss_mb, ok_frac.  The shared host's speed drifts by
tens of percent over minutes, so every worker also times a fixed
calibration step (worker.py), and its times are scaled by
REF_STEP_S / (its mean step time): seconds at the reference host speed.
The summary lines also print the unscaled medians.  --trace 1 alternates
untraced and traced workers and reports the per-layer metrics
("per_layer") from the traced ones.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 2 and no result
when the package or a worker cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from check import auto_route, check_invocation, confirm_exact, parse_csv  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, expected_rows, invocations  # noqa: E402

SETUP_SAMPLES = 5  # import-only workers per run, on top of one per sample
# Mean calibration step time (worker.py) on the reference host, a 2-vCPU
# VM with Python 3.11 and numpy 2.4, when it ran at its usual speed.
REF_STEP_S = 0.0038
WORKER_TIMEOUT_S = 170
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run (missing package, crashed worker)."""


def spawn(argvs: list[list[str]], trace: bool) -> dict:
    """Run one cold worker to completion and return its JSON report."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    cmd = [sys.executable, str(BENCH / "worker.py")]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [*cmd, repr(t0), "1" if trace else "0", json.dumps(argvs)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except ValueError as exc:
        raise BenchError(f"worker printed no report: {proc.stdout[-2000:]!r}") from exc


def collect(argvs: list[list[str]], seconds: float, trace: bool) -> tuple[list, list, list]:
    """Set-up samples, untraced samples and traced samples for one run."""
    spawn([], False)  # untimed: compiles bytecode in a fresh checkout
    setups = [spawn([], False) for _ in range(SETUP_SAMPLES)]
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        plain.append(spawn(argvs, False))
        if trace:
            traced.append(spawn(argvs, True))
        last = time.monotonic() - t
        if time.monotonic() - start + last > seconds:
            return setups, plain, traced


def load_reference(workload: str, argvs: list[list[str]]) -> list[list[dict]]:
    ref = json.loads((BENCH / "reference.json").read_text())["workloads"][workload]
    if [r["argv"] for r in ref] != argvs:
        raise BenchError(f"reference.json does not match the {workload} argv")
    return [r["rows"] for r in ref]


def verify(workload: str, argvs: list[list[str]], samples: list[dict], seed: int):
    """Check every row of every sample: (correct, attempted, failed, notes)."""
    refs = load_reference(workload, argvs) if seed == DEFAULT_SEED else None
    wrong_exact: dict[tuple[int, int], str] = {}
    if seed != DEFAULT_SEED:
        # Untimed: every exact value again, by the route auto did not take.
        def other(n: int, y: int) -> list[str]:
            return ["recursive" if auto_route(n, y) == "sieve" else "sieve"]

        for k, (argv, out) in enumerate(zip(argvs, samples[0]["outputs"])):
            if out["rc"] == 0:
                for i, why in confirm_exact(argv, parse_csv(out["stdout"]), other):
                    wrong_exact[(k, i)] = why
    correct, attempted, failed, notes = True, 0, 0, []
    digests = {s["stdout_sha256"] for s in samples}
    if len(digests) != 1:
        correct = False
        notes.append(f"stdout differs between samples: {len(digests)} distinct sha256")
    for s in samples:
        for k, (argv, out) in enumerate(zip(argvs, s["outputs"])):
            verdicts = check_invocation(out["rc"], out["stdout"], expected_rows(argv),
                                        refs[k] if refs is not None else None)
            for i, v in enumerate(verdicts):
                if (k, i) in wrong_exact:
                    v.fail(wrong_exact[(k, i)])
                attempted += 1
                if v.failed:
                    failed += 1
                    correct = correct and not v.hard
                    note = f"{' '.join(argv[:1])} row {i}: {'; '.join(v.reasons)}"
                    if note not in notes:
                        notes.append(note)
    return correct, attempted, failed, notes


def provenance(seed: int) -> dict:
    # Read .git directly: running git outside a repository would search the
    # parent directories, and the benchmark stays inside its checkout.
    git = ROOT / ".git"
    sha = "unknown (not a git checkout)"
    if (git / "HEAD").is_file():
        sha = (git / "HEAD").read_text().strip()
        if sha.startswith("ref: "):
            ref = sha[5:]
            packed = git / "packed-refs"
            if (git / ref).is_file():
                sha = (git / ref).read_text().strip()
            elif packed.is_file():
                sha = next((ln.split()[0] for ln in packed.read_text().splitlines()
                            if ln.endswith(" " + ref)), sha)
    src = hashlib.sha256()
    for f in sorted((SRC / "smoothcircle").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def speed(step_s: float) -> float:
    """Host speed relative to the reference, from a mean calibration step."""
    return REF_STEP_S / step_s


def scaled_setup(sample: dict) -> float:
    """setup_s at the reference host speed, from the window after the import."""
    return sample["setup_s"] * speed(sample["cal_step_s"][0])


def scaled_wall(sample: dict) -> float:
    """wall_s at the reference host speed: each invocation's time scaled by
    the mean speed of the calibration windows on either side of it."""
    steps = sample["cal_step_s"]
    return sum(o["wall_s"] * (speed(steps[k]) + speed(steps[k + 1])) / 2
               for k, o in enumerate(sample["outputs"]))


def mean_speed(sample: dict) -> float:
    return speed(sum(sample["cal_step_s"]) / len(sample["cal_step_s"]))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argvs = invocations(workload, seed)
    setups, plain, traced = collect(argvs, seconds, trace)
    correct, attempted, failed, notes = verify(workload, argvs, plain + traced, seed)
    record = {
        "workload": workload,
        "provenance": provenance(seed),
        "samples": {"setup": len(setups) + len(plain), "untraced": len(plain),
                    "traced": len(traced)},
        "correct": correct, "attempted": attempted, "failed": failed, "notes": notes,
    }
    wall = [scaled_wall(s) for s in plain]
    if not trace:
        record["metrics"] = {
            "setup_s": median([scaled_setup(s) for s in setups + plain]),
            "wall_s": median(wall),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in plain]),
            "ok_frac": 1.0 - failed / attempted,
        }
        record["failed_frac"] = failed / attempted
        record["unscaled"] = {
            "setup_s": median([s["setup_s"] for s in setups + plain]),
            "wall_s": median([s["wall_s"] for s in plain]),
        }
        record["host_speed"] = [mean_speed(s) for s in plain]
        record["wall_s_samples"] = wall
    else:
        # Times are scaled by the worker's mean host speed; counts are not.
        def layer(s: dict, k: str) -> float:
            v = s["layers"][k]
            return v * mean_speed(s) if k.endswith("_s") else v

        layers = {k: median([layer(s, k) for s in traced]) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = median([scaled_wall(s) for s in traced]) - median(wall)
        record["metrics"] = layers
    return record


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_record(record: dict, units: dict[str, str]) -> None:
    """Human-readable summary: provenance, every metric by name with its unit."""
    print(f"# {record['workload']}: {json.dumps(record['provenance'])}")
    print(f"#   samples: {json.dumps(record['samples'])}")
    for name, value in record["metrics"].items():
        raw = record.get("unscaled", {}).get(name)
        note = "" if raw is None else f"  (unscaled {raw:.6g} {units[name]})"
        print(f"#   {name:28s} {value:.6g} {units[name]}{note}")
        if name == "ok_frac":
            print(f"#   {'failed_frac':28s} {record['failed_frac']:.6g} {units[name]}")
    if "wall_s_samples" in record:
        print(f"#   wall_s per sample: {', '.join(f'{w:.4f}' for w in record['wall_s_samples'])}")
        print(f"#   host speed per sample: {', '.join(f'{h:.3f}' for h in record['host_speed'])}")
    print(f"#   rows attempted {record['attempted']}, failed {record['failed']}, "
          f"correct {str(record['correct']).lower()}")
    for note in record["notes"]:
        print(f"#   fail: {note}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "smoothcircle" / "cli.py").is_file():
        print(f"error: no smoothcircle package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = declared_units(bool(args.trace))
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        if record["metrics"].keys() != units.keys():
            print("error: measured metrics differ from BENCHMARK.json", file=sys.stderr)
            return 2
        print_record(record, units)
    if len(records) == 1:
        r = records[0]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in r["metrics"].items()}
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
