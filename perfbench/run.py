"""cmvspectra benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cantor,ac,bands,gordon} --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src.  Every
measurement happens in a fresh worker interpreter (perfbench/worker.py) with
the BLAS thread variables pinned to 1 before numpy is imported; this process
only starts the workers one at a time, waits for each, and aggregates.

--trace 0 prints the end-to-end metrics: setup_s (median over SETUP_SAMPLES
fresh interpreters of start-to-first-operation time), ops_per_s, op_s_p50 and
peak_rss_mb of a closed-loop run of about --seconds seconds.  The three times
are in seconds at the reference machine speed (see worker.calibrate): each
operation's wall time is scaled by CAL_REF_S over the mean of the calibrations
taken right before and after it, each set-up time by CAL_REF_S over the
calibration taken right after it; the unscaled figures are printed as a line.
--trace 1 runs the workload's fixed operation list twice, untraced and traced,
and prints the per-layer metrics plus trace.overhead_ratio; spans go to
perfbench/out/.
The last line of standard output is the result object; earlier lines record
the environment, the failure ratio and every failed check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import CAL_REF_S, PINNED_THREADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 11
#: every worker must finish this long after start, well inside the 180 s limit
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def start_worker(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion; echo its report lines, return its result object."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise WorkerError("time budget exhausted before the worker started")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *argv, "--t0", repr(t0)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {argv} did not finish in time") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {argv} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("defect_max"):
        return "1"
    return "count"


def position_medians(op_seconds: list[float], round_size: int) -> list[float]:
    """Median time of each position of the round over the completed rounds.

    Every round runs the same mix in the same order, so the operations at one
    position are alike; a position's median keeps a burst of contention from
    another process out, and the mix stays the same whatever the round count.
    """
    rounds = len(op_seconds) // round_size
    return [
        statistics.median(op_seconds[r * round_size + pos] for r in range(rounds))
        for pos in range(round_size)
    ]


def ops_per_second(op_seconds: list[float], round_size: int) -> float:
    """Operations of one round over the sum of the per-position medians."""
    return round_size / sum(position_medians(op_seconds, round_size))


#: cells of the midpoint rule behind the Beta CDF of harrell_davis_median
HD_CELLS = 20000


def harrell_davis_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)-weighted
    mean of all order statistics, where the sample median uses one or two.

    A round mixes kinds of operation of very different cost, so the sample
    median of the per-position medians is the time of one kind, measured only
    a few times in a run on a host whose speed switches within seconds; this
    estimate spreads the weight over the kinds near the middle.
    """
    x = sorted(values)
    n = len(x)
    a = (n + 1) / 2.0
    logs = [
        (a - 1.0) * (math.log(u) + math.log1p(-u))
        for u in ((j + 0.5) / HD_CELLS for j in range(HD_CELLS))
    ]
    top = max(logs)
    cdf = [0.0]
    for v in logs:
        cdf.append(cdf[-1] + math.exp(v - top))

    def beta_cdf(p: float) -> float:
        pos = p * HD_CELLS
        j = min(int(pos), HD_CELLS - 1)
        return (cdf[j] + (pos - j) * (cdf[j + 1] - cdf[j])) / cdf[-1]

    return sum((beta_cdf((i + 1) / n) - beta_cdf(i / n)) * v for i, v in enumerate(x))


def op_seconds_p50(op_seconds: list[float], round_size: int) -> float:
    """Median (Harrell-Davis) over the round's positions of the per-position medians."""
    return harrell_davis_median(position_medians(op_seconds, round_size))


def end_to_end(workload: str, seed: int, seconds: float, env: dict, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]

    def setup_samples(n: int) -> list[dict]:
        return [start_worker(base + ["--mode", "setup"], env, deadline) for _ in range(n)]

    # half the set-up samples before the timed run and half after, so that the
    # median spans two moments of the machine's load rather than one
    before = (SETUP_SAMPLES - 1) // 2
    setups = setup_samples(before)
    run = start_worker(base + ["--mode", "timed", "--seconds", str(seconds)], env, deadline)
    setups += setup_samples(SETUP_SAMPLES - 1 - before) + [run]
    setup_wall = [r["setup_s"] for r in setups]
    setup_ref = [r["setup_s"] * CAL_REF_S / r["setup_cal_s"] for r in setups]
    ref, wall, size = run["ref_seconds"], run["op_seconds"], run["round_size"]
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "ops_per_s": (ops_per_second(ref, size), "1/s"),
        "op_s_p50": (op_seconds_p50(ref, size), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
    }
    print(f"operations: {len(ref)} in rounds of {size}; setup_s samples: {len(setups)}")
    print(
        f"wall clock, unscaled: setup_s {statistics.median(setup_wall)}, "
        f"ops_per_s {ops_per_second(wall, size)}, "
        f"op_s_p50 {op_seconds_p50(wall, size)}; calibration mean "
        f"{statistics.fmean(run['calibration_s'])} s over {len(run['calibration_s'])} "
        f"(reference {CAL_REF_S} s)"
    )
    return run, metrics


def per_layer(workload: str, seed: int, env: dict, deadline: float):
    base = ["--workload", workload, "--seed", str(seed), "--mode", "fixed"]
    plain = start_worker(base, env, deadline)
    out = os.path.join(HERE, "out", f"trace-{workload}-seed{seed}.jsonl")
    run = start_worker(base + ["--trace", "--out", out], env, deadline)
    layers = dict(run["layers"])
    layers["trace.overhead_ratio"] = sum(run["op_seconds"]) / sum(plain["op_seconds"]) - 1.0
    return run, {name: (value, unit_of(name)) for name, value in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "cmvspectra", "__init__.py")):
        print(f"no cmvspectra sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = dict(os.environ, **{var: "1" for var in PINNED_THREADS})
    try:
        if args.trace:
            run, metrics = per_layer(args.workload, args.seed, env, deadline)
        else:
            run, metrics = end_to_end(args.workload, args.seed, args.seconds, env, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = run["attempted"], run["failed"]
    print("env " + json.dumps(run["env"]))
    print(f"fail_ratio: {failed / attempted} ({failed} of {attempted} operations failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
