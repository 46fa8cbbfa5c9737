"""One benchmark process: a single caller issuing operations back to back.

    python3 perfbench/worker.py --workload W --seed N --mode M --t0 T [--seconds S] [--trace]

Modes:
  setup  import the library, generate the first round's inputs, report setup_s
         and the calibrate() time taken right after it;
  timed  run rounds until the next one would end past --seconds, timing
         calibrate() before the first operation and after every operation
         that ends CAL_EVERY_S or more of operations after the last one;
  fixed  run the workload's fixed list of rounds (the traced-run list), with
         span tracing if --trace is given.

--t0 is the parent's ``time.perf_counter()`` just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes, so
setup_s spans interpreter start, imports and input generation.  The last line
of standard output is one JSON object; earlier lines name failed checks.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

#: BLAS thread variables, pinned before numpy is imported
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def environment() -> dict:
    """Python, numpy and BLAS versions, cores, pinned thread variables, git sha."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in PINNED_THREADS},
        "git_sha": git_sha(ROOT),
    }


def git_sha(root: str) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


#: wall seconds of calibrate() at the reference machine speed; the timed run
#: also reports every operation time scaled by CAL_REF_S over the mean of the
#: two calibrations around it
CAL_REF_S = 0.03
#: seconds of operations after which the timed run calibrates again
CAL_EVERY_S = 0.25


def calibrate() -> float:
    """Wall time of a fixed mix of small LAPACK calls and interpreter work.

    The library's operations are made of the same two kinds of work, so their
    times follow this one when a shared host speeds up or slows down.  A shared
    host switches speed within seconds, so the timed run calibrates between
    operations, as often as CAL_EVERY_S allows.
    """
    import numpy as np

    m = np.random.default_rng(0).normal(size=(16, 32)).view(complex)
    t = time.perf_counter()
    for _ in range(300):
        np.linalg.norm(m, 2)
    x = 0
    for i in range(80000):
        x += i * i
    return time.perf_counter() - t


def run_ops(ops, tracer=None) -> list[tuple]:
    """Time each operation; returns (op, seconds, result or None, exception or None)."""
    out = []
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        t = time.perf_counter()
        try:
            result, exc = op.run(op.params), None
        except Exception as e:  # a raised exception is a failed operation, not a crash
            result, exc = None, e
        out.append((op, time.perf_counter() - t, result, exc))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default=None, help="span dump file for --trace")
    args = ap.parse_args(argv)

    for var in PINNED_THREADS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import json
    import resource

    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    make_round, fixed_rounds = workloads.WORKLOADS[args.workload]
    report: dict = {}
    tracer = None
    if args.mode == "fixed":
        ops = [op for i in range(fixed_rounds) for op in make_round(args.seed, i)]
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            done = run_ops(ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    else:
        ops = make_round(args.seed, 0)
        report["setup_s"] = time.perf_counter() - args.t0
        report["setup_cal_s"] = calibrate()
        done = []
        if args.mode == "timed":
            start = time.perf_counter()
            i = 0
            calibrations = [report["setup_cal_s"]]
            ref_seconds: list[float] = []
            segment: list[float] = []  # operation times since the last calibration

            def close_segment():
                calibrations.append(calibrate())
                scale = CAL_REF_S / (0.5 * (calibrations[-2] + calibrations[-1]))
                ref_seconds.extend(t * scale for t in segment)
                segment.clear()

            while True:
                for op in ops:
                    done += run_ops([op])
                    segment.append(done[-1][1])
                    if sum(segment) >= CAL_EVERY_S:
                        close_segment()
                i += 1
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / i > args.seconds:
                    break
                ops = make_round(args.seed, i)
            if segment:
                close_segment()
            report.update(ref_seconds=ref_seconds, calibration_s=calibrations)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    stages = 0
    for n, (op, _, result, exc) in enumerate(done):
        found = [("raised", repr(exc))] if exc else workloads.run_checks(op, result)
        failures.extend((n, op.kind, name, detail) for name, detail in found)
        stages += workloads.stages_completed(op.kind, result)
    for n, kind, name, detail in failures:
        print(f"FAIL op={n} kind={kind} check={name}: {detail}")
    report.update(
        attempted=len(done),
        failed=len({f[0] for f in failures}),
        op_seconds=[t for _, t, _, _ in done],
        round_size=len(make_round(args.seed, 0)),
        peak_rss_mb=peak_rss_mb,
        env=environment(),
    )
    if tracer is not None:
        from spans import layer_metrics

        report["layers"] = layer_metrics(tracer, stages)
        # numerical health outside the traced spans: band masses on thin bands
        report["layers"]["floquet.band_structure.thin_mass_defect_max"] = (
            workloads.thin_band_mass_defect(args.seed) if args.workload == "bands" else 0.0
        )
        if args.out:
            os.makedirs(os.path.dirname(args.out), exist_ok=True)
            with open(args.out, "w") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                     "env": report["env"]}) + "\n")
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
