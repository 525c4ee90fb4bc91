"""Measuring process of the benchmark: runs one workload in a closed loop.

Started by run.py with BLAS/OpenMP threads pinned to 1 and `src` on the
import path.  It calls `cechcert.cli.main` with the workload's arguments, one
certificate in flight, until the next call would end after `--seconds`
(always at least once), and prints one JSON object: per-call wall and CPU
seconds, exit code or exception, the SHA-256 of the report bytes, the first
report, the process's peak RSS and, with `--trace 1`, the layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def measure(workload, seed: int, seconds: float, out_dir: str, main) -> tuple[list[dict], str]:
    path = os.path.join(out_dir, f"{workload.name}-{os.getpid()}.out")
    argv = workload.argv(seed, path)
    calls: list[dict] = []
    first_report = ""
    deadline = time.perf_counter() + seconds
    while True:
        if os.path.exists(path):
            os.remove(path)
        stdout = io.StringIO()
        error = None
        rc = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = main(argv)
        except Exception as exc:  # a raising certificate counts as failed
            error = f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        if workload.writes_report:
            report = Path(path).read_text(encoding="utf-8") if os.path.exists(path) else ""
        else:
            report = stdout.getvalue()
        if not calls:
            first_report = report
        calls.append(
            {
                "s": t1 - t0,
                "cpu_s": c1 - c0,
                "rc": rc,
                "error": error,
                "sha256": hashlib.sha256(report.encode()).hexdigest(),
            }
        )
        if time.perf_counter() + statistics.median(c["s"] for c in calls) > deadline:
            break
    if os.path.exists(path):
        os.remove(path)
    return calls, first_report


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    import numpy
    import scipy

    from cechcert import cli

    tracer = None
    entry = cli.main
    if args.trace:
        from spans import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(ROOT_SPAN, cli.main)
    calls, report = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.out_dir, entry)
    result = {
        "calls": calls,
        "report": report,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        from spans import layer_metrics

        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans, tracer.counters)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
