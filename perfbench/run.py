"""cechcert certificate benchmark: time to verdict, set-up time, peak memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each in turn.
Run from anywhere; the program is imported from `src/` next to this
directory, so nothing needs installing.

With `--trace 0` a worker process (worker.py) runs the workload's `cechcert`
command through `cechcert.cli.main` in a closed loop, one certificate in
flight, for S seconds, and the result line carries the end-to-end metrics:

  verdict_s    wall seconds from the call to its verdict: the median call,
               or the fastest for workloads of short calls (workloads.py);
  setup_s      wall seconds of a fresh `python3` that imports cechcert
               (numpy, scipy) and builds a ScenarioConfig, fastest of
               several processes after one uncounted bytecode warm-up;
  peak_rss_mb  peak resident memory of the worker process, in MiB.

On a shared host other tenants slow the CPU by up to half in episodes of
seconds.  Calls of a tenth of a second mostly fall between them, so their
fastest is steady while their median is not; calls of seconds never do, and
their median is the steadier.  The median, the fastest call, a tail
percentile and the call count are printed on the line before the result.

Every certificate is checked by the oracle in workloads.py; `failed` counts
those whose verdict differs from it, whose report bytes differ from the
first call's, or that raise, and fail_ratio = failed / attempted.

With `--trace 1` one untraced worker runs for a third of S and a traced one
(spans.py) for the rest; the result line carries the per-layer metrics.

Every run prints the machine and library versions, and the SHA-256 of the
report bytes against the digest recorded in report_sha256.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 5
SETUP_CODE = "import cechcert.cli\nfrom cechcert.scenarios import ScenarioConfig\nScenarioConfig(seed={seed})\n"
UNTRACED_SHARE_IN_TRACE = 1 / 3
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 60
RECORDED = HERE / "report_sha256.json"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(seed: int, env: dict) -> float:
    samples = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE.format(seed=seed)], env=env, cwd=ROOT)
        # a blocking wait returns at exit; Popen.wait(timeout) polls in 50 ms steps
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"set-up process exited {rc}")
        if i:
            samples.append(elapsed)
    return min(samples)


def run_worker(name: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={name}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
        f"--out-dir={out_dir}",
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def judge(name: str, seed: int, data: dict, report: str) -> tuple[int, list[str]]:
    """(failed certificates, problems) of one worker's calls, each of whose
    report bytes must equal `report`, the run's first."""
    try:
        oracle = WORKLOADS[name].check(report, seed) if report else ["no report written"]
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        oracle = [f"unreadable report: {exc!r}"]
    digest = hashlib.sha256(report.encode()).hexdigest()
    problems = list(oracle)
    failed = 0
    for call in data["calls"]:
        if call["error"] is not None:
            why = call["error"]
        elif call["rc"] != 0:
            why = f"exit code {call['rc']}"
        elif call["sha256"] != digest:
            why = "report bytes differ from the run's first report"
        else:
            why = None
        if why:
            problems.append(why)
        failed += bool(why or oracle)
    return failed, problems


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def tail(values: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    text = f"median {statistics.median(values):.6g}, fastest {min(values):.6g}, over {len(values)} calls"
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return text + f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return text


def recorded_digest(name: str, seed: int):
    try:
        return json.loads(RECORDED.read_text()).get(name, {}).get(str(seed))
    except FileNotFoundError:
        return None


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, from the `end_to_end` or `per_layer` list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_one(name: str, seed: int, seconds: float, trace: int, env: dict) -> tuple[int, int, dict]:
    """(attempted, failed, metrics) of one workload; prints its report lines."""
    if trace:
        plain = run_worker(name, seed, seconds * UNTRACED_SHARE_IN_TRACE, 0, env)
        traced = run_worker(name, seed, seconds * (1 - UNTRACED_SHARE_IN_TRACE), 1, env)
        workers = [plain, traced]
    else:
        setup = setup_seconds(seed, env)
        plain = run_worker(name, seed, seconds, 0, env)
        workers = [plain]
    attempted = failed = 0
    problems: list[str] = []
    for data in workers:
        f, p = judge(name, seed, data, plain["report"])
        attempted += len(data["calls"])
        failed += f
        problems += p
    times = [c["s"] for c in plain["calls"]]
    summary = WORKLOADS[name].summary
    v = plain["versions"]
    print(f"workload {name} seed {seed} trace {trace}")
    print(
        f"  env nproc={os.cpu_count()} cpu={cpu_model()!r} python={v['python']} "
        f"numpy={v['numpy']} scipy={v['scipy']} blas_threads=1"
    )
    print(f"  call seconds: {tail(times)}")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} certificates)")
    for problem in dict.fromkeys(problems):
        print(f"  problem: {problem}")
    digest = hashlib.sha256(plain["report"].encode()).hexdigest()
    want = recorded_digest(name, seed)
    status = "not recorded" if want is None else ("matches record" if want == digest else "DIFFERS from record")
    print(f"  report_sha256 {digest} ({status})")
    if trace:
        values = dict(traced["layers"])
        values["trace.verdict_s"] = summary([c["s"] for c in traced["calls"]])
        values["trace.overhead_s"] = values["trace.verdict_s"] - summary(times)
        values["process.cpu_s"] = summary([c["cpu_s"] for c in plain["calls"]])
        units = declared("per_layer")
    else:
        values = {
            "verdict_s": summary(times),
            "setup_s": setup,
            "peak_rss_mb": plain["peak_rss_mib"],
        }
        units = declared("end_to_end")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    for key, m in metrics.items():
        print(f"  {key} {m['value']:.6g} {m['unit']}")
    return attempted, failed, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "cechcert" / "cli.py").is_file():
        print(f"error: no cechcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = child_env()
    attempted = failed = 0
    metrics: dict = {}
    try:
        for name in names:
            a, f, m = run_one(name, args.seed, args.seconds, args.trace, env)
            attempted += a
            failed += f
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
