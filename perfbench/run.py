"""pmdpdl benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact_chains, exact_scan, weak_optimize, cli_sphere (see
perfbench/README.md). The program is used from source (src/); nothing is
installed or built.

The workload runs in one fresh worker process (worker.py), with BLAS and
OpenMP pinned to one thread; worker.py describes how ops, set-up time and
the traced pass are measured.

Standard output: a readable summary, the machine description, and as the
last line one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit code is 0 when the run completed, even if some ops failed their
check (that is reported through "correct" and "failed"); it is non-zero,
with no result line, when the run could not be made.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("exact_chains", "exact_scan", "weak_optimize", "cli_sphere")
# The worker's time limit; a run must end within 180 s.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One client on one core: keep numpy's BLAS from taking the second CPU
    # for the large overlap products.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, workdir: Path, env: dict) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if args.trace:
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload timed out") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pmdpdl benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pmdpdl" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'pmdpdl'}", file=sys.stderr)
        return 2

    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=BUILD))
    try:
        result = run_worker(args, workdir, child_env())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops attempted (closed loop, 1 client), {failed} failed, "
          f"error_rate {failed / attempted:.6g}; "
          f"{result['setup_launches']} set-up launches")
    for name, metric in sorted(metrics.items()):
        print(f"  {name:28s} {metric['value']:>18.9g} {metric['unit']}")
    if "wall_clock" in result:
        print("  wall clock, not scaled to reference host speed: " + ", ".join(
            f"{key} {value:.6g}" for key, value in result["wall_clock"].items()))
    for error in result["errors"]:
        print(f"  FAILED {error}")
    for key in ("absent", "broken_counters"):
        if result.get(key):
            print(f"  {key}: {', '.join(result[key])}")
    print("env " + json.dumps({
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": result["numpy_version"],
        "blas_threads": 1,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
