#!/usr/bin/env python3
"""jointmix benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 15 --trace 0

Workloads: cli_session, sample_verify, ra_evidence, certify_numerics (see
README.md).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

The program is taken from ``src/`` of the checkout; there is nothing to
build.  BLAS/OpenMP pools are pinned to one thread.  Every run starts three
worker interpreters one after another; ``setup_s`` is the median of their
set-up times.  CLI workloads measure in the last worker only, library
workloads in all three, each for a third of ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import ops_per_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_session", "sample_verify", "ra_evidence", "certify_numerics")
SETUP_SAMPLES = 3
# A library workload runs in its worker process, and this host's speed
# differs from process to process by up to ~15%; splitting the run across
# processes averages that out.  CLI workloads start a process per operation.
MEASURING_WORKERS = {"ra_evidence": 3, "certify_numerics": 3}
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def bench_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(argv, env, deadline):
    """Start worker.py; return (set-up seconds, last stdout line)."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if code != 0 or not lines or not lines[0].startswith("READY "):
        raise SystemExit(f"worker {' '.join(argv)} exited {code}")
    return float(lines[0].split()[1]) - t0, lines[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jointmix" / "__init__.py").is_file():
        print(f"no jointmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = bench_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        _, line = run_worker([*common, "--seconds", str(args.seconds), "--trace", "1"], env, deadline)
        print(line)
        return 0

    measuring = MEASURING_WORKERS.get(args.workload, 1)
    setups, parts = [], []
    for i in range(SETUP_SAMPLES):
        if i < SETUP_SAMPLES - measuring:
            setups.append(run_worker([*common, "--seconds", "0", "--setup-only"], env, deadline)[0])
        else:
            setup, line = run_worker([*common, "--seconds", str(args.seconds / measuring)], env, deadline)
            setups.append(setup)
            parts.append(json.loads(line))
    result = {
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": {
            "ops_per_s": {"value": ops_per_s(parts), "unit": "1/s"},
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in parts), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
