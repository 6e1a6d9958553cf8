"""Benchmark of ratapprox: one workload per fresh process with BLAS pinned to one thread.

    python3 perfbench/run.py --workload repro --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, one after another

Run it from the root of a checkout that holds ``src/ratapprox``. Each run
starts ``perfbench/worker.py`` in a new process whose environment pins
OpenBLAS, OpenMP and MKL to one thread before numpy loads, and relays its
output; the last line is the run's JSON result. Without ``--workload`` it
prints, for each workload, every metric with its unit and the operations
attempted and failed. Outputs go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("repro", "fit-sweep", "dense-eval")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: A run must end within 180 s; the worker is stopped before that.
WORKER_TIMEOUT_S = 170


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, str]:
    """Run one workload in a fresh worker; (result or None, worker stdout)."""
    env = os.environ | PINNED
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        print(f"{workload}: worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        # captured output on a timeout is bytes even in text mode
        return None, (exc.stdout or b"").decode(errors="replace")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        print(f"{workload}: worker exited with code {done.returncode}", file=sys.stderr)
        return None, done.stdout
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"{workload}: worker printed no result", file=sys.stderr)
        return None, done.stdout
    return result, "\n".join(lines[:-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, default=None, help="default: every workload in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        result, log = run_one(workload, args.seed, args.seconds, args.trace)
        if result is None:
            print(log, file=sys.stderr)
            status = 1
            continue
        print(log)
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
