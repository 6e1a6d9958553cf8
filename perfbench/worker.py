"""One benchmark run of one workload, in a fresh process started by run.py.

Sets up the workload several times, runs timed passes for the given
number of seconds, checks every pass and prints the result as the last
line of standard output. With ``--trace 1`` it then runs as many traced
passes, with every layer wrapped in spans, and reports per-layer metrics
of the traced pass with the median wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3

IMPORT_PROBE = "import time; t = time.perf_counter(); import ratapprox.cli; print(time.perf_counter() - t)"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def own_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(load_at_start) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas": blas_name,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "load_avg_at_start": load_at_start,
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        # read after numpy and scipy have loaded their BLAS
        "threads_after_import": own_threads(),
    }


def time_import() -> float:
    """Import time of ratapprox in a fresh interpreter with this process's environment."""
    env = os.environ | {"PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_passes(workload, seconds: float, traced: bool):
    """Passes until ``seconds`` have elapsed (at least one).

    Returns (wall_s, checked result, recorder or None, layer metrics or None) per pass.
    """
    from layers import LayerRecorder, all_targets, layer_metrics
    from spans import instrumented

    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        rec = LayerRecorder() if traced else None
        with instrumented(rec, all_targets()) if traced else nullcontext():
            t0 = time.perf_counter()
            raw = workload.run_pass(rec)
            wall = time.perf_counter() - t0
        result = workload.check(raw)
        passes.append((wall, result, rec, layer_metrics(rec, wall) if traced else None))
    return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    if not (SRC / "ratapprox" / "__init__.py").is_file():
        print(f"no ratapprox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ratapprox

    if Path(ratapprox.__file__).resolve().parent != SRC / "ratapprox":
        print(f"imported ratapprox from {ratapprox.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    from workloads import METHODS, WORKLOADS

    env = environment(load_at_start)
    if env["threads_after_import"] != 1:
        print(f"warning: {env['threads_after_import']} threads after import; BLAS pin not in effect",
              file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)

    setups, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        import_s = time_import()
        t0 = time.perf_counter()
        setups.append(workload.setup())
        setup_times.append(import_s + time.perf_counter() - t0)

    passes = run_passes(workload, args.seconds, traced=False)
    traced = run_passes(workload, args.seconds, traced=True) if args.trace else []

    results = setups + [r for _, r, _, _ in passes + traced]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    signatures = [r.signature for _, r, _, _ in passes + traced]
    repeatable = all(s == signatures[0] for s in signatures)
    if not repeatable:
        print("passes disagree on orders, counts or accuracies", file=sys.stderr)
    walls = [w for w, _, _, _ in passes]
    first = passes[0][1]
    # per-method fit time: of the passes, or of the set-ups where the fits happen there
    fit_results = [r for _, r, _, _ in passes] if first.fit_s else setups
    fit_s = {m: statistics.median(r.fit_s[m] for r in fit_results) for m in METHODS}

    if args.trace:
        # the traced pass with the median wall time (lower median)
        ranked = sorted(traced, key=lambda p: p[0])
        wall, _, _, layer = ranked[(len(ranked) - 1) // 2]
        metrics = dict(layer)
        metrics["bench.trace_overhead_s"] = wall - statistics.median(walls)
        # scalar-eval latency of the untraced passes (dense-eval only)
        latencies = np.asarray([t for _, r, _, _ in passes for t in r.latencies]) * 1e6
        metrics["point_eval_us.p50"] = float(np.percentile(latencies, 50)) if latencies.size else 0.0
        metrics["point_eval_us.p99"] = float(np.percentile(latencies, 99)) if latencies.size else 0.0
        metrics["point_eval_us.samples"] = int(latencies.size)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fit_s.loewner": fit_s["loewner"],
        }
        for method in METHODS:
            metrics[f"digits.{method}"] = first.digits.get(method, 0.0)

    # report exactly the metrics BENCHMARK.json lists, in its order and units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in units}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_s": setup_times,
        "wall_s": walls,
        "traced_wall_s": [w for w, _, _, _ in traced],
        "fit_s": fit_s,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if traced:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as fh:
            for index, (_, _, rec, _) in enumerate(traced):
                fh.write(json.dumps({"pass": index, "spans": len(rec.spans)}) + "\n")
                for record in rec.records():
                    fh.write(json.dumps(record) + "\n")

    print("env " + json.dumps(env))
    print(f"{args.workload}: seed {args.seed}, {len(passes)} passes, {len(traced)} traced passes, "
          f"{attempted} operations attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
