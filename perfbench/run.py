"""Benchmark of ttaswitch: four workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is imported from `src/`; its
outputs, the source-checkpoint cache, traces and result records go to
`.perfbench/`. The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`). See README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("source-train", "stream-hybrid", "stream-ft-only", "stream-no-adapt")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by library file."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def end_to_end(outcome) -> dict:
    steps_ms = [s * 1000.0 for r in outcome.rounds for s in r.step_s]
    return {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_per_s": (statistics.median(r.ops / r.wall_s for r in outcome.rounds), "ops/s"),
        "step_ms_p50": (statistics.median(steps_ms), "ms"),
        "step_ms_p95": (percentile(steps_ms, 95), "ms"),
        "miou": (outcome.quality, "mIoU"),
    }


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if "_ms" in name:
        return "ms"
    if "grad_use_ratio" in name:
        return "ratio"
    last = name.rsplit(".", 1)[-1]
    return {"tape_mb": "MB", "overhead_pct": "%", "final_loss": "loss"}.get(last, "count")


def per_layer_metrics(outcome, tracer, workload: str) -> dict:
    from tracing import per_layer
    untraced, traced = outcome.rounds[0], outcome.rounds[1:]
    ops = sum(r.ops for r in traced)
    stream = workload != "source-train"
    figures = per_layer(tracer.spans, instances=ops if stream else 0,
                        images=0 if stream else ops)
    traced_wall = statistics.median(r.wall_s for r in traced)
    figures["trace.overhead_pct"] = 100.0 * (traced_wall - untraced.wall_s) / untraced.wall_s
    cap = untraced.capture
    figures["source.final_loss"] = (0.0 if stream else
                                    statistics.fmean(cap.losses[-cap.steps_per_epoch:]))
    return {name: (value, layer_unit(name)) for name, value in figures.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: with the default two, step times on these tiny matrices
    # flip between two speeds from run to run (see README.md, Environment).
    # OpenBLAS reads this once, when numpy loads it below.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (ROOT / "src" / "ttaswitch" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'ttaswitch'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from tracing import Tracer

    env = environment()
    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    outcome = workloads.run_workload(args.workload, args.seed, args.seconds, tracer=tracer)
    metrics = (per_layer_metrics(outcome, tracer, args.workload) if args.trace
               else end_to_end(outcome))
    attempted = sum(r.ops for r in outcome.rounds)
    failed = sum(r.failed for r in outcome.rounds)
    result = {"correct": not outcome.failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    record_dir = workloads.WORK / "results"
    record_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, environment=env, failures=outcome.failures,
                  setup_s=outcome.setup_s, wall_s=time.perf_counter() - started,
                  rounds=[{"wall_s": r.wall_s, "ops": r.ops, "failed": r.failed}
                          for r in outcome.rounds])
    (record_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        trace_dir = workloads.WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{stem}.csv")
    for reason in outcome.failures:
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(outcome.rounds)} rounds, "
          f"BLAS threads {sorted(env['blas_threads'].values())}, load {env['loadavg'][0]:.2f}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
