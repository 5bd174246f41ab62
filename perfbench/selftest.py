"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and requires its
checks to pass and its metrics to match BENCHMARK.json. Then feeds each
check one deliberately wrong output and requires that check to fail,
requires a SKIP row (a failed operation) to pass every check, and runs
the benchmark where no program exists and requires it to refuse.
The stream workloads adapt from the cached default source checkpoint, so
the first self-test in a checkout trains it (about two minutes).
Exits 0 when everything holds.
"""
from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = workloads.Sizes(source_scenes=32, source_epochs=3, per_domain=20,
                       stream_rounds=1, warmup_per_domain=1, warmup_scenes=8, setups=2)


def first_boundary(c) -> int:
    return next(t for t in range(1, len(c.domains)) if c.domains[t] != c.domains[t - 1])


def first_et_probe(c) -> int:
    return next(i for i, p in enumerate(c.probes) if p[0] == "ET")


def set_item(seq_name, index, value):
    def mutate(c):
        getattr(c, seq_name)[index] = value
    return mutate


STREAM_MUTATIONS = {
    # check name: (workload whose capture is mutated, mutation)
    "check_decided": ("stream-no-adapt", lambda c: c.decisions.pop()),
    "check_forwards": ("stream-hybrid", lambda c: setattr(c, "encode_calls",
                                                          c.encode_calls + 1)),
    "check_ft_only": ("stream-ft-only", set_item("decisions", 7, "ET")),
    "check_hybrid_switching": ("stream-hybrid",
                               lambda c: c.decisions.__setitem__(first_boundary(c), "ET")),
    "check_et_frozen": ("stream-hybrid", lambda c: c.probes.__setitem__(
        first_et_probe(c), ("ET", b"before", b"after"))),
    "check_miou_recomputed": ("stream-ft-only",
                              lambda c: c.row_mious.__setitem__(3, c.row_mious[3] + 1e-9)),
    "check_above_constant": ("stream-no-adapt", lambda c: setattr(
        c, "mean_miou", checks.best_constant_miou(c.gts, c.num_classes))),
}

SOURCE_MUTATIONS = {
    "check_losses_finite": lambda c: c.losses.__setitem__(-1, math.nan),
    "check_loss_decreases": lambda c: c.losses.reverse(),
    "check_checkpoint_reload": lambda c: c.reloaded.__setitem__(
        "mask_token", b"\0" + c.reloaded["mask_token"][1:]),
    "check_gradients": lambda c: c.gradients.__setitem__(
        0, (c.gradients[0][0], 1.5 * c.gradients[0][1] + 1e-3, c.gradients[0][2])),
}


def as_skipped(c, t: int) -> None:
    """Turn instance t into a SKIP row, as the program reports one."""
    c.decisions[t], c.preds[t], c.row_mious[t] = "SKIP", None, math.nan
    c.mean_miou = float(np.mean([x for x in c.row_mious if not math.isnan(x)]))


def declared() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main() -> int:
    problems = []
    e2e_units, layer_units = declared()
    captures = {}
    for name in workloads.WORKLOADS:
        outcome = workloads.run_workload(name, seed=0, seconds=0.0, sizes=TINY)
        problems += [f"{name}: {f}" for f in outcome.failures]
        captures[name] = outcome.rounds[0].capture
        got = {k: u for k, (v, u) in run.end_to_end(outcome).items()}
        if got != e2e_units:
            problems.append(f"{name}: end-to-end metrics {got} differ from BENCHMARK.json")
        tracer = Tracer()
        traced = workloads.run_workload(name, seed=0, seconds=0.0, sizes=TINY, tracer=tracer)
        problems += [f"{name} traced: {f}" for f in traced.failures]
        got = {k: u for k, (v, u) in run.per_layer_metrics(traced, tracer, name).items()}
        if got != layer_units:
            diff = sorted(set(got.items()) ^ set(layer_units.items()))
            problems.append(f"{name}: per-layer metrics differ from BENCHMARK.json: {diff}")
        print(f"selftest: {name} ran, {len(outcome.failures)} check failures", flush=True)

    for check in checks.STREAM_CHECKS:
        workload, mutate = STREAM_MUTATIONS[check.__name__]
        wrong = copy.deepcopy(captures[workload])
        mutate(wrong)
        if check(wrong) is None:
            problems.append(f"{check.__name__} accepted a wrong {workload} output")
    for check in checks.SOURCE_CHECKS:
        wrong = copy.deepcopy(captures["source-train"])
        SOURCE_MUTATIONS[check.__name__](wrong)
        if check(wrong) is None:
            problems.append(f"{check.__name__} accepted a wrong source-train output")

    # A SKIP is a failed operation, counted in `failed`; it must not fail a check.
    skipped = copy.deepcopy(captures["stream-hybrid"])
    as_skipped(skipped, first_boundary(skipped))
    problems += [f"with a SKIP row: {f}" for f in
                 checks.failures(checks.STREAM_CHECKS, skipped)]

    bare = workloads.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "stream-hybrid", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("the benchmark ran where no program exists")

    for p in problems:
        print("selftest: FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
