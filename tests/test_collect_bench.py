"""`tools/collect_bench.py` folds two checkouts' benchmark records into one file."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("collect_bench",
                                               ROOT / "tools" / "collect_bench.py")
collect_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(collect_bench)
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def _write(checkout: Path, workload: str, seed: int, trace: int, metrics: dict) -> None:
    results = checkout / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"correct": True, "attempted": 10, "failed": 0, "environment": {"nproc": 2},
              "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_claim_pairs_spreads_and_traced_figures(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    ops = {parent: [80.0, 90.0, 100.0, 110.0], change: [95.0, 85.0, 120.0, 130.0]}
    for side, values in ops.items():
        for seed, v in enumerate(values):
            _write(side, "source-train", seed, 0, {m: v for m in METRICS})
        _write(side, "source-train", 0, 1, {"source.step_ms": values[0]})
    out = collect_bench.collect(parent, change, "source-train:ops_per_s")

    claim = out["claim"]
    assert [p["change_won"] for p in claim["pairs"]] == [True, False, True, True]
    assert (claim["wins"], claim["n_pairs"]) == (3, 4)
    assert claim["parent_median"] == 95.0 and claim["change_median"] == 107.5
    assert claim["median_gain"] == 12.5
    assert claim["parent_quartile_distance"] == pytest.approx(15.0)
    summary = out["workloads"]["source-train"]["parent"]["metrics"]["step_ms_p50"]
    assert (summary["q1"], summary["median"], summary["q3"]) == (87.5, 95.0, 102.5)
    assert out["per_layer"]["source-train"]["change"] == {
        "seed": 0, "metrics": {"source.step_ms": 95.0}}
    assert out["environment"]["parent"] == {"nproc": 2}
    assert list(out["workloads"]) == ["source-train"]
