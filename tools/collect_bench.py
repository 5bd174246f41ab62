"""Fold the benchmark's result records of two checkouts into one BENCH file.

    python3 tools/collect_bench.py --parent DIR --change DIR \
        --claim WORKLOAD:METRIC --out BENCH_<n>.json

DIR is a checkout in which `perfbench/run.py` has run; its records are
`DIR/.perfbench/results/<workload>-seed<n>-trace<t>.json`. The output holds
the environment of each side, the median and quartiles of every end-to-end
metric per workload and side (untraced records), the operations attempted and
failed, the claimed metric's pairs (the two sides' runs of the same seed) and
how many the change won, and the per-layer figures of one traced run per
workload and side (the lowest seed traced). Metric names, units and which
direction is better come from `BENCHMARK.json` at the root of the repository.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def load_records(checkout: Path) -> dict:
    """{(workload, trace): {seed: record}} of one checkout."""
    out: dict = {}
    for path in sorted((checkout / ".perfbench" / "results").glob("*.json")):
        match = RECORD.fullmatch(path.name)
        if match is None:
            continue
        key = (match["workload"], int(match["trace"]))
        out.setdefault(key, {})[int(match["seed"])] = json.loads(path.read_text())
    return out


def spread(values: list) -> dict:
    """Median, first and third quartile (inclusive method) and count."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def side_summary(runs: dict, metrics: list) -> dict:
    seeds = sorted(runs)
    return {
        "seeds": seeds,
        "attempted": sum(runs[s]["attempted"] for s in seeds),
        "failed": sum(runs[s]["failed"] for s in seeds),
        "correct": all(runs[s]["correct"] for s in seeds),
        "metrics": {m["name"]: dict(spread([runs[s]["metrics"][m["name"]]["value"]
                                            for s in seeds]), unit=m["unit"])
                    for m in metrics},
    }


def claim_summary(parent: dict, change: dict, metric: dict) -> dict:
    """Pairs of same-seed runs: wins for the change, medians and the parent's IQR."""
    name, higher = metric["name"], metric["better"] == "higher"
    pairs = []
    for seed in sorted(set(parent) & set(change)):
        p = parent[seed]["metrics"][name]["value"]
        c = change[seed]["metrics"][name]["value"]
        pairs.append({"seed": seed, "parent": p, "change": c,
                      "change_won": c > p if higher else c < p})
    p_spread = spread([x["parent"] for x in pairs])
    c_spread = spread([x["change"] for x in pairs])
    gain = c_spread["median"] - p_spread["median"]
    return {"metric": name, "better": metric["better"], "pairs": pairs,
            "wins": sum(x["change_won"] for x in pairs), "n_pairs": len(pairs),
            "parent_median": p_spread["median"], "change_median": c_spread["median"],
            "median_ratio": c_spread["median"] / p_spread["median"],
            "median_gain": gain if higher else -gain,
            "parent_quartile_distance": p_spread["q3"] - p_spread["q1"]}


def per_layer(runs: dict) -> dict:
    seed = min(runs)
    return {"seed": seed,
            "metrics": {k: v["value"] for k, v in runs[seed]["metrics"].items()}}


def collect(parent_dir: Path, change_dir: Path, claim: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    sides = {"parent": load_records(parent_dir), "change": load_records(change_dir)}
    workload, _, name = claim.partition(":")
    out = {"environment": {side: next(iter(records[(workload, 0)].values()))["environment"]
                           for side, records in sides.items()},
           "workloads": {}, "per_layer": {}}
    for w in (w["name"] for w in bench["workloads"]):
        untraced = {side: records.get((w, 0)) for side, records in sides.items()}
        if all(untraced.values()):
            out["workloads"][w] = {side: side_summary(runs, metrics)
                                   for side, runs in untraced.items()}
        traced = {side: records.get((w, 1)) for side, records in sides.items()}
        if all(traced.values()):
            out["per_layer"][w] = {side: per_layer(runs) for side, runs in traced.items()}
    metric = next(m for m in metrics if m["name"] == name)
    out["claim"] = dict(claim_summary(sides["parent"][(workload, 0)],
                                      sides["change"][(workload, 0)], metric),
                        workload=workload)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--claim", required=True, metavar="WORKLOAD:METRIC")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    args.out.write_text(json.dumps(collect(args.parent, args.change, args.claim),
                                   indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
