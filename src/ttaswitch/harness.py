"""Experiment harness: flat-file configs, run orchestration, CSV artifacts.

A run is described by a flat ``key = value`` text file (``#`` starts a
comment). Unknown and duplicate keys are rejected with their line number.
`RunConfig` extends `ModelConfig`: the nine model fields, their defaults
and their checks come first, then the run settings. A `RunConfig` checks
itself whole when it is built, whether parsed, copied with ``replace`` or
constructed directly. Besides the `ModelConfig` checks, which refuse a
value of another kind than its field's default in any field (so the echo
parses back), it refuses an unknown mode, optimizer or domain, repeated
domains, counts out of range, a severity, alpha or alpha_l outside
[0, 1], a learning rate that is not finite and positive, a negative seed
and more classes than the scene palette, so an invalid run is refused
before anything is written. So is a checkpoint that does not fit the
config, one without adapters included: `run_experiment` builds its
engine, which checks the layout, before it creates the output directory.
The effective configuration is echoed into the output directory,
followed by a per-instance CSV, a per-round summary CSV, and a one-line
summary.

Floats in CSVs are written with ``repr``, so equal runs produce
byte-identical files. Wall-clock columns stay reproducible because every
entry point accepts an injectable ``clock``; production uses
``time.perf_counter`` and determinism tests substitute a fake counter.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .adaptation import ET, FT, SKIP, AdaptationEngine, StepReport
from .checkpoint import load_checkpoint
from .metrics import compute_miou
from .model import ModelConfig
from .streams import CORRUPTIONS, MAX_CLASSES, build_stream

MODES = ("hybrid", "ft-only", "et-only", "no-adapt")
NO_DECISION = "NA"   # per-instance decision tag in no-adapt mode

# per-instance CSV, column -> type in file order; a column other than round and
# miou_instance is the StepReport field of the same name
PER_INSTANCE_TYPES = {"t": int, "domain": str, "round": int, "decision": str,
                      "loss_seg": float, "loss_rec": float, "tau_before": float,
                      "tau_after": float, "miou_instance": float, "wall_ms": float}
PER_INSTANCE_COLUMNS = tuple(PER_INSTANCE_TYPES)
ROUND_SUMMARY_COLUMNS = ("round", "domain", "n", "miou_mean", "ft", "et", "skip",
                         "ft_ratio", "mean_wall_ms")
MODES_SUMMARY_COLUMNS = ("mode", "instances", "mean_miou", "ft", "et", "skip",
                         "ft_ratio", "mean_wall_ms")


@dataclass(frozen=True)
class RunConfig(ModelConfig):
    """The model fields of `ModelConfig`, then the run settings, in file order."""

    alpha: float = 0.999
    alpha_l: float = 0.9
    lr_source: float = 1e-3
    lr_tta: float = 1e-4
    optimizer: str = "adam"
    mode: str = "hybrid"
    domains: tuple = ("fog", "night", "rain", "snow")
    per_domain: int = 40
    rounds: int = 3
    severity: float = 0.8
    seed: int = 0
    source_scenes: int = 200
    source_epochs: int = 30
    batch_size: int = 8
    out_dir: str = "runs/default"

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be adam or sgd, got '{self.optimizer}'")
        if not self.domains or not set(self.domains) <= set(CORRUPTIONS):
            raise ValueError(f"domains must be one or more of {CORRUPTIONS}, "
                             f"got {self.domains}")
        if len(set(self.domains)) != len(self.domains):
            raise ValueError(f"domains must not repeat, got {self.domains}")
        if self.per_domain < 1 or self.rounds < 1:
            raise ValueError("per_domain and rounds must be >= 1")
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError("severity must lie in [0, 1]")
        if self.source_scenes < 1 or self.batch_size < 1 or self.source_epochs < 0:
            raise ValueError("source_scenes/batch_size must be >= 1, source_epochs >= 0")
        if not all(math.isfinite(lr) and lr > 0 for lr in (self.lr_source, self.lr_tta)):
            raise ValueError(f"learning rates must be finite and positive, got "
                             f"lr_source={self.lr_source}, lr_tta={self.lr_tta}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.alpha <= 1.0 or not 0.0 <= self.alpha_l <= 1.0:
            raise ValueError("alpha and alpha_l must lie in [0, 1]")
        if self.num_classes > MAX_CLASSES:
            raise ValueError(f"num_classes {self.num_classes} exceeds the scene palette "
                             f"({MAX_CLASSES} classes)")


def _parse_value(key: str, raw: str, kind: type, lineno: int):
    try:
        if kind is tuple:
            items = tuple(part.strip() for part in raw.split(",") if part.strip())
            if not items:
                raise ValueError("empty list")
            return items
        return kind(raw)
    except ValueError as e:
        raise ValueError(f"config line {lineno}: bad value for '{key}': {e}") from None


def parse_config_text(text: str) -> RunConfig:
    kinds = {f.name: type(f.default) for f in fields(RunConfig)}
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', "
                             f"got '{raw_line.strip()}'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in kinds:
            raise ValueError(f"config line {lineno}: unknown key '{key}'")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key '{key}'")
        if not raw:
            raise ValueError(f"config line {lineno}: empty value for '{key}'")
        values[key] = _parse_value(key, raw, kinds[key], lineno)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def format_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(v)
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


@dataclass
class RunResult:
    mode: str
    rows: list
    mean_miou: float
    ft_count: int
    et_count: int
    skip_count: int
    forward_count: int
    total_wall_s: float
    out_dir: Path


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, columns, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


# fixed tuning decisions of the baseline modes; hybrid uses the engine's detector
_FIXED_DECISIONS = {"ft-only": FT, "et-only": ET}


def _load_matching(cfg: RunConfig, checkpoint_path):
    """Load the checkpoint; refuse one built for another model."""
    checkpoint_path = Path(checkpoint_path)
    if not checkpoint_path.exists():
        raise FileNotFoundError(f"checkpoint not found: {checkpoint_path}")
    params, ckpt_config = load_checkpoint(checkpoint_path)
    expected = cfg.model_config()
    if ckpt_config != expected:
        raise ValueError(f"checkpoint model config {ckpt_config} does not match "
                         f"run config {expected}")
    return params, expected


def run_experiment(cfg: RunConfig, checkpoint_path, out_dir=None,
                   clock=time.perf_counter) -> RunResult:
    """Stream the corrupted instances through one adaptation mode.

    Writes config_echo.cfg, per_instance.csv, round_summary.csv, and
    summary.txt under out_dir (default: cfg.out_dir). The evaluated
    prediction for each instance is the teacher's output on the unmasked
    image, computed before that instance's update.
    """
    params, expected = _load_matching(cfg, checkpoint_path)
    engine = AdaptationEngine(params, expected, lr=cfg.lr_tta, alpha=cfg.alpha,
                              alpha_l=cfg.alpha_l, optimizer_kind=cfg.optimizer,
                              fixed_decision=_FIXED_DECISIONS.get(cfg.mode),
                              mask_seed=cfg.seed, clock=clock)
    out_dir = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_echo.cfg").write_text(format_config(cfg))
    stream = build_stream(expected, cfg.domains, cfg.per_domain, cfg.rounds,
                          cfg.seed, cfg.severity)
    rows = []
    run_start = clock()
    for inst in stream:
        if cfg.mode == "no-adapt":
            start = clock()
            pred = engine.pseudo_label(inst.image)
            report = StepReport(t=inst.t, domain=inst.domain, decision=NO_DECISION,
                                wall_ms=(clock() - start) * 1000.0, teacher_labels=pred)
        else:
            report = engine.step(inst.image, t_index=inst.t, domain=inst.domain)
        miou = (math.nan if report.teacher_labels is None
                else compute_miou(inst.labels, report.teacher_labels))
        own = {"round": inst.round, "miou_instance": miou}
        rows.append({c: own[c] if c in own else getattr(report, c)
                     for c in PER_INSTANCE_TYPES})
    total_wall_s = clock() - run_start

    _write_csv(out_dir / "per_instance.csv", PER_INSTANCE_COLUMNS, rows)
    _write_csv(out_dir / "round_summary.csv", ROUND_SUMMARY_COLUMNS,
               round_summary(rows, cfg.domains))

    total = _tally(rows)
    mean_miou, ft, et, skip = (total["miou_mean"], total["ft"], total["et"],
                               total["skip"])
    if cfg.mode != "no-adapt":
        if (ft, et, skip) != (engine.ft_count, engine.et_count, engine.skipped):
            raise AssertionError("per-instance rows disagree with engine counters")
    summary = (f"mode={cfg.mode} instances={len(rows)} mean_miou={mean_miou!r} "
               f"ft={ft} et={et} skipped={skip}\n")
    (out_dir / "summary.txt").write_text(summary)
    return RunResult(mode=cfg.mode, rows=rows, mean_miou=mean_miou, ft_count=ft,
                     et_count=et, skip_count=skip,
                     forward_count=engine.forward_count,
                     total_wall_s=total_wall_s, out_dir=out_dir)


def _tally(rows) -> dict:
    """Count, mean mIoU of the scored rows, FT/ET/SKIP counts, FT ratio, wall ms."""
    mious = [r["miou_instance"] for r in rows if not math.isnan(r["miou_instance"])]
    ft = sum(1 for r in rows if r["decision"] == FT)
    et = sum(1 for r in rows if r["decision"] == ET)
    skip = sum(1 for r in rows if r["decision"] == SKIP)
    denom = ft + et
    return {"n": len(rows),
            "miou_mean": float(np.mean(mious)) if mious else float("nan"),
            "ft": ft, "et": et, "skip": skip,
            "ft_ratio": ft / denom if denom else float("nan"),
            "mean_wall_ms": (float(np.mean([r["wall_ms"] for r in rows]))
                             if rows else float("nan"))}


def round_summary(rows, domain_order) -> list:
    """Aggregate per-instance rows into (round, domain) cells plus totals.

    Emits one row per (round, domain in stream order), one per-round 'all'
    row, and a final ('all', 'all') row; recomputable from the per-instance
    CSV alone.
    """
    out = []
    for rnd in sorted({r["round"] for r in rows}):
        in_round = [r for r in rows if r["round"] == rnd]
        for domain in domain_order:
            members = [r for r in in_round if r["domain"] == domain]
            if members:
                out.append({"round": rnd, "domain": domain, **_tally(members)})
        out.append({"round": rnd, "domain": "all", **_tally(in_round)})
    out.append({"round": "all", "domain": "all", **_tally(rows)})
    return out


def read_per_instance_csv(path) -> list:
    """Load per_instance.csv back into typed rows (inverse of the writer)."""
    with Path(path).open() as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != PER_INSTANCE_COLUMNS:
            raise ValueError(f"per-instance columns must be {PER_INSTANCE_COLUMNS}")
        return [{c: kind(rec[c]) for c, kind in PER_INSTANCE_TYPES.items()}
                for rec in reader]


def measure_throughput(result: RunResult) -> tuple:
    """(instances per second, model forwards per instance) for a finished run.

    Asserts the forward-count contract: two forwards per instance in the
    adapting modes, one in no-adapt.
    """
    n = len(result.rows)
    if n == 0:
        raise ValueError("measure_throughput: empty run")
    forwards_per_instance = result.forward_count / n
    expected = 1.0 if result.mode == "no-adapt" else 2.0
    if forwards_per_instance != expected:
        raise AssertionError(f"mode {result.mode}: expected {expected} forwards "
                             f"per instance, measured {forwards_per_instance}")
    if result.total_wall_s <= 0:
        raise ValueError("measure_throughput: non-positive wall time")
    return n / result.total_wall_s, forwards_per_instance


def run_mode_comparison(cfg: RunConfig, checkpoint_path, out_dir,
                        modes=MODES, clock=time.perf_counter) -> dict:
    """Run several modes on the same stream; writes modes_summary.csv.

    The first mode's `run_experiment` refuses a checkpoint that does not fit.
    """
    out_dir = Path(out_dir)
    results = {}
    summary_rows = []
    for mode in modes:
        mode_cfg = replace(cfg, mode=mode)
        result = run_experiment(mode_cfg, checkpoint_path,
                                out_dir / mode.replace("-", "_"), clock=clock)
        results[mode] = result
        tally = _tally(result.rows)
        summary_rows.append({**tally, "mode": mode, "instances": tally["n"],
                             "mean_miou": tally["miou_mean"]})
    out_dir.mkdir(parents=True, exist_ok=True)   # already there unless modes is empty
    _write_csv(out_dir / "modes_summary.csv", MODES_SUMMARY_COLUMNS, summary_rows)
    return results
