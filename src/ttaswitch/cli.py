"""Command-line entry points: train-source, adapt, eval."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import load_config, run_experiment
from .source import train_source


def _add_common(sub, needs_checkpoint: bool):
    sub.add_argument("--config", type=Path, required=True, metavar="PATH",
                     help="flat key=value run configuration")
    sub.add_argument("--out", type=Path, default=None, metavar="DIR",
                     help="output directory (default: out_dir from the config)")
    sub.add_argument("--seed", type=int, default=None, metavar="N",
                     help="override the config seed")
    if needs_checkpoint:
        sub.add_argument("--checkpoint", type=Path, required=True, metavar="PATH",
                         help="source-stage checkpoint file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttaswitch",
        description="Masked multi-task training plus continual test-time "
                    "adaptation with per-instance full/efficient tuning.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("train-source",
                               help="train on the synthetic source domain"), False)
    _add_common(sub.add_parser("adapt",
                               help="adapt over the corrupted stream"), True)
    _add_common(sub.add_parser("eval",
                               help="evaluate the frozen checkpoint (no adaptation)"),
                True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:   # a refused config or checkpoint is a usage error: reported, nothing written
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, out_dir=str(args.out))
        if args.command != "train-source" and not args.checkpoint.is_file():
            raise FileNotFoundError(f"checkpoint not found: {args.checkpoint}")
    except (ValueError, FileNotFoundError) as e:
        parser.error(str(e))

    if args.command == "train-source":
        path = train_source(cfg, cfg.source_scenes, cfg.source_epochs,
                            cfg.batch_size, cfg.lr_source, cfg.seed, cfg.out_dir,
                            optimizer_kind=cfg.optimizer, log_every=5)
        print(f"checkpoint written: {path}")
        return 0

    if args.command == "eval":
        cfg = replace(cfg, mode="no-adapt")
    result = run_experiment(cfg, args.checkpoint)
    print((result.out_dir / "summary.txt").read_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
