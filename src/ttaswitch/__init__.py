"""Masked multi-task training with switched full/efficient test-time tuning.

A float64 numpy stack, bottom-up: a tape autodiff engine, a small vision
transformer with parallel adapters and a learnable mask token, source-stage
multi-task training, a continual test-time adaptation engine that picks
full or efficient tuning per instance by detecting domain shifts in the
input sequence, synthetic corrupted streams, and a config-driven experiment
harness.
"""

from .adaptation import (ET, FT, SKIP, AdaptationEngine, StepReport, decide_shift,
                         detect_shift, ema_update, update_threshold)
from .autodiff import (GraphError, NonFiniteError, Optimizer, ShapeError, Tape,
                       Tensor, backward, recording)
from .checkpoint import load_checkpoint, save_checkpoint
from .harness import (MODES, PER_INSTANCE_COLUMNS, RunConfig, RunResult,
                      load_config, measure_throughput, parse_config_text,
                      round_summary, run_experiment, run_mode_comparison)
from .metrics import compute_miou
from .model import (ModelConfig, PatchMask, apply_mask, draw_mask, encode, init_params,
                    insert_adapters, predict)
from .params import GROUPS, ParamStore
from .source import SourceBatch, make_source_scenes, source_step, train_source
from .streams import (CORRUPTIONS, CorruptionSpec, Scene, StreamInstance,
                      apply_corruption, build_stream, generate_scene)

__version__ = "0.1.0"

__all__ = [
    "AdaptationEngine", "CORRUPTIONS", "CorruptionSpec", "ET", "FT", "GROUPS",
    "GraphError", "MODES", "ModelConfig", "NonFiniteError", "Optimizer",
    "PER_INSTANCE_COLUMNS", "ParamStore", "PatchMask", "RunConfig", "RunResult",
    "SKIP", "Scene", "ShapeError", "SourceBatch", "StepReport",
    "StreamInstance", "Tape", "Tensor", "apply_corruption", "apply_mask",
    "backward", "build_stream", "compute_miou", "decide_shift", "detect_shift",
    "draw_mask", "ema_update", "encode", "generate_scene", "init_params",
    "insert_adapters", "load_checkpoint", "load_config", "make_source_scenes",
    "measure_throughput", "parse_config_text", "predict",
    "recording", "round_summary", "run_experiment", "run_mode_comparison",
    "save_checkpoint", "source_step", "train_source", "update_threshold",
]
