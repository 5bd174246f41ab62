"""The benchmark's workloads: set-up, timed rounds and the captures checked.

Every workload drives the public API of `ttaswitch` from one process, as a
closed loop with a single caller: a round starts only after the previous
one ended, and within a round instance t+1 is adapted after instance t.
A round is one call that users make:

* source-train: `source.train_source` on the source scenes of the seed;
* stream-*: `harness.run_experiment` on the stream of the seed, in the
  workload's mode, from the cached source checkpoint.

The benchmark wraps a few functions of the program while it runs (the
step it times, the stream it reads ground truth from, the encoder whose
calls it counts, the parameters handed to the checkpoint writer) and
restores them afterwards.
"""
from __future__ import annotations

import hashlib
import math
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ttaswitch import checkpoint, harness, model, source
from ttaswitch.adaptation import AdaptationEngine
from ttaswitch.autodiff import Optimizer

from checks import (FD_STEP, SOURCE_CHECKS, STREAM_CHECKS, SourceCapture,
                    StreamCapture, confusion_miou, failures)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

RECIPE = harness.RunConfig()   # the program's default recipe

WORKLOADS = {
    "source-train": None,
    "stream-hybrid": "hybrid",
    "stream-ft-only": "ft-only",
    "stream-no-adapt": "no-adapt",
}

PROBE_EVERY = 32   # snapshot the non-adapter parameters around every 32nd step
PROBE_AT = 21
GRADIENT_ENTRIES = (("patch_embed.w", (0, 0)), ("blocks.0.attn.wq", (1, 2)),
                    ("blocks.1.mlp.w1", (3, 5)), ("blocks.1.adapter.down.w", (2, 1)),
                    ("seg_head.w", (2, 1)), ("rec_head.w", (0, 3)),
                    ("mask_token", (0, 1, 1)))
GRADIENT_BATCH = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the program's default recipe."""
    source_scenes: int = 200         # source-train rounds
    source_epochs: int = 2
    per_domain: int = 40             # stream rounds
    stream_rounds: int = 3
    warmup_per_domain: int = 5       # warm-up stream of each set-up
    warmup_scenes: int = 16          # warm-up training of each set-up
    setups: int = 9


@dataclass
class Round:
    wall_s: float
    ops: int
    failed: int
    step_s: list
    capture: object
    fingerprint: tuple      # equal for equal outputs
    trained: object = None  # source-train: the parameters read back


@dataclass
class Outcome:
    setup_s: list
    rounds: list
    quality: float
    failures: list


# ---------------------------------------------------------------------------
# the source checkpoint the stream workloads adapt from
# ---------------------------------------------------------------------------

def checkpoint_key() -> str:
    """Digest of the program's sources and the training recipe."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "ttaswitch"
    for path in sorted(pkg.rglob("*.py")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(harness.format_config(RECIPE).encode())
    return h.hexdigest()[:20]


def source_checkpoint() -> Path:
    """Cached checkpoint for this program version; trained once if missing.

    Training runs in a child process, so its memory and time stay out of
    every metric of the run that needed it.
    """
    path = WORK / "cache" / f"source-{checkpoint_key()}.htta"
    if path.exists():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"tmp-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(HERE / "make_checkpoint.py"), str(tmp)],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    os.replace(tmp / "source.htta", path)
    shutil.rmtree(tmp)
    return path


# ---------------------------------------------------------------------------
# wrapping the program's functions for the duration of a round
# ---------------------------------------------------------------------------

@contextmanager
def patched(*replacements):
    """Set (owner, attribute, value) triples; restore them on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def frozen_digest(params) -> bytes:
    """Digest of every parameter outside the adapter group."""
    h = hashlib.sha256()
    for name in params.names():
        if params.group_of(name) != "adapter":
            h.update(params[name].data.tobytes())
    return h.digest()


def _stream_wrappers(cap: StreamCapture, step_s: list, probes: bool):
    build_stream, encode = harness.build_stream, model.encode

    def recording_stream(*args, **kwargs):
        for inst in build_stream(*args, **kwargs):
            cap.domains.append(inst.domain)
            cap.gts.append(inst.labels)
            yield inst

    def counted_encode(*args, **kwargs):
        cap.encode_calls += 1
        return encode(*args, **kwargs)

    wrappers = [(harness, "build_stream", recording_stream),
                (model, "encode", counted_encode)]
    if cap.mode == "no-adapt":
        label = AdaptationEngine.__dict__["pseudo_label"]

        def timed_label(engine, image):
            start = time.perf_counter()
            pred = label(engine, image)
            step_s.append(time.perf_counter() - start)
            cap.preds.append(pred)
            return pred
        wrappers.append((AdaptationEngine, "pseudo_label", timed_label))
    else:
        step = AdaptationEngine.__dict__["step"]

        def timed_step(engine, image, t_index, domain=""):
            probe = probes and t_index % PROBE_EVERY == PROBE_AT
            before = frozen_digest(engine.student) if probe else None
            start = time.perf_counter()
            report = step(engine, image, t_index, domain)
            step_s.append(time.perf_counter() - start)
            if probe:
                cap.probes.append((report.decision, before, frozen_digest(engine.student)))
            cap.preds.append(report.teacher_labels)
            return report
        wrappers.append((AdaptationEngine, "step", timed_step))
    return wrappers


# ---------------------------------------------------------------------------
# stream workloads
# ---------------------------------------------------------------------------

def stream_config(mode: str, seed: int, sizes: Sizes) -> harness.RunConfig:
    return replace(RECIPE, mode=mode, seed=seed, per_domain=sizes.per_domain,
                   rounds=sizes.stream_rounds)


def stream_setup(cfg: harness.RunConfig, ckpt: Path, sizes: Sizes) -> None:
    """Checkpoint load, engine build and warm-up on a throwaway engine."""
    warm = replace(cfg, per_domain=sizes.warmup_per_domain, rounds=1)
    harness.run_experiment(warm, ckpt, WORK / "runs" / "warmup")


def stream_round(cfg: harness.RunConfig, ckpt: Path, probes: bool = True) -> Round:
    """One timed `run_experiment` call; `probes` samples the ET-step check."""
    cap = StreamCapture(mode=cfg.mode, num_classes=cfg.num_classes,
                        expected=len(cfg.domains) * cfg.per_domain * cfg.rounds)
    step_s = []
    with patched(*_stream_wrappers(cap, step_s, probes)):
        start = time.perf_counter()
        result = harness.run_experiment(cfg, ckpt, WORK / "runs" / cfg.mode)
        wall = time.perf_counter() - start
    cap.decisions = [r["decision"] for r in result.rows]
    cap.row_mious = [r["miou_instance"] for r in result.rows]
    cap.mean_miou = result.mean_miou
    cap.forward_count = result.forward_count
    fingerprint = (tuple(cap.decisions), tuple(map(repr, cap.row_mious)))
    return Round(wall_s=wall, ops=len(result.rows), failed=result.skip_count,
                 step_s=step_s, capture=cap, fingerprint=fingerprint)


# ---------------------------------------------------------------------------
# source training
# ---------------------------------------------------------------------------

def source_setup(seed: int, sizes: Sizes) -> list:
    """Render the source scenes and warm up training; returns the scenes."""
    cfg = RECIPE.model_config()
    scenes = source.make_source_scenes(cfg, sizes.source_scenes, seed)
    source.train_source(cfg, sizes.warmup_scenes, 1, RECIPE.batch_size,
                        RECIPE.lr_source, seed, WORK / "runs" / "warmup-source")
    return scenes


def source_round(seed: int, sizes: Sizes) -> Round:
    cap = SourceCapture(steps_per_epoch=math.ceil(sizes.source_scenes / RECIPE.batch_size))
    step_s = []
    saved = []
    source_step, save = source.source_step, source.save_checkpoint

    def timed_step(*args, **kwargs):
        start = time.perf_counter()
        losses = source_step(*args, **kwargs)
        step_s.append(time.perf_counter() - start)
        cap.losses.append(losses[0])
        return losses

    def keeping_save(path, params, config):
        saved.append(params)
        return save(path, params, config)

    with patched((source, "source_step", timed_step),
                 (source, "save_checkpoint", keeping_save)):
        start = time.perf_counter()
        path = source.train_source(RECIPE.model_config(), sizes.source_scenes,
                                   sizes.source_epochs, RECIPE.batch_size,
                                   RECIPE.lr_source, seed, WORK / "runs" / "source")
        wall = time.perf_counter() - start
    trained = checkpoint.load_checkpoint(path)[0]
    cap.saved = saved[0].snapshot_bytes()
    cap.reloaded = trained.snapshot_bytes()
    fingerprint = (tuple(map(repr, cap.losses)), Path(path).read_bytes())
    return Round(wall_s=wall, ops=sizes.source_scenes * sizes.source_epochs, failed=0,
                 step_s=step_s, capture=cap, fingerprint=fingerprint, trained=trained)


def gradient_entries(params, config, scenes, seed: int) -> list:
    """(entry, tape gradient, central difference) for GRADIENT_ENTRIES.

    The tape gradient of one source step is read back from a plain SGD step
    at learning rate 1 (parameter before minus after); the difference uses
    the loss that `source_step` returns for the same batch, mask and step.
    """
    batch = source.SourceBatch(
        images=tuple(s.image for s in scenes[:GRADIENT_BATCH]),
        labels=tuple(s.labels for s in scenes[:GRADIENT_BATCH]),
        class_labels=tuple(0 for _ in scenes[:GRADIENT_BATCH]))

    def loss(store) -> float:
        return source.source_step(batch, store, config, Optimizer("sgd"), 1.0,
                                  mask_seed=seed, step=0)[0]

    stepped = params.clone()
    loss(stepped)
    out = []
    for name, idx in GRADIENT_ENTRIES:
        tape = float(params[name].data[idx] - stepped[name].data[idx])
        losses = []
        for sign in (1.0, -1.0):
            store = params.clone()
            store[name].data[idx] += sign * FD_STEP
            losses.append(loss(store))
        out.append((f"{name}{list(idx)}", tape, (losses[0] - losses[1]) / (2 * FD_STEP)))
    return out


def source_quality(ckpt: Path, scenes) -> float:
    """Mean mIoU of the fully trained source checkpoint over the source scenes."""
    params, config = checkpoint.load_checkpoint(ckpt)
    return float(np.mean([confusion_miou(s.labels, model.predict(s.image, params, config),
                                         config.num_classes) for s in scenes]))


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, sizes: Sizes = Sizes(),
                 tracer=None) -> Outcome:
    """Set up `sizes.setups` times, then run whole rounds for `seconds`.

    The checks run on the first round; every later round must repeat its
    outputs exactly. With a tracer, the first round runs untraced and every
    later round traced, so the untraced round comes first in `rounds`.
    """
    mode = WORKLOADS[name]
    ckpt = source_checkpoint()
    setup_s = []
    if mode is None:
        for _ in range(sizes.setups):
            start = time.perf_counter()
            scenes = source_setup(seed, sizes)
            setup_s.append(time.perf_counter() - start)

        def one_round(checked):
            return source_round(seed, sizes)
    else:
        cfg = stream_config(mode, seed, sizes)
        for _ in range(sizes.setups):
            start = time.perf_counter()
            stream_setup(cfg, ckpt, sizes)
            setup_s.append(time.perf_counter() - start)

        def one_round(checked):
            return stream_round(cfg, ckpt, probes=checked)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds or (tracer and len(rounds) < 2):
        if tracer is not None and rounds:
            tracer.install()
            try:
                rounds.append(one_round(checked=False))
            finally:
                tracer.uninstall()
        else:
            rounds.append(one_round(checked=not rounds))

    first = rounds[0]
    if mode is None:
        config = RECIPE.model_config()
        first.capture.gradients = gradient_entries(first.trained, config, scenes, seed)
        problems = failures(SOURCE_CHECKS, first.capture)
        quality = source_quality(ckpt, scenes)
    else:
        problems = failures(STREAM_CHECKS, first.capture)
        quality = first.capture.mean_miou
    for i, r in enumerate(rounds[1:], 1):
        if r.fingerprint != first.fingerprint:
            problems.append(f"round {i} output differs from round 0 on the same inputs")
    return Outcome(setup_s=setup_s, rounds=rounds, quality=quality, failures=problems)
