"""Shared test oracles.

The finite-difference checker is deliberately independent of the tape's
backward pass: it re-runs a plain forward function under central
perturbations of raw numpy buffers and never touches `.grad`.
"""
from __future__ import annotations

import hashlib
import struct
import weakref
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ttaswitch import autodiff
from ttaswitch.checkpoint import VERSION
from ttaswitch.harness import load_config
from ttaswitch.model import ModelConfig
from ttaswitch.streams import build_stream

# The test-size model: a 2x2 patch grid, two blocks, three classes.
TINY = ModelConfig(image_size=8, patch_size=4, embed_dim=16, depth=2, heads=2,
                   num_classes=3, adapter_dim=6)


def fd_gradient(f, arrays: dict[str, np.ndarray], wrt: str, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f(arrays) w.r.t. arrays[wrt]."""
    base = arrays[wrt]
    g = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(arrays)
        flat[i] = orig - h
        fm = f(arrays)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Max elementwise relative error with a small absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def make_fake_clock(tick: float = 0.001):
    """Deterministic stand-in for time.perf_counter."""
    state = {"t": 0.0}

    def clock() -> float:
        state["t"] += tick
        return state["t"]

    return clock


def digest(value) -> str:
    """SHA-256 of a snapshot value, dict keys in sorted order.

    Each dict and list is tagged with its length, each array with its dtype
    and shape before its bytes, and any other value is fed as its repr.
    """
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, dict):
            h.update(b"d%d" % len(v))
            for k in sorted(v):
                h.update(repr(k).encode())
                feed(v[k])
        elif isinstance(v, list):
            h.update(b"l%d" % len(v))
            for item in v:
                feed(item)
        elif isinstance(v, np.ndarray):
            h.update(f"a{v.dtype.str}{v.shape}".encode())
            h.update(v.tobytes())
        else:
            h.update(f"s{v!r}".encode())

    feed(value)
    return h.hexdigest()


def state_digest(engine) -> str:
    """SHA-256 over the engine's sorted snapshot: equal digests, equal state."""
    return digest(engine.snapshot())


def replay_stream(run_dir) -> tuple:
    """(config, stream) of a run, rebuilt from its config_echo.cfg alone."""
    cfg = load_config(Path(run_dir) / "config_echo.cfg")
    return cfg, list(build_stream(cfg.model_config(), cfg.domains, cfg.per_domain,
                                  cfg.rounds, cfg.seed, cfg.severity))


def write_raw_checkpoint(path, header: bytes, payload: bytes = b"", version: int = VERSION):
    """A checkpoint file from raw header and payload bytes, CRC included."""
    body = struct.pack("<4sII", b"HTTA", version, len(header)) + header + payload
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


def track_tapes(monkeypatch) -> SimpleNamespace:
    """Patch `autodiff.Tape` to record each new tape.

    `created` counts the tapes made through `autodiff.Tape`, the name
    `model.masked_backward` builds its tape from, and `alive` holds those
    still alive. A test asserts that `created` grew before it reads an empty
    `alive` as released. With the cyclic GC disabled, a tape left holding its
    nodes stays alive through the tape -> node -> tensor -> tape cycle.
    """
    log = SimpleNamespace(created=0, alive=weakref.WeakSet())

    class TrackedTape(autodiff.Tape):
        def __init__(self):
            super().__init__()
            log.created += 1
            log.alive.add(self)

    monkeypatch.setattr(autodiff, "Tape", TrackedTape)
    return log
