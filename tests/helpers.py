"""Shared test oracles.

The finite-difference checker is deliberately independent of the tape's
backward pass: it re-runs a plain forward function under central
perturbations of raw numpy buffers and never touches `.grad`.
"""
from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict

import numpy as np


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


def write_raw_checkpoint(path, header: bytes, payload: bytes = b""):
    """A version-3 checkpoint file from raw header and payload bytes, CRC included."""
    body = struct.pack("<4sII", b"HTTA", 3, len(header)) + header + payload
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


def write_unchecked_checkpoint(path, params, config):
    """A version-3 checkpoint of any store, written without the layout check."""
    header = json.dumps({"config": asdict(config), "entries": params.entries()},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    return write_raw_checkpoint(path, header,
                                b"".join(params[n].data.tobytes() for n in params.names()))
