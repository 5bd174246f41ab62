"""Single-file checkpoint: a JSON header, then raw float64 payloads.

Layout (all integers little-endian):

    magic    4 bytes  b"HTTA"
    version  u32
    hdr_len  u32, then hdr_len bytes of canonical JSON:
             {"config": {...}, "entries": [[name, shape, group], ...]},
             where "config" holds every `ModelConfig` field and no
             other, so a `RunConfig` saves as its `model_config()`
    payload  for each entry in header order, its values as little-endian
             float64 in C order
    crc      u32 CRC32 of every preceding byte

The entries must fit `model.parameter_layout` of the config (with or
without adapters), so a store that does not fit its config can be neither
saved nor loaded. A file of any other version is refused; version 4
stopped recording `channels`, which is always `model.CHANNELS`. Round
trips are bit-exact and files are machine-portable: endianness is fixed
and nothing is padded.
"""
from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .model import ModelConfig, check_layout
from .params import ParamStore

MAGIC = b"HTTA"
VERSION = 4
_PREFIX = struct.Struct("<4sII")   # magic, version, header length


def _check(entries, config: ModelConfig) -> None:
    """Hold entries to the layout; an adapter-free store to the one without adapters."""
    check_layout(entries, config, include_adapters=any(g == "adapter" for _, _, g in entries))


def save_checkpoint(path, params: ParamStore, config: ModelConfig) -> Path:
    path = Path(path)
    entries = params.entries()
    _check(entries, config)
    header = json.dumps({"config": asdict(config.model_config()), "entries": entries},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join([_PREFIX.pack(MAGIC, VERSION, len(header)), header]
                    + [np.ascontiguousarray(params[n].data, dtype="<f8") for n, _, _ in entries])
    with path.open("wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))
    return path


def load_checkpoint(path) -> tuple[ParamStore, ModelConfig]:
    raw = Path(path).read_bytes()
    if len(raw) < _PREFIX.size + 4 or raw[:4] != MAGIC:
        raise ValueError("not a checkpoint: bad magic")
    (crc_stored,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(memoryview(raw)[:-4]) != crc_stored:
        raise ValueError("checkpoint integrity check failed (CRC mismatch)")
    _, version, header_len = _PREFIX.unpack_from(raw)
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    start, body_end = _PREFIX.size + header_len, len(raw) - 4
    try:
        header = json.loads(raw[_PREFIX.size:start].decode("utf-8"))
        config = ModelConfig(**header["config"])
        entries = []
        for name, shape, group in header["entries"]:
            if not all(type(dim) is int for dim in shape):
                raise ValueError(f"non-integer shape {shape} for {name!r}")
            # str(): a name or group of another JSON type reads as a misfit, not a crash
            entries.append((str(name), tuple(shape), str(group)))
    except (ValueError, TypeError, KeyError) as e:
        raise ValueError(f"invalid checkpoint header: {e}") from None
    _check(entries, config)
    counts = [math.prod(shape) for _, shape, _ in entries]
    end = start + 8 * sum(counts)
    if end > body_end:
        raise ValueError("truncated checkpoint")
    if end < body_end:
        raise ValueError("checkpoint has trailing bytes")
    values = np.frombuffer(raw, dtype="<f8", count=sum(counts), offset=start)
    store = ParamStore()
    for (name, shape, group), lo, n in zip(entries, np.cumsum([0] + counts), counts):
        store.add(name, Tensor(values[lo:lo + n].reshape(shape).astype(np.float64),
                               requires_grad=True), group)
    return store, config
