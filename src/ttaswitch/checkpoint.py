"""Single-file checkpoint: a JSON header, then raw float64 payloads.

Layout (all integers little-endian):

    magic    4 bytes  b"HTTA"
    version  u32
    hdr_len  u32, then hdr_len bytes of canonical JSON:
             {"adapters": <bool>, "config": {...}}, where "config" holds
             every `ModelConfig` field and no other, so a `RunConfig` saves
             as its `model_config()`
    payload  for each row of `model.parameter_layout(config,
             include_adapters=adapters)` in table order, its values as
             little-endian float64 in C order
    crc      u32 CRC32 of every preceding byte

The header records only what the layout table cannot give: names, shapes
and groups come from the table. A store saves only if it fits the table
of its config (with or without adapters), and a loaded store is built from
the table, in its order. A file of any other version is refused. Round
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
from .model import ModelConfig, check_layout, parameter_layout
from .params import ParamStore

MAGIC = b"HTTA"
VERSION = 5
_PREFIX = struct.Struct("<4sII")   # magic, version, header length


def save_checkpoint(path, params: ParamStore, config: ModelConfig) -> Path:
    path = Path(path)
    adapters = bool(params.group_names("adapter"))
    check_layout(params.entries(), config, include_adapters=adapters)
    header = json.dumps({"adapters": adapters, "config": asdict(config.model_config())},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join([_PREFIX.pack(MAGIC, VERSION, len(header)), header]
                    + [np.ascontiguousarray(params[name].data, dtype="<f8")
                       for name, *_ in parameter_layout(config, adapters)])
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
        adapters = header["adapters"]
        if type(adapters) is not bool:
            raise ValueError(f"adapters must be a boolean, got {adapters!r}")
        config = ModelConfig(**header["config"])
    except (ValueError, TypeError, KeyError) as e:
        raise ValueError(f"invalid checkpoint header: {e}") from None
    layout = parameter_layout(config, adapters)
    counts = [math.prod(shape) for _, shape, _, _ in layout]
    end = start + 8 * sum(counts)
    if end > body_end:
        raise ValueError("truncated checkpoint")
    if end < body_end:
        raise ValueError("checkpoint has trailing bytes")
    values = np.frombuffer(raw, dtype="<f8", count=sum(counts), offset=start)
    store = ParamStore()
    for (name, shape, group, _), lo, n in zip(layout, np.cumsum([0] + counts), counts):
        store.add(name, Tensor(values[lo:lo + n].reshape(shape).astype(np.float64),
                               requires_grad=True), group)
    return store, config
