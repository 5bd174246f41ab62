"""Binary checkpoint format.

Layout (all integers little-endian):

    magic   4 bytes  b"HTTA"
    version u32
    cfg_len u32, then cfg_len bytes of canonical JSON (the model config)
    n       u32 number of entries
    entry*n:
        name_len u16, name (UTF-8)
        group    u8 (see GROUP_CODES)
        dtype    u8 (0 = float64)
        rank     u8, then rank * u64 dims
        payload  little-endian float64, C order
    crc     u32 CRC32 of every preceding byte

Round trips are bit-exact and files are machine-portable: endianness is
fixed and no native struct padding is used.
"""
from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .model import ModelConfig
from .params import GROUPS, ParamStore

MAGIC = b"HTTA"
VERSION = 2
GROUP_CODES = {g: i for i, g in enumerate(GROUPS)}
CODE_GROUPS = {i: g for g, i in GROUP_CODES.items()}
_DTYPE_F64 = 0


def save_checkpoint(path, params: ParamStore, config: ModelConfig) -> Path:
    path = Path(path)
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    cfg_json = json.dumps(asdict(config), sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob += struct.pack("<I", len(cfg_json))
    blob += cfg_json
    names = params.names()
    blob += struct.pack("<I", len(names))
    for name in names:
        raw = name.encode("utf-8")
        arr = params[name].data
        blob += struct.pack("<H", len(raw))
        blob += raw
        blob += struct.pack("<BBB", GROUP_CODES[params.group_of(name)], _DTYPE_F64, arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<Q", dim)
        blob += arr.astype("<f8", copy=False).tobytes(order="C")
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    path.write_bytes(bytes(blob))
    return path


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ValueError("truncated checkpoint")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]


def load_checkpoint(path) -> tuple[ParamStore, ModelConfig]:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise ValueError("not a checkpoint: bad magic")
    (crc_stored,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) != crc_stored:
        raise ValueError("checkpoint integrity check failed (CRC mismatch)")
    r = _Reader(raw[:-4])
    r.take(4)  # magic
    version = r.u("<I")
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    cfg_len = r.u("<I")
    try:
        cfg_dict = json.loads(r.take(cfg_len).decode("utf-8"))
        config = ModelConfig(**cfg_dict)
    except (ValueError, TypeError) as e:
        raise ValueError(f"invalid checkpoint config: {e}") from None
    n = r.u("<I")
    store = ParamStore()
    for _ in range(n):
        name_len = r.u("<H")
        name = r.take(name_len).decode("utf-8")
        group_code = r.u("<B")
        dtype_code = r.u("<B")
        rank = r.u("<B")
        if group_code not in CODE_GROUPS:
            raise ValueError(f"unknown parameter group code {group_code}")
        if dtype_code != _DTYPE_F64:
            raise ValueError(f"unsupported dtype code {dtype_code}")
        dims = tuple(r.u("<Q") for _ in range(rank))
        count = int(np.prod(dims, dtype=np.int64)) if dims else 1
        payload = r.take(count * 8)
        arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)
        store.add(name, Tensor(arr.copy(), requires_grad=True), CODE_GROUPS[group_code])
    if r.pos != len(r.buf):
        raise ValueError("checkpoint has trailing bytes")
    return store, config
