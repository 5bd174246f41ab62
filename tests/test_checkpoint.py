import struct
import zlib

import numpy as np
import pytest

from ttaswitch.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from ttaswitch.model import ModelConfig, init_params

TINY = ModelConfig(image_size=8, patch_size=4, embed_dim=16, depth=2, heads=2,
                   num_classes=3, adapter_dim=6)


@pytest.fixture()
def saved(tmp_path):
    params = init_params(TINY, seed=11)
    path = save_checkpoint(tmp_path / "ck.htta", params, TINY)
    return path, params


def test_roundtrip_bit_exact(saved):
    path, params = saved
    loaded, config = load_checkpoint(path)
    assert config == TINY
    assert loaded.names() == params.names()
    for name in params.names():
        assert loaded.group_of(name) == params.group_of(name)
        a, b = loaded[name].data, params[name].data
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
        assert loaded[name].requires_grad


def test_save_load_save_is_byte_identical(saved, tmp_path):
    path, _ = saved
    loaded, config = load_checkpoint(path)
    path2 = save_checkpoint(tmp_path / "ck2.htta", loaded, config)
    assert path.read_bytes() == path2.read_bytes()


def test_single_flipped_byte_fails_integrity(saved):
    path, _ = saved
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="integrity"):
        load_checkpoint(path)


def test_truncated_body_with_valid_crc(saved):
    path, _ = saved
    body = path.read_bytes()[:-4]
    cut = body[: len(body) - 100]
    path.write_bytes(cut + struct.pack("<I", zlib.crc32(cut)))
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_bad_magic(saved):
    path, _ = saved
    raw = path.read_bytes()
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_unsupported_version(saved):
    path, _ = saved
    raw = bytearray(path.read_bytes())[:-4]
    struct.pack_into("<I", raw, 4, 99)
    raw += struct.pack("<I", zlib.crc32(bytes(raw)))
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version 99"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(saved):
    path, _ = saved
    body = path.read_bytes()[:-4] + b"\x00" * 8
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(path)


def test_magic_prefix(saved):
    path, _ = saved
    assert path.read_bytes()[:4] == MAGIC == b"HTTA"


def test_config_echo_survives_nondefaults(tmp_path):
    cfg = ModelConfig(image_size=8, patch_size=2, embed_dim=8, depth=1, heads=2,
                      num_classes=4, adapter_dim=3, adapter_scale=0.25,
                      mask_ratio=0.75)
    path = save_checkpoint(tmp_path / "c.htta", init_params(cfg, seed=0), cfg)
    _, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg


def test_values_survive_mutation_roundtrip(saved, tmp_path):
    path, params = saved
    params["pos_embed"].data[:] = np.pi
    path2 = save_checkpoint(tmp_path / "m.htta", params, TINY)
    loaded, _ = load_checkpoint(path2)
    assert np.all(loaded["pos_embed"].data == np.pi)
