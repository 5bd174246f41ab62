import json
import struct
import zlib
from dataclasses import asdict, replace

import numpy as np
import pytest

from helpers import TINY, write_raw_checkpoint
from ttaswitch.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from ttaswitch.harness import RunConfig
from ttaswitch.model import ModelConfig, init_params, parameter_layout

WIDE = replace(TINY, embed_dim=32)   # the same names, other shapes


def _header(**fields) -> bytes:
    return json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _payload(params) -> bytes:
    """The store's values in its own order, as a checkpoint payload holds them."""
    return b"".join(params[n].data.tobytes() for n in params.names())


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


def test_run_config_saves_as_its_model_config(saved, tmp_path):
    path, params = saved
    run_cfg = RunConfig(**asdict(TINY), lr_tta=3e-4, mode="et-only")
    got = save_checkpoint(tmp_path / "run.htta", params, run_cfg)
    assert got.read_bytes() == path.read_bytes()
    assert load_checkpoint(got)[1] == run_cfg.model_config() == TINY


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


def test_version_4_file_refused(tmp_path):
    # version 4 listed every [name, shape, group] entry in its header
    params = init_params(TINY, seed=0)
    path = write_raw_checkpoint(tmp_path / "v4.htta",
                                _header(config=asdict(TINY), entries=params.entries()),
                                _payload(params), version=4)
    with pytest.raises(ValueError, match="unsupported checkpoint version 4"):
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


def test_save_refuses_store_that_does_not_fit_config(tmp_path):
    wide = init_params(WIDE, seed=0)
    assert wide.names() == init_params(TINY, seed=0).names()
    with pytest.raises(ValueError, match="mismatched .*patch_embed.w"):
        save_checkpoint(tmp_path / "w.htta", wide, TINY)
    assert not (tmp_path / "w.htta").exists()


def test_header_and_payload_must_agree(tmp_path):
    fitting = init_params(TINY, seed=0)
    with pytest.raises(ValueError, match="truncated checkpoint"):
        load_checkpoint(write_raw_checkpoint(
            tmp_path / "w.htta", _header(adapters=True, config=asdict(WIDE)), _payload(fitting)))
    with pytest.raises(ValueError, match="checkpoint has trailing bytes"):
        load_checkpoint(write_raw_checkpoint(
            tmp_path / "a.htta", _header(adapters=False, config=asdict(TINY)), _payload(fitting)))
    # a store in any order saves in table order and loads back in it
    reordered = fitting.subset(reversed(fitting.names()))
    path = save_checkpoint(tmp_path / "r.htta", reordered, TINY)
    loaded, _ = load_checkpoint(path)
    assert loaded.names() == [name for name, *_ in parameter_layout(TINY)]
    assert loaded.snapshot_bytes() == fitting.snapshot_bytes()
    assert path.read_bytes() == save_checkpoint(tmp_path / "f.htta", fitting, TINY).read_bytes()


def test_malformed_header_rejected(tmp_path):
    with pytest.raises(ValueError, match="invalid checkpoint header"):
        load_checkpoint(write_raw_checkpoint(tmp_path / "j.htta", b"{not json"))
    payload = _payload(init_params(TINY, seed=0))
    for header in (_header(config=asdict(TINY)),
                   _header(adapters=1, config=asdict(TINY)),
                   _header(adapters=True, config={**asdict(TINY), "channels": 3})):
        with pytest.raises(ValueError, match="invalid checkpoint header"):
            load_checkpoint(write_raw_checkpoint(tmp_path / "h.htta", header, payload))


def test_adapter_free_store_saves_and_partial_adapters_do_not(tmp_path):
    bare = init_params(TINY, seed=3, include_adapters=False)
    loaded, _ = load_checkpoint(save_checkpoint(tmp_path / "b.htta", bare, TINY))
    assert loaded.names() == bare.names()
    full = init_params(TINY, seed=3)
    partial = full.subset([n for n in full.names() if n != "blocks.1.adapter.up.b"])
    with pytest.raises(ValueError, match="missing .*blocks.1.adapter.up.b"):
        save_checkpoint(tmp_path / "p.htta", partial, TINY)
