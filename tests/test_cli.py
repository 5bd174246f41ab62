import pytest

from helpers import replay_stream
from ttaswitch.cli import build_parser, main

TINY_CFG = """
image_size = 8
patch_size = 4
embed_dim = 16
depth = 2
heads = 2
num_classes = 3
adapter_dim = 6
domains = fog,night
per_domain = 2
rounds = 1
source_scenes = 6
source_epochs = 2
batch_size = 3
seed = 13
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CFG)
    assert main(["train-source", "--config", str(cfg),
                 "--out", str(root / "src")]) == 0
    return root, cfg


def test_parser_has_all_subcommands():
    parser = build_parser()
    sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    assert set(sub.choices) == {"train-source", "adapt", "eval"}


def test_train_source_outputs(workdir, capsys):
    root, _ = workdir
    assert (root / "src" / "source.htta").exists()
    assert (root / "src" / "source_log.csv").read_text().startswith(
        "epoch,loss_total,loss_seg,loss_rec")


def assert_usage_error(capsys, reason: str) -> None:
    """The last line on stderr is argparse's one-line error, holding `reason`."""
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("ttaswitch: error: ") and reason in last


def test_train_source_refuses_bad_config(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(TINY_CFG.replace("domains = fog,night", "domains = fog,fgo"))
    (tmp_path / "a_dir.cfg").mkdir()
    for path, reason in ((cfg, "fgo"), (tmp_path / "missing.cfg", "config file not found"),
                         (tmp_path / "a_dir.cfg", "config file not found")):
        with pytest.raises(SystemExit) as exit_info:
            main(["train-source", "--config", str(path), "--out", str(tmp_path / "m")])
        assert exit_info.value.code == 2
        assert_usage_error(capsys, reason)
        assert not (tmp_path / "m").exists()


def test_adapt_and_eval(workdir, capsys):
    root, cfg = workdir
    ckpt = root / "src" / "source.htta"
    assert main(["adapt", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(root / "adapt")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("mode=hybrid instances=4")
    assert (root / "adapt" / "per_instance.csv").exists()

    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(root / "eval")]) == 0
    assert capsys.readouterr().out.startswith("mode=no-adapt")
    rows = (root / "eval" / "per_instance.csv").read_text().splitlines()[1:]
    assert all(",NA," in r for r in rows)


def test_seed_override_changes_stream(workdir):
    root, cfg = workdir
    ckpt = root / "src" / "source.htta"
    streams = []
    for name, seed_args in (("base", []), ("s99", ["--seed", "99"])):
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(root / name)] + seed_args) == 0
        streams.append(replay_stream(root / name)[1])
    base, alt = streams
    assert len(base) == len(alt) == 4
    assert [(i.t, i.domain, i.round) for i in base] == [(i.t, i.domain, i.round) for i in alt]
    assert all(a.image.tobytes() != b.image.tobytes() for a, b in zip(base, alt))


def test_missing_checkpoint_fails(workdir, capsys):
    root, cfg = workdir
    for command, path in (("adapt", root / "nope.htta"), ("eval", root / "nope.htta"),
                          ("adapt", root), ("eval", root)):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(cfg), "--checkpoint", str(path),
                  "--out", str(root / "x")])
        assert exit_info.value.code == 2
        assert_usage_error(capsys, f"checkpoint not found: {path}")
        assert not (root / "x").exists()


def test_negative_seed_refused_before_writing(workdir, capsys):
    root, cfg = workdir
    with pytest.raises(SystemExit) as exit_info:
        main(["adapt", "--config", str(cfg), "--checkpoint",
              str(root / "src" / "source.htta"), "--seed", "-1",
              "--out", str(root / "negative")])
    assert exit_info.value.code == 2
    assert_usage_error(capsys, "seed must be >= 0")
    assert not (root / "negative").exists()


def test_out_is_echoed_and_checked(workdir, capsys):
    root, cfg = workdir
    ckpt = str(root / "src" / "source.htta")
    assert main(["eval", "--config", str(cfg), "--checkpoint", ckpt,
                 "--out", str(root / "echoed")]) == 0
    assert replay_stream(root / "echoed")[0].out_dir == str(root / "echoed")
    with pytest.raises(SystemExit) as exit_info:   # the echo could not hold it
        main(["eval", "--config", str(cfg), "--checkpoint", ckpt,
              "--out", str(root / "runs#1")])
    assert exit_info.value.code == 2
    assert_usage_error(capsys, "out_dir must be")
    assert not (root / "runs#1").exists()


def test_required_flags():
    with pytest.raises(SystemExit):
        main(["adapt", "--out", "/tmp/x"])      # --config missing
    with pytest.raises(SystemExit):
        main(["adapt", "--config", "/tmp/c"])   # --checkpoint missing
