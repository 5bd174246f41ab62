import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from helpers import TINY, make_fake_clock, replay_stream, write_raw_checkpoint
from ttaswitch.checkpoint import save_checkpoint
from ttaswitch.harness import (MODES, PER_INSTANCE_COLUMNS, ROUND_SUMMARY_COLUMNS,
                               RunConfig, format_config, load_config,
                               measure_throughput, parse_config_text,
                               read_per_instance_csv, round_summary,
                               run_experiment, run_mode_comparison)
from ttaswitch.model import ModelConfig, init_params
from ttaswitch.source import train_source

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY_KW = dict(asdict(TINY), domains=("fog", "night"), per_domain=3, rounds=2,
               source_scenes=8, source_epochs=4, batch_size=4, seed=13)


def tiny_cfg(**overrides):
    return RunConfig(**{**TINY_KW, **overrides})


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    cfg = tiny_cfg()
    out = tmp_path_factory.mktemp("ckpt")
    return train_source(cfg.model_config(), cfg.source_scenes, cfg.source_epochs,
                        cfg.batch_size, cfg.lr_source, cfg.seed, out)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_roundtrip_through_text():
    cfg = tiny_cfg(mode="et-only", severity=0.65, lr_tta=3e-4)
    assert parse_config_text(format_config(cfg)) == cfg


def test_config_defaults_are_the_reference_recipe():
    cfg = RunConfig()
    assert (cfg.image_size, cfg.patch_size, cfg.embed_dim, cfg.depth) == (32, 4, 64, 4)
    assert (cfg.heads, cfg.num_classes) == (4, 5)
    assert cfg.domains == ("fog", "night", "rain", "snow")
    assert (cfg.per_domain, cfg.rounds) == (40, 3)
    assert (cfg.source_scenes, cfg.source_epochs, cfg.batch_size) == (200, 30, 8)
    assert cfg.mode == "hybrid" and cfg.optimizer == "adam"
    assert parse_config_text("") == cfg
    assert cfg.model_config() == ModelConfig()   # the model defaults agree


def test_shipped_configs_override_the_defaults():
    assert load_config(CONFIGS / "default.cfg") == RunConfig()
    for name in ("ft_only", "et_only", "no_adapt"):
        assert load_config(CONFIGS / f"{name}.cfg") == replace(
            RunConfig(), mode=name.replace("_", "-"), out_dir=f"runs/{name}")
    smoke = load_config(CONFIGS / "smoke.cfg")   # parses and validates
    assert smoke.mode == "hybrid" and smoke.out_dir == "runs/smoke"
    for path in sorted(CONFIGS.glob("*.cfg")):   # each echo parses back to its config
        cfg = load_config(path)
        assert parse_config_text(format_config(cfg)) == cfg, path.name


def test_config_comments_and_whitespace():
    cfg = parse_config_text("""
# a comment line
seed = 9            # trailing comment
domains = fog ,  snow
mode=ft-only
""")
    assert cfg.seed == 9
    assert cfg.domains == ("fog", "snow")
    assert cfg.mode == "ft-only"


def test_config_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2: unknown key 'bogus'"):
        parse_config_text("seed = 1\nbogus = 2\n")
    with pytest.raises(ValueError, match="line 3: duplicate key 'seed'"):
        parse_config_text("seed = 1\n# gap\nseed = 2\n")
    with pytest.raises(ValueError, match="line 1: bad value for 'seed'"):
        parse_config_text("seed = 1.5\n")
    with pytest.raises(ValueError, match="line 1: expected 'key = value'"):
        parse_config_text("just words\n")
    with pytest.raises(ValueError, match="line 1: empty value"):
        parse_config_text("seed =\n")


def test_config_semantic_validation():
    with pytest.raises(ValueError, match="mode"):
        tiny_cfg(mode="sometimes")
    with pytest.raises(ValueError, match="optimizer"):
        tiny_cfg(optimizer="lion")
    with pytest.raises(ValueError, match="severity"):
        tiny_cfg(severity=2.0)
    with pytest.raises(ValueError, match="divisible"):
        tiny_cfg(image_size=30)
    with pytest.raises(ValueError, match="alpha"):
        tiny_cfg(alpha=1.5)
    with pytest.raises(ValueError, match="alpha_l"):
        parse_config_text("alpha_l = 2")
    # a config is checked whole however it is built
    with pytest.raises(ValueError, match="fgo"):
        parse_config_text("domains = fog,fgo")
    with pytest.raises(ValueError, match="domains"):
        RunConfig(domains=())
    with pytest.raises(ValueError, match="repeat"):
        RunConfig(domains=("fog", "fog"))
    with pytest.raises(ValueError, match="repeat"):
        parse_config_text("domains = fog,rain,fog")
    with pytest.raises(ValueError, match="palette"):
        RunConfig(num_classes=9)
    with pytest.raises(ValueError, match="severity"):
        replace(RunConfig(), severity=2.0)
    with pytest.raises(ValueError, match="seed"):
        RunConfig(seed=-1)
    with pytest.raises(ValueError, match="learning rates"):
        RunConfig(lr_tta=math.inf)
    with pytest.raises(ValueError, match="learning rates"):
        parse_config_text("lr_source = nan")
    # a value of the wrong kind, which the echo could not parse back
    for key, value in (("per_domain", 2.5), ("per_domain", True), ("seed", 1.5),
                       ("domains", ["fog", "night"]), ("alpha", "0.5"), ("alpha", True),
                       ("image_size", 32.0)):
        with pytest.raises(ValueError, match=f"{key} must be"):
            RunConfig(**{key: value})
    with pytest.raises(ValueError, match="depth must be int"):
        ModelConfig(depth=2.0)
    with pytest.raises(ValueError, match="adapter_scale must be float"):
        replace(ModelConfig(), adapter_scale=None)
    # an out_dir the echo would not parse back as itself
    for out_dir in ("runs/#1", " runs/x ", "", "a\nmode = ft-only"):
        with pytest.raises(ValueError, match="out_dir must be"):
            RunConfig(out_dir=out_dir)
    assert RunConfig(alpha=1).alpha == 1   # an int is a float's kind
    assert RunConfig(num_classes=8).model_config().num_classes == 8


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope.cfg")
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path)   # a directory is not a config file


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_hybrid_run_artifacts_and_schema(checkpoint, tmp_path):
    result = run_experiment(tiny_cfg(), checkpoint, tmp_path / "run",
                            clock=make_fake_clock())
    assert len(result.rows) == 12
    with (tmp_path / "run" / "per_instance.csv").open() as fh:
        header = fh.readline().strip()
    assert header == ",".join(PER_INSTANCE_COLUMNS)
    assert (tmp_path / "run" / "config_echo.cfg").exists()
    assert (tmp_path / "run" / "round_summary.csv").exists()
    assert (tmp_path / "run" / "summary.txt").read_text().startswith("mode=hybrid")
    assert [r["t"] for r in result.rows] == list(range(12))
    assert all(r["decision"] in ("FT", "ET") for r in result.rows)
    assert result.rows[0]["decision"] == "FT"
    assert 0.0 <= result.mean_miou <= 1.0
    assert result.ft_count + result.et_count == 12


def test_summary_shows_the_stuck_engine(tmp_path):
    # A default-size source store (0 epochs: `init_params`) under SGD at
    # lr 1e3 diverges: five full-tuning steps, then every instance is
    # quarantined. The summary names the longest run of SKIP rows.
    cfg = replace(RunConfig(), optimizer="sgd", lr_tta=1e3, domains=("fog", "night"),
                  per_domain=10, rounds=1, seed=0)
    ckpt = train_source(cfg.model_config(), 1, 0, 8, 1e-3, 0, tmp_path / "src")
    with pytest.warns(RuntimeWarning, match="overflow"):
        result = run_experiment(cfg, ckpt, tmp_path / "run", clock=make_fake_clock())
    assert [r["decision"] for r in result.rows] == ["FT"] * 5 + ["SKIP"] * 15
    summary = (tmp_path / "run" / "summary.txt").read_text()
    assert summary.endswith(" ft=5 et=0 skipped=15 longest_skip=15\n")
    assert measure_throughput(result)[1] == 1.25   # a SKIP costs its teacher forward alone
    result.forward_count -= 1   # fewer than one forward per SKIP
    with pytest.raises(AssertionError, match="forwards"):
        measure_throughput(result)


def test_echoed_config_replays_the_run(checkpoint, tmp_path):
    cfg = tiny_cfg(severity=0.7, out_dir="runs/elsewhere")
    run_dir = tmp_path / "tiny replay"
    run_experiment(cfg, checkpoint, run_dir, clock=make_fake_clock())
    echo, stream = replay_stream(run_dir)
    assert echo == replace(cfg, out_dir=str(run_dir))   # the directory written
    rows = read_per_instance_csv(run_dir / "per_instance.csv")
    assert [(i.t, i.domain, i.round) for i in stream] == [
        (r["t"], r["domain"], r["round"]) for r in rows]
    # a directory the echo could not hold is refused before the checkpoint loads
    with pytest.raises(ValueError, match="out_dir must be"):
        run_experiment(cfg, tmp_path / "missing.htta", tmp_path / "run#1")
    assert not (tmp_path / "run#1").exists()


def test_round_summary_recomputable_from_csv(checkpoint, tmp_path):
    run_experiment(tiny_cfg(), checkpoint, tmp_path / "run", clock=make_fake_clock())
    rows = read_per_instance_csv(tmp_path / "run" / "per_instance.csv")
    recomputed = round_summary(rows, ("fog", "night"))
    with (tmp_path / "run" / "round_summary.csv").open() as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(ROUND_SUMMARY_COLUMNS)
    assert len(lines) - 1 == len(recomputed)
    for line, rec in zip(lines[1:], recomputed):
        cells = line.split(",")
        assert cells[0] == str(rec["round"]) and cells[1] == rec["domain"]
        assert int(cells[2]) == rec["n"]
        assert float(cells[3]) == pytest.approx(rec["miou_mean"], abs=1e-12)
        assert (int(cells[4]), int(cells[5]), int(cells[6])) == \
            (rec["ft"], rec["et"], rec["skip"])
    # totals row covers the whole stream
    assert recomputed[-1]["round"] == "all" and recomputed[-1]["n"] == 12


def test_mode_contracts(checkpoint, tmp_path):
    et = run_experiment(tiny_cfg(mode="et-only"), checkpoint, tmp_path / "et",
                        clock=make_fake_clock())
    assert all(r["decision"] == "ET" for r in et.rows)
    assert et.ft_count == 0
    ft = run_experiment(tiny_cfg(mode="ft-only"), checkpoint, tmp_path / "ft",
                        clock=make_fake_clock())
    assert all(r["decision"] == "FT" for r in ft.rows)
    assert ft.et_count == 0
    na = run_experiment(tiny_cfg(mode="no-adapt"), checkpoint, tmp_path / "na",
                        clock=make_fake_clock())
    assert all(r["decision"] == "NA" for r in na.rows)
    assert all(math.isnan(r["loss_seg"]) and math.isnan(r["tau_after"])
               for r in na.rows)
    assert na.forward_count == len(na.rows)


def test_mode_lattice_shared_path(checkpoint, tmp_path):
    hybrid = run_experiment(tiny_cfg(), checkpoint, tmp_path / "h",
                            clock=make_fake_clock())
    ft_only = run_experiment(tiny_cfg(mode="ft-only"), checkpoint, tmp_path / "f",
                             clock=make_fake_clock())
    # Until hybrid's first ET decision the two runs share every update, so
    # the loss trajectories must be float-identical through that instance.
    decisions = [r["decision"] for r in hybrid.rows]
    first_et = decisions.index("ET") if "ET" in decisions else len(decisions) - 1
    for i in range(first_et + 1):
        assert hybrid.rows[i]["loss_seg"] == ft_only.rows[i]["loss_seg"], i
        assert hybrid.rows[i]["loss_rec"] == ft_only.rows[i]["loss_rec"], i


def test_reruns_are_byte_identical(checkpoint, tmp_path):
    for mode in ("hybrid", "no-adapt"):
        cfg = tiny_cfg(mode=mode)
        a, b = (run_experiment(cfg, checkpoint, tmp_path / f"{mode}_{run}",
                               clock=make_fake_clock()) for run in "ab")
        for name in ("per_instance.csv", "round_summary.csv", "summary.txt"):
            assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes(), \
                (mode, name)
        for run in (a, b):   # each echo differs only in the directory it names
            assert (run.out_dir / "config_echo.cfg").read_text() == \
                format_config(replace(cfg, out_dir=str(run.out_dir)))


def test_throughput_contract(checkpoint, tmp_path):
    result = run_experiment(tiny_cfg(), checkpoint, tmp_path / "r")
    ips, fpi = measure_throughput(result)
    assert fpi == 2.0 and ips > 0
    na = run_experiment(tiny_cfg(mode="no-adapt"), checkpoint, tmp_path / "n")
    ips_na, fpi_na = measure_throughput(na)
    assert fpi_na == 1.0 and ips_na > 0
    result.forward_count += 1
    with pytest.raises(AssertionError, match="forwards"):
        measure_throughput(result)


def test_checkpoint_config_mismatch_rejected(checkpoint, tmp_path):
    with pytest.raises(ValueError, match="does not match"):
        run_experiment(tiny_cfg(embed_dim=32), checkpoint, tmp_path / "x")
    assert not (tmp_path / "x").exists()   # nothing written for a refused run
    for path in (tmp_path / "missing.htta", tmp_path):   # a directory is no checkpoint
        with pytest.raises(FileNotFoundError, match="checkpoint not found"):
            run_experiment(tiny_cfg(), path, tmp_path / "y")
    assert not (tmp_path / "y").exists()
    with pytest.raises(ValueError, match="does not match"):
        run_mode_comparison(tiny_cfg(embed_dim=32), checkpoint, tmp_path / "cmp")
    assert not (tmp_path / "cmp").exists()


def test_checkpoint_that_does_not_fit_its_config_refused_before_writing(tmp_path):
    cfg = tiny_cfg()
    wide = init_params(replace(cfg.model_config(), embed_dim=32), seed=0)
    bare = init_params(cfg.model_config(), seed=0, include_adapters=False)
    # the wide store's payload under a header for cfg: the layout leaves bytes over
    header = json.dumps({"adapters": True, "config": asdict(cfg.model_config())}).encode()
    payload = b"".join(wide[n].data.tobytes() for n in wide.names())
    paths = ((write_raw_checkpoint(tmp_path / "wide.htta", header, payload),
              "checkpoint has trailing bytes"),
             (save_checkpoint(tmp_path / "bare.htta", bare, cfg.model_config()),
              "does not fit the config"))
    for path, refusal in paths:
        for run in (run_experiment, run_mode_comparison):
            with pytest.raises(ValueError, match=refusal):
                run(cfg, path, tmp_path / "out")
            assert not (tmp_path / "out").exists(), (path.name, run.__name__)


def test_run_mode_comparison(checkpoint, tmp_path):
    results = run_mode_comparison(tiny_cfg(), checkpoint, tmp_path / "cmp",
                                  clock=make_fake_clock())
    assert set(results) == set(MODES)
    with (tmp_path / "cmp" / "modes_summary.csv").open() as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("mode,instances,mean_miou")
    assert [line.split(",")[0] for line in lines[1:]] == list(MODES)
    for line in lines[1:]:
        mode, *cells = line.split(",")
        run_dir = tmp_path / "cmp" / mode.replace("-", "_")
        assert (run_dir / "per_instance.csv").exists()
        # the mode's row is the whole-stream tally of its own round summary
        totals = (run_dir / "round_summary.csv").read_text().splitlines()[-1]
        assert totals.startswith("all,all,")
        assert cells == totals.split(",")[2:], mode
