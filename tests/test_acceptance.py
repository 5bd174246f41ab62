"""End-to-end acceptance gate.

Eleven criteria covering gradient correctness, teacher/threshold algebra,
parameter-group isolation, masking semantics, throughput, switching behavior,
the end-to-end mode comparison, and determinism. Each test emits one
`ACCEPTANCE NN <name>: PASS|FAIL` line on the live terminal.
"""
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from aug_stub import MultiScaleFlipTeacher
from helpers import TINY, fd_gradient, make_fake_clock, rel_err
from ttaswitch import autodiff as ad
from ttaswitch import model as m
from ttaswitch.adaptation import AdaptationEngine, FT, decide_shift, ema_update, update_threshold
from ttaswitch.autodiff import Optimizer, Tensor
from ttaswitch.checkpoint import load_checkpoint, save_checkpoint
from ttaswitch.harness import RunConfig, measure_throughput, read_per_instance_csv, run_experiment, run_mode_comparison
from ttaswitch.metrics import compute_miou
from ttaswitch.model import ModelConfig, init_params, insert_adapters
from ttaswitch.params import GROUPS, ParamStore
from ttaswitch.source import SourceBatch, make_source_scenes, source_step, train_source
from ttaswitch.streams import build_stream


# Frozen after the first reference run of the default recipe (see the decision
# ledger): observed hybrid - no-adapt = +0.002793; pinned conservatively.
PINNED_MIOU_MARGIN = 0.001
RUNTIME_BUDGET_S = 900.0


@contextmanager
def criterion(capsys, num, name):
    try:
        yield
    except BaseException:
        _emit(capsys, num, name, "FAIL")
        raise
    _emit(capsys, num, name, "PASS")


def _emit(capsys, num, name, verdict):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {name}: {verdict}", file=sys.stderr)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One full default-recipe pipeline: source training + all four modes."""
    base = tmp_path_factory.mktemp("acceptance")
    cfg = RunConfig()
    t0 = time.perf_counter()
    ckpt = train_source(cfg.model_config(), cfg.source_scenes, cfg.source_epochs,
                        cfg.batch_size, cfg.lr_source, cfg.seed, base / "src",
                        optimizer_kind=cfg.optimizer)
    results = run_mode_comparison(cfg, ckpt, base / "cmp")
    wall_s = time.perf_counter() - t0
    return {"cfg": cfg, "ckpt": ckpt, "results": results, "wall_s": wall_s,
            "cmp_dir": base / "cmp"}


def _stream(cfg, domains, per_domain, seed, rounds=1):
    return list(build_stream(cfg.model_config(), domains, per_domain=per_domain,
                             rounds=rounds, seed=seed, severity=cfg.severity))


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

def _fd_check(build_loss, arrays, wrt, tol=1e-4, h=1e-5):
    with ad.recording():
        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        loss = build_loss(tensors)
        ad.backward(loss)
        analytic = tensors[wrt].grad.copy()
    fd = fd_gradient(lambda arrs: build_loss(
        {k: Tensor(v) for k, v in arrs.items()}).data.item(), arrays, wrt, h=h)
    err = rel_err(analytic, fd)
    assert err <= tol, f"{wrt}: rel err {err:.3e} > {tol}"


def test_criterion_01_gradient_suite(capsys):
    with criterion(capsys, 1, "finite-difference gradient suite"):
        t_start = time.perf_counter()
        rng = np.random.default_rng(0)

        def w(shape):
            return rng.normal(size=shape)

        def weighted(out, weight):
            return ad.mean(ad.mul(out, Tensor(weight)))

        # every differentiable primitive, each input checked independently
        a, b = w((4, 5)), w((5, 3))
        wa = w((4, 3))
        for wrt in ("a", "b"):
            _fd_check(lambda t: weighted(ad.matmul(t["a"], t["b"]), wa),
                      {"a": a.copy(), "b": b.copy()}, wrt)
        x, y = w((3, 4)), w((3, 4))
        wx = w((3, 4))
        for wrt in ("x", "y"):
            _fd_check(lambda t: weighted(ad.add(t["x"], t["y"]), wx),
                      {"x": x.copy(), "y": y.copy()}, wrt)
            _fd_check(lambda t: weighted(ad.mul(t["x"], t["y"]), wx),
                      {"x": x.copy(), "y": y.copy()}, wrt)
        wt = w((4, 3))
        _fd_check(lambda t: weighted(ad.scalar_mul(t["x"], 2.7), wx), {"x": x.copy()}, "x")
        _fd_check(lambda t: weighted(ad.reshape(t["x"], (4, 3)), wt), {"x": x.copy()}, "x")
        _fd_check(lambda t: weighted(ad.transpose(t["x"]), wt), {"x": x.copy()}, "x")
        _fd_check(lambda t: weighted(ad.gelu(t["x"]), wx), {"x": x.copy()}, "x")
        xr = x.copy()
        xr[np.abs(xr) < 0.05] += 0.2  # keep clear of the relu kink
        _fd_check(lambda t: weighted(ad.relu(t["x"]), wx), {"x": xr}, "x")
        _fd_check(lambda t: weighted(ad.layer_norm(t["x"]), wx), {"x": x.copy()}, "x")
        _fd_check(lambda t: weighted(ad.softmax_lastdim(t["x"]), wx), {"x": x.copy()}, "x")
        wm = w((4,))
        _fd_check(lambda t: ad.mean(t["x"]), {"x": x.copy()}, "x")
        _fd_check(lambda t: weighted(ad.mean(t["x"], axis=0), wm), {"x": x.copy()}, "x")
        logits = w((6, 4))
        labels = np.array([0, 3, 1, -1, 2, 1])  # includes an ignored row
        _fd_check(lambda t: ad.cross_entropy(t["lg"], labels), {"lg": logits.copy()}, "lg")
        target = w((2, 4, 4))
        pred = target + np.where(w((2, 4, 4)) > 0, 0.3, -0.3)  # away from |.|=0
        mask = (w((2, 4, 4)) > 0).astype(np.float64)
        _fd_check(lambda t: ad.l1_masked(t["p"], Tensor(target), Tensor(mask)),
                  {"p": pred.copy()}, "p")

        # composed total loss on the tiny config, every parameter elementwise
        store = init_params(TINY, seed=1)
        image = rng.uniform(0.0, 1.0, (3, 8, 8))
        seg_labels = rng.integers(0, TINY.num_classes, TINY.num_patches)
        pm = m.draw_mask(TINY.num_patches, TINY.mask_ratio, seed=4, step=0)
        pmask = m.pixel_mask(pm, TINY)

        def total_loss():
            xt = m.apply_mask(image, pm, store["mask_token"], TINY)
            z = m.encode(xt, store, TINY)
            l_seg = ad.cross_entropy(m.seg_decode(z, store, TINY), seg_labels)
            l_rec = ad.l1_masked(m.rec_decode(z, store, TINY), Tensor(image), Tensor(pmask))
            return ad.add(l_seg, l_rec)

        with ad.recording():
            ad.backward(total_loss())
            analytic = {name: t.grad.copy() for name, t in store.items()}
        store.zero_grad()
        checked = 0
        for name, tensor in store.items():
            fd = fd_gradient(lambda _arrs: total_loss().data.item(),
                             {"p": tensor.data}, "p", h=1e-5)
            err = rel_err(analytic[name], fd)
            assert err <= 1e-4, f"composed loss grad for {name}: rel err {err:.3e}"
            checked += tensor.data.size
        assert checked == sum(t.data.size for _, t in store.items())

        elapsed = time.perf_counter() - t_start
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s (budget 60s)"


# ---------------------------------------------------------------------------
# 2. EMA algebra
# ---------------------------------------------------------------------------

def _pair_stores(values_t, values_s):
    t, s = ParamStore(), ParamStore()
    t.add("p", Tensor(np.asarray(values_t, dtype=np.float64)), group="backbone")
    s.add("p", Tensor(np.asarray(values_s, dtype=np.float64)), group="backbone")
    return t, s


def test_criterion_02_ema_algebra(capsys):
    with criterion(capsys, 2, "teacher EMA algebra"):
        rng = np.random.default_rng(11)
        base_t, base_s = rng.normal(size=1000), rng.normal(size=1000)

        teacher, student = _pair_stores(base_t, base_s)
        ema_update(teacher, student, 1.0)
        assert teacher["p"].data.tobytes() == base_t.tobytes()  # bit-exact keep
        teacher, student = _pair_stores(base_t, base_s)
        ema_update(teacher, student, 0.0)
        assert teacher["p"].data.tobytes() == base_s.tobytes()  # bit-exact copy

        # convexity interval on 1000 random pairs (one random alpha per pair)
        alphas = rng.uniform(0.0, 1.0, size=1000)
        lo = np.minimum(base_t, base_s)
        hi = np.maximum(base_t, base_s)
        for i in range(1000):
            teacher, student = _pair_stores(base_t[i:i + 1], base_s[i:i + 1])
            ema_update(teacher, student, float(alphas[i]))
            v = teacher["p"].data[0]
            # closed interval, widened by one ulp for the final rounding
            assert np.nextafter(lo[i], -np.inf) <= v <= np.nextafter(hi[i], np.inf)

        # geometric contraction at exactly alpha on a constant student
        for alpha in (0.999, 0.9, 0.5):
            teacher, student = _pair_stores(base_t, base_s)
            gap0 = np.abs(base_t - base_s)
            for k in range(1, 25):
                ema_update(teacher, student, alpha)
                gap = np.abs(teacher["p"].data - student["p"].data)
                dev = np.abs(gap - (alpha ** k) * gap0)
                assert np.all(dev <= 1e-12 * np.maximum(gap0, 1.0)), f"k={k}"


# ---------------------------------------------------------------------------
# 3. threshold dynamics
# ---------------------------------------------------------------------------

def test_criterion_03_threshold_dynamics(capsys, reference):
    with criterion(capsys, 3, "loss-threshold dynamics"):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            alpha_l = float(rng.uniform(0.0, 1.0))
            losses = rng.lognormal(mean=-1.0, sigma=0.8, size=n)
            tau = 0.0
            for loss in losses:
                tau = update_threshold(tau, float(loss), alpha_l)
            closed = (1.0 - alpha_l) * sum(
                alpha_l ** (n - 1 - k) * losses[k] for k in range(n))
            assert abs(tau - closed) <= 1e-12 * max(1.0, abs(closed))

        # tau_0 == 0 and a positive first loss always routes to FT
        params, mcfg = load_checkpoint(reference["ckpt"])
        engine = AdaptationEngine(params.clone(), mcfg)
        assert engine.tau == 0.0
        for loss in rng.uniform(1e-9, 10.0, size=100):
            assert decide_shift(float(loss), 0.0) is True
        first = reference["results"]["hybrid"].rows[0]
        assert float(first["tau_before"]) == 0.0
        assert float(first["loss_seg"]) > 0.0
        assert first["decision"] == FT


# ---------------------------------------------------------------------------
# 4. tuning-group isolation
# ---------------------------------------------------------------------------

def test_criterion_04_group_isolation(capsys, reference):
    with criterion(capsys, 4, "efficient/full tuning group isolation"):
        params, mcfg = load_checkpoint(reference["ckpt"])
        cfg = reference["cfg"]
        insts = _stream(cfg, ("fog", "rain", "snow"), per_domain=1, seed=21)

        engine = AdaptationEngine(params.clone(), mcfg,
                                  decision_fn=lambda loss, tau: False)
        frozen = [n for n in engine.student.names()
                  if engine.student.group_of(n) != "adapter"]
        adapters = [n for n in engine.student.names()
                    if engine.student.group_of(n) == "adapter"]
        for i, inst in enumerate(insts):
            before_frozen = engine.student.snapshot_bytes(frozen)
            before_adapt = engine.student.snapshot_bytes(adapters)
            report = engine.step(inst.image, i, inst.domain)
            assert report.decision == "ET"
            assert engine.student.snapshot_bytes(frozen) == before_frozen
            assert engine.student.snapshot_bytes(adapters) != before_adapt

        engine = AdaptationEngine(params.clone(), mcfg,
                                  decision_fn=lambda loss, tau: True)
        groups = GROUPS
        before = {g: engine.student.snapshot_bytes(engine.student.group_names(g))
                  for g in groups}
        report = engine.step(insts[0].image, 0, insts[0].domain)
        assert report.decision == "FT"
        for g in groups:
            after = engine.student.snapshot_bytes(engine.student.group_names(g))
            assert after != before[g], f"group {g} unchanged by a full-tuning step"


# ---------------------------------------------------------------------------
# 5. adapter budget
# ---------------------------------------------------------------------------

def test_criterion_05_adapter_budget(capsys):
    with criterion(capsys, 5, "adapter parameter budget"):
        store = init_params(ModelConfig(), seed=0)
        frac = m.adapter_fraction(store)
        assert 0.08 <= frac <= 0.12, f"adapter fraction {frac:.4f} outside [0.08, 0.12]"


# ---------------------------------------------------------------------------
# 6. mask semantics
# ---------------------------------------------------------------------------

def test_criterion_06_mask_semantics(capsys):
    with criterion(capsys, 6, "patch mask semantics"):
        cfg = ModelConfig()
        store = init_params(cfg, seed=3)
        rng = np.random.default_rng(9)
        image = rng.uniform(0.0, 1.0, (m.CHANNELS, cfg.image_size, cfg.image_size))

        pm = m.draw_mask(cfg.num_patches, cfg.mask_ratio, seed=2, step=7)
        masked = m.apply_mask(image, pm, store["mask_token"], cfg).data
        xp = m.patchify(image, cfg.patch_size).data
        mp = m.patchify(masked, cfg.patch_size).data
        for i in range(cfg.num_patches):
            if not pm[i]:
                assert mp[i].tobytes() == xp[i].tobytes()  # visible bit-equal

        # reconstruction loss ignores predictions at unmasked pixels
        pmask = m.pixel_mask(pm, cfg)
        pred = rng.normal(size=image.shape)
        base = ad.l1_masked(Tensor(pred), Tensor(image), Tensor(pmask)).data.item()
        tampered = pred.copy()
        tampered[pmask == 0.0] += rng.normal(scale=100.0, size=int((pmask == 0).sum()))
        after = ad.l1_masked(Tensor(tampered), Tensor(image), Tensor(pmask)).data.item()
        assert after == base

        # realized ratio within one patch of the requested ratio
        n = cfg.num_patches
        for ratio in np.linspace(0.0, 0.95, 20):
            for seed in range(3):
                got = m.draw_mask(n, float(ratio), seed=seed, step=seed).mean()
                assert abs(got - ratio) <= 1.0 / n


# ---------------------------------------------------------------------------
# 7. zero-init adapter identity
# ---------------------------------------------------------------------------

def test_criterion_07_adapter_insertion_identity(capsys, tmp_path):
    with criterion(capsys, 7, "zero-init adapter insertion identity"):
        store = init_params(TINY, seed=6, include_adapters=False)
        scenes = make_source_scenes(TINY, 8, seed=14)
        batch = SourceBatch(images=tuple(s.image for s in scenes),
                            labels=tuple(s.labels for s in scenes))
        opt = Optimizer("adam")
        for step in range(4):
            source_step(batch, store, TINY, opt, lr=1e-3, mask_seed=0, step=step)
        path = tmp_path / "no_adapters.htta"
        save_checkpoint(path, store, TINY)
        trained, _ = load_checkpoint(path)

        rng = np.random.default_rng(31)
        images = [rng.uniform(0.0, 1.0, (3, 8, 8)) for _ in range(5)]
        outputs = []
        for img in images:
            z = m.encode(img, trained, TINY)
            outputs.append((z.data.copy(),
                            m.seg_decode(z, trained, TINY).data.copy(),
                            m.rec_decode(z, trained, TINY).data.copy()))
        insert_adapters(trained, TINY, seed=99)
        worst = 0.0
        for img, (z0, s0, r0) in zip(images, outputs):
            z = m.encode(img, trained, TINY)
            worst = max(worst,
                        float(np.max(np.abs(z.data - z0))),
                        float(np.max(np.abs(m.seg_decode(z, trained, TINY).data - s0))),
                        float(np.max(np.abs(m.rec_decode(z, trained, TINY).data - r0))))
        assert worst == 0.0, f"adapter insertion shifted outputs by {worst}"


# ---------------------------------------------------------------------------
# 8. forward-pass economy
# ---------------------------------------------------------------------------

def test_criterion_08_forward_economy(capsys, reference):
    with criterion(capsys, 8, "two forwards per instance and stub slowdown"):
        results = reference["results"]
        for mode in ("hybrid", "ft-only", "et-only"):
            _, fpi = measure_throughput(results[mode])
            assert fpi == 2.0
        _, fpi = measure_throughput(results["no-adapt"])
        assert fpi == 1.0

        params, mcfg = load_checkpoint(reference["ckpt"])
        cfg = reference["cfg"]
        insts = _stream(cfg, ("fog", "rain"), per_domain=6, seed=5)
        fast = AdaptationEngine(params.clone(), mcfg)
        slow = MultiScaleFlipTeacher(params.clone(), mcfg)
        for inst in insts[:2]:  # warmup
            fast.step(inst.image, inst.t, inst.domain)
            slow.step(inst.image, inst.t, inst.domain)
        # interleaved per instance, so a slow stretch of the machine hits both; CPU
        # time of this process, so work on other cores does not count against either
        t_fast = t_slow = 0.0
        for inst in insts[2:]:
            t0 = time.process_time()
            fast.step(inst.image, inst.t, inst.domain)
            t1 = time.process_time()
            slow.step(inst.image, inst.t, inst.domain)
            t_fast += t1 - t0
            t_slow += time.process_time() - t1
        n = len(insts)
        assert slow.forward_count == 15 * n  # 14 pseudo-label + 1 student
        ratio = t_slow / t_fast
        assert ratio >= 5.0, f"augmentation stub only {ratio:.2f}x slower"


# ---------------------------------------------------------------------------
# 9. switching sensitivity on the default stream
# ---------------------------------------------------------------------------

def test_criterion_09_switching_sensitivity(capsys, reference):
    with criterion(capsys, 9, "boundary switching and round trend"):
        rows = reference["results"]["hybrid"].rows
        decisions = [r["decision"] for r in rows]
        domains = [r["domain"] for r in rows]

        ft_by_round = {}
        for r in rows:
            ft_by_round.setdefault(int(r["round"]), []).append(r["decision"])
        ratios = [ds.count("FT") / len(ds) for _, ds in sorted(ft_by_round.items())]
        assert ratios[0] > ratios[-1], (
            f"first-round FT ratio {ratios[0]:.4f} does not exceed "
            f"final-round ratio {ratios[-1]:.4f}")

        boundaries = [i for i in range(1, len(rows)) if domains[i] != domains[i - 1]]
        table = []
        for b in boundaries:
            before = decisions[b - 5:b].count("FT")
            after = decisions[b:b + 5].count("FT")
            table.append((b, domains[b - 1], domains[b], before, after))
        failing = [row for row in table if row[4] <= row[3]]
        detail = "\n".join(
            f"  t={t:3d} {prev:>5}->{new:<5} before={bf} after={af}"
            f" {'ok' if af > bf else 'VIOLATION'}"
            for t, prev, new, bf, af in table)
        assert not failing, (
            "full-tuning usage must rise across every domain boundary "
            f"(5-instance windows); {len(failing)}/{len(table)} boundaries "
            f"violate this:\n{detail}")


# ---------------------------------------------------------------------------
# 10. end-to-end trend
# ---------------------------------------------------------------------------

def test_criterion_10_end_to_end_trend(capsys, reference):
    with criterion(capsys, 10, "mode-comparison trend and runtime"):
        results = reference["results"]
        assert reference["wall_s"] < RUNTIME_BUDGET_S, (
            f"pipeline took {reference['wall_s']:.0f}s, budget {RUNTIME_BUDGET_S:.0f}s")
        hybrid = results["hybrid"].mean_miou
        noadapt = results["no-adapt"].mean_miou
        assert hybrid >= noadapt + PINNED_MIOU_MARGIN, (
            f"hybrid {hybrid:.6f} < no-adapt {noadapt:.6f} + {PINNED_MIOU_MARGIN}")

        summary = (reference["cmp_dir"] / "modes_summary.csv").read_text().splitlines()
        assert summary[0].startswith("mode,")
        listed = {line.split(",")[0] for line in summary[1:]}
        assert listed == {"hybrid", "ft-only", "et-only", "no-adapt"}


# ---------------------------------------------------------------------------
# 11. determinism and persistence
# ---------------------------------------------------------------------------

def test_criterion_11_determinism_persistence(capsys, reference, tmp_path):
    with criterion(capsys, 11, "byte determinism and checkpoint persistence"):
        cfg = reference["cfg"]
        outs = []
        for i in range(2):
            out = tmp_path / f"run{i}"
            run_experiment(cfg, reference["ckpt"], out_dir=out,
                           clock=make_fake_clock())
            outs.append(out)
        for name in ("per_instance.csv", "round_summary.csv", "summary.txt"):
            b0 = (outs[0] / name).read_bytes()
            b1 = (outs[1] / name).read_bytes()
            assert b0 == b1, f"{name} differs between identical runs"

        original = Path(reference["ckpt"]).read_bytes()
        params, mcfg = load_checkpoint(reference["ckpt"])
        resaved = tmp_path / "resaved.htta"
        save_checkpoint(resaved, params, mcfg)
        assert resaved.read_bytes() == original  # bit-exact round trip

        insts = _stream(cfg, cfg.domains, per_domain=3, seed=77)
        def miou_of(store):
            preds = [m.predict(i.image, store, mcfg) for i in insts]
            return compute_miou([i.labels for i in insts], preds)
        before = miou_of(params)
        reloaded, _ = load_checkpoint(resaved)
        after = miou_of(reloaded)
        assert before == after  # metric-preserving reload
