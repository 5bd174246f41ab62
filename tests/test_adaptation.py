import gc
import math
from dataclasses import fields

import numpy as np
import pytest

from aug_stub import MultiScaleFlipTeacher
from helpers import make_fake_clock, track_tapes
from ttaswitch import adaptation
from ttaswitch.adaptation import (ET, FT, SKIP, TEACHER_GROUPS, AdaptationEngine, StepReport,
                                  decide_shift, detect_shift, ema_update, ft_window,
                                  input_statistics, update_threshold)
from ttaswitch.autodiff import NonFiniteError, Optimizer, Tensor
from ttaswitch.checkpoint import load_checkpoint
from ttaswitch.harness import RunConfig
from ttaswitch.model import (ModelConfig, draw_mask, init_params, masked_losses,
                             parameter_layout, predict)
from ttaswitch.params import ParamStore
from ttaswitch.source import SourceBatch, source_step, train_source
from ttaswitch.streams import build_stream

TINY = ModelConfig(image_size=8, patch_size=4, embed_dim=16, depth=2, heads=2,
                   num_classes=3, adapter_dim=6)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("src")
    path = train_source(TINY, num_scenes=8, epochs=6, batch_size=4, lr=2e-3,
                        seed=13, out_dir=out)
    return load_checkpoint(path)


def fresh_engine(trained, **kw):
    params, config = trained
    return AdaptationEngine(params.clone(), config, **kw)


def instances(n, seed=3, severity=0.8):
    return list(build_stream(TINY, ("fog", "night"), per_domain=(n + 1) // 2,
                             rounds=1, seed=seed, severity=severity))[:n]


# ---------------------------------------------------------------------------
# pure pieces
# ---------------------------------------------------------------------------

def test_ema_update_closed_form():
    t = ParamStore()
    s = ParamStore()
    t0 = np.array([1.0, -2.0, 3.0])
    sv = np.array([0.5, 0.5, 0.5])
    t.add("w", Tensor(t0.copy()), "backbone")
    s.add("w", Tensor(sv.copy()), "backbone")
    alpha = 0.9
    for k in range(1, 6):
        ema_update(t, s, alpha)
        expected = alpha ** k * t0 + (1 - alpha ** k) * sv
        assert np.max(np.abs(t["w"].data - expected)) <= 1e-12
    with pytest.raises(ValueError, match="alpha"):
        ema_update(t, s, 1.5)


def test_threshold_closed_form():
    losses = [0.7, 2.0, 1.1, 0.3, 0.9]
    alpha_l = 0.9
    tau = 0.0
    for loss in losses:
        tau = update_threshold(tau, loss, alpha_l)
    n = len(losses)
    closed = (1 - alpha_l) * sum(alpha_l ** (n - 1 - i) * l for i, l in enumerate(losses))
    assert abs(tau - closed) <= 1e-12
    assert update_threshold(5.0, 123.0, 1.0) == 5.0     # frozen threshold
    assert update_threshold(5.0, 123.0, 0.0) == 123.0   # threshold == last loss
    with pytest.raises(NonFiniteError):
        update_threshold(0.0, float("nan"), 0.9)


def test_decide_shift_strict_boundary():
    assert decide_shift(1.0, 1.0) is False          # ties take the cheap path
    assert decide_shift(np.nextafter(1.0, 2.0), 1.0) is True
    assert decide_shift(0.5, 1.0) is False
    assert decide_shift(1e-300, 0.0) is True
    with pytest.raises(NonFiniteError):
        decide_shift(float("inf"), 1.0)
    with pytest.raises(NonFiniteError):
        decide_shift(1.0, float("nan"))


def test_decision_before_update_differs_from_after():
    # At alpha_l = 0 the threshold becomes the previous loss, so the two
    # orderings are distinguishable: deciding before the update compares each
    # loss against the previous one, deciding after compares it with itself.
    losses = [1.0, 2.0]
    tau = 0.0
    spec_order = []
    for loss in losses:
        spec_order.append(decide_shift(loss, tau))
        tau = update_threshold(tau, loss, 0.0)
    tau = 0.0
    wrong_order = []
    for loss in losses:
        tau = update_threshold(tau, loss, 0.0)
        wrong_order.append(decide_shift(loss, tau))
    assert spec_order == [True, True]
    assert wrong_order == [False, False]


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

def test_teacher_is_deep_subset_copy(trained):
    engine = fresh_engine(trained)
    expected = [n for n in engine.student.names()
                if engine.student.group_of(n) in TEACHER_GROUPS]
    assert engine.teacher.names() == expected
    assert not any(engine.teacher.group_of(n) in ("rec_head", "mask_token")
                   for n in engine.teacher.names())
    for n in expected:
        assert engine.teacher[n].data.tobytes() == engine.student[n].data.tobytes()
    engine.student["pos_embed"].data[:] += 1.0
    assert engine.teacher["pos_embed"].data.tobytes() != \
        engine.student["pos_embed"].data.tobytes()


def test_first_decision_is_ft_and_counters(trained):
    engine = fresh_engine(trained)
    inst = instances(1)[0]
    report = engine.step(inst.image, t_index=0, domain=inst.domain)
    assert report.decision == FT
    assert report.tau_before == 0.0
    assert report.tau_after == update_threshold(0.0, report.loss_seg, engine.alpha_l)
    assert (engine.ft_count, engine.et_count, engine.skipped) == (1, 0, 0)
    assert engine.t == 1
    assert report.teacher_labels.shape == (TINY.num_patches,)
    assert np.issubdtype(report.teacher_labels.dtype, np.integer)
    assert set(report.teacher_labels) <= set(range(TINY.num_classes))


def test_report_recurrence_over_stream(trained):
    engine = fresh_engine(trained, decision_fn=decide_shift)
    prev_tau = 0.0
    for i, inst in enumerate(instances(6)):
        r = engine.step(inst.image, t_index=i, domain=inst.domain)
        assert r.tau_before == prev_tau
        assert (r.decision == FT) == decide_shift(r.loss_seg, r.tau_before)
        assert r.tau_after == update_threshold(r.tau_before, r.loss_seg, engine.alpha_l)
        assert np.isfinite(r.loss_seg) and np.isfinite(r.loss_rec)
        prev_tau = r.tau_after
    assert engine.t == 6 == engine.ft_count + engine.et_count


def test_repeat_instance_goes_et_at_alpha_l_zero(trained):
    # alpha_l=0 pins the threshold to the previous loss; repeating the same
    # instance after one small update must lower the loss and therefore take
    # the efficient path on the second visit.
    engine = fresh_engine(trained, alpha_l=0.0, lr=1e-4, decision_fn=decide_shift)
    inst = instances(1)[0]
    r1 = engine.step(inst.image, t_index=0, domain=inst.domain)
    r2 = engine.step(inst.image, t_index=0, domain=inst.domain)
    assert r1.decision == FT
    assert r2.loss_seg < r1.loss_seg
    assert r2.tau_before == r1.loss_seg
    assert r2.decision == ET
    assert (engine.ft_count, engine.et_count) == (1, 1)


def test_et_step_touches_only_adapters(trained):
    engine = fresh_engine(trained, fixed_decision=ET)
    student = engine.student
    frozen = [n for n in student.names() if student.group_of(n) != "adapter"]
    before = student.snapshot_bytes(frozen)
    adapters_before = student.snapshot_bytes(student.group_names("adapter"))
    inst = instances(1)[0]
    report = engine.step(inst.image, t_index=0, domain=inst.domain)
    assert report.decision == ET
    assert student.snapshot_bytes(frozen) == before
    assert student.snapshot_bytes(student.group_names("adapter")) != adapters_before


def test_ft_step_updates_every_group(trained):
    engine = fresh_engine(trained, fixed_decision=FT)
    student = engine.student
    before = {g: student.snapshot_bytes(student.group_names(g))
              for g in student.groups_present()}
    engine.step(instances(1)[0].image, t_index=0)
    for g, snap in before.items():
        assert student.snapshot_bytes(student.group_names(g)) != snap, g


def test_exactly_two_forwards_per_instance(trained):
    engine = fresh_engine(trained)
    for i, inst in enumerate(instances(3)):
        before = engine.forward_count
        engine.step(inst.image, t_index=i, domain=inst.domain)
        assert engine.forward_count - before == 2


def test_source_and_engine_share_masked_losses(trained):
    # One objective, two stages: true labels in source training, teacher
    # pseudo-labels at test time, each at its documented mask seed.
    params, config = trained
    n, ratio = config.num_patches, config.mask_ratio
    inst = instances(1)[0]
    store = params.clone()
    seg, rec, _ = masked_losses(inst.image, inst.labels, draw_mask(n, ratio, 5, 3),
                                store, config)
    total, s_seg, s_rec = source_step(SourceBatch((inst.image,), (inst.labels,)),
                                      store, config, Optimizer("adam"), 1e-3,
                                      mask_seed=5, step=3)
    assert (s_seg, s_rec) == (float(seg.data), float(rec.data))
    assert total == s_seg + s_rec

    engine = fresh_engine(trained, mask_seed=7)
    for t_index, inst in enumerate(instances(3), start=4):
        student = engine.student.clone()
        labels = predict(inst.image, engine.teacher, config)
        seg, rec, _ = masked_losses(inst.image, labels,
                                         draw_mask(n, ratio, engine.mask_seed, t_index),
                                         student, config)
        report = engine.step(inst.image, t_index=t_index, domain=inst.domain)
        assert np.array_equal(report.teacher_labels, labels)
        assert (report.loss_seg, report.loss_rec) == (float(seg.data), float(rec.data))


def test_teacher_ema_matches_manual_computation(trained):
    engine = fresh_engine(trained, alpha=0.999)
    t0 = {n: engine.teacher[n].data.copy() for n in engine.teacher.names()}
    engine.step(instances(1)[0].image, t_index=0)
    for n in engine.teacher.names():
        expected = t0[n] * engine.alpha
        expected += (1.0 - engine.alpha) * engine.student[n].data
        assert engine.teacher[n].data.tobytes() == expected.tobytes(), n


def test_quarantine_on_nonfinite_input(trained):
    engine = fresh_engine(trained)
    good = instances(1)[0]
    student_before = engine.student.snapshot_bytes()
    teacher_before = engine.teacher.snapshot_bytes()
    bad = np.full((3, TINY.image_size, TINY.image_size), np.inf)
    report = engine.step(bad, t_index=0, domain="fog")
    assert report.decision == SKIP
    assert np.isnan(report.loss_seg) and np.isnan(report.loss_rec)
    assert report.tau_before == report.tau_after == engine.tau == 0.0
    assert engine.shift_state is None         # detector never saw the input
    assert report.teacher_labels is None
    assert engine.student.snapshot_bytes() == student_before
    assert engine.teacher.snapshot_bytes() == teacher_before
    assert engine.optimizer._t == {}          # optimizer state untouched
    assert engine.skipped == 1 and engine.t == 0
    assert all(engine.student[n].grad is None for n in engine.student.names())
    follow_up = engine.step(good.image, t_index=1, domain=good.domain)
    assert follow_up.decision == FT           # first instance the detector sees
    assert engine.t == 1 and engine.skipped == 1

    # SKIPs after real updates leave tau and the detector state byte-identical:
    # one from the input, one raised after the detector has run
    state = engine.shift_state
    state_bytes = (state.mean.tobytes(), state.var.tobytes(), state.since_shift)
    tau = engine.tau
    assert engine.step(bad, t_index=2, domain="fog").decision == SKIP

    def failing_decision(loss, tau):
        raise NonFiniteError("decision on non-finite values")

    engine.decision_fn = failing_decision
    assert engine.step(good.image, t_index=3, domain=good.domain).decision == SKIP
    assert engine.shift_state is state
    assert (state.mean.tobytes(), state.var.tobytes(),
            state.since_shift) == state_bytes
    assert engine.tau == tau and engine.skipped == 3 and engine.t == 1


def test_quarantined_step_releases_its_tape(trained, monkeypatch):
    def failing_decision(loss, tau):
        raise NonFiniteError("decision on non-finite values")

    tapes = track_tapes(monkeypatch, adaptation)
    engine = fresh_engine(trained)
    image = instances(1)[0].image
    gc.disable()
    try:
        assert engine.step(image, t_index=0).decision == FT
        assert len(tapes) == 0
        engine.decision_fn = failing_decision
        assert engine.step(image, t_index=1).decision == SKIP
        assert len(tapes) == 0
    finally:
        gc.enable()


def test_pruned_et_tape_matches_the_full_tape(trained, monkeypatch):
    # The detector's decisions, computed without a model, replayed through a
    # decision_fn: that engine records the whole forward on every step.
    stream = list(build_stream(TINY, ("fog", "night", "rain"), per_domain=12, rounds=1,
                               seed=4, severity=0.8))
    state, decisions = None, []
    for inst in stream:
        full_tuning, state = detect_shift(state, inst.image, 0.9)
        decisions.append(full_tuning)
    assert 0 < sum(decisions) < len(decisions)
    replay = iter(decisions)
    pruned = fresh_engine(trained, alpha_l=0.9, clock=make_fake_clock())
    full = fresh_engine(trained, alpha_l=0.9, clock=make_fake_clock(),
                        decision_fn=lambda loss, tau: next(replay))

    nodes, with_grad = [], []
    backward = adaptation.ad.backward

    def counting_backward(loss):
        nodes.append(len(loss.tape))
        backward(loss)

    monkeypatch.setattr(adaptation.ad, "backward", counting_backward)
    for engine in (pruned, full):
        def spying(params, groups, lr, step=engine.optimizer.step):
            with_grad.append({n for n in params.names() if params[n].grad is not None})
            return step(params, groups, lr)
        engine.optimizer.step = spying

    adapters = set(pruned.student.group_names("adapter"))
    for i, inst in enumerate(stream):
        got = pruned.step(inst.image, i, inst.domain)
        want = full.step(inst.image, i, inst.domain)
        assert_same_report(got, want, i)
        (pruned_nodes, full_nodes), (pruned_grads, full_grads) = nodes[-2:], with_grad[-2:]
        assert full_grads == set(full.student.names())
        if got.decision == ET:
            assert pruned_grads == adapters, i    # no backbone leaf gets a .grad
            assert pruned_nodes < full_nodes == nodes[0], i   # nodes[0]: step 0, FT
        else:
            assert pruned_grads == full_grads and pruned_nodes == full_nodes, i
    assert_same_state(pruned, full)


@pytest.mark.parametrize("fixed, constant", [(ET, False), (FT, True)])
def test_fixed_decision_matches_constant_decision_fn(trained, monkeypatch, fixed, constant):
    # The et-only and ft-only baselines: a decision fixed before the student
    # forward gives what the constant decision_fn gives, byte for byte, and a
    # fixed ET records only what depends on the adapters.
    engine = fresh_engine(trained, clock=make_fake_clock(), fixed_decision=fixed)
    reference = fresh_engine(trained, clock=make_fake_clock(),
                             decision_fn=lambda loss, tau: constant)
    nodes = []
    backward = adaptation.ad.backward

    def counting_backward(loss):
        nodes.append(len(loss.tape))
        backward(loss)

    monkeypatch.setattr(adaptation.ad, "backward", counting_backward)
    for i, inst in enumerate(instances(6)):
        got = engine.step(inst.image, i, inst.domain)
        assert got.decision == fixed
        assert_same_report(got, reference.step(inst.image, i, inst.domain), i)
        fixed_nodes, reference_nodes = nodes[-2:]
        assert (fixed_nodes < reference_nodes if fixed == ET
                else fixed_nodes == reference_nodes), i
    assert_same_state(engine, reference)
    assert engine.shift_state.mean.tobytes() == reference.shift_state.mean.tobytes()


def test_fixed_decision_validation(trained):
    with pytest.raises(ValueError, match="fixed_decision"):
        fresh_engine(trained, fixed_decision=SKIP)
    with pytest.raises(ValueError, match="not both"):
        fresh_engine(trained, fixed_decision=ET, decision_fn=decide_shift)


def assert_same_report(got: StepReport, want: StepReport, i: int) -> None:
    for f in fields(StepReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b), \
            (i, f.name)


def assert_same_state(engine, other) -> None:
    """Student, teacher and Adam state are byte-identical."""
    for store in ("student", "teacher"):
        assert getattr(engine, store).snapshot_bytes() == getattr(other, store).snapshot_bytes()
    for moments in ("_m", "_v"):
        a, b = getattr(engine.optimizer, moments), getattr(other.optimizer, moments)
        assert a.keys() == b.keys()
        assert all(a[n].tobytes() == b[n].tobytes() for n in a), moments
    assert engine.optimizer._t == other.optimizer._t


def test_full_run_is_reproducible(trained):
    outputs = []
    for _ in range(2):
        engine = fresh_engine(trained, clock=make_fake_clock())
        reports = [engine.step(inst.image, t_index=i, domain=inst.domain)
                   for i, inst in enumerate(instances(5))]
        outputs.append(([(r.decision, r.loss_seg, r.loss_rec, r.tau_after,
                          r.wall_ms) for r in reports],
                        engine.student.snapshot_bytes()))
    assert outputs[0] == outputs[1]


def test_engine_refuses_a_store_that_does_not_fit(trained, monkeypatch):
    # Building is the one way to get an engine, so every engine, the subclass
    # of criterion 08 included, checks the layout before it clones a teacher.
    params, config = trained
    partial = params.subset(params.names()[:-1]).clone()
    extra = params.clone()
    extra.add("rogue.w", Tensor(np.zeros(3)), "backbone")
    no_adapters = init_params(config, include_adapters=False)
    monkeypatch.setattr(ParamStore, "clone", lambda self: pytest.fail("cloned a teacher"))
    for store, reason in ((partial, "missing"), (extra, "unexpected"),
                          (no_adapters, "missing.*adapter")):
        for engine_class in (AdaptationEngine, MultiScaleFlipTeacher):
            with pytest.raises(ValueError, match=reason):
                engine_class(store, config)
    assert {row[0] for row in parameter_layout(config)} == set(params.names())


# ---------------------------------------------------------------------------
# input-sequence shift detector (no model)
# ---------------------------------------------------------------------------

def test_detector_flags_every_domain_boundary():
    # The default stream at several seeds: the first instance of every domain
    # run (the stream's first instance included) is detected as a shift, and
    # starts a full-tuning burst of ft_window(alpha_l) instances.
    cfg = RunConfig()
    window = ft_window(cfg.alpha_l)
    assert window == 10
    for seed in (0, 1, 2):
        stream = build_stream(cfg.model_config(), cfg.domains, cfg.per_domain,
                              cfg.rounds, seed, cfg.severity)
        state, prev_domain, runs = None, None, 0
        for inst in stream:
            full, state = detect_shift(state, inst.image, cfg.alpha_l)
            if inst.domain != prev_domain:
                assert state.since_shift == 0, (seed, inst.t, inst.domain)
                assert full
                runs += 1
            assert full == (state.since_shift < window)
            prev_domain = inst.domain
        assert runs == len(cfg.domains) * cfg.rounds


def test_detector_window_and_alpha_l_edges():
    assert ft_window(0.0) == 1
    assert ft_window(0.9) == 10          # 1 / (1 - 0.9) is 10.000000000000002
    assert ft_window(0.75) == 4
    assert ft_window(1.0) == math.inf
    with pytest.raises(ValueError, match="alpha_l"):
        ft_window(1.5)

    rng = np.random.default_rng(0)
    images = [rng.uniform(0.0, 1.0, (3, 8, 8)) for _ in range(30)]
    # alpha_l = 1: statistics frozen at the first instance, unbounded window
    state = None
    for img in images:
        full, state = detect_shift(state, img, 1.0)
        assert full
    assert state.mean.tobytes() == input_statistics(images[0]).tobytes()
    assert not state.var.any()
    # a repeated input is never a shift, and the burst runs out after the
    # window; the state passed in is not modified
    full, state = detect_shift(None, images[0], 0.9)
    decisions = [full]
    for _ in range(14):
        before = (state.mean.tobytes(), state.var.tobytes(), state.since_shift)
        full, nxt = detect_shift(state, images[0], 0.9)
        assert (state.mean.tobytes(), state.var.tobytes(),
                state.since_shift) == before
        decisions.append(full)
        state = nxt
    assert decisions == [True] * 10 + [False] * 5
    assert state.since_shift == 14
    with pytest.raises(NonFiniteError):
        detect_shift(state, np.full((3, 8, 8), np.nan), 0.9)


# ---------------------------------------------------------------------------
# loss-threshold rule dynamics on synthetic loss streams
# ---------------------------------------------------------------------------

def synthetic_shift_losses(levels, block, bump, decay, noise_sigma, seed, rounds=3):
    """Loss stream for a detector test: each domain entry raises the loss by
    `bump`, which decays geometrically as adaptation re-converges; within a
    block the loss settles toward the domain's base level."""
    rng = np.random.default_rng(seed)
    losses, boundaries = [], []
    t = 0
    for _ in range(rounds):
        for base in levels:
            if t > 0:
                boundaries.append(t)
            for k in range(block):
                val = base + bump * (decay ** k) + rng.normal(0.0, noise_sigma)
                losses.append(max(val, 1e-6))
                t += 1
    return losses, boundaries


def test_switching_sensitivity_two_domain_alternation():
    # Two synthetic domains alternating every 50 instances. Domain entries
    # elevate the teacher-student loss; convergence decays it. At every
    # boundary (both directions) the FT fraction in the five instances after
    # must strictly exceed the fraction in the five before. Verified once on
    # this seeded stream, then pinned.
    losses, boundaries = synthetic_shift_losses(
        levels=(0.2, 0.5), block=50, bump=0.45, decay=0.9,
        noise_sigma=0.001, seed=0, rounds=3)
    assert boundaries == [50, 100, 150, 200, 250]
    tau = 0.0
    decisions = []
    for loss in losses:
        decisions.append(decide_shift(loss, tau))
        tau = update_threshold(tau, loss, 0.9)
    for b in boundaries:
        before = sum(decisions[b - 5:b])
        after = sum(decisions[b:b + 5])
        assert after > before, f"boundary t={b}: after={after} before={before}"


def test_switching_sensitivity_detects_both_shift_directions():
    # The up-shift (0.2 -> 0.5) and the down-shift (0.5 -> 0.2) must both
    # produce an FT burst: detection keys on the transient elevation, not on
    # the sign of the level change.
    losses, boundaries = synthetic_shift_losses(
        levels=(0.2, 0.5), block=50, bump=0.45, decay=0.9,
        noise_sigma=0.0, seed=0, rounds=2)
    tau = 0.0
    decisions = []
    for loss in losses:
        decisions.append(decide_shift(loss, tau))
        tau = update_threshold(tau, loss, 0.9)
    up, down = boundaries[0], boundaries[1]
    assert sum(decisions[up:up + 5]) >= 3
    assert sum(decisions[down:down + 5]) >= 3


def test_teacher_drift_bound_elementwise():
    # Per-step teacher movement is bounded by (1 - alpha) times the largest
    # teacher-student gap, elementwise, over a random-walking student.
    rng = np.random.default_rng(7)
    alpha = 0.999
    teacher = ParamStore()
    student = ParamStore()
    for i, shape in enumerate([(4, 3), (5,), (2, 2, 2)]):
        base = rng.normal(size=shape)
        teacher.add(f"p{i}", Tensor(base.copy()), group="backbone")
        student.add(f"p{i}", Tensor(base + rng.normal(size=shape)), group="backbone")
    for _ in range(50):
        gap = max(float(np.max(np.abs(student[n].data - teacher[n].data)))
                  for n in teacher.names())
        before = {n: teacher[n].data.copy() for n in teacher.names()}
        ema_update(teacher, student, alpha)
        for n in teacher.names():
            change = np.abs(teacher[n].data - before[n])
            assert np.all(change <= (1 - alpha) * gap + 1e-15)
        for n in student.names():
            student[n].data += rng.normal(scale=0.05, size=student[n].data.shape)
