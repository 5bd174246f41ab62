"""Span tracing from outside the program, and the per-layer metrics it yields.

`Tracer.install()` replaces public functions of the `ttaswitch` modules, as
the calling modules see them, with wrappers that record one span per call:
name, start, end, parent span and an optional tag. Nothing under `src/`
changes, and `uninstall()` puts every original back. Spans stay in memory
until the run ends; `write` stores them as CSV and `per_layer` turns them
into per-instance (or per-image) layer figures.

Span names are `<layer>.<what>`, where the layer is a module of the
program: harness, streams, metrics, checkpoint, adaptation, model,
autodiff and source.
"""
from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

LAYERS = ("harness", "streams", "metrics", "checkpoint", "adaptation", "model",
          "autodiff", "source")

# The primitives on the paper's path. The first ten are bound by name in
# `model`; each is also wrapped in `autodiff`, where `source`, `adaptation`
# and the losses reach them as `ad.<op>`.
MODEL_OPS = ("matmul", "add", "mul", "scalar_mul", "reshape", "transpose", "gelu",
             "relu", "layer_norm", "softmax_lastdim")
OPS = MODEL_OPS + ("cross_entropy", "l1_masked")

STUDENT_SPANS = ("model.apply_mask", "model.encode", "model.seg_decode",
                 "model.rec_decode")

TAPE_SAMPLE_EVERY = 16   # measure the bytes a tape holds on every 16th backward

_NAME, _START, _END, _PARENT, _TAG = range(5)


class Tracer:
    """In-memory span recorder plus the monkeypatches that feed it."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent index, tag]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._backwards = 0

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[_END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, tag_fn=None):
        """`fn`, recording one span per call; `tag_fn(result)` sets its tag."""
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if tag_fn is not None:
                rec[_TAG] = tag_fn(out)
            return out
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from ttaswitch import adaptation, autodiff, harness, model, source

        self._patch(harness, "run_experiment",
                    self.wrap("harness.run_experiment", harness.run_experiment))
        self._patch(harness, "build_stream", self._traced_stream(harness.build_stream))
        self._patch(harness, "compute_miou",
                    self.wrap("metrics.miou", harness.compute_miou))
        self._patch(harness, "load_checkpoint",
                    self.wrap("checkpoint.load", harness.load_checkpoint))
        self._patch(source, "save_checkpoint",
                    self.wrap("checkpoint.save", source.save_checkpoint))
        engine = adaptation.AdaptationEngine
        self._patch(engine, "step", self.wrap("adaptation.step", engine.step,
                                              tag_fn=lambda report: report.decision))
        self._patch(engine, "pseudo_label",
                    self.wrap("adaptation.teacher", engine.pseudo_label))
        self._patch(adaptation, "detect_shift",
                    self.wrap("adaptation.detect", adaptation.detect_shift))
        self._patch(adaptation, "ema_update",
                    self.wrap("adaptation.ema", adaptation.ema_update))
        for fn in ("predict",) + tuple(s.split(".")[1] for s in STUDENT_SPANS):
            self._patch(model, fn, self.wrap("model." + fn, getattr(model, fn)))
        for op in MODEL_OPS:
            self._patch(model, op, self.wrap("autodiff.op." + op, getattr(model, op)))
        for op in OPS:
            self._patch(autodiff, op, self.wrap("autodiff.op." + op, getattr(autodiff, op)))
        self._patch(autodiff, "backward", self._traced_backward(autodiff.backward))
        self._patch(autodiff.Optimizer, "step",
                    self._traced_optimizer_step(autodiff.Optimizer.step))
        self._patch(source, "source_step", self.wrap("source.step", source.source_step))
        self._patch(source, "make_source_scenes",
                    self.wrap("source.scenes", source.make_source_scenes))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _traced_stream(self, build_stream):
        """Stream whose every `next()` is a streams.render span."""
        def traced(*args, **kwargs):
            it = iter(build_stream(*args, **kwargs))

            def instances():
                while True:
                    rec = self._open("streams.render")
                    try:
                        inst = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    yield inst
            return instances()
        return traced

    def _traced_backward(self, backward):
        """Backward span tagged (tape nodes, tape bytes or None); each VJP traced."""
        def traced(loss):
            nodes = loss.tape.nodes
            self._backwards += 1
            sampled = self._backwards % TAPE_SAMPLE_EVERY == 1
            tape_bytes = tape_nbytes(nodes) if sampled else None
            for node in nodes:
                node.vjp = self.wrap("autodiff.vjp." + node.op, node.vjp)
            rec = self._open("autodiff.backward")
            try:
                return backward(loss)
            finally:
                self._close(rec)
                rec[_TAG] = (len(nodes), tape_bytes)
        return traced

    def _traced_optimizer_step(self, step):
        """Optimizer span tagged (elements updated, elements given a gradient)."""
        def traced(opt, params, group_filter, lr):
            given = sum(t.data.size for t in params.tensors() if t.grad is not None)
            rec = self._open("autodiff.optimizer")
            try:
                updated = step(opt, params, group_filter, lr)
            finally:
                self._close(rec)
            rec[_TAG] = (sum(params[n].data.size for n in updated), given)
            return updated
        return traced

    def write(self, path) -> None:
        """Every span as CSV: index, name, start, end, parent, tag."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,tag\n")
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                tag = "" if tag is None else str(tag).replace(",", ";")
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{tag}\n")


def tape_nbytes(nodes) -> int:
    """Bytes of the distinct buffers a tape keeps alive.

    Counts each node's output and every array its VJP closure captured,
    once per underlying buffer.
    """
    seen = {}
    for node in nodes:
        arrays = [node.output.data]
        for cell in node.vjp.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                arrays.append(value)
        for a in arrays:
            while isinstance(a.base, np.ndarray):
                a = a.base
            seen[id(a)] = a.nbytes
    return sum(seen.values())


def per_layer(spans, instances: int, images: int) -> dict:
    """Per-layer figures from the spans of the traced rounds.

    `instances` and `images` count the stream instances and source images
    those rounds processed. Stream layers are per instance, source layers
    per image, and model and autodiff figures per whichever is non-zero.
    Step, backward and optimizer times split by decision are means per step
    of that kind; checkpoint and scene-rendering times are per call. Layers
    a workload does not reach read 0.
    """
    n = len(spans)
    names = [s[_NAME] for s in spans]
    parent = np.fromiter((s[_PARENT] for s in spans), np.int64, n)
    dur_ms = np.fromiter((s[_END] - s[_START] for s in spans), float, n) * 1000.0
    child_ms = np.zeros(n)
    nested = parent >= 0
    np.add.at(child_ms, parent[nested], dur_ms[nested])
    self_ms = dur_ms - child_ms

    # decision of the enclosing adaptation step and whether a span sits in
    # the teacher forward; a parent is always recorded before its children
    decision = np.full(n, "", dtype=object)
    in_step = np.zeros(n, bool)
    in_teacher = np.zeros(n, bool)
    by_name = defaultdict(list)
    for i, name in enumerate(names):
        by_name[name].append(i)
        p = parent[i]
        if name == "adaptation.step":
            decision[i] = spans[i][_TAG]
            in_step[i] = True
        elif p >= 0:
            decision[i] = decision[p]
            in_step[i] = in_step[p]
            in_teacher[i] = in_teacher[p] or names[p] == "adaptation.teacher"
    idx = {name: np.asarray(ii, np.int64) for name, ii in by_name.items()}
    none = np.zeros(0, np.int64)
    parent_name = np.where(nested, np.asarray(names, dtype=object)[parent], "")

    def ids(name, keep=None):
        ii = idx.get(name, none)
        return ii if keep is None else ii[keep[ii]]

    def ms(name, keep=None) -> float:
        return float(dur_ms[ids(name, keep)].sum())

    def per(value, base) -> float:
        return float(value) / base if base else 0.0

    def tags(name, keep=None):
        return [spans[i][_TAG] for i in ids(name, keep)]

    per_op = instances or images
    is_ft, is_et = decision == "FT", decision == "ET"
    out = {
        "streams.render_ms": per(ms("streams.render"), instances),
        "metrics.miou_ms": per(ms("metrics.miou"), instances),
        "checkpoint.load_ms": per(ms("checkpoint.load"), len(ids("checkpoint.load"))),
        "checkpoint.save_ms": per(ms("checkpoint.save"), len(ids("checkpoint.save"))),
    }
    for kind, keep in (("ft", is_ft), ("et", is_et)):
        steps = len(ids("adaptation.step", keep))
        out[f"adaptation.step_ms.{kind}"] = per(ms("adaptation.step", keep), steps)
        out[f"autodiff.backward_ms.{kind}"] = per(ms("autodiff.backward", keep), steps)
        out[f"autodiff.optimizer_ms.{kind}"] = per(ms("autodiff.optimizer", keep), steps)
    out["adaptation.teacher_ms"] = per(ms("adaptation.teacher"), instances)
    out["adaptation.detect_ms"] = per(ms("adaptation.detect"), instances)
    out["adaptation.ema_ms"] = per(ms("adaptation.ema"), instances)
    out["adaptation.ft_steps"] = float(len(ids("adaptation.step", is_ft)))
    out["adaptation.et_steps"] = float(len(ids("adaptation.step", is_et)))
    out["adaptation.forwards_per_instance"] = per(len(ids("model.encode")), instances)

    student = in_step & ~in_teacher & ~np.isin(parent_name, STUDENT_SPANS)
    out["model.student_fwd_ms"] = per(sum(ms(s, student) for s in STUDENT_SPANS),
                                      instances)
    out["model.encode_ms"] = per(ms("model.encode"), per_op)
    out["model.encode_calls"] = per(len(ids("model.encode")), per_op)

    for label, keep in (("", None), (".ft", is_ft), (".et", is_et)):
        pairs = tags("autodiff.optimizer", keep)
        out["autodiff.grad_use_ratio" + label] = per(sum(u for u, _ in pairs),
                                                     sum(g for _, g in pairs))
    backward_tags = tags("autodiff.backward")
    tape_mb = [b / 2 ** 20 for _, b in backward_tags if b is not None]
    out["autodiff.tape_nodes"] = per(sum(k for k, _ in backward_tags), per_op)
    out["autodiff.tape_mb"] = float(np.mean(tape_mb)) if tape_mb else 0.0
    out["autodiff.primitive_calls"] = per(
        sum(len(ids("autodiff.op." + op)) for op in OPS), per_op)
    for op in OPS:
        out[f"autodiff.op.{op}.calls"] = per(len(ids("autodiff.op." + op)), per_op)
        out[f"autodiff.op.{op}.fwd_ms"] = per(ms("autodiff.op." + op), per_op)
        out[f"autodiff.op.{op}.vjp_ms"] = per(ms("autodiff.vjp." + op), per_op)

    in_source = parent_name == "source.step"
    step_ms = ms("source.step")
    back_ms = ms("autodiff.backward", in_source)
    opt_ms = ms("autodiff.optimizer", in_source)
    out["source.step_ms"] = per(step_ms, images)
    out["source.fwd_ms"] = per(step_ms - back_ms - opt_ms, images)
    out["source.backward_ms"] = per(back_ms, images)
    out["source.optimizer_ms"] = per(opt_ms, images)
    out["source.scenes_ms"] = per(ms("source.scenes"), len(ids("source.scenes")))

    layer_of = np.asarray([name.split(".", 1)[0] for name in names], dtype=object)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = per(float(self_ms[layer_of == layer].sum()), per_op)
    return out
