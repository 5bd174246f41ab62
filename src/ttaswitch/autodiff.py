"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps a C-contiguous float64 ndarray. Primitive operations run
eagerly; while a Tape is active (see `recording`), every application whose
inputs require gradients is appended to the tape. `backward` replays the
tape once, in reverse, accumulating vector-Jacobian products into the
`.grad` of each reachable leaf.

Non-finite values are an error state everywhere: constructing a tensor
from, or producing, NaN/Inf raises NonFiniteError instead of propagating
silently.

Each VJP returns None, and skips the work, for an input that did not
require a gradient when the primitive ran: a frozen weight costs no
weight-gradient GEMM and no bias sum.

Three layer primitives, `linear`, `ln_affine` and `attention`, each record
one node for what the elementwise primitives record as 2, 3 and 21. They
replay the composed path's numpy calls in the same order and on the same
memory layouts, so values and gradients are bit-identical to it, and they
check every intermediate the composed path would have checked.

GELU is the exact, erf-based one. Its erf, `_erf`, is numpy code that
reproduces scipy.special.erf (cephes) bit for bit, so no part of the
model's default path imports scipy.

Broadcasting is restricted to leading axes: shapes align from the right
and a size-1 (or absent) dimension may only broadcast if every dimension
to its left in the same operand is also size 1 or absent.

Allocator policy: importing this module fixes glibc's malloc thresholds for
the process, M_MMAP_THRESHOLD at 32 MiB and M_TRIM_THRESHOLD at 256 MiB.
A tape's buffers are freed at the end of each step and the next step
allocates the same sizes again. Under glibc's defaults the large ones are
mmapped and unmapped, or trimmed off the heap, so every step faults them
back in: about 7,800 minor faults per batch-8 source step of the default
model, and some 17% of its time. With both thresholds fixed the memory stays in
the process and a step takes about one fault. Both are set because setting
either one turns off glibc's dynamic mmap threshold, and one alone faults
more than neither. Under any other C library nothing is changed.
"""
from __future__ import annotations

import ctypes
import math
import platform
from contextlib import contextmanager
from itertools import dropwhile
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are invalid for the requested operation."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared where only finite values are allowed."""


class GraphError(RuntimeError):
    """The requested autodiff operation has no recorded graph to work on."""


class TapeNode:
    __slots__ = ("op", "inputs", "output", "vjp")

    def __init__(self, op: str, inputs: tuple["Tensor", ...], output: "Tensor", vjp: Callable):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


class Tape:
    """Ordered record of primitive applications for one computation."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __len__(self) -> int:
        return len(self.nodes)


_TAPES: list[Tape] = []

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3   # glibc mallopt parameter numbers


def _retain_freed_memory() -> None:
    """Keep freed tape memory in the process (see the module docstring)."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 256 << 20)


_retain_freed_memory()


@contextmanager
def recording(tape: Tape | None = None):
    """Activate `tape` (or a fresh one) for the duration of the block."""
    t = Tape() if tape is None else tape
    _TAPES.append(t)
    try:
        yield t
    finally:
        _TAPES.pop()


def tape_active() -> bool:
    return bool(_TAPES)


class Tensor:
    """A float64 array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def detach(a: Tensor) -> Tensor:
    """A gradient-free tensor over the same array: no copy and no check."""
    out = Tensor.__new__(Tensor)
    out.data, out.requires_grad, out.grad, out.tape = a.data, False, None, None
    return out


def _check(op: str, data: np.ndarray) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op}: non-finite output")
    return data


def _emit(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, vjp: Callable) -> Tensor:
    _check(op, out_data)
    out = Tensor.__new__(Tensor)
    out_data = np.asarray(out_data, dtype=np.float64)
    if not out_data.flags["C_CONTIGUOUS"]:
        out_data = np.ascontiguousarray(out_data)
    out.data = out_data
    out.grad = None
    tape = _TAPES[-1] if _TAPES else None
    track = tape is not None and any(i.requires_grad for i in inputs)
    out.requires_grad = track
    out.tape = tape if track else None
    if track:
        tape.nodes.append(TapeNode(op, inputs, out, vjp))
    return out


def _leading_bcast_shape(sa: tuple[int, ...], sb: tuple[int, ...], op: str) -> tuple[int, ...]:
    """Output shape for leading-axes-only broadcasting, or ShapeError.

    Strip each shape's leading 1s; the shorter must end the longer.
    """
    ta, tb = (tuple(dropwhile(lambda d: d == 1, s)) for s in (sa, sb))
    short, long = sorted((ta, tb), key=len)
    if long[len(long) - len(short):] != short:
        raise ShapeError(f"{op}: cannot broadcast {sa} against {sb} on leading axes only")
    return (1,) * (max(len(sa), len(sb)) - len(long)) + long


def _unbcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    kept = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if kept:
        g = g.sum(axis=kept, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; batch axes broadcast (leading only).

    Against a 2-D `b` every row of `a` goes through one GEMM (`_rows`), in
    the forward and in both VJPs, so the gradient of `b` is one
    `a2.T @ g2` instead of a stack of products that is then summed.
    """
    a, b = as_tensor(a), as_tensor(b)
    da, db = a.data, b.data
    if da.ndim < 2 or db.ndim < 2:
        raise ShapeError(f"matmul: rank >= 2 required, got {da.shape} @ {db.shape}")
    if da.shape[-1] != db.shape[-2]:
        raise ShapeError(f"matmul: contraction mismatch {da.shape} @ {db.shape}")
    need_a, need_b = a.requires_grad, b.requires_grad
    if db.ndim == 2:
        a2, out = _rows(da, db)

        def vjp_rows(g):
            return _rows_vjp(g, da, a2, db, need_a, need_b)

        return _emit("matmul", (a, b), out, vjp_rows)
    _leading_bcast_shape(da.shape[:-2], db.shape[:-2], "matmul")
    out = da @ db

    def vjp(g):
        ga = _unbcast(g @ np.swapaxes(db, -1, -2), da.shape) if need_a else None
        gb = _unbcast(np.swapaxes(da, -1, -2) @ g, db.shape) if need_b else None
        return ga, gb

    return _emit("matmul", (a, b), out, vjp)


def _rows(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x2, x @ w) for a 2-D w: x2 is x with its leading axes folded into rows.

    x2 is a view (tensor data is C-contiguous), so the product is one GEMM.
    """
    x2 = x.reshape(-1, x.shape[-1])
    return x2, (x2 @ w).reshape(x.shape[:-1] + (w.shape[1],))


def _rows_vjp(g, x, x2, w, need_x: bool, need_w: bool):
    """(gx, gw) of `_rows`: one GEMM each, skipped when not needed."""
    g2 = g.reshape(-1, g.shape[-1])
    return ((g2 @ w.T).reshape(x.shape) if need_x else None,
            x2.T @ g2 if need_w else None)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _leading_bcast_shape(a.shape, b.shape, "add")
    da, db = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (_unbcast(g, da.shape) if need_a else None,
                _unbcast(g, db.shape) if need_b else None)

    return _emit("add", (a, b), da + db, vjp)


def mul(a, b) -> Tensor:
    """Elementwise product (Hadamard); leading-axes broadcasting only."""
    a, b = as_tensor(a), as_tensor(b)
    _leading_bcast_shape(a.shape, b.shape, "mul")
    da, db = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (_unbcast(g * db, da.shape) if need_a else None,
                _unbcast(g * da, db.shape) if need_b else None)

    return _emit("mul", (a, b), da * db, vjp)


def scalar_mul(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    if not math.isfinite(c):
        raise NonFiniteError("scalar_mul: non-finite scalar")

    def vjp(g):
        return (g * c,)

    return _emit("scalar_mul", (a,), a.data * c, vjp)


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: {a.shape} -> {shape}: {e}") from None
    src_shape = a.data.shape

    def vjp(g):
        return (g.reshape(src_shape),)

    return _emit("reshape", (a,), out, vjp)


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(range(a.ndim - 1, -1, -1))
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of rank {a.ndim}")
    inv = tuple(int(i) for i in np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inv),)

    return _emit("transpose", (a,), np.transpose(a.data, axes), vjp)


# cephes' erf/erfc coefficients (scipy.special.erf), highest power first;
# U and Q omit their leading 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)


def _horner(out: np.ndarray, x: np.ndarray, coefs: Sequence[float]) -> np.ndarray:
    """cephes' polevl steps, in place: out = out * x + c for each c in turn."""
    for c in coefs:
        out *= x
        out += c
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """scipy.special.erf of a float64 array, bit for bit.

    cephes computes x * T(x^2) / U(x^2) for |x| <= 1, and beyond that
    1 - erfc(|x|) with the sign of x, where erfc(a) = exp(-a^2) * P(a) / Q(a)
    for a < 8. Each step runs in cephes' order, and exp is libm's
    (`math.exp`), whose last bit numpy's own exp does not always match.
    From a = 8 on, erfc(a) < 2**-54, so erf is exactly +-1 and cephes' R/S
    form for that range cannot change a bit.
    """
    shape, x = x.shape, x.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):   # overflowed lanes are rewritten
        z = x * x
        out = z * _ERF_T[0]
        out += _ERF_T[1]
        _horner(out, z, _ERF_T[2:])
        den = z + _ERF_U[0]
        out *= x
        out /= _horner(den, z, _ERF_U[1:])
        tail = np.flatnonzero(z > 1.0)   # |x| > 1: a few lanes per call
        if tail.size:
            xt = x[tail]
            a = np.abs(xt)
            y = np.array([math.exp(-v * v) for v in a.tolist()])
            p = a * _ERFC_P[0]
            p += _ERFC_P[1]
            y *= _horner(p, a, _ERFC_P[2:])
            q = a + _ERFC_Q[0]
            y /= _horner(q, a, _ERFC_Q[1:])
            np.subtract(1.0, y, out=y)
            y[a >= 8.0] = 1.0
            out[tail] = np.copysign(y, xt)
    return out.reshape(shape)


def gelu(a) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    a = as_tensor(a)
    x = a.data
    cdf = _erf(x / math.sqrt(2.0))
    cdf += 1.0
    cdf *= 0.5
    out = x * cdf

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return (g * (cdf + x * pdf),)

    return _emit("gelu", (a,), out, vjp)


def relu(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out = np.maximum(x, 0.0)

    def vjp(g):
        return (g * (x > 0.0),)

    return _emit("relu", (a,), out, vjp)


_LN_EPS = 1e-12


def layer_norm(a) -> Tensor:
    """Normalize the last axis to zero mean, unit variance. No affine part."""
    a = as_tensor(a)
    x = a.data
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"layer_norm: needs a non-empty last axis, got {x.shape}")
    y, inv = _ln(x)

    def vjp(g):
        return (_ln_vjp(g, y, inv),)

    return _emit("layer_norm", (a,), y, vjp)


def _ln(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    return xc * inv, inv


def _ln_vjp(g: np.ndarray, y: np.ndarray, inv: np.ndarray) -> np.ndarray:
    gm = g.mean(axis=-1, keepdims=True)
    gy = (g * y).mean(axis=-1, keepdims=True)
    return inv * (g - gm - y * gy)


def softmax_lastdim(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    if x.ndim < 1:
        raise ShapeError("softmax_lastdim: rank >= 1 required")
    y = _softmax(x)

    def vjp(g):
        return (_softmax_vjp(g, y),)

    return _emit("softmax_lastdim", (a,), y, vjp)


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - dot)


def mean(a, axis: int | None = None) -> Tensor:
    """Mean over all elements (axis=None) or one axis."""
    a = as_tensor(a)
    x = a.data
    if axis is not None and not -x.ndim <= int(axis) < x.ndim:
        raise ShapeError(f"mean: axis {axis} out of range for shape {x.shape}")
    ax = None if axis is None else int(axis) % x.ndim
    n = x.size if ax is None else x.shape[ax]
    if n == 0:
        raise ShapeError(f"mean: nothing to average in {x.shape}")
    keep = tuple(1 if ax in (None, i) else d for i, d in enumerate(x.shape))

    def vjp(g):
        return (np.broadcast_to(np.reshape(g / n, keep), x.shape).copy(),)

    return _emit("mean", (a,), x.mean(axis=ax), vjp)


# ---------------------------------------------------------------------------
# layer primitives
# ---------------------------------------------------------------------------

def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, op: str):
    """(x2, x @ w + b) computed as `matmul` then `add`; the product is checked."""
    x2, prod = _rows(x, w)
    return x2, _check(op, prod) + b


def _affine_vjp(g, x, x2, w, need_x: bool, need_w: bool, need_b: bool):
    """(gx, gw, gb) of `_affine` as the `add` and `matmul` VJPs compute them."""
    gb = g.sum(axis=tuple(range(g.ndim - 1))) if need_b else None
    return _rows_vjp(g, x, x2, w, need_x, need_w) + (gb,)


def _check_affine(op: str, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> None:
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"{op}: cannot apply {w.shape} weights and {b.shape} bias "
                         f"to {x.shape}")


def linear(x, w, b) -> Tensor:
    """x [..., k] @ w [k, m] + b [m]: `add(matmul(x, w), b)` as one node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    dx, dw = x.data, w.data
    _check_affine("linear", dx, dw, b.data)
    x2, out = _affine(dx, dw, b.data, "linear")
    need = (x.requires_grad, w.requires_grad, b.requires_grad)

    def vjp(g):
        return _affine_vjp(g, dx, x2, dw, *need)

    return _emit("linear", (x, w, b), out, vjp)


def ln_affine(x, g, b) -> Tensor:
    """layer_norm(x) * g + b over the last axis: `add(mul(layer_norm(x), g), b)`."""
    x, g, b = as_tensor(x), as_tensor(g), as_tensor(b)
    dx, dg = x.data, g.data
    if dx.ndim < 1 or dx.shape[-1] < 1 or dg.shape != dx.shape[-1:] or b.shape != dg.shape:
        raise ShapeError(f"ln_affine: cannot apply {dg.shape} gain and {b.shape} bias "
                         f"to {dx.shape}")
    y, inv = _ln(dx)
    out = _check("ln_affine", _check("ln_affine", y) * dg) + b.data
    need_x, need_g, need_b = x.requires_grad, g.requires_grad, b.requires_grad
    lead = tuple(range(dx.ndim - 1))

    def vjp(go):
        return (_ln_vjp(go * dg, y, inv) if need_x else None,
                (go * y).sum(axis=lead) if need_g else None,
                go.sum(axis=lead) if need_b else None)

    return _emit("ln_affine", (x, g, b), out, vjp)


def attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads: int) -> Tensor:
    """Multi-head self-attention over x [..., n, d] as one node.

    q, k and v are `linear` projections of x, split into `heads` of
    d / heads; softmax(q k^T / sqrt(d / heads)) mixes v, and (wo, bo)
    projects the heads back to d. This is the composition of 21 primitives
    (`linear` counted as matmul and add), with its copies and checks.
    """
    x = as_tensor(x)
    params = tuple(as_tensor(t) for t in (wq, bq, wk, bk, wv, bv, wo, bo))
    dx, heads = x.data, int(heads)
    d = dx.shape[-1] if dx.ndim else 0
    shapes = [t.shape for t in params]
    if dx.ndim < 2 or heads < 1 or d % heads or shapes != [(d, d), (d,)] * 4:
        raise ShapeError(f"attention: cannot split {dx.shape} into {heads} heads "
                         f"with weights {shapes}")
    lead, n = dx.shape[:-2], dx.shape[-2]
    dh, r = d // heads, len(lead)
    split = tuple(range(r)) + (r + 1, r, r + 2)   # tokens <-> heads; its own inverse
    swap = tuple(range(r)) + (r, r + 2, r + 1)    # the last two axes; its own inverse
    c = 1.0 / math.sqrt(dh)
    (dwq, dbq, dwk, dbk, dwv, dbv, dwo, dbo) = (t.data for t in params)

    def project(w, b):   # [..., heads, n, dh], a C-contiguous copy as `transpose` makes
        x2, t = _affine(dx, w, b, "attention")
        t = _check("attention", t).reshape(lead + (n, heads, dh))
        return x2, np.ascontiguousarray(np.transpose(t, split))

    x2, q = project(dwq, dbq)
    _, k = project(dwk, dbk)
    _, v = project(dwv, dbv)
    kt = np.ascontiguousarray(np.transpose(k, swap))
    att = _check("attention", _softmax(_check("attention", _check("attention", q @ kt) * c)))
    mixed = _check("attention", att @ v)
    ctx = np.ascontiguousarray(np.transpose(mixed, split)).reshape(lead + (n, d))
    ctx2, out = _affine(ctx, dwo, dbo, "attention")
    need_x = x.requires_grad
    need = tuple(t.requires_grad for t in params)

    def vjp(g):
        grads = [None] * 9
        g_ctx, grads[7], grads[8] = _affine_vjp(g, ctx, ctx2, dwo, need_x or any(need[:6]),
                                                *need[6:])
        if g_ctx is None:
            return tuple(grads)
        g_mixed = np.transpose(g_ctx.reshape(lead + (n, heads, dh)), split)
        g_att = g_mixed @ np.swapaxes(v, -1, -2)
        g_v = np.swapaxes(att, -1, -2) @ g_mixed
        g_scores = _softmax_vjp(g_att, att) * c
        g_q = g_scores @ np.swapaxes(kt, -1, -2)
        g_k = np.transpose(np.swapaxes(q, -1, -2) @ g_scores, swap)
        # v, then k, then q: the order in which the composed tape sums into x
        for i, w, g_t in ((5, dwv, g_v), (3, dwk, g_k), (1, dwq, g_q)):
            g_t = np.transpose(g_t, split).reshape(lead + (n, d))
            gx, grads[i], grads[i + 1] = _affine_vjp(g_t, dx, x2, w, need_x, *need[i - 1:i + 1])
            if gx is not None:
                grads[0] = gx if grads[0] is None else grads[0] + gx
        return tuple(grads)

    return _emit("attention", (x,) + params, out, vjp)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def cross_entropy(logits, labels, ignore_index: int = -1) -> Tensor:
    """Mean negative log-likelihood over rows whose label != ignore_index.

    logits: [n, c]; labels: integer vector [n]. Rows labeled ignore_index
    contribute neither to the value nor to the gradient; if every row is
    ignored the loss is exactly 0 with a zero gradient.
    """
    logits = as_tensor(logits)
    x = logits.data
    if x.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be [n, c], got {x.shape}")
    y = np.asarray(labels)
    if y.ndim != 1 or not np.issubdtype(y.dtype, np.integer):
        raise ShapeError("cross_entropy: labels must be a 1-D integer array")
    if y.shape[0] != x.shape[0]:
        raise ShapeError(f"cross_entropy: {x.shape[0]} rows vs {y.shape[0]} labels")
    c = x.shape[1]
    valid = y != ignore_index
    bad = valid & ((y < 0) | (y >= c))
    if bad.any():
        raise ValueError(f"cross_entropy: label {int(y[bad][0])} outside [0, {c})")
    k = int(valid.sum())

    m = x.max(axis=-1, keepdims=True)
    z = x - m
    ez = np.exp(z)
    sez = ez.sum(axis=-1, keepdims=True)
    p = ez / sez
    if k == 0:
        out = np.asarray(0.0)
    else:
        lse = np.log(sez[:, 0]) + m[:, 0]
        nll = lse - x[np.arange(x.shape[0]), np.where(valid, y, 0)]
        out = np.asarray(nll[valid].mean())
    yv = y.copy()

    def vjp(g):
        gx = p.copy()
        if k:
            rows = np.arange(x.shape[0])
            gx[rows[valid], yv[valid]] -= 1.0
            gx *= np.where(valid, float(g) / k, 0.0)[:, None]
        else:
            gx[:] = 0.0
        return (gx,)

    return _emit("cross_entropy", (logits,), out, vjp)


def l1_masked(pred, target, mask) -> Tensor:
    """Masked mean absolute error: sum(|pred - target| * mask) / max(sum(mask), 1).

    mask entries must be exactly 0 or 1; the subgradient of |.| at 0 is 0.
    An all-zero mask yields loss 0 with zero gradient.
    """
    pred, target, mask = as_tensor(pred), as_tensor(target), as_tensor(mask)
    if pred.shape != target.shape or pred.shape != mask.shape:
        raise ShapeError(
            f"l1_masked: shapes must match exactly, got {pred.shape}/{target.shape}/{mask.shape}"
        )
    md = mask.data
    if not ((md == 0.0) | (md == 1.0)).all():
        raise ValueError("l1_masked: mask entries must be 0 or 1")
    denom = max(float(md.sum()), 1.0)
    diff = pred.data - target.data
    out = np.asarray(float((np.abs(diff) * md).sum()) / denom)
    sgn = np.sign(diff) * md

    def vjp(g):
        gp = sgn * (float(g) / denom)
        return gp, -gp, None

    return _emit("l1_masked", (pred, target, mask), out, vjp)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` of every reachable leaf.

    The loss must be a scalar recorded on a tape. Repeated calls accumulate
    into leaf gradients; intermediate gradients are local to each call.
    """
    if loss.tape is None:
        raise GraphError("backward: loss is not recorded on any tape")
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    tape = loss.tape
    flow: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for node in reversed(tape.nodes):
        g_out = flow.pop(id(node.output), None)
        if g_out is None:
            continue
        grads = node.vjp(g_out)
        for inp, g in zip(node.inputs, grads):
            if g is None or not inp.requires_grad:
                continue
            if inp.tape is tape:
                prev = flow.get(id(inp))
                flow[id(inp)] = g if prev is None else prev + g
            else:
                inp.grad = g.copy() if inp.grad is None else inp.grad + g


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Optimizer:
    """Adam (default) or plain SGD over a ParamStore, with group filtering.

    Moment buffers and step counts are kept per parameter name and are
    shared across steps regardless of which group filter each step used.
    Parameters whose `.grad` is None are skipped without advancing state.
    """

    def __init__(self, kind: str = "adam"):
        if kind not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer kind '{kind}'")
        self.kind = kind
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def step(self, params, group_filter, lr: float) -> list[str]:
        """Update parameters whose group is in `group_filter`; clear all grads.

        Returns the names that were actually updated. An empty filter, or a
        filter matching no parameters, is a wiring bug and raises ValueError.
        """
        groups = set(group_filter)
        if not groups:
            raise ValueError("optimizer step: empty group filter")
        lr = float(lr)
        names = [n for n in params.names() if params.group_of(n) in groups]
        if not names:
            raise ValueError(f"optimizer step: group filter {sorted(groups)} matches no parameters")
        updated = []
        for name in names:
            p = params[name]
            g = p.grad
            if g is None:
                continue
            if self.kind == "sgd":
                p.data -= lr * g
            else:
                m = self._m.get(name)
                if m is None:
                    m = self._m[name] = np.zeros_like(p.data)
                    self._v[name] = np.zeros_like(p.data)
                    self._t[name] = 0
                v = self._v[name]
                t = self._t[name] = self._t[name] + 1
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * (g * g)
                mhat = m / (1.0 - ADAM_BETA1 ** t)
                vhat = v / (1.0 - ADAM_BETA2 ** t)
                p.data -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            updated.append(name)
        params.zero_grad()
        return updated
