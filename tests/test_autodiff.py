import itertools
import math

import numpy as np
import pytest

from ttaswitch.autodiff import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    GraphError,
    NonFiniteError,
    Optimizer,
    ShapeError,
    Tensor,
    _erf,
    _leading_bcast_shape,
    add,
    attention,
    backward,
    cross_entropy,
    gelu,
    l1_masked,
    layer_norm,
    linear,
    ln_affine,
    matmul,
    mean,
    mul,
    recording,
    relu,
    reshape,
    scalar_mul,
    softmax_lastdim,
    transpose,
)
from ttaswitch.params import ParamStore

from helpers import fd_gradient, rel_err


def _grad_of(build, arrays, wrt, h=1e-5):
    """Analytic grad of scalar build(tensors) w.r.t. arrays[wrt], plus FD oracle."""
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    with recording():
        loss = build(tensors)
    backward(loss)
    ana = tensors[wrt].grad

    def f(arrs):
        ts = {k: Tensor(v) for k, v in arrs.items()}
        return float(build(ts).data)

    num = fd_gradient(f, {k: v.copy() for k, v in arrays.items()}, wrt, h=h)
    return ana, num


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 4))
    out = matmul(Tensor(a), Tensor(np.eye(4)))
    assert np.array_equal(out.data, a)


def test_matmul_batched_and_shape_errors():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4, 5))
    b = rng.normal(size=(3, 5, 2))
    out = matmul(Tensor(a), Tensor(b))
    assert out.shape == (3, 4, 2)
    assert np.allclose(out.data, a @ b)
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_leading_broadcast_rules():
    # bias-style [d] against [n, d] broadcasts; trailing-axis broadcast refused
    out = add(Tensor(np.zeros((4, 3))), Tensor(np.arange(3.0)))
    assert out.shape == (4, 3)
    out = mul(Tensor(np.ones((1, 6))), Tensor(np.ones((5, 6))))
    assert out.shape == (5, 6)
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((4, 1))), Tensor(np.ones((4, 3))))
    with pytest.raises(ShapeError):
        mul(Tensor(np.ones((2, 1, 3))), Tensor(np.ones((2, 5, 3))))
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))
    # every pair of shapes of rank <= 3 with dims in {1, 2, 3}, against the rule
    # itself: right-aligned and padded with 1s, each axis holds equal dims, or the
    # operand holding the 1 has only 1s to the left of that axis
    shapes = [s for rank in range(4) for s in itertools.product((1, 2, 3), repeat=rank)]
    for sa, sb in itertools.product(shapes, repeat=2):
        n = max(len(sa), len(sb))
        pa, pb = (1,) * (n - len(sa)) + sa, (1,) * (n - len(sb)) + sb
        valid = all(da == db or (da == 1 and set(pa[:i]) <= {1})
                    or (db == 1 and set(pb[:i]) <= {1})
                    for i, (da, db) in enumerate(zip(pa, pb)))
        if valid:
            assert _leading_bcast_shape(sa, sb, "add") == np.broadcast_shapes(sa, sb), (sa, sb)
        else:
            with pytest.raises(ShapeError):
                _leading_bcast_shape(sa, sb, "add")


def test_nonfinite_is_an_error():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0, np.nan]))
    big = Tensor(np.full((2, 2), 1e300))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
        matmul(big, big)   # overflows on purpose
    with pytest.raises(NonFiniteError):
        scalar_mul(Tensor(np.ones(2)), float("inf"))


def test_softmax_rows_sum_to_one_and_uniform_case():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 5)) * 10
    y = softmax_lastdim(Tensor(x)).data
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    u = softmax_lastdim(Tensor(np.zeros(3))).data
    assert np.allclose(u, 1.0 / 3.0, atol=1e-15)


def test_layer_norm_statistics_and_zero_row():
    rng = np.random.default_rng(3)
    x = rng.normal(loc=2.0, scale=3.0, size=(8, 16))
    y = layer_norm(Tensor(x)).data
    assert np.max(np.abs(y.mean(axis=-1))) <= 1e-10
    assert np.max(np.abs(y.var(axis=-1) - 1.0)) <= 1e-8
    z = layer_norm(Tensor(np.zeros((2, 4)))).data
    assert np.all(np.isfinite(z)) and np.allclose(z, 0.0)


def test_gelu_relu_values():
    assert gelu(Tensor(np.zeros(3))).data == pytest.approx(0.0)
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.allclose(relu(Tensor(x)).data, np.maximum(x, 0.0))
    # gelu(x) -> x for large positive x, -> 0 for large negative x
    g = gelu(Tensor(np.array([8.0, -8.0]))).data
    assert g[0] == pytest.approx(8.0, abs=1e-12)
    assert g[1] == pytest.approx(0.0, abs=1e-12)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.filterwarnings("error")   # no input may raise a RuntimeWarning
def test_erf_is_scipy_erf_bit_for_bit():
    from scipy import special
    rng = np.random.default_rng(0)
    draws = [rng.normal(size=(250, 800)) * s for s in (0.3, 1.0, 3.0, 30.0, 1e3, 1e200)]
    grid = np.linspace(-30.0, 30.0, 1_200_001)
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, np.nextafter(1.0, 2.0),
                      np.nextafter(-1.0, -2.0), np.nextafter(1.0, 0.0), 8.0, -8.0,
                      np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0), 26.64, 26.65,
                      -26.65, 1e308, -1e308, np.inf, -np.inf])
    for x in (*draws, grid, edges):
        assert _same_bits(_erf(x), special.erf(x))
    x = rng.normal(size=(3, 40, 64)) * 3.0
    expected = x * (0.5 * (1.0 + special.erf(x / math.sqrt(2.0))))
    assert _same_bits(gelu(Tensor(x)).data, expected)


def test_mean_values():
    x = np.arange(12.0).reshape(3, 4)
    assert float(mean(Tensor(x)).data) == pytest.approx(x.mean())
    assert np.allclose(mean(Tensor(x), axis=0).data, x.mean(axis=0))


def test_transpose_reshape_roundtrip_bits():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 4))
    t = transpose(Tensor(x), (1, 2, 0))
    back = transpose(t, (2, 0, 1))
    assert back.data.tobytes() == x.tobytes()
    r = reshape(Tensor(x), (6, 4))
    assert reshape(r, (2, 3, 4)).data.tobytes() == x.tobytes()
    with pytest.raises(ShapeError):
        reshape(Tensor(x), (5, 5))
    with pytest.raises(ShapeError):
        transpose(Tensor(x), (0, 0, 1))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    logits = np.zeros((2, 4))
    loss = cross_entropy(Tensor(logits), np.array([0, 3]))
    assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-12)


def test_cross_entropy_hand_value():
    # oracle: mean of log(1 + e^-margin) per row, computed with math.log
    logits = np.array([[1.0, 2.0], [3.0, 0.0]])
    labels = np.array([1, 0])
    expect = (math.log(1 + math.exp(-1.0)) + math.log(1 + math.exp(-3.0))) / 2.0
    loss = cross_entropy(Tensor(logits), labels)
    assert float(loss.data) == pytest.approx(expect, abs=1e-14)


def test_cross_entropy_confident_margin():
    logits = np.array([[100.0, 0.0, 0.0]])
    loss = cross_entropy(Tensor(logits), np.array([0]))
    assert float(loss.data) <= 1e-12


def test_cross_entropy_ignore_index():
    logits = np.array([[1.0, 2.0], [3.0, 0.0], [0.0, 0.0]])
    labels = np.array([1, -1, 0])
    keep = cross_entropy(Tensor(logits[[0, 2]]), labels[[0, 2]])
    got = cross_entropy(Tensor(logits), labels)
    assert float(got.data) == pytest.approx(float(keep.data), abs=1e-15)

    t = Tensor(logits, requires_grad=True)
    with recording():
        loss = cross_entropy(t, np.array([-1, -1, -1]))
    assert float(loss.data) == 0.0
    backward(loss)
    assert np.allclose(t.grad, 0.0)


def test_cross_entropy_label_errors():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(ShapeError):
        cross_entropy(logits, np.array([0.5, 1.5]))
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.zeros(3)), np.array([0]))


def test_l1_masked_hand_value_and_grads():
    pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    target = Tensor(np.array([0.0, 0.0]))
    mask = Tensor(np.array([1.0, 0.0]))
    with recording():
        loss = l1_masked(pred, target, mask)
    assert float(loss.data) == 1.0
    backward(loss)
    assert np.array_equal(pred.grad, np.array([1.0, 0.0]))


def test_l1_masked_sign_zero_and_empty_mask():
    pred = Tensor(np.array([3.0, 5.0]), requires_grad=True)
    target = Tensor(np.array([3.0, 5.0]))
    mask = Tensor(np.array([1.0, 1.0]))
    with recording():
        loss = l1_masked(pred, target, mask)
    backward(loss)
    assert float(loss.data) == 0.0
    assert np.array_equal(pred.grad, np.zeros(2))  # sign(0) := 0

    pred2 = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with recording():
        loss2 = l1_masked(pred2, target, Tensor(np.zeros(2)))
    backward(loss2)
    assert float(loss2.data) == 0.0
    assert np.array_equal(pred2.grad, np.zeros(2))

    with pytest.raises(ValueError):
        l1_masked(pred2, target, Tensor(np.array([0.5, 1.0])))
    with pytest.raises(ShapeError):
        l1_masked(pred2, target, Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------

def test_backward_requires_scalar_and_tape():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GraphError):
        backward(t)
    with recording():
        v = scalar_mul(t, 2.0)
    with pytest.raises(ShapeError):
        backward(v)


def test_backward_accumulates_across_calls():
    w = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    with recording():
        loss = mean(mul(w, w))
    backward(loss)
    g1 = w.grad.copy()
    backward(loss)
    assert np.allclose(w.grad, 2.0 * g1)


def test_backward_fanout_sums_paths():
    # x feeds two branches; d/dx (x*x + 3x) = 2x + 3
    x = Tensor(np.array(2.0), requires_grad=True)
    with recording() as tape:
        a = mul(x, x)
        b = scalar_mul(x, 3.0)
        loss = mean(add(reshape(a, (1,)), reshape(b, (1,))))
    backward(loss)
    assert float(x.grad) == pytest.approx(2 * 2.0 + 3.0, abs=1e-12)
    assert len(tape) == 6  # one node per primitive application


def test_no_recording_outside_tape():
    x = Tensor(np.ones(2), requires_grad=True)
    y = scalar_mul(x, 2.0)
    assert y.tape is None and not y.requires_grad


def test_constants_stay_gradient_free():
    x = Tensor(np.ones(2), requires_grad=True)
    c = Tensor(np.full(2, 5.0))
    with recording():
        loss = mean(mul(x, c))
    backward(loss)
    assert c.grad is None


# ---------------------------------------------------------------------------
# gradient checks per primitive (finite-difference oracle)
# ---------------------------------------------------------------------------

def test_grad_matmul():
    rng = np.random.default_rng(10)
    arrays = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(3, 5))}
    ana, num = _grad_of(lambda t: mean(matmul(t["a"], t["b"])), arrays, "a")
    assert rel_err(ana, num) <= 1e-6
    ana, num = _grad_of(lambda t: mean(matmul(t["a"], t["b"])), arrays, "b")
    assert rel_err(ana, num) <= 1e-6


def test_grad_matmul_batched_broadcast():
    rng = np.random.default_rng(11)
    arrays = {"a": rng.normal(size=(1, 3, 4)), "b": rng.normal(size=(5, 4, 2))}
    for wrt in ("a", "b"):
        ana, num = _grad_of(lambda t: mean(matmul(t["a"], t["b"])), arrays, wrt)
        assert rel_err(ana, num) <= 1e-6


def test_matmul_stacked_by_2d_matches_slice_loop():
    # relative tolerance: largest deviation over the largest reference entry
    rng = np.random.default_rng(12)
    b = rng.normal(size=(4, 6))
    for lead in ((3,), (2, 3)):
        a = rng.normal(size=lead + (5, 4))
        g = rng.normal(size=lead + (5, 6))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        with recording() as tape:
            out = matmul(ta, tb)
        ga, gb = tape.nodes[-1].vjp(g)
        want_out = np.empty(lead + (5, 6))
        want_ga = np.empty(a.shape)
        want_gb = np.zeros(b.shape)
        for i in np.ndindex(*lead):
            want_out[i] = a[i] @ b
            want_ga[i] = g[i] @ b.T
            want_gb += a[i].T @ g[i]
        for got, want in ((out.data, want_out), (ga, want_ga), (gb, want_gb)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_grad_matmul_stacked_by_2d():
    rng = np.random.default_rng(13)
    weights = Tensor(rng.normal(size=(2, 3, 5)))
    arrays = {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(4, 5))}
    for wrt in ("a", "b"):
        ana, num = _grad_of(lambda t: mean(mul(matmul(t["a"], t["b"]), weights)),
                            arrays, wrt)
        assert rel_err(ana, num) <= 1e-6


def test_matmul_rank2_is_plain_product_bits():
    rng = np.random.default_rng(14)
    a, b = rng.normal(size=(7, 4)), rng.normal(size=(4, 6))
    assert matmul(Tensor(a), Tensor(b)).data.tobytes() == (a @ b).tobytes()


def test_grad_elementwise_and_broadcast():
    rng = np.random.default_rng(12)
    arrays = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(3,))}
    for wrt in ("a", "b"):
        ana, num = _grad_of(lambda t: mean(mul(add(t["a"], t["b"]), t["a"])), arrays, wrt)
        assert rel_err(ana, num) <= 1e-6


def test_grad_unary_primitives():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 7)) * 2.0
    cases = {
        "gelu": lambda t: mean(gelu(t["x"])),
        "relu": lambda t: mean(relu(t["x"])),
        "layer_norm": lambda t: mean(mul(layer_norm(t["x"]), t["x"])),
        "softmax": lambda t: mean(mul(softmax_lastdim(t["x"]), t["x"])),
        "scalar_mul": lambda t: mean(scalar_mul(t["x"], -1.7)),
        "transpose": lambda t: mean(mul(transpose(t["x"]), transpose(t["x"]))),
        "reshape": lambda t: mean(mul(reshape(t["x"], (7, 5)), reshape(t["x"], (7, 5)))),
        "mean_axis": lambda t: mean(mul(mean(t["x"], axis=0), mean(t["x"], axis=0))),
    }
    for name, build in cases.items():
        ana, num = _grad_of(build, {"x": x}, "x")
        assert rel_err(ana, num) <= 1e-4, name


def test_grad_cross_entropy():
    rng = np.random.default_rng(15)
    logits = rng.normal(size=(6, 4))
    labels = np.array([0, 1, 2, 3, -1, 1])
    ana, num = _grad_of(lambda t: cross_entropy(t["x"], labels), {"x": logits}, "x")
    assert rel_err(ana, num) <= 1e-6
    assert np.allclose(ana[4], 0.0)  # ignored row


def test_grad_l1_masked():
    rng = np.random.default_rng(16)
    pred = rng.normal(size=(3, 4))
    target = rng.normal(size=(3, 4))
    mask = (rng.random((3, 4)) < 0.5).astype(np.float64)

    def build(t):
        return l1_masked(t["p"], t["t"], Tensor(mask))

    for wrt in ("p", "t"):
        ana, num = _grad_of(build, {"p": pred, "t": target}, wrt)
        assert rel_err(ana, num) <= 1e-6


# ---------------------------------------------------------------------------
# layer primitives: linear, ln_affine, attention
# ---------------------------------------------------------------------------

ATTN_NAMES = ("x", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def composed_linear(x, w, b):
    return add(matmul(x, w), b)


def composed_ln_affine(x, g, b):
    return add(mul(layer_norm(x), g), b)


def composed_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, xs=None):
    """Attention as 21 elementwise primitives; `xs` gives q, k, v their own x."""
    lead, n, d = x.shape[:-2], x.shape[-2], x.shape[-1]
    dh, r = d // heads, len(lead)
    heads_axes = tuple(range(r)) + (r + 1, r, r + 2)
    key_axes = tuple(range(r)) + (r, r + 2, r + 1)

    def proj(xi, w, b):
        return transpose(reshape(add(matmul(xi, w), b), lead + (n, heads, dh)), heads_axes)

    xq, xk, xv = xs or (x, x, x)
    q, k, v = proj(xq, wq, bq), proj(xk, wk, bk), proj(xv, wv, bv)
    scores = scalar_mul(matmul(q, transpose(k, key_axes)), 1.0 / math.sqrt(dh))
    ctx = reshape(transpose(matmul(softmax_lastdim(scores), v), heads_axes), lead + (n, d))
    return add(matmul(ctx, wo), bo)


def _layer_cases(lead, seed):
    """(name, fused, composed, arrays) for each layer primitive at `lead + (5, 8)`."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=lead + (5, 8))
    lin = [x, rng.normal(size=(8, 6)), rng.normal(size=(6,))]
    ln = [x * 3.0 + 1.0, rng.normal(size=(8,)), rng.normal(size=(8,))]
    att = [x] + [rng.normal(size=(8, 8)) * 0.5 if i % 2 == 0 else rng.normal(size=(8,))
                 for i in range(8)]
    return [("linear", linear, composed_linear, lin),
            ("ln_affine", ln_affine, composed_ln_affine, ln),
            ("attention", lambda *t: attention(*t, heads=2),
             lambda *t: composed_attention(*t, heads=2), att)]


def _loss_grads(build, arrays, weight, free=()):
    """Output bytes and leaf grads of mean(build(leaves) * weight); `free` leaves frozen."""
    leaves = [Tensor(a, requires_grad=i not in free) for i, a in enumerate(arrays)]
    with recording():
        out = build(*leaves)
        backward(mean(mul(out, Tensor(weight))))
    return out.data.tobytes(), [None if t.grad is None else t.grad.tobytes() for t in leaves]


@pytest.mark.parametrize("lead", [(), (3,)], ids=["rank2", "batched"])
def test_layer_primitives_match_composed_path_bit_for_bit(lead):
    for name, fused, composed, arrays in _layer_cases(lead, seed=20 + len(lead)):
        weight = np.random.default_rng(5).normal(size=lead + (5, arrays[1].shape[-1]))
        with recording() as tape:
            fused(*[Tensor(a, requires_grad=True) for a in arrays])
        assert len(tape) == 1, name
        got = _loss_grads(fused, arrays, weight)
        want = _loss_grads(composed, arrays, weight)
        assert got[0] == want[0], f"{name}: forward"
        for i, (g, w) in enumerate(zip(got[1], want[1])):
            assert g is not None and g == w, f"{name}: gradient of input {i}"


def test_attention_input_sums_v_then_k_then_q():
    # The composed tape sums the three paths into x in reverse record order.
    _, fused, _, arrays = _layer_cases((3,), seed=22)[2]
    weight = np.random.default_rng(6).normal(size=(3, 5, 8))
    gx = np.frombuffer(_loss_grads(fused, arrays, weight)[1][0]).reshape(arrays[0].shape)
    split = [arrays[0]] * 3 + arrays[1:]

    def build(xq, xk, xv, *params):
        return composed_attention(xq, *params, heads=2, xs=(xq, xk, xv))

    gq, gk, gv = (np.frombuffer(g).reshape(gx.shape)
                  for g in _loss_grads(build, split, weight)[1][:3])
    assert gx.tobytes() == ((gv + gk) + gq).tobytes()
    assert gx.tobytes() != ((gq + gk) + gv).tobytes()   # the order shows in the bits


@pytest.mark.parametrize("lead", [(), (3,)], ids=["rank2", "batched"])
def test_layer_primitive_gradient_free_slots_return_none(lead):
    for name, fused, _, arrays in _layer_cases(lead, seed=30 + len(lead)):
        k = len(arrays)
        g = np.random.default_rng(7).normal(size=lead + (5, arrays[1].shape[-1]))

        def vjp_of(free):
            with recording() as tape:
                fused(*[Tensor(a, requires_grad=i not in free) for i, a in enumerate(arrays)])
            return tape.nodes[-1].vjp(g)

        full = vjp_of(())
        for free in [(0,), tuple(range(1, k)), (1,), (k - 1,), (0, 2), tuple(range(0, k, 2))]:
            grads = vjp_of(free)
            for i in range(k):
                if i in free:
                    assert grads[i] is None, (name, free, i)
                else:
                    assert grads[i].tobytes() == full[i].tobytes(), (name, free, i)
        with recording() as tape:
            out = fused(*[Tensor(a) for a in arrays])
        assert len(tape) == 0 and not out.requires_grad


def test_layer_primitive_shape_errors():
    x = Tensor(np.ones((5, 8)))
    with pytest.raises(ShapeError):
        linear(x, Tensor(np.ones((6, 4))), Tensor(np.ones(4)))
    with pytest.raises(ShapeError):
        linear(x, Tensor(np.ones((8, 4))), Tensor(np.ones(8)))
    with pytest.raises(ShapeError):
        ln_affine(x, Tensor(np.ones(8)), Tensor(np.ones(5)))
    square, bias = Tensor(np.eye(8)), Tensor(np.zeros(8))
    with pytest.raises(ShapeError):
        attention(x, *[square, bias] * 4, heads=3)
    with pytest.raises(ShapeError):
        attention(x, Tensor(np.ones((8, 4))), *[bias] + [square, bias] * 3, heads=2)
    assert attention(x, *[square, bias] * 4, heads=4).shape == (5, 8)


def test_binary_primitives_skip_gradient_free_slots():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 4))
    for op, other in ((matmul, b), (add, a[0]), (mul, a)):
        for free in (0, 1):
            ta = Tensor(a, requires_grad=free != 0)
            tb = Tensor(other, requires_grad=free != 1)
            with recording() as tape:
                op(ta, tb)
            grads = tape.nodes[-1].vjp(rng.normal(size=(3, 4)))
            assert grads[free] is None and grads[1 - free] is not None, (op.__name__, free)


def test_grad_linear():
    rng = np.random.default_rng(40)
    weight = Tensor(rng.normal(size=(2, 3, 5)))
    arrays = {"x": rng.normal(size=(2, 3, 4)), "w": rng.normal(size=(4, 5)),
              "b": rng.normal(size=(5,))}
    for wrt in arrays:
        ana, num = _grad_of(lambda t: mean(mul(linear(t["x"], t["w"], t["b"]), weight)),
                            arrays, wrt)
        assert rel_err(ana, num) <= 1e-6, wrt


def test_grad_ln_affine():
    rng = np.random.default_rng(41)
    weight = Tensor(rng.normal(size=(2, 3, 6)))
    arrays = {"x": rng.normal(size=(2, 3, 6)) * 2.0, "g": rng.normal(size=(6,)),
              "b": rng.normal(size=(6,))}
    for wrt in arrays:
        ana, num = _grad_of(lambda t: mean(mul(ln_affine(t["x"], t["g"], t["b"]), weight)),
                            arrays, wrt)
        assert rel_err(ana, num) <= 1e-6, wrt


def test_grad_attention():
    rng = np.random.default_rng(42)
    weight = Tensor(rng.normal(size=(2, 3, 4)))
    arrays = {"x": rng.normal(size=(2, 3, 4))}
    for name in ATTN_NAMES[1:]:
        shape = (4, 4) if name.startswith("w") else (4,)
        arrays[name] = rng.normal(size=shape)

    def build(t):
        return mean(mul(attention(*(t[n] for n in ATTN_NAMES), heads=2), weight))

    for wrt in ATTN_NAMES:
        ana, num = _grad_of(build, arrays, wrt)
        if wrt == "bk":   # softmax ignores a shift shared by a row: the gradient is zero
            assert np.abs(ana).max() <= 1e-12 and np.abs(num).max() <= 1e-9
        else:
            assert rel_err(ana, num) <= 1e-6, wrt


def _raises_nonfinite(op, arrays) -> bool:
    try:
        op(*[Tensor(a) for a in arrays])
    except NonFiniteError:
        return True
    return False


def test_layer_primitives_raise_where_composed_path_raises():
    # Each case overflows one intermediate of the composed path, or none.
    rng = np.random.default_rng(50)
    x = rng.normal(size=(5, 8))
    cases = {
        "linear": [[x, np.ones((8, 6)), np.zeros(6)],
                   [x * 1e300, np.full((8, 6), 1e10), np.zeros(6)],     # product
                   [np.abs(x), np.full((8, 6), 1e307), np.full(6, 1.7e308)]],  # sum
        "ln_affine": [[x, np.ones(8), np.zeros(8)],
                      [x, np.full(8, 1.7e308), np.zeros(8)],           # scaled
                      [x, np.full(8, 1e307), np.full(8, 1.79e308)]],     # shifted
    }
    fused = {"linear": linear, "ln_affine": ln_affine,
             "attention": lambda *t: attention(*t, heads=2)}
    composed = {"linear": composed_linear, "ln_affine": composed_ln_affine,
                "attention": lambda *t: composed_attention(*t, heads=2)}
    att = [np.abs(x) + 1.0] + [np.eye(8) if i % 2 == 0 else np.zeros(8) for i in range(8)]
    huge, large, top = np.full((8, 8), 1e308), np.full((8, 8), 1e306), np.full(8, 1.79e308)
    spike = att[0].copy()
    spike[0] = 1e160   # its own score is -inf, which softmax alone would turn into 0
    cases["attention"] = [att]
    for change in ({1: huge}, {1: large, 2: top}, {3: huge}, {5: huge},   # projections
                   {1: np.full((8, 8), 1e160), 3: np.full((8, 8), 1e160)},  # scores
                   {0: spike, 3: -np.eye(8)},                               # a -inf score
                   {7: huge}, {7: large, 8: top}):                           # output
        cases["attention"].append([change.get(i, a) for i, a in enumerate(att)])
    for name, arrays_list in cases.items():
        with np.errstate(over="ignore", invalid="ignore"):   # the cases overflow on purpose
            verdicts = [_raises_nonfinite(composed[name], arrays) for arrays in arrays_list]
            fused_verdicts = [_raises_nonfinite(fused[name], arrays) for arrays in arrays_list]
        assert verdicts[0] is False and all(verdicts[1:]), (name, verdicts)
        assert fused_verdicts == verdicts, name


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _store_with(names_groups_values):
    store = ParamStore()
    for name, group, value in names_groups_values:
        store.add(name, Tensor(np.asarray(value, dtype=np.float64), requires_grad=True), group)
    return store


def test_adam_first_step_is_signed_lr():
    store = _store_with([("w", "backbone", [1.0, 1.0])])
    store["w"].grad = np.array([2.0, -0.5])
    opt = Optimizer("adam")
    opt.step(store, {"backbone"}, lr=0.1)
    # t=1 bias correction: step = lr * g / (|g| + eps) ~= lr * sign(g)
    expect = np.array([1.0 - 0.1 * (2.0 / (2.0 + 1e-8)), 1.0 + 0.1 * (0.5 / (0.5 + 1e-8))])
    assert np.allclose(store["w"].data, expect, atol=1e-12)


def test_sgd_exact_step():
    store = _store_with([("w", "backbone", [1.0, 2.0])])
    store["w"].grad = np.array([0.5, -1.0])
    Optimizer("sgd").step(store, {"backbone"}, lr=0.2)
    assert np.allclose(store["w"].data, [1.0 - 0.1, 2.0 + 0.2], atol=1e-15)


def test_group_filter_byte_isolation_and_grad_clear():
    store = _store_with([
        ("enc.w", "backbone", [[1.0, 2.0]]),
        ("ada.w", "adapter", [[3.0, 4.0]]),
        ("seg.w", "seg_head", [[5.0]]),
    ])
    for n in store.names():
        store[n].grad = np.ones_like(store[n].data)
    before = store.snapshot_bytes(["enc.w", "seg.w"])
    opt = Optimizer("adam")
    updated = opt.step(store, {"adapter"}, lr=0.01)
    assert updated == ["ada.w"]
    after = store.snapshot_bytes(["enc.w", "seg.w"])
    assert before == after
    assert all(store[n].grad is None for n in store.names())


def test_empty_or_unmatched_filter_is_error():
    store = _store_with([("w", "backbone", [1.0])])
    store["w"].grad = np.ones(1)
    opt = Optimizer()
    with pytest.raises(ValueError):
        opt.step(store, set(), lr=0.1)
    with pytest.raises(ValueError):
        opt.step(store, {"adapter"}, lr=0.1)
    with pytest.raises(ValueError):
        Optimizer("rmsprop")


def test_adam_moments_shared_across_filters():
    # step 1 updates only the adapter; step 2 updates everything. The
    # adapter's Adam state must carry over (per-parameter step counts).
    store = _store_with([("enc.w", "backbone", [1.0]), ("ada.w", "adapter", [1.0])])
    opt = Optimizer("adam")
    store["ada.w"].grad = np.array([1.0])
    opt.step(store, {"adapter"}, lr=0.1)
    assert opt._t["ada.w"] == 1 and "enc.w" not in opt._t
    store["ada.w"].grad = np.array([1.0])
    store["enc.w"].grad = np.array([1.0])
    opt.step(store, {"adapter", "backbone"}, lr=0.1)
    assert opt._t["ada.w"] == 2 and opt._t["enc.w"] == 1
    # step 3: the adapter, inside the filter, has no gradient. It is skipped
    # without advancing state while its neighbour steps.
    before = (store.snapshot_bytes(["ada.w"]), opt._m["ada.w"].tobytes(),
              opt._v["ada.w"].tobytes())
    store["enc.w"].grad = np.array([1.0])
    assert opt.step(store, {"adapter", "backbone"}, lr=0.1) == ["enc.w"]
    assert (store.snapshot_bytes(["ada.w"]), opt._m["ada.w"].tobytes(),
            opt._v["ada.w"].tobytes()) == before
    assert opt._t["ada.w"] == 2 and opt._t["enc.w"] == 2


def test_adam_matches_reference_expression_bitwise():
    rng = np.random.default_rng(60)
    values = [("enc.w", "backbone", rng.normal(size=(4, 3))),
              ("ada.w", "adapter", rng.normal(size=(3, 2))),
              ("seg.b", "seg_head", rng.normal(size=(5,)))]
    store = _store_with(values)
    ref = {n: [v.copy(), np.zeros_like(v), np.zeros_like(v), 0] for n, _, v in values}
    opt = Optimizer("adam")
    lr = 3e-3
    for step, groups in enumerate([{"backbone", "adapter", "seg_head"}, {"adapter"},
                                   {"backbone", "seg_head"}, {"adapter"},
                                   {"backbone", "adapter", "seg_head"}]):
        for name, group, _ in values:
            g = rng.normal(size=store[name].shape) * 10.0 ** (step - 2)
            store[name].grad = g
            if group not in groups:
                continue
            p, m, v, t = ref[name]
            t += 1
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            mhat = m / (1.0 - ADAM_BETA1 ** t)
            vhat = v / (1.0 - ADAM_BETA2 ** t)
            p -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            ref[name][3] = t
        opt.step(store, groups, lr)
        for name, (p, m, v, t) in ref.items():
            assert store[name].data.tobytes() == p.tobytes(), (step, name)
            if t:
                assert opt._m[name].tobytes() == m.tobytes(), (step, name)
                assert opt._v[name].tobytes() == v.tobytes(), (step, name)
                assert opt._t[name] == t
