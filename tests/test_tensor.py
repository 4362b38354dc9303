"""Unit tests for the tensor/autodiff substrate."""

import math
import tracemalloc
import zlib

import numpy as np
import pytest

from _tape import graph_nodes, held_arrays
from tsmamba import model as M
from tsmamba import ssm
from tsmamba import tensor as T
from tsmamba import train as TR
from tsmamba.errors import GraphError, ShapeMismatch
from tsmamba.params import Parameter


def rel_err(a, b, floor=1e-6):
    # The floor marks where central differences stop being certifiable at
    # 1e-4 relative (FD noise is ~1e-12..1e-10 absolute for these losses).
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def fd_check(f, x, tol=1e-4, h=1e-5):
    """Compare analytic gradient of scalar f(x) against central differences."""
    xt = T.Tensor(x.copy(), requires=True)
    loss = f(xt)
    grads = T.grad_map(loss)
    analytic = grads.get(id(xt), np.zeros_like(x))
    numeric = T.finite_diff_grad(f, T.tensor(x), h).array
    assert rel_err(analytic, numeric) < tol, f"analytic {analytic} vs fd {numeric}"


# ---------------------------------------------------------------------------
# depthwise_conv1d
# ---------------------------------------------------------------------------


def conv_reference(x, w, pad_left, pad_right):
    """Grouped (one filter per channel) cross-correlation along axis 1 of
    [B, L, ..., C], written out per output step over an explicitly padded input."""
    pad = [(0, 0)] * x.ndim
    pad[1] = (pad_left, pad_right)
    xp = np.pad(x, pad)
    k = w.shape[1]
    ref = np.empty((x.shape[0], xp.shape[1] - k + 1) + x.shape[2:])
    for t in range(ref.shape[1]):
        ref[:, t] = np.einsum("bk...c,ck->b...c", xp[:, t : t + k], w)
    return ref


def test_depthwise_conv1d_matches_grouped_conv1d():
    # causal, symmetric on the 4-D cross-channel layout, and taps wholly in the padding
    rng = np.random.default_rng(9)
    for shape, k, pads in (((2, 12, 4), 3, (2, 0)), ((2, 7, 3, 4), 3, (1, 1)), ((1, 2, 4), 5, (2, 2))):
        x = rng.standard_normal(shape)
        w = rng.standard_normal((shape[-1], k))
        got = T.depthwise_conv1d(T.tensor(x), T.tensor(w), None, *pads)
        np.testing.assert_allclose(got.array, conv_reference(x, w, *pads), atol=1e-12)


def test_depthwise_conv1d_gradients():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 8, 3))
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    proj = rng.standard_normal((2, 8, 3))

    def loss_x(xt):
        return T.sum_all(T.mul(T.depthwise_conv1d(xt, T.tensor(w), T.tensor(b), 3, 0), T.tensor(proj)))

    def loss_w(wt):
        return T.sum_all(T.mul(T.depthwise_conv1d(T.tensor(x), wt, T.tensor(b), 3, 0), T.tensor(proj)))

    def loss_b(bt):
        return T.sum_all(T.mul(T.depthwise_conv1d(T.tensor(x), T.tensor(w), bt, 3, 0), T.tensor(proj)))

    fd_check(loss_x, x)
    fd_check(loss_w, w)
    fd_check(loss_b, b)

    # symmetric padding on a 4-D input, with taps that fall wholly in the padding
    x4 = rng.standard_normal((2, 2, 3, 4))
    w4 = rng.standard_normal((4, 5))
    proj4 = rng.standard_normal((2, 2, 3, 4))
    fd_check(lambda t: T.sum_all(T.mul(T.depthwise_conv1d(t, T.tensor(w4), None, 2, 2), T.tensor(proj4))), x4)
    fd_check(lambda t: T.sum_all(T.mul(T.depthwise_conv1d(T.tensor(x4), t, None, 2, 2), T.tensor(proj4))), w4)


def conv_by_column_taps(x, w, b, pad_left, pad_right, g):
    """Output, dL/dx and dL/dw of the conv for output gradient ``g``, written
    out tap by tap as one column ``w[:, kk]`` broadcast over every row: the
    same products, summed in the same order, as the optimised kernel."""
    length, k = x.shape[1], w.shape[1]
    l_out = length + pad_left + pad_right - k + 1
    lead = tuple(range(x.ndim - 1))
    out = np.zeros((x.shape[0], l_out) + x.shape[2:], dtype=x.dtype)
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for kk in range(k):
        t0, t1 = max(0, pad_left - kk), min(l_out, length + pad_left - kk)
        if t0 >= t1:
            continue
        s0, m = t0 + kk - pad_left, t1 - t0
        out[:, t0:t1] += x[:, s0 : s0 + m] * w[:, kk]
        gx[:, s0 : s0 + m] += g[:, t0:t1] * w[:, kk]
        gw[:, kk] = (g[:, t0:t1] * x[:, s0 : s0 + m]).sum(axis=lead)
    if b is not None:
        out += b
    return out, gx, gw


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "shape, k, pads, bias",
    [
        ((5, 32, 64), 4, (3, 0), True),  # the Mamba block's causal conv [B, L, d_inner]
        ((5, 32, 16), M.ALIGN_KERNEL, (M.ALIGN_KERNEL // 2, M.ALIGN_KERNEL // 2), True),  # align conv [B, n_tokens, d_model]
        ((2, 32, 16, 3), M.XSHIFT_KERNEL, (M.XSHIFT_KERNEL // 2, M.XSHIFT_KERNEL // 2), False),  # xchannel shift [B, n_tokens, d_model, D]
        ((2, 2, 6), 5, (2, 2), True),  # taps that fall wholly in the padding
    ],
)
def test_depthwise_conv1d_is_column_tap_bytes(shape, k, pads, bias, dtype):
    rng = np.random.default_rng(21)
    x = T.Tensor(rng.standard_normal(shape).astype(dtype), requires=True)
    w = T.Tensor(rng.standard_normal((shape[-1], k)).astype(dtype), requires=True)
    b = T.Tensor(rng.standard_normal(shape[-1]).astype(dtype)) if bias else None
    out = T.depthwise_conv1d(x, w, b, *pads)
    g = rng.standard_normal(out.shape).astype(dtype)
    vjps = {id(parent): vjp for parent, vjp in out.pairs}
    want = conv_by_column_taps(x.array, w.array, None if b is None else b.array, *pads, g)
    for got, ref in zip((out.array, vjps[id(x)](g), vjps[id(w)](g)), want):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_depthwise_conv1d_requires_batched_input():
    w = T.tensor(np.ones((3, 2)))
    for shape in ((8, 3), (1, 8, 4)):
        with pytest.raises(ShapeMismatch):
            T.depthwise_conv1d(T.tensor(np.ones(shape)), w, None, 1, 0)


# ---------------------------------------------------------------------------
# Activations and norms
# ---------------------------------------------------------------------------


def kernel_softplus(pre, dtype=np.float64):
    """dt = softplus(pre) as the scan kernel computes it in place (W_dt = 0, dt_bias = pre)."""
    pre = np.asarray(pre, dtype=dtype)
    d = pre.shape[0]
    weights = (np.zeros((d, 1), dtype), np.zeros((d, 1), dtype), np.zeros((d, 1), dtype), pre, -np.ones((d, 1), dtype), np.ones(d, dtype))
    return ssm._StepCoeffs(np.zeros((1, 1, d), dtype=dtype), weights).dt[0, 0]


def test_softplus_values():
    out = kernel_softplus([0.0, 100.0, -100.0])
    assert abs(out[0] - math.log(2.0)) < 1e-12
    assert abs(out[1] - 100.0) < 1e-10
    assert abs(out[2]) < 1e-10
    assert np.isfinite(out).all()


def test_softplus_float32_no_overflow():
    out = kernel_softplus([500.0, -500.0], dtype=np.float32)
    assert out.dtype == np.float32
    assert np.isfinite(out).all()
    assert abs(out[0] - 500.0) < 1e-4


def test_silu_values():
    out = T.silu(T.tensor([0.0, 50.0, 1.0]))
    assert out.array[0] == 0.0
    assert abs(out.array[1] - 50.0) < 1e-9
    assert abs(out.array[2] - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12


def test_gelu_values():
    out = T.gelu(T.tensor([0.0, 1.0, -10.0]))
    assert out.array[0] == 0.0
    expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))  # x * Phi(x) at x=1
    assert abs(out.array[1] - expected) < 1e-12
    assert abs(out.array[2]) < 1e-6


def test_rmsnorm_values():
    np.testing.assert_allclose(
        T.rmsnorm(T.tensor([1.0, 1.0, 1.0, 1.0]), T.ones(4), eps=0.0).array, np.ones(4)
    )
    np.testing.assert_allclose(T.rmsnorm(T.tensor([2.0, 2.0]), T.ones(2), eps=0.0).array, [1.0, 1.0])
    np.testing.assert_allclose(
        T.rmsnorm(T.zeros((3, 4)), T.ones(4), eps=1e-6).array, np.zeros((3, 4))
    )


def test_rmsnorm_scale_invariance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 8))
    gain = rng.standard_normal(8)
    base = T.rmsnorm(T.tensor(x), T.tensor(gain), eps=0.0).array
    for c in (0.5, 3.0, 1e4):
        scaled = T.rmsnorm(T.tensor(c * x), T.tensor(gain), eps=0.0).array
        assert np.max(np.abs(scaled - base)) < 1e-10


def test_rmsnorm_rms_bound():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 16))
    eps = 1e-5
    out = T.rmsnorm(T.tensor(x), T.ones(16), eps=eps).array
    rms = np.sqrt((out * out).mean(axis=-1))
    assert np.all(rms <= 1.0 + eps)


@pytest.mark.parametrize("op", [T.silu, T.gelu])
@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4)])
def test_elementwise_gradients(op, shape):
    seed = zlib.crc32(f"{op.__name__}{shape}".encode())  # stable across runs
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 2.0 + 0.1
    proj = rng.standard_normal(shape)
    fd_check(lambda xt: T.sum_all(T.mul(op(xt), T.tensor(proj))), x)


def test_rmsnorm_gradients():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 6))
    gain = rng.standard_normal(6)
    proj = rng.standard_normal((4, 6))
    fd_check(lambda xt: T.sum_all(T.mul(T.rmsnorm(xt, T.tensor(gain), 1e-5), T.tensor(proj))), x)
    fd_check(lambda gt: T.sum_all(T.mul(T.rmsnorm(T.tensor(x), gt, 1e-5), T.tensor(proj))), gain)


def test_softmax_rows_sum_to_one_and_grad():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 5))
    out = T.softmax(T.tensor(x), axis=-1)
    np.testing.assert_allclose(out.array.sum(axis=-1), np.ones(3), atol=1e-12)
    proj = rng.standard_normal((3, 5))
    fd_check(lambda xt: T.sum_all(T.mul(T.softmax(xt, axis=-1), T.tensor(proj))), x)


# ---------------------------------------------------------------------------
# Structural / arithmetic gradients
# ---------------------------------------------------------------------------


def test_binary_ops_require_equal_shapes():
    with pytest.raises(ShapeMismatch):
        T.add(T.ones((2, 3)), T.ones((3,)))
    with pytest.raises(ShapeMismatch):
        T.mul(T.ones((2,)), T.ones((2, 1)))


def test_binary_ops_require_equal_dtypes():
    with pytest.raises(ShapeMismatch):
        T.add(T.ones((2,), dtype=np.float32), T.ones((2,), dtype=np.float64))


def test_matmul_shapes_and_gradients():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 5))
    np.testing.assert_allclose(T.matmul(T.tensor(a), T.tensor(b)).array, a @ b)
    proj = rng.standard_normal((4, 5))
    fd_check(lambda t: T.sum_all(T.mul(T.matmul(t, T.tensor(b)), T.tensor(proj))), a)
    fd_check(lambda t: T.sum_all(T.mul(T.matmul(T.tensor(a), t), T.tensor(proj))), b)

    # batched [B, L, D] @ [D, N]
    ab = rng.standard_normal((2, 4, 3))
    proj_b = rng.standard_normal((2, 4, 5))
    fd_check(lambda t: T.sum_all(T.mul(T.matmul(T.tensor(ab), t), T.tensor(proj_b))), b)
    fd_check(lambda t: T.sum_all(T.mul(T.matmul(t, T.tensor(b)), T.tensor(proj_b))), ab)

    # fully batched [T, C, D] @ [T, D, C]
    q = rng.standard_normal((3, 2, 5))
    k = rng.standard_normal((3, 5, 2))
    proj_q = rng.standard_normal((3, 2, 2))
    fd_check(lambda t: T.sum_all(T.mul(T.matmul(t, T.tensor(k)), T.tensor(proj_q))), q)
    fd_check(lambda t: T.sum_all(T.mul(T.matmul(T.tensor(q), t), T.tensor(proj_q))), k)


def test_batched_matmul_requires_equal_batch_axes():
    # a batched product does not broadcast; a 2-D right operand is a weight
    for a_shape, b_shape in (((2, 3, 4), (1, 4, 5)), ((3, 4), (2, 4, 5)), ((2, 2, 3, 4), (2, 4, 5))):
        with pytest.raises(ShapeMismatch):
            T.matmul(T.ones(a_shape), T.ones(b_shape))


def test_linear_gradients():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 3, 4))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(5)
    proj = rng.standard_normal((2, 3, 5))
    fd_check(lambda t: T.sum_all(T.mul(T.linear(t, T.tensor(w), T.tensor(b)), T.tensor(proj))), x)
    fd_check(lambda t: T.sum_all(T.mul(T.linear(T.tensor(x), t, T.tensor(b)), T.tensor(proj))), w)
    fd_check(lambda t: T.sum_all(T.mul(T.linear(T.tensor(x), T.tensor(w), t), T.tensor(proj))), b)


def test_linear_refuses_a_bias_that_is_not_the_weights_width():
    for w_shape, b_shape in (((4, 5), (4,)), ((4, 5), (1, 5)), ((2, 4, 5), (5,))):
        with pytest.raises(ShapeMismatch):
            T.linear(T.ones((3, 4)), T.ones(w_shape), T.ones(b_shape))
    with pytest.raises(ShapeMismatch):
        T.linear(T.ones((3, 4)), T.ones((4, 5)), T.ones((5,), dtype=np.float32))


# Weight products of the model at the benchmark configs (d_model 128 training
# batches of 32 and 28 rows, the 4-window xchannel block, d_model 32
# inference groups of 63 and 7 rows). in_proj runs as two GEMMs, one per
# column half [d_model, d_inner]. In float32 the flattened forward GEMM
# gives numpy's bytes at each; in float64 the head's [B, 32, 128] @ [128, 10]
# differs in the last bit, so only float32 is pinned.
MODEL_WEIGHT_PRODUCTS = [
    ((32, 32, 128), (128, 256)),
    ((32, 32, 256), (256, 128)),
    ((32, 32, 128), (128, 10)),
    ((32, 31, 128), (128, 16)),
    ((28, 32, 128), (128, 256)),
    ((28, 32, 256), (256, 128)),
    ((28, 32, 128), (128, 10)),
    ((4, 32, 128, 7), (7, 3)),
    ((4, 32, 128, 3), (3, 7)),
    ((63, 32, 32), (32, 64)),
    ((63, 32, 64), (64, 32)),
    ((63, 32, 32), (32, 4)),
    ((7, 32, 32), (32, 64)),
    ((7, 32, 64), (64, 32)),
    ((7, 32, 32), (32, 4)),
]


@pytest.mark.parametrize("a_shape,b_shape", MODEL_WEIGHT_PRODUCTS)
def test_weight_matmul_forward_is_numpy_bytes_at_model_shapes(a_shape, b_shape):
    rng = np.random.default_rng(41)
    a = rng.standard_normal(a_shape).astype(np.float32)
    b = rng.standard_normal(b_shape).astype(np.float32)
    bias = rng.standard_normal(b_shape[1]).astype(np.float32)
    assert T.matmul(T.tensor(a, np.float32), T.tensor(b, np.float32)).array.tobytes() == np.matmul(a, b).tobytes()
    got = T.linear(T.tensor(a, np.float32), T.tensor(b, np.float32), T.tensor(bias, np.float32))
    assert got.array.tobytes() == (np.matmul(a, b) + bias).tobytes()


def test_weight_matmul_vjp_b_builds_no_batched_temporary():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((64, 32, 96))
    b = rng.standard_normal((96, 192))
    g = rng.standard_normal((64, 32, 192))
    vjp_b = T.matmul(T.Tensor(a, requires=True), T.Tensor(b, requires=True)).pairs[1][1]
    tracemalloc.start()
    try:
        gb = vjp_b(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(gb, np.einsum("blk,bln->kn", a, g), rtol=1e-12, atol=1e-10)
    # a batched product would hold a [64, 96, 192] temporary: 9.4 MB here
    assert peak < 4 * gb.nbytes, f"vjp_b peaked at {peak} bytes for a {gb.nbytes}-byte gradient"


def test_structural_gradients():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 4, 5))

    cases = [
        lambda t: T.reshape(t, (12, 5)),
        lambda t: T.transpose(t, (2, 0, 1)),
        lambda t: T.flip(t, axis=1),
        lambda t: T.slice_axis(t, 2, 1, 4),
    ]
    for f in cases:
        shape = f(T.tensor(x)).shape
        proj = rng.standard_normal(shape)
        fd_check(lambda t, f=f, proj=proj: T.sum_all(T.mul(f(t), T.tensor(proj))), x)


def test_concat_gradients():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    proj6 = rng.standard_normal((6, 4))
    fd_check(lambda t: T.sum_all(T.mul(T.concat([t, T.tensor(b)], axis=0), T.tensor(proj6))), a)


def test_mean_gradients():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 3.0
    fd_check(lambda t: T.mean_all(t), a)
    fd_check(lambda t: T.mean_all(T.mul(t, T.tensor(b))), a)


# ---------------------------------------------------------------------------
# backward() contract
# ---------------------------------------------------------------------------


def test_backward_quadratic():
    p = Parameter("p", T.tensor([3.0]))
    loss = T.sum_all(T.mul(p.value, p.value))
    T.backward(loss, [p])
    np.testing.assert_allclose(p.grad.array, [6.0])


def test_backward_disconnected_loss_gives_zero_grads():
    p = Parameter("p", T.tensor([1.0, 2.0]))
    loss = T.sum_all(T.tensor([4.0]))
    T.backward(loss, [p])
    np.testing.assert_array_equal(p.grad.array, [0.0, 0.0])


def test_backward_non_scalar_raises():
    p = Parameter("p", T.tensor([1.0, 2.0]))
    with pytest.raises(GraphError):
        T.backward(T.mul(p.value, p.value), [p])


def test_backward_skips_non_trainable():
    p = Parameter("p", T.tensor([2.0]))
    p.set_trainable(False)
    q = Parameter("q", T.tensor([3.0]))
    loss = T.sum_all(T.mul(p.value, q.value))
    T.backward(loss, [p, q])
    assert p.grad is None
    np.testing.assert_allclose(q.grad.array, [2.0])


def test_frozen_parameter_stays_frozen_across_assign():
    p = Parameter("p", T.tensor([2.0]))
    q = Parameter("q", T.tensor([3.0]))
    p.set_trainable(False)
    p.assign(np.array([5.0]))
    assert not p.trainable
    T.backward(T.sum_all(T.mul(p.value, q.value)), [p, q])
    assert p.grad is None
    np.testing.assert_allclose(q.grad.array, [5.0])
    p.set_trainable(True)
    p.assign(np.array([7.0]))
    assert p.trainable
    T.backward(T.sum_all(T.mul(p.value, q.value)), [p, q])
    np.testing.assert_allclose(p.grad.array, [3.0])


def test_backward_tiny_model_matches_finite_differences():
    rng = np.random.default_rng(21)
    w1 = Parameter("w1", T.tensor(rng.standard_normal((3, 4))))
    w2 = Parameter("w2", T.tensor(rng.standard_normal((4, 2))))
    x = rng.standard_normal((5, 3))
    y = rng.standard_normal((5, 2))

    def forward(w1v, w2v):
        h = T.gelu(T.matmul(T.tensor(x), w1v))
        out = T.matmul(h, w2v)
        err = T.sub(out, T.tensor(y))
        return T.mean_all(T.mul(err, err))

    loss = forward(w1.value, w2.value)
    T.backward(loss, [w1, w2])
    fd1 = T.finite_diff_grad(lambda t: forward(t, w2.value), T.tensor(w1.value.array), 1e-5)
    fd2 = T.finite_diff_grad(lambda t: forward(w1.value, t), T.tensor(w2.value.array), 1e-5)
    assert rel_err(w1.grad.array, fd1.array) < 1e-4
    assert rel_err(w2.grad.array, fd2.array) < 1e-4


def test_backward_twice_on_one_loss_raises():
    p = Parameter("p", T.tensor([3.0]))
    loss = T.sum_all(T.mul(p.value, p.value))
    T.backward(loss, [p])
    with pytest.raises(GraphError, match="consumed"):
        T.backward(loss, [p])
    with pytest.raises(GraphError, match="consumed"):
        T.grad_map(T.scale(loss, 2.0))
    np.testing.assert_allclose(p.grad.array, [6.0])


def tiny_xchannel_model():
    """A float64 stage-2 model with xchannel on, every weight perturbed so
    every gradient is non-zero, and a loss builder over a fixed batch."""
    cfg = M.ModelConfig(
        horizon=4, n_channels=3, lookback=16, patch_len=4, d_model=8, n_layers=1, d_state=4, head_compress_dim=4, xchannel_enabled=True
    )
    model = M.build_model(cfg, seed=43, dtype=np.float64)
    rng = np.random.default_rng(44)
    for p in model.parameters():
        p.assign(p.value.array + 0.2 * rng.standard_normal(p.value.shape))
    x, y = rng.standard_normal((2, 3, 16)), rng.standard_normal((2, 3, 4))
    return model, lambda: TR.stage2_loss(T.Tensor(x), T.Tensor(y), model)


def test_backward_releases_every_vjp():
    model, make_loss = tiny_xchannel_model()
    loss = make_loss()
    nodes = graph_nodes(loss)
    assert held_arrays(fn for node in nodes for _, fn in node.pairs)
    T.backward(loss, model.parameters())
    assert graph_nodes(loss) == [loss]
    assert held_arrays(fn for node in nodes for _, fn in node.pairs) == []


def test_backward_gradients_are_grad_map_bytes():
    model, make_loss = tiny_xchannel_model()
    want = T.grad_map(make_loss())
    params = model.parameters()
    T.backward(make_loss(), params)
    for p in params:
        assert p.grad.array.tobytes() == want[id(p.value)].tobytes(), p.name


def test_grad_map_keeps_only_leaf_gradients_and_the_graph():
    model, make_loss = tiny_xchannel_model()
    loss = make_loss()
    nodes = graph_nodes(loss)
    inner = {id(node) for node in nodes if node.pairs}
    grads = T.grad_map(loss)
    assert not inner & set(grads)
    assert {id(p.value) for p in model.parameters()} <= set(grads)
    assert {id(node) for node in nodes if node.pairs} == inner
    again = T.grad_map(loss)
    assert all(again[k].tobytes() == grads[k].tobytes() for k in grads)


def test_finite_diff_grad_examples():
    fd = T.finite_diff_grad(lambda t: T.sum_all(T.mul(t, t)), T.tensor([1.0, 2.0]), 1e-5)
    np.testing.assert_allclose(fd.array, [2.0, 4.0], atol=1e-8)
    fd = T.finite_diff_grad(lambda t: T.sum_all(T.tensor([7.0])), T.tensor([1.0, 2.0]), 1e-5)
    np.testing.assert_array_equal(fd.array, [0.0, 0.0])
    fd = T.finite_diff_grad(lambda t: T.sum_all(t), T.tensor([5.0, -1.0, 0.0]), 1e-5)
    np.testing.assert_allclose(fd.array, [1.0, 1.0, 1.0], atol=1e-9)


def test_no_grad_suppresses_recording():
    p = Parameter("p", T.tensor([2.0]))
    with T.no_grad():
        out = T.mul(p.value, p.value)
    assert out.pairs == ()
    loss = T.sum_all(out)
    T.backward(loss, [p])
    np.testing.assert_array_equal(p.grad.array, [0.0])


def test_determinism_bit_identical():
    rng = np.random.default_rng(33)
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 3))

    def run():
        return T.matmul(T.gelu(T.tensor(x)), T.tensor(w)).array.tobytes()

    assert run() == run()


def test_workspace_lives_as_long_as_the_outermost_no_grad_block():
    assert T.workspace() is T.FRESH
    with T.no_grad():
        ws = T.workspace()
        assert ws is not T.FRESH
        with T.no_grad():
            assert T.workspace() is ws
        assert T.workspace() is ws
    assert T.workspace() is T.FRESH
    with T.no_grad():
        assert T.workspace() is not ws


def test_workspace_reuses_one_buffer_per_slot_and_dtype():
    ws = T.Workspace()
    big = ws.take("a", (4, 3), np.float32)
    small = ws.take("a", (2, 3), np.float32)  # a shorter group: the leading rows
    assert small.flags.c_contiguous and np.shares_memory(small, big[:2]) and not np.shares_memory(small, big[2:])
    assert not np.shares_memory(big, ws.take("b", (4, 3), np.float32))
    assert not np.shares_memory(big, ws.take("a", (4, 3), np.float64))
    grown = ws.take("a", (5, 3), np.float32)
    assert not np.shares_memory(grown, big) and np.shares_memory(ws.take("a", (4, 3), np.float32), grown)
    # without reuse every take is a new array
    assert not np.shares_memory(T.FRESH.take("a", (4, 3), np.float32), T.FRESH.take("a", (4, 3), np.float32))
