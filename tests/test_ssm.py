"""Unit tests for the selective SSM core."""

import math
import tracemalloc

import numpy as np
import pytest

from _tape import graph_nodes, held_arrays, tape_arrays
from tsmamba import model as M
from tsmamba import ssm
from tsmamba import tensor as T
from tsmamba.errors import ShapeMismatch
from tsmamba.params import Parameter
from tsmamba.tensor import Tensor


def make_ssm(rng, d_inner, n_state, dtype=np.float64, prefix="ssm"):
    return ssm.init_ssm_params(rng, d_inner, n_state, dtype, prefix)


def rel_err(a, b, floor=1e-5):
    # Floor keeps the comparison meaningful where gradients sit below the
    # finite-difference noise level (~1e-10 absolute for float64 losses).
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def make_scan_case(seed, batch=2, length=8, d_inner=3, n_state=2):
    """SSM with perturbed, well-spread parameters plus an input and a projection."""
    rng = np.random.default_rng(seed)
    p = make_ssm(rng, d_inner, n_state)
    for q in p.parameters():
        q.assign(q.value.array + 0.3 * rng.standard_normal(q.value.shape))
    x = rng.standard_normal((batch, length, d_inner))
    proj = rng.standard_normal((batch, length, d_inner))
    return p, x, proj


def scan_loss(x, p, proj):
    return T.sum_all(T.mul(ssm._selective_scan_batched(x, p), T.tensor(proj)))


# ---------------------------------------------------------------------------
# Discretization and selective maps: the kernel's coefficients against a
# written-out numpy oracle
# ---------------------------------------------------------------------------


def step_coeffs(x, p):
    """``_StepCoeffs`` of x [B, L, d_inner], with the step terms (a_bar, bx) that
    ``fill`` gives at every step in its [B, n_state, d_inner] buffers, stacked
    to [B, L, d_inner, n_state]."""
    co = ssm._StepCoeffs(x, ssm._scan_weights(p, x.dtype))
    a_bar, bx = np.empty((2, x.shape[0], x.shape[1], p.d_inner, p.n_state), dtype=x.dtype)
    for t in range(x.shape[1]):
        co.fill(t)
        a_bar[:, t], bx[:, t] = co.a_bar.transpose(0, 2, 1), co.bx.transpose(0, 2, 1)
    return co, a_bar, bx


def one_step_terms(a, b, dt_bias):
    """The kernel's one-step terms for A [d, n], B [n] and dt = softplus(dt_bias):
    x = 1 on every channel, W_b = B on its first row, W_dt = 0. Returns the
    coefficients and the dt they used."""
    d, n = a.shape
    p = make_ssm(np.random.default_rng(0), d, n)
    p.a_log.assign(np.log(-a))
    w_b = np.zeros((d, n))
    w_b[0] = b
    p.x_to_b.assign(w_b)
    p.x_to_dt.assign(np.zeros(d))
    p.dt_bias.assign(np.asarray(dt_bias, dtype=np.float64))
    co, a_bar, bx = step_coeffs(np.ones((1, 1, d)), p)
    return a_bar[0, 0], bx[0, 0], co.dt[0, 0]


def mamba_oracle(a, b, dt):
    """Mamba's discretization: A_bar = exp(dt*A), B_bar = dt*B."""
    return np.exp(dt[:, None] * a), dt[:, None] * b[None, :]


def test_discretize_scalar_closed_form():
    a_bar, b_bar, dt = one_step_terms(np.array([[-1.0]]), np.array([1.0]), [np.log(np.expm1(0.5))])
    # closed form: exp(-0.5) and 0.5 * 1 = 0.5, once softplus gives back dt = 0.5
    assert dt[0] == 0.5
    assert abs(a_bar[0, 0] - math.exp(-0.5)) < 1e-15
    assert b_bar[0, 0] == 0.5


def test_discretize_small_dt_limit():
    a_bar, b_bar, _ = one_step_terms(np.array([[-2.0]]), np.array([3.0]), [np.log(np.expm1(1e-9))])
    assert abs(a_bar[0, 0] - 1.0) < 1e-8
    assert abs(b_bar[0, 0]) < 1e-8


def test_discretize_matches_oracle_across_magnitudes():
    rng = np.random.default_rng(0)
    a = -np.exp(rng.uniform(-2, 2, size=(3, 4)))
    b = rng.standard_normal(4)
    dt = np.exp(rng.uniform(np.log(1e-4), np.log(1.0), size=3))
    a_bar, b_bar, dt_used = one_step_terms(a, b, np.log(np.expm1(dt)))
    np.testing.assert_allclose(dt_used, dt, rtol=1e-12)
    want_a, want_b = mamba_oracle(a, b, dt_used)
    np.testing.assert_allclose(a_bar, want_a, rtol=1e-14)
    np.testing.assert_allclose(b_bar, want_b, rtol=1e-14)


def test_discretize_zero_dt_is_identity_step():
    # softplus underflows to dt = 0 for a very negative pre-activation; the
    # step must then be the identity
    a_bar, b_bar, dt = one_step_terms(np.array([[-1.0, -3.0]]), np.array([1.0, 2.0]), [-800.0])
    assert dt[0] == 0.0
    np.testing.assert_array_equal(a_bar, np.ones((1, 2)))
    np.testing.assert_array_equal(b_bar, np.zeros((1, 2)))


def test_discretize_gradients():
    # the scan's adjoint of the step terms (dt reaches A only through
    # a_bar = exp(dt*A)) against central differences, with dt spread over
    # four decades
    p, x, proj = make_scan_case(1, batch=1, length=2, d_inner=3, n_state=2)
    p.dt_bias.assign(np.log(np.expm1(np.array([1e-4, 1e-2, 1.0]))))
    for q in (p.a_log, p.dt_bias):
        analytic = T.grad_map(scan_loss(T.tensor(x), p, proj))[id(q.value)]
        base = q.value.array.copy()

        def f(t, q=q):
            q.assign(t.array)
            return scan_loss(T.tensor(x), p, proj)

        fd = T.finite_diff_grad(f, T.tensor(base), 1e-7)
        q.assign(base)
        assert rel_err(analytic, fd.array) < 1e-4, q.name


def test_selective_params_zero_input():
    rng = np.random.default_rng(2)
    p = make_ssm(rng, 4, 3)
    co, _, _ = step_coeffs(np.zeros((1, 1, 4)), p)
    np.testing.assert_array_equal(co.b, np.zeros((1, 1, 3)))
    np.testing.assert_array_equal(co.c, np.zeros((1, 1, 3)))
    expected_dt = np.log1p(np.exp(p.dt_bias.value.array))
    np.testing.assert_allclose(co.dt[0, 0], expected_dt, rtol=1e-12)


def test_selective_params_softplus_zero_is_ln2():
    rng = np.random.default_rng(3)
    p = make_ssm(rng, 4, 3)
    p.x_to_dt.assign(np.zeros(4))
    p.dt_bias.assign(np.zeros(4))
    co, _, _ = step_coeffs(np.random.default_rng(0).standard_normal((1, 1, 4)), p)
    np.testing.assert_allclose(co.dt[0, 0], np.full(4, math.log(2.0)), rtol=1e-12)


def test_selective_params_matches_matvec_oracle():
    rng = np.random.default_rng(4)
    p = make_ssm(rng, 5, 3)
    x = rng.standard_normal((2, 3, 5))
    co, _, _ = step_coeffs(x, p)
    for i in range(2):
        for t in range(3):
            xt = x[i, t]
            np.testing.assert_allclose(co.b[i, t], xt @ p.x_to_b.value.array, rtol=1e-12)
            np.testing.assert_allclose(co.c[i, t], xt @ p.x_to_c.value.array, rtol=1e-12)
            dt = np.log1p(np.exp(p.dt_bias.value.array + float(xt @ p.x_to_dt.value.array)))
            np.testing.assert_allclose(co.dt[i, t], dt, rtol=1e-12)
            np.testing.assert_allclose(co.dtx[i, t], dt * xt, rtol=1e-12)


# ---------------------------------------------------------------------------
# Recurrence kernels
# ---------------------------------------------------------------------------


def test_scan_recurrence_hand_rolled():
    # a=0.5, b*x=1: h = 1, 1.5, 1.75
    h = ssm.linear_recurrence_parallel(np.full((3, 1), 0.5), np.ones((3, 1)), time_axis=0)
    np.testing.assert_allclose(h[:, 0], [1.0, 1.5, 1.75], rtol=1e-15)


def test_parallel_recurrence_prefix_sums():
    # a=1, b=1 degenerates to a cumulative sum
    a = np.ones((8, 1))
    b = np.ones((8, 1))
    h = ssm.linear_recurrence_parallel(a, b, time_axis=0)
    np.testing.assert_array_equal(h[:, 0], np.cumsum(b[:, 0]))


@pytest.mark.parametrize("length", [1, 2, 3, 7, 16, 33, 256])
def test_parallel_recurrence_matches_sequential(length):
    rng = np.random.default_rng(length)
    a = rng.uniform(0.0, 1.0, size=(length, 4))
    b = rng.standard_normal((length, 4))
    h_par = ssm.linear_recurrence_parallel(a, b, time_axis=0)
    h = np.zeros(4)
    h_seq = np.empty_like(b)
    for t in range(length):
        h = a[t] * h + b[t]
        h_seq[t] = h
    assert np.max(np.abs(h_par - h_seq)) < 1e-12


def test_scan_recurrence_gradients():
    p, x, proj = make_scan_case(6)
    xt = Tensor(x.copy(), requires=True)
    grads = T.grad_map(scan_loss(xt, p, proj))
    fd = T.finite_diff_grad(lambda t: scan_loss(t, p, proj), T.tensor(x), 1e-6)
    assert rel_err(grads[id(xt)], fd.array) < 1e-4, "x"
    assert len(p.parameters()) == 6
    analytic = {q.name: grads[id(q.value)] for q in p.parameters()}
    for q in p.parameters():
        base = q.value.array.copy()

        def f(t, q=q):
            q.assign(t.array)
            return scan_loss(T.tensor(x), p, proj)

        fd = T.finite_diff_grad(f, T.tensor(base), 1e-6)
        q.assign(base)
        assert rel_err(analytic[q.name], fd.array) < 1e-4, q.name


def test_scan_gradients_with_frozen_ssm_params(monkeypatch):
    p, x, proj = make_scan_case(23)
    xt = Tensor(x.copy(), requires=True)
    trained = T.grad_map(scan_loss(xt, p, proj))[id(xt)]
    for q in p.parameters():
        q.set_trainable(False)
    xt = Tensor(x.copy(), requires=True)
    y = ssm._selective_scan_batched(xt, p)
    assert [parent is xt for parent, _ in y.pairs] == [True]
    # the adjoint computes no weight gradient when no weight wants one
    adjoints = []
    vjp = ssm._sequential_scan_vjp

    def spy(*args):
        adjoints.append(vjp(*args))
        return adjoints[-1]

    monkeypatch.setattr(ssm, "_sequential_scan_vjp", spy)
    grads = T.grad_map(T.sum_all(T.mul(y, T.tensor(proj))))
    assert len(adjoints) == 1 and adjoints[0][1:] == (None,) * 6
    assert all(id(q.value) not in grads for q in p.parameters())
    assert grads[id(xt)].tobytes() == trained.tobytes()
    fd = T.finite_diff_grad(lambda t: scan_loss(t, p, proj), T.tensor(x), 1e-6)
    assert rel_err(grads[id(xt)], fd.array) < 1e-4


def test_long_scan_directional_derivatives():
    # 600 steps: the state adjoint is carried back over the whole sequence
    p, x, proj = make_scan_case(29, length=600)
    rng = np.random.default_rng(30)
    xt = Tensor(x.copy(), requires=True)
    grads = T.grad_map(scan_loss(xt, p, proj))
    eps = 1e-5
    for name, base, grad, assign in [("x", x, grads[id(xt)], None)] + [
        (q.name, q.value.array.copy(), grads[id(q.value)], q.assign) for q in p.parameters()
    ]:
        v = rng.standard_normal(base.shape)

        def loss(t, base=base, v=v, assign=assign):
            moved = base + t * v
            if assign is None:
                return scan_loss(T.tensor(moved), p, proj).item()
            assign(moved)
            return scan_loss(T.tensor(x), p, proj).item()

        fd = (loss(eps) - loss(-eps)) / (2 * eps)
        if assign is not None:
            assign(base)
        want = float(np.sum(grad * v))
        assert abs(want - fd) <= 1e-6 * max(abs(want), abs(fd)), name


def test_scan_adjoint_follows_each_gradient():
    # one recorded scan, back-propagated from two different losses
    p, x, proj = make_scan_case(25)
    xt = Tensor(x.copy(), requires=True)
    y = ssm._selective_scan_batched(xt, p)
    for weights in (proj, -2.0 * proj):
        got = T.grad_map(T.sum_all(T.mul(y, T.tensor(weights))))[id(xt)]
        xf = Tensor(x.copy(), requires=True)
        want = T.grad_map(scan_loss(xf, p, weights))[id(xf)]
        assert got.tobytes() == want.tobytes()


def test_zero_step_scan_backward():
    # an empty sequence back-propagates: a [d_inner, 0] input gradient and
    # zero weight gradients
    p, _, _ = make_scan_case(27)
    xt = Tensor(np.zeros((3, 0)), requires=True)
    grads = T.grad_map(T.sum_all(ssm.selective_scan_sequential(xt, p)))
    assert grads[id(xt)].shape == (3, 0)
    for q in p.parameters():
        assert grads[id(q.value)].shape == q.value.shape and not grads[id(q.value)].any(), q.name


@pytest.mark.parametrize("length", [1, 256, 257, 600])
def test_taped_scan_keeps_no_state(length):
    # the backward replays the states from h_0 = 0, so the tape holds none
    p, x, _ = make_scan_case(26, batch=2, length=length, d_inner=3, n_state=2)
    y = ssm._selective_scan_batched(Tensor(x, requires=True), p)
    # states are [B, n_state, d_inner]
    assert not [arr for arr in held_arrays(fn for _, fn in y.pairs) if arr.shape == (2, 2, 3)]
    with T.no_grad():
        assert not ssm._selective_scan_batched(Tensor(x), p).pairs


def test_scan_backward_holds_one_group_of_states():
    # the train workload's scan, [B 32, L 32, d_inner 256, n_state 16] in
    # float32: its backward replays 16-row groups, so it peaks at one group's
    # states (8.25 MiB) plus a few token-sized maps and gradients (1 MiB
    # each); replaying all 32 rows together peaked at 24.8 MiB
    b_, l_, d, n = 32, 32, 256, 16
    rng = np.random.default_rng(31)
    p = make_ssm(rng, d, n, np.float32)
    x = Tensor(rng.standard_normal((b_, l_, d)).astype(np.float32), requires=True)
    proj = Tensor(rng.standard_normal((b_, l_, d)).astype(np.float32))
    loss = T.sum_all(T.mul(ssm._selective_scan_batched(x, p), proj))
    rows = ssm.SCAN_BUDGET // (n * d * 4)
    assert rows == 16
    tracemalloc.start()
    try:
        T.grad_map(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    group_states, token_array = (l_ + 1) * rows * n * d * 4, b_ * l_ * d * 4
    assert peak < group_states + 10 * token_array, peak


def test_scan_rejects_input_dtype_mismatch():
    rng = np.random.default_rng(24)
    p = make_ssm(rng, 4, 3, dtype=np.float64)
    x32 = rng.standard_normal((2, 5, 4)).astype(np.float32)
    with pytest.raises(ShapeMismatch):
        ssm._selective_scan_batched(Tensor(x32, requires=True), p)
    with T.no_grad(), pytest.raises(ShapeMismatch):
        ssm._selective_scan_batched(Tensor(x32), p)
    for kernel in (ssm.selective_scan_sequential, ssm.selective_scan_parallel):
        with pytest.raises(ShapeMismatch):
            kernel(Tensor(x32[0].T.copy()), p)


def test_scan_linearity_at_fixed_coefficients():
    rng = np.random.default_rng(7)
    shape = (1, 12, 3, 2)
    a = rng.uniform(0.1, 0.95, size=shape)
    b_bar = rng.standard_normal(shape)
    c = rng.standard_normal((1, 12, 2))
    x1 = rng.standard_normal((1, 12, 3))
    x2 = rng.standard_normal((1, 12, 3))
    alpha, beta = 0.7, -1.3

    def scan(x):
        h = ssm.linear_recurrence_parallel(a, b_bar * x[:, :, :, None], time_axis=1)
        return np.matmul(h, c[..., None])[..., 0]

    lhs = scan(alpha * x1 + beta * x2)
    rhs = alpha * scan(x1) + beta * scan(x2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_state_bound_constant_coefficients():
    # A = -exp(a_log) < 0 and dt > 0 give |a_bar| < 1; with constant
    # coefficients the state stays within max|bx| / (1 - max a_bar).
    rng = np.random.default_rng(8)
    a_val = rng.uniform(0.05, 0.99)
    bx_val = rng.standard_normal()
    steps = 500
    a = np.full((steps, 1), a_val)
    bx = np.full((steps, 1), bx_val)
    h = ssm.linear_recurrence_parallel(a, bx, time_axis=0)
    bound = abs(bx_val) / (1.0 - a_val)
    assert np.max(np.abs(h)) <= bound + 1e-9


def test_a_bar_strictly_inside_unit_interval():
    rng = np.random.default_rng(9)
    p = make_ssm(rng, 6, 4)
    _, a_bar, _ = step_coeffs(rng.standard_normal((2, 10, 6)), p)
    assert np.all(a_bar > 0.0)
    assert np.all(a_bar < 1.0)


# ---------------------------------------------------------------------------
# Selective scans
# ---------------------------------------------------------------------------


def test_selective_scan_zero_input():
    rng = np.random.default_rng(10)
    p = make_ssm(rng, 3, 2)
    y = ssm.selective_scan_sequential(T.zeros((3, 7)), p)
    np.testing.assert_array_equal(y.array, np.zeros((3, 7)))


def test_selective_scan_single_step_unrolls():
    rng = np.random.default_rng(11)
    p = make_ssm(rng, 3, 2)
    x = rng.standard_normal((3, 1))
    y = ssm.selective_scan_sequential(T.tensor(x), p)
    xt = x[:, 0]
    dt = np.log1p(np.exp(p.dt_bias.value.array + float(xt @ p.x_to_dt.value.array)))
    _, b_bar = mamba_oracle(-np.exp(p.a_log.value.array), xt @ p.x_to_b.value.array, dt)
    h1 = b_bar * xt[:, None]
    expected = h1 @ (xt @ p.x_to_c.value.array) + p.d_skip.value.array * xt
    np.testing.assert_allclose(y.array[:, 0], expected, rtol=1e-12)


def mamba_reference_scan(x, p):
    """Mamba's reference selective scan written out in float64 over x [B, L,
    d_inner]: deltaA = exp(dt*A), deltaB_u = dt*B*x, h = deltaA*h + deltaB_u,
    y = C.h + D*x."""
    a = -np.exp(p.a_log.value.array)
    b, c = x @ p.x_to_b.value.array, x @ p.x_to_c.value.array
    dt = np.log1p(np.exp((x @ p.x_to_dt.value.array)[..., None] + p.dt_bias.value.array))
    delta_a = np.exp(np.einsum("bld,dn->bldn", dt, a))
    delta_b_u = np.einsum("bld,bln,bld->bldn", dt, b, x)
    h = np.zeros((x.shape[0], x.shape[2], a.shape[1]))
    y = np.empty_like(x)
    for t in range(x.shape[1]):
        h = delta_a[:, t] * h + delta_b_u[:, t]
        y[:, t] = np.einsum("bdn,bn->bd", h, c[:, t])
    return y + p.d_skip.value.array * x


@pytest.mark.parametrize("taped", [True, False])
def test_scan_matches_mamba_reference_recurrence(taped):
    p, x, _ = make_scan_case(27, batch=2, length=11, d_inner=3, n_state=2)
    if taped:
        y = ssm._selective_scan_batched(Tensor(x, requires=True), p)
    else:
        with T.no_grad():
            y = ssm._selective_scan_batched(Tensor(x), p)
    assert bool(y.pairs) == taped
    np.testing.assert_allclose(y.array, mamba_reference_scan(x, p), rtol=1e-12)


def test_float32_scan_tracks_float64():
    # at the model's state width
    p, x, proj = make_scan_case(28, batch=4, length=40, d_inner=24, n_state=16)
    results = []
    for dtype in (np.float64, np.float32):
        for q in p.parameters():
            q.assign(q.value.array.astype(dtype))
        xt = Tensor(x.astype(dtype), requires=True)
        y = ssm._selective_scan_batched(xt, p)
        grads = T.grad_map(T.sum_all(T.mul(y, Tensor(proj.astype(dtype)))))
        results.append([y.array, grads[id(xt)], *(grads[id(q.value)] for q in p.parameters())])
    for want, got in zip(*results):
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


def test_selective_scan_parallel_equals_sequential():
    rng = np.random.default_rng(12)
    for trial in range(5):
        d_inner = int(rng.integers(1, 9))
        n_state = int(rng.integers(1, 5))
        length = int(rng.integers(1, 257))
        p = make_ssm(rng, d_inner, n_state)
        x = T.tensor(rng.standard_normal((d_inner, length)))
        y_seq = ssm.selective_scan_sequential(x, p)
        y_par = ssm.selective_scan_parallel(x, p)
        assert np.max(np.abs(y_seq.array - y_par.array)) < 1e-9, f"trial {trial}"


def test_selective_scan_causality_bit_identical():
    rng = np.random.default_rng(13)
    p = make_ssm(rng, 4, 3)
    x = rng.standard_normal((4, 20))
    t0 = 11
    x_mod = x.copy()
    x_mod[:, t0] += 1.0
    y = ssm.selective_scan_sequential(T.tensor(x), p).array
    y_mod = ssm.selective_scan_sequential(T.tensor(x_mod), p).array
    assert y[:, :t0].tobytes() == y_mod[:, :t0].tobytes()
    assert not np.array_equal(y[:, t0:], y_mod[:, t0:])


def test_selective_scan_shape_check():
    rng = np.random.default_rng(14)
    p = make_ssm(rng, 4, 3)
    with pytest.raises(ShapeMismatch):
        ssm.selective_scan_sequential(T.zeros((5, 7)), p)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_tape_on_and_off_agree_exactly(dtype):
    # one kernel runs either way
    rng = np.random.default_rng(16)
    p = make_ssm(rng, 4, 3, dtype=dtype)
    x = Tensor(rng.standard_normal((4, 289)).astype(dtype), requires=True)
    with T.no_grad():
        off = ssm.selective_scan_sequential(x, p)
    on = ssm.selective_scan_sequential(x, p)
    assert on.pairs and not off.pairs
    assert on.array.tobytes() == off.array.tobytes()

    cfg = M.ModelConfig(horizon=4, n_channels=2, lookback=32, patch_len=8, d_model=8, n_layers=1, d_state=4)
    model = M.build_model(cfg, seed=3, dtype=dtype)
    window = Tensor(rng.standard_normal((3, 2, 32)).astype(dtype))
    with T.no_grad():
        off = M.forecast(window, model)
    on = M.forecast(window, model)
    assert on.pairs and not off.pairs
    assert on.array.tobytes() == off.array.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_no_grad_workspace_lends_nothing_it_returns(dtype):
    # every layer op in a no_grad block writes its intermediates into the
    # block's one workspace; what a forecast, a layer or the raw scan
    # returns is its own array, with the tape's bytes
    rng = np.random.default_rng(34)
    cfg = M.ModelConfig(horizon=4, n_channels=2, lookback=32, patch_len=8, d_model=8, n_layers=2, d_state=4)
    model = M.build_model(cfg, seed=3, dtype=dtype)
    for q in model.parameters():  # a built head maps to zero
        q.assign((q.value.array + 0.3 * rng.standard_normal(q.value.shape)).astype(dtype))
    first, second = (Tensor(rng.standard_normal((n, 2, 32)).astype(dtype)) for n in (3, 2))
    with T.no_grad():
        got = [M.forecast(w, model).array for w in (first, second)]
    assert not np.shares_memory(got[0], got[1])
    for w, g in zip((first, second), got):
        with T.no_grad():
            alone = M.forecast(w, model).array
        assert g.tobytes() == alone.tobytes() == M.forecast(w, model).array.tobytes()

    block, gain = make_block(rng, d_model=8, d_inner=16, n_state=4, dtype=dtype), make_gain(rng, 8, dtype)
    xs = [Tensor(rng.standard_normal((3, 5, 8)).astype(dtype)) for _ in range(2)]
    p = make_ssm(rng, 16, 4, dtype=dtype)
    us = [Tensor(rng.standard_normal((3, 5, 16)).astype(dtype)) for _ in range(2)]
    with T.no_grad():
        layers = [ssm.mamba_block_batched(x, gain, block).array for x in xs]
        scans = [ssm._selective_scan_batched(u, p).array for u in us]
    for pair in (layers, scans):
        assert not np.shares_memory(pair[0], pair[1])
    assert [a.tobytes() for a in layers] == [ssm.mamba_block_batched(x, gain, block).array.tobytes() for x in xs]
    assert [a.tobytes() for a in scans] == [ssm._selective_scan_batched(u, p).array.tobytes() for u in us]


# ---------------------------------------------------------------------------
# Mamba block and encoder
# ---------------------------------------------------------------------------


def make_block(rng, d_model=4, d_inner=8, n_state=2, k=4, dtype=np.float64, prefix="block"):
    return ssm.init_mamba_block(rng, d_model, d_inner, n_state, k, dtype, prefix)


def make_gain(rng, d_model=4, dtype=np.float64):
    """A drawn pre-norm gain, so that a layer that ignored it would show."""
    return Tensor((1.0 + 0.3 * rng.standard_normal(d_model)).astype(dtype))


def test_mamba_block_zero_out_proj():
    # the block adds zero, so the layer passes its input through
    rng = np.random.default_rng(15)
    p = make_block(rng)
    p.out_proj.assign(np.zeros_like(p.out_proj.value.array))
    x = T.tensor(rng.standard_normal((1, 6, 4)))
    out = ssm.mamba_block_batched(x, make_gain(rng), p)
    np.testing.assert_array_equal(out.array, x.array)


def test_mamba_block_gate_saturation():
    rng = np.random.default_rng(16)
    p = make_block(rng)
    w = p.in_proj.value.array.copy()
    w[:, p.d_inner :] = -100.0  # silu(-400) under all-ones input: gate closes
    p.in_proj.assign(w)
    x = T.ones((1, 5, 4))
    out = ssm.mamba_block_batched(x, T.ones(4), p)
    assert np.max(np.abs(out.array - x.array)) < 1e-12


def reference_mamba_block(u, p):
    """Straight-line scalar re-implementation of the block for tiny configs."""
    w_in = p.in_proj.value.array
    w_conv = p.conv_weight.value.array
    b_conv = p.conv_bias.value.array
    w_out = p.out_proj.value.array
    s = p.ssm
    a = -np.exp(s.a_log.value.array)
    w_b, w_c = s.x_to_b.value.array, s.x_to_c.value.array
    w_dt, b_dt = s.x_to_dt.value.array, s.dt_bias.value.array
    d_sk = s.d_skip.value.array

    length, d_model = u.shape
    d_inner = s.d_inner
    n_state = s.n_state
    k = w_conv.shape[1]

    z = u @ w_in
    z1, z2 = z[:, :d_inner], z[:, d_inner:]

    conv = np.zeros_like(z1)
    for t in range(length):
        for c in range(d_inner):
            acc = b_conv[c]
            for kk in range(k):
                src = t - (k - 1) + kk
                if src >= 0:
                    acc += w_conv[c, kk] * z1[src, c]
            conv[t, c] = acc
    x = conv / (1.0 + np.exp(-conv))  # silu

    y = np.zeros((length, d_inner))
    h = np.zeros((d_inner, n_state))
    for t in range(length):
        b_t = x[t] @ w_b
        c_t = x[t] @ w_c
        dt = np.log1p(np.exp(b_dt + float(x[t] @ w_dt)))
        a_bar = np.exp(dt[:, None] * a)
        b_bar = dt[:, None] * b_t[None, :]
        h = a_bar * h + b_bar * x[t][:, None]
        y[t] = h @ c_t + d_sk * x[t]

    gated = y * (z2 / (1.0 + np.exp(-z2)))
    return gated @ w_out


def reference_mamba_layer(u, gain, p):
    """The residual pre-norm layer around the block's reference."""
    un = u / np.sqrt((u * u).mean(axis=-1, keepdims=True) + ssm.NORM_EPS) * gain
    return u + reference_mamba_block(un, p)


def test_mamba_block_matches_straight_line_oracle():
    rng = np.random.default_rng(17)
    p = make_block(rng, d_model=4, d_inner=8, n_state=2)
    gain = make_gain(rng)
    u = rng.standard_normal((5, 4))
    got = ssm.mamba_block_batched(T.tensor(u[None]), gain, p).array[0]
    want = reference_mamba_layer(u, gain.array, p)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_mamba_block_parameter_gradients():
    # every gradient of the layer op, the input's and the gain's included,
    # against central differences
    rng = np.random.default_rng(18)
    p = make_block(rng, d_model=3, d_inner=6, n_state=2)
    x = Parameter("x", T.tensor(rng.standard_normal((1, 4, 3))))
    gain = Parameter("gain", make_gain(rng, 3))
    proj = rng.standard_normal((1, 4, 3))

    def loss():
        return T.sum_all(T.mul(ssm.mamba_block_batched(x.value, gain.value, p), T.tensor(proj)))

    for param in [x, gain, *p.parameters()]:
        base = param.value.array.copy()
        T.backward(loss(), [param])

        def f(t, param=param):
            param.assign(t.array)
            return loss()

        fd = T.finite_diff_grad(f, T.tensor(base), 1e-6)
        param.assign(base)
        assert rel_err(param.grad.array, fd.array) < 1e-4, param.name


def unfused_block(u, p, one_gemm=False):
    """The block op by op: the reference for the layer op's in_proj, conv ->
    SiLU -> scan and gate -> out_proj. With ``one_gemm``, in_proj is one
    [B, L, 2*d_inner] GEMM whose halves are then sliced off: the reference
    for the layer's GEMM per branch."""
    d_inner, k = p.d_inner, p.conv_weight.value.shape[1]
    w_in = p.in_proj.value
    if one_gemm:
        z = T.matmul(u, w_in)
        z_main, z_gate = T.slice_axis(z, 2, 0, d_inner), T.slice_axis(z, 2, d_inner, 2 * d_inner)
    else:
        z_main, z_gate = T.matmul(u, T.slice_axis(w_in, 1, 0, d_inner)), T.matmul(u, T.slice_axis(w_in, 1, d_inner, 2 * d_inner))
    x_inner = T.silu(T.depthwise_conv1d(z_main, p.conv_weight.value, p.conv_bias.value, pad_left=k - 1, pad_right=0))
    y = ssm._selective_scan_batched(x_inner, p.ssm)
    return T.matmul(T.mul(y, T.silu(z_gate)), p.out_proj.value)


def unfused_layer(x, gain, p, one_gemm=False):
    """The residual pre-norm layer op by op: RMSNorm, the block, the add."""
    return T.add(x, unfused_block(T.rmsnorm(x, gain, ssm.NORM_EPS), p, one_gemm))


@pytest.mark.parametrize("dtype,grad_tol", [(np.float32, 1e-6), (np.float64, 1e-13)])
@pytest.mark.parametrize("batch,d_model", [(63, 32), (32, 128)])
def test_mamba_block_two_gemms_match_one_gemm_reference(batch, d_model, dtype, grad_tol):
    # the model's shapes: evaluate's 63-row groups at d_model 32, train's
    # 32-row batches at d_model 128, 32 tokens each
    rng = np.random.default_rng(28)
    p = make_block(rng, d_model=d_model, d_inner=2 * d_model, n_state=16, dtype=dtype)
    gain = make_gain(rng, d_model, dtype)
    u = rng.standard_normal((batch, 32, d_model)).astype(dtype)
    proj = T.tensor(rng.standard_normal((batch, 32, d_model)), dtype)
    got_u, want_u = Tensor(u.copy(), requires=True), Tensor(u.copy(), requires=True)
    got, want = ssm.mamba_block_batched(got_u, gain, p), unfused_layer(want_u, gain, p, one_gemm=True)
    assert got.array.tobytes() == want.array.tobytes()
    # the normalized input's gradient now sums two GEMMs of depth d_inner
    # where the reference runs one of depth 2*d_inner, so it may round
    # differently; the residual's part, proj itself, is the same in both
    g_got = T.grad_map(T.sum_all(T.mul(got, proj)))[id(got_u)]
    g_want = T.grad_map(T.sum_all(T.mul(want, proj)))[id(want_u)]
    assert np.max(np.abs(g_got - g_want)) <= grad_tol * np.max(np.abs(g_want - proj.array))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch,d_model", [(63, 32), (32, 128)])
def test_fused_block_matches_unfused_composition(batch, d_model, dtype):
    # the layer op against RMSNorm -> block -> add op by op, at evaluate's
    # 63-row groups at d_model 32 and train's 32-row batches at d_model 128:
    # a trained block, then one with every tensor frozen, as fine-tuning
    # freezes it while the input and the gain still train
    rng = np.random.default_rng(31)
    p = make_block(rng, d_model=d_model, d_inner=2 * d_model, n_state=16, dtype=dtype)
    gain = make_gain(rng, d_model, dtype)
    gain.requires = True
    u = rng.standard_normal((batch, 32, d_model)).astype(dtype)
    proj = T.tensor(rng.standard_normal((batch, 32, d_model)), dtype)
    for frozen in (False, True):
        for q in p.parameters():
            q.set_trainable(not frozen)
        got_u, want_u = Tensor(u.copy(), requires=True), Tensor(u.copy(), requires=True)
        got, want = ssm.mamba_block_batched(got_u, gain, p), unfused_layer(want_u, gain, p)
        assert got.array.dtype == dtype and got.array.tobytes() == want.array.tobytes()
        with T.no_grad():
            off = ssm.mamba_block_batched(got_u, gain, p)
        assert not off.pairs and off.array.tobytes() == got.array.tobytes()
        g_got = T.grad_map(T.sum_all(T.mul(got, proj)))
        g_want = T.grad_map(T.sum_all(T.mul(want, proj)))
        assert g_got[id(got_u)].dtype == dtype and g_got[id(got_u)].tobytes() == g_want[id(want_u)].tobytes()
        assert g_got[id(gain)].dtype == dtype and g_got[id(gain)].tobytes() == g_want[id(gain)].tobytes()
        for q in p.parameters():
            if frozen:
                assert id(q.value) not in g_got and id(q.value) not in g_want, q.name
            else:
                assert g_got[id(q.value)].dtype == dtype and g_got[id(q.value)].tobytes() == g_want[id(q.value)].tobytes(), q.name


def test_frozen_block_computes_no_conv_or_ssm_weight_gradient(monkeypatch):
    # fine-tuning freezes every block tensor; the gradient still flows to u
    rng = np.random.default_rng(32)
    p = make_block(rng, d_model=4, d_inner=8, n_state=2)
    gain = make_gain(rng)
    u = rng.standard_normal((2, 6, 4))
    proj = T.tensor(rng.standard_normal((2, 6, 4)))
    trained_u = Tensor(u.copy(), requires=True)
    trained = T.grad_map(T.sum_all(T.mul(ssm.mamba_block_batched(trained_u, gain, p), proj)))[id(trained_u)]
    for q in p.parameters():
        q.set_trainable(False)
    adjoints, conv_w_grads = [], []
    vjp, conv_vjp_w = ssm._sequential_scan_vjp, T._conv_vjp_w

    def spy(*args):
        adjoints.append(vjp(*args))
        return adjoints[-1]

    monkeypatch.setattr(ssm, "_sequential_scan_vjp", spy)
    monkeypatch.setattr(T, "_conv_vjp_w", lambda *args: conv_w_grads.append(conv_vjp_w(*args)))
    frozen_u = Tensor(u.copy(), requires=True)
    grads = T.grad_map(T.sum_all(T.mul(ssm.mamba_block_batched(frozen_u, gain, p), proj)))
    assert len(adjoints) == 1 and adjoints[0][1:] == (None,) * 6
    assert conv_w_grads == []
    assert all(id(q.value) not in grads for q in p.parameters())
    assert grads[id(frozen_u)].tobytes() == trained.tobytes()


def test_taped_encoder_keeps_only_what_each_backward_reads():
    # two layers, each one op (rmsnorm -> in_proj -> conv -> SiLU -> scan ->
    # gate -> out_proj -> residual), then the final rmsnorm
    rng = np.random.default_rng(29)
    b_, length, d_model, d_inner = 2, 5, 4, 8
    enc = make_encoder(rng, 2, d_model=d_model, d_inner=d_inner)
    u = Tensor(rng.standard_normal((b_, length, d_model)), requires=True)
    out = ssm.encoder_forward_batched(u, enc)

    # the per-token arrays the tape may keep, recomputed op by op without it
    def inv(x):  # rmsnorm's per-row scale
        return 1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + ssm.NORM_EPS)

    want = [u.array, inv(u.array), out.array]
    with T.no_grad():
        x = u
        for block, gain in enc.layers:
            z_main = T.matmul(T.rmsnorm(x, gain.value, ssm.NORM_EPS), T.slice_axis(block.in_proj.value, 1, 0, d_inner))
            k = block.conv_weight.value.shape[1]
            conv = T.depthwise_conv1d(z_main, block.conv_weight.value, block.conv_bias.value, pad_left=k - 1, pad_right=0)
            x = unfused_layer(x, gain.value, block)
            want += [ssm._selective_scan_batched(T.silu(conv), block.ssm).array, x.array, inv(x.array)]
    # the buffers the tape keeps alive, each once, however many views of it it holds
    kept = {}
    for arr in tape_arrays(out):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        kept[id(arr)] = arr
    # no weight has B*L = 10 rows
    per_token = [a for a in kept.values() if a.size // a.shape[-1] == b_ * length]
    # per layer: its input with rmsnorm's inv, the scan's output y and the
    # layer's output; the normalized input, both in_proj branches, the conv
    # output, both SiLUs and the gate are recomputed
    assert sorted((a.shape[-1], a.tobytes()) for a in per_token) == sorted((a.shape[-1], a.tobytes()) for a in want)
    assert [a.shape[-1] for a in per_token].count(d_inner) == len(enc.layers)
    # the rest are weights: the parameters and A = -exp(a_log), and no
    # column half of in_proj
    weights = {a.shape for a in kept.values() if a.size // a.shape[-1] != b_ * length}
    assert (d_model, d_inner) not in weights
    assert weights <= {q.value.shape for q in enc.parameters()}


def make_encoder(rng, n_layers, d_model=4, d_inner=8, n_state=2, prefix="enc"):
    return ssm.init_encoder(rng, n_layers, d_model, d_inner, n_state, 4, np.float64, prefix)


def test_encoder_zero_layers_is_final_norm():
    rng = np.random.default_rng(19)
    enc = make_encoder(rng, 0)
    tokens = rng.standard_normal((1, 6, 4))
    out = ssm.encoder_forward_batched(T.tensor(tokens), enc)
    want = T.rmsnorm(T.tensor(tokens), enc.final_norm.value, ssm.NORM_EPS).array
    np.testing.assert_array_equal(out.array, want)


def test_encoder_zero_block_passes_residual():
    rng = np.random.default_rng(20)
    enc = make_encoder(rng, 1)
    enc.layers[0][0].out_proj.assign(np.zeros_like(enc.layers[0][0].out_proj.value.array))
    tokens = rng.standard_normal((1, 6, 4))
    out = ssm.encoder_forward_batched(T.tensor(tokens), enc)
    want = T.rmsnorm(T.tensor(tokens), enc.final_norm.value, ssm.NORM_EPS).array
    np.testing.assert_array_equal(out.array, want)


def test_encoder_matches_manual_composition():
    rng = np.random.default_rng(21)
    enc = make_encoder(rng, 2)
    tokens = rng.standard_normal((1, 5, 4))
    got = ssm.encoder_forward_batched(T.tensor(tokens), enc).array

    u = T.tensor(tokens)
    for block, gain in enc.layers:
        u = unfused_layer(u, gain.value, block)
    want = T.rmsnorm(u, enc.final_norm.value, ssm.NORM_EPS).array
    assert got.tobytes() == want.tobytes()


def test_parameter_names_are_unique_and_prefixed():
    rng = np.random.default_rng(22)
    enc = make_encoder(rng, 2, prefix="fwd_encoder")
    names = [p.name for p in enc.parameters()]
    assert len(names) == len(set(names))
    assert "fwd_encoder.layer0.mamba.ssm.a_log" in names
    assert "fwd_encoder.final_norm_gain" in names
