"""Selective state-space core: discretization, scans, and Mamba blocks.

The continuous system h' = A h + B x, y = C h is discretized per step with a
zero-order hold and input-dependent (B, C, dt), then evaluated as a strict
left-to-right recurrence: taped when gradients are recorded, blocked and
tape-free otherwise. The work-efficient associative scan is kept as a
single-threaded reference for the equivalence check and ``bench-scan``; at the
model's token counts it is slower than the sequential kernel on a CPU. A is
diagonal per inner channel, stored as ``a_log`` with A = -exp(a_log) so the
state always decays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import InvalidConfig, NonPositiveDt, ShapeMismatch
from .params import Parameter, uniform_init
from .tensor import Tensor

NORM_EPS = 1e-5
SMALL_DT_A = 1e-6  # below this |dt*A| the ZOH input factor collapses to dt*B


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass
class SSMParams:
    """Input-dependent SSM maps for one Mamba block."""

    a_log: Parameter  # [d_inner, n_state], A = -exp(a_log)
    x_to_b: Parameter  # [d_inner, n_state]
    x_to_c: Parameter  # [d_inner, n_state]
    x_to_dt: Parameter  # [d_inner], rank-1 map to a shared step scalar
    dt_bias: Parameter  # [d_inner]
    d_skip: Parameter  # [d_inner], direct feedthrough

    @property
    def d_inner(self) -> int:
        return self.a_log.value.shape[0]

    @property
    def n_state(self) -> int:
        return self.a_log.value.shape[1]

    def parameters(self) -> list[Parameter]:
        return [self.a_log, self.x_to_b, self.x_to_c, self.x_to_dt, self.dt_bias, self.d_skip]


@dataclass
class MambaBlockParams:
    in_proj: Parameter  # [d_model, 2*d_inner]: main branch | gate branch
    conv_weight: Parameter  # [d_inner, k], depthwise causal
    conv_bias: Parameter  # [d_inner]
    ssm: SSMParams
    out_proj: Parameter  # [d_inner, d_model]

    @property
    def d_model(self) -> int:
        return self.in_proj.value.shape[0]

    @property
    def d_inner(self) -> int:
        return self.ssm.d_inner

    def parameters(self) -> list[Parameter]:
        return [self.in_proj, self.conv_weight, self.conv_bias, *self.ssm.parameters(), self.out_proj]


@dataclass
class EncoderParams:
    layers: list[tuple[MambaBlockParams, Parameter]]  # (block, pre-norm gain)
    final_norm: Parameter

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for block, gain in self.layers:
            out.extend(block.parameters())
            out.append(gain)
        out.append(self.final_norm)
        return out

    def block_parameters(self) -> list[Parameter]:
        """Mamba block tensors only (frozen during fine-tuning); norms excluded."""
        out: list[Parameter] = []
        for block, _ in self.layers:
            out.extend(block.parameters())
        return out


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def init_ssm_params(rng: np.random.Generator, d_inner: int, n_state: int, dtype, prefix: str) -> SSMParams:
    if d_inner < 1 or n_state < 1:
        raise InvalidConfig("d_inner and n_state must be >= 1")
    # -A spans 1..n_state per state index; softplus(dt_bias) log-uniform in [1e-3, 1e-1]
    a = np.tile(np.arange(1, n_state + 1, dtype=np.float64), (d_inner, 1))
    dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=d_inner))
    dt_bias = np.log(np.expm1(dt))
    return SSMParams(
        a_log=Parameter(f"{prefix}.a_log", Tensor(np.log(a).astype(dtype))),
        x_to_b=Parameter(f"{prefix}.x_to_b", uniform_init(rng, (d_inner, n_state), d_inner, dtype)),
        x_to_c=Parameter(f"{prefix}.x_to_c", uniform_init(rng, (d_inner, n_state), d_inner, dtype)),
        x_to_dt=Parameter(f"{prefix}.x_to_dt", uniform_init(rng, (d_inner,), d_inner, dtype)),
        dt_bias=Parameter(f"{prefix}.dt_bias", Tensor(dt_bias.astype(dtype))),
        d_skip=Parameter(f"{prefix}.d_skip", T.ones(d_inner, dtype=dtype)),
    )


def init_mamba_block(
    rng: np.random.Generator,
    d_model: int,
    d_inner: int,
    n_state: int,
    conv_kernel: int,
    dtype,
    prefix: str,
) -> MambaBlockParams:
    return MambaBlockParams(
        in_proj=Parameter(f"{prefix}.in_proj", uniform_init(rng, (d_model, 2 * d_inner), d_model, dtype)),
        conv_weight=Parameter(f"{prefix}.conv_weight", uniform_init(rng, (d_inner, conv_kernel), conv_kernel, dtype)),
        conv_bias=Parameter(f"{prefix}.conv_bias", uniform_init(rng, (d_inner,), conv_kernel, dtype)),
        ssm=init_ssm_params(rng, d_inner, n_state, dtype, f"{prefix}.ssm"),
        out_proj=Parameter(f"{prefix}.out_proj", uniform_init(rng, (d_inner, d_model), d_inner, dtype)),
    )


def init_encoder(
    rng: np.random.Generator,
    n_layers: int,
    d_model: int,
    d_inner: int,
    n_state: int,
    conv_kernel: int,
    dtype,
    prefix: str,
) -> EncoderParams:
    layers = []
    for i in range(n_layers):
        block = init_mamba_block(rng, d_model, d_inner, n_state, conv_kernel, dtype, f"{prefix}.layer{i}.mamba")
        gain = Parameter(f"{prefix}.layer{i}.norm_gain", T.ones(d_model, dtype=dtype))
        layers.append((block, gain))
    final = Parameter(f"{prefix}.final_norm_gain", T.ones(d_model, dtype=dtype))
    return EncoderParams(layers=layers, final_norm=final)


# ---------------------------------------------------------------------------
# Discretization and selective parameter maps
# ---------------------------------------------------------------------------


def _discretize_core(a_full: Tensor, b_full: Tensor, dt_full: Tensor) -> tuple[Tensor, Tensor]:
    """ZOH on pre-broadcast operands of identical shape [..., d_inner, n_state]."""
    u = T.mul(dt_full, a_full)
    a_bar = T.exp(u)
    small = np.abs(u.array) < SMALL_DT_A
    one = T.constant_like(u, 1.0)
    u_safe = T.where(small, one, u)
    phi = T.where(small, one, T.div(T.sub(a_bar, one), u_safe))
    b_bar = T.mul(phi, T.mul(dt_full, b_full))
    return a_bar, b_bar


def discretize_zoh(a: Tensor, b_t: Tensor, dt_t: Tensor) -> tuple[Tensor, Tensor]:
    """One-step ZOH: A_bar = exp(dt*A), B_bar = (dt*A)^-1 (exp(dt*A)-1) dt*B.

    ``a`` is the diagonal coefficient table [d_inner, n_state]; ``b_t`` the
    per-step input map [n_state]; ``dt_t`` the per-channel step [d_inner].
    """
    if a.ndim != 2:
        raise ShapeMismatch(f"discretize_zoh: A must be [d_inner, n_state], got {a.shape}")
    d_inner, n_state = a.shape
    if b_t.shape != (n_state,):
        raise ShapeMismatch(f"discretize_zoh: B shape {b_t.shape} != ({n_state},)")
    if dt_t.shape != (d_inner,):
        raise ShapeMismatch(f"discretize_zoh: dt shape {dt_t.shape} != ({d_inner},)")
    if np.any(dt_t.array <= 0):
        raise NonPositiveDt("discretize_zoh requires dt > 0 elementwise")
    full = (d_inner, n_state)
    dt_full = T.broadcast_to(T.reshape(dt_t, (d_inner, 1)), full)
    b_full = T.broadcast_to(T.reshape(b_t, (1, n_state)), full)
    return _discretize_core(a, b_full, dt_full)


def _selective_params_batched(x: Tensor, ssm: SSMParams) -> tuple[Tensor, Tensor, Tensor]:
    """Maps for a token-major batch x [B, L, d_inner] -> (B, C, dt) sequences."""
    b_, l_, d = x.shape
    if d != ssm.d_inner:
        raise ShapeMismatch(f"selective params: input width {d} != d_inner {ssm.d_inner}")
    b_seq = T.matmul(x, ssm.x_to_b.value)  # [B, L, n_state]
    c_seq = T.matmul(x, ssm.x_to_c.value)
    s = T.matmul(x, T.reshape(ssm.x_to_dt.value, (d, 1)))  # [B, L, 1]
    bias = T.broadcast_to(T.reshape(ssm.dt_bias.value, (1, 1, d)), (b_, l_, d))
    dt = T.softplus(T.add(T.broadcast_to(s, (b_, l_, d)), bias))
    return b_seq, c_seq, dt


def selective_params(x_t: Tensor, ssm: SSMParams) -> tuple[Tensor, Tensor, Tensor]:
    """Single-step maps: B_t, C_t in state space, dt_t per inner channel."""
    if x_t.shape != (ssm.d_inner,):
        raise ShapeMismatch(f"selective_params: x shape {x_t.shape} != ({ssm.d_inner},)")
    b_seq, c_seq, dt = _selective_params_batched(T.reshape(x_t, (1, 1, ssm.d_inner)), ssm)
    n = ssm.n_state
    return T.reshape(b_seq, (n,)), T.reshape(c_seq, (n,)), T.reshape(dt, (ssm.d_inner,))


def _scan_coeffs(x: Tensor, ssm: SSMParams) -> tuple[Tensor, Tensor, Tensor]:
    """Per-step (A_bar, B_bar*x, C) for x [B, L, d_inner]."""
    b_, l_, d = x.shape
    n = ssm.n_state
    b_seq, c_seq, dt = _selective_params_batched(x, ssm)
    full = (b_, l_, d, n)
    a = T.neg(T.exp(ssm.a_log.value))
    a_full = T.broadcast_to(T.reshape(a, (1, 1, d, n)), full)
    dt_full = T.broadcast_to(T.reshape(dt, (b_, l_, d, 1)), full)
    b_full = T.broadcast_to(T.reshape(b_seq, (b_, l_, 1, n)), full)
    a_bar, b_bar = _discretize_core(a_full, b_full, dt_full)
    bx = T.mul(b_bar, T.broadcast_to(T.reshape(x, (b_, l_, d, 1)), full))
    return a_bar, bx, c_seq


def _scan_coeffs_np(x: np.ndarray, ssm: SSMParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """No-tape form of :func:`_scan_coeffs` for the associative reference
    scan: same math and operation order with numpy broadcasting instead of
    tape nodes, so results match the taped path bit for bit."""
    b_, l_, d = x.shape
    w_b = ssm.x_to_b.value.array
    w_c = ssm.x_to_c.value.array
    b_seq = np.matmul(x, w_b)
    c_seq = np.matmul(x, w_c)
    s = np.matmul(x, ssm.x_to_dt.value.array.reshape(d, 1))
    dt = T._softplus_np(s + ssm.dt_bias.value.array.reshape(1, 1, d))
    a = -np.exp(ssm.a_log.value.array)
    u = dt[:, :, :, None] * a[None, None]
    a_bar = np.exp(u)
    small = np.abs(u) < SMALL_DT_A
    phi = np.where(small, 1.0, (a_bar - 1.0) / np.where(small, 1.0, u))
    bx = (phi * (dt[:, :, :, None] * b_seq[:, :, None, :])) * x[:, :, :, None]
    return a_bar.astype(x.dtype, copy=False), bx.astype(x.dtype, copy=False), c_seq


# ---------------------------------------------------------------------------
# Recurrence kernels
# ---------------------------------------------------------------------------


def scan_recurrence(a_bar: Tensor, bx: Tensor, c_seq: Tensor) -> Tensor:
    """y[b,t,d] = <C_t, h_t> with h_t = A_bar_t * h_{t-1} + bx_t, h_0 = 0.

    Fused sequential kernel; the backward pass replays the recurrence adjoint
    in reverse, so this is the differentiation path for training.
    """
    av, bv, cv = a_bar.array, bx.array, c_seq.array
    if av.shape != bv.shape:
        raise ShapeMismatch(f"scan_recurrence: {av.shape} vs {bv.shape}")
    b_, l_, d, n = av.shape
    if cv.shape != (b_, l_, n):
        raise ShapeMismatch(f"scan_recurrence: C shape {cv.shape} != {(b_, l_, n)}")
    hs = np.empty_like(av)
    ys = np.empty((b_, l_, d), dtype=av.dtype)
    h = np.zeros((b_, d, n), dtype=av.dtype)
    for t in range(l_):
        h = av[:, t] * h + bv[:, t]
        hs[:, t] = h
        ys[:, t] = np.matmul(h, cv[:, t, :, None])[:, :, 0]

    cache: dict[int, tuple] = {}

    def _adjoint(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = id(g)
        if key not in cache:
            ga = np.empty_like(av)
            gb = np.empty_like(bv)
            gc = np.empty_like(cv)
            adj = np.zeros((b_, d, n), dtype=av.dtype)
            for t in range(l_ - 1, -1, -1):
                if t < l_ - 1:
                    adj = adj * av[:, t + 1]
                adj = adj + g[:, t, :, None] * cv[:, t, None, :]
                gb[:, t] = adj
                ga[:, t] = adj * (hs[:, t - 1] if t > 0 else 0.0)
                gc[:, t] = np.matmul(g[:, t, None, :], hs[:, t])[:, 0, :]
            cache.clear()
            cache[key] = (ga, gb, gc)
        return cache[key]

    return T.apply_op(
        ys,
        [
            (a_bar, lambda g: _adjoint(g)[0]),
            (bx, lambda g: _adjoint(g)[1]),
            (c_seq, lambda g: _adjoint(g)[2]),
        ],
    )


_SEQ_BLOCK = 256  # coefficient block for the no-tape sequential kernel


def _sequential_scan_np(x: np.ndarray, ssm: SSMParams) -> np.ndarray:
    """No-tape sequential scan with blocked, buffer-reusing coefficients.

    Computing (A_bar, B_bar x, C) in fixed-size time blocks into preallocated
    buffers keeps the working set cache-resident and allocation-free no matter
    how long the sequence is, so wall time stays proportional to L instead of
    inheriting a cache or allocator cliff.
    """
    b_, l_, d = x.shape
    n = ssm.n_state
    dtype = x.dtype
    w_b = ssm.x_to_b.value.array
    w_c = ssm.x_to_c.value.array
    w_dt = ssm.x_to_dt.value.array.reshape(d, 1)
    dt_bias = ssm.dt_bias.value.array.reshape(1, 1, d)
    a = -np.exp(ssm.a_log.value.array)

    blk = min(_SEQ_BLOCK, l_)
    b_seq = np.empty((b_, blk, n), dtype=dtype)
    c_seq = np.empty((b_, blk, n), dtype=dtype)
    s = np.empty((b_, blk, 1), dtype=dtype)
    dt = np.empty((b_, blk, d), dtype=dtype)
    u = np.empty((b_, blk, d, n), dtype=dtype)
    a_bar = np.empty_like(u)
    bx = np.empty_like(u)
    scratch = np.empty_like(u)

    ys = np.empty((b_, l_, d), dtype=dtype)
    h = np.zeros((b_, d, n), dtype=dtype)
    hc = np.empty((b_, d, 1), dtype=dtype)
    for start in range(0, l_, blk):
        m = min(blk, l_ - start)
        xb = np.ascontiguousarray(x[:, start : start + m])
        bs, cs, sv, dtv = b_seq[:, :m], c_seq[:, :m], s[:, :m], dt[:, :m]
        uv, av, bxv, sc = u[:, :m], a_bar[:, :m], bx[:, :m], scratch[:, :m]
        np.matmul(xb, w_b, out=bs)
        np.matmul(xb, w_c, out=cs)
        np.matmul(xb, w_dt, out=sv)
        np.add(sv, dt_bias, out=dtv)
        dtv[...] = T._softplus_np(dtv)
        np.multiply(dtv[:, :, :, None], a[None, None], out=uv)
        np.exp(uv, out=av)
        small = np.abs(uv) < SMALL_DT_A
        np.subtract(av, 1.0, out=sc)
        np.divide(sc, np.where(small, 1.0, uv), out=sc)
        np.copyto(sc, 1.0, where=small)  # phi
        np.multiply(dtv[:, :, :, None], bs[:, :, None, :], out=bxv)
        np.multiply(sc, bxv, out=bxv)
        np.multiply(bxv, xb[:, :, :, None], out=bxv)
        for t in range(m):
            np.multiply(av[:, t], h, out=h)
            np.add(h, bxv[:, t], out=h)
            np.matmul(h, cs[:, t, :, None], out=hc)
            ys[:, start + t] = hc[:, :, 0]
    return ys


def _blelloch_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Work-efficient scan of h_t = a_t h_{t-1} + b_t over axis 0 of [L, M]."""
    l_ = a.shape[0]
    p = 1 << max(0, l_ - 1).bit_length() if l_ > 1 else 1
    ap = np.ones((p,) + a.shape[1:], dtype=a.dtype)
    bp = np.zeros_like(ap)
    ap[:l_] = a
    bp[:l_] = b
    step = 1
    while step < p:  # upsweep: fold left sibling into right
        right = np.arange(2 * step - 1, p, 2 * step)
        left = right - step
        ar = ap[right]
        ap[right] = ar * ap[left]
        bp[right] = ar * bp[left] + bp[right]
        step *= 2
    ap[p - 1] = 1.0
    bp[p - 1] = 0.0
    step = p // 2
    while step >= 1:  # downsweep: exclusive prefixes, order-preserving compose
        right = np.arange(2 * step - 1, p, 2 * step)
        left = right - step
        ta = ap[left].copy()
        tb = bp[left].copy()
        ap[left] = ap[right]
        bp[left] = bp[right]
        ap[right] = ta * ap[right]
        bp[right] = ta * bp[right] + tb
        step //= 2
    # inclusive state from the exclusive prefix
    return a * bp[:l_] + b


def linear_recurrence_parallel(a: np.ndarray, b: np.ndarray, time_axis: int = 0) -> np.ndarray:
    """Associative-scan evaluation of h_t = a_t h_{t-1} + b_t (h_0 = 0).

    Work O(L), depth O(log L); a single-threaded reference for the
    sequential kernels.
    """
    if a.shape != b.shape:
        raise ShapeMismatch(f"linear_recurrence_parallel: {a.shape} vs {b.shape}")
    a_m = np.moveaxis(a, time_axis, 0)
    b_m = np.moveaxis(b, time_axis, 0)
    lead = a_m.shape[0]
    out = _blelloch_columns(a_m.reshape(lead, -1), b_m.reshape(lead, -1))
    return np.moveaxis(out.reshape(a_m.shape), 0, time_axis)


# ---------------------------------------------------------------------------
# Selective scans
# ---------------------------------------------------------------------------


def _check_scan_input(x: Tensor, ssm: SSMParams) -> None:
    if x.ndim != 2 or x.shape[0] != ssm.d_inner:
        raise ShapeMismatch(f"scan input must be [d_inner, L], got {x.shape}")


def _selective_scan_batched(x: Tensor, ssm: SSMParams) -> Tensor:
    """Selective scan over x [B, L, d_inner] -> [B, L, d_inner].

    With the tape on it runs the taped recurrence; with it off, the blocked
    no-tape kernel, which evaluates the same recurrence in the same order.
    """
    b_, l_, d = x.shape
    if T.grad_enabled():
        y = scan_recurrence(*_scan_coeffs(x, ssm))
    else:
        y = Tensor(_sequential_scan_np(x.array, ssm))
    skip = T.broadcast_to(T.reshape(ssm.d_skip.value, (1, 1, d)), (b_, l_, d))
    return T.add(y, T.mul(skip, x))


def selective_scan_sequential(x: Tensor, ssm: SSMParams) -> Tensor:
    """Strictly ordered scan of a channel-major sequence x [d_inner, L]."""
    _check_scan_input(x, ssm)
    y = _selective_scan_batched(T.reshape(T.transpose(x, (1, 0)), (1, x.shape[1], x.shape[0])), ssm)
    return T.transpose(T.reshape(y, (x.shape[1], x.shape[0])), (1, 0))


def selective_scan_parallel(x: Tensor, ssm: SSMParams) -> Tensor:
    """Associative-scan evaluation; numerically equal to the sequential scan.

    Single-threaded reference and benchmark path: the result is detached
    from the tape.
    """
    _check_scan_input(x, ssm)
    xv = np.ascontiguousarray(x.array.T[None])  # [1, L, d_inner]
    av, bv, cv = _scan_coeffs_np(xv, ssm)
    h = linear_recurrence_parallel(av, bv, time_axis=1)
    y = np.matmul(h, cv[..., None])[..., 0] + ssm.d_skip.value.array * xv
    return Tensor(np.ascontiguousarray(y[0].T))


# ---------------------------------------------------------------------------
# Mamba block and encoder
# ---------------------------------------------------------------------------


def mamba_block_batched(u: Tensor, p: MambaBlockParams) -> Tensor:
    """Gated-MLP Mamba block over token-major input [B, L, d_model]."""
    if u.ndim != 3 or u.shape[2] != p.d_model:
        raise ShapeMismatch(f"mamba block input {u.shape} vs d_model {p.d_model}")
    d_inner = p.d_inner
    k = p.conv_weight.value.shape[1]
    z = T.matmul(u, p.in_proj.value)  # [B, L, 2*d_inner]
    z_main = T.slice_axis(z, 2, 0, d_inner)
    z_gate = T.slice_axis(z, 2, d_inner, 2 * d_inner)
    conv = T.depthwise_conv1d(
        T.transpose(z_main, (0, 2, 1)), p.conv_weight.value, p.conv_bias.value, pad_left=k - 1, pad_right=0
    )
    x_inner = T.silu(T.transpose(conv, (0, 2, 1)))
    y = _selective_scan_batched(x_inner, p.ssm)
    gated = T.mul(y, T.silu(z_gate))
    return T.matmul(gated, p.out_proj.value)


def mamba_block(u: Tensor, p: MambaBlockParams) -> Tensor:
    """Single-sequence block over u [L, d_model]."""
    if u.ndim != 2:
        raise ShapeMismatch(f"mamba_block expects [L, d_model], got {u.shape}")
    out = mamba_block_batched(T.reshape(u, (1,) + u.shape), p)
    return T.reshape(out, u.shape)


def encoder_forward_batched(tokens: Tensor, enc: EncoderParams) -> Tensor:
    """Pre-norm residual stack of Mamba blocks with a final RMSNorm."""
    u = tokens
    for block, gain in enc.layers:
        u = T.add(u, mamba_block_batched(T.rmsnorm(u, gain.value, NORM_EPS), block))
    return T.rmsnorm(u, enc.final_norm.value, NORM_EPS)


def encoder_forward(tokens: Tensor, enc: EncoderParams) -> Tensor:
    if tokens.ndim != 2:
        raise ShapeMismatch(f"encoder_forward expects [L, d_model], got {tokens.shape}")
    out = encoder_forward_batched(T.reshape(tokens, (1,) + tokens.shape), enc)
    return T.reshape(out, tokens.shape)
