"""Selective state-space core: the scan kernel, Mamba blocks, encoders.

The continuous system h' = A h + B x, y = C h, with input-dependent (B, C,
dt), is discretized per step as Mamba's reference scan does: A_bar =
exp(dt A) and B_bar = dt B. It is evaluated as a strict left-to-right
recurrence by one kernel, with the tape on or off. The kernel computes the
token-sized maps (B, C, dt) once per scan and the state-sized terms one
step at a time. The state is laid out state-major, [B, n_state, d_inner],
so every per-step pass over it (outer products, exp, update, contractions)
runs along the long channel axis rather than the short state axis.
The tape records a scan as a single op that keeps only the
state entering each 256-step segment. Its backward walks the segments in
reverse, recomputes the segment's states once, then walks its steps in
reverse, recomputing each step's a_bar, so training stores no
per-step coefficient arrays and at most one segment of states.
The work-efficient associative scan is kept as a single-threaded reference
for the equivalence check and ``bench-scan``; at the model's token counts it
is slower than the sequential kernel on a CPU. A is diagonal per inner
channel, stored as ``a_log`` [d_inner, n_state] with A = -exp(a_log) so the
state always decays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import InvalidConfig, ShapeMismatch
from .params import Parameter, uniform_init
from .tensor import Tensor

NORM_EPS = 1e-5


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
# The selective-scan kernel
# ---------------------------------------------------------------------------

_SEGMENT = 256  # time steps per state a taped scan keeps for its backward


class _StepCoeffs:
    """Scan coefficients of x [B, L, d_inner]: the token-sized selective maps
    for the whole sequence, the state-sized step terms one step at a time.

    The maps b = x W_b, c = x W_c, pre = x W_dt + dt_bias, dt = softplus(pre)
    and dtx = dt * x are computed once over the whole sequence. The products
    stay one [L, d_inner] GEMM per batch row: a single [B*L, d_inner] GEMM is
    no faster here and rounds differently at d_inner >= 512 in float32 with
    OpenBLAS, which would change the model's outputs.

    ``fill_a_bar(t)`` computes a_bar = exp(dt*A) for step t, and ``fill(t)``
    also computes bx = b * dtx (so B_bar = dt*B, as in Mamba), into two
    [B, n_state, d_inner] buffers allocated once, the only arrays that grow
    with the state. A is kept transposed, as ``a`` [n_state, d_inner], so
    the state-major outer products run along the long channel axis and cost
    about what a plain multiply does: 0.3-0.4 ns per element at
    [32, 256, 16] float32 (one thread), against 0.6-0.8 ns with the 16-wide
    state axis innermost.
    """

    def __init__(self, x: np.ndarray, weights: tuple[np.ndarray, ...]):
        w_b, w_c, w_dt, dt_bias, a, _ = weights
        b_, _, d = x.shape
        self.a = np.ascontiguousarray(a.T)
        self.b = np.matmul(x, w_b)
        self.c = np.matmul(x, w_c)
        self.pre = np.matmul(x, w_dt) + dt_bias
        # softplus(pre) = max(pre, 0) + log1p(exp(-|pre|)) in place: several
        # times faster than np.logaddexp(0, pre) on float32
        self.dt = np.abs(self.pre)
        np.negative(self.dt, out=self.dt)
        np.exp(self.dt, out=self.dt)
        np.log1p(self.dt, out=self.dt)
        self.dt += np.maximum(self.pre, 0.0)
        self.dtx = self.dt * x
        shape = (b_, self.a.shape[0], d)
        self.a_bar, self.bx = (np.empty(shape, dtype=x.dtype) for _ in range(2))

    def fill_a_bar(self, t: int) -> None:
        np.einsum("bd,nd->bnd", self.dt[:, t], self.a, out=self.a_bar)
        np.exp(self.a_bar, out=self.a_bar)

    def fill(self, t: int) -> None:
        self.fill_a_bar(t)
        np.einsum("bn,bd->bnd", self.b[:, t], self.dtx[:, t], out=self.bx)


def _scan_weights(ssm: SSMParams, dtype) -> tuple[np.ndarray, ...]:
    """The SSM parameters as the kernel reads them: (W_b, W_c, W_dt as a
    column, dt_bias, A = -exp(a_log), d_skip). They must have the input's dtype."""
    for p in ssm.parameters():
        if p.value.dtype != dtype:
            raise ShapeMismatch(f"scan: input dtype {dtype} != {p.name} dtype {p.value.dtype}")
    return (
        ssm.x_to_b.value.array,
        ssm.x_to_c.value.array,
        ssm.x_to_dt.value.array[:, None],
        ssm.dt_bias.value.array,
        -np.exp(ssm.a_log.value.array),
        ssm.d_skip.value.array,
    )


def _sequential_scan_np(x: np.ndarray, weights: tuple[np.ndarray, ...], saved: list | None = None) -> np.ndarray:
    """y_t = <c_t, h_t> + d_skip * x_t over x [B, L, d_inner], one step at a
    time, strictly left to right, with the state h [B, n_state, d_inner]. A
    list passed as ``saved`` receives the state entering each segment of
    ``_SEGMENT`` steps, which is all the backward pass keeps.
    """
    b_, l_, d = x.shape
    co = _StepCoeffs(x, weights)
    ys = np.empty((b_, l_, d), dtype=x.dtype)
    h = np.zeros(co.a_bar.shape, dtype=x.dtype)
    for t in range(l_):
        if saved is not None and t % _SEGMENT == 0:
            saved.append(h.copy())
        co.fill(t)
        h *= co.a_bar
        h += co.bx
        ys[:, t] = np.matmul(co.c[:, t, None, :], h)[:, 0, :]
    ys += weights[5] * x
    return ys


def _sequential_scan_vjp(g: np.ndarray, x: np.ndarray, weights: tuple[np.ndarray, ...], saved: list, weight_grads: bool):
    """Gradients of <g, y> for y from :func:`_sequential_scan_np`, as
    (x, x_to_b, x_to_c, x_to_dt, dt_bias, a_log, d_skip). Without
    ``weight_grads`` (every SSM parameter frozen) the six weight gradients
    are None and their per-step and final products are skipped; x's
    gradient is the same to the byte.

    Walks the segments in reverse. For each, it recomputes the segment's
    states once from its saved state, then walks the segment's steps in
    reverse, filling each step's a_bar again, since it is not stored.
    Both use the forward's operations, so they are bit-identical to the
    forward's; spent buffers are reused as scratch. The per-step adjoints of
    the token-sized maps are gathered over the whole sequence and turned
    into gradients once, after the walk.
    """
    b_, l_, d = x.shape
    w_b, w_c, w_dt, _, a, d_skip = weights
    n = a.shape[1]
    co = _StepCoeffs(x, weights)
    hs = np.empty((min(l_, _SEGMENT) + 1, b_, n, d), dtype=x.dtype)  # hs[i] = h_{seg+i-1}
    lam = np.empty((b_, n, d), dtype=x.dtype)  # state adjoint dL/dh_t
    g_b, g_c = np.empty_like(co.b), np.empty_like(co.c)
    rb = np.empty_like(co.dtx)  # dL/d(dtx)
    g_ua = np.empty_like(co.dtx)  # dL/du contracted with A over the state axis
    g_a = np.zeros_like(co.a)  # dL/dA, transposed as [n, d]
    carry = np.zeros((b_, n, d), dtype=x.dtype)  # a_bar_{t+1} * lam_{t+1}
    for k in range(len(saved) - 1, -1, -1):
        seg = k * _SEGMENT
        steps = min(_SEGMENT, l_ - seg)
        hs[0] = saved[k]
        for i in range(steps):
            co.fill(seg + i)
            np.multiply(co.a_bar, hs[i], out=hs[i + 1])
            hs[i + 1] += co.bx
        for i in range(steps - 1, -1, -1):
            t = seg + i
            co.fill_a_bar(t)
            # y_t = <c_t, h_t> and h_t = a_bar_t h_{t-1} + bx_t give the state
            # adjoint lam_t = c_t g_t + a_bar_{t+1} lam_{t+1}
            np.einsum("bn,bd->bnd", co.c[:, t], g[:, t], out=lam)
            lam += carry
            np.multiply(co.a_bar, lam, out=carry)
            g_c[:, t] = np.matmul(hs[i + 1], g[:, t, :, None])[..., 0]
            # bx = b * dtx
            rb[:, t] = np.matmul(co.b[:, t, None, :], lam)[:, 0, :]
            g_b[:, t] = np.matmul(lam, co.dtx[:, t, :, None])[..., 0]
            # a_bar = exp(u), so dL/du_t = lam_t h_{t-1} a_bar_t = carry h_{t-1};
            # it replaces h_t, which no later step reads
            g_u = np.multiply(carry, hs[i], out=hs[i + 1])
            # u = dt * A
            if weight_grads:
                g_a += np.einsum("bnd,bd->nd", g_u, co.dt[:, t])
            np.einsum("bnd,nd->bd", g_u, co.a, out=g_ua[:, t])
    # dt = softplus(pre); pre = x W_dt + dt_bias; dtx = dt * x
    g_pre = (x * rb + g_ua) * T._sigmoid(co.pre)
    g_s = g_pre.sum(axis=-1, keepdims=True)
    gx = g * d_skip
    gx += co.dt * rb + g_s * w_dt[:, 0] + g_b @ w_b.T + g_c @ w_c.T
    if not weight_grads:
        return (gx,) + (None,) * 6
    xf = x.reshape(-1, d).T
    g_wdt = (xf @ g_s.reshape(-1, 1)).reshape(-1)
    # A = -exp(a_log), so dA/da_log = A
    return gx, xf @ g_b.reshape(-1, n), xf @ g_c.reshape(-1, n), g_wdt, g_pre.sum(axis=(0, 1)), g_a.T * a, (g * x).sum(axis=(0, 1))


def _selective_scan_batched(x: Tensor, ssm: SSMParams) -> Tensor:
    """Selective scan over x [B, L, d_inner] -> [B, L, d_inner], skip included.

    Recorded on the tape as one op whose backward recomputes the
    coefficients instead of storing them, so a taped scan keeps only its
    input, the weights and one state per ``_SEGMENT`` steps.
    """
    if x.ndim != 3 or x.shape[2] != ssm.d_inner:
        raise ShapeMismatch(f"scan input must be [B, L, d_inner={ssm.d_inner}], got {x.shape}")
    xv = x.array
    weights = _scan_weights(ssm, xv.dtype)
    saved = [] if T.grad_enabled() else None  # a no-tape scan keeps no states
    ys = _sequential_scan_np(xv, weights, saved)

    parents = (x, *(p.value for p in (ssm.x_to_b, ssm.x_to_c, ssm.x_to_dt, ssm.dt_bias, ssm.a_log, ssm.d_skip)))
    weight_grads = any(p.requires for p in parents[1:])
    held: list = [None, None]  # (gradient, its adjoint): one adjoint per gradient

    def adjoint(g: np.ndarray) -> tuple[np.ndarray, ...]:
        if held[0] is not g:
            held[:] = g, _sequential_scan_vjp(g, xv, weights, saved, weight_grads)
        return held[1]

    return T.apply_op(ys, [(p, lambda g, i=i: adjoint(g)[i]) for i, p in enumerate(parents)])


# ---------------------------------------------------------------------------
# Associative (Blelloch) reference scan
# ---------------------------------------------------------------------------


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
    sequential kernel.
    """
    if a.shape != b.shape:
        raise ShapeMismatch(f"linear_recurrence_parallel: {a.shape} vs {b.shape}")
    a_m = np.moveaxis(a, time_axis, 0)
    b_m = np.moveaxis(b, time_axis, 0)
    lead = a_m.shape[0]
    out = _blelloch_columns(a_m.reshape(lead, -1), b_m.reshape(lead, -1))
    return np.moveaxis(out.reshape(a_m.shape), 0, time_axis)


# ---------------------------------------------------------------------------
# Channel-major selective scans
# ---------------------------------------------------------------------------


def _check_scan_input(x: Tensor, ssm: SSMParams) -> None:
    if x.ndim != 2 or x.shape[0] != ssm.d_inner:
        raise ShapeMismatch(f"scan input must be [d_inner, L], got {x.shape}")


def selective_scan_sequential(x: Tensor, ssm: SSMParams) -> Tensor:
    """Strictly ordered scan of a channel-major sequence x [d_inner, L]."""
    _check_scan_input(x, ssm)
    y = _selective_scan_batched(T.reshape(T.transpose(x, (1, 0)), (1, x.shape[1], x.shape[0])), ssm)
    return T.transpose(T.reshape(y, (x.shape[1], x.shape[0])), (1, 0))


def selective_scan_parallel(x: Tensor, ssm: SSMParams) -> Tensor:
    """Associative-scan evaluation; numerically equal to the sequential scan.

    Single-threaded reference and benchmark path: it shares the kernel's
    coefficients, and the result is detached from the tape.
    """
    _check_scan_input(x, ssm)
    xv = np.ascontiguousarray(x.array.T[None])  # [1, L, d_inner]
    co = _StepCoeffs(xv, _scan_weights(ssm, xv.dtype))
    a_bar, bx = np.empty((2, xv.shape[1], *co.bx.shape[1:]), dtype=xv.dtype)  # [L, n_state, d_inner]
    for t in range(xv.shape[1]):
        co.fill(t)
        a_bar[t], bx[t] = co.a_bar[0], co.bx[0]
    h = linear_recurrence_parallel(a_bar, bx, time_axis=0)
    y = np.matmul(co.c[0, :, None, :], h)[:, 0, :] + ssm.d_skip.value.array * xv[0]
    return Tensor(np.ascontiguousarray(y.T))


# ---------------------------------------------------------------------------
# Mamba block and encoder
# ---------------------------------------------------------------------------


def mamba_block_batched(u: Tensor, p: MambaBlockParams) -> Tensor:
    """Gated-MLP Mamba block over token-major input [B, L, d_model].

    The main and gate branches are two GEMMs of u against the column halves
    of ``in_proj``, so no [B, L, 2*d_inner] product, nor a copy of its
    halves, is made or taped. The gate branch is computed after the scan, so
    a no-tape call does not hold it while the scan runs.
    """
    if u.ndim != 3 or u.shape[2] != p.d_model:
        raise ShapeMismatch(f"mamba block input {u.shape} vs d_model {p.d_model}")
    d_inner = p.d_inner
    k = p.conv_weight.value.shape[1]
    w_in = p.in_proj.value  # [d_model, 2*d_inner]: main branch | gate branch
    z_main = T.matmul(u, T.slice_axis(w_in, 1, 0, d_inner))
    x_inner = T.silu(T.depthwise_conv1d(z_main, p.conv_weight.value, p.conv_bias.value, pad_left=k - 1, pad_right=0))
    y = _selective_scan_batched(x_inner, p.ssm)
    z_gate = T.matmul(u, T.slice_axis(w_in, 1, d_inner, 2 * d_inner))
    gated = T.mul(y, T.silu(z_gate))
    return T.matmul(gated, p.out_proj.value)


def encoder_forward_batched(tokens: Tensor, enc: EncoderParams) -> Tensor:
    """Pre-norm residual stack of Mamba blocks with a final RMSNorm."""
    u = tokens
    for block, gain in enc.layers:
        u = T.add(u, mamba_block_batched(T.rmsnorm(u, gain.value, NORM_EPS), block))
    return T.rmsnorm(u, enc.final_norm.value, NORM_EPS)

