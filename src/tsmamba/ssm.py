"""Selective state-space core: the scan kernel, Mamba blocks, encoders.

The continuous system h' = A h + B x, y = C h, with input-dependent (B, C,
dt), is discretized per step as Mamba's reference scan does: A_bar =
exp(dt A) and B_bar = dt B. It is evaluated as a strict left-to-right
recurrence by one kernel, with the tape on or off. The kernel computes the
token-sized maps (B, C, dt) once per scan and the state-sized terms one
step at a time. The state is laid out state-major, [rows, n_state,
d_inner], so every per-step pass over it (outer products, exp, update,
contractions) runs along the long channel axis rather than the short state
axis. The rows of a batch are independent, and the kernel steps them in
groups whose state fits ``SCAN_BUDGET`` bytes, one group after another, so
the state stays in cache, as Mamba's kernel keeps each tile's state in fast
memory. The tape records a scan as a single op that keeps only its input
and the weights. Its backward replays one group's states from h_0 = 0,
then walks the steps in reverse, recomputing each step's a_bar, so
training stores no per-step coefficient arrays and no state between the
forward and the backward, and the backward holds one group's states. A
whole residual pre-norm Mamba layer is one taped op too, which keeps its
input, RMSNorm's per-row scale and the scan's output y. So the tape keeps
one d_inner-wide array per layer, and the backward recomputes the
normalized input, both in_proj branches, the conv output, both SiLUs and
the gate, as Mamba's fused kernel recomputes a block's intermediates.
With the tape off, the layer op writes those intermediates, and the scan's
maps, step buffers, state and y, with ``out=`` into the workspace of the
outermost ``no_grad`` block (``tensor.Workspace``), as Mamba's kernel keeps
a block's intermediates in reused fast memory; so ``evaluate`` allocates
them once per call, not once per layer and group. Nothing the op returns
lies in the workspace, and the raw scan and the taped path allocate
fresh arrays.
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
from .params import NoDraws, Parameter, ParamTree, uniform_init
from .tensor import Tensor

NORM_EPS = 1e-5


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass
class SSMParams(ParamTree):
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


@dataclass
class MambaBlockParams(ParamTree):
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


@dataclass
class EncoderParams(ParamTree):
    layers: list[tuple[MambaBlockParams, Parameter]]  # (block, pre-norm gain)
    final_norm: Parameter


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def init_ssm_params(rng: np.random.Generator | NoDraws, d_inner: int, n_state: int, dtype, prefix: str) -> SSMParams:
    """Mamba's initial SSM maps; given ``NoDraws``, zero placeholders of
    their shapes, to be loaded over."""
    if d_inner < 1 or n_state < 1:
        raise InvalidConfig("d_inner and n_state must be >= 1")
    if isinstance(rng, NoDraws):
        a_log, dt_bias, d_skip = (Tensor(np.zeros(shape, dtype=dtype)) for shape in ((d_inner, n_state), d_inner, d_inner))
    else:
        # -A spans 1..n_state per state index; softplus(dt_bias) log-uniform in [1e-3, 1e-1]
        a = np.tile(np.arange(1, n_state + 1, dtype=np.float64), (d_inner, 1))
        dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=d_inner))
        a_log, dt_bias, d_skip = Tensor(np.log(a).astype(dtype)), Tensor(np.log(np.expm1(dt)).astype(dtype)), T.ones(d_inner, dtype=dtype)
    return SSMParams(
        a_log=Parameter(f"{prefix}.a_log", a_log),
        x_to_b=Parameter(f"{prefix}.x_to_b", uniform_init(rng, (d_inner, n_state), d_inner, dtype)),
        x_to_c=Parameter(f"{prefix}.x_to_c", uniform_init(rng, (d_inner, n_state), d_inner, dtype)),
        x_to_dt=Parameter(f"{prefix}.x_to_dt", uniform_init(rng, (d_inner,), d_inner, dtype)),
        dt_bias=Parameter(f"{prefix}.dt_bias", dt_bias),
        d_skip=Parameter(f"{prefix}.d_skip", d_skip),
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

# Bytes of scan state [rows, n_state, d_inner] that one group of batch rows
# may hold. The kernel steps a batch's rows in groups this small, one group
# after another: its per-step state buffers (and the backward's replayed
# states) then stay in a core's L2 cache, and its temporaries stay small
# enough to reuse freed memory instead of faulting in new pages. `evaluate`
# sizes its window groups with the same budget, so each runs as one row
# group, and a group is all of the split that `evaluate` holds at once; its
# no-tape intermediates live in one workspace sized by the largest group.
# Chosen by a sweep of `evaluate`'s group sizes, 64 KiB to 1 MiB at d_model
# 32 and 128.
SCAN_BUDGET = 256 * 1024


def rows_per_group(n_state: int, d_inner: int, itemsize: int) -> int:
    """Batch rows whose one-step state [rows, n_state, d_inner] fits
    ``SCAN_BUDGET`` bytes; 0 when one row's state already exceeds it."""
    return SCAN_BUDGET // (n_state * d_inner * itemsize)


class _StepCoeffs:
    """Scan coefficients of x [B, L, d_inner]: the token-sized selective maps
    for the whole sequence, the state-sized step terms one step at a time,
    for one group of batch rows at a time.

    The maps b = x W_b, c = x W_c, pre = x W_dt + dt_bias, dt = softplus(pre)
    and dtx = dt * x are computed once over the whole sequence and batch. The
    products stay one [L, d_inner] GEMM per batch row: a single
    [B*L, d_inner] GEMM is no faster here and rounds differently at
    d_inner >= 512 in float32 with OpenBLAS, which would change the model's
    outputs.

    The rows are stepped in groups of as many rows as keep one
    [rows, n_state, d_inner] state within ``SCAN_BUDGET`` bytes, and at least
    one; ``groups()`` walks them. ``fill_a_bar(t)`` computes a_bar =
    exp(dt*A) at step t for the current group, and ``fill(t)`` also computes
    bx = b * dtx (so B_bar = dt*B, as in Mamba), into two
    [rows, n_state, d_inner] buffers allocated once, the only arrays that
    grow with the state. Every row's arithmetic is the same in any group.
    Each array comes from the workspace ``ws`` (see ``tensor.Workspace``),
    under ``scan.``-prefixed slots; the default allocates them afresh. A
    is kept transposed, as ``a`` [n_state, d_inner], so the state-major
    outer products run along the long channel axis and cost about what a
    plain multiply does: 0.3-0.4 ns per element at [32, 256, 16] float32
    (one thread), against 0.6-0.8 ns with the 16-wide state axis innermost.
    """

    def __init__(self, x: np.ndarray, weights: tuple[np.ndarray, ...], ws: T.Workspace = T.FRESH):
        w_b, w_c, w_dt, dt_bias, a, _ = weights
        b_, l_, d = x.shape
        n = a.shape[1]

        def take(slot: str, shape: tuple[int, ...]) -> np.ndarray:
            return ws.take("scan." + slot, shape, x.dtype)

        self.a = np.ascontiguousarray(a.T)
        self.b = np.matmul(x, w_b, out=take("b", (b_, l_, n)))
        self.c = np.matmul(x, w_c, out=take("c", (b_, l_, n)))
        self.pre = np.add(np.matmul(x, w_dt), dt_bias, out=take("pre", x.shape))
        # softplus(pre) = max(pre, 0) + log1p(exp(-|pre|)) in place: several
        # times faster than np.logaddexp(0, pre) on float32
        self.dt = np.abs(self.pre, out=take("dt", x.shape))
        np.negative(self.dt, out=self.dt)
        np.exp(self.dt, out=self.dt)
        np.log1p(self.dt, out=self.dt)
        self.dt += np.maximum(self.pre, 0.0, out=take("dtx", x.shape))  # dtx's slot, before dtx is written
        self.dtx = np.multiply(self.dt, x, out=take("dtx", x.shape))
        rows = max(1, min(b_, rows_per_group(n, d, x.itemsize)))
        self.rows = slice(None)  # the current group's batch rows: all of them until groups() runs
        self.a_bar, self.bx = take("a_bar", (rows, n, d)), take("bx", (rows, n, d))

    def groups(self):
        """Make each group of batch rows the current one in turn, and yield
        its rows as a slice of the batch. A shorter last group gets step
        buffers of its size, as views."""
        b_, size = self.dt.shape[0], self.a_bar.shape[0]
        for start in range(0, b_, size):
            stop = min(start + size, b_)
            if stop - start < size:
                self.a_bar, self.bx = self.a_bar[: stop - start], self.bx[: stop - start]
            self.rows = slice(start, stop)
            yield self.rows

    def fill_a_bar(self, t: int) -> None:
        np.einsum("bd,nd->bnd", self.dt[self.rows, t], self.a, out=self.a_bar)
        np.exp(self.a_bar, out=self.a_bar)

    def fill(self, t: int) -> None:
        self.fill_a_bar(t)
        np.einsum("bn,bd->bnd", self.b[self.rows, t], self.dtx[self.rows, t], out=self.bx)


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


def _sequential_scan_np(x: np.ndarray, weights: tuple[np.ndarray, ...], ws: T.Workspace = T.FRESH) -> np.ndarray:
    """y_t = <c_t, h_t> + d_skip * x_t over x [B, L, d_inner], one step at a
    time, strictly left to right, with each row's state [n_state, d_inner]
    starting at h_0 = 0. The rows are stepped in groups (see
    :class:`_StepCoeffs`), and only the current group's state is held; the
    backward pass replays the rest. The coefficients, the state and y come
    from the workspace ``ws``; by default y is a fresh array.
    """
    b_, l_, d = x.shape
    co = _StepCoeffs(x, weights, ws)
    ys = ws.take("scan.y", x.shape, x.dtype)
    for rows in co.groups():
        h = ws.take("scan.h", co.a_bar.shape, x.dtype)
        h.fill(0.0)
        for t in range(l_):
            co.fill(t)
            h *= co.a_bar
            h += co.bx
            ys[rows, t] = np.matmul(co.c[rows, t, None, :], h)[:, 0, :]
    ys += np.multiply(weights[5], x, out=ws.take("scan.dtx", x.shape, x.dtype))  # no step reads dtx any more
    return ys


def _sequential_scan_vjp(g: np.ndarray, x: np.ndarray, weights: tuple[np.ndarray, ...], weight_grads: bool):
    """Gradients of <g, y> for y from :func:`_sequential_scan_np`, as
    (x, x_to_b, x_to_c, x_to_dt, dt_bias, a_log, d_skip). Without
    ``weight_grads`` (every SSM parameter frozen) the six weight gradients
    are None and their per-step and final products are skipped; x's
    gradient is the same to the byte.

    Takes the rows in the forward's groups. For each group it replays every
    state once from h_0 = 0 into ``hs`` [L+1, rows, n_state, d_inner], then
    walks the steps in reverse, filling each step's a_bar again, since it is
    not stored. Both use the forward's operations, so they are bit-identical
    to the forward's; spent buffers are reused as scratch. ``hs`` grows with
    L, as the tape's activations do, but holds one group: 33 states at
    lookback 512 and patch 16, 6.5 MB for the two rows of a group at the
    paper's d_inner 1536 in float32, where the whole batch of 64 would take
    208 MB. The per-step adjoints of the token-sized maps are written into
    whole-batch arrays and turned into gradients once, after the last
    group and after ``hs`` is let go, so x's and every weight gradient but
    a_log's are the same bytes in any grouping; a_log's sums its per-step
    terms over the rows group by group.
    """
    b_, l_, d = x.shape
    w_b, w_c, w_dt, _, a, d_skip = weights
    n = a.shape[1]
    co = _StepCoeffs(x, weights)
    hs = np.empty((l_ + 1, *co.a_bar.shape), dtype=x.dtype)  # hs[t] = h_{t-1}
    lam = np.empty(co.a_bar.shape, dtype=x.dtype)  # state adjoint dL/dh_t
    carry = np.empty(co.a_bar.shape, dtype=x.dtype)  # a_bar_{t+1} * lam_{t+1}
    g_b, g_c = np.empty_like(co.b), np.empty_like(co.c)
    rb = np.empty_like(co.dtx)  # dL/d(dtx)
    g_ua = np.empty_like(co.dtx)  # dL/du contracted with A over the state axis
    g_a = np.zeros_like(co.a)  # dL/dA, transposed as [n, d]
    for r in co.groups():
        k = co.a_bar.shape[0]  # the group's rows
        if k < lam.shape[0]:  # a shorter last group
            hs, lam, carry = hs[:, :k], lam[:k], carry[:k]
        hs[0] = 0.0
        for t in range(l_):
            co.fill(t)
            np.multiply(co.a_bar, hs[t], out=hs[t + 1])
            hs[t + 1] += co.bx
        carry[...] = 0.0
        for t in range(l_ - 1, -1, -1):
            co.fill_a_bar(t)
            # y_t = <c_t, h_t> and h_t = a_bar_t h_{t-1} + bx_t give the state
            # adjoint lam_t = c_t g_t + a_bar_{t+1} lam_{t+1}
            np.einsum("bn,bd->bnd", co.c[r, t], g[r, t], out=lam)
            lam += carry
            np.multiply(co.a_bar, lam, out=carry)
            g_c[r, t] = np.matmul(hs[t + 1], g[r, t, :, None])[..., 0]
            # bx = b * dtx
            rb[r, t] = np.matmul(co.b[r, t, None, :], lam)[:, 0, :]
            g_b[r, t] = np.matmul(lam, co.dtx[r, t, :, None])[..., 0]
            # a_bar = exp(u), so dL/du_t = lam_t h_{t-1} a_bar_t = carry h_{t-1};
            # it replaces h_t, which no later step reads
            g_u = np.multiply(carry, hs[t], out=hs[t + 1])
            # u = dt * A
            if weight_grads:
                g_a += np.einsum("bnd,bd->nd", g_u, co.dt[r, t])
            np.einsum("bnd,nd->bd", g_u, co.a, out=g_ua[r, t])
    # the replayed states go before the token-sized tail, which no longer
    # reads them (g_u is a view into hs, unbound when L or B is 0)
    hs = g_u = None
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


def _taped(out: np.ndarray, parents, adjoint_of) -> Tensor:
    """Record ``out`` as one op of ``parents`` whose VJPs share one adjoint:
    ``adjoint_of(g)`` returns every parent's gradient, in order, and runs
    once per gradient."""
    held: list = [None, None]  # (gradient, its adjoint)

    def adjoint(g: np.ndarray) -> tuple:
        if held[0] is not g:
            held[:] = g, adjoint_of(g)
        return held[1]

    return T.apply_op(out, [(p, lambda g, i=i: adjoint(g)[i]) for i, p in enumerate(parents)])


def _causal_conv(xv: np.ndarray, w: np.ndarray, b: np.ndarray, out=None, prod=None):
    """(output, taps, wk) of the block's causal depthwise conv of xv [B, L, d_inner],
    written into ``out`` through ``prod`` when they are given."""
    taps, wk = T._conv_layout(xv.shape, w, w.shape[1] - 1, 0)
    return T._conv_apply(xv, taps, wk, b, out, prod), taps, wk


def _selective_scan_batched(x: Tensor, ssm: SSMParams) -> Tensor:
    """Selective scan over x [B, L, d_inner] -> [B, L, d_inner], skip included.

    Recorded on the tape as one op that keeps only x and the weights: its
    backward recomputes the scan's coefficients and states instead of
    storing them. SSM weight gradients are computed only when those weights
    want them.
    """
    if x.ndim != 3 or x.shape[2] != ssm.d_inner:
        raise ShapeMismatch(f"scan input must be [B, L, d_inner={ssm.d_inner}], got {x.shape}")
    xv = x.array
    weights = _scan_weights(ssm, xv.dtype)
    parents = (x, *(p.value for p in (ssm.x_to_b, ssm.x_to_c, ssm.x_to_dt, ssm.dt_bias, ssm.a_log, ssm.d_skip)))
    weight_grads = any(p.requires for p in parents[1:])
    return _taped(_sequential_scan_np(xv, weights), parents, lambda g: _sequential_scan_vjp(g, xv, weights, weight_grads))


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


def _in_half(w_in: np.ndarray, half: int) -> np.ndarray:
    """in_proj's main (0) or gate (1) column half, as a contiguous copy."""
    d = w_in.shape[1] // 2
    return np.ascontiguousarray(w_in[:, half * d : (half + 1) * d])


def mamba_block_batched(x: Tensor, gain: Tensor, p: MambaBlockParams) -> Tensor:
    """One residual pre-norm Mamba layer over token-major x [B, L, d_model]:
    x + out_proj(SiLU(z_gate) * scan(SiLU(conv(z_main)))), where
    [z_main | z_gate] = RMSNorm(x, gain) @ in_proj.

    Each branch is one GEMM against a column half of ``in_proj``, so no
    [B, L, 2*d_inner] product is made. The gate branch is computed after the
    scan, so the scan runs beside neither z_gate nor z_main.

    Recorded on the tape as one op that keeps x, RMSNorm's per-row ``inv``
    and the scan's output y beside the weights: one d_inner-wide array. Its
    backward recomputes the normalized input, both branches (taking the
    column halves from the one weight, so no half is kept), the conv
    output, both SiLUs and the gate, with the forward's operations, so they
    are the forward's bytes; the scan's VJP replays its states. in_proj's
    gradient is one [d_model, 2*d_inner] array, and a weight's gradient is
    computed only when it wants one.

    The forward's [B, L, ·] intermediates and the scan's arrays are taken
    from ``tensor.workspace()``: the enclosing ``no_grad`` block's
    workspace with the tape off, fresh arrays with it on. The output is
    always a fresh array.
    """
    xv, gv = x.array, gain.array
    s_p = p.ssm
    parents = (x, gain, *(q.value for q in (p.in_proj, p.conv_weight, p.conv_bias, s_p.x_to_b, s_p.x_to_c, s_p.x_to_dt, s_p.dt_bias, s_p.a_log, s_p.d_skip, p.out_proj)))
    if xv.ndim != 3 or xv.shape[2] != p.d_model or gv.shape != (p.d_model,):
        raise ShapeMismatch(f"mamba layer: input {xv.shape} and gain {gv.shape} vs d_model {p.d_model}")
    if any(t.dtype != xv.dtype for t in parents):
        raise ShapeMismatch(f"mamba layer: every tensor must have the input's dtype {xv.dtype}")
    w_in, conv_w, conv_b, w_out = parents[2].array, parents[3].array, parents[4].array, parents[-1].array
    weights = _scan_weights(s_p, xv.dtype)
    weight_grads = any(t.requires for t in parents[5:-1])
    b_, l_, k = xv.shape
    d = p.d_inner
    ws = T.workspace()

    def take(slot: str, width: int) -> np.ndarray:  # a [B, L, width] array from the workspace
        return ws.take("layer." + slot, (b_, l_, width), xv.dtype)

    inv = 1.0 / np.sqrt(np.multiply(xv, xv, out=take("norm", k)).mean(axis=-1, keepdims=True) + NORM_EPS)

    def normed(out: np.ndarray | None = None) -> np.ndarray:  # RMSNorm's output, as [B*L, d_model]
        un = np.multiply(xv, inv, out=out)
        un *= gv
        return un.reshape(-1, k)

    # slot "a" holds z_main, then SiLU(conv) and then z_gate; slot "b" holds
    # the conv output, then SiLU(z_gate)
    un = normed(take("norm", k))
    z_main = np.matmul(un, _in_half(w_in, 0), out=take("a", d).reshape(-1, d)).reshape(b_, l_, d)
    c = _causal_conv(z_main, conv_w, conv_b, take("b", d), take("prod", d))[0]
    del z_main
    s = T._silu(c, take("a", d))
    del c
    y = _sequential_scan_np(s, weights, ws)
    del s
    gated = T._silu(np.matmul(un, _in_half(w_in, 1), out=take("a", d).reshape(-1, d)), take("b", d).reshape(-1, d))
    del un
    gated *= y.reshape(-1, d)
    out = gated @ w_out
    del gated
    out += xv.reshape(-1, k)  # the residual

    def adjoint_of(g: np.ndarray) -> tuple:
        g2, y2 = g.reshape(-1, k), y.reshape(-1, d)
        norm_grads = x.requires or gain.requires  # RMSNorm's input or gain wants a gradient
        un = normed()
        w_main, w_gate = _in_half(w_in, 0), _in_half(w_in, 1)
        gw_in = np.empty_like(w_in) if parents[2].requires else None
        # gate -> out_proj, then the gate branch's share of in_proj's
        # gradients, so that its gradient is let go before the scan's VJP
        z_gate = un @ w_gate
        sig = T._sigmoid(z_gate)
        s = z_gate * sig
        gw_out = (s * y2).T @ g2 if parents[-1].requires else None
        g_gate = g2 @ w_out.T
        gy = np.multiply(g_gate, s, out=s)
        g_gate *= y2
        g_gate *= T._dsilu(z_gate, sig)  # the gradient into z_gate
        del z_gate, sig
        if gw_in is not None:
            gw_in[:, d:] = un.T @ g_gate
        g_un = g_gate @ w_gate.T if norm_grads else None
        del g_gate
        # conv -> SiLU -> scan; the scan's VJP, where the backward peaks,
        # holds only z_main, s and ds of the branch's arrays
        z_main = (un @ w_main).reshape(b_, l_, d)
        del un
        c, taps, wk = _causal_conv(z_main, conv_w, conv_b)
        sig = T._sigmoid(c)
        s = c * sig
        ds = T._dsilu(c, sig)  # written over sig
        del c
        g_s, *g_ssm = _sequential_scan_vjp(gy.reshape(b_, l_, d), s, weights, weight_grads)
        del s, gy
        g_s *= ds  # the gradient into the conv output
        del ds
        gw_conv = T._conv_vjp_w(g_s, z_main, taps, conv_w) if parents[3].requires else None
        gb_conv = g_s.sum(axis=(0, 1)) if parents[4].requires else None
        g_main = T._conv_vjp_x(g_s, z_main, taps, wk).reshape(-1, d)
        del g_s, z_main
        if gw_in is not None:
            gw_in[:, :d] = normed().T @ g_main
        gx = g_gain = None
        if norm_grads:
            g_un = np.add(g_main @ w_main.T, g_un, out=g_un).reshape(xv.shape)
            if gain.requires:
                xn = xv * inv
                xn *= g_un
                g_gain = xn.reshape(-1, k).sum(axis=0)
            if x.requires:
                # RMSNorm: d/dx [x * inv] = inv * g - x * inv^3 / k * sum(g * x)
                gg = np.multiply(g_un, gv, out=g_un)
                gx = xv * (inv**3 / k)
                gx *= (gg * xv).sum(axis=-1, keepdims=True)
                gg *= inv
                gx = np.subtract(gg, gx, out=gx)
                gx += g  # the residual
        return (gx, g_gain, gw_in, gw_conv, gb_conv, *g_ssm, gw_out)

    return _taped(out.reshape(xv.shape), parents, adjoint_of)


def encoder_forward_batched(tokens: Tensor, enc: EncoderParams) -> Tensor:
    """Residual pre-norm Mamba layers, one taped op each (see
    :func:`mamba_block_batched`), then a final RMSNorm."""
    u = tokens
    for block, gain in enc.layers:
        u = mamba_block_batched(u, gain.value, block)
    return T.rmsnorm(u, enc.final_norm.value, NORM_EPS)
