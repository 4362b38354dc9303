"""Selective state-space core: the scan kernel, Mamba blocks, encoders.

The continuous system h' = A h + B x, y = C h, with input-dependent (B, C,
dt), is discretized per step as Mamba's reference scan does: A_bar =
exp(dt A) and B_bar = dt B. It is evaluated as a strict left-to-right
recurrence by one kernel, with the tape on or off. The kernel computes the
token-sized maps (B, C, dt) once per scan, and the state-sized terms
a_bar = exp(dt A) and B_bar x = B (dt * x) a block of steps at a time, one
call each per block; each step then only updates the state and writes its
output. The state is laid out state-major, [rows, n_state, d_inner], so
every pass over it (outer products, exp, update, contractions) runs along
the long channel axis rather than the short state axis. The rows of a batch
are independent, and the kernel steps them in groups whose state fits
``SCAN_BUDGET`` bytes, one group after another, so the state stays in cache,
as Mamba's kernel keeps each tile's state in fast memory. The same budget
sets the block: a group whose state fills it takes one step per block, and
a smaller group (a single forecast window, ``bench-scan``'s one row) as
many steps as fit, so per-call overhead no longer dominates it. The
kernel's VJP replays one group's states from h_0 = 0, filling the forward's
blocks, then walks the blocks in reverse, filling each block's a_bar and
dt * x again, so training stores no per-step coefficient arrays and no
state between the forward and the backward, and the backward holds one
group's states. Both list the SSM weights in ``SSMParams``' field order.
The tape records a scan only inside a residual pre-norm Mamba layer, one
taped op of its input, its RMSNorm gain and the block's ``parameters()``,
which keeps its input, RMSNorm's per-row scale and the scan's output y. So
the tape keeps one d_inner-wide array per layer, and the backward
recomputes the normalized input, both in_proj branches, the conv output,
both SiLUs and the gate, as Mamba's fused kernel recomputes a block's
intermediates.
What a layer's backward holds at once, in [B, L, d_inner] arrays: five
and one group's replayed states during the scan's reverse walk (the
layer's z_main, scan input s and scan gradient gy; the scan's dt and the
gradient into softplus's argument), and at most six in the scan's
token-sized tail, where softplus's argument is recomputed and every
product is written into a buffer the backward already owns.
With the tape off, the layer op writes those intermediates, and the scan's
maps, block buffers, a small group's time-major copies, state and y, with
``out=`` into the workspace of the
outermost ``no_grad`` block (``tensor.Workspace``), as Mamba's kernel keeps
a block's intermediates in reused fast memory; so ``evaluate`` allocates
them once per call, not once per layer and group. Nothing the op returns
lies in the workspace, and the raw scan, which records no tape, and the
taped path allocate fresh arrays.
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
# enough to reuse freed memory instead of faulting in new pages. The budget
# also sets how many steps' coefficients a group fills at once: a group whose
# state is smaller fills blocks of as many steps as fit, and one that fills
# it, one step at a time. `evaluate` sizes its window groups with the same
# budget, so each runs as one row group, and a group is all of the split that
# `evaluate` holds at once; its no-tape intermediates live in one workspace
# sized by the largest group. Chosen by a sweep of `evaluate`'s group sizes,
# 64 KiB to 1 MiB at d_model 32 and 128.
SCAN_BUDGET = 256 * 1024


def rows_per_group(n_state: int, d_inner: int, itemsize: int) -> int:
    """Batch rows whose one-step state [rows, n_state, d_inner] fits
    ``SCAN_BUDGET`` bytes; 0 when one row's state already exceeds it."""
    return SCAN_BUDGET // (n_state * d_inner * itemsize)


def steps_per_block(rows: int, length: int, n_state: int, d_inner: int, itemsize: int) -> int:
    """Steps whose coefficients [steps, rows, n_state, d_inner] a group of
    ``rows`` rows fills at once: as many as fit ``SCAN_BUDGET`` bytes, at
    most ``length`` and at least one, so a group whose state fills the budget
    steps one step at a time."""
    return max(1, min(length, SCAN_BUDGET // (rows * n_state * d_inner * itemsize)))


class _StepCoeffs:
    """Scan coefficients of x [B, L, d_inner]: the token-sized selective maps
    for the whole sequence, the state-sized step terms a block of steps at a
    time, for one group of batch rows at a time.

    The maps b = x W_b, c = x W_c and dt = softplus(x W_dt + dt_bias) are
    computed once over the whole sequence and batch; dt is the one
    token-sized array kept, and softplus runs in the buffer that held its
    argument, so that argument is never kept. The products stay one
    [L, d_inner] GEMM per batch row: a single [B*L, d_inner] GEMM is no
    faster here and rounds differently at d_inner >= 512 in float32 with
    OpenBLAS, which would change the model's outputs.

    The rows are stepped in groups of as many rows as keep one
    [rows, n_state, d_inner] state within ``SCAN_BUDGET`` bytes, and at least
    one (``group_rows``); ``groups()`` walks them. Each group's steps go in
    blocks of ``span`` steps (``steps_per_block``), which ``blocks()`` lists:
    ``fill_a_bar(t0, s)`` computes a_bar = exp(dt*A) for the s steps from t0
    into ``a_bar[:s]``, ``fill_dtx(t0, s)`` computes dtx = dt * x into
    ``dtx[:s]``, and ``fill(t0, s)`` computes both and bx = b * dtx (so
    B_bar = dt*B, as in Mamba) into ``bx[:s]``, one call each per block.
    ``a_bar`` and ``bx`` are [span, rows, n_state, d_inner] buffers allocated
    once, the only arrays that grow with the state, and stay within the
    budget wherever span > 1. The group's dt, x, b and c are read
    time-major, as ``dt_t``, ``x_t``, ``b_t`` and ``c_t`` [L, rows, ·], so a
    block reads contiguous memory: copies when span > 1, which happens only
    in a group whose state is smaller than the budget, and views of the
    maps when a single row's view is contiguous already or span is 1, so a
    group that fills the budget copies nothing and steps as a one-step loop
    would. Every element's arithmetic is the same
    at any span and in any group.

    Each array comes from the workspace ``ws`` (see ``tensor.Workspace``),
    under ``scan.``-prefixed slots; the default allocates them afresh. A
    is kept transposed, as ``a`` [n_state, d_inner], so the state-major
    outer products run along the long channel axis and cost about what a
    plain multiply does: 0.3-0.4 ns per element at [32, 256, 16] float32
    (one thread), against 0.6-0.8 ns with the 16-wide state axis innermost.
    """

    def __init__(self, x: np.ndarray, weights: tuple[np.ndarray, ...], ws: T.Workspace = T.FRESH):
        a, w_b, w_c, w_dt, dt_bias, _ = weights
        b_, l_, d = x.shape
        n = a.shape[1]

        def take(slot: str, shape: tuple[int, ...]) -> np.ndarray:
            return ws.take("scan." + slot, shape, x.dtype)

        self.x, self._take = x, take
        self.a = np.ascontiguousarray(a.T)
        self.b = np.matmul(x, w_b, out=take("b", (b_, l_, n)))
        self.c = np.matmul(x, w_c, out=take("c", (b_, l_, n)))
        pre = np.add(np.matmul(x, w_dt), dt_bias, out=take("dt", x.shape))
        # softplus(pre) = max(pre, 0) + log1p(exp(-|pre|)), written over pre:
        # several times faster than np.logaddexp(0, pre) on float32
        tail = np.abs(pre, out=take("tmp", x.shape))
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        self.dt = np.maximum(pre, 0.0, out=pre)
        self.dt += tail
        self.group_rows = rows = max(1, min(b_, rows_per_group(n, d, x.itemsize)))
        # the largest block, in rows x steps, of a full group and of a shorter last one
        last = b_ % rows or rows
        steps_rows = max(k * steps_per_block(k, l_, n, d, x.itemsize) for k in (rows, last))
        self._blocks = take("a_bar", (steps_rows * n * d,)), take("bx", (steps_rows * n * d,)), take("dtx", (steps_rows * d,))

    def groups(self):
        """Make each group of batch rows the current one in turn, and yield
        its rows as a slice of the batch: set its ``span``, its time-major
        maps and its block buffers, as views of the buffers allocated once."""
        (b_, l_, d), n = self.x.shape, self.a.shape[0]
        a_bar, bx, dtx = self._blocks
        for start in range(0, b_, self.group_rows):
            rows = slice(start, min(start + self.group_rows, b_))
            k = rows.stop - start
            self.span = span = steps_per_block(k, l_, n, d, self.x.itemsize)
            maps = {slot: m[rows].transpose(1, 0, 2) for slot, m in (("dt_t", self.dt), ("x_t", self.x), ("b_t", self.b), ("c_t", self.c))}
            for slot, view in maps.items():
                if span > 1 and not view.flags.c_contiguous:  # a small group of rows: a contiguous copy
                    maps[slot] = self._take(slot, view.shape)
                    maps[slot][...] = view
            self.dt_t, self.x_t, self.b_t, self.c_t = maps.values()
            self.a_bar = a_bar[: span * k * n * d].reshape(span, k, n, d)
            self.bx = bx[: span * k * n * d].reshape(span, k, n, d)
            self.dtx = dtx[: span * k * d].reshape(span, k, d)
            yield rows

    def blocks(self) -> list[tuple[int, int]]:
        """The current group's blocks as (first step, steps), in order."""
        l_ = self.x.shape[1]
        return [(t0, min(self.span, l_ - t0)) for t0 in range(0, l_, self.span)]

    def fill_a_bar(self, t0: int, s: int) -> None:
        a_bar = self.a_bar[:s]
        np.einsum("sbd,nd->sbnd", self.dt_t[t0 : t0 + s], self.a, out=a_bar)
        np.exp(a_bar, out=a_bar)

    def fill_dtx(self, t0: int, s: int) -> np.ndarray:
        return np.multiply(self.dt_t[t0 : t0 + s], self.x_t[t0 : t0 + s], out=self.dtx[:s])

    def fill(self, t0: int, s: int) -> None:
        self.fill_a_bar(t0, s)
        np.einsum("sbn,sbd->sbnd", self.b_t[t0 : t0 + s], self.fill_dtx(t0, s), out=self.bx[:s])


def _scan_weights(ssm: SSMParams, dtype) -> tuple[np.ndarray, ...]:
    """The SSM parameters as the kernel reads them, in ``SSMParams``' order:
    (A = -exp(a_log), W_b, W_c, W_dt as a column, dt_bias, d_skip). They must
    have the input's dtype."""
    for p in ssm.parameters():
        if p.value.dtype != dtype:
            raise ShapeMismatch(f"scan: input dtype {dtype} != {p.name} dtype {p.value.dtype}")
    a_log, w_b, w_c, w_dt, dt_bias, d_skip = (p.value.array for p in ssm.parameters())
    return -np.exp(a_log), w_b, w_c, w_dt[:, None], dt_bias, d_skip


def _sequential_scan_np(x: np.ndarray, weights: tuple[np.ndarray, ...], ws: T.Workspace = T.FRESH) -> np.ndarray:
    """y_t = <c_t, h_t> + d_skip * x_t over x [B, L, d_inner], one step at a
    time, strictly left to right, with each row's state [n_state, d_inner]
    starting at h_0 = 0. The rows are stepped in groups and the steps'
    coefficients filled a block at a time (see :class:`_StepCoeffs`); each
    step then only updates the state and writes its y_t into place. Only the
    current group's state is held; the backward pass replays the rest. The
    coefficients, the state and y come from the workspace ``ws``; by
    default y is a fresh array.
    """
    b_, l_, d = x.shape
    co = _StepCoeffs(x, weights, ws)
    ys = ws.take("scan.y", x.shape, x.dtype)
    for rows in co.groups():
        h = ws.take("scan.h", co.a_bar.shape[1:], x.dtype)
        h.fill(0.0)
        for t0, s in co.blocks():
            co.fill(t0, s)
            for j, t in enumerate(range(t0, t0 + s)):
                h *= co.a_bar[j]
                h += co.bx[j]
                np.matmul(co.c_t[t, :, None, :], h, out=ys[rows, t, None, :])
    ys += np.multiply(weights[5], x, out=ws.take("scan.tmp", x.shape, x.dtype))  # softplus's slot, free again
    return ys


def _sequential_scan_vjp(g: np.ndarray, x: np.ndarray, weights: tuple[np.ndarray, ...], weight_grads: bool):
    """Gradients of <g, y> for y from :func:`_sequential_scan_np`: x's,
    then the six weights' in ``SSMParams``' order (a_log, x_to_b, x_to_c,
    x_to_dt, dt_bias, d_skip), as :func:`_scan_weights` lists them. Without
    ``weight_grads`` (every SSM parameter frozen) the six weight gradients
    are None and their per-step and final products are skipped; x's
    gradient is the same to the byte.

    Takes the rows in the forward's groups and the steps in the forward's
    blocks. For each group it replays every state once from h_0 = 0 into
    ``hs`` [L+1, rows, n_state, d_inner], filling each block's a_bar and bx
    and stepping only the recurrence through it, then walks the blocks in
    reverse: it fills a block's a_bar and dtx again, since they are not
    stored, and walks that block's steps backwards. So the forward, the
    replay and the reverse walk share one fill per block and phase, and use
    the forward's operations, so they are bit-identical to the forward's;
    spent buffers are reused as scratch. The replay holds ``hs`` and a
    block's a_bar and bx, the reverse walk ``hs``, a block's a_bar and dtx,
    and the state adjoint and its carry, [rows, n_state, d_inner] each.
    ``hs`` grows with L, as the tape's activations do, but holds one group:
    33 states at lookback 512 and patch 16, 6.5 MB for the two rows of a
    group at the paper's d_inner 1536 in float32, where the whole batch of
    64 would take 208 MB. The block buffers stay within ``SCAN_BUDGET``
    wherever a block holds more than one step. The
    per-step adjoints of the token-sized maps are written into whole-batch
    arrays and turned into gradients once, after the last group and after
    ``hs`` is let go, so x's and every weight gradient but a_log's are the
    same bytes in any grouping; a_log's sums its per-step terms over the
    rows group by group, one step at a time at any block length.

    Beside g and x, the walk holds two token-sized ([B, L, d_inner])
    arrays: dt, and ``g_pre``, the gradient into softplus's argument pre =
    x W_dt + dt_bias short of its sigmoid factor, and a small group its
    time-major copies of dt, x, b and c. Each step adds its share of the
    adjoint rb of dtx = dt * x to both and writes x's share, dt * rb, over
    that step's dt, which no earlier step reads. The tail recomputes
    pre, for its sigmoid, into the one token-sized temporary it holds at a
    time, sums x's gradient in dt's buffer and writes it over g_pre's once
    that is summed; every sum is added in the order the written-out formula
    gives, so the bytes are those of the whole-batch formula.
    """
    b_, l_, d = x.shape
    a, w_b, w_c, w_dt, dt_bias, d_skip = weights
    n = a.shape[1]
    co = _StepCoeffs(x, weights)
    rows = co.group_rows
    hs = np.empty((l_ + 1, rows, n, d), dtype=x.dtype)  # hs[t] = h_{t-1}
    lam = np.empty((rows, n, d), dtype=x.dtype)  # state adjoint dL/dh_t
    carry = np.empty((rows, n, d), dtype=x.dtype)  # a_bar_{t+1} * lam_{t+1}
    g_b, g_c = np.empty_like(co.b), np.empty_like(co.c)
    g_pre = np.empty_like(x)  # dL/d(pre), short of its sigmoid(pre) factor until the tail
    g_a = np.zeros_like(co.a)  # dL/dA, transposed as [n, d]
    for r in co.groups():
        k = r.stop - r.start
        if k < lam.shape[0]:  # a shorter last group
            hs, lam, carry = hs[:, :k], lam[:k], carry[:k]
        hs[0] = 0.0
        blocks = co.blocks()
        for t0, s in blocks:
            co.fill(t0, s)
            for j, t in enumerate(range(t0, t0 + s)):
                np.multiply(co.a_bar[j], hs[t], out=hs[t + 1])
                hs[t + 1] += co.bx[j]
        carry[...] = 0.0
        for t0, s in reversed(blocks):
            co.fill_a_bar(t0, s)
            dtx = co.fill_dtx(t0, s)
            for j in range(s - 1, -1, -1):
                t = t0 + j
                # y_t = <c_t, h_t> and h_t = a_bar_t h_{t-1} + bx_t give the state
                # adjoint lam_t = c_t g_t + a_bar_{t+1} lam_{t+1}
                np.einsum("bn,bd->bnd", co.c_t[t], g[r, t], out=lam)
                lam += carry
                np.multiply(co.a_bar[j], lam, out=carry)
                g_c[r, t] = np.matmul(hs[t + 1], g[r, t, :, None])[..., 0]
                # bx = b * dtx
                rb = np.matmul(co.b_t[t, :, None, :], lam)[:, 0, :]  # dL/d(dtx_t)
                g_b[r, t] = np.matmul(lam, dtx[j, :, :, None])[..., 0]
                # a_bar = exp(u), so dL/du_t = lam_t h_{t-1} a_bar_t = carry h_{t-1};
                # it replaces h_t, which no later step reads
                g_u = np.multiply(carry, hs[t], out=hs[t + 1])
                # u = dt * A
                if weight_grads:
                    g_a += np.einsum("bnd,bd->nd", g_u, co.dt[r, t])
                np.einsum("bnd,nd->bd", g_u, co.a, out=g_pre[r, t])
                # dtx = dt * x, so pre's share through dt adds x * rb, and x's share
                # dt * rb is written over this step's dt, which no step left to
                # walk reads
                g_pre[r, t] += np.multiply(co.x[r, t], rb, out=dtx[j])
                co.dt[r, t] *= rb
    # the replayed states go before the token-sized tail, which no longer
    # reads them (g_u is a view into hs, unbound when L or B is 0)
    hs = g_u = None
    # dt = softplus(pre) and pre = x W_dt + dt_bias, recomputed as the
    # forward computed it
    pre = np.add(np.matmul(x, w_dt), dt_bias)
    g_pre *= T._sigmoid(pre, out=pre)
    del pre
    g_s = g_pre.sum(axis=-1, keepdims=True)
    g_bias = g_pre.sum(axis=(0, 1)) if weight_grads else None
    # x's gradient, g * d_skip + (((dt * rb + g_s w_dt) + g_b W_b^T) + g_c W_c^T),
    # summed in dt's buffer and then in g_pre's, which nothing reads now
    part = co.dt
    part += g_s * w_dt[:, 0]
    part += g_b @ w_b.T
    part += g_c @ w_c.T
    gx = np.multiply(g, d_skip, out=g_pre)
    gx += part
    if not weight_grads:
        return (gx,) + (None,) * 6
    xf = x.reshape(-1, d).T
    g_wdt = (xf @ g_s.reshape(-1, 1)).reshape(-1)
    # A = -exp(a_log), so dA/da_log = A
    return gx, g_a.T * a, xf @ g_b.reshape(-1, n), xf @ g_c.reshape(-1, n), g_wdt, g_bias, (g * x).sum(axis=(0, 1))


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


def _token_major(x: Tensor, ssm: SSMParams) -> np.ndarray:
    """A channel-major scan input x [d_inner, L] as the kernel's [1, L, d_inner]."""
    if x.ndim != 2 or x.shape[0] != ssm.d_inner:
        raise ShapeMismatch(f"scan input must be [d_inner, L], got {x.shape}")
    return np.ascontiguousarray(x.array.T[None])


def selective_scan_sequential(x: Tensor, ssm: SSMParams) -> Tensor:
    """Strictly ordered scan of a channel-major sequence x [d_inner, L] by
    the layer op's kernel; like :func:`selective_scan_parallel`, it records
    no tape."""
    xv = _token_major(x, ssm)
    return Tensor(np.ascontiguousarray(_sequential_scan_np(xv, _scan_weights(ssm, xv.dtype))[0].T))


def selective_scan_parallel(x: Tensor, ssm: SSMParams) -> Tensor:
    """Associative-scan evaluation; numerically equal to the sequential scan.

    Single-threaded reference and benchmark path: it shares the kernel's
    coefficients, and the result is detached from the tape.
    """
    xv = _token_major(x, ssm)
    co = _StepCoeffs(xv, _scan_weights(ssm, xv.dtype))
    a_bar, bx = np.empty((2, xv.shape[1], *co.a.shape), dtype=xv.dtype)  # [L, n_state, d_inner]
    for _ in co.groups():  # the one row
        for t0, s in co.blocks():
            co.fill(t0, s)
            a_bar[t0 : t0 + s], bx[t0 : t0 + s] = co.a_bar[:s, 0], co.bx[:s, 0]
    h = linear_recurrence_parallel(a_bar, bx, time_axis=0)
    y = np.matmul(co.c[0, :, None, :], h)[:, 0, :] + ssm.d_skip.value.array * xv[0]
    return Tensor(np.ascontiguousarray(y.T))


# ---------------------------------------------------------------------------
# Mamba block and encoder
# ---------------------------------------------------------------------------


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


def mamba_block_batched(x: Tensor, gain: Tensor, p: MambaBlockParams) -> Tensor:
    """One residual pre-norm Mamba layer over token-major x [B, L, d_model]:
    x + out_proj(SiLU(z_gate) * scan(SiLU(conv(z_main)))), where
    [z_main | z_gate] = RMSNorm(x, gain) @ in_proj.

    Each branch is one GEMM against a column half of ``in_proj``, read as a
    view, so neither a [B, L, 2*d_inner] product nor a copy of a half is
    made. The gate branch is computed after the scan, so the scan runs
    beside neither z_gate nor z_main.

    Recorded on the tape as one op that keeps x, RMSNorm's per-row ``inv``
    and the scan's output y beside the weights: one d_inner-wide array. Its
    backward recomputes the normalized input, both branches, the conv
    output, both SiLUs and the gate, with the forward's operations, so they
    are the forward's bytes; the scan's VJP replays its states. Across the
    scan's VJP, where the backward peaks, it holds z_main, the scan's input
    and its gradient, and it recomputes the conv output and SiLU's
    derivative after it. in_proj's gradient is one [d_model, 2*d_inner]
    array, and a weight's gradient is computed only when it wants one.

    The forward's [B, L, ·] intermediates and the scan's arrays are taken
    from ``tensor.workspace()``: the enclosing ``no_grad`` block's
    workspace with the tape off, fresh arrays with it on. The output is
    always a fresh array.
    """
    xv, gv = x.array, gain.array
    parents = (x, gain, *(q.value for q in p.parameters()))
    if xv.ndim != 3 or xv.shape[2] != p.d_model or gv.shape != (p.d_model,):
        raise ShapeMismatch(f"mamba layer: input {xv.shape} and gain {gv.shape} vs d_model {p.d_model}")
    if any(t.dtype != xv.dtype for t in parents):
        raise ShapeMismatch(f"mamba layer: every tensor must have the input's dtype {xv.dtype}")
    w_in, w_out = p.in_proj.value.array, p.out_proj.value.array
    conv_w, conv_b = p.conv_weight.value.array, p.conv_bias.value.array
    weights = _scan_weights(p.ssm, xv.dtype)
    weight_grads = any(q.trainable for q in p.ssm.parameters())
    b_, l_, k = xv.shape
    d = p.d_inner
    w_main, w_gate = w_in[:, :d], w_in[:, d:]
    ws = T.workspace()

    def take(slot: str, width: int) -> np.ndarray:  # a [B, L, width] array from the workspace
        return ws.take("layer." + slot, (b_, l_, width), xv.dtype)

    inv = T._rmsnorm_inv(xv, NORM_EPS, take("norm", k))

    def normed(out: np.ndarray | None = None) -> np.ndarray:  # RMSNorm's output, as [B*L, d_model]
        return T._rmsnorm_out(xv, inv, gv, out).reshape(-1, k)

    # slot "a" holds z_main, then SiLU(conv) and then z_gate; slot "b" holds
    # the conv output, then SiLU(z_gate)
    un = normed(take("norm", k))
    z_main = np.matmul(un, w_main, out=take("a", d).reshape(-1, d)).reshape(b_, l_, d)
    c = _causal_conv(z_main, conv_w, conv_b, take("b", d), take("prod", d))[0]
    del z_main
    s = T._silu(c, take("a", d))
    del c
    y = _sequential_scan_np(s, weights, ws)
    del s
    gated = T._silu(np.matmul(un, w_gate, out=take("a", d).reshape(-1, d)), take("b", d).reshape(-1, d))
    del un
    gated *= y.reshape(-1, d)
    out = gated @ w_out
    del gated
    out += xv.reshape(-1, k)  # the residual

    def adjoint_of(g: np.ndarray) -> tuple:
        g2, y2 = g.reshape(-1, k), y.reshape(-1, d)
        norm_grads = x.requires or gain.requires  # RMSNorm's input or gain wants a gradient
        un = normed()
        gw_in = np.empty_like(w_in) if p.in_proj.trainable else None
        # gate -> out_proj, then the gate branch's share of in_proj's
        # gradients, so that its gradient is let go before the scan's VJP
        z_gate = un @ w_gate
        sig = T._sigmoid(z_gate)
        s = z_gate * sig
        gw_out = (s * y2).T @ g2 if p.out_proj.trainable else None
        g_gate = g2 @ w_out.T
        gy = np.multiply(g_gate, s, out=s)
        g_gate *= y2
        g_gate *= T._dsilu(z_gate, sig)  # the gradient into z_gate
        del z_gate, sig
        if gw_in is not None:
            gw_in[:, d:] = un.T @ g_gate
        g_un = g_gate @ w_gate.T if norm_grads else None
        del g_gate
        # conv -> SiLU -> scan; across the scan's VJP, where the backward
        # peaks, the layer holds only z_main, s and gy of the branch's
        # arrays, and the conv output and SiLU's derivative are computed
        # again after it
        z_main = (un @ w_main).reshape(b_, l_, d)
        del un
        s = T._silu(_causal_conv(z_main, conv_w, conv_b)[0])
        g_s, *g_ssm = _sequential_scan_vjp(gy.reshape(b_, l_, d), s, weights, weight_grads)
        del s, gy
        c, taps, wk = _causal_conv(z_main, conv_w, conv_b)
        g_s *= T._dsilu(c, T._sigmoid(c))  # the gradient into the conv output
        del c
        gw_conv = T._conv_vjp_w(g_s, z_main, taps, conv_w) if p.conv_weight.trainable else None
        gb_conv = g_s.sum(axis=(0, 1)) if p.conv_bias.trainable else None
        g_main = T._conv_vjp_x(g_s, z_main, taps, wk).reshape(-1, d)
        del g_s, z_main
        if gw_in is not None:
            gw_in[:, :d] = normed().T @ g_main
        gx = g_gain = None
        if norm_grads:
            g_un = np.add(g_main @ w_main.T, g_un, out=g_un).reshape(xv.shape)
            if gain.requires:
                g_gain = T._rmsnorm_vjp_gain(g_un, xv, inv)
            if x.requires:
                gx = T._rmsnorm_vjp_x(g_un, xv, inv, gv, out=g_un)
                gx += g  # the residual
        # the block's gradients in ``MambaBlockParams``' field order, as parents lists them
        return (gx, g_gain, gw_in, gw_conv, gb_conv, *g_ssm, gw_out)

    return _taped(out.reshape(xv.shape), parents, adjoint_of)


def encoder_forward_batched(tokens: Tensor, enc: EncoderParams) -> Tensor:
    """Residual pre-norm Mamba layers, one taped op each (see
    :func:`mamba_block_batched`), then a final RMSNorm."""
    u = tokens
    for block, gain in enc.layers:
        u = mamba_block_batched(u, gain.value, block)
    return T.rmsnorm(u, enc.final_norm.value, NORM_EPS)
