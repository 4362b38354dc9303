"""Dense tensors with tape-based reverse-mode differentiation.

Values are numpy arrays wrapped in :class:`Tensor`. Operations that see at
least one grad-requiring input record (parent, vjp) pairs on their output;
:func:`backward` walks that graph in reverse topological order, deposits
gradients into :class:`~tsmamba.params.Parameter` slots and consumes the
graph as it goes, so each activation is freed once its VJPs have run.

Broadcasting is never implicit: elementwise ops demand identical shapes, and
no op widens a scalar or a per-row statistic to an activation's shape. A
bias enters only through :func:`linear`; the Huber loss
(``train.huber_loss``) and RevIN's inverse (``model.revin_denormalize``) are
single ops that apply their constants and per-row stats inside. Dtypes must
agree as well, so a float32 run cannot silently promote to float64 halfway
through a graph.

The tape holds only what each backward reads: a VJP keeps its op's inputs
(or a layout of them the op built, as depthwise_conv1d's taps) and per-row
scalars (rmsnorm's ``inv``), and recomputes any term that costs one pass
over them (silu's sigmoid, gelu's cdf and pdf, rmsnorm's normalized input)
instead of keeping it. The recomputation repeats the forward's operations,
so it gives the forward's bytes. softmax keeps its output, which is all its
backward reads.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import GraphError, InvalidConfig, ShapeMismatch

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class Workspace:
    """Scratch arrays that the no-tape forward writes into with ``out=``
    instead of allocating them afresh.

    ``take(slot, shape, dtype)`` returns a C-ordered array of ``shape`` over
    the slot's buffer for that dtype. The buffer is allocated at the first
    request and grows only for a larger one, so a smaller request, such as
    a shorter group of rows, gets a leading part of it. Its contents are
    whatever the last user left. A caller holds a slot's array only until
    it takes that slot again, and returns nothing that lies in a slot.

    ``FRESH`` is the workspace that keeps no buffers: each ``take`` is a new
    ``np.empty``, which is how the taped path and the raw scan allocate.
    """

    def __init__(self, reuse: bool = True):
        self._buffers: dict | None = {} if reuse else None

    def take(self, slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        if self._buffers is None:
            return np.empty(shape, dtype=dtype)
        size = math.prod(shape)
        key = (slot, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


FRESH = Workspace(reuse=False)


def workspace() -> Workspace:
    """The workspace of the outermost open ``no_grad`` block on this thread,
    or ``FRESH`` while the tape records."""
    return getattr(_state, "workspace", None) or FRESH


class no_grad:
    """Context manager that suspends tape recording on this thread.

    The outermost block owns one :class:`Workspace`, which every no-tape
    layer op inside it reuses and which is let go when the block exits.
    """

    def __enter__(self):
        self._prev = grad_enabled()
        if self._prev:
            _state.workspace = Workspace()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        if self._prev:
            _state.workspace = None
        return False


class Tensor:
    """n-dimensional float value, optionally part of a tape.

    ``array`` is never written in place. ``pairs`` holds ``(parent, vjp)``
    tuples where ``vjp(grad_out)`` returns the gradient contribution for that
    parent; leaves have an empty tuple. :func:`backward` empties the
    ``pairs`` of every node it passes, after which the graph cannot be
    differentiated again.
    """

    __slots__ = ("array", "pairs", "requires")

    def __init__(self, array: np.ndarray, pairs=(), requires: bool = False):
        self.array = array
        self.pairs = pairs
        self.requires = requires

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def ndim(self) -> int:
        return self.array.ndim

    @property
    def size(self) -> int:
        return self.array.size

    @property
    def dtype(self):
        return self.array.dtype

    def item(self) -> float:
        return float(self.array.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


def tensor(data, dtype=np.float64) -> Tensor:
    """Build a leaf tensor; validates dimensions are positive."""
    arr = np.asarray(data, dtype=dtype)
    if any(d <= 0 for d in arr.shape):
        raise InvalidConfig(f"tensor dimensions must be positive, got {arr.shape}")
    return Tensor(arr)


def zeros(shape, dtype=np.float64) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype))


def ones(shape, dtype=np.float64) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype))


def apply_op(out_array: np.ndarray, pairs: Sequence[tuple[Tensor, Callable]]) -> Tensor:
    """Wrap an op result, recording only grad-requiring parents."""
    if grad_enabled():
        kept = tuple((p, fn) for p, fn in pairs if p.requires)
        if kept:
            return Tensor(out_array, pairs=kept, requires=True)
    return Tensor(out_array)


def _check_binary(a: Tensor, b: Tensor, op: str) -> None:
    if a.array.shape != b.array.shape:
        raise ShapeMismatch(f"{op}: shapes {a.array.shape} and {b.array.shape} differ")
    if a.array.dtype != b.array.dtype:
        raise ShapeMismatch(f"{op}: dtypes {a.array.dtype} and {b.array.dtype} differ")


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "add")
    return apply_op(a.array + b.array, [(a, lambda g: g), (b, lambda g: g)])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "sub")
    return apply_op(a.array - b.array, [(a, lambda g: g), (b, lambda g: -g)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "mul")
    av, bv = a.array, b.array
    return apply_op(av * bv, [(a, lambda g: g * bv), (b, lambda g: g * av)])


def scale(a: Tensor, c: float) -> Tensor:
    return apply_op(a.array * c, [(a, lambda g: g * c)])


# ---------------------------------------------------------------------------
# Structural ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    src = a.array.shape
    return apply_op(a.array.reshape(shape), [(a, lambda g: g.reshape(src))])


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return apply_op(np.ascontiguousarray(a.array.transpose(axes)), [(a, lambda g: g.transpose(inv))])


def flip(a: Tensor, axis: int) -> Tensor:
    return apply_op(np.ascontiguousarray(np.flip(a.array, axis=axis)), [(a, lambda g: np.flip(g, axis=axis))])


def concat(ts: Sequence[Tensor], axis: int) -> Tensor:
    arrs = [t.array for t in ts]
    sizes = [arr.shape[axis] for arr in arrs]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        def vjp(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            return g[tuple(sl)]

        return vjp

    return apply_op(np.concatenate(arrs, axis=axis), [(t, make_vjp(i)) for i, t in enumerate(ts)])


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    src_shape = a.array.shape

    def vjp(g):
        full = np.zeros(src_shape, dtype=g.dtype)
        full[sl] = g
        return full

    return apply_op(np.ascontiguousarray(a.array[sl]), [(a, vjp)])


# ---------------------------------------------------------------------------
# Reductions and linear algebra
# ---------------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    src = a.array
    return apply_op(np.asarray(src.sum()), [(a, lambda g: np.broadcast_to(g, src.shape).astype(src.dtype))])


def mean_all(a: Tensor) -> Tensor:
    src = a.array
    n = src.size
    return apply_op(
        np.asarray(src.mean()),
        [(a, lambda g: np.broadcast_to(g / n, src.shape).astype(src.dtype))],
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b. A 2-D ``b`` is a weight, applied by :func:`linear` without a
    bias; otherwise both operands must have the same batch axes."""
    av, bv = a.array, b.array
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeMismatch("matmul expects operands with ndim >= 2")
    if bv.ndim == 2:
        return linear(a, b)
    if av.shape[:-2] != bv.shape[:-2] or av.shape[-1] != bv.shape[-2]:
        raise ShapeMismatch(f"matmul: {av.shape} @ {bv.shape} needs equal batch axes and inner dims")
    if av.dtype != bv.dtype:
        raise ShapeMismatch(f"matmul: dtypes {av.dtype} and {bv.dtype} differ")
    return apply_op(
        np.matmul(av, bv),
        [(a, lambda g: np.matmul(g, np.swapaxes(bv, -1, -2))), (b, lambda g: np.matmul(np.swapaxes(av, -1, -2), g))],
    )


def _sum_leading(g: np.ndarray) -> np.ndarray:
    """g summed over every axis but the last, one axis at a time, first to
    last. An axis of size 1 is dropped, not summed, so a -0.0 stays -0.0."""
    while g.ndim > 1:
        g = g[0] if g.shape[0] == 1 else g.sum(axis=0)
    return g


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w + b for a weight w [K, N] and a bias b [N] (or no bias), over
    every leading index of x.

    x's leading axes fold into the GEMM's rows, so the forward and both
    VJPs are one GEMM each, and w's VJP sums over the rows inside the GEMM
    instead of through a [B, K, N] temporary. The bias is added in place,
    and its VJP is :func:`_sum_leading`."""
    xv, wv = x.array, w.array
    if wv.ndim != 2 or xv.shape[-1:] != wv.shape[:1] or (b is not None and b.shape != wv.shape[1:]):
        raise ShapeMismatch(f"linear: x {xv.shape}, weight {wv.shape} and bias {None if b is None else b.shape}")
    if xv.dtype != wv.dtype or (b is not None and b.dtype != wv.dtype):
        raise ShapeMismatch(f"linear: dtypes of x {xv.dtype}, weight {wv.dtype} and bias {None if b is None else b.dtype}")
    k, n = wv.shape
    x2 = xv.reshape(-1, k)
    out = x2 @ wv
    pairs = [(x, lambda g: (g.reshape(-1, n) @ wv.T).reshape(xv.shape)), (w, lambda g: x2.T @ g.reshape(-1, n))]
    if b is not None:
        out += b.array
        pairs.append((b, _sum_leading))
    return apply_op(out.reshape(xv.shape[:-1] + (n,)), pairs)


# ---------------------------------------------------------------------------
# Activations and normalization
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) in x's dtype, one buffer (``out``, or a fresh one)
    written in place.

    Where exp(-x) overflows the result is 0, as in ``scipy.special.expit``,
    which evaluates the same formula one element at a time."""
    s = np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def _silu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x * sigmoid(x), written over the sigmoid's buffer."""
    s = _sigmoid(x, out)
    s *= x
    return s


def _dsilu(x: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """silu's derivative sig * (1 + x * (1 - sig)) at x, with sig =
    sigmoid(x); written over ``sig``."""
    d = np.subtract(1.0, sig)
    d *= x
    d += 1.0
    return np.multiply(sig, d, out=sig)


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x). The VJP keeps only x and recomputes the sigmoid."""
    av = a.array
    return apply_op(_silu(av), [(a, lambda g: g * _dsilu(av, _sigmoid(av)))])


# Cephes ndtr.c, highest power first; U and Q are monic and list their 1.0.
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1, else 1 - exp(-x^2) P(|x|) / Q(|x|).
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERF_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERF_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2, 1.82390916687909736289e3,
    2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2,
)


def _horner(t: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """The polynomial at t by Horner's rule, in Cephes' order of operations."""
    y = t * coeffs[0]
    y += coeffs[1]
    for c in coeffs[2:]:
        y *= t
        y += c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """erf by the rational approximations of Cephes ``ndtr.c``, which
    ``scipy.special.erf`` evaluates, in float64 and cast back to x's dtype.

    float32 results are byte-identical to scipy's; float64 ones are within
    1 ulp, because numpy's ``exp`` may round differently from the C
    library's. Both branches run on every element and ``where`` picks one:
    at the head's sizes the boolean indexing that would split the elements
    by branch costs more than the arithmetic it saves. |x| is clamped to 8,
    past which erf is +-1 to the last float64 bit, so +-inf and huge values
    raise no overflow warning; nan stays nan.
    """
    d = x.astype(np.float64).reshape(-1)
    a = np.abs(d)
    np.minimum(a, 8.0, out=a)
    z = a * a
    inner = _horner(z, _ERF_T)
    inner *= a
    inner /= _horner(z, _ERF_U)
    outer = np.exp(np.negative(z, out=z), out=z)
    outer *= _horner(a, _ERF_P)
    outer /= _horner(a, _ERF_Q)
    np.subtract(1.0, outer, out=outer)
    out = np.where(a <= 1.0, inner, outer)
    return np.copysign(out, d, out=out).astype(x.dtype, copy=False).reshape(np.shape(x))


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(x * _INV_SQRT2))


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x), exact, with Phi(x) = (1 + erf(x / sqrt(2))) / 2 and erf
    from :func:`_erf` (Cephes ``ndtr.c``): float32 values are those of
    ``scipy.special.erf``, and float64 ones differ by about |x| * 2**-52 at most.
    The VJP keeps only x and recomputes Phi and its pdf."""
    av = a.array

    def vjp(g):
        pdf = np.exp(-0.5 * av * av) * _INV_SQRT2PI
        return g * (_gelu_cdf(av) + av * pdf)

    return apply_op((av * _gelu_cdf(av)).astype(av.dtype, copy=False), [(a, vjp)])


def _rmsnorm_inv(xv: np.ndarray, eps: float, sq: np.ndarray | None = None) -> np.ndarray:
    """RMSNorm's per-row 1 / sqrt(mean(x^2, last axis) + eps), squaring x into ``sq`` if given."""
    return 1.0 / np.sqrt(np.multiply(xv, xv, out=sq).mean(axis=-1, keepdims=True) + eps)


def _rmsnorm_out(xv: np.ndarray, inv: np.ndarray, gv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """RMSNorm's output x * inv * gain, written into ``out`` if given."""
    un = np.multiply(xv, inv, out=out)
    un *= gv
    return un


def _rmsnorm_vjp_x(g: np.ndarray, xv: np.ndarray, inv: np.ndarray, gv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x's gradient of <g, RMSNorm(x)>, inv * g' - x * inv^3 / d * sum(g' * x)
    for g' = g * gain, which is written into ``out`` (g itself may be it)."""
    gg = np.multiply(g, gv, out=out)
    gx = xv * (inv**3 / xv.shape[-1])
    gx *= (gg * xv).sum(axis=-1, keepdims=True)
    gg *= inv
    return np.subtract(gg, gx, out=gx)


def _rmsnorm_vjp_gain(g: np.ndarray, xv: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The gain's gradient of <g, RMSNorm(x)>, recomputing x * inv."""
    xn = xv * inv
    xn *= g
    return xn.reshape(-1, xv.shape[-1]).sum(axis=0)


def rmsnorm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """x / sqrt(mean(x^2, last axis) + eps) * gain, gain broadcast over leading axes.

    The VJPs keep x and the per-row ``inv`` = 1 / sqrt(mean(x^2) + eps), and
    the gain's VJP recomputes the normalized x * inv. The Mamba layer op
    (``ssm.mamba_block_batched``) runs the same statements."""
    xv, gv = x.array, gain.array
    if gv.ndim != 1 or xv.shape[-1] != gv.shape[0]:
        raise ShapeMismatch(f"rmsnorm: gain {gv.shape} vs last dim of {xv.shape}")
    if eps < 0:
        raise InvalidConfig("rmsnorm eps must be >= 0")
    inv = _rmsnorm_inv(xv, eps)
    vjps = [(x, lambda g: _rmsnorm_vjp_x(g, xv, inv, gv)), (gain, lambda g: _rmsnorm_vjp_gain(g, xv, inv))]
    return apply_op(_rmsnorm_out(xv, inv, gv), vjps)


def softmax(a: Tensor, axis: int) -> Tensor:
    av = a.array
    shifted = av - av.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    return apply_op(s, [(a, lambda g: s * (g - (g * s).sum(axis=axis, keepdims=True)))])


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------


def _conv_layout(shape: tuple[int, ...], wv: np.ndarray, pad_left: int, pad_right: int):
    """(taps, wk) of a depthwise conv of input ``shape`` [B, L, ..., C] with
    weight ``wv`` [C, K]: each in-range tap as (kk, t0, t1, s0), and the
    taps laid out as ``wk`` [K, l_out, ..., C]."""
    if len(shape) < 3:
        raise ShapeMismatch(f"depthwise_conv1d input must be [B, L, ..., C], got {shape}")
    c, length = shape[-1], shape[1]
    if wv.ndim != 2 or wv.shape[0] != c:
        raise ShapeMismatch(f"depthwise_conv1d: weight {wv.shape} vs channels {c}")
    k = wv.shape[1]
    l_out = length + pad_left + pad_right - k + 1
    if l_out < 1:
        raise InvalidConfig("depthwise_conv1d: kernel exceeds padded length")
    # tap kk reads input step t + kk - pad_left for output step t: output
    # steps [t0, t1) read input steps from s0 = t0 + kk - pad_left
    taps = []
    for kk in range(k):
        t0, t1 = max(0, pad_left - kk), min(l_out, length + pad_left - kk)
        if t0 < t1:
            taps.append((kk, t0, t1, t0 + kk - pad_left))
    wk = np.ascontiguousarray(np.broadcast_to(wv.T.reshape((k,) + (1,) * (len(shape) - 2) + (c,)), (k, l_out) + shape[2:]))
    return taps, wk


def _conv_apply(xv: np.ndarray, taps, wk: np.ndarray, bias: np.ndarray | None, out=None, prod=None) -> np.ndarray:
    """The conv's output, summed tap by tap into ``out`` through the product
    buffer ``prod``; each is a fresh array unless given."""
    out_shape = (xv.shape[0],) + wk.shape[1:]
    if out is None:
        out = np.zeros(out_shape, dtype=xv.dtype)
    else:
        out.fill(0.0)
    if prod is None:
        prod = np.empty(out_shape, dtype=xv.dtype)
    for kk, t0, t1, s0 in taps:
        m = t1 - t0
        out[:, t0:t1] += np.multiply(xv[:, s0 : s0 + m], wk[kk, :m], out=prod[:, :m])
    if bias is not None:
        out += bias
    return out


def _conv_vjp_x(g: np.ndarray, xv: np.ndarray, taps, wk: np.ndarray) -> np.ndarray:
    gx = np.zeros_like(xv)
    buf = np.empty_like(g)
    for kk, t0, t1, s0 in taps:
        m = t1 - t0
        gx[:, s0 : s0 + m] += np.multiply(g[:, t0:t1], wk[kk, :m], out=buf[:, :m])
    return gx


def _conv_vjp_w(g: np.ndarray, xv: np.ndarray, taps, wv: np.ndarray) -> np.ndarray:
    gw = np.zeros_like(wv)
    buf = np.empty_like(g)
    lead = tuple(range(xv.ndim - 1))
    for kk, t0, t1, s0 in taps:
        m = t1 - t0
        gw[:, kk] = np.multiply(g[:, t0:t1], xv[:, s0 : s0 + m], out=buf[:, :m]).sum(axis=lead)
    return gw


def depthwise_conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    pad_left: int,
    pad_right: int,
) -> Tensor:
    """Per-channel FIR filter along the token axis of token-major input.

    ``x`` is ``[B, L, ..., C]``, filtered along axis 1 with one filter per
    channel on the last axis, and ``weight`` is ``[C, K]``; output length is
    ``L + pad_left + pad_right - K + 1``. Causal use passes ``(K-1, 0)``;
    same-length symmetric use passes ``(K//2, K//2)``. Each tap accumulates
    the in-range part of a shifted input slice through one reused product
    buffer, so the zero padding is never built. The taps are laid out once
    per call as ``[K, l_out, ..., C]``, each filter column repeated along the
    token axis, so a tap's product broadcasts over the batch axis only and
    numpy's inner loop runs over a whole contiguous ``[m, ..., C]`` slab
    rather than one row of C.
    """
    xv, wv = x.array, weight.array
    taps, wk = _conv_layout(xv.shape, wv, pad_left, pad_right)
    if bias is not None and bias.array.shape != (xv.shape[-1],):
        raise ShapeMismatch(f"depthwise_conv1d: bias {bias.array.shape} != ({xv.shape[-1]},)")
    out = _conv_apply(xv, taps, wk, None if bias is None else bias.array)
    pairs = [(x, lambda g: _conv_vjp_x(g, xv, taps, wk)), (weight, lambda g: _conv_vjp_w(g, xv, taps, wv))]
    if bias is not None:
        lead = tuple(range(xv.ndim - 1))
        pairs.append((bias, lambda g: g.sum(axis=lead)))
    return apply_op(out, pairs)


# ---------------------------------------------------------------------------
# Reverse pass
# ---------------------------------------------------------------------------


class _Consumed(tuple):
    """The empty ``pairs`` that :func:`backward` leaves on a node it has
    passed; unlike a leaf's ``()``, it marks the graph as spent."""


_CONSUMED = _Consumed()


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.pairs is _CONSUMED:
            raise GraphError("graph was already consumed by backward; run the forward again")
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.pairs:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _walk(loss: Tensor, consume: bool) -> dict[int, np.ndarray]:
    """Leaf gradients of a scalar loss, keyed by ``id``.

    Each node leaves the order as the walk reaches it, and its gradient is
    dropped once its VJPs have run. With ``consume`` the node also drops its
    ``pairs``, which frees the VJP closures and the activations they hold."""
    if loss.array.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.array)}
    while order:
        node = order.pop()
        pairs = node.pairs
        if not pairs:
            continue
        g = grads.pop(id(node))
        if consume:
            node.pairs = _CONSUMED
        for parent, vjp in pairs:
            contrib = vjp(g)
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + contrib
            else:
                grads[pid] = contrib
    return grads


def grad_map(loss: Tensor) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss keyed by ``id`` of each reached leaf tensor.

    Gradients of intermediate nodes are dropped as the walk passes them.
    The graph is left intact, so it can be differentiated again, for
    example from another loss built on the same nodes."""
    return _walk(loss, consume=False)


def backward(loss: Tensor, params) -> None:
    """Fill grad slots of trainable params with d(loss)/d(param.value).

    Params not reached by the recorded graph receive zero gradients;
    non-trainable params are left untouched. The walk consumes the graph:
    each node lets go of its VJPs, and the activations they hold, once they
    have run, and a second ``backward`` or :func:`grad_map` through any of
    its nodes raises :class:`GraphError`.
    """
    grads = _walk(loss, consume=True)
    for p in params:
        if not p.trainable:
            continue
        g = grads.get(id(p.value))
        if g is None:
            g = np.zeros_like(p.value.array)
        p.grad = Tensor(np.asarray(g, dtype=p.value.array.dtype))


def finite_diff_grad(f: Callable[[Tensor], Tensor], x: Tensor, h: float) -> Tensor:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if h <= 0:
        raise InvalidConfig("finite_diff_grad requires h > 0")
    base = x.array
    out = np.zeros_like(base)
    flat = out.reshape(-1)
    with no_grad():
        for i in range(base.size):
            bumped = base.copy().reshape(-1)
            bumped[i] += h
            f_plus = f(Tensor(bumped.reshape(base.shape))).item()
            bumped[i] -= 2 * h
            f_minus = f(Tensor(bumped.reshape(base.shape))).item()
            flat[i] = (f_plus - f_minus) / (2 * h)
    return Tensor(out)
