"""Dense tensors with tape-based reverse-mode differentiation.

Values are numpy arrays wrapped in :class:`Tensor`. Operations that see at
least one grad-requiring input record (parent, vjp) pairs on their output;
:func:`backward` walks that graph in reverse topological order, deposits
gradients into :class:`~tsmamba.params.Parameter` slots and consumes the
graph as it goes, so each activation is freed once its VJPs have run.

Broadcasting is never implicit: elementwise ops demand identical shapes and
callers widen operands with :func:`broadcast_to`. Dtypes must agree as well,
so a float32 run cannot silently promote to float64 halfway through a graph.

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
from scipy.special import erf as _erf

from .errors import GraphError, InvalidConfig, ShapeMismatch

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that suspends tape recording on this thread."""

    def __enter__(self):
        self._prev = grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
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

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the stored values."""
        return self.array.reshape(-1)

    def item(self) -> float:
        return float(self.array.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"

    # Convenience operators; shapes must already agree (see add/sub/mul).
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


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


def constant_like(t: Tensor, value: float) -> Tensor:
    return Tensor(np.full(t.shape, value, dtype=t.dtype))


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


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


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


def absolute(a: Tensor) -> Tensor:
    av = a.array
    return apply_op(np.abs(av), [(a, lambda g: g * np.sign(av))])


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select ``a`` where ``cond`` else ``b``; ``cond`` is a plain bool array."""
    _check_binary(a, b, "where")
    if cond.shape != a.array.shape:
        raise ShapeMismatch(f"where: cond shape {cond.shape} != {a.array.shape}")
    return apply_op(
        np.where(cond, a.array, b.array),
        [(a, lambda g: np.where(cond, g, 0.0)), (b, lambda g: np.where(cond, 0.0, g))],
    )


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = np.broadcast_to(a.array, shape)
    src = a.array.shape
    return apply_op(np.ascontiguousarray(out), [(a, lambda g: _unbroadcast(g, src))])


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
    av, bv = a.array, b.array
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeMismatch("matmul expects operands with ndim >= 2")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeMismatch(f"matmul: inner dims {av.shape} @ {bv.shape}")
    if av.dtype != bv.dtype:
        raise ShapeMismatch(f"matmul: dtypes {av.dtype} and {bv.dtype} differ")

    if bv.ndim == 2:
        # a weight: a's leading axes fold into the GEMM's rows, so the
        # forward and both VJPs are one GEMM each, and vjp_b sums over the
        # rows inside the GEMM instead of through a [B, K, N] temporary
        k, n = bv.shape
        a2 = av.reshape(-1, k)
        return apply_op(
            (a2 @ bv).reshape(av.shape[:-1] + (n,)),
            [(a, lambda g: (g.reshape(-1, n) @ bv.T).reshape(av.shape)), (b, lambda g: a2.T @ g.reshape(-1, n))],
        )

    def vjp_a(g):
        return _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape)

    def vjp_b(g):
        return _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), bv.shape)

    return apply_op(np.matmul(av, bv), [(a, vjp_a), (b, vjp_b)])


# ---------------------------------------------------------------------------
# Activations and normalization
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in x's dtype, one fresh buffer written in place.

    Where exp(-x) overflows the result is 0, as in ``scipy.special.expit``,
    which evaluates the same formula one element at a time."""
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x). The VJP keeps only x and recomputes the sigmoid."""
    av = a.array

    def vjp(g):
        sig = _sigmoid(av)
        return g * (sig * (1.0 + av * (1.0 - sig)))

    return apply_op(av * _sigmoid(av), [(a, vjp)])


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(x * _INV_SQRT2))


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x), exact. The VJP keeps only x and recomputes Phi and its pdf."""
    av = a.array

    def vjp(g):
        pdf = np.exp(-0.5 * av * av) * _INV_SQRT2PI
        return g * (_gelu_cdf(av) + av * pdf)

    return apply_op((av * _gelu_cdf(av)).astype(av.dtype, copy=False), [(a, vjp)])


def rmsnorm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """x / sqrt(mean(x^2, last axis) + eps) * gain, gain broadcast over leading axes.

    The VJPs keep x and the per-row ``inv`` = 1 / sqrt(mean(x^2) + eps), and
    the gain's VJP recomputes the normalized x * inv."""
    xv, gv = x.array, gain.array
    if gv.ndim != 1 or xv.shape[-1] != gv.shape[0]:
        raise ShapeMismatch(f"rmsnorm: gain {gv.shape} vs last dim of {xv.shape}")
    if eps < 0:
        raise InvalidConfig("rmsnorm eps must be >= 0")
    d = xv.shape[-1]
    inv = 1.0 / np.sqrt((xv * xv).mean(axis=-1, keepdims=True) + eps)

    def vjp_x(g):
        gg = g * gv
        # d/dx [x * inv]: inv * g - x * inv^3 / d * sum(g * x)
        return inv * gg - xv * (inv**3 / d) * (gg * xv).sum(axis=-1, keepdims=True)

    def vjp_gain(g):
        return (g * (xv * inv)).reshape(-1, d).sum(axis=0)

    return apply_op((xv * inv * gv).astype(xv.dtype, copy=False), [(x, vjp_x), (gain, vjp_gain)])


def softmax(a: Tensor, axis: int) -> Tensor:
    av = a.array
    shifted = av - av.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    return apply_op(s, [(a, lambda g: s * (g - (g * s).sum(axis=axis, keepdims=True)))])


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------


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
    xv = x.array
    if xv.ndim < 3:
        raise ShapeMismatch(f"depthwise_conv1d input must be [B, L, ..., C], got {xv.shape}")
    wv = weight.array
    c, length = xv.shape[-1], xv.shape[1]
    if wv.ndim != 2 or wv.shape[0] != c:
        raise ShapeMismatch(f"depthwise_conv1d: weight {wv.shape} vs channels {c}")
    k = wv.shape[1]
    l_out = length + pad_left + pad_right - k + 1
    if l_out < 1:
        raise InvalidConfig("depthwise_conv1d: kernel exceeds padded length")
    if bias is not None and bias.array.shape != (c,):
        raise ShapeMismatch(f"depthwise_conv1d: bias {bias.array.shape} != ({c},)")
    # tap kk reads input step t + kk - pad_left for output step t: output
    # steps [t0, t1) read input steps from s0 = t0 + kk - pad_left
    taps = []
    for kk in range(k):
        t0, t1 = max(0, pad_left - kk), min(l_out, length + pad_left - kk)
        if t0 < t1:
            taps.append((kk, t0, t1, t0 + kk - pad_left))
    out_shape = (xv.shape[0], l_out) + xv.shape[2:]
    wk = np.ascontiguousarray(np.broadcast_to(wv.T.reshape((k,) + (1,) * (xv.ndim - 2) + (c,)), (k,) + out_shape[1:]))
    out = np.zeros(out_shape, dtype=xv.dtype)
    prod = np.empty(out_shape, dtype=xv.dtype)
    for kk, t0, t1, s0 in taps:
        m = t1 - t0
        out[:, t0:t1] += np.multiply(xv[:, s0 : s0 + m], wk[kk, :m], out=prod[:, :m])
    if bias is not None:
        out += bias.array
    lead = tuple(range(xv.ndim - 1))

    def vjp_x(g):
        gx = np.zeros_like(xv)
        buf = np.empty_like(g)
        for kk, t0, t1, s0 in taps:
            m = t1 - t0
            gx[:, s0 : s0 + m] += np.multiply(g[:, t0:t1], wk[kk, :m], out=buf[:, :m])
        return gx

    def vjp_w(g):
        gw = np.zeros_like(wv)
        buf = np.empty_like(g)
        for kk, t0, t1, s0 in taps:
            m = t1 - t0
            gw[:, kk] = np.multiply(g[:, t0:t1], xv[:, s0 : s0 + m], out=buf[:, :m]).sum(axis=lead)
        return gw

    pairs = [(x, vjp_x), (weight, vjp_w)]
    if bias is not None:
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
