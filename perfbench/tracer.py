"""Outside-in tracing of the tsmamba layers.

The tracer replaces the public functions of the traced modules with timing
wrappers, in every tsmamba namespace that holds a reference to them, so no
program file changes. It keeps per-name aggregates instead of individual
spans: call count, inclusive time and self time (inclusive time minus the
part covered by child spans).

Backward time is attributed by wrapping ``tensor.apply_op``: every vjp an op
records is wrapped with a timer that credits its run time, during
``backward``, to each span that was open when the op ran forward. Times are
therefore inclusive in both directions (``ssm.mamba_block_batched`` includes
``ssm.scan``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("tensor", "ssm", "model", "train", "data", "checkpoint", "cli")

# private functions worth a span, under the name the metrics use
ALIASES = {
    "ssm._selective_scan_batched": "ssm.scan",
    "model._align_conv": "model.align_conv",
    "cli._batched_forecast": "cli.batched_forecast",
    "train.stage1_loss": "train.loss",
    "train.stage2_loss": "train.loss",
}

# ``grad_enabled`` runs inside every op and would only time the tracer;
# ``apply_op`` is counted and wrapped separately below.
SKIP = {"tensor.grad_enabled", "tensor.apply_op"}


def _root_array(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def tape_census(loss) -> tuple[int, int]:
    """(node count, bytes of distinct arrays) reachable from ``loss``.

    Walks ``Tensor.pairs`` and, for each vjp, the arrays its closure holds
    (through nested closures, tuples, lists and dicts). Views are charged to
    the array that owns their buffer, once.
    """
    from tsmamba.tensor import Tensor

    nodes: set[int] = set()
    buffers: dict[int, int] = {}
    seen_objs: set[int] = set()
    stack_nodes = [loss]
    stack_objs: list = []

    def hold(arr: np.ndarray) -> None:
        root = _root_array(arr)
        buffers[id(root)] = root.nbytes

    while stack_nodes or stack_objs:
        if stack_nodes:
            node = stack_nodes.pop()
            if id(node) in nodes:
                continue
            nodes.add(id(node))
            hold(node.array)
            for parent, fn in node.pairs:
                stack_nodes.append(parent)
                stack_objs.append(fn)
            continue
        obj = stack_objs.pop()
        if id(obj) in seen_objs:
            continue
        seen_objs.add(id(obj))
        if isinstance(obj, np.ndarray):
            hold(obj)
        elif isinstance(obj, Tensor):
            hold(obj.array)
        elif inspect.isfunction(obj):
            for cell in obj.__closure__ or ():
                try:
                    stack_objs.append(cell.cell_contents)
                except ValueError:  # empty cell
                    pass
        elif isinstance(obj, (tuple, list)):
            stack_objs.extend(obj)
        elif isinstance(obj, dict):
            stack_objs.extend(obj.values())
    return len(nodes), sum(buffers.values())


class Tracer:
    """Installs timing wrappers on the tsmamba modules and aggregates spans.

    ``phase`` names the part of the run being recorded ("setup" or "ops");
    aggregates are kept per phase so set-up work and timed operations can be
    normalized separately.
    """

    def __init__(self):
        self.phase = "ops"
        self._stack: list[list] = []  # [name, start, child_time]
        self._open: dict[str, int] = defaultdict(int)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.incl: dict[tuple[str, str], float] = defaultdict(float)
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.bwd: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.tag = ""  # labels tape censuses, e.g. with the training stage
        self.tapes: list[tuple[str, int, int]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, post=None):
        stack, open_names = self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            open_names[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - frame[1]
                stack.pop()
                open_names[name] -= 1
                key = (self.phase, name)
                self.calls[key] += 1
                self.self_time[key] += dt - frame[2]
                if open_names[name] == 0:  # outermost call of a recursive name
                    self.incl[key] += dt
                if stack:
                    stack[-1][2] += dt
            if post is not None:
                post(result)
            return result

        return wrapper

    def _wrap_apply_op(self, apply_op):
        tensor_mod = sys.modules["tsmamba.tensor"]
        stack = self._stack

        def timed_vjp(fn, owners, phase):
            def vjp(g):
                t0 = time.perf_counter()
                out = fn(g)
                dt = time.perf_counter() - t0
                for owner in owners:
                    self.bwd[(phase, owner)] += dt
                return out

            return vjp

        @functools.wraps(apply_op)
        def wrapper(out_array, pairs):
            self.counts[(self.phase, "tensor.apply_op.calls")] += 1
            if stack and tensor_mod.grad_enabled():
                owners = frozenset(frame[0] for frame in stack)
                pairs = [(p, timed_vjp(fn, owners, self.phase) if p.requires else fn) for p, fn in pairs]
            return apply_op(out_array, pairs)

        return wrapper

    def _after_loss(self, loss) -> None:
        self.tapes.append((self.tag, *tape_census(loss)))

    def _after_windows(self, windows) -> None:
        key = self.phase
        self.counts[(key, "data.windows_materialized")] += len(windows)
        self.counts[(key, "data.windows_bytes")] += sum(w.input.nbytes + w.target.nbytes for w in windows)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"tsmamba.{m}") for m in TRACED_MODULES}
        replacements: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                qual = f"{short}.{attr}"
                if qual in SKIP or (attr.startswith("_") and qual not in ALIASES):
                    continue
                name = ALIASES.get(qual, qual)
                post = {"train.loss": self._after_loss, "data.make_windows": self._after_windows}.get(name)
                replacements[id(obj)] = self._wrap(name, obj, post)
        apply_op = modules["tensor"].apply_op
        replacements[id(apply_op)] = self._wrap_apply_op(apply_op)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tsmamba" or mod_name.startswith("tsmamba.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapped = replacements.get(id(obj))
                if wrapped is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def per_unit(self, table: dict, name: str, units: dict[str, int]) -> float:
        """Total of ``name`` per operation; a layer that never ran during the
        timed operations is reported per set-up instead."""
        for phase in ("ops", "setup"):
            total = table.get((phase, name), 0.0)
            if total:
                return total / max(1, units[phase])
        return 0.0

    def layer_table(self, units: dict[str, int], top: int = 25) -> list[tuple[str, float, float, float, float]]:
        """Rows (name, calls, incl_ms, self_ms, bwd_ms) per operation, by self time."""
        names = {name for _, name in self.incl} | {name for _, name in self.bwd}
        rows = []
        for name in names:
            rows.append(
                (
                    name,
                    self.per_unit(self.calls, name, units),
                    self.per_unit(self.incl, name, units) * 1e3,
                    self.per_unit(self.self_time, name, units) * 1e3,
                    self.per_unit(self.bwd, name, units) * 1e3,
                )
            )
        rows.sort(key=lambda r: r[3] + r[4], reverse=True)
        return rows[:top]
