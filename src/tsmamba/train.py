"""Huber objective, two-stage transfer pipeline, and frozen-block fine-tuning.

Stage 1 refines the backbone and embedding with next/previous-patch
autoregressive heads; stage 2 restores the full architecture and trains the
long-horizon head with a reduced backbone learning rate; fine-tuning freezes
the Mamba blocks and optionally activates the cross-channel module. All loss
values live in normalized (RevIN) space.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .checkpoint import STAGE1_PREFIXES, Checkpoint, checkpoint_from_model, load_into_model
from .errors import DataError, InsufficientPatches, InvalidConfig, MissingGrad, NonFiniteLoss, ShapeMismatch
from .model import (
    Model,
    ModelConfig,
    align_conv,
    backbone_forward,
    build_model,
    forecast_normalized,
    revin_normalize,
)
from .params import Parameter, ParamTree, uniform_init
from .tensor import Tensor

HUBER_DELTA = 1.0  # the training loss's switch from quadratic to linear, in normalized units


@dataclass
class _StageSettings:
    """What every stage's settings share: the run-config section that holds
    them, the stage's name in logs, the optimizer's weight decay and clip
    norm, and the floor of each value."""

    section = ""
    stage = ""

    weight_decay: float = 0.0
    grad_clip_norm: float = 1.0

    def __post_init__(self):
        # a count or a rate; a negative rate would run gradient ascent
        for f in fields(self):
            value, floor = getattr(self, f.name), int(f.name == "batch_size")
            if f.type != "bool" and value < floor:
                raise InvalidConfig(f"{self.section} key {f.name!r} must be >= {floor}, got {value!r}")


@dataclass
class Stage1Config(_StageSettings):
    """The run config's ``stage1`` section: patch-wise autoregression trains
    the embedding, both encoders and the alignment conv at one ``lr``."""

    section = "stage1"
    stage = "stage1_autoregressive"

    epochs: int = 2
    batch_size: int = 64
    lr: float = 1e-3


@dataclass
class Stage2Config(_StageSettings):
    """The run config's ``stage2`` section: the new head and alignment conv
    train at ``lr_new``, the loaded embedding and encoders at ``lr_backbone``."""

    section = "stage2"
    stage = "stage2_head"

    epochs: int = 2
    batch_size: int = 64
    lr_new: float = 1e-3
    lr_backbone: float = 1e-5

    def __post_init__(self):
        super().__post_init__()
        if self.lr_backbone > self.lr_new:
            raise InvalidConfig(f"stage2 key 'lr_backbone' must be <= lr_new ({self.lr_new!r}), got {self.lr_backbone!r}")


@dataclass
class FinetuneConfig(_StageSettings):
    """The run config's ``finetune`` section: every unfrozen parameter trains
    at one ``lr``. ``enable_xchannel`` is set by ``finetune --xchannel``, not
    by the run config."""

    section = "finetune"
    stage = "finetune"

    epochs: int = 1
    batch_size: int = 32
    lr: float = 5e-4
    min_samples_for_xchannel: int = 10_000
    enable_xchannel: bool = field(default=False, metadata={"config_key": False})


# the names callers have always built each stage's settings by
stage1_config, stage2_config, finetune_config = Stage1Config, Stage2Config, FinetuneConfig


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def huber_loss(pred: Tensor, target: Tensor, delta: float) -> Tensor:
    """Mean of 0.5 e^2 inside |e| <= delta, delta (|e| - delta/2) outside,
    for e = pred - target, as one taped op that keeps e and the inside mask.
    Its forward and VJP repeat the elementwise chain's operations in order,
    so signed zeros keep their signs (``clip(e, -delta, delta)`` would not)."""
    pv, tv = pred.array, target.array
    if pv.shape != tv.shape or pv.dtype != tv.dtype:
        raise ShapeMismatch(f"huber_loss: {pv.shape} {pv.dtype} vs {tv.shape} {tv.dtype}")
    if delta <= 0:
        raise InvalidConfig("huber delta must be > 0")
    e = pv - tv
    ae = np.abs(e)
    inside = ae <= delta
    loss = np.asarray(np.where(inside, (e * e) * 0.5, ae * delta - delta * delta / 2.0).mean())

    def vjp(g):
        mean_g = (g / e.size).astype(e.dtype)
        gq = np.where(inside, mean_g, 0.0) * 0.5
        gl = np.where(inside, 0.0, mean_g) * delta
        return (gq * e + gq * e) + gl * np.sign(e)  # e*e's two factors, then |e|

    return T.apply_op(loss, [(pred, vjp), (target, lambda g: -vjp(g))])


@dataclass
class Stage1Heads(ParamTree):
    """Temporary linear heads predicting the next and the previous patch."""

    next_w: Parameter  # [d_model, patch_len] on forward representations
    next_b: Parameter
    prev_w: Parameter  # [d_model, patch_len] on aligned backward representations
    prev_b: Parameter


def init_stage1_heads(rng: np.random.Generator, cfg: ModelConfig, dtype) -> Stage1Heads:
    return Stage1Heads(
        next_w=Parameter("stage1.next_w", uniform_init(rng, (cfg.d_model, cfg.patch_len), cfg.d_model, dtype)),
        next_b=Parameter("stage1.next_b", T.zeros(cfg.patch_len, dtype=dtype)),
        prev_w=Parameter("stage1.prev_w", uniform_init(rng, (cfg.d_model, cfg.patch_len), cfg.d_model, dtype)),
        prev_b=Parameter("stage1.prev_b", T.zeros(cfg.patch_len, dtype=dtype)),
    )


def stage1_loss(windows: Tensor, model: Model, heads: Stage1Heads) -> Tensor:
    """Next-patch and previous-patch Huber loss over channel windows [B, L].

    Token t's forward representation predicts normalized patch t+1; token t's
    aligned backward representation predicts normalized patch t-1.
    """
    cfg = model.config
    b_, length = windows.shape
    n_tokens = length // cfg.patch_len
    if n_tokens < 2:
        raise InsufficientPatches(f"stage 1 needs >= 2 patches: lookback {length}, patch_len {cfg.patch_len}")
    x_hat, _ = revin_normalize(windows, eps=cfg.revin_eps)
    fwd_rep, bwd_rep = backbone_forward(x_hat, model)
    patches = x_hat.array.reshape(b_, n_tokens, cfg.patch_len)

    next_pred = T.linear(T.slice_axis(fwd_rep, 1, 0, n_tokens - 1), heads.next_w.value, heads.next_b.value)
    # the conv runs over every token before the slice, so the boundary tokens keep their padding
    prev_pred = T.linear(T.slice_axis(align_conv(bwd_rep, model.align), 1, 1, n_tokens), heads.prev_w.value, heads.prev_b.value)
    pred = T.concat([next_pred, prev_pred], axis=0)
    target = Tensor(np.concatenate([patches[:, 1:], patches[:, :-1]], axis=0))
    return huber_loss(pred, target, HUBER_DELTA)


def _normalize_pair(inputs: np.ndarray, targets: np.ndarray, eps: float):
    x_hat, stats = revin_normalize(Tensor(inputs), eps=eps)
    t_hat = (targets - stats.mean[..., None]) / stats.denom[..., None]
    return x_hat, Tensor(t_hat.astype(targets.dtype, copy=False))


def stage2_loss(inputs: Tensor, targets: Tensor, model: Model) -> Tensor:
    """Huber between normalized forecasts and normalized targets.

    ``inputs`` is [B, L] with [B, T] targets for channel-independent training,
    or [B, D, L] with [B, D, T] targets when the cross-channel module is in
    play.
    """
    cfg = model.config
    if inputs.ndim == 2:
        if model.xchannel is not None:
            raise InvalidConfig("xchannel model needs multivariate [B, D, L] batches")
    elif inputs.ndim != 3:
        raise ShapeMismatch(f"stage2_loss inputs must be 2-d or 3-d, got {inputs.ndim}-d")
    x_hat, t_hat = _normalize_pair(inputs.array, targets.array, cfg.revin_eps)
    batch = x_hat if inputs.ndim == 3 else T.reshape(x_hat, (x_hat.shape[0], 1, x_hat.shape[1]))
    pred = T.reshape(forecast_normalized(batch, model), x_hat.shape[:-1] + (cfg.horizon,))
    return huber_loss(pred, t_hat, HUBER_DELTA)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class AdamW:
    """Adaptive-moment update with decoupled weight decay and global-norm clip."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: list[tuple[Parameter, float]], weight_decay: float = 0.0, grad_clip_norm: float = 0.0) -> tuple[float, float]:
        """One update of each trainable parameter at the learning rate paired
        with it; returns (global gradient norm, clip scale). A NaN or infinite
        norm raises NonFiniteLoss before any parameter or moment changes. So
        does an update that leaves any parameter non-finite, before any
        parameter changes: the new values are held until every one is
        checked, and each gradient is let go as its new value is made, so
        the step holds no more than one update did. A refused step has
        spent the gradients and moved the moments. numpy's overflow
        warnings are silenced: a divergence is reported as this error, not
        as a warning."""
        live = [(p, lr) for p, lr in params if p.trainable]
        for p, _ in live:
            if p.grad is None:
                raise MissingGrad(f"{p.name} is trainable but has no gradient")
        # a Python float, so a clipped float32 gradient and its moments stay float32
        total = float(np.sqrt(sum(float((p.grad.array.astype(np.float64) ** 2).sum()) for p, _ in live)))
        if not np.isfinite(total):
            raise NonFiniteLoss(f"gradient norm is {total}")
        clip_scale = 1.0
        if 0 < grad_clip_norm < total:
            clip_scale = grad_clip_norm / (total + 1e-12)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        updated = []
        with np.errstate(over="ignore", invalid="ignore"):
            for p, lr in live:
                g = p.grad.array * clip_scale
                p.grad = None
                m = self._m.get(p.name)
                if m is None:
                    m = np.zeros_like(g)
                    self._v[p.name] = np.zeros_like(g)
                v = self._v[p.name]
                m = self.beta1 * m + (1.0 - self.beta1) * g
                v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
                self._m[p.name] = m
                self._v[p.name] = v
                update = (m / bc1) / (np.sqrt(v / bc2) + self.eps) + weight_decay * p.value.array
                new = (p.value.array - lr * update).astype(p.value.dtype, copy=False)
                if not np.isfinite(new).all():
                    raise NonFiniteLoss(f"the update leaves {p.name} non-finite")
                updated.append((p, new))
        for p, new in updated:
            p.assign(new)
        return total, clip_scale


def optimizer_step(opt: AdamW, params: list[tuple[Parameter, float]], cfg: _StageSettings) -> tuple[float, float]:
    return opt.step(params, cfg.weight_decay, cfg.grad_clip_norm)


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    model: Model
    step_losses: list[float] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)


def _write_log(path: str | None, rows: list[tuple]) -> None:
    if path is None:
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "epoch", "step", "loss", "lr_new", "lr_backbone", "wall_ms", "grad_norm", "clip_scale", "windows_per_s"])
        writer.writerows(rows)


def _batch(rows, idx: np.ndarray, dtype) -> Tensor:
    """Rows ``idx`` of an array or row source as a C-ordered ``dtype`` tensor.

    A gather from a window view keeps the view's strides; C order makes every
    reduction round as it does on a stacked copy.
    """
    return Tensor(np.ascontiguousarray(rows[idx], dtype=dtype))


def _train_loop(loss_fn, n_samples: int, cfg: _StageSettings, rated: list[tuple[Parameter, float]], rng, log_path):
    """Train each parameter of ``rated`` at the learning rate paired with it;
    the log's lr_new and lr_backbone columns hold the largest and the
    smallest rate."""
    opt = AdamW()
    params = [p for p, _ in rated]
    lr_new, lr_backbone = max(lr for _, lr in rated), min(lr for _, lr in rated)
    rows = []
    step_losses: list[float] = []
    epoch_losses: list[float] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_samples)
        epoch_sum, epoch_n = 0.0, 0
        for start in range(0, n_samples, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            t0 = time.perf_counter()
            step += 1
            # a diverging run overflows here long before its loss is
            # non-finite; that loss, the gradient norm or the update is
            # checked instead, so it ends as NonFiniteLoss, not as a warning
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                loss = loss_fn(idx)
                value = loss.item()
                # checked before backward, so no update reaches the weights
                if not np.isfinite(value):
                    raise NonFiniteLoss(f"{cfg.stage} epoch {epoch} step {step}: loss is {value}")
                T.backward(loss, params)
            try:
                grad_norm, clip_scale = optimizer_step(opt, rated, cfg)
            except NonFiniteLoss as exc:
                raise NonFiniteLoss(f"{cfg.stage} epoch {epoch} step {step}: {exc}") from None
            wall_s = time.perf_counter() - t0
            step_losses.append(value)
            epoch_sum += value
            epoch_n += 1
            rows.append(
                (cfg.stage, epoch, step, f"{value:.8g}", lr_new, lr_backbone, f"{wall_s * 1e3:.3f}")
                + (f"{grad_norm:.8g}", f"{clip_scale:.8g}", f"{len(idx) / wall_s:.1f}")
            )
        epoch_losses.append(epoch_sum / max(1, epoch_n))
    _write_log(log_path, rows)
    return step_losses, epoch_losses


def run_stage1(
    windows: np.ndarray,
    cfg: Stage1Config,
    model: Model,
    heads: Stage1Heads | None = None,
    seed: int = 0,
    log_path: str | None = None,
) -> TrainResult:
    """Refine backbone + embedding via patch-wise autoregression; returns the
    stage-1 checkpoint holding embedding and both encoders.

    ``windows`` is an [n, L] array, or anything that gathers [b, L] rows by
    an index array (``data.ChannelRows``); each batch is cast to the model's
    dtype."""
    if not isinstance(cfg, Stage1Config):
        raise InvalidConfig(f"run_stage1 got {type(cfg).__name__}")
    if windows.ndim != 2 or windows.shape[0] == 0:
        raise DataError("stage 1 needs a non-empty [n, L] window array")
    dtype = model.embedding.weight.value.dtype
    rng = np.random.default_rng(seed)
    if heads is None:
        heads = init_stage1_heads(rng, model.config, dtype)
    # the alignment conv feeds the previous-patch head, so it trains here too
    params = (
        model.embedding.parameters()
        + model.fwd_encoder.parameters()
        + model.bwd_encoder.parameters()
        + model.align.parameters()
        + heads.parameters()
    )

    def loss_fn(idx):
        return stage1_loss(_batch(windows, idx, dtype), model, heads)

    step_losses, epoch_losses = _train_loop(loss_fn, windows.shape[0], cfg, [(p, cfg.lr) for p in params], rng, log_path)
    ckpt = checkpoint_from_model(model, "stage1", prefixes=STAGE1_PREFIXES)
    return TrainResult(ckpt, model, step_losses, epoch_losses)


def run_stage2(
    windows: np.ndarray,
    targets: np.ndarray,
    cfg: Stage2Config,
    stage1_ckpt: Checkpoint,
    seed: int = 0,
    log_path: str | None = None,
) -> TrainResult:
    """Train the prediction head at a larger learning rate while the loaded
    backbone and embedding update slowly; returns the foundation checkpoint.

    ``windows`` [n, L] and ``targets`` [n, T] gather batches as in
    ``run_stage1``, cast to the checkpoint's dtype."""
    if not isinstance(cfg, Stage2Config):
        raise InvalidConfig(f"run_stage2 got {type(cfg).__name__}")
    if windows.ndim != 2 or windows.shape[0] == 0:
        raise DataError("stage 2 needs a non-empty [n, L] window array")
    model_cfg = stage1_ckpt.config()
    if targets.shape != (windows.shape[0], model_cfg.horizon):
        raise DataError(f"targets shape {targets.shape} != (n, horizon={model_cfg.horizon})")
    dtype = stage1_ckpt.dtype()
    model = build_model(model_cfg, seed=seed, dtype=dtype)
    load_into_model(model, stage1_ckpt, required_prefixes=STAGE1_PREFIXES)
    # the new head and alignment conv at lr_new, the loaded backbone at lr_backbone
    rated = [(p, cfg.lr_new if p.name.startswith(("head.", "align_conv.")) else cfg.lr_backbone) for p in model.parameters()]
    rng = np.random.default_rng(seed)

    def loss_fn(idx):
        return stage2_loss(_batch(windows, idx, dtype), _batch(targets, idx, dtype), model)

    step_losses, epoch_losses = _train_loop(loss_fn, windows.shape[0], cfg, rated, rng, log_path)
    return TrainResult(checkpoint_from_model(model, "stage2"), model, step_losses, epoch_losses)


def xchannel_gate(cfg: FinetuneConfig, n_windows: int, n_channels: int) -> tuple[bool, str]:
    """Whether the cross-channel module should activate when the caller
    leaves it to the data (``finetune --xchannel auto``)."""
    if n_channels < 2:
        return False, "single channel"
    samples = n_windows * n_channels
    if samples < cfg.min_samples_for_xchannel:
        return False, f"insufficient samples ({samples} < {cfg.min_samples_for_xchannel})"
    return True, f"enabled ({samples} channel-window pairs)"


def run_finetune(
    windows: np.ndarray,
    targets: np.ndarray,
    cfg: FinetuneConfig,
    foundation_ckpt: Checkpoint,
    seed: int = 0,
    log_path: str | None = None,
) -> TrainResult:
    """Freeze the Mamba blocks and adapt embedding, norms, alignment, head and
    (optionally) the cross-channel module to one dataset.

    ``windows`` is [n, D, L] with [n, D, T] targets, each batch cast to the
    foundation's dtype; the cross-channel module starts inert (zero
    expansion), so step-0 forecasts equal zero-shot ones.
    """
    if not isinstance(cfg, FinetuneConfig):
        raise InvalidConfig(f"run_finetune got {type(cfg).__name__}")
    if windows.ndim != 3 or windows.shape[0] == 0:
        raise DataError("fine-tuning needs a non-empty [n, D, L] window array")
    n, d, _ = windows.shape
    model_cfg_dict = dict(foundation_ckpt.model_config)
    if cfg.enable_xchannel:  # ModelConfig rejects a single channel
        model_cfg_dict["xchannel_enabled"] = True
        model_cfg_dict["n_channels"] = d
    model_cfg = ModelConfig.from_dict(model_cfg_dict)
    dtype = foundation_ckpt.dtype()
    model = build_model(model_cfg, seed=seed, dtype=dtype)
    load_into_model(model, foundation_ckpt, required_prefixes=STAGE1_PREFIXES + ("head.", "align_conv."))

    for p in model.frozen_block_parameters():
        p.set_trainable(False)
    rng = np.random.default_rng(seed)

    # multivariate batches regardless of the xchannel switch, so paired runs
    # differing only in that module see identical batch schedules
    def loss_fn(idx):
        return stage2_loss(_batch(windows, idx, dtype), _batch(targets, idx, dtype), model)

    step_losses, epoch_losses = _train_loop(loss_fn, n, cfg, [(p, cfg.lr) for p in model.parameters()], rng, log_path)
    return TrainResult(checkpoint_from_model(model, "finetune"), model, step_losses, epoch_losses)
