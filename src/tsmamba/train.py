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
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import STAGE1_PREFIXES, Checkpoint, checkpoint_from_model, load_into_model
from .errors import DataError, InsufficientPatches, InvalidConfig, MissingGrad, NonFiniteLoss, ShapeMismatch
from .model import (
    Model,
    ModelConfig,
    build_model,
    backbone_forward,
    forecast_normalized,
    revin_normalize,
)
from .params import Parameter, uniform_init
from .tensor import Tensor

STAGES = ("stage1_autoregressive", "stage2_head", "finetune")
# each stage's run-config section
_SECTIONS = dict(zip(STAGES, ("stage1", "stage2", "finetune")))


@dataclass
class StageConfig:
    stage: str
    lr_new: float
    lr_backbone: float
    epochs: int
    batch_size: int
    weight_decay: float = 0.0
    grad_clip_norm: float = 1.0
    enable_xchannel: bool = False
    min_samples_for_xchannel: int = 10_000

    def __post_init__(self):
        if self.stage not in STAGES:
            raise InvalidConfig(f"unknown stage {self.stage!r}")
        # named as the run config spells them: one "lr" outside stage 2
        rates = {"lr_new": self.lr_new, "lr_backbone": self.lr_backbone} if self.stage == "stage2_head" else {"lr": self.lr_new}
        for key, value in {**rates, "weight_decay": self.weight_decay, "grad_clip_norm": self.grad_clip_norm}.items():
            if value < 0:
                raise InvalidConfig(f"{_SECTIONS[self.stage]} key {key!r} must be >= 0, got {value!r}")
        if self.epochs < 0 or self.batch_size < 1:
            raise InvalidConfig("epochs must be >= 0 and batch_size >= 1")
        if self.stage == "stage2_head" and self.lr_backbone > self.lr_new:
            raise InvalidConfig("stage 2 requires lr_backbone <= lr_new")
        if self.stage != "stage2_head" and self.lr_backbone != self.lr_new:
            raise InvalidConfig("only stage 2 trains at two learning rates")
        if self.stage != "finetune" and self.enable_xchannel:
            raise InvalidConfig("cross-channel attention is a fine-tuning module")


def stage1_config(epochs: int, batch_size: int, lr: float = 1e-3, **kw) -> StageConfig:
    return StageConfig("stage1_autoregressive", lr_new=lr, lr_backbone=lr, epochs=epochs, batch_size=batch_size, **kw)


def stage2_config(epochs: int, batch_size: int, lr_new: float = 1e-3, lr_backbone: float = 1e-5, **kw) -> StageConfig:
    return StageConfig("stage2_head", lr_new=lr_new, lr_backbone=lr_backbone, epochs=epochs, batch_size=batch_size, **kw)


def finetune_config(epochs: int, batch_size: int, lr: float = 5e-4, **kw) -> StageConfig:
    return StageConfig("finetune", lr_new=lr, lr_backbone=lr, epochs=epochs, batch_size=batch_size, **kw)


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
class Stage1Heads:
    """Temporary linear heads predicting the next and the previous patch."""

    next_w: Parameter  # [d_model, patch_len] on forward representations
    next_b: Parameter
    prev_w: Parameter  # [d_model, patch_len] on aligned backward representations
    prev_b: Parameter

    def parameters(self) -> list[Parameter]:
        return [self.next_w, self.next_b, self.prev_w, self.prev_b]


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
        raise InsufficientPatches(f"need >= 2 patches, got {n_tokens}")
    x_hat, _ = revin_normalize(windows, eps=cfg.revin_eps)
    bb = backbone_forward(x_hat, model)
    patches = x_hat.array.reshape(b_, n_tokens, cfg.patch_len)

    next_pred = T.linear(T.slice_axis(bb.fwd_rep, 1, 0, n_tokens - 1), heads.next_w.value, heads.next_b.value)
    prev_pred = T.linear(T.slice_axis(bb.bwd_rep_aligned, 1, 1, n_tokens), heads.prev_w.value, heads.prev_b.value)
    pred = T.concat([next_pred, prev_pred], axis=0)
    target = Tensor(np.concatenate([patches[:, 1:], patches[:, :-1]], axis=0))
    return huber_loss(pred, target, cfg.huber_delta)


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
    return huber_loss(pred, t_hat, cfg.huber_delta)


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
        norm raises NonFiniteLoss before any parameter or moment changes."""
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
        for p, lr in live:
            g = p.grad.array * clip_scale
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
            p.assign((p.value.array - lr * update).astype(p.value.dtype, copy=False))
            p.grad = None
        return total, clip_scale


def optimizer_step(opt: AdamW, params: list[tuple[Parameter, float]], cfg: StageConfig) -> tuple[float, float]:
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


def _train_loop(loss_fn, n_samples: int, cfg: StageConfig, params: list[Parameter], rng, log_path):
    opt = AdamW()
    # stage 2 trains the new head and alignment conv at lr_new and the loaded
    # backbone at lr_backbone; the other stages have one rate
    rated = [(p, cfg.lr_new if p.name.startswith(("head.", "align_conv.")) else cfg.lr_backbone) for p in params]
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
            loss = loss_fn(idx)
            value = loss.item()
            step += 1
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
                (cfg.stage, epoch, step, f"{value:.8g}", cfg.lr_new, cfg.lr_backbone, f"{wall_s * 1e3:.3f}")
                + (f"{grad_norm:.8g}", f"{clip_scale:.8g}", f"{len(idx) / wall_s:.1f}")
            )
        epoch_losses.append(epoch_sum / max(1, epoch_n))
    _write_log(log_path, rows)
    return step_losses, epoch_losses


def run_stage1(
    windows: np.ndarray,
    cfg: StageConfig,
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
    if cfg.stage != "stage1_autoregressive":
        raise InvalidConfig(f"run_stage1 got stage {cfg.stage!r}")
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

    step_losses, epoch_losses = _train_loop(loss_fn, windows.shape[0], cfg, params, rng, log_path)
    ckpt = checkpoint_from_model(model, "stage1", prefixes=STAGE1_PREFIXES)
    return TrainResult(ckpt, model, step_losses, epoch_losses)


def run_stage2(
    windows: np.ndarray,
    targets: np.ndarray,
    cfg: StageConfig,
    stage1_ckpt: Checkpoint,
    seed: int = 0,
    log_path: str | None = None,
) -> TrainResult:
    """Train the prediction head at a larger learning rate while the loaded
    backbone and embedding update slowly; returns the foundation checkpoint.

    ``windows`` [n, L] and ``targets`` [n, T] gather batches as in
    ``run_stage1``, cast to the checkpoint's dtype."""
    if cfg.stage != "stage2_head":
        raise InvalidConfig(f"run_stage2 got stage {cfg.stage!r}")
    if windows.ndim != 2 or windows.shape[0] == 0:
        raise DataError("stage 2 needs a non-empty [n, L] window array")
    model_cfg = stage1_ckpt.config()
    if targets.shape != (windows.shape[0], model_cfg.horizon):
        raise DataError(f"targets shape {targets.shape} != (n, horizon={model_cfg.horizon})")
    dtype = next(iter(stage1_ckpt.tensors.values())).dtype
    model = build_model(model_cfg, seed=seed, dtype=dtype)
    load_into_model(model, stage1_ckpt, required_prefixes=STAGE1_PREFIXES)
    params = model.parameters()
    rng = np.random.default_rng(seed)

    def loss_fn(idx):
        return stage2_loss(_batch(windows, idx, dtype), _batch(targets, idx, dtype), model)

    step_losses, epoch_losses = _train_loop(loss_fn, windows.shape[0], cfg, params, rng, log_path)
    return TrainResult(checkpoint_from_model(model, "stage2"), model, step_losses, epoch_losses)


def xchannel_gate(cfg: StageConfig, n_windows: int, n_channels: int) -> tuple[bool, str]:
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
    cfg: StageConfig,
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
    if cfg.stage != "finetune":
        raise InvalidConfig(f"run_finetune got stage {cfg.stage!r}")
    if windows.ndim != 3 or windows.shape[0] == 0:
        raise DataError("fine-tuning needs a non-empty [n, D, L] window array")
    n, d, _ = windows.shape
    model_cfg_dict = dict(foundation_ckpt.model_config)
    if cfg.enable_xchannel:  # ModelConfig rejects a single channel
        model_cfg_dict["xchannel_enabled"] = True
        model_cfg_dict["n_channels"] = d
    model_cfg = ModelConfig.from_dict(model_cfg_dict)
    dtype = next(iter(foundation_ckpt.tensors.values())).dtype
    model = build_model(model_cfg, seed=seed, dtype=dtype)
    load_into_model(model, foundation_ckpt, required_prefixes=STAGE1_PREFIXES + ("head.", "align_conv."))

    for p in model.frozen_block_parameters():
        p.set_trainable(False)
    params = model.parameters()
    rng = np.random.default_rng(seed)

    # multivariate batches regardless of the xchannel switch, so paired runs
    # differing only in that module see identical batch schedules
    def loss_fn(idx):
        return stage2_loss(_batch(windows, idx, dtype), _batch(targets, idx, dtype), model)

    step_losses, epoch_losses = _train_loop(loss_fn, n, cfg, params, rng, log_path)
    return TrainResult(checkpoint_from_model(model, "finetune"), model, step_losses, epoch_losses)
