"""Forecasting network: preprocessing, bidirectional backbone, heads.

Every channel of a multivariate window runs through the same embedding and
encoders as an independent univariate sequence, so the batch axis and the
channel axis are interchangeable everywhere except the optional cross-channel
attention module, which deliberately mixes channels during fine-tuning.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .errors import DegenerateWindow, InvalidConfig, PatchLengthMismatch, ShapeMismatch
from .params import NoDraws, Parameter, ParamTree, normal_init, uniform_init
from .ssm import EncoderParams, encoder_forward_batched, init_encoder
from .tensor import Tensor

ALIGN_KERNEL = 3
XSHIFT_KERNEL = 3
EXPAND_FACTOR = 2  # Mamba block inner width = EXPAND_FACTOR * d_model
LOCAL_CONV_KERNEL = 4  # Mamba block causal conv width, Mamba's d_conv

# Keys of configs written before these choices were fixed; each is accepted
# only at the value the architecture, or the loss, now hardwires (a float
# also as the equal JSON integer).
_RETIRED_KEYS = {
    "expand_factor": 2,
    "revin_affine": False,
    "combine_mode": "add",
    "local_conv_kernel": LOCAL_CONV_KERNEL,
    "huber_delta": 1.0,
}

_JSON_KINDS = {int: "an integer", float: "a finite number", bool: "true or false"}


def json_typed(section: str, key: str, value, kind: type):
    """``value`` of config key ``section``.``key`` as ``kind`` (int, float or
    bool), if its JSON type fits: an integer is not a bool, a float may be
    an integer but must be finite, a bool must be true or false."""
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise InvalidConfig(f"{section} key {key!r} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def typed_section(cls, section: str, d) -> dict:
    """The items of config section ``d``, each value checked against the JSON
    kind of the dataclass ``cls``'s field of that name; rejects a section that
    is not an object, unknown keys, and fields marked ``config_key=False``."""
    if not isinstance(d, dict):
        raise InvalidConfig(f"config section {section!r} must be an object")
    kinds = {f.name: {"int": int, "float": float, "bool": bool}[f.type] for f in fields(cls) if f.metadata.get("config_key", True)}
    unknown = set(d) - set(kinds)
    if unknown:
        raise InvalidConfig(f"unknown {section} keys: {sorted(unknown)}")
    return {k: json_typed(section, k, v, kinds[k]) for k, v in d.items()}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# the least value of each numeric ModelConfig field
_LOWER_BOUNDS = {
    "horizon": 1,
    "n_channels": 1,
    "lookback": 1,
    "patch_len": 1,
    "d_model": 1,
    "n_layers": 0,
    "d_state": 1,
    "head_compress_dim": 0,
    "revin_eps": 0.0,
}


@dataclass
class ModelConfig:
    """Architecture hyperparameters; one checkpoint bakes in one horizon."""

    horizon: int
    n_channels: int
    lookback: int = 512
    patch_len: int = 16
    d_model: int = 768
    n_layers: int = 3
    d_state: int = 16
    head_compress_dim: int = 0  # 0 derives max(4, d_model // 12)
    revin_eps: float = 1e-5
    xchannel_enabled: bool = False

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for key, low in _LOWER_BOUNDS.items():
            value = getattr(self, key)
            if value < low:
                raise InvalidConfig(f"model key {key!r} must be >= {low}, got {value!r}")
        if self.lookback % self.patch_len != 0:
            raise PatchLengthMismatch(
                f"lookback {self.lookback} not divisible by patch_len {self.patch_len}"
            )
        if self.head_dim >= self.d_model:
            raise InvalidConfig(
                f"head_compress_dim {self.head_dim} must be < d_model {self.d_model}"
            )
        if self.xchannel_enabled and self.n_channels < 2:
            raise InvalidConfig("cross-channel attention requires n_channels >= 2")

    @property
    def n_tokens(self) -> int:
        return self.lookback // self.patch_len

    @property
    def d_inner(self) -> int:
        return EXPAND_FACTOR * self.d_model

    @property
    def head_dim(self) -> int:
        return self.head_compress_dim if self.head_compress_dim > 0 else max(4, self.d_model // 12)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def typed_dict(cls, d: dict) -> dict:
        """The keys of ``d`` without the retired ones, each value checked
        against its field's JSON kind; rejects unknown keys."""
        d = dict(d)
        for key, fixed in _RETIRED_KEYS.items():
            value = d.pop(key, fixed)
            kinds = (int, float) if type(fixed) is float else (type(fixed),)
            if type(value) not in kinds or value != fixed:
                raise InvalidConfig(f"model key {key!r} is retired: {value!r} is not supported, only {fixed!r}")
        return typed_section(cls, "model", d)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = cls.typed_dict(d)
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(d)
        if missing:
            raise InvalidConfig(f"model config lacks keys: {sorted(missing)}")
        return cls(**d)


def compressed_channel_count(n_channels: int) -> int:
    """ceil(log2(D)) clamped to at least one compressed channel."""
    return max(1, math.ceil(math.log2(n_channels)))


# ---------------------------------------------------------------------------
# Reversible instance normalization
# ---------------------------------------------------------------------------


@dataclass
class NormStats:
    """Per-window per-channel statistics captured during normalization."""

    mean: np.ndarray
    std: np.ndarray
    eps: float

    @property
    def denom(self) -> np.ndarray:
        return self.std + self.eps


def revin_normalize(x: Tensor, eps: float = 1e-5) -> tuple[Tensor, NormStats]:
    """Normalize each leading-index series over its window; keeps the stats.

    The input is treated as data: gradients never flow into the window, only
    through parameters downstream. The statistics are taken over a C-ordered
    copy of a window in any other layout, so they round alike in every layout.
    """
    arr = np.ascontiguousarray(x.array)
    if arr.shape[-1] < 2:
        raise DegenerateWindow(f"window length {arr.shape[-1]} < 2")
    mean = arr.mean(axis=-1)
    std = arr.std(axis=-1)
    denom = std + eps
    if np.any(denom <= 0):
        raise DegenerateWindow("zero-variance window requires eps > 0")
    x_hat = (arr - mean[..., None]) / denom[..., None]
    return Tensor(x_hat.astype(arr.dtype, copy=False)), NormStats(mean=mean, std=std, eps=eps)


def revin_denormalize(y_hat: Tensor, stats: NormStats) -> Tensor:
    """y = y_hat * (std + eps) + mean over the horizon axis, as one taped op
    whose VJP is g * (std + eps); the per-row stats are never widened."""
    yv = y_hat.array
    if stats.mean.shape != yv.shape[:-1]:
        raise ShapeMismatch(f"stats for {stats.mean.shape} cannot denormalize {yv.shape}")
    scale = stats.denom[..., None].astype(yv.dtype, copy=False)
    out = yv * scale
    out += stats.mean[..., None].astype(yv.dtype, copy=False)
    return T.apply_op(out, [(y_hat, lambda g: g * scale)])


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass
class EmbeddingParams(ParamTree):
    weight: Parameter  # [d_model, 1, patch_len], stride = kernel = patch_len
    bias: Parameter  # [d_model]


@dataclass
class AlignConvParams(ParamTree):
    weight: Parameter  # [d_model, ALIGN_KERNEL] depthwise over the token axis
    bias: Parameter  # [d_model]


@dataclass
class HeadParams(ParamTree):
    compress_w: Parameter  # [d_model, head_dim]
    compress_b: Parameter  # [head_dim]
    out_w: Parameter  # [n_tokens * head_dim, horizon]
    out_b: Parameter  # [horizon]


@dataclass
class XChannelParams(ParamTree):
    tshift_w: Parameter  # [n_channels, XSHIFT_KERNEL] per-channel FIR over tokens
    compress_w: Parameter  # [n_channels, d_compressed]
    compress_b: Parameter  # [d_compressed]
    expand_w: Parameter  # [d_compressed, n_channels], zero-initialized
    expand_b: Parameter  # [n_channels], zero-initialized

    @property
    def n_channels(self) -> int:
        return self.tshift_w.value.shape[0]


@dataclass
class Model(ParamTree):
    config: ModelConfig
    embedding: EmbeddingParams
    fwd_encoder: EncoderParams
    bwd_encoder: EncoderParams
    align: AlignConvParams
    head: HeadParams
    xchannel: XChannelParams | None = None

    def named_parameters(self) -> dict[str, Parameter]:
        """The parameters by name; a name held twice is an InvalidConfig."""
        params = self.parameters()
        named = {p.name: p for p in params}
        if len(named) != len(params):
            dupes = sorted({p.name for p in params if named[p.name] is not p})
            raise InvalidConfig(f"duplicate parameter names: {dupes}")
        return named

    def frozen_block_parameters(self) -> list[Parameter]:
        """The Mamba blocks' tensors, which fine-tuning freezes; norm gains excluded."""
        return [p for enc in (self.fwd_encoder, self.bwd_encoder) for block, _ in enc.layers for p in block.parameters()]


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def init_embedding(rng, cfg: ModelConfig, dtype) -> EmbeddingParams:
    return EmbeddingParams(
        weight=Parameter("embedding.weight", normal_init(rng, (cfg.d_model, 1, cfg.patch_len), 1.0 / math.sqrt(cfg.patch_len), dtype)),
        bias=Parameter("embedding.bias", T.zeros(cfg.d_model, dtype=dtype)),
    )


def init_align(rng, cfg: ModelConfig, dtype) -> AlignConvParams:
    # identity tap plus noise: starts close to a pass-through shift
    w = rng.standard_normal((cfg.d_model, ALIGN_KERNEL)) * 0.02
    w[:, ALIGN_KERNEL // 2] += 1.0
    return AlignConvParams(
        weight=Parameter("align_conv.weight", Tensor(w.astype(dtype))),
        bias=Parameter("align_conv.bias", T.zeros(cfg.d_model, dtype=dtype)),
    )


def init_head(rng, cfg: ModelConfig, dtype) -> HeadParams:
    # out_w starts at zero: the untrained head predicts the window mean,
    # which anchors the loss-reduction baseline for stage 2
    return HeadParams(
        compress_w=Parameter("head.compress_w", uniform_init(rng, (cfg.d_model, cfg.head_dim), cfg.d_model, dtype)),
        compress_b=Parameter("head.compress_b", T.zeros(cfg.head_dim, dtype=dtype)),
        out_w=Parameter("head.out_w", T.zeros((cfg.n_tokens * cfg.head_dim, cfg.horizon), dtype=dtype)),
        out_b=Parameter("head.out_b", T.zeros(cfg.horizon, dtype=dtype)),
    )


def init_xchannel(rng, cfg: ModelConfig, dtype) -> XChannelParams:
    d = cfg.n_channels
    if d < 2:
        raise InvalidConfig("cross-channel attention requires n_channels >= 2")
    d_c = compressed_channel_count(d)
    tshift = np.zeros((d, XSHIFT_KERNEL))
    tshift[:, XSHIFT_KERNEL // 2] = 1.0
    return XChannelParams(
        tshift_w=Parameter("xchannel.tshift_w", Tensor(tshift.astype(dtype))),
        compress_w=Parameter("xchannel.compress_w", uniform_init(rng, (d, d_c), d, dtype)),
        compress_b=Parameter("xchannel.compress_b", T.zeros(d_c, dtype=dtype)),
        expand_w=Parameter("xchannel.expand_w", T.zeros((d_c, d), dtype=dtype)),
        expand_b=Parameter("xchannel.expand_b", T.zeros(d, dtype=dtype)),
    )


def build_model(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> Model:
    return _assemble(cfg, np.random.default_rng(seed), dtype)


def _unfilled_model(cfg: ModelConfig, dtype) -> Model:
    """The parameter tree of ``build_model`` without its random draws: the
    tensors it draws, or derives from a draw or a grid (``a_log``,
    ``dt_bias``), hold zero placeholders, so every one must be loaded next."""
    return _assemble(cfg, NoDraws(), dtype)


def _assemble(cfg: ModelConfig, rng, dtype) -> Model:
    cfg.validate()
    model = Model(
        config=cfg,
        embedding=init_embedding(rng, cfg, dtype),
        fwd_encoder=init_encoder(rng, cfg.n_layers, cfg.d_model, cfg.d_inner, cfg.d_state, LOCAL_CONV_KERNEL, dtype, "fwd_encoder"),
        bwd_encoder=init_encoder(rng, cfg.n_layers, cfg.d_model, cfg.d_inner, cfg.d_state, LOCAL_CONV_KERNEL, dtype, "bwd_encoder"),
        align=init_align(rng, cfg, dtype),
        head=init_head(rng, cfg, dtype),
        xchannel=init_xchannel(rng, cfg, dtype) if cfg.xchannel_enabled else None,
    )
    model.named_parameters()  # refuses a duplicate name
    return model


# ---------------------------------------------------------------------------
# Forward pieces
# ---------------------------------------------------------------------------


def patch_embed_batched(x_hat: Tensor, emb: EmbeddingParams, patch_len: int) -> Tensor:
    """Map normalized windows [B, L] to tokens [B, L/patch_len, d_model].

    A linear map of non-overlapping patches; the weight keeps its
    [d_model, 1, patch_len] stride-equals-kernel conv layout.
    """
    b_, length = x_hat.shape
    if length % patch_len != 0:
        raise PatchLengthMismatch(f"window length {length} not divisible by patch_len {patch_len}")
    d_model = emb.bias.value.shape[0]
    patches = T.reshape(x_hat, (b_ * (length // patch_len), patch_len))
    w = T.transpose(T.reshape(emb.weight.value, (d_model, patch_len)), (1, 0))
    tokens = T.linear(patches, w, emb.bias.value)
    return T.reshape(tokens, (b_, length // patch_len, d_model))


def align_conv(rep: Tensor, align: AlignConvParams) -> Tensor:
    """Depthwise temporal conv over the token axis of [B, n_tokens, d_model], symmetric zero padding."""
    return T.depthwise_conv1d(rep, align.weight.value, align.bias.value, pad_left=ALIGN_KERNEL // 2, pad_right=ALIGN_KERNEL // 2)


def backbone_forward(x_hat: Tensor, model: Model) -> tuple[Tensor, Tensor]:
    """Embed and encode each channel of the normalized input [D, L]:
    (fwd_rep, bwd_rep), each [D, n_tokens, d_model].

    The backward encoder runs on the time-flipped token sequence and its
    output is flipped back, so token t of ``fwd_rep`` has read patches 0..t
    and token t of ``bwd_rep`` patches t..n_tokens-1.
    """
    if x_hat.ndim != 2:
        raise ShapeMismatch(f"backbone input must be [channels, L], got {x_hat.shape}")
    tokens = patch_embed_batched(x_hat, model.embedding, model.config.patch_len)
    fwd_rep = encoder_forward_batched(tokens, model.fwd_encoder)
    bwd = encoder_forward_batched(T.flip(tokens, axis=1), model.bwd_encoder)
    return fwd_rep, T.flip(bwd, axis=1)


def head_core(combined: Tensor, head: HeadParams) -> Tensor:
    """Compress-GELU-flatten-project: [B, n_tokens, d_model] -> normalized [B, T]."""
    b_, n_tokens, _ = combined.shape
    h = T.gelu(T.linear(combined, head.compress_w.value, head.compress_b.value))
    flat = T.reshape(h, (b_, n_tokens * h.shape[2]))
    return T.linear(flat, head.out_w.value, head.out_b.value)


def xchannel_attention_batched(combined: Tensor, xp: XChannelParams) -> Tensor:
    """Cross-channel correction over [B, D, n_tokens, d_model].

    Per-channel temporal shift, channel compression to ceil(log2 D), scaled
    dot-product attention across compressed channels at each token, expansion
    back to D channels (zero-initialized), residual add.
    """
    d, d_model = combined.shape[1], combined.shape[3]
    if d != xp.n_channels:
        raise ShapeMismatch(f"xchannel built for {xp.n_channels} channels, got {d}")
    if d < 2:
        raise InvalidConfig("cross-channel attention requires D >= 2")

    # (1) time shift: one FIR filter per data channel, shared across features
    shift_in = T.transpose(combined, (0, 2, 3, 1))  # [B, n_tokens, d_model, D]
    shifted = T.depthwise_conv1d(shift_in, xp.tshift_w.value, None, pad_left=XSHIFT_KERNEL // 2, pad_right=XSHIFT_KERNEL // 2)

    # (2) kernel-size-1 conv across the channel axis: D -> d_c
    comp = T.linear(shifted, xp.compress_w.value, xp.compress_b.value)

    # (3) attention over compressed channels, applied per token
    q = T.transpose(comp, (0, 1, 3, 2))  # [B, n_tokens, d_c, d_model]
    scores = T.scale(T.matmul(q, T.transpose(q, (0, 1, 3, 2))), 1.0 / math.sqrt(d_model))
    attended = T.matmul(T.softmax(scores, axis=-1), q)

    # (4) expand d_c -> D; weights start at zero so the module begins inert
    expanded = T.linear(T.transpose(attended, (0, 1, 3, 2)), xp.expand_w.value, xp.expand_b.value)  # [B, n_tokens, d_model, D]
    correction = T.transpose(expanded, (0, 3, 1, 2))

    # (5) residual
    return T.add(combined, correction)


# ---------------------------------------------------------------------------
# End-to-end forecast
# ---------------------------------------------------------------------------


def forecast_normalized(x_hat: Tensor, model: Model) -> Tensor:
    """Normalized-space forecast for windows [B, D, L] -> [B, D, horizon].

    Channels share the backbone as independent sequences. The head reads the
    forward representation plus the alignment conv of the backward one,
    after the xchannel correction when present.
    """
    cfg = model.config
    if x_hat.ndim != 3:
        raise ShapeMismatch(f"forecast_normalized expects [B, D, L], got {x_hat.shape}")
    b_, d, length = x_hat.shape
    if length != cfg.lookback:
        raise ShapeMismatch(f"expected lookback {cfg.lookback}, got {length}")
    if model.xchannel is not None and d != cfg.n_channels:
        raise ShapeMismatch(f"xchannel model expects {cfg.n_channels} channels, got {d}")
    fwd_rep, bwd_rep = backbone_forward(T.reshape(x_hat, (b_ * d, length)), model)
    combined = T.add(fwd_rep, align_conv(bwd_rep, model.align))
    if model.xchannel is not None:
        stacked = T.reshape(combined, (b_, d) + combined.shape[1:])
        combined = T.reshape(xchannel_attention_batched(stacked, model.xchannel), combined.shape)
    return T.reshape(head_core(combined, model.head), (b_, d, cfg.horizon))


def forecast(x: Tensor, model: Model, scan_mode: str = "sequential") -> Tensor:
    """Forecast raw input [D, L] or [B, D, L] to raw output [D, horizon] or
    [B, D, horizon], with RevIN on the way in and out.

    Zero-shot accepts any channel count when xchannel is disabled; the
    backbone treats channels independently.
    """
    # ``scan_mode`` is accepted only because the benchmark's output checks
    # (perfbench/checks.py) pass scan_mode="sequential"; there is one scan.
    if scan_mode != "sequential":
        raise InvalidConfig(f"unknown scan mode {scan_mode!r}; the only scan is 'sequential'")
    cfg = model.config
    if x.ndim not in (2, 3):
        raise ShapeMismatch(f"forecast expects [D, L] or [B, D, L], got {x.shape}")
    if x.shape[-1] != cfg.lookback:
        raise ShapeMismatch(f"model lookback is {cfg.lookback}, input has {x.shape[-1]}")
    x_hat, stats = revin_normalize(x, eps=cfg.revin_eps)
    batch = x_hat if x.ndim == 3 else T.reshape(x_hat, (1,) + x.shape)
    y_hat = forecast_normalized(batch, model)
    return revin_denormalize(T.reshape(y_hat, x.shape[:-1] + (cfg.horizon,)), stats)
