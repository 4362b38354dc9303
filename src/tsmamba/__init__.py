"""Linear-complexity selective state-space forecaster.

Library layout mirrors the pipeline: :mod:`tsmamba.tensor` is the autodiff
substrate, :mod:`tsmamba.ssm` the selective-scan core, :mod:`tsmamba.model`
the bidirectional forecasting network, :mod:`tsmamba.train` the two-stage
transfer-learning and fine-tuning loops, :mod:`tsmamba.data` ingestion and
metrics, :mod:`tsmamba.checkpoint` the binary snapshot format, and
:mod:`tsmamba.cli` the command-line surface.
"""

from .checkpoint import Checkpoint, load_checkpoint, model_from_checkpoint, save_checkpoint
from .data import (
    CrossLag,
    Noise,
    Sinusoid,
    SplitSpec,
    TimeSeriesDataset,
    Trend,
    Windows,
    load_csv,
    metric_mae,
    metric_mse,
    split_windows,
    standardize,
    synth_generate,
)
from .errors import NonFiniteLoss
from .model import (
    BackboneOutput,
    Model,
    ModelConfig,
    NormStats,
    backbone_forward,
    build_model,
    forecast,
    revin_denormalize,
    revin_normalize,
)
from .params import Parameter
from .ssm import (
    EncoderParams,
    MambaBlockParams,
    SSMParams,
    linear_recurrence_parallel,
    selective_scan_parallel,
    selective_scan_sequential,
)
from .tensor import Tensor, backward, finite_diff_grad, no_grad
from .train import (
    AdamW,
    FinetuneConfig,
    Stage1Config,
    Stage1Heads,
    Stage2Config,
    TrainResult,
    huber_loss,
    run_finetune,
    run_stage1,
    run_stage2,
    stage1_loss,
    stage2_loss,
)

__version__ = "0.1.0"
