"""Zero-shot forecasting: one checkpoint, arbitrary channel counts.

Trains a small foundation model on synthetic sinusoids, then forecasts a
dataset it never saw, with a different number of channels, relying on
channel-independent processing plus reversible instance normalization.
"""

import tempfile

import numpy as np

from tsmamba import data as D
from tsmamba import model as M
from tsmamba import train as TR
from tsmamba.checkpoint import load_checkpoint, model_from_checkpoint, save_checkpoint
from tsmamba.tensor import Tensor, no_grad

L, T_HORIZON = 64, 16
spec = D.SplitSpec()

print("== pretrain a small foundation model on a mixed-frequency corpus ==")
periods = [10, 14, 18, 22, 26, 32, 40, 52]
ds = D.synth_generate(
    11, len(periods), 10_000,
    [D.Sinusoid(freq=1 / p, phase=0.61 * i, amp=0.8 + 0.1 * i, channel=i) for i, p in enumerate(periods)]
    + [D.Noise(sigma=0.08)],
)
n1, _ = D.train_boundaries(ds.n_total, spec)
std = D.standardize(ds, D.compute_train_stats(ds, n1))
train, _, _ = D.split_windows(std, spec, L, T_HORIZON, stride=8)
# channel rows gathered per batch and cast to the model's dtype by the trainer
x, y = D.ChannelRows([train], "inputs"), D.ChannelRows([train], "targets")
print(f"{len(x)} univariate training windows from {len(periods)} series")

cfg = M.ModelConfig(horizon=T_HORIZON, n_channels=len(periods), lookback=L, patch_len=8,
                    d_model=24, n_layers=2, d_state=8, head_compress_dim=6)
model = M.build_model(cfg, seed=3, dtype=np.float32)
r1 = TR.run_stage1(x, TR.stage1_config(epochs=2, batch_size=64), model, seed=1)
r2 = TR.run_stage2(x, y, TR.stage2_config(epochs=3, batch_size=64), r1.checkpoint, seed=2)
print(f"stage1 loss {r1.step_losses[0]:.3f} -> {r1.step_losses[-1]:.3f}; "
      f"stage2 loss {r2.step_losses[0]:.3f} -> {r2.step_losses[-1]:.3f}")

with tempfile.NamedTemporaryFile(suffix=".ckpt", delete=False) as tmp:
    ckpt_path = tmp.name
save_checkpoint(r2.checkpoint, ckpt_path)
foundation = model_from_checkpoint(load_checkpoint(ckpt_path))
print(f"checkpoint saved and reloaded: {len(r2.checkpoint.tensors)} tensors")

print("\n== forecast an unseen 5-channel dataset, zero-shot ==")
unseen = D.synth_generate(
    99, 5, 400,
    [D.Sinusoid(freq=1 / 20, channel=c, phase=0.5 * c, amp=1.0 + 0.2 * c) for c in range(5)]
    + [D.Trend(slope=0.002, channel=4), D.Noise(sigma=0.05)],
)
window = unseen.values[-L - T_HORIZON : -T_HORIZON].T
future = unseen.values[-T_HORIZON:].T
with no_grad():
    pred = M.forecast(Tensor(window.astype(np.float32)), foundation).array
naive = np.repeat(window[:, -1:], T_HORIZON, axis=1)
print(f"zero-shot MSE {D.metric_mse(pred, future):.4f} vs repeat-last {D.metric_mse(naive, future):.4f}")

print("\n== forecasts follow per-channel affine changes of the input ==")
scaled = 10.0 * window + 100.0
with no_grad():
    pred_scaled = M.forecast(Tensor(scaled.astype(np.float32)), foundation).array
gap = np.max(np.abs(pred_scaled - (10.0 * pred + 100.0)))
print(f"max |forecast(10x+100) - (10*forecast(x)+100)| = {gap:.2e}")
