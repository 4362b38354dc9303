"""The two-stage transfer-learning pipeline, end to end.

Stage 1 teaches the backbone patch-level structure through next/previous-patch
prediction; stage 2 restores the long-horizon head and trains it at a larger
learning rate than the backbone. The result is evaluated on a held-out
chronological split against the repeat-last-value baseline.
"""

import numpy as np

from tsmamba import data as D
from tsmamba import model as M
from tsmamba import train as TR

L, T_HORIZON = 128, 32
spec = D.SplitSpec()

print("== synthetic multivariate dataset ==")
ds = D.synth_generate(
    2024, 4, 8_000,
    [
        D.Sinusoid(freq=1 / 24, amp=1.0, channel=0),
        D.Sinusoid(freq=1 / 48, amp=0.8, phase=1.3, channel=1),
        D.Sinusoid(freq=1 / 96, amp=1.2, phase=0.5, channel=2),
        D.Sinusoid(freq=1 / 32, amp=1.0, phase=2.1, channel=3),
        D.Trend(slope=2e-4, channel=2),
        D.Noise(sigma=0.1),
    ],
)
n1, _ = D.train_boundaries(ds.n_total, spec)
std = D.standardize(ds, D.compute_train_stats(ds, n1))
train, val, test = D.split_windows(std, spec, L, T_HORIZON, stride=8)
print(f"windows: train={len(train)} val={len(val)} test={len(test)}")
x, y = D.ChannelRows([train], "inputs"), D.ChannelRows([train], "targets")

cfg = M.ModelConfig(horizon=T_HORIZON, n_channels=4, lookback=L, patch_len=8,
                    d_model=32, n_layers=2, d_state=8, head_compress_dim=8)
model = M.build_model(cfg, seed=7, dtype=np.float32)

print("\n== stage 1: autoregressive patch prediction ==")
r1 = TR.run_stage1(x, TR.stage1_config(epochs=2, batch_size=64), model, seed=1)
print(f"epoch mean losses: {[round(v, 4) for v in r1.epoch_losses]}")

print("\n== stage 2: long-horizon head, split learning rates ==")
r2 = TR.run_stage2(x, y, TR.stage2_config(epochs=2, batch_size=64), r1.checkpoint, seed=2)
print(f"epoch mean losses: {[round(v, 4) for v in r2.epoch_losses]}")
print(f"head-init loss {r2.step_losses[0]:.4f} -> final {r2.step_losses[-1]:.4f} "
      f"({1 - r2.step_losses[-1] / r2.step_losses[0]:.1%} reduction)")

print("\n== held-out evaluation ==")
# score the test split as `tsmamba evaluate` does: each window's (MSE, MAE),
# forecast a group of windows at a time
group = M.window_group(cfg, test.n_channels, np.dtype(np.float32).itemsize)
mse, mae = D.score(lambda part: M.forecast_windows(r2.model, part, "test"), test, group).mean(axis=0)
mse_naive = D.score(D.repeat_last, test, group)[:, 0].mean()
print(f"model   MSE={mse:.4f}  MAE={mae:.4f}")
print(f"baseline MSE={mse_naive:.4f} (repeat last value)")
print(f"improvement over baseline: {1 - mse / mse_naive:.1%}")
