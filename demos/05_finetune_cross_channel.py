"""Fine-tuning with frozen Mamba blocks and compressed cross-channel attention.

The target dataset plants an exact cross-channel dependence: channel 1 is
channel 0 delayed by four steps. A channel-independent model cannot see
channel 0's most recent values when predicting channel 1, so the cross-channel
module has a real signal to recover. Both fine-tuning runs share seeds and
batch schedules; they differ only in whether the module exists.
"""

import hashlib

import numpy as np

from tsmamba import data as D
from tsmamba import model as M
from tsmamba import train as TR

L, T_HORIZON = 128, 4
spec = D.SplitSpec()

print("== pretrain a short-horizon foundation on generic sinusoids ==")
pre = D.synth_generate(
    2024, 4, 8_000,
    [D.Sinusoid(freq=1 / 24, channel=0), D.Sinusoid(freq=1 / 48, phase=1.3, channel=1),
     D.Sinusoid(freq=1 / 96, phase=0.5, channel=2), D.Sinusoid(freq=1 / 32, phase=2.1, channel=3),
     D.Noise(sigma=0.1)],
)
n1, _ = D.train_boundaries(pre.n_total, spec)
std = D.standardize(pre, D.compute_train_stats(pre, n1))
train, _, _ = D.split_windows(std, spec, L, T_HORIZON, stride=8)
x, y = D.ChannelRows([train], "inputs"), D.ChannelRows([train], "targets")
cfg = M.ModelConfig(horizon=T_HORIZON, n_channels=4, lookback=L, patch_len=8,
                    d_model=32, n_layers=2, d_state=8, head_compress_dim=8)
model = M.build_model(cfg, seed=7, dtype=np.float32)
r1 = TR.run_stage1(x, TR.stage1_config(epochs=1, batch_size=64), model, seed=1)
foundation = TR.run_stage2(x, y, TR.stage2_config(epochs=2, batch_size=64), r1.checkpoint, seed=2).checkpoint
print(f"foundation ready ({len(foundation.tensors)} tensors)")

print("\n== target dataset with a planted lag-4 copy (channel 0 -> channel 1) ==")
lag = D.synth_generate(
    777, 4, 4_000,
    [
        D.Noise(sigma=1.0, channel=0),
        D.Sinusoid(freq=1 / 40, amp=0.3, channel=0),
        D.CrossLag(src=0, dst=1, lag=4, gain=1.0),
        D.Sinusoid(freq=1 / 28, amp=1.0, phase=0.7, channel=2),
        D.Noise(sigma=0.1, channel=2),
        D.Sinusoid(freq=1 / 56, amp=1.0, phase=1.9, channel=3),
        D.Noise(sigma=0.1, channel=3),
    ],
)
n1, _ = D.train_boundaries(lag.n_total, spec)
lag_std = D.standardize(lag, D.compute_train_stats(lag, n1))
ftrain, _, ftest = D.split_windows(lag_std, spec, L, T_HORIZON, stride=4)
print(f"fine-tune windows: {len(ftrain)}, held-out: {len(ftest)}")

results = {}
for enable in (False, True):
    ft_cfg = TR.finetune_config(epochs=3, batch_size=16, enable_xchannel=enable, min_samples_for_xchannel=1)
    r = TR.run_finetune(ftrain.inputs, ftrain.targets, ft_cfg, foundation, seed=11)
    group = M.window_group(r.model.config, ftest.n_channels, np.dtype(np.float32).itemsize)
    results[enable] = D.score(lambda part: M.forecast_windows(r.model, part, "held-out"), ftest, group)[:, 0].mean()
    label = "with xchannel" if enable else "no xchannel  "
    print(f"{label}: step-0 loss {r.step_losses[0]:.5f}, final {r.step_losses[-1]:.5f}, "
          f"held-out MSE {results[enable]:.5f}")

    if enable:
        frozen = {p.name for p in r.model.frozen_block_parameters()}
        digest = lambda t: hashlib.sha256(np.ascontiguousarray(t).tobytes()).hexdigest()[:10]
        same = all(digest(r.checkpoint.tensors[k]) == digest(foundation.tensors[k]) for k in frozen)
        print(f"frozen Mamba-block tensors untouched: {same} ({len(frozen)} tensors)")

print(f"\ncross-channel module gain on held-out MSE: {results[False] - results[True]:+.5f}")
