"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines. The heavyweight two-stage pipeline is trained once per module
and shared by the criteria that exercise its checkpoints.
"""

import csv
import hashlib
import json
import time

import numpy as np
import pytest

from tsmamba import data as D
from tsmamba import model as M
from tsmamba import ssm
from tsmamba import tensor as T
from tsmamba import train as TR
from tsmamba.checkpoint import Checkpoint, load_checkpoint, model_from_checkpoint
from tsmamba.cli import _batched_forecast, main
from tsmamba.tensor import Tensor


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} {name}: {detail}"


def state_hash(tensors: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(tensors):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(tensors[name]).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Shared two-stage pipeline (criterion 6 config)
# ---------------------------------------------------------------------------

LOOKBACK, HORIZON, SHORT_HORIZON = 128, 32, 4

PRETRAIN_COMPONENTS = [
    D.Sinusoid(freq=1 / 24, amp=1.0, channel=0),
    D.Sinusoid(freq=1 / 48, amp=0.8, phase=1.3, channel=1),
    D.Sinusoid(freq=1 / 96, amp=1.2, phase=0.5, channel=2),
    D.Sinusoid(freq=1 / 32, amp=1.0, phase=2.1, channel=3),
    D.Trend(slope=1e-4, channel=2),
    D.Noise(sigma=0.1),
]

CROSSLAG_COMPONENTS = [
    D.Noise(sigma=1.0, channel=0),
    D.Sinusoid(freq=1 / 40, amp=0.3, channel=0),
    D.CrossLag(src=0, dst=1, lag=4, gain=1.0),
    D.Sinusoid(freq=1 / 28, amp=1.0, phase=0.7, channel=2),
    D.Noise(sigma=0.1, channel=2),
    D.Sinusoid(freq=1 / 56, amp=1.0, phase=1.9, channel=3),
    D.Noise(sigma=0.1, channel=3),
]


def desk_config(horizon: int) -> M.ModelConfig:
    return M.ModelConfig(
        horizon=horizon,
        n_channels=4,
        lookback=LOOKBACK,
        patch_len=8,
        d_model=32,
        n_layers=2,
        d_state=8,
        head_compress_dim=8,
    )


def _standardized(ds: D.TimeSeriesDataset, spec: D.SplitSpec, horizon: int, stride: int):
    n1, _ = D.train_boundaries(ds.n_total, spec)
    std = D.standardize(ds, D.compute_train_stats(ds, n1))
    return D.split_windows(std, spec, LOOKBACK, horizon, stride)


@pytest.fixture(scope="module")
def pipeline():
    started = time.perf_counter()
    spec = D.SplitSpec()
    ds = D.synth_generate(2024, 4, 20_000, PRETRAIN_COMPONENTS)
    train32, _, test32 = _standardized(ds, spec, HORIZON, stride=16)
    x32, y32 = D.flatten_channel_windows(train32)
    x32, y32 = x32.astype(np.float32), y32.astype(np.float32)

    cfg = desk_config(HORIZON)
    model = M.build_model(cfg, seed=7, dtype=np.float32)
    heads = TR.init_stage1_heads(np.random.default_rng(1), cfg, np.float32)
    probe = Tensor(x32[:256])
    with T.no_grad():
        stage1_initial = TR.stage1_loss(probe, model, heads).item()
    r1 = TR.run_stage1(x32, TR.stage1_config(epochs=3, batch_size=64), model, heads=heads, seed=1)
    with T.no_grad():
        stage1_final = TR.stage1_loss(probe, model, heads).item()

    # head-init probe: the stage-2 entry model before any update
    probe_y = Tensor(y32[:256])
    entry = M.build_model(cfg, seed=2, dtype=np.float32)
    from tsmamba.checkpoint import STAGE1_PREFIXES, load_into_model

    load_into_model(entry, r1.checkpoint, required_prefixes=STAGE1_PREFIXES)
    with T.no_grad():
        stage2_initial = TR.stage2_loss(probe, probe_y, entry).item()
    r2 = TR.run_stage2(x32, y32, TR.stage2_config(epochs=2, batch_size=64), r1.checkpoint, seed=2)
    with T.no_grad():
        stage2_final = TR.stage2_loss(probe, probe_y, r2.model).item()

    test_inputs = D.stack_inputs(test32)
    test_targets = D.stack_targets(test32)
    preds = _batched_forecast(r2.model, test32, "test")
    mse_model = D.metric_mse(preds, test_targets)
    mae_model = D.metric_mae(preds, test_targets)
    repeat = np.repeat(test_inputs[:, :, -1:], HORIZON, axis=2)
    mse_repeat = D.metric_mse(repeat, test_targets)

    # short-horizon foundation for the fine-tuning criteria, reusing stage 1
    train4, _, _ = _standardized(ds, spec, SHORT_HORIZON, stride=16)
    x4, y4 = D.flatten_channel_windows(train4)
    x4, y4 = x4.astype(np.float32), y4.astype(np.float32)
    ckpt4 = Checkpoint(
        model_config=desk_config(SHORT_HORIZON).to_dict(),
        stage="stage1",
        tensors=r1.checkpoint.tensors,
    )
    r2_short = TR.run_stage2(x4, y4, TR.stage2_config(epochs=2, batch_size=64), ckpt4, seed=2)

    lag_ds = D.synth_generate(777, 4, 6_000, CROSSLAG_COMPONENTS)
    lag_train, _, lag_test = _standardized(lag_ds, spec, SHORT_HORIZON, stride=4)

    return {
        "stage1": (stage1_initial, stage1_final),
        "stage2": (stage2_initial, stage2_final),
        "stage1_epoch_losses": r1.epoch_losses,
        "mse_model": mse_model,
        "mae_model": mae_model,
        "mse_repeat": mse_repeat,
        "foundation": r2.checkpoint,
        "foundation_short": r2_short.checkpoint,
        "lag_train": lag_train,
        "lag_test": lag_test,
        "wall_s": time.perf_counter() - started,
    }


# ---------------------------------------------------------------------------
# 1. Scan equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_scan_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        d_inner = int(rng.integers(1, 9))
        n_state = int(rng.integers(1, 5))
        length = int(rng.integers(1, 257))
        params = ssm.init_ssm_params(rng, d_inner, n_state, np.float64, "acc")
        x = Tensor(rng.standard_normal((d_inner, length)))
        with T.no_grad():
            y_seq = ssm.selective_scan_sequential(x, params).array
        y_par = ssm.selective_scan_parallel(x, params).array
        worst = max(worst, float(np.max(np.abs(y_seq - y_par))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 10.0
    report(1, "scan-equivalence", ok, f"max|par-seq|={worst:.2e}, {elapsed:.1f}s over 100 instances")


# ---------------------------------------------------------------------------
# 2. Gradient suite
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    cfg = M.ModelConfig(
        horizon=4,
        n_channels=2,
        lookback=32,
        patch_len=8,
        d_model=8,
        n_layers=1,
        d_state=4,
        head_compress_dim=4,
        xchannel_enabled=True,
    )
    model = M.build_model(cfg, seed=5, dtype=np.float64)
    rng = np.random.default_rng(6)
    for p in model.parameters():
        p.assign(rng.standard_normal(p.value.shape) * 0.25)
    x = rng.standard_normal((3, 2, 32))
    y = rng.standard_normal((3, 2, 4))

    params = model.parameters()
    loss = TR.stage2_loss(Tensor(x), Tensor(y), model)
    T.backward(loss, params)
    analytic = {p.name: p.grad.array.copy() for p in params}

    worst, worst_name = 0.0, ""
    for p in params:
        base = p.value.array.copy()

        def f(t, p=p):
            p.assign(t.array)
            return TR.stage2_loss(Tensor(x), Tensor(y), model)

        fd = T.finite_diff_grad(f, Tensor(base.copy()), 1e-5).array
        p.assign(base)
        denom = np.maximum(np.maximum(np.abs(analytic[p.name]), np.abs(fd)), 1e-5)
        err = float(np.max(np.abs(analytic[p.name] - fd) / denom))
        if err > worst:
            worst, worst_name = err, p.name
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 120.0
    report(2, "gradient-suite", ok, f"worst rel err {worst:.2e} at {worst_name}, {len(params)} tensors, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Linear complexity
# ---------------------------------------------------------------------------


def test_criterion_3_linear_complexity(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench-scan", "--len-list", "1024,2048,4096", "--d-inner", "64",
            "--n-state", "16", "--mode", "seq", "--reps", "11", "--out", str(out),
        ]
    )
    assert code == 0
    # process CPU time: other processes on a busy host do not count
    with out.open(newline="") as fh:
        cpu = {int(r["len"]): float(r["cpu_ms"]) for r in csv.DictReader(fh)}
    r1 = cpu[2048] / cpu[1024]
    r2 = cpu[4096] / cpu[2048]
    ok = 1.6 <= r1 <= 2.6 and 1.6 <= r2 <= 2.6
    report(3, "linear-complexity", ok, f"doubling ratios {r1:.2f}, {r2:.2f} (band [1.6, 2.6])")


# ---------------------------------------------------------------------------
# 4. RevIN roundtrip and affine equivariance
# ---------------------------------------------------------------------------


def test_criterion_4_revin_roundtrip_and_equivariance():
    rng = np.random.default_rng(104)
    x = rng.standard_normal((4, 64)) * 3.0 + 5.0
    x_hat, stats = M.revin_normalize(Tensor(x), eps=1e-5)
    roundtrip = float(np.max(np.abs(M.revin_denormalize(x_hat, stats).array - x)))

    cfg = M.ModelConfig(
        horizon=4, n_channels=2, lookback=32, patch_len=8, d_model=8,
        n_layers=1, d_state=4, head_compress_dim=4, revin_eps=0.0,
    )
    model = M.build_model(cfg, seed=8, dtype=np.float64)
    for p in model.parameters():
        p.assign(rng.standard_normal(p.value.shape) * 0.2)
    xw = rng.standard_normal((2, 32))
    scale = np.array([2.5, 0.3])
    shift = np.array([-7.0, 11.0])
    with T.no_grad():
        base = M.forecast(Tensor(xw), model).array
        moved = M.forecast(Tensor(scale[:, None] * xw + shift[:, None]), model).array
    equivariance = float(np.max(np.abs(moved - (scale[:, None] * base + shift[:, None]))))
    ok = roundtrip < 1e-10 and equivariance < 1e-6
    report(4, "revin-roundtrip+equivariance", ok, f"roundtrip {roundtrip:.2e}, affine gap {equivariance:.2e}")


# ---------------------------------------------------------------------------
# 5. Channel independence
# ---------------------------------------------------------------------------


def test_criterion_5_channel_independence():
    rng = np.random.default_rng(105)
    base_kwargs = dict(
        horizon=4, n_channels=4, lookback=32, patch_len=8, d_model=8,
        n_layers=1, d_state=4, head_compress_dim=4,
    )
    plain = M.build_model(M.ModelConfig(**base_kwargs), seed=9, dtype=np.float64)
    for p in plain.parameters():
        p.assign(rng.standard_normal(p.value.shape) * 0.2)
    x = rng.standard_normal((4, 32))
    perm = np.array([2, 0, 3, 1])
    with T.no_grad():
        base = M.forecast(Tensor(x), plain).array
        permuted = M.forecast(Tensor(x[perm]), plain).array
    perm_gap = float(np.max(np.abs(base[perm] - permuted)))

    with_x = M.build_model(M.ModelConfig(**base_kwargs, xchannel_enabled=True), seed=10, dtype=np.float64)
    without = M.build_model(M.ModelConfig(**base_kwargs), seed=10, dtype=np.float64)
    with T.no_grad():
        a = M.forecast(Tensor(x), with_x).array
        b = M.forecast(Tensor(x), without).array
    bit_identical = a.tobytes() == b.tobytes()
    ok = perm_gap < 1e-12 and bit_identical
    report(5, "channel-independence", ok, f"permutation gap {perm_gap:.2e}, zero-init xchannel bit-identical={bit_identical}")


# ---------------------------------------------------------------------------
# 6. Two-stage pipeline on synthetic data
# ---------------------------------------------------------------------------


def test_criterion_6_two_stage_pipeline(pipeline):
    s1_init, s1_final = pipeline["stage1"]
    s2_init, s2_final = pipeline["stage2"]
    epoch_losses = pipeline["stage1_epoch_losses"]
    mono = all(b <= a + 1e-6 for a, b in zip(epoch_losses, epoch_losses[1:]))
    reduction = 1.0 - s2_final / s2_init
    beats = pipeline["mse_model"] <= 0.7 * pipeline["mse_repeat"]
    ok = (
        s1_final < 0.2 * s1_init
        and mono
        and reduction >= 0.9
        and beats
        and pipeline["wall_s"] < 900.0
    )
    report(
        6,
        "two-stage-pipeline",
        ok,
        f"stage1 {s1_init:.3f}->{s1_final:.3f} (<0.2x), epoch means {['%.3f' % v for v in epoch_losses]}, "
        f"stage2 {s2_init:.3f}->{s2_final:.4f} ({reduction:.1%} reduction), "
        f"test MSE {pipeline['mse_model']:.4f} vs repeat-last {pipeline['mse_repeat']:.4f}, "
        f"{pipeline['wall_s']:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. Fine-tuning contract
# ---------------------------------------------------------------------------


def test_criterion_7_finetune_contract(pipeline):
    foundation = pipeline["foundation_short"]
    windows = pipeline["lag_train"][:100]
    x = D.stack_inputs(windows).astype(np.float32)
    y = D.stack_targets(windows).astype(np.float32)

    # step 0: no updates; forecasts must equal zero-shot bit for bit
    r0 = TR.run_finetune(
        x, y, TR.finetune_config(epochs=0, batch_size=2, enable_xchannel=True, min_samples_for_xchannel=1),
        foundation, seed=3,
    )
    zero_shot_model = model_from_checkpoint(foundation)
    probe = Tensor(x[0])
    with T.no_grad():
        zero_shot = M.forecast(probe, zero_shot_model).array
        step0 = M.forecast(probe, r0.model).array
    step0_identical = zero_shot.tobytes() == step0.tobytes()

    # 100 windows / batch 2 = 50 steps per epoch; 4 epochs = 200 steps
    r = TR.run_finetune(
        x, y, TR.finetune_config(epochs=4, batch_size=2, enable_xchannel=True, min_samples_for_xchannel=1),
        foundation, seed=3,
    )
    n_steps = len(r.step_losses)
    frozen = {p.name for p in r.model.frozen_block_parameters()}
    before = {k: v for k, v in foundation.tensors.items() if k in frozen}
    after = {k: v for k, v in r.checkpoint.tensors.items() if k in frozen}
    hashes_equal = state_hash(before) == state_hash(after)

    ok = step0_identical and hashes_equal and n_steps == 200
    report(
        7,
        "finetune-contract",
        ok,
        f"{n_steps} steps, frozen-hash equal={hashes_equal}, step-0 forecasts identical={step0_identical}",
    )


# ---------------------------------------------------------------------------
# 8. Cross-channel gain
# ---------------------------------------------------------------------------


def test_criterion_8_cross_channel_gain(pipeline):
    foundation = pipeline["foundation_short"]
    x = D.stack_inputs(pipeline["lag_train"]).astype(np.float32)
    y = D.stack_targets(pipeline["lag_train"]).astype(np.float32)
    test_targets = D.stack_targets(pipeline["lag_test"])

    mse = {}
    for enable in (False, True):
        cfg = TR.finetune_config(epochs=3, batch_size=16, enable_xchannel=enable, min_samples_for_xchannel=1)
        r = TR.run_finetune(x, y, cfg, foundation, seed=11)
        preds = _batched_forecast(r.model, pipeline["lag_test"], "lag_test")
        mse[enable] = D.metric_mse(preds, test_targets)

    ok = mse[True] <= mse[False]
    report(
        8,
        "cross-channel-gain",
        ok,
        f"held-out MSE with xchannel {mse[True]:.5f} vs without {mse[False]:.5f} (paired seed 11)",
    )


# ---------------------------------------------------------------------------
# 9. Huber and metric unit suite
# ---------------------------------------------------------------------------


def test_criterion_9_huber_metric_suite(pipeline):
    checks = [
        abs(TR.huber_loss(T.tensor([0.5]), T.tensor([0.0]), 1.0).item() - 0.125) < 1e-12,
        abs(TR.huber_loss(T.tensor([2.0]), T.tensor([0.0]), 1.0).item() - 1.5) < 1e-12,
        TR.huber_loss(T.tensor([1.0, 2.0]), T.tensor([1.0, 2.0]), 1.0).item() == 0.0,
        D.metric_mse(np.array([1.0, -1.0]), np.zeros(2)) == 1.0,
        D.metric_mae(np.array([1.0, -1.0]), np.zeros(2)) == 1.0,
        abs(D.metric_mse(np.full(5, 1.5), np.zeros(5)) - 2.25) < 1e-12,
        abs(D.metric_mae(np.full(5, 1.5), np.zeros(5)) - 1.5) < 1e-12,
    ]
    jensen = pipeline["mae_model"] <= np.sqrt(pipeline["mse_model"]) + 1e-12
    ok = all(checks) and jensen
    report(
        9,
        "huber-metric-suite",
        ok,
        f"{sum(checks)}/{len(checks)} closed-form checks, MAE {pipeline['mae_model']:.4f} "
        f"<= sqrt(MSE) {np.sqrt(pipeline['mse_model']):.4f}",
    )


# ---------------------------------------------------------------------------
# 10. Determinism through the CLI
# ---------------------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    ds = D.synth_generate(55, 2, 300, [D.Sinusoid(freq=1 / 16), D.Noise(sigma=0.1)])
    data_path = tmp_path / "series.csv"
    D.write_csv(ds, str(data_path))
    config = {
        "seed": 9,
        "precision": "float32",
        "window_stride": 2,
        "model": {"horizon": 8, "lookback": 32, "patch_len": 8, "d_model": 16, "n_layers": 1, "d_state": 4, "head_compress_dim": 4},
        "stage1": {"epochs": 2, "batch_size": 32},
        "stage2": {"epochs": 2, "batch_size": 32},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    outputs = []
    for tag in ("a", "b"):
        s1 = tmp_path / f"s1-{tag}.ckpt"
        s2 = tmp_path / f"s2-{tag}.ckpt"
        assert main(["pretrain", "--stage", "1", "--config", str(config_path), "--data", str(data_path), "--out", str(s1)]) == 0
        assert (
            main(["pretrain", "--stage", "2", "--config", str(config_path), "--data", str(data_path), "--init", str(s1), "--out", str(s2)])
            == 0
        )
        outputs.append((s1.read_bytes(), s2.read_bytes()))
    stage1_same = outputs[0][0] == outputs[1][0]
    stage2_same = outputs[0][1] == outputs[1][1]
    ok = stage1_same and stage2_same
    report(10, "cli-determinism", ok, f"stage1 byte-identical={stage1_same}, stage2 byte-identical={stage2_same}")
