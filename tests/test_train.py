"""Unit tests for the Huber objective, optimizer, and training stages."""

import hashlib

import numpy as np
import pytest

from tsmamba import data as D
from tsmamba import model as M
from tsmamba import tensor as T
from tsmamba import train as TR
from tsmamba.checkpoint import checkpoint_from_model
from tsmamba.errors import DataError, InsufficientPatches, InvalidConfig, MissingGrad, NonFiniteLoss, ShapeMismatch
from tsmamba.params import Parameter
from tsmamba.tensor import Tensor


def tiny_config(**overrides):
    base = dict(
        horizon=4,
        n_channels=2,
        lookback=32,
        patch_len=8,
        d_model=8,
        n_layers=1,
        d_state=4,
        head_compress_dim=4,
    )
    base.update(overrides)
    return M.ModelConfig(**base)


def sine_windows(n, length, horizon, seed=0):
    ds = D.synth_generate(seed, 1, n + length + horizon + 8, [D.Sinusoid(freq=1 / 16), D.Noise(sigma=0.05)])
    windows = D.make_windows(ds, length, horizon, stride=1)[:n]
    x = np.stack([w.input[0] for w in windows])
    y = np.stack([w.target[0] for w in windows])
    return x, y


# ---------------------------------------------------------------------------
# Huber loss
# ---------------------------------------------------------------------------


def test_huber_zero_error():
    x = T.tensor([1.0, -2.0, 3.0])
    assert TR.huber_loss(x, x, 1.0).item() == 0.0


def test_huber_quadratic_branch():
    loss = TR.huber_loss(T.tensor([0.5]), T.tensor([0.0]), 1.0)
    assert loss.item() == pytest.approx(0.125)


def test_huber_linear_branch():
    loss = TR.huber_loss(T.tensor([2.0]), T.tensor([0.0]), 1.0)
    assert loss.item() == pytest.approx(1.5)


def test_huber_continuity_at_boundary():
    delta = 1.0
    below = TR.huber_loss(T.tensor([delta - 1e-9]), T.tensor([0.0]), delta).item()
    above = TR.huber_loss(T.tensor([delta + 1e-9]), T.tensor([0.0]), delta).item()
    assert abs(above - below) < 1e-8
    assert TR.huber_loss(T.tensor([delta]), T.tensor([0.0]), delta).item() == pytest.approx(0.5 * delta**2)


def test_huber_exact_quadratic_inside_and_monotone():
    rng = np.random.default_rng(0)
    es = np.sort(np.abs(rng.standard_normal(64))) * 3.0
    vals = [TR.huber_loss(T.tensor([e]), T.tensor([0.0]), 1.0).item() for e in es]
    for e, v in zip(es, vals):
        if abs(e) <= 1.0:
            assert v == pytest.approx(0.5 * e * e, abs=1e-15)
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_huber_shape_check():
    with pytest.raises(ShapeMismatch):
        TR.huber_loss(T.ones((2,)), T.ones((3,)), 1.0)


# ---------------------------------------------------------------------------
# Stage losses
# ---------------------------------------------------------------------------


def reference_stage1(windows, model, heads):
    """Both autoregressive streams computed explicitly in numpy."""
    cfg = model.config
    x_hat, _ = M.revin_normalize(Tensor(windows), eps=cfg.revin_eps)
    bb = M.backbone_forward(x_hat, model)
    fwd = bb.fwd_rep.array
    bwd = bb.bwd_rep_aligned.array
    patches = x_hat.array.reshape(windows.shape[0], cfg.n_tokens, cfg.patch_len)
    errs = []
    for b in range(windows.shape[0]):
        for t in range(cfg.n_tokens - 1):
            pred = fwd[b, t] @ heads.next_w.value.array + heads.next_b.value.array
            errs.append(pred - patches[b, t + 1])
        for t in range(1, cfg.n_tokens):
            pred = bwd[b, t] @ heads.prev_w.value.array + heads.prev_b.value.array
            errs.append(pred - patches[b, t - 1])
    e = np.concatenate(errs)
    delta = cfg.huber_delta
    vals = np.where(np.abs(e) <= delta, 0.5 * e * e, delta * (np.abs(e) - delta / 2))
    return float(vals.mean())


def test_stage1_loss_matches_reference():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=1, dtype=np.float64)
    rng = np.random.default_rng(2)
    heads = TR.init_stage1_heads(rng, cfg, np.float64)
    windows = rng.standard_normal((3, 32))
    got = TR.stage1_loss(Tensor(windows), model, heads).item()
    assert got == pytest.approx(reference_stage1(windows, model, heads), rel=1e-12)


def test_stage1_minimal_window_has_one_term_each_stream():
    cfg = tiny_config(lookback=16, patch_len=8)  # exactly 2 patches
    model = M.build_model(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(4)
    heads = TR.init_stage1_heads(rng, cfg, np.float64)
    windows = rng.standard_normal((1, 16))
    got = TR.stage1_loss(Tensor(windows), model, heads).item()
    assert got == pytest.approx(reference_stage1(windows, model, heads), rel=1e-12)


def test_stage1_rejects_single_patch():
    cfg = tiny_config(lookback=8, patch_len=8)
    model = M.build_model(cfg, seed=5, dtype=np.float64)
    heads = TR.init_stage1_heads(np.random.default_rng(6), cfg, np.float64)
    with pytest.raises(InsufficientPatches):
        TR.stage1_loss(T.ones((1, 8), dtype=np.float64), model, heads)


def test_stage1_zero_heads_constant_channel_gives_zero_loss():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=7, dtype=np.float64)
    heads = TR.init_stage1_heads(np.random.default_rng(8), cfg, np.float64)
    for p in heads.parameters():
        p.assign(np.zeros_like(p.value.array))
    windows = np.full((2, 32), 9.0)
    assert TR.stage1_loss(Tensor(windows), model, heads).item() == pytest.approx(0.0, abs=1e-12)


def test_stage2_loss_perfect_prediction_is_zero():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=9, dtype=np.float64)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 32))
    with T.no_grad():
        x_hat, stats = M.revin_normalize(Tensor(x), eps=cfg.revin_eps)
        pred_hat = M.forecast_normalized(T.reshape(x_hat, (3, 1, 32)), model).array[:, 0]
    targets = pred_hat * stats.denom[:, None] + stats.mean[:, None]
    assert TR.stage2_loss(Tensor(x), Tensor(targets), model).item() == pytest.approx(0.0, abs=1e-12)


def test_stage2_loss_zero_head_closed_form():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=11, dtype=np.float64)  # head out_w is zero at init
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 32))
    y = rng.standard_normal((4, 4))
    got = TR.stage2_loss(Tensor(x), Tensor(y), model).item()
    _, stats = M.revin_normalize(Tensor(x), eps=cfg.revin_eps)
    t_hat = (y - stats.mean[:, None]) / stats.denom[:, None]
    e = np.abs(t_hat)
    vals = np.where(e <= 1.0, 0.5 * t_hat**2, np.abs(t_hat) - 0.5)
    assert got == pytest.approx(float(vals.mean()), rel=1e-12)


def test_stage2_loss_matches_compositional_oracle():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=13, dtype=np.float64)
    rng = np.random.default_rng(14)
    for p in model.parameters():
        p.assign(rng.standard_normal(p.value.shape) * 0.2)
    x = rng.standard_normal((3, 32))
    y = rng.standard_normal((3, 4))
    got = TR.stage2_loss(Tensor(x), Tensor(y), model).item()
    with T.no_grad():
        x_hat, stats = M.revin_normalize(Tensor(x), eps=cfg.revin_eps)
        pred_hat = T.reshape(M.forecast_normalized(T.reshape(x_hat, (3, 1, 32)), model), (3, 4))
    t_hat = (y - stats.mean[:, None]) / stats.denom[:, None]
    want = TR.huber_loss(pred_hat, Tensor(t_hat), cfg.huber_delta).item()
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def test_adamw_zero_lr_keeps_parameters():
    p = Parameter("p", T.tensor([1.0, -2.0]))
    p.grad = T.tensor([0.3, 0.4])
    before = p.value.array.tobytes()
    TR.AdamW().step([(p, 0.0)], weight_decay=0.1, grad_clip_norm=1.0)
    assert p.value.array.tobytes() == before


def test_adamw_uses_each_parameters_rate():
    p = Parameter("p", T.tensor([1.0]))
    q = Parameter("q", T.tensor([1.0]))
    p.grad, q.grad = T.tensor([0.5]), T.tensor([0.5])
    TR.AdamW().step([(p, 0.0), (q, 0.1)])
    assert p.value.array[0] == 1.0 and q.value.array[0] < 1.0


def test_adamw_scalar_hand_computation():
    lr, wd, b1, b2, eps = 0.1, 0.01, 0.9, 0.999, 1e-8
    g, p0 = 0.5, 1.0
    p = Parameter("p", T.tensor([p0]))
    p.grad = T.tensor([g])
    TR.AdamW(beta1=b1, beta2=b2, eps=eps).step([(p, lr)], weight_decay=wd, grad_clip_norm=0.0)
    m_hat = ((1 - b1) * g) / (1 - b1)
    v_hat = ((1 - b2) * g * g) / (1 - b2)
    expected = p0 - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p0)
    assert p.value.array[0] == pytest.approx(expected, rel=1e-15)


def test_adamw_frozen_parameter_untouched():
    p = Parameter("p", T.tensor([5.0]))
    p.set_trainable(False)
    p.grad = T.tensor([100.0])
    TR.AdamW().step([(p, 1.0)])
    assert p.value.array[0] == 5.0


def test_adamw_missing_grad_raises():
    p = Parameter("p", T.tensor([5.0]))
    with pytest.raises(MissingGrad):
        TR.AdamW().step([(p, 0.1)])


def test_adamw_grad_clip_scales_global_norm():
    p = Parameter("p", T.tensor([0.0]))
    p.grad = T.tensor([30.0])
    q = Parameter("q", T.tensor([0.0]))
    q.grad = T.tensor([40.0])  # joint norm 50, clip to 1 => grads scaled by 1/50
    opt = TR.AdamW()
    norm, scale = opt.step([(p, 1.0), (q, 1.0)], grad_clip_norm=1.0)
    assert norm == 50.0 and scale == pytest.approx(1.0 / 50.0, rel=1e-12)
    # Adam normalizes magnitudes, but the m/v ratio reflects the clipped grads;
    # direction must be preserved and the two moments consistent
    assert p.value.array[0] < 0 and q.value.array[0] < 0
    assert abs(opt._m["p"][0] - 0.1 * 30.0 / 50.0) < 1e-12
    assert abs(opt._m["q"][0] - 0.1 * 40.0 / 50.0) < 1e-12


def test_adamw_float32_moments_stay_float32_after_clipping():
    p = Parameter("p", Tensor(np.zeros(2, dtype=np.float32)))
    opt = TR.AdamW()
    for grad in ([3.6, 4.8], [0.36, 0.48]):  # norm 6, clipped to 1; then norm 0.6, unclipped
        p.grad = Tensor(np.array(grad, dtype=np.float32))
        norm, scale = opt.step([(p, 0.1)], grad_clip_norm=1.0)
        assert type(norm) is float and type(scale) is float
        assert opt._m["p"].dtype == np.float32 and opt._v["p"].dtype == np.float32
        assert p.value.dtype == np.float32
    assert scale == 1.0


# ---------------------------------------------------------------------------
# Stage configs
# ---------------------------------------------------------------------------


def test_stage_config_invariants():
    with pytest.raises(InvalidConfig):
        TR.StageConfig("stage2_head", lr_new=1e-5, lr_backbone=1e-3, epochs=1, batch_size=8)
    with pytest.raises(InvalidConfig):
        TR.stage1_config(epochs=1, batch_size=8, enable_xchannel=True)
    for stage in ("stage1_autoregressive", "finetune"):  # only stage 2 has two learning rates
        with pytest.raises(InvalidConfig):
            TR.StageConfig(stage, lr_new=1e-3, lr_backbone=1e-5, epochs=1, batch_size=8)


# ---------------------------------------------------------------------------
# Training runs (tiny)
# ---------------------------------------------------------------------------


def state_hash(tensors: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(tensors):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(tensors[name]).tobytes())
    return digest.hexdigest()


def test_run_stage1_zero_epochs_returns_init():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=15, dtype=np.float64)
    before = checkpoint_from_model(model, "stage1", prefixes=("embedding.", "fwd_encoder.", "bwd_encoder."))
    x, _ = sine_windows(8, 32, 4)
    result = TR.run_stage1(x, TR.stage1_config(epochs=0, batch_size=4), model, seed=0)
    assert state_hash(result.checkpoint.tensors) == state_hash(before.tensors)


def test_run_stage1_empty_dataset_errors():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=16, dtype=np.float64)
    with pytest.raises(DataError):
        TR.run_stage1(np.zeros((0, 32)), TR.stage1_config(epochs=1, batch_size=4), model)


def test_non_finite_loss_stops_before_any_update(tmp_path):
    cfg = tiny_config()
    model = M.build_model(cfg, seed=16, dtype=np.float64)
    model.embedding.weight.value.array[0, 0] = np.nan
    before = {p.name: p.value.array.tobytes() for p in model.parameters()}
    x, _ = sine_windows(8, 32, 4)
    log = tmp_path / "train.csv"
    with pytest.raises(NonFiniteLoss, match="stage1_autoregressive epoch 0 step 1: loss is nan"):
        TR.run_stage1(x, TR.stage1_config(epochs=1, batch_size=4), model, seed=0, log_path=str(log))
    assert {p.name: p.value.array.tobytes() for p in model.parameters()} == before
    assert not log.exists()


def test_non_finite_grad_norm_stops_before_any_update(tmp_path, monkeypatch):
    cfg = tiny_config()
    model = M.build_model(cfg, seed=16, dtype=np.float64)
    before = {p.name: p.value.array.tobytes() for p in model.parameters()}
    backward = T.backward

    def nan_backward(loss, params):
        backward(loss, params)
        params[0].grad.array.flat[0] = np.nan

    monkeypatch.setattr(T, "backward", nan_backward)
    x, _ = sine_windows(8, 32, 4)
    log = tmp_path / "train.csv"
    with pytest.raises(NonFiniteLoss, match="stage1_autoregressive epoch 0 step 1: gradient norm is nan"):
        TR.run_stage1(x, TR.stage1_config(epochs=1, batch_size=4), model, seed=0, log_path=str(log))
    assert {p.name: p.value.array.tobytes() for p in model.parameters()} == before
    assert not log.exists()

    p = Parameter("p", T.tensor([1.0, 2.0]))
    p.grad = T.tensor([np.inf, 0.0])
    opt = TR.AdamW()
    with pytest.raises(NonFiniteLoss):
        opt.step([(p, 0.1)])
    assert opt.step_count == 0 and not opt._m and not opt._v
    assert p.value.array.tolist() == [1.0, 2.0]


def test_run_stage1_deterministic_checkpoints():
    cfg = tiny_config()
    x, _ = sine_windows(12, 32, 4)
    results = []
    for _ in range(2):
        model = M.build_model(cfg, seed=17, dtype=np.float64)
        r = TR.run_stage1(x, TR.stage1_config(epochs=2, batch_size=4), model, seed=3)
        results.append(r)
    assert state_hash(results[0].checkpoint.tensors) == state_hash(results[1].checkpoint.tensors)
    assert results[0].step_losses == results[1].step_losses


def test_run_stage1_reduces_loss():
    cfg = tiny_config(d_model=16, head_compress_dim=8)
    model = M.build_model(cfg, seed=18, dtype=np.float64)
    x, _ = sine_windows(48, 32, 4)
    r = TR.run_stage1(x, TR.stage1_config(epochs=25, batch_size=16, lr=2e-3), model, seed=1)
    assert r.step_losses[-1] < 0.5 * r.step_losses[0]


def test_run_stage2_zero_epochs_and_backbone_freeze_by_zero_lr():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=19, dtype=np.float64)
    x, y = sine_windows(16, 32, 4)
    s1 = TR.run_stage1(x, TR.stage1_config(epochs=1, batch_size=8), model, seed=0)

    r0 = TR.run_stage2(x, y, TR.stage2_config(epochs=0, batch_size=8), s1.checkpoint, seed=5)
    head_init = M.build_model(cfg, seed=5, dtype=np.float64)
    assert r0.checkpoint.tensors["head.out_w"].tobytes() == head_init.head.out_w.value.array.tobytes()
    assert r0.checkpoint.tensors["head.compress_w"].tobytes() == head_init.head.compress_w.value.array.tobytes()

    r = TR.run_stage2(x, y, TR.stage2_config(epochs=2, batch_size=8, lr_backbone=0.0), s1.checkpoint, seed=5)
    for name, arr in s1.checkpoint.tensors.items():
        assert r.checkpoint.tensors[name].tobytes() == arr.tobytes(), name
    assert not np.array_equal(r.checkpoint.tensors["head.out_w"], head_init.head.out_w.value.array)


def test_run_stage2_backbone_gradients_flow():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=20, dtype=np.float64)
    rng = np.random.default_rng(21)
    for p in model.parameters():
        p.assign(rng.standard_normal(p.value.shape) * 0.2)
    x, y = sine_windows(4, 32, 4, seed=2)
    loss = TR.stage2_loss(Tensor(x), Tensor(y), model)
    params = model.parameters()
    T.backward(loss, params)
    backbone_norm = sum(
        float(np.abs(p.grad.array).sum())
        for p in params
        if p.name.startswith(("fwd_encoder.", "bwd_encoder.", "embedding."))
    )
    assert backbone_norm > 0


def multichannel_windows(n, d, length, horizon, seed=0):
    ds = D.synth_generate(
        seed,
        d,
        n + length + horizon + 4,
        [D.Sinusoid(freq=1 / 16, channel=c, phase=0.4 * c) for c in range(d)] + [D.Noise(sigma=0.05)],
    )
    windows = D.make_windows(ds, length, horizon, stride=1)[:n]
    return D.stack_inputs(windows), D.stack_targets(windows)


def test_run_finetune_freeze_contract_and_step0_identity():
    cfg = tiny_config(n_channels=3)
    x, y = multichannel_windows(10, 3, 32, 4)
    flat_x = x.reshape(-1, 32)
    flat_y = y.reshape(-1, 4)
    model = M.build_model(cfg, seed=22, dtype=np.float64)
    s1 = TR.run_stage1(flat_x, TR.stage1_config(epochs=1, batch_size=8), model, seed=0)
    s2 = TR.run_stage2(flat_x, flat_y, TR.stage2_config(epochs=1, batch_size=8), s1.checkpoint, seed=0)

    # zero fine-tune epochs with xchannel on: forecasts identical to zero-shot
    ft0 = TR.run_finetune(
        x, y, TR.finetune_config(epochs=0, batch_size=4, enable_xchannel=True, min_samples_for_xchannel=1), s2.checkpoint, seed=1
    )
    from tsmamba.checkpoint import model_from_checkpoint

    zero_shot = M.forecast(Tensor(x[0]), model_from_checkpoint(s2.checkpoint)).array
    step0 = M.forecast(Tensor(x[0]), ft0.model).array
    assert zero_shot.tobytes() == step0.tobytes()

    # frozen Mamba block tensors hash identically after real steps
    ft = TR.run_finetune(
        x, y, TR.finetune_config(epochs=3, batch_size=4, enable_xchannel=True, min_samples_for_xchannel=1), s2.checkpoint, seed=1
    )
    frozen = {p.name for p in ft.model.frozen_block_parameters()}
    before = {k: v for k, v in s2.checkpoint.tensors.items() if k in frozen}
    after = {k: v for k, v in ft.checkpoint.tensors.items() if k in frozen}
    assert state_hash(before) == state_hash(after)
    trained = [k for k in ft.checkpoint.tensors if k.startswith(("head.", "embedding.")) ]
    assert any(
        ft.checkpoint.tensors[k].tobytes() != s2.checkpoint.tensors[k].tobytes() for k in trained if k in s2.checkpoint.tensors
    )


def test_run_finetune_xchannel_gate():
    cfg = tiny_config(n_channels=2)
    x, y = multichannel_windows(6, 2, 32, 4)
    flat_x, flat_y = x.reshape(-1, 32), y.reshape(-1, 4)
    model = M.build_model(cfg, seed=23, dtype=np.float64)
    s1 = TR.run_stage1(flat_x, TR.stage1_config(epochs=0, batch_size=4), model, seed=0)
    s2 = TR.run_stage2(flat_x, flat_y, TR.stage2_config(epochs=0, batch_size=4), s1.checkpoint, seed=0)

    # an explicit request trains the module below the sample threshold, which
    # only the CLI's auto mode consults
    below = TR.run_finetune(x, y, TR.finetune_config(epochs=1, batch_size=4, enable_xchannel=True), s2.checkpoint)
    assert below.model.config.xchannel_enabled
    assert any(name.startswith("xchannel.") for name in below.checkpoint.tensors)

    single = x[:, :1, :]
    single_y = y[:, :1, :]
    with pytest.raises(InvalidConfig):  # single channel
        TR.run_finetune(
            single, single_y, TR.finetune_config(epochs=1, batch_size=4, enable_xchannel=True, min_samples_for_xchannel=1), s2.checkpoint
        )

    ok, reason = TR.xchannel_gate(TR.finetune_config(epochs=1, batch_size=4, min_samples_for_xchannel=5), 6, 2)
    assert ok and "12" in reason


def test_training_log_csv(tmp_path):
    cfg = tiny_config()
    model = M.build_model(cfg, seed=24, dtype=np.float64)
    x, _ = sine_windows(8, 32, 4)
    log = tmp_path / "train.csv"
    TR.run_stage1(x, TR.stage1_config(epochs=1, batch_size=4), model, seed=0, log_path=str(log))
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "stage,epoch,step,loss,lr_new,lr_backbone,wall_ms,grad_norm,clip_scale,windows_per_s"
    assert len(lines) == 3  # 8 samples / batch 4 = 2 steps
    assert lines[1].startswith("stage1_autoregressive,0,1,")
    grad_norm, clip_scale, windows_per_s = map(float, lines[1].split(",")[-3:])
    assert grad_norm > 0 and 0 < clip_scale <= 1 and windows_per_s > 0
