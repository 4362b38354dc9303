"""Unit tests for the forecasting network."""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import erf

from _tape import held_arrays
from tsmamba import model as M
from tsmamba import tensor as T
from tsmamba.errors import DegenerateWindow, InvalidConfig, PatchLengthMismatch, ShapeMismatch
from tsmamba.params import Parameter, ParamTree
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


def randomize(model, rng, scale=0.2):
    """Give every parameter generic nonzero values (init zeros some on purpose)."""
    for p in model.parameters():
        p.assign((rng.standard_normal(p.value.shape) * scale).astype(p.value.dtype))


# ---------------------------------------------------------------------------
# RevIN
# ---------------------------------------------------------------------------


def test_revin_constant_channel():
    x_hat, stats = M.revin_normalize(T.tensor([[5.0, 5.0, 5.0, 5.0]]), eps=1e-5)
    np.testing.assert_allclose(x_hat.array, np.zeros((1, 4)), atol=1e-12)
    assert stats.mean[0] == 5.0
    assert stats.std[0] == 0.0


def test_revin_two_point_stats():
    x_hat, stats = M.revin_normalize(T.tensor([[0.0, 2.0]]), eps=0.0)
    assert stats.mean[0] == 1.0
    assert stats.std[0] == 1.0
    np.testing.assert_allclose(x_hat.array, [[-1.0, 1.0]])


def test_revin_normalizes_to_unit_stats():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 64)) * 5.0 + 2.0
    x_hat, _ = M.revin_normalize(T.tensor(x), eps=1e-8)
    np.testing.assert_allclose(x_hat.array.mean(axis=-1), np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(x_hat.array.std(axis=-1), np.ones(3), atol=1e-6)


def test_revin_roundtrip():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 32)) * 3.0 - 1.0
    x_hat, stats = M.revin_normalize(T.tensor(x), eps=1e-5)
    back = M.revin_denormalize(x_hat, stats)
    assert np.max(np.abs(back.array - x)) < 1e-10


def test_revin_denormalize_cases():
    _, stats = M.revin_normalize(T.tensor([[0.0, 2.0], [4.0, 6.0]]), eps=1e-5)
    y = M.revin_denormalize(T.zeros((2, 3)), stats)
    np.testing.assert_allclose(y.array, np.broadcast_to(stats.mean[:, None], (2, 3)))

    stats = M.NormStats(mean=np.array([1.0]), std=np.array([2.0]), eps=0.0)
    out = M.revin_denormalize(T.tensor([[1.0]]), stats)
    np.testing.assert_allclose(out.array, [[3.0]])


@pytest.mark.parametrize("stats_dtype, dtype", [(np.float32, np.float32), (np.float64, np.float64), (np.float64, np.float32)])
def test_revin_denormalize_has_the_broadcast_chains_bytes(stats_dtype, dtype):
    # one op gives the output and gradient of mul and add over [B, D, H]
    # copies of the stats
    rng = np.random.default_rng(7)
    _, stats = M.revin_normalize(Tensor((rng.standard_normal((3, 2, 16)) * 4.0 + 2.0).astype(stats_dtype)), eps=1e-5)
    y, proj = rng.standard_normal((2, 3, 2, 5)).astype(dtype)
    denom, mean = (Tensor(np.ascontiguousarray(np.broadcast_to(s[..., None], y.shape).astype(dtype))) for s in (stats.denom, stats.mean))
    results = []
    for denormalize in (lambda t: M.revin_denormalize(t, stats), lambda t: T.add(T.mul(t, denom), mean)):
        yt = Tensor(y.copy(), requires=True)
        out = denormalize(yt)
        results.append((out.array, T.grad_map(T.sum_all(T.mul(out, Tensor(proj))))[id(yt)]))
    (got, got_g), (want, want_g) = results
    assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()
    assert got_g.dtype == want_g.dtype and got_g.tobytes() == want_g.tobytes()


def test_revin_rejects_degenerate_windows():
    with pytest.raises(DegenerateWindow):
        M.revin_normalize(T.tensor([[1.0]]), eps=1e-5)
    with pytest.raises(DegenerateWindow):
        M.revin_normalize(T.tensor([[2.0, 2.0, 2.0]]), eps=0.0)


# ---------------------------------------------------------------------------
# Patch embedding
# ---------------------------------------------------------------------------


def test_patch_embed_token_count():
    cfg = M.ModelConfig(horizon=96, n_channels=1, lookback=512, patch_len=16, d_model=12, head_compress_dim=4)
    rng = np.random.default_rng(2)
    emb = M.init_embedding(rng, cfg, np.float64)
    tokens = M.patch_embed_batched(T.ones((1, 512)), emb, cfg.patch_len)
    assert tokens.shape == (1, 32, 12)


def test_patch_embed_zero_weights_gives_bias():
    cfg = tiny_config()
    rng = np.random.default_rng(3)
    emb = M.init_embedding(rng, cfg, np.float64)
    emb.weight.assign(np.zeros_like(emb.weight.value.array))
    emb.bias.assign(np.arange(8.0))
    tokens = M.patch_embed_batched(T.tensor(rng.standard_normal((1, 32))), emb, 8)
    np.testing.assert_allclose(tokens.array, np.tile(np.arange(8.0), (1, 4, 1)))


def test_patch_embed_single_point_patch_is_linear_map():
    cfg = tiny_config(lookback=8, patch_len=1, horizon=2)
    rng = np.random.default_rng(4)
    emb = M.init_embedding(rng, cfg, np.float64)
    x = rng.standard_normal((1, 8))
    tokens = M.patch_embed_batched(T.tensor(x), emb, 1)
    w = emb.weight.value.array[:, 0, 0]
    b = emb.bias.value.array
    np.testing.assert_allclose(tokens.array[0], x[0][:, None] * w[None, :] + b[None, :], atol=1e-12)


def test_patch_embed_is_linear_map_of_patches():
    # stride = kernel = patch_len: token t is W @ x[t*P : (t+1)*P] + b
    cfg = tiny_config()
    rng = np.random.default_rng(6)
    emb = M.init_embedding(rng, cfg, np.float64)
    emb.bias.assign(rng.standard_normal(8))
    x = rng.standard_normal((3, 32))
    tokens = M.patch_embed_batched(T.tensor(x), emb, 8)
    w = emb.weight.value.array[:, 0, :]
    want = np.stack([[w @ x[i, t * 8 : (t + 1) * 8] + emb.bias.value.array for t in range(4)] for i in range(3)])
    assert tokens.shape == (3, 4, 8)
    np.testing.assert_allclose(tokens.array, want, atol=1e-12)


def test_patch_embed_gradients():
    cfg = tiny_config()
    rng = np.random.default_rng(7)
    emb = M.init_embedding(rng, cfg, np.float64)
    x = rng.standard_normal((2, 32))
    proj = rng.standard_normal((2, 4, 8))

    def loss(xt):
        return T.sum_all(T.mul(M.patch_embed_batched(xt, emb, 8), T.tensor(proj)))

    live = T.Tensor(x.copy(), requires=True)
    analytic = T.grad_map(loss(live))[id(live)]
    fd = T.finite_diff_grad(loss, T.tensor(x), 1e-6).array
    np.testing.assert_allclose(analytic, fd, atol=1e-6)
    for param in emb.parameters():
        base = param.value.array.copy()
        T.backward(loss(T.tensor(x)), [param])

        def f(t, param=param):
            param.assign(t.array)
            return loss(T.tensor(x))

        fd = T.finite_diff_grad(f, T.tensor(base), 1e-6).array
        param.assign(base)
        np.testing.assert_allclose(param.grad.array, fd, atol=1e-6, err_msg=param.name)


def test_patch_embed_rejects_indivisible_length():
    cfg = tiny_config()
    emb = M.init_embedding(np.random.default_rng(5), cfg, np.float64)
    with pytest.raises(PatchLengthMismatch):
        M.patch_embed_batched(T.ones((1, 33)), emb, 8)


# ---------------------------------------------------------------------------
# Backbone
# ---------------------------------------------------------------------------


def test_flip_is_involution():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 5, 3))
    assert T.flip(T.flip(T.tensor(x), 1), 1).array.tobytes() == x.tobytes()


def test_backbone_backward_branch_off():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=7, dtype=np.float64)
    rng = np.random.default_rng(8)
    randomize(model, rng)
    for block, _ in model.bwd_encoder.layers:
        block.out_proj.assign(np.zeros_like(block.out_proj.value.array))
    model.align.weight.assign(np.zeros_like(model.align.weight.value.array))
    model.align.bias.assign(np.zeros_like(model.align.bias.value.array))
    x_hat, _ = M.revin_normalize(T.tensor(rng.standard_normal((2, 32))), eps=1e-5)
    bb = M.backbone_forward(x_hat, model)
    np.testing.assert_array_equal(bb.combined.array, bb.fwd_rep.array)


def test_backbone_channel_permutation_equivariance():
    cfg = tiny_config(n_channels=4)
    model = M.build_model(cfg, seed=9, dtype=np.float64)
    rng = np.random.default_rng(10)
    randomize(model, rng)
    x = rng.standard_normal((4, 32))
    perm = np.array([2, 0, 3, 1])
    bb = M.backbone_forward(T.tensor(x), model)
    bb_p = M.backbone_forward(T.tensor(x[perm]), model)
    for a, b in [(bb.fwd_rep, bb_p.fwd_rep), (bb.bwd_rep_aligned, bb_p.bwd_rep_aligned), (bb.combined, bb_p.combined)]:
        assert np.max(np.abs(a.array[perm] - b.array)) < 1e-12


def test_backbone_shapes_match():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=11, dtype=np.float64)
    bb = M.backbone_forward(T.ones((3, 32), dtype=np.float64), model)
    assert bb.fwd_rep.shape == bb.bwd_rep_aligned.shape == bb.combined.shape == (3, 4, 8)


# ---------------------------------------------------------------------------
# Prediction head
# ---------------------------------------------------------------------------


def test_head_zero_weights_predicts_window_mean():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=12, dtype=np.float64)  # out_w starts at zero
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 32)) * 2.0 + 7.0
    x_hat, stats = M.revin_normalize(T.tensor(x), eps=1e-5)
    bb = M.backbone_forward(x_hat, model)
    pred = M.revin_denormalize(M.head_core(bb.combined, model.head), stats)
    np.testing.assert_allclose(pred.array, np.broadcast_to(stats.mean[:, None], (2, 4)), atol=1e-12)


def test_head_matches_dense_matrix_oracle():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=14, dtype=np.float64)
    rng = np.random.default_rng(15)
    randomize(model, rng)
    combined = rng.standard_normal((3, 4, 8))
    got = M.head_core(T.tensor(combined), model.head).array

    w1 = model.head.compress_w.value.array
    b1 = model.head.compress_b.value.array
    w2 = model.head.out_w.value.array
    b2 = model.head.out_b.value.array
    h = combined @ w1 + b1
    h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
    want = h.reshape(3, -1) @ w2 + b2
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_head_parameter_count_formula():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=16, dtype=np.float64)
    d_m, d_h, l_tok, horizon = 8, 4, 4, 4
    expected = d_m * d_h + d_h + (l_tok * d_h) * horizon + horizon
    count = sum(p.value.size for p in model.head.parameters())
    assert count == expected
    uncompressed = d_m * l_tok * horizon + horizon
    assert count < uncompressed


# ---------------------------------------------------------------------------
# Cross-channel attention
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,expected", [(2, 1), (7, 3), (21, 5), (8, 3), (9, 4)])
def test_compressed_channel_count(d, expected):
    assert M.compressed_channel_count(d) == expected


def test_xchannel_zero_expansion_is_identity():
    cfg = tiny_config(n_channels=4, xchannel_enabled=True)
    model = M.build_model(cfg, seed=17, dtype=np.float64)
    rng = np.random.default_rng(18)
    combined = rng.standard_normal((1, 4, 4, 8))
    out = M.xchannel_attention_batched(T.tensor(combined), model.xchannel)
    assert out.array.tobytes() == combined.tobytes()


def test_xchannel_attention_rows_sum_to_one(monkeypatch):
    cfg = tiny_config(n_channels=7, xchannel_enabled=True)
    model = M.build_model(cfg, seed=19, dtype=np.float64)
    rng = np.random.default_rng(20)
    for p in model.xchannel.parameters():
        p.assign(rng.standard_normal(p.value.shape) * 0.3)
    combined = rng.standard_normal((1, 7, 4, 8))
    # the module's one softmax is its attention over the compressed channels
    weights = []
    softmax = T.softmax

    def recording_softmax(a, axis):
        weights.append(softmax(a, axis))
        return weights[-1]

    monkeypatch.setattr(T, "softmax", recording_softmax)
    M.xchannel_attention_batched(T.tensor(combined), model.xchannel)
    (attn,) = weights
    assert attn.shape == (1, 4, 3, 3)
    np.testing.assert_allclose(attn.array.sum(axis=-1), np.ones((1, 4, 3)), atol=1e-12)


def test_xchannel_rejects_single_channel():
    with pytest.raises(InvalidConfig):
        tiny_config(n_channels=1, xchannel_enabled=True)


def test_xchannel_gradients_flow():
    cfg = tiny_config(n_channels=3, xchannel_enabled=True)
    model = M.build_model(cfg, seed=21, dtype=np.float64)
    rng = np.random.default_rng(22)
    for p in model.xchannel.parameters():
        p.assign(rng.standard_normal(p.value.shape) * 0.3)
    combined = rng.standard_normal((1, 3, 4, 8))
    proj = rng.standard_normal((1, 3, 4, 8))

    for param in model.xchannel.parameters():
        base = param.value.array.copy()
        loss = T.sum_all(T.mul(M.xchannel_attention_batched(T.tensor(combined), model.xchannel), T.tensor(proj)))
        T.backward(loss, [param])

        def f(t, param=param):
            param.assign(t.array)
            return T.sum_all(T.mul(M.xchannel_attention_batched(T.tensor(combined), model.xchannel), T.tensor(proj)))

        fd = T.finite_diff_grad(f, T.tensor(base), 1e-6)
        param.assign(base)
        denom = np.maximum(np.maximum(np.abs(param.grad.array), np.abs(fd.array)), 1e-5)
        assert np.max(np.abs(param.grad.array - fd.array) / denom) < 1e-4, param.name


# ---------------------------------------------------------------------------
# forecast()
# ---------------------------------------------------------------------------


def test_forecast_deterministic():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=23, dtype=np.float64)
    randomize(model, np.random.default_rng(24))
    x = T.tensor(np.random.default_rng(25).standard_normal((2, 32)))
    a = M.forecast(x, model).array
    b = M.forecast(x, model).array
    assert a.tobytes() == b.tobytes()


def test_forecast_affine_equivariance():
    # exact at eps=0: scaling and shifting a channel re-affines the forecast
    cfg = tiny_config(revin_eps=0.0)
    model = M.build_model(cfg, seed=26, dtype=np.float64)
    rng = np.random.default_rng(27)
    randomize(model, rng)
    x = rng.standard_normal((2, 32))
    c = np.array([2.5, 0.3])
    b = np.array([-7.0, 11.0])
    base = M.forecast(T.tensor(x), model).array
    moved = M.forecast(T.tensor(c[:, None] * x + b[:, None]), model).array
    assert np.max(np.abs(moved - (c[:, None] * base + b[:, None]))) < 1e-6


def test_forecast_channel_permutation_equivariance():
    cfg = tiny_config(n_channels=4)
    model = M.build_model(cfg, seed=28, dtype=np.float64)
    rng = np.random.default_rng(29)
    randomize(model, rng)
    x = rng.standard_normal((4, 32))
    perm = np.array([3, 1, 0, 2])
    base = M.forecast(T.tensor(x), model).array
    permuted = M.forecast(T.tensor(x[perm]), model).array
    assert np.max(np.abs(base[perm] - permuted)) < 1e-12


def test_forecast_accepts_any_channel_count_without_xchannel():
    cfg = tiny_config(n_channels=5)
    model = M.build_model(cfg, seed=30, dtype=np.float64)
    randomize(model, np.random.default_rng(31))
    out = M.forecast(T.tensor(np.random.default_rng(32).standard_normal((1, 32))), model)
    assert out.shape == (1, 4)


def test_forecast_zero_init_xchannel_matches_disabled():
    rng = np.random.default_rng(33)
    x = rng.standard_normal((4, 32))
    with_x = M.build_model(tiny_config(n_channels=4, xchannel_enabled=True), seed=34, dtype=np.float64)
    without = M.build_model(tiny_config(n_channels=4), seed=34, dtype=np.float64)
    a = M.forecast(T.tensor(x), with_x).array
    b = M.forecast(T.tensor(x), without).array
    assert a.tobytes() == b.tobytes()


def test_forecast_batch_matches_single_windows():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=37, dtype=np.float64)
    randomize(model, np.random.default_rng(38))
    x = np.random.default_rng(39).standard_normal((3, 2, 32))
    with T.no_grad():
        batched = M.forecast(T.tensor(x), model).array
        single = np.stack([M.forecast(T.tensor(w), model).array for w in x])
    assert batched.shape == (3, 2, 4)
    np.testing.assert_allclose(batched, single, atol=1e-12)


def test_forecast_records_revin_inverse_as_one_node():
    # its only parent is the normalized forecast, and it keeps per-row stats,
    # no array of the forecast's shape
    cfg = tiny_config()
    model = M.build_model(cfg, seed=42, dtype=np.float64)
    randomize(model, np.random.default_rng(43))
    x = np.random.default_rng(44).standard_normal((3, 2, 32))
    out = M.forecast(T.tensor(x), model)
    ((parent, vjp),) = out.pairs
    with T.no_grad():
        x_hat, _ = M.revin_normalize(T.tensor(x), eps=cfg.revin_eps)
        y_hat = M.forecast_normalized(x_hat, model).array
    assert parent.array.tobytes() == y_hat.tobytes()
    assert all(arr.shape != out.shape for arr in held_arrays([vjp]))


def test_forecast_scan_mode_only_sequential():
    model = M.build_model(tiny_config(), seed=40, dtype=np.float64)
    x = T.tensor(np.random.default_rng(41).standard_normal((2, 32)))
    assert M.forecast(x, model, scan_mode="sequential").shape == (2, 4)
    with pytest.raises(InvalidConfig):
        M.forecast(x, model, scan_mode="parallel")


def test_forecast_shape_checks():
    cfg = tiny_config()
    model = M.build_model(cfg, seed=35, dtype=np.float64)
    with pytest.raises(ShapeMismatch):
        M.forecast(T.ones((2, 31)), model)
    xmodel = M.build_model(tiny_config(n_channels=2, xchannel_enabled=True), seed=36, dtype=np.float64)
    with pytest.raises(ShapeMismatch):
        M.forecast(T.ones((3, 32)), xmodel)


def test_config_validation():
    with pytest.raises(PatchLengthMismatch):
        tiny_config(lookback=30)
    with pytest.raises(InvalidConfig):
        tiny_config(head_compress_dim=8)
    for key, value in (("horizon", 0), ("n_layers", -1), ("d_state", 0), ("head_compress_dim", -3), ("revin_eps", -1e-9)):
        with pytest.raises(InvalidConfig, match=repr(key)):
            tiny_config(**{key: value})
    cfg = tiny_config()
    assert cfg.n_tokens * cfg.patch_len == cfg.lookback


def test_config_roundtrip_and_strictness():
    cfg = tiny_config()
    again = M.ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(InvalidConfig):
        M.ModelConfig.from_dict({**cfg.to_dict(), "mystery": 1})


# ---------------------------------------------------------------------------
# Parameter tree
# ---------------------------------------------------------------------------


@dataclass
class _Leaf(ParamTree):
    w: Parameter
    count: int


@dataclass
class _Tree(ParamTree):
    first: Parameter
    leaf: _Leaf
    pairs: list
    missing: Parameter | None
    n: int
    last: Parameter


def test_param_tree_lists_its_parameters_in_declaration_order():
    def p(name):
        return Parameter(name, T.tensor([0.0]))

    # keywords out of order: the fields' declaration order decides
    tree = _Tree(
        last=p("g"),
        n=7,
        missing=None,
        pairs=[(_Leaf(p("c"), 0), p("d")), (_Leaf(p("e"), 1), p("f"))],
        leaf=_Leaf(count=3, w=p("b")),
        first=p("a"),
    )
    got = tree.parameters()
    assert all(type(q) is Parameter for q in got)
    assert [q.name for q in got] == list("abcdefg")


def _encoder_names(prefix, n_layers):
    block = ["in_proj", "conv_weight", "conv_bias", "ssm.a_log", "ssm.x_to_b", "ssm.x_to_c", "ssm.x_to_dt", "ssm.dt_bias", "ssm.d_skip", "out_proj"]
    names = []
    for i in range(n_layers):
        names += [f"{prefix}.layer{i}.mamba.{n}" for n in block] + [f"{prefix}.layer{i}.norm_gain"]
    return names + [f"{prefix}.final_norm_gain"]


def test_model_parameter_order_follows_the_architecture():
    # checkpoint payload offsets and AdamW's gradient norm both follow this order
    want = (
        ["embedding.weight", "embedding.bias"]
        + _encoder_names("fwd_encoder", 2)
        + _encoder_names("bwd_encoder", 2)
        + ["align_conv.weight", "align_conv.bias"]
        + ["head.compress_w", "head.compress_b", "head.out_w", "head.out_b"]
    )
    xchannel = ["xchannel.tshift_w", "xchannel.compress_w", "xchannel.compress_b", "xchannel.expand_w", "xchannel.expand_b"]
    model = M.build_model(tiny_config(n_layers=2, xchannel_enabled=True), seed=40, dtype=np.float64)
    assert [p.name for p in model.parameters()] == want + xchannel
    assert list(model.named_parameters()) == want + xchannel
    plain = M.build_model(tiny_config(n_layers=2), seed=40, dtype=np.float64)
    assert [p.name for p in plain.parameters()] == want


def test_frozen_block_parameters_are_both_encoders_mamba_blocks():
    model = M.build_model(tiny_config(n_layers=2, xchannel_enabled=True), seed=41, dtype=np.float64)
    want = [n for n in _encoder_names("fwd_encoder", 2) + _encoder_names("bwd_encoder", 2) if ".mamba." in n]
    assert [p.name for p in model.frozen_block_parameters()] == want
    assert want == [n for n in model.named_parameters() if ".mamba." in n]


def test_duplicate_parameter_name_is_refused():
    model = M.build_model(tiny_config(), seed=42, dtype=np.float64)
    model.head.out_b.name = "head.out_w"
    with pytest.raises(InvalidConfig, match=r"duplicate parameter names: \['head.out_w'\]"):
        model.named_parameters()
