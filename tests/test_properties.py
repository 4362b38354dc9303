"""Property-based tests of the config format and values, the CSV reader's
numeric boundaries and malformed text, the window splits, the checkpoint
reader, the scan kernel's segment length and RevIN's affine equivariance."""

import contextlib
import dataclasses
import functools
import io
import json
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from tsmamba import checkpoint as C
from tsmamba import cli as CLI
from tsmamba import data as D
from tsmamba import model as M
from tsmamba import ssm
from tsmamba import tensor as T
from tsmamba.errors import CorruptCheckpoint, DataError, InvalidConfig
from tsmamba.tensor import Tensor

# values the architecture hardwires for the keys of earlier configs
RETIRED = {"expand_factor": 2, "revin_affine": False, "combine_mode": "add"}


@st.composite
def model_configs(draw):
    patch_len = draw(st.integers(1, 16))
    d_model = draw(st.integers(5, 64))
    n_channels = draw(st.integers(1, 8))
    return M.ModelConfig(
        horizon=draw(st.integers(1, 64)),
        n_channels=n_channels,
        lookback=patch_len * draw(st.integers(1, 8)),
        patch_len=patch_len,
        d_model=d_model,
        n_layers=draw(st.integers(0, 4)),
        d_state=draw(st.integers(1, 32)),
        head_compress_dim=draw(st.one_of(st.just(0), st.integers(1, d_model - 1))),
        local_conv_kernel=draw(st.integers(1, 8)),
        huber_delta=draw(st.floats(1e-6, 1e6)),
        revin_eps=draw(st.floats(0.0, 1.0)),
        xchannel_enabled=n_channels >= 2 and draw(st.booleans()),
    )


@settings(deadline=None)
@given(model_configs())
def test_model_config_roundtrips_through_dict_and_json(cfg):
    assert M.ModelConfig.from_dict(cfg.to_dict()) == cfg
    assert M.ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@settings(deadline=None)
@given(model_configs(), st.sampled_from(sorted(RETIRED)))
def test_retired_key_accepted_at_its_fixed_value(cfg, key):
    assert M.ModelConfig.from_dict({**cfg.to_dict(), key: RETIRED[key]}) == cfg
    assert M.ModelConfig.from_dict({**cfg.to_dict(), **RETIRED}) == cfg


any_json_value = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.floats(allow_nan=False), st.text(max_size=8)
)


json_values = st.recursive(any_json_value, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)


@settings(deadline=None)
@given(model_configs(), st.sampled_from(sorted(RETIRED)), any_json_value)
def test_retired_key_rejected_at_any_other_value(cfg, key, value):
    fixed = RETIRED[key]
    if type(value) is type(fixed) and value == fixed:
        return
    with pytest.raises(InvalidConfig, match=key):
        M.ModelConfig.from_dict({**cfg.to_dict(), key: value})


# a run config for `pretrain --stage 1` that trains in well under a second
RUN_CONFIG = {
    "seed": 1,
    "precision": "float64",
    "window_stride": 4,
    "model": {"horizon": 2, "lookback": 8, "patch_len": 4, "d_model": 5, "n_layers": 1, "d_state": 2},
    "stage1": {"epochs": 1, "batch_size": 32},
}
# (section, key, JSON kind) of every run-config and model key; section None is the top level
CONFIG_KEYS = (
    [(None, "seed", int), (None, "precision", str), (None, "window_stride", int)]
    + [(None, section, dict) for section in ("model", "split", "stage1", "stage2", "finetune")]
    + [("model", f.name, {"int": int, "float": float, "bool": bool}[f.type]) for f in dataclasses.fields(M.ModelConfig)]
    + [(name, key, kind) for name, keys in (("split", CLI._SPLIT_KEYS), ("stage1", CLI._STAGE1_KEYS),
                                             ("stage2", CLI._STAGE2_KEYS), ("finetune", CLI._FINETUNE_KEYS))
       for key, (kind, _) in keys.items()]
)


def _fits(value, kind) -> bool:
    if kind is float:
        return type(value) in (int, float) and np.isfinite(value)
    return type(value) is kind


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(CONFIG_KEYS), st.one_of(json_values, st.sampled_from([float("nan"), float("inf"), 1.5, True, "4"])))
def test_any_config_value_trains_or_exits_2_naming_its_key(entry, value):
    section, key, kind = entry
    raw = json.loads(json.dumps(RUN_CONFIG))
    (raw if section is None else raw.setdefault(section, {}))[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        config, data = os.path.join(tmp, "config.json"), os.path.join(tmp, "series.csv")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        D.write_csv(D.synth_generate(0, 2, 120, [D.Sinusoid(freq=1 / 8), D.Noise(sigma=0.1)]), data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = CLI.main(["pretrain", "--stage", "1", "--config", config, "--data", data, "--out", os.path.join(tmp, "m.ckpt")])
    assert code in (0, 2), err.getvalue()
    if not _fits(value, kind):
        assert code == 2
        assert key in err.getvalue()


cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999", "1e308"]),
)


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(lambda w: st.lists(st.lists(cells, min_size=w, max_size=w), min_size=1, max_size=6)), st.booleans())
def test_load_csv_is_finite_or_raises_data_error(grid, ffill):
    parsed = np.array([[float(c) for c in row] for row in grid])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"c{j}" for j in range(parsed.shape[1])) + "\n")
            fh.writelines(",".join(row) + "\n" for row in grid)
        try:
            ds = D.load_csv(path, ffill=ffill)
        except DataError as exc:
            error = exc
        else:
            error = None

    if np.isinf(parsed).any():
        i, j = np.argwhere(np.isinf(parsed))[0]
        assert error is not None and f"infinite cell at row {i + 2}, column {j + 1}:" in str(error)
    elif np.isnan(parsed).any() and (not ffill or np.isnan(parsed[0]).any()):
        assert error is not None
    else:
        assert error is None
        assert np.isfinite(ds.values).all()
        keep = ~np.isnan(parsed)
        np.testing.assert_array_equal(ds.values[keep], parsed[keep])


digits = st.text("0123456789", min_size=1, max_size=20)
signs = st.sampled_from(["", "+", "-"])
numeric_text = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(
        "{4}{0}{1}{2}{3}{4}".format,
        signs,
        digits,
        st.one_of(st.just(""), digits.map(".{}".format), st.just(".")),
        st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"), signs, st.text("0123456789", min_size=1, max_size=3))),
        st.sampled_from(["", " "]),
    ),
)


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(lambda w: st.lists(st.lists(numeric_text, min_size=w, max_size=w), min_size=1, max_size=8)))
def test_load_csv_values_are_bitwise_float_of_each_cell(grid):
    # the vectorised parse must give exactly float(cell), down to the sign of zero
    expected = np.array([[float(c) for c in row] for row in grid])
    assume(np.isfinite(expected).all())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"c{j}" for j in range(expected.shape[1])) + "\n")
            fh.writelines(",".join(row) + "\n" for row in grid)
        values = D.load_csv(path, has_date_column=False).values
    assert values.dtype == np.float64
    assert values.tobytes() == expected.tobytes()


csv_pieces = st.one_of(
    st.sampled_from([",", "\n", "\r\n", "\n\n", '"', '""', " ", "1", "-2.5", "3e2", "1e999", "nan", "inf", "x", "date", "\t", ";"]).map(str.encode),
    st.sampled_from([b"\x00", b"\xff", b"\xc3", b"\xe2\x82", b"\xef\xbb\xbf"]),
    st.binary(max_size=3),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(csv_pieces, max_size=40).map(b"".join), st.sampled_from([None, True, False]), st.booleans())
def test_malformed_csv_raises_only_data_errors(blob, has_date_column, ffill):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            ds = D.load_csv(path, has_date_column=has_date_column, ffill=ffill)
        except DataError:
            return
    assert ds.values.ndim == 2 and ds.values.size > 0
    assert np.isfinite(ds.values).all()


@st.composite
def split_cases(draw):
    n, d = draw(st.integers(1, 80)), draw(st.integers(1, 4))
    lookback, horizon, stride = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 5))
    boundaries = None
    if draw(st.booleans()):
        n1 = draw(st.integers(1, n))
        boundaries = (n1, draw(st.integers(n1, n)))
    return n, d, lookback, horizon, stride, boundaries


@settings(deadline=None)
@given(split_cases())
def test_split_windows_match_written_out_slices(case):
    n, d, lookback, horizon, stride, boundaries = case
    values = np.arange(n * d, dtype=np.float64).reshape(n, d)
    spec = D.SplitSpec()
    train, val, test = D.split_windows(D.TimeSeriesDataset("w", values), spec, lookback, horizon, stride, boundaries)
    n1, n2 = D.split_boundaries(n, spec, boundaries)

    grid = list(range(lookback, n - horizon + 1, stride))
    assert [w.origin_index for w in train] == [t for t in grid if t + horizon <= n1]
    assert [w.origin_index for w in val] == [t for t in grid if t >= n1 and t + horizon <= n2]
    assert [w.origin_index for w in test] == [t for t in grid if t >= n2]
    for w in list(train) + list(val) + list(test):
        t = w.origin_index
        assert (t - lookback) % stride == 0
        np.testing.assert_array_equal(w.input, values[t - lookback : t].T, strict=True)
        np.testing.assert_array_equal(w.target, values[t : t + horizon].T, strict=True)


@st.composite
def pool_cases(draw):
    """One to three series of their own lengths, channel counts and split
    boundaries, windowed at one lookback, horizon and stride."""
    lookback, horizon, stride = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 5))
    series = []
    for _ in range(draw(st.integers(1, 3))):
        n, d = draw(st.integers(1, 80)), draw(st.integers(1, 4))
        boundaries = None
        if draw(st.booleans()):
            n1 = draw(st.integers(1, n))
            boundaries = (n1, draw(st.integers(n1, n)))
        series.append((n, d, boundaries))
    return lookback, horizon, stride, series, draw(st.sampled_from([np.float32, np.float64])), draw(st.integers(0, 2**16))


def _stacked_slices(values: np.ndarray, origins: list[int], lo: int, hi: int) -> np.ndarray:
    """[n, D, hi - lo] of the written-out slices values[t + lo : t + hi).T."""
    return np.array([values[t + lo : t + hi].T for t in origins]).reshape(len(origins), values.shape[1], hi - lo)


@settings(deadline=None, max_examples=200)
@given(pool_cases())
def test_window_views_and_pool_gather_match_written_out_slices(case):
    lookback, horizon, stride, series, dtype, seed = case
    rng = np.random.default_rng(seed)
    spec = D.SplitSpec()
    trains, old_x, old_y = [], [], []
    for n, d, boundaries in series:
        values = rng.standard_normal((n, d))
        splits = D.split_windows(D.TimeSeriesDataset("w", values), spec, lookback, horizon, stride, boundaries)
        n1, n2 = D.split_boundaries(n, spec, boundaries)
        grid = range(lookback, n - horizon + 1, stride)
        rules = (lambda t: t + horizon <= n1, lambda t: t >= n1 and t + horizon <= n2, lambda t: t >= n2)
        claimed: set[int] = set()
        for windows, rule in zip(splits, rules):
            origins = [t for t in grid if t not in claimed and rule(t)]
            claimed.update(origins)
            want_x = _stacked_slices(values, origins, -lookback, 0)
            want_y = _stacked_slices(values, origins, 0, horizon)
            assert list(windows.origins) == origins and len(windows) == len(origins)
            assert windows.inputs.tobytes() == want_x.tobytes() and windows.inputs.shape == want_x.shape
            assert windows.targets.tobytes() == want_y.tobytes() and windows.targets.shape == want_y.shape
            assert D.stack_inputs(windows).tobytes() == want_x.tobytes()
            if origins:
                flat_x, flat_y = D.flatten_channel_windows(windows)
                assert flat_x.tobytes() == want_x.reshape(-1, lookback).tobytes()
                assert flat_y.tobytes() == want_y.reshape(-1, horizon).tobytes()
            else:
                with pytest.raises(DataError):
                    D.flatten_channel_windows(windows)
        trains.append(splits[0])
        if len(splits[0]):
            old_x.append(_stacked_slices(values, list(splits[0].origins), -lookback, 0).reshape(-1, lookback))
            old_y.append(_stacked_slices(values, list(splits[0].origins), 0, horizon).reshape(-1, horizon))

    if not old_x:
        with pytest.raises(DataError):
            D.ChannelRows(trains, "inputs")
        return
    x, y = D.ChannelRows(trains, "inputs"), D.ChannelRows(trains, "targets")
    old_x, old_y = np.concatenate(old_x).astype(dtype), np.concatenate(old_y).astype(dtype)
    assert x.shape == old_x.shape and y.shape == old_y.shape
    for size in (1, 7, len(old_x)):
        idx = rng.integers(0, len(old_x), size=size)
        for pool, old in ((x, old_x), (y, old_y)):
            batch = pool[idx].astype(dtype)
            assert batch.flags.c_contiguous
            assert batch.tobytes() == old[idx].tobytes()
    with pytest.raises(IndexError):
        x[np.array([len(old_x)])]


@functools.cache
def _saved_checkpoint() -> tuple[bytes, int]:
    """A small saved checkpoint and the offset where its payload starts."""
    cfg = M.ModelConfig(horizon=4, n_channels=2, lookback=8, patch_len=4, d_model=5, n_layers=1, d_state=2, head_compress_dim=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        C.save_checkpoint(C.checkpoint_from_model(M.build_model(cfg, seed=0, dtype=np.float32), "stage2"), path)
        with open(path, "rb") as fh:
            blob = fh.read()
    return blob, 16 + int.from_bytes(blob[8:16], "little")


def _load_or_corrupt(blob: bytes) -> None:
    """Write ``blob`` and load it: it must load or raise CorruptCheckpoint naming the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            C.load_checkpoint(path)
        except CorruptCheckpoint as exc:
            assert path in str(exc)


# a flip is (in header?, position, xor mask); half land in the magic, length
# and manifest, where the structure lives
flips = st.lists(st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(1, 255)), max_size=4)


@settings(deadline=None, max_examples=300)
@given(flips, st.one_of(st.none(), st.integers(0, 10**6)))
def test_damaged_checkpoint_loads_or_is_corrupt(flips, cut):
    saved, manifest_end = _saved_checkpoint()
    blob = bytearray(saved)
    for in_header, pos, mask in flips:
        blob[pos % (manifest_end if in_header else len(blob))] ^= mask
    if cut is not None:
        blob = blob[: cut % (len(blob) + 1)]
    _load_or_corrupt(bytes(blob))


def _paths(node, prefix=()):
    """Every key path into a JSON manifest."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))


DROP = object()


@settings(deadline=None, max_examples=300)
@given(st.data(), st.one_of(st.just(DROP), json_values))
def test_restructured_manifest_loads_or_is_corrupt(data, value):
    saved, manifest_end = _saved_checkpoint()
    manifest = json.loads(saved[16:manifest_end])
    path_keys = data.draw(st.sampled_from(list(_paths(manifest))))
    if not path_keys:
        manifest = None if value is DROP else value
    else:
        *parents, last = path_keys
        node = manifest
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    raw = json.dumps(manifest).encode("utf-8")
    _load_or_corrupt(saved[:8] + len(raw).to_bytes(8, "little") + raw + saved[manifest_end:])


@st.composite
def scan_cases(draw):
    length = draw(st.integers(1, 24))
    dims = (draw(st.integers(1, 3)), length, draw(st.integers(1, 5)), draw(st.integers(1, 4)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return dims, dtype, draw(st.integers(1, length)), draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=150)
@given(scan_cases())
def test_scan_segment_lengths_change_no_bits(case):
    (batch, length, d_inner, n_state), dtype, segment, seed = case
    rng = np.random.default_rng(seed)
    p = ssm.init_ssm_params(rng, d_inner, n_state, dtype, "s")
    for q in p.parameters():
        q.assign((q.value.array + 0.3 * rng.standard_normal(q.value.shape)).astype(dtype))
    x = rng.standard_normal((batch, length, d_inner)).astype(dtype)
    proj = Tensor(rng.standard_normal((batch, length, d_inner)).astype(dtype))

    def scan(segment):
        """(no-tape output, taped output, gradients of <proj, y>) with ``segment``-step segments."""
        with mock.patch.object(ssm, "_SEGMENT", segment):
            with T.no_grad():
                off = ssm._selective_scan_batched(Tensor(x), p).array
            xt = Tensor(x, requires=True)
            on = ssm._selective_scan_batched(xt, p)
            grads = T.grad_map(T.sum_all(T.mul(on, proj)))
        return off, on.array, [grads[id(xt)]] + [grads[id(q.value)] for q in p.parameters()]

    want_y, _, want_g = scan(ssm._SEGMENT)
    off, on, got_g = scan(segment)
    assert off.tobytes() == want_y.tobytes()
    assert on.tobytes() == want_y.tobytes()
    for q, got, want in zip(["x", *(q.name for q in p.parameters())], got_g, want_g):
        assert got.tobytes() == want.tobytes(), q


# affine gap allowed per unit of output magnitude: about 1e4 machine epsilons,
# for the cancellation in x - mean at |mean| / std up to a few hundred
REVIN_TOL = {np.float32: 1e-3, np.float64: 1e-11}


@st.composite
def revin_cases(draw):
    patch_len = draw(st.integers(1, 8))
    cfg = M.ModelConfig(
        horizon=draw(st.integers(1, 8)),
        n_channels=draw(st.integers(1, 4)),
        lookback=patch_len * draw(st.integers(max(1, 3 - patch_len), 6)),
        patch_len=patch_len,
        d_model=draw(st.integers(5, 12)),
        n_layers=draw(st.integers(0, 2)),
        d_state=draw(st.integers(1, 4)),
        revin_eps=0.0,
    )
    return cfg, draw(st.sampled_from([np.float32, np.float64])), draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=40)
@given(revin_cases())
def test_revin_affine_equivariance(case):
    cfg, dtype, seed = case
    rng = np.random.default_rng(seed)
    model = M.build_model(cfg, seed=0, dtype=dtype)
    for p in model.parameters():
        p.assign((rng.standard_normal(p.value.shape) * 0.2).astype(dtype))
    # rows of exact mean m and std s, so no window is near-constant
    z = rng.standard_normal((cfg.n_channels, cfg.lookback))
    z = (z - z.mean(axis=-1, keepdims=True)) / z.std(axis=-1, keepdims=True)
    x = rng.uniform(-5, 5, (cfg.n_channels, 1)) + rng.uniform(0.5, 3, (cfg.n_channels, 1)) * z
    scale = rng.uniform(0.25, 4, (cfg.n_channels, 1))
    shift = rng.uniform(-10, 10, (cfg.n_channels, 1))
    moved_x = scale * x + shift
    tol = REVIN_TOL[dtype]

    x_hat, _ = M.revin_normalize(Tensor(x.astype(dtype)), eps=cfg.revin_eps)
    moved_hat, _ = M.revin_normalize(Tensor(moved_x.astype(dtype)), eps=cfg.revin_eps)
    assert moved_hat.array.dtype == dtype
    np.testing.assert_allclose(moved_hat.array, x_hat.array, rtol=0, atol=tol * 10)
    with T.no_grad():
        base = M.forecast(Tensor(x.astype(dtype)), model).array
        moved = M.forecast(Tensor(moved_x.astype(dtype)), model).array
    assert moved.dtype == dtype
    want = scale * base.astype(np.float64) + shift
    np.testing.assert_allclose(moved, want, rtol=0, atol=tol * (1 + np.abs(want).max()))


MATMUL_TOL = {np.float32: 1e-6, np.float64: 1e-13}


@settings(deadline=None, max_examples=120)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=3),
    st.integers(1, 24),
    st.integers(1, 24),
    st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**32 - 1),
)
def test_weight_matmul_matches_batched_reference(lead, k, n, dtype, seed):
    # a 2-D right operand takes the flattened path: one GEMM per product
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((*lead, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    g = rng.standard_normal((*lead, n)).astype(dtype)
    out = T.matmul(Tensor(a, requires=True), Tensor(b, requires=True))
    want = np.matmul(a, b)
    assert out.array.shape == want.shape and out.array.dtype == dtype
    np.testing.assert_allclose(out.array, want, rtol=0, atol=MATMUL_TOL[dtype] * np.abs(want).max())
    (_, vjp_a), (_, vjp_b) = out.pairs
    ga, gb = vjp_a(g), vjp_b(g)
    ref_a = np.matmul(g, b.T)
    ref_b = np.matmul(np.swapaxes(a, -1, -2), g).reshape(-1, k, n).sum(axis=0)
    for got, ref in ((ga, ref_a), (gb, ref_b)):
        assert got.shape == ref.shape and got.dtype == dtype
        np.testing.assert_allclose(got, ref, rtol=0, atol=MATMUL_TOL[dtype] * np.abs(ref).max())


# float64 values as float32 or float64 arrays, with |x| up to 1e4, where
# exp(-x) overflows either width, and with zeros of both signs and subnormals
def sigmoid_inputs(dtype):
    width = np.finfo(dtype).bits
    elements = st.floats(-1e4, 1e4, width=width, allow_subnormal=True)
    edges = st.sampled_from([0.0, -0.0, float(np.finfo(dtype).smallest_subnormal), -float(np.finfo(dtype).smallest_subnormal)])
    return hnp.arrays(dtype, st.integers(1, 64), elements=st.one_of(elements, edges))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([np.float32, np.float64]).flatmap(sigmoid_inputs))
@example(np.array([-1e4, -745.2, -103.9, -88.8, -0.0, 0.0, 1e-45, 88.8, 1e4], dtype=np.float32))
@example(np.array([-1e4, -745.2, -709.8, -0.0, 0.0, 5e-324, 36.8, 1e4], dtype=np.float64))
def test_sigmoid_within_4_ulp_of_expit(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = T._sigmoid(x)
    want = expit(x)
    assert got.dtype == x.dtype and got.shape == x.shape
    assert ((got >= 0) & (got <= 1)).all()
    # both lie in [0, 1], where the distance between the integer views of
    # two non-negative floats is their distance in ulps
    ints = np.int32 if x.dtype == np.float32 else np.int64
    ulps = np.abs(got.view(ints).astype(np.int64) - want.view(ints).astype(np.int64))
    assert ulps.max() <= 4, (x[ulps.argmax()], got[ulps.argmax()], want[ulps.argmax()])
