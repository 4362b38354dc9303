"""End-to-end tests of the command-line surface and its exit-code contract."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tsmamba
from tsmamba import cli
from tsmamba import data as D
from tsmamba import model as M
from tsmamba import ssm
from tsmamba import train as TR
from tsmamba.checkpoint import MAGIC, checkpoint_from_model, load_checkpoint, model_from_checkpoint, save_checkpoint
from tsmamba.cli import main
from tsmamba.errors import ZeroVariance
from tsmamba.tensor import Tensor, no_grad


@pytest.fixture()
def workdir(tmp_path):
    ds = D.synth_generate(
        3,
        2,
        240,
        [
            D.Sinusoid(freq=1 / 16, channel=0),
            D.Sinusoid(freq=1 / 16, phase=0.9, channel=1),
            D.Noise(sigma=0.05),
        ],
    )
    data_path = tmp_path / "series.csv"
    D.write_csv(ds, str(data_path))
    config = {
        "seed": 1,
        "precision": "float64",
        "window_stride": 2,
        "model": {
            "horizon": 4,
            "lookback": 16,
            "patch_len": 4,
            "d_model": 8,
            "n_layers": 1,
            "d_state": 2,
            "head_compress_dim": 4,
        },
        "stage1": {"epochs": 1, "batch_size": 32},
        "stage2": {"epochs": 1, "batch_size": 32},
        "finetune": {"epochs": 1, "batch_size": 8, "min_samples_for_xchannel": 1},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, str(data_path), str(config_path)


def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _pretrain_both(tmp_path, data_path, config_path):
    s1 = tmp_path / "s1.ckpt"
    s2 = tmp_path / "s2.ckpt"
    assert main(["pretrain", "--stage", "1", "--config", config_path, "--data", data_path, "--out", str(s1)]) == 0
    assert (
        main(["pretrain", "--stage", "2", "--config", config_path, "--data", data_path, "--init", str(s1), "--out", str(s2)])
        == 0
    )
    return str(s1), str(s2)


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------


def test_pretrain_stage2_requires_init(workdir, capsys):
    tmp_path, data_path, config_path = workdir
    code = main(["pretrain", "--stage", "2", "--config", config_path, "--data", data_path, "--out", str(tmp_path / "x.ckpt")])
    assert code == 2
    assert "--init" in capsys.readouterr().err


def test_pretrain_unknown_config_key(workdir, tmp_path):
    _, data_path, config_path = workdir
    raw = json.loads(Path(config_path).read_text())
    raw["surprise"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["pretrain", "--stage", "1", "--config", str(bad), "--data", data_path, "--out", str(tmp_path / "x.ckpt")]) == 2


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "seed", "abc"),
        (None, "seed", True),
        (None, "window_stride", 1.5),
        ("stage1", "epochs", "two"),
        ("stage1", "lr", [1]),
        ("stage2", "lr_new", None),
        ("finetune", "min_samples_for_xchannel", 1e3),
        ("split", "train_frac", "0.7"),
        ("model", "d_model", 8.5),
        ("model", "xchannel_enabled", "yes"),
        ("model", "horizon", "4"),
        ("model", "huber_delta", float("nan")),
        (None, "seed", -1),
    ],
)
def test_pretrain_mistyped_config_value_exit2(workdir, tmp_path, capsys, section, key, value):
    _, data_path, config_path = workdir
    raw = json.loads(Path(config_path).read_text())
    (raw if section is None else raw.setdefault(section, {}))[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code = main(["pretrain", "--stage", "1", "--config", str(bad), "--data", data_path, "--out", str(tmp_path / "x.ckpt")])
    assert code == 2
    assert repr(key) in capsys.readouterr().err


def test_pretrain_missing_data_exit3(workdir, tmp_path):
    _, _, config_path = workdir
    code = main(["pretrain", "--stage", "1", "--config", config_path, "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "x.ckpt")])
    assert code == 3


@pytest.mark.parametrize("unreadable", ["directory", "missing"])
def test_pretrain_config_directory_exit3(workdir, tmp_path, capsys, unreadable):
    # a config path that cannot be read exits 3 naming it, as --data does
    _, data_path, _ = workdir
    config = tmp_path if unreadable == "directory" else tmp_path / "absent.json"
    out, log = tmp_path / "x.ckpt", tmp_path / "x.log"
    code = main(["pretrain", "--stage", "1", "--config", str(config), "--data", data_path, "--out", str(out), "--log", str(log)])
    err = capsys.readouterr().err
    assert code == 3 and str(config) in err and "Traceback" not in err
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe" + b'{"seed": 1}',  # not UTF-8
        b'{"model": ' + b"[" * 100_000,  # nested past Python's recursion limit
    ],
    ids=["not-utf8", "too-deep"],
)
def test_pretrain_undecodable_config_exit2(workdir, tmp_path, capsys, content):
    # a config that cannot be decoded is refused naming it, with no traceback
    _, data_path, _ = workdir
    config = tmp_path / "bad.json"
    config.write_bytes(content)
    out = tmp_path / "x.ckpt"
    code = main(["pretrain", "--stage", "1", "--config", str(config), "--data", data_path, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and str(config) in err and "Traceback" not in err
    assert not out.exists()


def test_pretrain_zero_epochs_checkpoint_equals_init(workdir, tmp_path):
    _, data_path, config_path = workdir
    raw = json.loads(Path(config_path).read_text())
    raw["stage1"]["epochs"] = 0
    cfg0 = tmp_path / "zero.json"
    cfg0.write_text(json.dumps(raw))
    out = tmp_path / "init.ckpt"
    assert main(["pretrain", "--stage", "1", "--config", str(cfg0), "--data", data_path, "--out", str(out)]) == 0
    ckpt = load_checkpoint(str(out))
    fresh = M.build_model(M.ModelConfig.from_dict(ckpt.model_config), seed=1, dtype=np.float64)
    named = fresh.named_parameters()
    for name, arr in ckpt.tensors.items():
        assert arr.tobytes() == named[name].value.array.tobytes(), name


def test_pretrain_retired_model_keys(workdir, tmp_path, capsys):
    # run configs written before these choices were fixed still parse at the
    # fixed value; any other value is a configuration error naming the key
    _, data_path, config_path = workdir
    raw = json.loads(Path(config_path).read_text())
    raw["stage1"]["epochs"] = 0
    fixed = {"combine_mode": "add", "revin_affine": False, "expand_factor": 2, "local_conv_kernel": 4, "huber_delta": 1.0}
    cfg = tmp_path / "retired.json"
    argv = ["pretrain", "--stage", "1", "--config", str(cfg), "--data", data_path, "--out", str(tmp_path / "r.ckpt")]
    for fixed_as_written in (fixed, {**fixed, "huber_delta": 1}):
        cfg.write_text(json.dumps({**raw, "model": {**raw["model"], **fixed_as_written}}))
        assert main(argv) == 0
    others = (("combine_mode", "concat"), ("revin_affine", True), ("expand_factor", 3), ("local_conv_kernel", 3), ("huber_delta", 0.5))
    for key, value in others:
        cfg.write_text(json.dumps({**raw, "model": {**raw["model"], **fixed, key: value}}))
        assert main(argv) == 2
        assert key in capsys.readouterr().err


def test_pretrain_deterministic_checkpoints(workdir, tmp_path):
    _, data_path, config_path = workdir
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    for out in (a, b):
        assert main(["pretrain", "--stage", "1", "--config", config_path, "--data", data_path, "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("stride", [1, 3])
def test_pretrain_pooled_batches_match_stacked_windows(tmp_path, stride):
    # pretrain over two CSVs of different lengths gathers its batches from
    # the series; the checkpoint must equal run_stage1 on the pooled array
    # of written-out train windows
    lookback, horizon = 16, 4
    paths, pooled = [], []
    for i, n in enumerate((150, 97)):
        ds = D.synth_generate(i, 2, n, [D.Sinusoid(freq=1 / 12, phase=0.5 * i), D.Noise(sigma=0.1)])
        path = tmp_path / f"series{i}.csv"
        D.write_csv(ds, str(path))
        paths.append(str(path))
        values = D.load_csv(str(path)).values
        n1 = int(n * 0.7)
        std = (values - values[:n1].mean(axis=0)) / values[:n1].std(axis=0)
        pooled += [std[t - lookback : t, c] for t in range(lookback, n1 - horizon + 1, stride) for c in range(2)]
    config = {
        "seed": 5,
        "window_stride": stride,
        "model": {"horizon": horizon, "lookback": lookback, "patch_len": 4, "d_model": 8, "n_layers": 1, "d_state": 2, "head_compress_dim": 4},
        "stage1": {"epochs": 2, "batch_size": 16},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "s1.ckpt"
    assert main(["pretrain", "--stage", "1", "--config", str(config_path), "--data", *paths, "--out", str(out)]) == 0

    rc = cli.RunConfig(config)
    model = M.build_model(rc.model_config(2), seed=5, dtype=np.float32)
    result = TR.run_stage1(np.array(pooled).astype(np.float32), rc.stage1, model, seed=5)
    want = tmp_path / "want.ckpt"
    save_checkpoint(result.checkpoint, str(want))
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("trained,asked", [("float32", "float64"), ("float64", "float32")])
def test_stage2_and_finetune_refuse_another_precision(workdir, tmp_path, capsys, trained, asked):
    # both train in the dtype of the checkpoint they start from
    _, data_path, config_path = workdir
    raw = json.loads(Path(config_path).read_text())
    configs = {}
    for precision in (trained, asked):
        configs[precision] = tmp_path / f"{precision}.json"
        configs[precision].write_text(json.dumps({**raw, "precision": precision}))
    s1, s2 = _pretrain_both(tmp_path, data_path, str(configs[trained]))
    out = str(tmp_path / "x.ckpt")
    for argv in (
        ["pretrain", "--stage", "2", "--config", str(configs[asked]), "--data", data_path, "--init", s1, "--out", out],
        ["finetune", "--config", str(configs[asked]), "--data", data_path, "--init", s2, "--out", out],
    ):
        assert main(argv) == 4
        assert "precision" in capsys.readouterr().err


def test_pretrain_writes_training_log(workdir, tmp_path):
    _, data_path, config_path = workdir
    log = tmp_path / "log.csv"
    out = tmp_path / "s1.ckpt"
    assert main(["pretrain", "--stage", "1", "--config", config_path, "--data", data_path, "--out", str(out), "--log", str(log)]) == 0
    header = log.read_text().splitlines()[0]
    assert header == "stage,epoch,step,loss,lr_new,lr_backbone,wall_ms,grad_norm,clip_scale,windows_per_s"


def test_pretrain_diverging_lr_exits5_without_checkpoint(workdir, tmp_path, capsys):
    _, data_path, config_path = workdir
    raw = json.loads(Path(config_path).read_text())
    raw["stage1"]["lr"] = 1e300
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps(raw))
    out, log = tmp_path / "s1.ckpt", tmp_path / "log.csv"
    code = main(["pretrain", "--stage", "1", "--config", str(cfg), "--data", data_path, "--out", str(out), "--log", str(log)])
    assert code == 5
    assert "stage1_autoregressive epoch 0 step" in capsys.readouterr().err
    assert not out.exists() and not log.exists()
    assert not list(tmp_path.glob(".ckpt-*"))


@pytest.mark.parametrize(
    "section, key",
    [(section, key) for section, rates in (("stage1", ("lr",)), ("stage2", ("lr_new", "lr_backbone")), ("finetune", ("lr",)))
     for key in rates + ("weight_decay", "grad_clip_norm")],
)
def test_negative_optimizer_setting_exits2_naming_its_key(workdir, tmp_path, capsys, section, key):
    _, data_path, config_path = workdir
    raw = json.loads(Path(config_path).read_text())
    raw[section][key] = -1e-3
    bad = tmp_path / "negative.json"
    bad.write_text(json.dumps(raw))
    if section == "stage1":
        argv = ["pretrain", "--stage", "1"]
    else:
        s1, s2 = _pretrain_both(tmp_path, data_path, config_path)
        argv = ["pretrain", "--stage", "2", "--init", s1] if section == "stage2" else ["finetune", "--init", s2]
    capsys.readouterr()
    out, log = tmp_path / "out.ckpt", tmp_path / "log.csv"
    assert main(argv + ["--config", str(bad), "--data", data_path, "--out", str(out), "--log", str(log)]) == 2
    assert f"{section} key {key!r}" in capsys.readouterr().err
    assert not out.exists() and not log.exists()
    assert not list(tmp_path.glob(".ckpt-*"))


@pytest.mark.parametrize(
    "section, values, key",
    [
        ("stage2", {"lr_new": -1e-3, "lr_backbone": 0.0}, "lr_new"),
        ("stage2", {"lr_new": 1e-5, "lr_backbone": 1e-3}, "lr_backbone"),
        ("finetune", {"batch_size": 0}, "batch_size"),
    ],
)
def test_bad_later_stage_setting_exits2_before_stage1_trains(workdir, tmp_path, capsys, section, values, key):
    # every section is checked when the config is read, not when its stage starts
    _, data_path, config_path = workdir
    raw = json.loads(Path(config_path).read_text())
    raw[section].update(values)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    out, log = tmp_path / "s1.ckpt", tmp_path / "log.csv"
    argv = ["pretrain", "--stage", "1", "--config", str(bad), "--data", data_path, "--out", str(out), "--log", str(log)]
    assert main(argv) == 2
    assert f"{section} key {key!r}" in capsys.readouterr().err
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_checkpoint_without_tensors_exits4_naming_it(workdir, tmp_path, capsys, command):
    _, data_path, config_path = workdir
    from tsmamba.checkpoint import Checkpoint

    cfg = cli.load_run_config(config_path).model_config(2)
    empty = tmp_path / "empty.ckpt"
    save_checkpoint(Checkpoint(cfg.to_dict(), "stage2", {}), str(empty))
    out, log = tmp_path / "out.ckpt", tmp_path / "log.csv"
    argv = ["pretrain", "--stage", "2"] if command == "pretrain" else ["finetune"]
    argv += ["--config", config_path, "--data", data_path, "--init", str(empty), "--out", str(out), "--log", str(log)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert str(empty) in err and "Traceback" not in err
    assert not out.exists() and not log.exists()


def test_readme_run_config_lists_every_key_at_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    raw = json.loads(next(block for block in readme.split("```json\n")[1:] if '"stage1"' in block).split("```")[0])
    rc = cli.RunConfig(raw)
    for name, cls in [("split", D.SplitSpec), ("stage1", TR.Stage1Config), ("stage2", TR.Stage2Config), ("finetune", TR.FinetuneConfig)]:
        assert getattr(rc, name) == cls()
        assert set(raw[name]) == {f.name for f in dataclasses.fields(cls)} - {"enable_xchannel"}


def test_pretrain_stage1_imports_block_weights(workdir, tmp_path):
    # external named-tensor file holding Mamba-block weights, layer-indexed names
    _, data_path, config_path = workdir
    from tsmamba.checkpoint import Checkpoint, save_checkpoint

    donor = M.build_model(M.ModelConfig(horizon=4, n_channels=2, lookback=16, patch_len=4, d_model=8, n_layers=1, d_state=2, head_compress_dim=4), seed=99, dtype=np.float64)
    block_tensors = {p.name: p.value.array.copy() for p in donor.frozen_block_parameters()}
    init_path = tmp_path / "blocks.ckpt"
    save_checkpoint(Checkpoint(donor.config.to_dict(), "import", block_tensors), str(init_path))

    raw = json.loads(Path(config_path).read_text())
    raw["stage1"]["epochs"] = 0
    cfg0 = tmp_path / "zero.json"
    cfg0.write_text(json.dumps(raw))
    out = tmp_path / "imported.ckpt"
    code = main(["pretrain", "--stage", "1", "--config", str(cfg0), "--data", data_path, "--init", str(init_path), "--out", str(out)])
    assert code == 0
    ckpt = load_checkpoint(str(out))
    for name, arr in block_tensors.items():
        assert ckpt.tensors[name].tobytes() == arr.tobytes(), name

    # shape conflict in the import file is a checkpoint error
    bad = {"fwd_encoder.layer0.mamba.in_proj": np.zeros((3, 3))}
    bad_path = tmp_path / "bad.ckpt"
    save_checkpoint(Checkpoint(donor.config.to_dict(), "import", bad), str(bad_path))
    assert main(["pretrain", "--stage", "1", "--config", str(cfg0), "--data", data_path, "--init", str(bad_path), "--out", str(out)]) == 4


def test_evaluate_explicit_boundaries(workdir, tmp_path):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    report = tmp_path / "fixed.csv"
    code = main(
        [
            "evaluate", "--model", s2, "--data", data_path, "--horizons", "4",
            "--train-end", "150", "--val-end", "190", "--out", str(report),
        ]
    )
    assert code == 0
    rows = _csv_rows(report)
    # test rows start at origin >= 190: origins in [190, 236] at stride 1
    assert rows[0]["n_windows"] == str(240 - 4 - 190 + 1)
    assert main(["evaluate", "--model", s2, "--data", data_path, "--horizons", "4", "--train-end", "150"]) == 2
    # out-of-range pairs are configuration errors, also where the train split would be empty
    for train_end, val_end in (("150", "120"), ("0", "190"), ("-5", "190"), ("150", "241")):
        code = main(
            ["evaluate", "--model", s2, "--data", data_path, "--horizons", "4", "--train-end", train_end, "--val-end", val_end]
        )
        assert code == 2, (train_end, val_end)


def test_evaluate_bad_horizons_exit2(workdir, tmp_path, capsys):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    (ckpt_dir / "h4.ckpt").write_bytes(Path(s2).read_bytes())
    # a horizon below 1 or named twice is a bad flag, whether --model is a
    # file or a directory; a repeated one would be scored twice and counted
    # twice in the avg row
    for model in (s2, str(ckpt_dir)):
        for horizons in ("4,x", ",", "0", "-8", "8,0", "4,-4", "4,4", "4,,4"):
            assert main(["evaluate", "--model", model, "--data", data_path, "--horizons", horizons]) == 2, horizons
            err = capsys.readouterr().err
            assert "--horizons" in err
            if horizons in ("4,4", "4,,4"):
                assert "horizon 4 more than once" in err


@pytest.mark.parametrize("case", ["beyond-float32", "statistics-overflow"])
def test_forecast_refuses_a_window_the_model_cannot_hold_exit3(tmp_path, capsys, case):
    # 1e39 is finite in float64 but inf in a float32 model; a series
    # alternating +-3e38 is finite in float32, but its RevIN variance is not,
    # so the forecast would be NaN or inf
    model = _drawn_checkpoint(tmp_path / "m.ckpt", 4, np.float32, n_channels=2)
    values = np.random.default_rng(1).standard_normal((40, 2))
    if case == "beyond-float32":
        values[-3, 1] = 1e39
    else:
        values[:, 1] = 3e38 * (-1.0) ** np.arange(40)
    data = str(tmp_path / "in.csv")
    D.write_csv(D.TimeSeriesDataset(name="v", values=values), data)
    out = tmp_path / "fc.csv"
    capsys.readouterr()
    assert main(["forecast", "--model", model, "--input", data, "--horizon", "4", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert data in err and "float32" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["beyond-float32", "forecast-overflow"])
def test_evaluate_refuses_a_window_the_model_cannot_hold_exit3(tmp_path, capsys, case):
    # a constant train split standardizes with std 1e-8, so test values near
    # 1e32 become 1e40 (inf in float32), and values of +-2e30 become +-2e38,
    # finite in float32 but overflowing the RevIN variance
    model = _drawn_checkpoint(tmp_path / "m.ckpt", 4, np.float32, n_channels=2)
    values = np.random.default_rng(1).standard_normal((200, 2))
    values[:140, 0] = 5.0
    values[170:, 0] = (1e32 if case == "beyond-float32" else 2e30) * (-1.0) ** np.arange(30)
    data = str(tmp_path / "in.csv")
    D.write_csv(D.TimeSeriesDataset(name="v", values=values), data)
    report = tmp_path / "report.csv"
    capsys.readouterr()
    with pytest.warns(ZeroVariance, match="channel 0"):
        assert main(["evaluate", "--model", model, "--data", data, "--horizons", "4", "--out", str(report)]) == 3
    err = capsys.readouterr().err
    # the test split starts at origin 160; the first window whose input holds row 170 has origin 171
    assert data in err and "origin 171" in err and "Traceback" not in err
    assert not report.exists()


def test_evaluate_report_does_not_depend_on_group_size(workdir, tmp_path, monkeypatch):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    base = ["evaluate", "--model", s2, "--data", data_path, "--horizons", "4", "--raw-metrics"]
    reports = []
    for budget in (1, 1 << 30):  # one window per group, then every window in one group
        monkeypatch.setattr(ssm, "SCAN_BUDGET", budget)
        out = tmp_path / f"budget{budget}.csv"
        assert main(base + ["--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


def test_forecast_boundary_and_parity(workdir, tmp_path):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)

    ds = D.load_csv(data_path, has_date_column=False)
    exact = D.TimeSeriesDataset(name="x", values=ds.values[:16], channel_names=ds.channel_names)
    exact_path = tmp_path / "exact.csv"
    D.write_csv(exact, str(exact_path))
    out_csv = tmp_path / "fc.csv"
    assert main(["forecast", "--model", s2, "--input", str(exact_path), "--horizon", "4", "--out", str(out_csv)]) == 0

    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ds.channel_labels()
    pred_cli = np.array([[float(v) for v in row] for row in rows[1:]]).T  # [D, T]

    model = model_from_checkpoint(load_checkpoint(s2))
    with no_grad():
        pred_lib = M.forecast(Tensor(exact.values.T), model).array
    assert np.max(np.abs(pred_cli - pred_lib)) < 1e-6


def test_forecast_of_bom_input_writes_clean_channel_names(workdir, tmp_path):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    plain = tmp_path / "plain.csv"
    D.write_csv(D.TimeSeriesDataset(name="p", values=D.load_csv(data_path).values[:16], channel_names=["a", "b"]), str(plain))
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, bom):
        out = tmp_path / f"fc-{path.stem}.csv"
        assert main(["forecast", "--model", s2, "--input", str(path), "--horizon", "4", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1].startswith(b"a,b\r\n")
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("flag", ["--model", "--input", "--out"])
def test_forecast_directory_path_exit3(workdir, tmp_path, capsys, flag):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    paths = {"--model": s2, "--input": data_path, "--out": str(tmp_path / "fc.csv")}
    paths[flag] = str(tmp_path)
    capsys.readouterr()
    code = main(["forecast", "--horizon", "4", *(arg for item in paths.items() for arg in item)])
    err = capsys.readouterr().err
    assert code == 3 and str(tmp_path) in err and "Traceback" not in err


def test_forecast_short_input_exit3(workdir, tmp_path):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    ds = D.load_csv(data_path, has_date_column=False)
    short = D.TimeSeriesDataset(name="s", values=ds.values[:15])
    short_path = tmp_path / "short.csv"
    D.write_csv(short, str(short_path))
    assert main(["forecast", "--model", s2, "--input", str(short_path), "--horizon", "4", "--out", str(tmp_path / "o.csv")]) == 3


def test_forecast_horizon_mismatch_exit4(workdir, tmp_path):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    assert main(["forecast", "--model", s2, "--input", data_path, "--horizon", "8", "--out", str(tmp_path / "o.csv")]) == 4


def test_forecast_corrupt_checkpoint_exit4(workdir, tmp_path):
    _, data_path, _ = workdir
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert main(["forecast", "--model", str(bad), "--input", data_path, "--horizon", "4", "--out", str(tmp_path / "o.csv")]) == 4


def test_forecast_mixed_dtype_checkpoint_exit4(workdir, tmp_path, capsys):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)  # float64
    # save_checkpoint refuses mixed dtypes, so one entry is rewritten to read
    # the first half of its float64 bytes as float32
    mixed = tmp_path / "mixed.ckpt"

    def to_float32(manifest):
        entry = next(iter(manifest["tensors"].values()))
        entry.update(dtype="float32", byte_len=entry["byte_len"] // 2)

    _rewrite_manifest(s2, mixed, to_float32)
    out = tmp_path / "o.csv"
    capsys.readouterr()
    assert main(["forecast", "--model", str(mixed), "--input", data_path, "--horizon", "4", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "mixed.ckpt" in err and "float32" in err and "float64" in err
    assert not out.exists()


def _rewrite_manifest(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its manifest."""
    blob = Path(src).read_bytes()
    end = 16 + int.from_bytes(blob[8:16], "little")
    manifest = json.loads(blob[16:end])
    edit(manifest)
    raw = json.dumps(manifest).encode("utf-8")
    Path(dst).write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[end:])


def test_forecast_malformed_manifest_exit4(workdir, tmp_path, capsys):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    for name, edit in (
        ("no-config.ckpt", lambda m: m.pop("model_config")),
        ("no-shape.ckpt", lambda m: next(iter(m["tensors"].values())).pop("shape")),
    ):
        bad = tmp_path / name
        _rewrite_manifest(s2, bad, edit)
        capsys.readouterr()
        assert main(["forecast", "--model", str(bad), "--input", data_path, "--horizon", "4", "--out", str(tmp_path / "o.csv")]) == 4
        assert name in capsys.readouterr().err


def _csv_writer_bytes(labels, pred):
    """What a csv.writer, one row per horizon step, writes for ``pred`` [D, T]."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(labels)
    for t in range(pred.shape[1]):
        writer.writerow([f"{v:.9g}" for v in pred[:, t]])
    return buf.getvalue().encode("utf-8")


def _quoted_labels_csv(tmp_path, data_path):
    ds = D.load_csv(data_path, has_date_column=False)
    labels = ["a,b", 'say "hi"']
    path = tmp_path / "quoted.csv"
    D.write_csv(D.TimeSeriesDataset(name="q", values=ds.values, channel_names=labels), str(path))
    return str(path), labels


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_forecast_csv_bytes_match_csv_writer(workdir, tmp_path, precision):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    ckpt = load_checkpoint(s2)
    dtype = np.dtype(precision)
    ckpt.tensors = {name: arr.astype(dtype) for name, arr in ckpt.tensors.items()}
    model_path = tmp_path / f"{precision}.ckpt"
    save_checkpoint(ckpt, str(model_path))
    input_path, labels = _quoted_labels_csv(tmp_path, data_path)
    out = tmp_path / "fc.csv"
    assert main(["forecast", "--model", str(model_path), "--input", input_path, "--horizon", "4", "--out", str(out)]) == 0

    ds = D.load_csv(input_path)
    assert ds.channel_labels() == labels
    with no_grad():
        pred = M.forecast(Tensor(ds.values[-16:].T.astype(dtype)), model_from_checkpoint(ckpt)).array
    assert out.read_bytes() == _csv_writer_bytes(labels, pred)
    assert out.read_bytes().startswith(b'"a,b","say ""hi"""\r\n')


@pytest.mark.parametrize(
    "values",
    [
        np.array([[-0.0, 1 / 3, 16777217, 3.4028235e38], [1.17549435e-38, 1e-45, -9.87654321e8, 0.1]], dtype=np.float32),
        np.array([[-0.0, 0.1 + 0.2, 1 / 3, 123456789.123], [1e-300, 5e-324, -2.0 / 3, 1e22]], dtype=np.float64),
    ],
    ids=["float32", "float64"],
)
def test_forecast_csv_formats_like_csv_writer(workdir, tmp_path, monkeypatch, values):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    input_path, labels = _quoted_labels_csv(tmp_path, data_path)
    # the written numbers are exactly these, whatever the model would say
    monkeypatch.setattr(M, "forecast", lambda x, model: Tensor(values[None]))
    out = tmp_path / "fc.csv"
    assert main(["forecast", "--model", s2, "--input", input_path, "--horizon", "4", "--out", str(out)]) == 0
    text = out.read_bytes()
    assert text == _csv_writer_bytes(labels, values)
    assert b"\r\n-0," in text  # -0.0 keeps its sign


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forecast_csv_is_the_library_forecast_of_the_last_window_in_any_layout(tmp_path, dtype):
    model = _drawn_checkpoint(tmp_path / "m.ckpt", 8, dtype, n_channels=7, lookback=128, patch_len=16)
    data = _series_csv(tmp_path / "series.csv", 7, 300)
    out = tmp_path / "fc.csv"
    assert main(["forecast", "--model", model, "--input", data, "--horizon", "8", "--out", str(out)]) == 0
    ds = D.load_csv(data)
    last = ds.values[-128:].T  # [D, L], F-ordered
    built = model_from_checkpoint(load_checkpoint(model))
    with no_grad():
        for window in (np.ascontiguousarray(last, dtype=dtype), last.astype(dtype)):
            pred = tsmamba.forecast(Tensor(window), built).array
            assert out.read_bytes() == _csv_writer_bytes(ds.channel_labels(), pred)


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_forecast_horizon_below_one_exit2_before_reading_the_checkpoint(tmp_path, capsys, horizon):
    data = _series_csv(tmp_path / "series.csv", 2, 60)
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"JUNKJUNKJUNK")
    capsys.readouterr()
    assert main(["forecast", "--model", str(junk), "--input", data, "--horizon", horizon, "--out", str(tmp_path / "o.csv")]) == 2
    assert "--horizon" in capsys.readouterr().err


def _xchannel_checkpoint(path) -> str:
    cfg = M.ModelConfig(horizon=4, n_channels=3, lookback=32, patch_len=8, d_model=8, n_layers=1, d_state=2,
                        head_compress_dim=4, xchannel_enabled=True)
    save_checkpoint(checkpoint_from_model(M.build_model(cfg, seed=3, dtype=np.float32), "finetune"), str(path))
    return str(path)


@pytest.mark.parametrize("case", ["forecast-short-input", "evaluate-empty-split", "forecast-channels", "evaluate-channels"])
def test_data_refusals_name_the_data_file(tmp_path, capsys, case):
    command, what = case.split("-", 1)
    if what == "channels":
        model, data = _xchannel_checkpoint(tmp_path / "x.ckpt"), _series_csv(tmp_path / "two.csv", 2, 120)
    else:
        model = _drawn_checkpoint(tmp_path / "m.ckpt", 4, np.float32, n_channels=2)
        data = _series_csv(tmp_path / "series.csv", 2, 20 if what == "short-input" else 120)
    if command == "forecast":
        argv = ["forecast", "--model", model, "--input", data, "--horizon", "4", "--out", str(tmp_path / "o.csv")]
    else:
        argv = ["evaluate", "--model", model, "--data", data, "--horizons", "4"]
        if what == "empty-split":
            argv += ["--split", "val", "--train-frac", "0.7", "--val-frac", "0.01", "--test-frac", "0.29"]
    capsys.readouterr()
    assert main(argv) == (4 if what == "channels" else 3)
    err = capsys.readouterr().err
    assert data in err and "Traceback" not in err
    if what == "channels":
        assert "expects 3 channels, got 2" in err


# ---------------------------------------------------------------------------
# one process, many calls: the parser is built once and keeps no state
# ---------------------------------------------------------------------------


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []

    def spy():
        built.append(1)
        return real_build_parser()

    real_build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", spy)
    assert main(["--help"]) == 0
    assert main(["--help"]) == 0
    assert built == [1]
    assert "forecast" in capsys.readouterr().out


def test_repeated_calls_share_no_state(workdir, tmp_path, capsys):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    lines = Path(data_path).read_text().splitlines()
    lines[10] = lines[10].split(",", 1)[0] + ",nan"
    gappy = tmp_path / "gappy.csv"
    gappy.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o.csv"
    argv = ["forecast", "--model", s2, "--input", str(gappy), "--horizon", "4", "--out", str(out)]

    assert main(argv + ["--ffill"]) == 0
    assert main(argv) == 3  # --ffill does not carry over
    assert "NaN" in capsys.readouterr().err

    assert main(argv + ["--bogus"]) == 2
    assert main(argv[:3] + ["--input", data_path] + argv[5:]) == 0

    assert main(["--help"]) == 0
    assert main(["--help"]) == 0


def test_patched_handler_runs(workdir, tmp_path, monkeypatch):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    argv = ["forecast", "--model", s2, "--input", data_path, "--horizon", "4", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 0  # the parser is built, and cached, before the patch
    seen = []
    monkeypatch.setattr(cli, "_run_forecast", lambda args: seen.append(args.model) or 17)
    assert main(argv) == 17
    assert seen == [s2]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("xchannel", [False, True])
def test_batched_forecast_groups_match_single_windows(monkeypatch, dtype, xchannel):
    cfg = M.ModelConfig(horizon=4, n_channels=3, lookback=16, patch_len=4, d_model=8, n_layers=1, d_state=2,
                        head_compress_dim=4, xchannel_enabled=xchannel)
    model = M.build_model(cfg, seed=5, dtype=dtype)
    rng = np.random.default_rng(6)
    for p in model.parameters():  # the zero-initialized xchannel expansion would hide it
        p.assign((rng.standard_normal(p.value.shape) * 0.3).astype(dtype))
    windows = D.Windows.over(rng.standard_normal((23, 3)), 16, 0)  # 8 windows
    # the scan steps 3-window row groups: 3 + 3 + 2
    monkeypatch.setattr(ssm, "SCAN_BUDGET", 3 * 3 * cfg.d_inner * cfg.d_state * np.dtype(dtype).itemsize)
    assert M.window_group(cfg, 3, np.dtype(dtype).itemsize) == 3
    preds = M.forecast_windows(model, windows, "series")
    with no_grad():
        singles = [M.forecast(Tensor(np.array(w, dtype=dtype, order="C")), model).array for w in windows.inputs]
    assert preds.dtype == np.float64
    assert preds.tobytes() == np.stack(singles).astype(np.float64).tobytes()


def test_group_windows_from_config():
    def group(d_model, itemsize=4):
        cfg = M.ModelConfig(horizon=96, n_channels=7, lookback=512, patch_len=16, d_model=d_model, d_state=16)
        return M.window_group(cfg, 7, itemsize)

    assert group(768) == 1  # paper scale: one window's state already exceeds the budget
    assert group(768, itemsize=8) == 1
    assert group(32) > 1  # the benchmark's evaluate model


def _drawn_checkpoint(path, horizon, dtype, n_channels=3, lookback=32, patch_len=8, seed=0) -> str:
    """A checkpoint whose every tensor is drawn: a built head maps to zero,
    which would hide the encoders from the scores."""
    cfg = M.ModelConfig(horizon=horizon, n_channels=n_channels, lookback=lookback, patch_len=patch_len, d_model=32, n_layers=1,
                        d_state=16, head_compress_dim=4)
    model = M.build_model(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.assign((p.value.array + 0.1 * rng.standard_normal(p.value.shape)).astype(dtype))
    save_checkpoint(checkpoint_from_model(model, "stage2"), str(path))
    return str(path)


def _series_csv(path, n_channels, rows, seed=7) -> str:
    comps = [D.Sinusoid(freq=1 / 12, channel=c, phase=0.7 * c) for c in range(n_channels)] + [D.Trend(slope=1e-3), D.Noise(sigma=0.2)]
    D.write_csv(D.synth_generate(seed, n_channels, rows, comps), str(path))
    return str(path)


def _stacked_evaluate(args, report, per_window):
    """``evaluate`` as it scored before it streamed groups: the whole split
    stacked, one ``model.forecast_windows`` call and one metric call per row."""
    ckpts = cli._checkpoints_for_horizons(args.model, cli._int_list(args.horizons, "--horizons"))
    ds = D.load_csv(args.data)
    spec = D.SplitSpec(train_frac=args.train_frac, val_frac=args.val_frac, test_frac=args.test_frac)
    boundaries = (args.train_end, args.val_end) if args.train_end is not None else None
    rows, raw_rows, window_rows = [], [], []
    for horizon, ckpt in ckpts.items():
        model = model_from_checkpoint(ckpt)
        (_, _, windows), stats = cli._standardized_splits(ds, spec, model.config.lookback, horizon, args.stride, boundaries)
        inputs, targets = D.stack_inputs(windows), D.stack_targets(windows)
        if args.baseline == "repeat_last":
            preds = np.repeat(inputs[:, :, -1:], horizon, axis=2)
        elif args.baseline == "oracle":
            preds = targets.copy()
        else:
            preds = M.forecast_windows(model, windows, ds.name)
        rows.append({"dataset": ds.name, "horizon": horizon, "mse": D.metric_mse(preds, targets), "mae": D.metric_mae(preds, targets),
                     "n_windows": len(windows)})
        scale, shift = stats.std[None, :, None], stats.mean[None, :, None]
        raw_p, raw_t = preds * scale + shift, targets * scale + shift
        raw_rows.append({"dataset": f"{ds.name}:raw", "horizon": horizon, "mse": D.metric_mse(raw_p, raw_t),
                         "mae": D.metric_mae(raw_p, raw_t), "n_windows": len(windows)})
        window_rows += [(horizon, origin, D.metric_mse(preds[i], targets[i]), D.metric_mae(preds[i], targets[i]))
                        for i, origin in enumerate(windows.origins)]
    D.write_window_errors_csv(str(per_window), ds.name, window_rows)
    with open(report, "w", encoding="utf-8", newline="") as fh:
        D.write_report_csv(fh, rows + raw_rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["uneven-groups", "shorter-than-a-group", "stride-3", "two-horizons"])
def test_streamed_evaluate_matches_stacked_split_byte_for_byte(tmp_path, dtype, case):
    # evaluate scores one window group at a time; its reports and per-window
    # errors are the bytes of scoring the stacked split at once
    data = _series_csv(tmp_path / "series.csv", 3, 600)
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    for horizon in (8, 12):
        _drawn_checkpoint(ckpt_dir / f"h{horizon}.ckpt", horizon, dtype, seed=horizon)
    model, horizons, extra = str(ckpt_dir / "h8.ckpt"), "8", []
    group = M.window_group(model_from_checkpoint(load_checkpoint(model)).config, 3, np.dtype(dtype).itemsize)
    n_windows = 600 - 480 - 8 + 1  # the default test split at stride 1
    if case == "uneven-groups":
        assert n_windows > group and n_windows % group
    elif case == "shorter-than-a-group":
        extra = ["--train-end", "400", "--val-end", "588"]  # origins 588..592
        assert 5 < group
    elif case == "stride-3":
        extra = ["--stride", "3"]
    else:
        model, horizons = str(ckpt_dir), "8,12"
    argv = ["evaluate", "--model", model, "--data", data, "--horizons", horizons, "--raw-metrics", *extra]
    for baseline in ("none", "repeat_last", "oracle"):
        run = argv + ["--baseline", baseline]
        got, got_windows = tmp_path / f"{baseline}.csv", tmp_path / f"{baseline}-windows.csv"
        want, want_windows = tmp_path / f"{baseline}-stacked.csv", tmp_path / f"{baseline}-stacked-windows.csv"
        assert main(run + ["--out", str(got), "--window-errors", str(got_windows)]) == 0
        _stacked_evaluate(cli.build_parser().parse_args(run), want, want_windows)
        assert got.read_bytes() == want.read_bytes(), baseline
        assert got_windows.read_bytes() == want_windows.read_bytes(), baseline
        n_rows = len(_csv_rows(got_windows))
        assert n_rows == {"shorter-than-a-group": 5, "stride-3": 37, "two-horizons": 113 + 109}.get(case, n_windows)


def test_evaluate_memory_does_not_grow_with_the_split(tmp_path):
    # evaluate holds one window group at a time, so 8x the test windows adds
    # far less than stacking the larger split's inputs alone would take
    ckpt = _drawn_checkpoint(tmp_path / "model.ckpt", 8, np.float64, n_channels=4, lookback=256, patch_len=16)
    group = M.window_group(model_from_checkpoint(load_checkpoint(ckpt)).config, 4, 8)
    peaks = {}
    for n_test in (40, 320):
        assert n_test > 2 * group
        data = _series_csv(tmp_path / f"series{n_test}.csv", 4, 400 + 8 + n_test - 1)
        argv = ["evaluate", "--model", ckpt, "--data", data, "--horizons", "8", "--train-end", "300", "--val-end", "400"]
        tracemalloc.start()
        try:
            assert main(argv + ["--out", str(tmp_path / "report.csv")]) == 0
            peaks[n_test] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _csv_rows(tmp_path / "report.csv")[0]["n_windows"] == str(n_test)
    stacked_inputs = 320 * 4 * 256 * 8
    assert peaks[320] - peaks[40] < stacked_inputs / 8, (peaks, stacked_inputs)


def test_evaluate_stdout_matches_out_file(workdir, tmp_path, capsysbinary):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    base = ["evaluate", "--model", s2, "--data", data_path, "--horizons", "4", "--raw-metrics"]
    report = tmp_path / "report.csv"
    capsysbinary.readouterr()
    assert main(base) == 0
    printed = capsysbinary.readouterr().out
    assert main(base + ["--out", str(report)]) == 0
    assert printed == report.read_bytes()
    assert b",avg," in printed


def test_evaluate_oracle_baseline_zero_rows(workdir, tmp_path):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    report = tmp_path / "report.csv"
    code = main(
        ["evaluate", "--model", s2, "--data", data_path, "--split", "test", "--horizons", "4", "--baseline", "oracle", "--out", str(report)]
    )
    assert code == 0
    rows = _csv_rows(report)
    assert rows[0]["mse"] == "0.000000"
    assert rows[0]["mae"] == "0.000000"
    assert rows[-1]["horizon"] == "avg"


def test_evaluate_repeat_last_baseline_reproducible(workdir, tmp_path):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    vals = []
    for name in ("r1.csv", "r2.csv"):
        report = tmp_path / name
        assert (
            main(["evaluate", "--model", s2, "--data", data_path, "--horizons", "4", "--baseline", "repeat_last", "--out", str(report)])
            == 0
        )
        vals.append(Path(report).read_text())
    assert vals[0] == vals[1]
    first = _csv_rows(tmp_path / "r1.csv")[0]
    assert float(first["mse"]) > 0


def test_evaluate_model_beats_nothing_but_runs_and_writes_window_errors(workdir, tmp_path):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    report = tmp_path / "report.csv"
    per_window = tmp_path / "per_window.csv"
    code = main(
        [
            "evaluate", "--model", s2, "--data", data_path, "--horizons", "4",
            "--out", str(report), "--window-errors", str(per_window), "--raw-metrics",
        ]
    )
    assert code == 0
    rows = _csv_rows(report)
    assert any(r["dataset"].endswith(":raw") for r in rows)
    win_rows = _csv_rows(per_window)
    assert {"dataset", "horizon", "origin_index", "mse", "mae"} == set(win_rows[0])
    # MAE <= sqrt(MSE) on every evaluation row (Jensen)
    for r in rows:
        assert float(r["mae"]) <= np.sqrt(float(r["mse"])) + 1e-9


def test_evaluate_window_errors_keep_every_horizon(workdir, tmp_path):
    _, data_path, _ = workdir
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    for horizon in (8, 16):
        cfg = M.ModelConfig(horizon=horizon, n_channels=2, lookback=16, patch_len=4, d_model=8, n_layers=1, d_state=2, head_compress_dim=4)
        model = M.build_model(cfg, seed=horizon, dtype=np.float64)
        save_checkpoint(checkpoint_from_model(model, "stage2"), str(ckpt_dir / f"h{horizon}.ckpt"))
    report = tmp_path / "report.csv"
    per_window = tmp_path / "per_window.csv"
    args = ["evaluate", "--model", str(ckpt_dir), "--data", data_path, "--horizons", "8,16"]
    assert main(args + ["--out", str(report), "--window-errors", str(per_window)]) == 0
    n_windows = {r["horizon"]: int(r["n_windows"]) for r in _csv_rows(report) if r["horizon"] != "avg"}
    assert set(n_windows) == {"8", "16"}
    lines = Path(per_window).read_text().splitlines()
    assert lines.count("dataset,horizon,origin_index,mse,mae") == 1
    win_rows = list(csv.DictReader(lines))
    assert [r["horizon"] for r in win_rows] == ["8"] * n_windows["8"] + ["16"] * n_windows["16"]


def test_evaluate_empty_split_exit3(workdir, tmp_path):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    code = main(
        [
            "evaluate", "--model", s2, "--data", data_path, "--split", "val", "--horizons", "4",
            "--train-frac", "0.7", "--val-frac", "0.01", "--test-frac", "0.29",
        ]
    )
    assert code == 3


def test_evaluate_infinite_cell_exit3(workdir, tmp_path, capsys):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    lines = Path(data_path).read_text().splitlines()
    lines[5] = lines[5].split(",", 1)[0] + ",1e999"
    bad = tmp_path / "inf.csv"
    bad.write_text("\n".join(lines) + "\n")
    for extra in ([], ["--ffill"]):
        assert main(["evaluate", "--model", s2, "--data", str(bad), "--horizons", "4", *extra]) == 3
        assert "row 6, column 2" in capsys.readouterr().err


def test_evaluate_horizon_mismatch_exit4(workdir):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    assert main(["evaluate", "--model", s2, "--data", data_path, "--horizons", "8"]) == 4


def test_evaluate_checkpoint_directory(workdir, tmp_path, capsys):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    (ckpt_dir / "h4.ckpt").write_bytes(Path(s2).read_bytes())
    (ckpt_dir / "broken.ckpt").write_bytes(b"TSMBCKPT" + b"\xff" * 12)
    report = tmp_path / "dir_report.csv"
    capsys.readouterr()
    assert main(["evaluate", "--model", str(ckpt_dir), "--data", data_path, "--horizons", "4", "--out", str(report)]) == 0
    err = capsys.readouterr().err
    assert "broken.ckpt" in err and "h4.ckpt" not in err  # the unreadable file is named, not skipped silently
    assert main(["evaluate", "--model", str(ckpt_dir), "--data", data_path, "--horizons", "8"]) == 4

    (ckpt_dir / "h4-copy.ckpt").write_bytes(Path(s2).read_bytes())
    assert main(["evaluate", "--model", str(ckpt_dir), "--data", data_path, "--horizons", "4"]) == 4
    err = capsys.readouterr().err
    assert "h4-copy.ckpt" in err and "h4.ckpt" in err and "horizon 4" in err


def test_evaluate_directory_skips_rejected_config(workdir, tmp_path, capsys):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    (ckpt_dir / "h4.ckpt").write_bytes(Path(s2).read_bytes())
    # a file for a horizon nobody asked for, with a config this version rejects
    _rewrite_manifest(s2, ckpt_dir / "h8.ckpt", lambda m: m["model_config"].update(horizon=8, combine_mode="concat"))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(ckpt_dir), "--data", data_path, "--horizons", "4"]) == 0
    err = capsys.readouterr().err
    assert "h8.ckpt" in err and "combine_mode" in err
    assert main(["evaluate", "--model", str(ckpt_dir), "--data", data_path, "--horizons", "8"]) == 4


def test_manifest_retired_keys_forecast_identically_or_exit2(workdir, tmp_path, capsys):
    # checkpoints written while the conv kernel and the Huber delta were
    # config keys hold them at 4 and 1.0; they forecast byte for byte as
    # before, and any other value is refused naming the key
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    window = tmp_path / "window.csv"
    D.write_csv(D.TimeSeriesDataset(name="w", values=D.load_csv(data_path).values[-16:]), str(window))

    def forecast(ckpt):
        out = tmp_path / "fc.csv"
        code = main(["forecast", "--model", str(ckpt), "--input", str(window), "--horizon", "4", "--out", str(out)])
        return code, out.read_bytes() if code == 0 else None

    want = forecast(s2)
    assert want[0] == 0
    for i, keys in enumerate(({"local_conv_kernel": 4, "huber_delta": 1.0}, {"local_conv_kernel": 4, "huber_delta": 1})):
        _rewrite_manifest(s2, tmp_path / f"old{i}.ckpt", lambda m: m["model_config"].update(keys))
        assert forecast(tmp_path / f"old{i}.ckpt") == want
    capsys.readouterr()
    for key, value in (("local_conv_kernel", 3), ("local_conv_kernel", 4.0), ("huber_delta", 0.5), ("huber_delta", True)):
        _rewrite_manifest(s2, tmp_path / "other.ckpt", lambda m: m["model_config"].update({key: value}))
        assert forecast(tmp_path / "other.ckpt")[0] == 2
        assert repr(key) in capsys.readouterr().err

    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    (ckpt_dir / "h4.ckpt").write_bytes(Path(s2).read_bytes())
    _rewrite_manifest(s2, ckpt_dir / "delta.ckpt", lambda m: m["model_config"].update(huber_delta=2.0))
    assert main(["evaluate", "--model", str(ckpt_dir), "--data", data_path, "--horizons", "4"]) == 0
    err = capsys.readouterr().err
    assert "delta.ckpt" in err and "huber_delta" in err


def test_deeply_nested_manifest_is_corrupt(workdir, tmp_path, capsys):
    # a manifest nested past Python's recursion limit is a corrupt checkpoint
    # named by its file: forecast and evaluate exit 4, and a directory
    # evaluate skips it by name
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    (ckpt_dir / "h4.ckpt").write_bytes(Path(s2).read_bytes())
    manifest = b"[" * 100_000
    deep = ckpt_dir / "deep.ckpt"
    deep.write_bytes(MAGIC + len(manifest).to_bytes(8, "little") + manifest)
    out = tmp_path / "o.csv"
    capsys.readouterr()
    assert main(["forecast", "--model", str(deep), "--input", data_path, "--horizon", "4", "--out", str(out)]) == 4
    assert str(deep) in capsys.readouterr().err and not out.exists()
    assert main(["evaluate", "--model", str(deep), "--data", data_path, "--horizons", "4"]) == 4
    assert str(deep) in capsys.readouterr().err
    assert main(["evaluate", "--model", str(ckpt_dir), "--data", data_path, "--horizons", "4"]) == 0
    err = capsys.readouterr().err
    assert "skipping checkpoint deep.ckpt" in err and "h4.ckpt" not in err


def test_evaluate_directory_skips_unreadable_file(workdir, tmp_path, capsys, monkeypatch):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    for name in ("h4.ckpt", "locked.ckpt"):
        (ckpt_dir / name).write_bytes(Path(s2).read_bytes())
    load = cli.load_checkpoint

    def denied(path):
        # file modes do not stop root, so the denial is simulated
        if path.endswith("locked.ckpt"):
            raise PermissionError(13, "Permission denied", path)
        return load(path)

    monkeypatch.setattr(cli, "load_checkpoint", denied)
    capsys.readouterr()
    assert main(["evaluate", "--model", str(ckpt_dir), "--data", data_path, "--horizons", "4"]) == 0
    err = capsys.readouterr().err
    assert "locked.ckpt" in err and "Permission denied" in err and "h4.ckpt" not in err


def test_version1_checkpoint_refused(workdir, tmp_path, capsys):
    # version 1 weights were trained under the exact-ZOH input factor, so no
    # command runs them under today's scan
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    (ckpt_dir / "h4.ckpt").write_bytes(Path(s2).read_bytes())
    old = ckpt_dir / "h4-v1.ckpt"
    _rewrite_manifest(s2, old, lambda m: m.update(format_version=1))
    out = tmp_path / "o.csv"
    assert main(["forecast", "--model", str(old), "--input", data_path, "--horizon", "4", "--out", str(out)]) == 4
    assert not out.exists()
    assert main(["evaluate", "--model", str(old), "--data", data_path, "--horizons", "4"]) == 4
    capsys.readouterr()
    assert main(["evaluate", "--model", str(ckpt_dir), "--data", data_path, "--horizons", "4"]) == 0
    err = capsys.readouterr().err
    assert "skipping checkpoint h4-v1.ckpt" in err and "format_version 1" in err


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------


def test_finetune_xchannel_on_single_channel_exit2(workdir, tmp_path):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    mono = D.TimeSeriesDataset(name="m", values=D.load_csv(data_path, has_date_column=False).values[:, :1])
    mono_path = tmp_path / "mono.csv"
    D.write_csv(mono, str(mono_path))
    code = main(
        ["finetune", "--config", config_path, "--data", str(mono_path), "--init", s2, "--xchannel", "on", "--out", str(tmp_path / "f.ckpt")]
    )
    assert code == 2


def test_finetune_xchannel_on_ignores_sample_gate(workdir, tmp_path, capsys):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    raw = json.loads(Path(config_path).read_text())
    del raw["finetune"]["min_samples_for_xchannel"]  # the default gate is far above this data's samples
    cfg = tmp_path / "ft.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "ft.ckpt"
    code = main(["finetune", "--config", str(cfg), "--data", data_path, "--init", s2, "--xchannel", "on", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert "enabled: forced on" in capsys.readouterr().err
    tuned = load_checkpoint(str(out))
    assert tuned.config().xchannel_enabled
    assert any(name.startswith("xchannel.") for name in tuned.tensors)


def test_finetune_auto_gate_logs_reason(workdir, tmp_path, capsys):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    raw = json.loads(Path(config_path).read_text())
    raw["finetune"]["min_samples_for_xchannel"] = 10_000_000
    cfg = tmp_path / "ft.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "ft.ckpt"
    code = main(["finetune", "--config", str(cfg), "--data", data_path, "--init", s2, "--xchannel", "auto", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "disabled" in err and "insufficient samples" in err


def test_finetune_frozen_hashes_match(workdir, tmp_path):
    wd, data_path, config_path = workdir
    _, s2 = _pretrain_both(wd, data_path, config_path)
    out = tmp_path / "ft.ckpt"
    code = main(["finetune", "--config", config_path, "--data", data_path, "--init", s2, "--xchannel", "on", "--out", str(out)])
    assert code == 0
    foundation = load_checkpoint(s2)
    tuned = load_checkpoint(str(out))
    model = model_from_checkpoint(tuned)
    frozen = {p.name for p in model.frozen_block_parameters()}
    for name in frozen:
        assert tuned.tensors[name].tobytes() == foundation.tensors[name].tobytes(), name


# ---------------------------------------------------------------------------
# bench-scan
# ---------------------------------------------------------------------------


def test_bench_scan_both_modes_and_degenerate_length(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench-scan", "--len-list", "1,64", "--d-inner", "4", "--n-state", "2", "--mode", "both", "--reps", "5", "--out", str(out)]
    )
    assert code == 0
    rows = _csv_rows(out)
    assert {r["mode"] for r in rows} == {"seq", "par"}
    assert {r["len"] for r in rows} == {"1", "64"}
    for r in rows:
        assert float(r["max_abs_diff"]) < 1e-5
        assert float(r["wall_ms"]) >= 0
        assert float(r["cpu_ms"]) >= 0
        assert float(r["throughput"]) > 0


def test_bench_scan_out_directory_exit3(tmp_path, capsys):
    code = main(["bench-scan", "--len-list", "4", "--d-inner", "2", "--n-state", "2", "--reps", "5", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3 and str(tmp_path) in err and "Traceback" not in err


def _tiny_checkpoint(tmp_path) -> str:
    cfg = M.ModelConfig(horizon=4, n_channels=2, lookback=16, patch_len=4, d_model=8, n_layers=1, d_state=2, head_compress_dim=4)
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(checkpoint_from_model(M.build_model(cfg, seed=0, dtype=np.float64), "stage2"), str(path))
    return str(path)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["bench-scan", "forecast", "evaluate", "evaluate-window-errors", "pretrain-log"])
@pytest.mark.parametrize("unwritable", ["directory", "missing-parent"])
def test_unwritable_output_exits3_before_any_work(workdir, tmp_path, monkeypatch, capsys, command, unwritable):
    _, data_path, config_path = workdir
    model = _tiny_checkpoint(tmp_path)
    report = tmp_path / "report.csv"
    report.write_bytes(b"kept\n")
    bad = str(tmp_path) if unwritable == "directory" else str(tmp_path / "missing" / "out.csv")
    ran = []
    monkeypatch.setattr(cli, "bench_scan", lambda *args: ran.append("bench_scan"))
    monkeypatch.setattr(M, "forecast", lambda x, model: ran.append("forecast"))
    monkeypatch.setattr(TR, "run_stage1", lambda *args, **kwargs: ran.append("run_stage1"))
    argv = {
        "bench-scan": ["bench-scan", "--len-list", "4", "--reps", "5", "--out", bad],
        "forecast": ["forecast", "--model", model, "--input", data_path, "--horizon", "4", "--out", bad],
        "evaluate": ["evaluate", "--model", model, "--data", data_path, "--horizons", "4", "--out", bad],
        "evaluate-window-errors": [
            "evaluate", "--model", model, "--data", data_path, "--horizons", "4", "--out", str(report), "--window-errors", bad
        ],
        "pretrain-log": [
            "pretrain", "--stage", "1", "--config", config_path, "--data", data_path, "--out", str(report), "--log", bad
        ],
    }[command]
    before = _tree(tmp_path)
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3 and bad in err and "Traceback" not in err
    assert ran == []
    assert _tree(tmp_path) == before  # nothing created, and report.csv not truncated
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["pretrain", "pretrain-dot-slash", "pretrain-symlink", "finetune", "evaluate"])
def test_two_output_flags_naming_one_file_exit2_before_any_work(workdir, tmp_path, monkeypatch, capsys, command):
    _, data_path, config_path = workdir
    model = _tiny_checkpoint(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to("out.ckpt")  # dangling until out.ckpt is written
    ran = []
    monkeypatch.setattr(M, "forecast", lambda x, model: ran.append("forecast"))
    monkeypatch.setattr(TR, "run_stage1", lambda *args, **kwargs: ran.append("run_stage1"))
    monkeypatch.setattr(TR, "run_finetune", lambda *args, **kwargs: ran.append("run_finetune"))
    pretrain = ["pretrain", "--stage", "1", "--config", config_path, "--data", data_path, "--out", "out.ckpt", "--log"]
    argv, second = {
        "pretrain": (pretrain + ["out.ckpt"], "--log"),
        "pretrain-dot-slash": (pretrain + ["./out.ckpt"], "--log"),
        "pretrain-symlink": (pretrain + ["link"], "--log"),
        "finetune": (["finetune", "--config", config_path, "--data", data_path, "--init", model, "--out", "out.ckpt", "--log", "out.ckpt"],
                     "--log"),
        "evaluate": (["evaluate", "--model", model, "--data", data_path, "--horizons", "4", "--out", "r.csv", "--window-errors", "r.csv"],
                     "--window-errors"),
    }[command]
    before = _tree(tmp_path)
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and "--out" in err and second in err and "Traceback" not in err, err
    assert ran == []
    assert _tree(tmp_path) == before


def test_evaluate_directory_skips_a_stage1_checkpoint(workdir, tmp_path, capsys):
    # one pipeline's two checkpoints: stage 1's has no head and cannot forecast
    wd, data_path, config_path = workdir
    s1, s2 = _pretrain_both(wd, data_path, config_path)
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    for path in (s1, s2):
        (ckpt_dir / Path(path).name).write_bytes(Path(path).read_bytes())
    argv = ["evaluate", "--data", data_path, "--horizons", "4", "--out"]
    capsys.readouterr()
    assert main(argv + [str(tmp_path / "dir.csv"), "--model", str(ckpt_dir)]) == 0
    err = capsys.readouterr().err
    assert "skipping checkpoint s1.ckpt" in err and "stage1" in err and "s2.ckpt" not in err
    assert main(argv + [str(tmp_path / "file.csv"), "--model", s2]) == 0
    assert (tmp_path / "dir.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()


@pytest.mark.parametrize("command", ["forecast", "evaluate", "finetune"])
def test_stage1_checkpoint_file_exits4_naming_path_and_stage(workdir, tmp_path, capsys, command):
    wd, data_path, config_path = workdir
    s1, _ = _pretrain_both(wd, data_path, config_path)
    argv = {
        "forecast": ["forecast", "--model", s1, "--input", data_path, "--horizon", "4", "--out", str(tmp_path / "pred.csv")],
        "evaluate": ["evaluate", "--model", s1, "--data", data_path, "--horizons", "4"],
        "finetune": ["finetune", "--config", config_path, "--data", data_path, "--init", s1, "--out", str(tmp_path / "pred.csv")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert s1 in err and "stage1" in err and "missing" not in err and "Traceback" not in err
    assert not (tmp_path / "pred.csv").exists()


def test_forecast_and_evaluate_import_no_scipy(workdir, tmp_path):
    """The runtime needs numpy only: a fresh interpreter that forecasts and
    evaluates has loaded no scipy module."""
    _, data_path, _ = workdir
    model = _tiny_checkpoint(tmp_path)
    script = (
        "import sys\n"
        "from tsmamba import cli\n"
        f"assert cli.main(['forecast', '--model', {model!r}, '--input', {data_path!r}, '--horizon', '4',"
        f" '--out', {str(tmp_path / 'fc.csv')!r}]) == 0\n"
        f"assert cli.main(['evaluate', '--model', {model!r}, '--data', {data_path!r}, '--horizons', '4',"
        f" '--out', {str(tmp_path / 'report.csv')!r}]) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(tsmamba.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_bench_scan_rejects_low_reps():
    assert main(["bench-scan", "--len-list", "8", "--reps", "2"]) == 2


def test_bench_scan_rejects_non_integer_lengths():
    assert main(["bench-scan", "--len-list", "8,a"]) == 2


def test_unknown_command_exit2():
    assert main(["do-nothing"]) == 2


def test_evaluate_writes_one_avg_row_per_space(tmp_path):
    # the standardized rows and the --raw-metrics rows are averaged apart:
    # each avg row is the mean of its own label's rows and sums their windows
    data = _series_csv(tmp_path / "series.csv", 3, 600)
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    for horizon in (8, 12):
        _drawn_checkpoint(ckpt_dir / f"h{horizon}.ckpt", horizon, np.float64, seed=horizon)
    report = tmp_path / "report.csv"
    argv = ["evaluate", "--model", str(ckpt_dir), "--data", data, "--horizons", "8,12", "--baseline", "repeat_last", "--raw-metrics"]
    assert main(argv + ["--out", str(report)]) == 0
    rows = _csv_rows(report)
    labels = [data, f"{data}:raw"]
    assert [r["dataset"] for r in rows] == [label for label in labels for _ in range(3)]
    for label in labels:
        *scored, avg = [r for r in rows if r["dataset"] == label]
        assert [r["horizon"] for r in scored] == ["8", "12"] and avg["horizon"] == "avg"
        for key in ("mse", "mae"):
            assert abs(float(avg[key]) - np.mean([float(r[key]) for r in scored])) <= 1e-6
        assert int(avg["n_windows"]) == sum(int(r["n_windows"]) for r in scored)
    # without --raw-metrics the report is the standardized rows and their avg row
    plain = tmp_path / "plain.csv"
    assert main(argv[:-1] + ["--out", str(plain)]) == 0
    assert plain.read_text().splitlines() == report.read_text().splitlines()[:4]
