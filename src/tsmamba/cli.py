"""Command-line surface: pretraining, fine-tuning, forecasting, evaluation,
and scan benchmarking.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 checkpoint
mismatch, 5 non-finite training loss. Diagnostics go to stderr; data goes to
files or stdout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import data as D
from . import model as M
from . import ssm
from . import tensor as T
from . import train as TR
from .checkpoint import Checkpoint, load_checkpoint, model_from_checkpoint, save_checkpoint
from .errors import (
    CheckpointMismatch,
    CorruptCheckpoint,
    DataError,
    InvalidConfig,
    NonFiniteLoss,
    PatchLengthMismatch,
    ShapeMismatch,
    TSMambaError,
)
from .tensor import Tensor

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_NON_FINITE = 5

_CONFIG_ERRORS = (InvalidConfig, PatchLengthMismatch)
_DATA_ERRORS = (DataError,)
_CKPT_ERRORS = (CheckpointMismatch, CorruptCheckpoint, ShapeMismatch)


def _err(msg: str) -> None:
    print(f"tsmamba: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Run configuration (strict JSON)
# ---------------------------------------------------------------------------

# each section's keys, with their JSON kinds and defaults
_STAGE1_KEYS = {
    "epochs": (int, 2),
    "batch_size": (int, 64),
    "lr": (float, 1e-3),
    "weight_decay": (float, 0.0),
    "grad_clip_norm": (float, 1.0),
}
_STAGE2_KEYS = {
    "epochs": (int, 2),
    "batch_size": (int, 64),
    "lr_new": (float, 1e-3),
    "lr_backbone": (float, 1e-5),
    "weight_decay": (float, 0.0),
    "grad_clip_norm": (float, 1.0),
}
_FINETUNE_KEYS = {
    "epochs": (int, 1),
    "batch_size": (int, 32),
    "lr": (float, 5e-4),
    "weight_decay": (float, 0.0),
    "grad_clip_norm": (float, 1.0),
    "min_samples_for_xchannel": (int, 10_000),
}
_SPLIT_KEYS = {f.name: (float, f.default) for f in dataclasses.fields(D.SplitSpec)}
_TOP_KEYS = {"seed", "precision", "window_stride", "model", "split", "stage1", "stage2", "finetune"}


def _check_section(section, keys: dict, name: str) -> dict:
    """The values of a config section, each of its key's JSON kind, with
    defaults filled in; rejects unknown keys."""
    if not isinstance(section, dict):
        raise InvalidConfig(f"config section {name!r} must be an object")
    unknown = set(section) - set(keys)
    if unknown:
        raise InvalidConfig(f"unknown {name} keys: {sorted(unknown)}")
    return {k: M.json_typed(name, k, section.get(k, default), kind) for k, (kind, default) in keys.items()}


class RunConfig:
    """Parsed training configuration; rejects unknown keys and values of the
    wrong JSON type everywhere."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise InvalidConfig("run config must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
        self.seed = M.json_typed("config", "seed", raw.get("seed", 0), int)
        precision = raw.get("precision", "float32")
        if precision not in ("float32", "float64"):
            raise InvalidConfig(f"precision must be float32 or float64, got {precision!r}")
        self.dtype = np.float32 if precision == "float32" else np.float64
        self.window_stride = M.json_typed("config", "window_stride", raw.get("window_stride", 1), int)
        if self.window_stride < 1:
            raise InvalidConfig("window_stride must be >= 1")

        model_section = raw.get("model")
        if not isinstance(model_section, dict):
            raise InvalidConfig("config requires a 'model' object")
        self.model_section = M.ModelConfig.typed_dict(model_section)

        self.split = D.SplitSpec(**_check_section(raw.get("split", {}), _SPLIT_KEYS, "split"))
        self._stage1 = _check_section(raw.get("stage1", {}), _STAGE1_KEYS, "stage1")
        self._stage2 = _check_section(raw.get("stage2", {}), _STAGE2_KEYS, "stage2")
        self._finetune = _check_section(raw.get("finetune", {}), _FINETUNE_KEYS, "finetune")

    def model_config(self, n_channels: int) -> M.ModelConfig:
        section = dict(self.model_section)
        section.setdefault("n_channels", n_channels)
        return M.ModelConfig.from_dict(section)

    def stage1_config(self) -> TR.StageConfig:
        return TR.stage1_config(**self._stage1)

    def stage2_config(self) -> TR.StageConfig:
        return TR.stage2_config(**self._stage2)

    def finetune_config(self, enable_xchannel: bool) -> TR.StageConfig:
        return TR.finetune_config(**self._finetune, enable_xchannel=enable_xchannel)


def load_run_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise InvalidConfig(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config is not valid JSON: {exc}") from exc
    return RunConfig(raw)


# ---------------------------------------------------------------------------
# Shared data plumbing
# ---------------------------------------------------------------------------


def _load_dataset(path: str, ffill: bool = False) -> D.TimeSeriesDataset:
    if not os.path.exists(path):
        raise DataError(f"data file not found: {path}")
    return D.load_csv(path, ffill=ffill)


def _int_list(text: str, flag: str) -> list[int]:
    """Comma-separated integers of a CLI flag; empty entries are skipped."""
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise InvalidConfig(f"{flag} must be comma-separated integers, got {text!r}") from None


def _standardized_splits(
    ds: D.TimeSeriesDataset,
    rc_split: D.SplitSpec,
    lookback: int,
    horizon: int,
    stride: int,
    boundaries: tuple[int, int] | None = None,
):
    n1, _ = D.split_boundaries(ds.n_total, rc_split, boundaries)
    stats = D.compute_train_stats(ds, n1)
    return D.split_windows(D.standardize(ds, stats), rc_split, lookback, horizon, stride, boundaries), stats


def _pool_channel_windows(datasets, rc: RunConfig, lookback: int, horizon: int):
    xs, ys = [], []
    for ds in datasets:
        (train, _, _), _ = _standardized_splits(ds, rc.split, lookback, horizon, rc.window_stride)
        if train:
            x, y = D.flatten_channel_windows(train)
            xs.append(x)
            ys.append(y)
    if not xs:
        raise DataError("no training windows across the supplied datasets")
    x = np.concatenate(xs).astype(rc.dtype)
    y = np.concatenate(ys).astype(rc.dtype)
    return x, y


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------


def _run_pretrain(args) -> int:
    rc = load_run_config(args.config)
    if args.stage == 2 and not args.init:
        raise InvalidConfig("--init is required for stage 2 (stage-1 checkpoint)")
    datasets = [_load_dataset(p, args.ffill) for p in args.data]
    n_channels = datasets[0].n_channels
    model_cfg = rc.model_config(n_channels)
    windows, targets = _pool_channel_windows(datasets, rc, model_cfg.lookback, model_cfg.horizon)

    if args.stage == 1:
        model = M.build_model(model_cfg, seed=rc.seed, dtype=rc.dtype)
        if args.init:
            init_ckpt = load_checkpoint(args.init)
            from .checkpoint import load_into_model

            loaded = load_into_model(model, init_ckpt)
            _err(f"imported {len(loaded)} tensors from {args.init}")
        result = TR.run_stage1(windows, rc.stage1_config(), model, seed=rc.seed, log_path=args.log)
    else:
        file_ckpt = load_checkpoint(args.init)
        stage1_ckpt = Checkpoint(
            format_version=file_ckpt.format_version,
            model_config=model_cfg.to_dict(),
            stage=file_ckpt.stage,
            tensors=file_ckpt.tensors,
        )
        result = TR.run_stage2(windows, targets, rc.stage2_config(), stage1_ckpt, seed=rc.seed, log_path=args.log)

    save_checkpoint(result.checkpoint, args.out)
    print(f"stage {args.stage} checkpoint written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------


def _run_finetune(args) -> int:
    rc = load_run_config(args.config)
    ds = _load_dataset(args.data, args.ffill)
    foundation = load_checkpoint(args.init)
    if foundation.stage not in ("stage2", "finetune"):
        raise CheckpointMismatch(f"--init must be a foundation checkpoint, got stage {foundation.stage!r}")
    model_cfg = foundation.config()
    (train, _, _), _ = _standardized_splits(ds, rc.split, model_cfg.lookback, model_cfg.horizon, rc.window_stride)
    if not train:
        raise DataError("no fine-tuning windows in the train split")
    x = D.stack_inputs(train).astype(rc.dtype)
    y = D.stack_targets(train).astype(rc.dtype)
    n, d = x.shape[0], x.shape[1]

    if args.xchannel == "auto":
        enable, reason = TR.xchannel_gate(rc.finetune_config(enable_xchannel=False), n, d)
    else:
        enable, reason = args.xchannel == "on", f"forced {args.xchannel}"
    _err(f"cross-channel attention {'enabled' if enable else 'disabled'}: {reason}")

    cfg = rc.finetune_config(enable_xchannel=enable)
    result = TR.run_finetune(x, y, cfg, foundation, seed=rc.seed, log_path=args.log)
    save_checkpoint(result.checkpoint, args.out)
    print(f"fine-tuned checkpoint written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


def _run_forecast(args) -> int:
    ckpt = load_checkpoint(args.model)
    model = model_from_checkpoint(ckpt)
    cfg = model.config
    if args.horizon != cfg.horizon:
        raise CheckpointMismatch(f"checkpoint was trained for horizon {cfg.horizon}, requested {args.horizon}")
    ds = _load_dataset(args.input, args.ffill)
    if ds.n_total < cfg.lookback:
        raise DataError(f"input has {ds.n_total} rows, model needs at least {cfg.lookback}")
    window = ds.values[-cfg.lookback :].T.astype(model.embedding.weight.value.dtype)
    with T.no_grad():
        pred = M.forecast(Tensor(window), model).array
    out_path = args.out
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.channel_labels())
        for t in range(cfg.horizon):
            writer.writerow([f"{v:.9g}" for v in pred[:, t]])
    print(f"forecast ({pred.shape[0]}x{cfg.horizon}) written to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _checkpoints_for_horizons(path: str, horizons: list[int]) -> dict[int, Checkpoint]:
    """One checkpoint per horizon from a checkpoint file or a directory.

    In a directory, files that are unreadable or whose config is rejected
    are named on stderr and skipped; a horizon matched by no file or by
    several is a CheckpointMismatch.
    """
    out: dict[int, Checkpoint] = {}
    if os.path.isdir(path):
        candidates = []
        for name in sorted(os.listdir(path)):
            full = os.path.join(path, name)
            if not os.path.isfile(full):
                continue
            try:
                ckpt = load_checkpoint(full)
                candidates.append((name, ckpt, ckpt.config().horizon))
            except (CorruptCheckpoint, *_CONFIG_ERRORS) as exc:
                _err(f"skipping checkpoint {name}: {exc}")
        for horizon in horizons:
            match = [(name, c) for name, c, trained in candidates if trained == horizon]
            if not match:
                raise CheckpointMismatch(f"no checkpoint for horizon {horizon} in {path}")
            if len(match) > 1:
                names = ", ".join(name for name, _ in match)
                raise CheckpointMismatch(f"several checkpoints for horizon {horizon} in {path}: {names}")
            out[horizon] = match[0][1]
    else:
        ckpt = load_checkpoint(path)
        trained = ckpt.config().horizon
        for horizon in horizons:
            if horizon != trained:
                raise CheckpointMismatch(f"checkpoint horizon {trained} cannot evaluate horizon {horizon}")
            out[horizon] = ckpt
    return out


# Bytes of per-step scan state one group of windows may hold. The scan keeps
# several [rows, d_state, d_inner] buffers live per step; groups whose state
# stays this small keep them in a core's L2 cache and keep every op's
# temporaries small enough to reuse freed memory instead of faulting in new
# pages. Chosen by a sweep of 64 KiB to 1 MiB at d_model 32 and 128.
BUDGET = 256 * 1024


def _group_windows(cfg: M.ModelConfig, channels: int, itemsize: int) -> int:
    """Windows per forecast call: as many as keep one step's scan state
    [windows x channels, d_state, d_inner] within ``BUDGET``, and at least one."""
    return max(1, BUDGET // (channels * cfg.d_inner * cfg.d_state * itemsize))


def _batched_forecast(model: M.Model, inputs: np.ndarray) -> np.ndarray:
    """Raw-space forecasts [n, D, horizon] of windows [n, D, L], run in groups
    of whole windows sized by ``_group_windows``.

    Each channel row's arithmetic is the same in any group, so the result
    does not depend on the group size.
    """
    dtype = model.embedding.weight.value.dtype
    group = _group_windows(model.config, inputs.shape[1], dtype.itemsize)
    with T.no_grad():
        chunks = [
            M.forecast(Tensor(inputs[start : start + group].astype(dtype)), model).array
            for start in range(0, inputs.shape[0], group)
        ]
    return np.concatenate(chunks).astype(np.float64)


def _run_evaluate(args) -> int:
    horizons = _int_list(args.horizons, "--horizons")
    if not horizons:
        raise InvalidConfig("--horizons must name at least one horizon")
    ckpts = _checkpoints_for_horizons(args.model, horizons)
    ds = _load_dataset(args.data, args.ffill)
    spec = D.SplitSpec(train_frac=args.train_frac, val_frac=args.val_frac, test_frac=args.test_frac)
    if (args.train_end is None) != (args.val_end is None):
        raise InvalidConfig("--train-end and --val-end must be given together")
    boundaries = (args.train_end, args.val_end) if args.train_end is not None else None

    rows = []
    raw_rows = []
    window_rows = []
    for horizon in horizons:
        model = model_from_checkpoint(ckpts[horizon])
        cfg = model.config
        (train, val, test), stats = _standardized_splits(ds, spec, cfg.lookback, horizon, args.stride, boundaries)
        windows = {"train": train, "val": val, "test": test}[args.split]
        if not windows:
            raise DataError(f"{args.split} split has no windows for horizon {horizon}")
        inputs = D.stack_inputs(windows)
        targets = D.stack_targets(windows)
        if args.baseline == "repeat_last":
            preds = np.repeat(inputs[:, :, -1:], horizon, axis=2)
        elif args.baseline == "oracle":
            preds = targets.copy()
        else:
            preds = _batched_forecast(model, inputs)
        mse = D.metric_mse(preds, targets)
        mae = D.metric_mae(preds, targets)
        rows.append({"dataset": ds.name, "horizon": horizon, "mse": mse, "mae": mae, "n_windows": len(windows)})
        if args.raw_metrics:
            scale = stats.std[None, :, None]
            shift = stats.mean[None, :, None]
            raw_rows.append(
                {
                    "dataset": f"{ds.name}:raw",
                    "horizon": horizon,
                    "mse": D.metric_mse(preds * scale + shift, targets * scale + shift),
                    "mae": D.metric_mae(preds * scale + shift, targets * scale + shift),
                    "n_windows": len(windows),
                }
            )
        if args.window_errors:
            window_rows += [
                (horizon, w.origin_index, D.metric_mse(preds[i], targets[i]), D.metric_mae(preds[i], targets[i]))
                for i, w in enumerate(windows)
            ]

    if args.window_errors:
        D.write_window_errors_csv(args.window_errors, ds.name, window_rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            D.write_report_csv(fh, rows + raw_rows)
        print(f"report written to {args.out}")
    else:
        D.write_report_csv(sys.stdout, rows + raw_rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench-scan
# ---------------------------------------------------------------------------


def bench_scan(lengths: list[int], d_inner: int, n_state: int, mode: str, reps: int, seed: int = 0):
    """Median wall and process CPU time per kernel and length; both kernels
    share inputs. CPU time leaves out other processes' share of a busy host.

    Lengths are interleaved across repetition rounds so machine drift spreads
    evenly instead of biasing whichever length ran first.
    """
    rng = np.random.default_rng(seed)
    params = ssm.init_ssm_params(rng, d_inner, n_state, np.float32, "bench")
    kernels = {
        "seq": ssm.selective_scan_sequential,
        "par": ssm.selective_scan_parallel,
    }
    modes = ("seq", "par") if mode == "both" else (mode,)
    inputs = {length: Tensor(rng.standard_normal((d_inner, length)).astype(np.float32)) for length in lengths}
    times: dict[tuple[str, int], list[float]] = {(m, length): [] for m in modes for length in lengths}
    cpu_times: dict[tuple[str, int], list[float]] = {key: [] for key in times}
    outputs: dict[tuple[str, int], np.ndarray] = {}
    with T.no_grad():
        for m in modes:  # warmup pass over every length
            for length in lengths:
                outputs[(m, length)] = kernels[m](inputs[length], params).array
        for _ in range(reps):
            for length in lengths:
                for m in modes:
                    t0, c0 = time.perf_counter(), time.process_time()
                    outputs[(m, length)] = kernels[m](inputs[length], params).array
                    cpu_times[(m, length)].append(time.process_time() - c0)
                    times[(m, length)].append(time.perf_counter() - t0)
    rows = []
    for m in modes:
        for length in lengths:
            wall = float(np.median(times[(m, length)]))
            cpu = float(np.median(cpu_times[(m, length)]))
            row = {"mode": m, "len": length, "wall_ms": wall * 1e3, "cpu_ms": cpu * 1e3, "throughput": length * d_inner / wall}
            if mode == "both":
                row["max_abs_diff"] = float(np.max(np.abs(outputs[("seq", length)] - outputs[("par", length)])))
            rows.append(row)
    return rows


def _run_bench_scan(args) -> int:
    lengths = _int_list(args.len_list, "--len-list")
    if not lengths or min(lengths) < 1:
        raise InvalidConfig("--len-list needs positive lengths")
    if args.reps < 5:
        raise InvalidConfig("--reps must be >= 5 for a stable median")
    rows = bench_scan(lengths, args.d_inner, args.n_state, args.mode, args.reps, args.seed)
    header = ["mode", "len", "wall_ms", "cpu_ms", "throughput"]
    if args.mode == "both":
        header.append("max_abs_diff")
    sink = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerow(header)
        for r in rows:
            line = [r["mode"], r["len"], f"{r['wall_ms']:.3f}", f"{r['cpu_ms']:.3f}", f"{r['throughput']:.1f}"]
            if args.mode == "both":
                line.append(f"{r['max_abs_diff']:.3e}")
            writer.writerow(line)
    finally:
        if args.out:
            sink.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsmamba", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run transfer-learning stage 1 or 2")
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--init", default=None, help="stage 1: optional weight import; stage 2: stage-1 checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="training log CSV path")
    p.add_argument("--ffill", action="store_true", help="forward-fill NaNs instead of rejecting")
    p.set_defaults(handler=_run_pretrain)

    p = sub.add_parser("finetune", help="adapt a foundation checkpoint to one dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--xchannel", choices=("auto", "on", "off"), default="auto")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--ffill", action="store_true")
    p.set_defaults(handler=_run_finetune)

    p = sub.add_parser("forecast", help="zero-shot forecast from a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ffill", action="store_true")
    p.set_defaults(handler=_run_forecast)

    p = sub.add_parser("evaluate", help="MSE/MAE report over a chronological split")
    p.add_argument("--model", required=True, help="checkpoint file or directory of per-horizon checkpoints")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--horizons", default="96,192,336,720")
    p.add_argument("--out", default=None)
    p.add_argument("--window-errors", default=None)
    p.add_argument("--baseline", choices=("none", "repeat_last", "oracle"), default="none")
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--val-frac", type=float, default=0.1)
    p.add_argument("--test-frac", type=float, default=0.2)
    p.add_argument("--train-end", type=int, default=None, help="explicit train/val boundary row (overrides fractions)")
    p.add_argument("--val-end", type=int, default=None, help="explicit val/test boundary row (overrides fractions)")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--raw-metrics", action="store_true")
    p.add_argument("--ffill", action="store_true")
    p.set_defaults(handler=_run_evaluate)

    p = sub.add_parser("bench-scan", help="wall-time scaling of the scan kernels")
    p.add_argument("--len-list", default="1024,2048,4096")
    p.add_argument("--d-inner", type=int, default=64)
    p.add_argument("--n-state", type=int, default=16)
    p.add_argument("--mode", choices=("seq", "par", "both"), default="both")
    p.add_argument("--reps", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_run_bench_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except _CONFIG_ERRORS as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        _err(str(exc))
        return EXIT_DATA
    except _CKPT_ERRORS as exc:
        _err(str(exc))
        return EXIT_CHECKPOINT
    except NonFiniteLoss as exc:
        _err(str(exc))
        return EXIT_NON_FINITE
    except FileNotFoundError as exc:
        _err(str(exc))
        return EXIT_DATA
    except TSMambaError as exc:
        _err(str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
