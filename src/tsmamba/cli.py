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
import errno
import io
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
from .checkpoint import Checkpoint, load_checkpoint, load_into_model, model_from_checkpoint, save_checkpoint
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


# the flags that name a file a command writes when its work is done
_OUTPUT_FLAGS = ("out", "log", "window_errors")


def _check_output_path(path: str | None) -> None:
    """Refuse an output file that could not be created: a directory, or a path
    whose parent directory does not exist. The OSError names the path."""
    if path is None:
        return
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


# ---------------------------------------------------------------------------
# Run configuration (strict JSON)
# ---------------------------------------------------------------------------

# the sections read by ``model.typed_section``, each into its dataclass
_SECTION_TYPES = {"split": D.SplitSpec, "stage1": TR.Stage1Config, "stage2": TR.Stage2Config, "finetune": TR.FinetuneConfig}
_TOP_KEYS = {"seed", "precision", "window_stride", "model", *_SECTION_TYPES}


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
        if self.seed < 0:
            raise InvalidConfig(f"config key 'seed' must be >= 0, got {self.seed}")
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

        # every section is built, and so checked, before any command does work
        self.split, self.stage1, self.stage2, self.finetune = (
            cls(**M.typed_section(cls, name, raw.get(name, {}))) for name, cls in _SECTION_TYPES.items()
        )

    def model_config(self, n_channels: int) -> M.ModelConfig:
        section = dict(self.model_section)
        section.setdefault("n_channels", n_channels)
        return M.ModelConfig.from_dict(section)


def load_run_config(path: str) -> RunConfig:
    """The run config at ``path``; a file that is not UTF-8 JSON, or JSON
    nested past Python's recursion limit, is an InvalidConfig naming it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        raw = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InvalidConfig(f"{path}: config is not valid JSON: {exc}") from exc
    return RunConfig(raw)


# ---------------------------------------------------------------------------
# Shared data plumbing
# ---------------------------------------------------------------------------


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


def _pool_channel_windows(datasets, rc: RunConfig, lookback: int, horizon: int) -> tuple[D.ChannelRows, D.ChannelRows]:
    """Input and target channel rows of every dataset's train split, pooled
    in dataset order and gathered per batch."""
    splits = [_standardized_splits(ds, rc.split, lookback, horizon, rc.window_stride)[0][0] for ds in datasets]
    if not any(splits):
        raise DataError("no training windows across the supplied datasets")
    return D.ChannelRows(splits, "inputs"), D.ChannelRows(splits, "targets")


def _first_not_finite(arrays: np.ndarray) -> int | None:
    """The index of the first of ``arrays`` (along axis 0) holding a value
    that is not finite, or None."""
    finite = np.isfinite(arrays).reshape(len(arrays), -1).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def _check_precision(ckpt: Checkpoint, path: str, rc: RunConfig) -> None:
    """Stage 2 and fine-tuning train in the dtype of the checkpoint they
    start from; a config asking for another precision is refused."""
    dtype = ckpt.dtype(path)
    if dtype != rc.dtype:
        raise CheckpointMismatch(f"{path} holds {dtype} tensors, but the config's precision is {np.dtype(rc.dtype)}")


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------


def _run_pretrain(args) -> int:
    rc = load_run_config(args.config)
    if args.stage == 2 and not args.init:
        raise InvalidConfig("--init is required for stage 2 (stage-1 checkpoint)")
    datasets = [D.load_csv(p, ffill=args.ffill) for p in args.data]
    n_channels = datasets[0].n_channels
    model_cfg = rc.model_config(n_channels)
    windows, targets = _pool_channel_windows(datasets, rc, model_cfg.lookback, model_cfg.horizon)

    if args.stage == 1:
        model = M.build_model(model_cfg, seed=rc.seed, dtype=rc.dtype)
        if args.init:
            init_ckpt = load_checkpoint(args.init)
            loaded = load_into_model(model, init_ckpt)
            _err(f"imported {len(loaded)} tensors from {args.init}")
        result = TR.run_stage1(windows, rc.stage1, model, seed=rc.seed, log_path=args.log)
    else:
        file_ckpt = load_checkpoint(args.init)
        _check_precision(file_ckpt, args.init, rc)
        stage1_ckpt = Checkpoint(
            model_config=model_cfg.to_dict(),
            stage=file_ckpt.stage,
            tensors=file_ckpt.tensors,
        )
        result = TR.run_stage2(windows, targets, rc.stage2, stage1_ckpt, seed=rc.seed, log_path=args.log)

    save_checkpoint(result.checkpoint, args.out)
    print(f"stage {args.stage} checkpoint written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------


def _run_finetune(args) -> int:
    rc = load_run_config(args.config)
    ds = D.load_csv(args.data, ffill=args.ffill)
    foundation = load_checkpoint(args.init)
    if foundation.stage not in ("stage2", "finetune"):
        raise CheckpointMismatch(f"--init must be a foundation checkpoint, got stage {foundation.stage!r}")
    model_cfg = foundation.config()
    (train, _, _), _ = _standardized_splits(ds, rc.split, model_cfg.lookback, model_cfg.horizon, rc.window_stride)
    if not train:
        raise DataError("no fine-tuning windows in the train split")
    _check_precision(foundation, args.init, rc)
    x, y = train.inputs, train.targets
    n, d = x.shape[0], x.shape[1]

    if args.xchannel == "auto":
        enable, reason = TR.xchannel_gate(rc.finetune, n, d)
    else:
        enable, reason = args.xchannel == "on", f"forced {args.xchannel}"
    _err(f"cross-channel attention {'enabled' if enable else 'disabled'}: {reason}")

    cfg = dataclasses.replace(rc.finetune, enable_xchannel=enable)
    result = TR.run_finetune(x, y, cfg, foundation, seed=rc.seed, log_path=args.log)
    save_checkpoint(result.checkpoint, args.out)
    print(f"fine-tuned checkpoint written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


def _run_forecast(args) -> int:
    if args.horizon < 1:
        raise InvalidConfig(f"--horizon must be >= 1, got {args.horizon}")
    ckpt = load_checkpoint(args.model)
    model = model_from_checkpoint(ckpt)
    cfg = model.config
    if args.horizon != cfg.horizon:
        raise CheckpointMismatch(f"checkpoint was trained for horizon {cfg.horizon}, requested {args.horizon}")
    ds = D.load_csv(args.input, ffill=args.ffill)
    if ds.n_total < cfg.lookback:
        raise DataError(f"{ds.name}: input has {ds.n_total} rows, model needs at least {cfg.lookback}")
    # the last window, at origin n_total
    pred = _batched_forecast(model, D.Windows.over(ds.values, cfg.lookback, 0)[-1:], ds.name)[0]
    # csv.writer's bytes, in one write: it quotes the header as it needs, and
    # no number formatted with .9g needs quoting
    header = io.StringIO()
    csv.writer(header).writerow(ds.channel_labels())
    body = "".join(",".join(f"{v:.9g}" for v in row) + "\r\n" for row in pred.T.tolist())
    out_path = args.out
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header.getvalue() + body)
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
            except (OSError, CorruptCheckpoint, *_CONFIG_ERRORS) as exc:
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


def _group_windows(cfg: M.ModelConfig, channels: int, itemsize: int) -> int:
    """Windows per forecast call: the scan's rows per group
    (``ssm.rows_per_group``) shared among the channels, and at least one, so
    a call's scans step all their rows as one group."""
    return max(1, ssm.rows_per_group(cfg.d_state, cfg.d_inner, itemsize) // channels)


def _batched_forecast(model: M.Model, windows: D.Windows, name: str) -> np.ndarray:
    """Raw-space forecasts [n, D, horizon], in float64, of the inputs of
    ``windows``, gathered as one C-ordered array in the model's dtype. This
    is the one place where ``forecast`` and ``evaluate`` run the model.

    A cross-channel model given another channel count, a window that is not
    finite in the model's dtype and a forecast that is not finite are
    refused, each naming ``name``; the last two name the window's origin.
    """
    cfg = model.config
    dtype = model.embedding.weight.value.dtype
    if model.xchannel is not None and windows.n_channels != cfg.n_channels:
        raise ShapeMismatch(f"{name}: xchannel model expects {cfg.n_channels} channels, got {windows.n_channels}")
    with np.errstate(over="ignore"):  # a value beyond the dtype's range becomes inf, refused here
        inputs = np.array(windows.inputs, dtype=dtype, order="C")
    bad = _first_not_finite(inputs)
    if bad is not None:
        raise DataError(f"{name}: the window at origin {windows.origins[bad]} holds a value beyond the range of the model's {dtype}")
    # a window whose scale overflows in the model gives a forecast that is
    # not finite, which is refused below
    with T.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        preds = M.forecast(Tensor(inputs), model).array
    bad = _first_not_finite(preds)
    if bad is not None:
        raise DataError(f"{name}: the forecast of the window at origin {windows.origins[bad]} is not finite in the model's {dtype}")
    return preds.astype(np.float64)


def _error_sums(preds: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The sums of squared and of absolute errors, in float64."""
    diff = preds - targets
    return np.array([(diff * diff).sum(), np.abs(diff).sum()])


def _run_evaluate(args) -> int:
    """Score each horizon's split one ``_group_windows`` group at a time: a
    group's inputs and targets are gathered from the window views, scored,
    added to running error sums and let go, so no array grows with the
    split. One ``no_grad`` block, and so one workspace, serves every group."""
    horizons = _int_list(args.horizons, "--horizons")
    if not horizons or min(horizons) < 1:
        raise InvalidConfig("--horizons needs positive horizons")
    repeated = [h for i, h in enumerate(horizons) if h in horizons[:i]]
    if repeated:
        raise InvalidConfig(f"--horizons names horizon {repeated[0]} more than once")
    ckpts = _checkpoints_for_horizons(args.model, horizons)
    ds = D.load_csv(args.data, ffill=args.ffill)
    spec = D.SplitSpec(train_frac=args.train_frac, val_frac=args.val_frac, test_frac=args.test_frac)
    if (args.train_end is None) != (args.val_end is None):
        raise InvalidConfig("--train-end and --val-end must be given together")
    boundaries = (args.train_end, args.val_end) if args.train_end is not None else None

    rows = []
    raw_rows = []
    window_rows = []
    with T.no_grad():
        for horizon in horizons:
            model = model_from_checkpoint(ckpts[horizon])
            cfg = model.config
            (train, val, test), stats = _standardized_splits(ds, spec, cfg.lookback, horizon, args.stride, boundaries)
            windows = {"train": train, "val": val, "test": test}[args.split]
            if not windows:
                raise DataError(f"{ds.name}: {args.split} split has no windows for horizon {horizon}")
            group = _group_windows(cfg, windows.n_channels, model.embedding.weight.value.dtype.itemsize)
            scale = stats.std[None, :, None]
            shift = stats.mean[None, :, None]
            sums, raw_sums = np.zeros(2), np.zeros(2)
            for start in range(0, len(windows), group):
                part = windows[start : start + group]
                targets = np.array(part.targets, dtype=np.float64, order="C")
                if args.baseline == "repeat_last":
                    preds = np.repeat(part.inputs[:, :, -1:], horizon, axis=2)
                elif args.baseline == "oracle":
                    preds = targets.copy()
                else:
                    preds = _batched_forecast(model, part, ds.name)
                sums += _error_sums(preds, targets)
                if args.raw_metrics:
                    raw_sums += _error_sums(preds * scale + shift, targets * scale + shift)
                if args.window_errors:
                    window_rows += [
                        (horizon, origin, D.metric_mse(p, t), D.metric_mae(p, t)) for p, t, origin in zip(preds, targets, part.origins)
                    ]
            mse, mae = (sums / (len(windows) * windows.n_channels * horizon)).tolist()
            rows.append({"dataset": ds.name, "horizon": horizon, "mse": mse, "mae": mae, "n_windows": len(windows)})
            if args.raw_metrics:
                mse, mae = (raw_sums / (len(windows) * windows.n_channels * horizon)).tolist()
                raw_rows.append({"dataset": f"{ds.name}:raw", "horizon": horizon, "mse": mse, "mae": mae, "n_windows": len(windows)})

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


# How bench-scan warms up and samples. With more than one BLAS thread, the
# kernel's larger GEMMs wake a BLAS worker thread that then busy-waits, and
# the process's CPU time counts it in scheduler ticks (4 ms on a 250 Hz
# kernel) while it runs on another core: a sample of one 5 ms call read 8 or
# 12 ms. A sample of back-to-back calls spanning BENCH_SAMPLE_SECONDS of CPU
# time shrinks that error to a few percent. In its first second or so a
# process may also run that worker on the main thread's core, where each
# threaded GEMM stalls the caller for a scheduler slice, about 7 ms per call
# at d_inner 64 whatever the length; the warm-up runs BENCH_WARMUP_SECONDS
# of calls so that no sample falls in that phase.
BENCH_SAMPLE_SECONDS = 0.1
BENCH_WARMUP_SECONDS = 1.0


def bench_scan(lengths: list[int], d_inner: int, n_state: int, mode: str, reps: int, seed: int = 0):
    """Median wall and process CPU time per kernel call and length; both
    kernels share inputs. CPU time leaves out other processes' share of a
    busy host.

    Warm-up passes over every length run for ``BENCH_WARMUP_SECONDS``; then
    each sample times as many back-to-back calls as the last warm-up call
    says take ``BENCH_SAMPLE_SECONDS`` of CPU time, and at least one, and
    records the time per call. Lengths are interleaved across repetition
    rounds so machine drift spreads evenly instead of biasing whichever
    length ran first.
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
    calls: dict[tuple[str, int], int] = {}
    outputs: dict[tuple[str, int], np.ndarray] = {}
    with T.no_grad():
        start = time.perf_counter()
        while not calls or time.perf_counter() - start < BENCH_WARMUP_SECONDS:  # warm-up passes over every length
            for m in modes:
                for length in lengths:
                    c0 = time.process_time()
                    outputs[(m, length)] = kernels[m](inputs[length], params).array
                    calls[(m, length)] = max(1, int(BENCH_SAMPLE_SECONDS / max(time.process_time() - c0, 1e-6)))
        for _ in range(reps):
            for length in lengths:
                for m in modes:
                    k = calls[(m, length)]
                    t0, c0 = time.perf_counter(), time.process_time()
                    for _ in range(k):
                        outputs[(m, length)] = kernels[m](inputs[length], params).array
                    cpu_times[(m, length)].append((time.process_time() - c0) / k)
                    times[(m, length)].append((time.perf_counter() - t0) / k)
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

    p = sub.add_parser("finetune", help="adapt a foundation checkpoint to one dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--xchannel", choices=("auto", "on", "off"), default="auto")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--ffill", action="store_true")

    p = sub.add_parser("forecast", help="zero-shot forecast from a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ffill", action="store_true")

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

    p = sub.add_parser("bench-scan", help="wall-time scaling of the scan kernels")
    p.add_argument("--len-list", default="1024,2048,4096")
    p.add_argument("--d-inner", type=int, default=64)
    p.add_argument("--n-state", type=int, default=16)
    p.add_argument("--mode", choices=("seq", "par", "both"), default="both")
    p.add_argument("--reps", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first ``main`` call


def main(argv: list[str] | None = None) -> int:
    """Run one command; may be called any number of times in one process.

    The parser is built once and reused. It holds no handler: each command's
    ``_run_*`` function is looked up by name at call time.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handler = globals()["_run_" + args.command.replace("-", "_")]
    try:
        # before any work, so an unwritable output costs no training or timing
        for flag in _OUTPUT_FLAGS:
            _check_output_path(getattr(args, flag, None))
        return handler(args)
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
    except OSError as exc:  # a path that is missing, a directory, or unreadable; str names it
        _err(str(exc))
        return EXIT_DATA
    except TSMambaError as exc:
        _err(str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
