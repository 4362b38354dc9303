"""Output checks: each compares a program output with the benchmark's own
reference computed through the library, and returns a failure reason or
``None`` when the output is correct."""

from __future__ import annotations

import csv
import math

import numpy as np

# float32 model; the CLI rounds reported MSE to 6 decimals
MSE_RTOL = 1e-4
MSE_ATOL = 2e-6
FORECAST_RTOL = 1e-5
FORECAST_ATOL = 1e-6


def check_loss(value: float) -> str | None:
    if not math.isfinite(value):
        return f"non-finite loss {value!r}"
    return None


def read_report_mse(path: str, horizon: int) -> tuple[float, int]:
    """(mse, n_windows) of the ``horizon`` row of an ``evaluate`` report."""
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["horizon"] == str(horizon):
                return float(row["mse"]), int(row["n_windows"])
    raise ValueError(f"{path}: no row for horizon {horizon}")


def check_report(mse: float, n_windows: int, ref_mse: float, ref_windows: int) -> str | None:
    if not math.isfinite(mse):
        return f"non-finite MSE {mse!r}"
    if n_windows != ref_windows:
        return f"report covers {n_windows} windows, expected {ref_windows}"
    if abs(mse - ref_mse) > MSE_RTOL * abs(ref_mse) + MSE_ATOL:
        return f"report MSE {mse:.6f} != per-window reference {ref_mse:.6f}"
    return None


def read_forecast_csv(path: str) -> np.ndarray:
    """Forecast CSV (header of channel labels, one row per step) as [D, T]."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(c) for c in row] for row in rows[1:]], dtype=np.float64).T


def check_forecast(pred: np.ndarray, ref: np.ndarray) -> str | None:
    if pred.shape != ref.shape:
        return f"forecast shape {pred.shape} != reference {ref.shape}"
    if not np.isfinite(pred).all():
        return "non-finite forecast values"
    if not np.allclose(pred, ref, rtol=FORECAST_RTOL, atol=FORECAST_ATOL):
        worst = float(np.max(np.abs(pred - ref)))
        return f"forecast differs from library forecast by up to {worst:.3g}"
    return None


def reference_windows(values: np.ndarray, train_end: int, val_end: int, lookback: int, horizon: int):
    """Test windows of a series, built without the program's windowing:
    z-scored with train-split statistics, origins t >= val_end.
    Returns inputs [n, D, L] and targets [n, D, T]."""
    mean = values[:train_end].mean(axis=0)
    std = values[:train_end].std(axis=0)
    z = (values - mean) / np.where(std == 0, 1e-8, std)
    origins = range(max(val_end, lookback), values.shape[0] - horizon + 1)
    inputs = np.stack([z[t - lookback : t].T for t in origins])
    targets = np.stack([z[t : t + horizon].T for t in origins])
    return inputs, targets


def reference_mse(model, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error of ``tsmamba.forecast`` run one window at a time.

    The sequential scan kernel is used on purpose: it is independent of the
    kernel ``evaluate`` batches through, and it is the faster one on a
    single window."""
    from tsmamba import forecast, no_grad
    from tsmamba.tensor import Tensor

    dtype = model.embedding.weight.value.dtype
    sq = 0.0
    with no_grad():
        for x, y in zip(inputs, targets):
            pred = forecast(Tensor(x.astype(dtype)), model, scan_mode="sequential").array.astype(np.float64)
            sq += float(((pred - y) ** 2).sum())
    return sq / targets.size


def reference_forecast(model, values: np.ndarray) -> np.ndarray:
    """``tsmamba.forecast`` of the last lookback rows of ``values`` [N, D]."""
    from tsmamba import forecast, no_grad
    from tsmamba.tensor import Tensor

    cfg = model.config
    dtype = model.embedding.weight.value.dtype
    with no_grad():
        return forecast(Tensor(values[-cfg.lookback :].T.astype(dtype)), model).array.astype(np.float64)
