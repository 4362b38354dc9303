"""Dataset ingestion, windowing, chronological splits, metrics, synthetic data.

A split is a ``Windows``: a range of origins over one read-only
sliding-window view of a standardized series. Nothing is stacked until a
caller asks: ``stack_inputs``/``stack_targets`` gather a split once, and
``ChannelRows`` gathers training batches of channel rows by index.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .errors import DataError, InvalidConfig, ParseError, RaggedRows, ShapeMismatch, ZeroVariance

ZERO_VARIANCE_EPS = 1e-8


@dataclass
class TimeSeriesDataset:
    name: str
    values: np.ndarray  # [N_total, D]
    timestamps: list[str] | None = None
    channel_names: list[str] | None = None

    @property
    def n_total(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def channel_labels(self) -> list[str]:
        if self.channel_names is not None:
            return list(self.channel_names)
        return [f"ch{i}" for i in range(self.n_channels)]


@dataclass
class WindowSample:
    """Read-only views of the series a window was cut from."""

    input: np.ndarray  # [D, L] = values[t-L : t).T
    target: np.ndarray  # [D, T] = values[t : t+T).T
    origin_index: int


@dataclass(eq=False)
class Windows:
    """Windows at the origins ``origins`` (a range whose step is the stride)
    over one read-only sliding-window view of a series; nothing is copied.

    ``spans[i]`` is ``values[t-L : t+T).T``, [D, L+T], for t = ``origins[i]``.
    An integer index gives a WindowSample of views, a slice the Windows at
    the selected origins; iteration yields every WindowSample in order.
    """

    spans: np.ndarray  # [n, D, L+T]
    lookback: int
    origins: range

    @classmethod
    def over(cls, values: np.ndarray, lookback: int, horizon: int, stride: int = 1) -> Windows:
        """Every window of ``values`` [N, D], at origins lookback,
        lookback + stride, ...; empty when N < lookback + horizon."""
        if stride < 1:
            raise InvalidConfig("stride must be >= 1")
        width = lookback + horizon
        if values.shape[0] < width:
            spans = np.empty((0, values.shape[1], width), dtype=values.dtype)
            spans.flags.writeable = False
        else:
            spans = np.lib.stride_tricks.sliding_window_view(values, width, axis=0)[::stride]
        return cls(spans, lookback, range(lookback, lookback + len(spans) * stride, stride))

    @property
    def horizon(self) -> int:
        return self.spans.shape[2] - self.lookback

    @property
    def n_channels(self) -> int:
        return self.spans.shape[1]

    @property
    def inputs(self) -> np.ndarray:
        """[n, D, L] read-only view."""
        return self.spans[:, :, : self.lookback]

    @property
    def targets(self) -> np.ndarray:
        """[n, D, T] read-only view."""
        return self.spans[:, :, self.lookback :]

    def __len__(self) -> int:
        return len(self.origins)

    def _sample(self, span: np.ndarray, origin: int) -> WindowSample:
        return WindowSample(input=span[:, : self.lookback], target=span[:, self.lookback :], origin_index=origin)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Windows(self.spans[i], self.lookback, self.origins[i])
        return self._sample(self.spans[i], self.origins[i])

    def __iter__(self):
        for span, origin in zip(self.spans, self.origins):
            yield self._sample(span, origin)


@dataclass
class SplitSpec:
    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2

    def __post_init__(self):
        if abs(self.train_frac + self.val_frac + self.test_frac - 1.0) > 1e-9:
            raise InvalidConfig("split fractions must sum to 1")
        if min(self.train_frac, self.val_frac, self.test_frac) < 0:
            raise InvalidConfig("split fractions must be non-negative")


@dataclass
class ChannelStats:
    mean: np.ndarray  # [D]
    std: np.ndarray  # [D], clamped away from zero
    zero_variance_channels: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_csv(
    path: str,
    has_date_column: bool | None = None,
    ffill: bool = False,
    name: str | None = None,
) -> TimeSeriesDataset:
    """Read a rectangular numeric CSV; optional header and leading date column.

    ``has_date_column=None`` detects the date column: it is present when the
    first cell of every data row is non-numeric. Non-numeric body cells raise
    ParseError and infinite ones (``inf``, or overflowing like ``1e999``)
    DataError, each naming the 1-based row/column; uneven row widths raise
    RaggedRows, and text that is not UTF-8 or not CSV ParseError. NaNs are
    rejected unless ``ffill`` forward-fills them (leading NaNs still reject).
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (UnicodeDecodeError, csv.Error) as exc:  # bytes that are not UTF-8, an oversized field
        raise ParseError(f"{path}: not a readable CSV: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
    if has_date_column is None:
        data_rows = rows[1:] if len(rows) > 1 and not all(_looks_numeric(c) for c in rows[0]) else rows
        has_date_column = not any(_looks_numeric(row[0]) for row in data_rows)
    start_col = 1 if has_date_column else 0
    if width - start_col < 1:
        raise DataError(f"{path}: no value columns after dropping the date column")

    first_numeric = all(_looks_numeric(c) for c in rows[0][start_col:])
    header = None if first_numeric else rows[0]
    body = rows if first_numeric else rows[1:]
    if not body:
        raise DataError(f"{path}: header only, no data rows")

    header_offset = 1 if header is not None else 0
    cells = [row[start_col:] for row in body] if start_col else body
    try:
        # numpy converts each str cell with float() itself, so the bits match
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        # the cell loop names the first cell float() rejects
        values = np.empty((len(cells), width - start_col), dtype=np.float64)
        for i, row in enumerate(cells):
            for j, cell in enumerate(row):
                try:
                    values[i, j] = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric cell at row {i + 1 + header_offset}, column {j + 1 + start_col}: {cell!r}"
                    ) from None
    if np.isinf(values).any():
        i, j = np.argwhere(np.isinf(values))[0]
        raise DataError(
            f"{path}: infinite cell at row {i + 1 + header_offset}, column {j + 1 + start_col}: {body[i][j + start_col]!r}"
        )

    if np.isnan(values).any():
        if not ffill:
            bad = int(np.argwhere(np.isnan(values))[0][0])
            raise DataError(f"{path}: NaN values present (first at data row {bad + 1}); pass ffill to forward-fill")
        for j in range(values.shape[1]):
            col = values[:, j]
            mask = np.isnan(col)
            if mask[0]:
                raise DataError(f"{path}: column {j + 1 + start_col} starts with NaN; cannot forward-fill")
            idx = np.where(mask, 0, np.arange(len(col)))
            np.maximum.accumulate(idx, out=idx)
            values[:, j] = col[idx]

    timestamps = [row[0] for row in body] if has_date_column else None
    channel_names = list(header[start_col:]) if header is not None else None
    return TimeSeriesDataset(
        name=name or path,
        values=values,
        timestamps=timestamps,
        channel_names=channel_names,
    )


def write_csv(ds: TimeSeriesDataset, path: str) -> None:
    """Write values with a header row (and date column when timestamps exist)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        labels = ds.channel_labels()
        if ds.timestamps is not None:
            writer.writerow(["date"] + labels)
            for ts, row in zip(ds.timestamps, ds.values):
                writer.writerow([ts] + [f"{v:.17g}" for v in row])
        else:
            writer.writerow(labels)
            for row in ds.values:
                writer.writerow([f"{v:.17g}" for v in row])


# ---------------------------------------------------------------------------
# Standardization and splits
# ---------------------------------------------------------------------------


def train_boundaries(n_total: int, spec: SplitSpec) -> tuple[int, int]:
    """(train_end, val_end) indices of the chronological split."""
    n1 = int(n_total * spec.train_frac)
    n2 = n1 + int(n_total * spec.val_frac)
    return n1, n2


def split_boundaries(n_total: int, spec: SplitSpec, boundaries: tuple[int, int] | None = None) -> tuple[int, int]:
    """Explicit (train_end, val_end) checked against the series length, or
    the fractional split when ``boundaries`` is None."""
    if boundaries is None:
        return train_boundaries(n_total, spec)
    n1, n2 = boundaries
    if not 0 < n1 <= n2 <= n_total:
        raise InvalidConfig(f"split boundaries {boundaries} outside 0..{n_total}")
    return n1, n2


def compute_train_stats(ds: TimeSeriesDataset, train_end: int) -> ChannelStats:
    if train_end < 1:
        raise DataError("train split is empty")
    seg = ds.values[:train_end]
    mean = seg.mean(axis=0)
    std = seg.std(axis=0)
    zero = [int(j) for j in np.where(std == 0)[0]]
    for j in zero:
        warnings.warn(f"channel {j} has zero variance on the train split", ZeroVariance)
    std = np.where(std == 0, ZERO_VARIANCE_EPS, std)
    return ChannelStats(mean=mean, std=std, zero_variance_channels=zero)


def standardize(ds: TimeSeriesDataset, stats: ChannelStats) -> TimeSeriesDataset:
    """z-score every channel with train-split statistics."""
    values = (ds.values - stats.mean[None, :]) / stats.std[None, :]
    return TimeSeriesDataset(
        name=ds.name,
        values=values,
        timestamps=ds.timestamps,
        channel_names=ds.channel_names,
    )


def make_windows(ds: TimeSeriesDataset, lookback: int, horizon: int, stride: int = 1) -> Windows:
    """All (input, target) windows ordered by origin, over a read-only view
    of ``ds.values``; empty if the series is short."""
    return Windows.over(ds.values, lookback, horizon, stride)


def split_windows(
    ds: TimeSeriesDataset,
    spec: SplitSpec,
    lookback: int,
    horizon: int,
    stride: int = 1,
    boundaries: tuple[int, int] | None = None,
) -> tuple[Windows, Windows, Windows]:
    """Chronological train/val/test windows; val and test windows may reach
    back into the previous segment for input context, never for targets.

    A window with origin t is train when t + horizon <= train_end, else val
    when t >= train_end and t + horizon <= val_end, else test when
    t >= val_end. Each rule holds on a run of consecutive origins, so each
    split is a slice of ``make_windows``' origins, found by arithmetic.

    ``boundaries`` overrides the fractional spec with explicit
    (train_end, val_end) row indices, matching benchmark conventions that fix
    split points instead of fractions.
    """
    n1, n2 = split_boundaries(ds.n_total, spec, boundaries)
    windows = Windows.over(ds.values, lookback, horizon, stride)

    def upto(t: int) -> int:
        """How many origins are <= t."""
        return min(len(windows), max(0, (t - lookback) // stride + 1))

    train_end = upto(n1 - horizon)
    val_start = max(train_end, upto(n1 - 1))
    val_end = max(val_start, upto(n2 - horizon))
    test_start = max(val_end, upto(n2 - 1))
    return windows[:train_end], windows[val_start:val_end], windows[test_start:]


# np.array, unlike np.stack, lays the copy out in C order whatever the
# strides of the window views, so downstream reductions round the same way.
def stack_inputs(windows: Windows | list[WindowSample]) -> np.ndarray:
    """[n, D, L] C-ordered copy of the windows' inputs."""
    if isinstance(windows, Windows):
        return np.array(windows.inputs, order="C")
    return np.array([w.input for w in windows], order="C")


def stack_targets(windows: Windows | list[WindowSample]) -> np.ndarray:
    """[n, D, T] C-ordered copy of the windows' targets."""
    if isinstance(windows, Windows):
        return np.array(windows.targets, order="C")
    return np.array([w.target for w in windows], order="C")


def flatten_channel_windows(windows: Windows) -> tuple[np.ndarray, np.ndarray]:
    """Channel-independent rows: [n*D, L] inputs and [n*D, T] targets, row
    i*D + c holding channel c of window i.

    At stride 1 the rows are read-only views of the series; at a larger
    stride numpy gathers them into one fresh C-ordered copy each.
    """
    if not len(windows):
        raise DataError("no windows to flatten")
    rows = len(windows) * windows.n_channels
    return windows.inputs.reshape(rows, windows.lookback), windows.targets.reshape(rows, windows.horizon)


class ChannelRows:
    """The channel rows of several splits' windows, pooled in the order that
    concatenating their ``flatten_channel_windows`` rows would give, and
    gathered by row index on demand: row i*D + c of a split is channel c of
    its window i.

    ``part`` is ``"inputs"`` for [n_rows, L] rows or ``"targets"`` for
    [n_rows, T]. Indexing with an integer array returns a fresh C-ordered
    [len(idx), width] array in the series' dtype.
    """

    ndim = 2

    def __init__(self, splits: list[Windows], part: str):
        self._parts = [getattr(w, part) for w in splits if len(w)]
        if not self._parts:
            raise DataError("no windows to pool")
        self._starts = np.cumsum([0] + [views.shape[0] * views.shape[1] for views in self._parts])
        self.shape = (int(self._starts[-1]), self._parts[0].shape[2])

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise IndexError(f"row index out of range 0..{len(self) - 1}")
        split = np.searchsorted(self._starts, idx, side="right") - 1
        out = np.empty(idx.shape + (self.shape[1],), dtype=self._parts[0].dtype)
        for k, views in enumerate(self._parts):
            sel = split == k
            window, channel = np.divmod(idx[sel] - self._starts[k], views.shape[1])
            out[sel] = views[window, channel]
        return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def metric_mse(pred: np.ndarray, target: np.ndarray) -> float:
    if pred.shape != target.shape:
        raise ShapeMismatch(f"metric_mse: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float((diff * diff).mean())


def metric_mae(pred: np.ndarray, target: np.ndarray) -> float:
    if pred.shape != target.shape:
        raise ShapeMismatch(f"metric_mae: {pred.shape} vs {target.shape}")
    return float(np.abs(pred - target).mean())


def write_report_csv(fh: TextIO, rows: list[dict]) -> None:
    """Aggregate report to an open text stream: one row per (dataset,
    horizon) plus an average row."""
    writer = csv.writer(fh)
    writer.writerow(["dataset", "horizon", "mse", "mae", "n_windows"])
    for r in rows:
        writer.writerow([r["dataset"], r["horizon"], f"{r['mse']:.6f}", f"{r['mae']:.6f}", r["n_windows"]])
    if rows:
        writer.writerow(
            [
                rows[0]["dataset"],
                "avg",
                f"{np.mean([r['mse'] for r in rows]):.6f}",
                f"{np.mean([r['mae'] for r in rows]):.6f}",
                sum(r["n_windows"] for r in rows),
            ]
        )


def write_window_errors_csv(path: str, dataset: str, records: list[tuple[int, int, float, float]]) -> None:
    """Plot-ready per-window errors: (horizon, origin_index, mse, mae) rows of
    every evaluated horizon under one header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "horizon", "origin_index", "mse", "mae"])
        for horizon, origin, mse, mae in records:
            writer.writerow([dataset, horizon, origin, f"{mse:.6f}", f"{mae:.6f}"])


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


@dataclass
class Sinusoid:
    freq: float  # cycles per step
    amp: float = 1.0
    phase: float = 0.0
    channel: int | None = None


@dataclass
class Trend:
    slope: float
    channel: int | None = None


@dataclass
class Noise:
    sigma: float
    channel: int | None = None


@dataclass
class CrossLag:
    """Plant channel ``dst`` as gain * channel ``src`` delayed by ``lag``."""

    src: int
    dst: int
    lag: int
    gain: float = 1.0


def synth_generate(seed: int, n_channels: int, n_total: int, components: list) -> TimeSeriesDataset:
    """Reproducible synthetic multivariate series built from declared parts.

    Components apply in order; CrossLag overwrites its destination channel so
    the planted cross-channel dependence is exact.
    """
    rng = np.random.default_rng(seed)
    values = np.zeros((n_total, n_channels), dtype=np.float64)
    t = np.arange(n_total, dtype=np.float64)
    for comp in components:
        if isinstance(comp, Sinusoid):
            chans = range(n_channels) if comp.channel is None else [comp.channel]
            # exact periodicity for integer periods: reduce the cycle count mod 1
            wave = comp.amp * np.sin(2.0 * np.pi * np.mod(t * comp.freq, 1.0) + comp.phase)
            for ch in chans:
                values[:, ch] += wave
        elif isinstance(comp, Trend):
            chans = range(n_channels) if comp.channel is None else [comp.channel]
            for ch in chans:
                values[:, ch] += comp.slope * t
        elif isinstance(comp, Noise):
            chans = range(n_channels) if comp.channel is None else [comp.channel]
            for ch in chans:
                values[:, ch] += rng.normal(0.0, comp.sigma, size=n_total)
        elif isinstance(comp, CrossLag):
            if comp.lag >= n_total:
                raise InvalidConfig(f"cross_lag lag {comp.lag} >= series length {n_total}")
            if comp.lag < 0:
                raise InvalidConfig("cross_lag lag must be >= 0")
            src_idx = np.clip(t.astype(np.int64) - comp.lag, 0, n_total - 1)
            values[:, comp.dst] = comp.gain * values[src_idx, comp.src]
        else:
            raise InvalidConfig(f"unknown synthetic component {type(comp).__name__}")
    return TimeSeriesDataset(name=f"synth-{seed}", values=values)
