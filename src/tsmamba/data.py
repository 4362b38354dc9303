"""Dataset ingestion, windowing, chronological splits, metrics, synthetic data.

A split is a ``Windows``: a range of origins over one read-only
sliding-window view of a standardized series, made by ``split_windows`` or
``Windows.over``. Nothing is copied until a caller asks. The one windowing
API is the ``inputs``, ``targets`` and ``origins`` views of a ``Windows``
and ``ChannelRows``, which gathers training batches of channel rows by
index: ``score`` gathers one window group at a time from the views, and
training gathers its batches through ``ChannelRows``.

The benchmark (``perfbench/``) still calls an older API, which stays only
until it moves: a ``Windows``' integer index (a ``WindowSample`` of views),
the list branch of ``stack_inputs``/``stack_targets``, and
``flatten_channel_windows``.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, TextIO

import numpy as np

from .errors import DataError, InvalidConfig, ParseError, RaggedRows, ShapeMismatch, ZeroVariance

ZERO_VARIANCE_EPS = 1e-8


@dataclass
class TimeSeriesDataset:
    name: str
    values: np.ndarray  # [N_total, D]
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


@dataclass(eq=False)
class Windows:
    """Windows at the origins ``origins`` (a range whose step is the stride)
    over one read-only sliding-window view of a series; nothing is copied.

    ``spans[i]`` is ``values[t-L : t+T).T``, [D, L+T], for t = ``origins[i]``.
    A slice gives the Windows at the selected origins, an integer index a
    WindowSample of views.
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

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Windows(self.spans[i], self.lookback, self.origins[i])
        span = self.spans[i]
        return WindowSample(input=span[:, : self.lookback], target=span[:, self.lookback :])


@dataclass
class SplitSpec:
    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2

    def __post_init__(self):
        for key in ("train_frac", "val_frac", "test_frac"):
            if not math.isfinite(getattr(self, key)):
                raise InvalidConfig(f"split key {key!r} must be finite, got {getattr(self, key)}")
        if abs(self.train_frac + self.val_frac + self.test_frac - 1.0) > 1e-9:
            raise InvalidConfig("split keys 'train_frac', 'val_frac' and 'test_frac' must sum to 1")
        if min(self.train_frac, self.val_frac, self.test_frac) < 0:
            raise InvalidConfig("split keys 'train_frac', 'val_frac' and 'test_frac' must be >= 0")


@dataclass
class ChannelStats:
    mean: np.ndarray  # [D]
    std: np.ndarray  # [D], clamped away from zero


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


# float() never accepts an ASCII character other than a digit, whitespace,
# a sign, '.', '_' or a letter of 'e', 'inf', 'infinity' and 'nan', nor a
# sign after anything but whitespace or an exponent's 'e'. Either settles
# most date cells (``2016-07-01``) without float() raising.
_NEVER_FLOAT = re.compile(
    "[%s]|[^\\seE][+-]"
    % re.escape("".join(c for c in map(chr, range(128)) if not (c.isdigit() or c.isspace() or c in "+-._eEiInNfFtTyYaA")))
)


def _looks_numeric(cell: str) -> bool:
    # a time's ':' or a date's '/' rules a cell out several times faster than the regex
    if ":" in cell or "/" in cell or _NEVER_FLOAT.search(cell):
        return False
    try:
        float(cell)
        return True
    except ValueError:
        return False


# Characters that make csv.reader cut text otherwise than str.splitlines and
# str.split(","): a quote, NUL (a csv.Error on Python 3.10), and the line
# breaks that str.splitlines knows besides \n, \r and \r\n.
_CSV_READER_ONLY = '"\x00\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'


def load_csv(path: str, has_date_column: bool | None = None, ffill: bool = False) -> TimeSeriesDataset:
    """Read a rectangular numeric CSV; optional header and leading date column.

    A date column is dropped: the model reads values only, so none of its
    cells is kept. ``has_date_column=None`` detects it: it is present when
    the first cell of every data row is non-numeric. Non-numeric body cells
    raise ParseError and infinite ones (``inf``, or overflowing like ``1e999``)
    DataError, each naming the 1-based row/column; uneven row widths raise
    RaggedRows, and text that is not UTF-8 or not CSV ParseError. A leading
    byte-order mark is dropped. NaNs are rejected unless ``ffill``
    forward-fills them (leading NaNs still reject).

    numpy's C reader parses the body of plain text; text that needs
    csv.reader, and any body the C reader rejects, goes through csv.reader
    and one float() per cell, which names the bad cell.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        # csv.reader streaming the file as UTF-8 raises the error load_csv has
        # always raised: it gives the bad byte's position within the chunk
        # being decoded, counting a byte-order mark
        with open(path, "r", encoding="utf-8", newline="") as fh:
            _csv_rows(path, fh)
        raise ParseError(f"{path}: not a readable CSV: {exc}") from None
    table = _parse_plain(path, text, has_date_column)
    if table is None:
        table = _parse_rows(path, _csv_rows(path, io.StringIO(text, newline="")), has_date_column)
    values, start_col, channel_names = table

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

    return TimeSeriesDataset(name=path, values=values, channel_names=channel_names)


def _layout(path: str, first: list[str], n_rows: int, later_heads, has_date_column: bool | None) -> tuple[int, int]:
    """(start_col, header_rows) of a table whose first row is ``first`` and
    whose other rows start with the cells of the iterable ``later_heads``."""
    if has_date_column is None:
        if n_rows == 1 or all(map(_looks_numeric, first)):
            later_heads = itertools.chain([first[0]], later_heads)
        has_date_column = not any(map(_looks_numeric, later_heads))
    start_col = 1 if has_date_column else 0
    if len(first) - start_col < 1:
        raise DataError(f"{path}: no value columns after dropping the date column")
    header_rows = 0 if all(map(_looks_numeric, first[start_col:])) else 1
    if n_rows == header_rows:
        raise DataError(f"{path}: header only, no data rows")
    return start_col, header_rows


def _parse_plain(path: str, text: str, has_date_column: bool | None):
    """(values, start_col, channel_names) of ``text`` with the
    body parsed by np.loadtxt, or None when csv.reader and the cell loop must
    judge it: text that needs csv.reader, a line longer than csv's field
    limit, rows of uneven width, a cell the C reader rejects (such as
    ``1_0``, which float() accepts) or an infinite cell, which the cell path
    names."""
    if any(c in text for c in _CSV_READER_ONLY):
        return None
    lines = [line for line in text.splitlines() if line]
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    first = lines[0].split(",")
    width = len(first)
    # equal comma totals with uneven rows leave a row short of the last
    # column, which np.loadtxt rejects
    if text.count(",") != len(lines) * (width - 1):
        return None
    heads = (line.partition(",")[0] for line in lines[1:])
    start_col, header_rows = _layout(path, first, len(lines), heads, has_date_column)
    body = lines[header_rows:]
    try:
        values = np.loadtxt(
            body,
            delimiter=",",
            comments=None,
            dtype=np.float64,
            ndmin=2,
            usecols=range(start_col, width) if start_col else None,
        )
    except ValueError:
        return None
    if values.shape != (len(body), width - start_col) or np.isinf(values).any():
        return None
    return values, start_col, first[start_col:] if header_rows else None


def _csv_rows(path: str, lines: Iterable[str]) -> list[list[str]]:
    """The non-empty rows csv.reader reads from ``lines``."""
    try:
        return [row for row in csv.reader(lines) if row]
    except (UnicodeDecodeError, csv.Error) as exc:  # bytes that are not UTF-8, an oversized field
        raise ParseError(f"{path}: not a readable CSV: {exc}") from None


def _parse_rows(path: str, rows: list[list[str]], has_date_column: bool | None):
    """``_parse_plain``'s table from csv.reader rows, one float() per cell."""
    if not rows:
        raise DataError(f"{path}: empty file")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
    start_col, header_rows = _layout(path, rows[0], len(rows), (row[0] for row in rows[1:]), has_date_column)
    body = rows[header_rows:]
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
                        f"{path}: non-numeric cell at row {i + 1 + header_rows}, column {j + 1 + start_col}: {cell!r}"
                    ) from None
    if np.isinf(values).any():
        i, j = np.argwhere(np.isinf(values))[0]
        raise DataError(
            f"{path}: infinite cell at row {i + 1 + header_rows}, column {j + 1 + start_col}: {body[i][j + start_col]!r}"
        )
    return values, start_col, rows[0][start_col:] if header_rows else None


def write_csv(ds: TimeSeriesDataset, path: str) -> None:
    """Write values with a header row of channel labels."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.channel_labels())
        writer.writerows([f"{v:.17g}" for v in row] for row in ds.values)


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
    for j in np.flatnonzero(std == 0):
        warnings.warn(f"channel {j} has zero variance on the train split", ZeroVariance)
    return ChannelStats(mean=mean, std=np.where(std == 0, ZERO_VARIANCE_EPS, std))


def standardize(ds: TimeSeriesDataset, stats: ChannelStats) -> TimeSeriesDataset:
    """z-score every channel with train-split statistics."""
    values = (ds.values - stats.mean[None, :]) / stats.std[None, :]
    return TimeSeriesDataset(name=ds.name, values=values, channel_names=ds.channel_names)


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
    split is a slice of ``Windows.over``'s origins, found by arithmetic.

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


def repeat_last(windows: Windows) -> np.ndarray:
    """The repeat-last-value baseline: each input's last value held over the
    horizon, [n, D, horizon] in float64."""
    return np.repeat(np.asarray(windows.inputs[:, :, -1:], dtype=np.float64), windows.horizon, axis=2)


def score(predict: Callable[[Windows], np.ndarray], windows: Windows, group: int, stats: ChannelStats | None = None) -> np.ndarray:
    """Each window's errors, float64 [n, 2] of (MSE, MAE), or [n, 4] with the
    raw-space (MSE, MAE) after them when ``stats`` undoes the standardization.
    ``predict`` maps ``group`` windows at a time to float64 forecasts
    [n, D, horizon] (``model.forecast_windows``, ``repeat_last``), so only
    the result grows with the split. Row i is ``metric_mse`` and
    ``metric_mae`` of window i alone, whatever ``group`` is."""
    errors = np.empty((len(windows), 2 if stats is None else 4))
    for start in range(0, len(windows), group):
        part = windows[start : start + group]
        preds, targets = predict(part), np.array(part.targets, dtype=np.float64, order="C")
        if preds.shape != targets.shape:
            raise ShapeMismatch(f"score: forecasts {preds.shape} vs targets {targets.shape}")
        diffs = [preds - targets]
        if stats is not None:
            scale, shift = stats.std[None, :, None], stats.mean[None, :, None]
            diffs.append((preds * scale + shift) - (targets * scale + shift))
        errors[start : start + len(part)] = np.stack([f(d).mean(axis=(1, 2)) for d in diffs for f in (np.square, np.abs)], axis=1)
    return errors


def write_report_csv(fh: TextIO, rows: list[dict]) -> None:
    """Aggregate report to an open text stream: the rows of each dataset
    label (``name``, then ``name:raw``), each label's followed by its
    average row."""
    writer = csv.writer(fh)
    writer.writerow(["dataset", "horizon", "mse", "mae", "n_windows"])
    for label in dict.fromkeys(r["dataset"] for r in rows):
        group = [r for r in rows if r["dataset"] == label]
        for r in group:
            writer.writerow([label, r["horizon"], f"{r['mse']:.6f}", f"{r['mae']:.6f}", r["n_windows"]])
        mse, mae = np.mean([r["mse"] for r in group]), np.mean([r["mae"] for r in group])
        writer.writerow([label, "avg", f"{mse:.6f}", f"{mae:.6f}", sum(r["n_windows"] for r in group)])


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
