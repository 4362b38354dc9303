"""Unit tests for dataset ingestion, windowing, metrics, and synthetic data."""

import numpy as np
import pytest

from tsmamba import data as D
from tsmamba.errors import DataError, InvalidConfig, ParseError, RaggedRows, ShapeMismatch, ZeroVariance


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_load_csv_basic(tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text("date,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n2020-01-03,5,6\n")
    ds = D.load_csv(str(p))
    assert ds.n_total == 3
    assert ds.n_channels == 2
    assert ds.channel_labels() == ["a", "b"]
    np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_without_date_column(tmp_path):
    p = tmp_path / "nodate.csv"
    p.write_text("1.5,2.5\n3.5,4.5\n")
    ds = D.load_csv(str(p), has_date_column=False)
    assert ds.n_channels == 2
    assert ds.timestamps is None


def test_load_csv_names_bad_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,a,b\n2020-01-01,1,2\n2020-01-02,oops,4\n")
    with pytest.raises(ParseError) as err:
        D.load_csv(str(p))
    assert "row 3" in str(err.value)
    assert "column 2" in str(err.value)
    assert "oops" in str(err.value)


def test_load_csv_ragged(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("date,a,b\n2020-01-01,1,2\n2020-01-02,3\n")
    with pytest.raises(RaggedRows):
        D.load_csv(str(p))


def test_load_csv_nan_policy(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("a,b\n1,2\nnan,4\n5,6\n")
    with pytest.raises(DataError):
        D.load_csv(str(p), has_date_column=False)
    ds = D.load_csv(str(p), has_date_column=False, ffill=True)
    np.testing.assert_array_equal(ds.values, [[1, 2], [1, 4], [5, 6]])


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "-Infinity"])
def test_load_csv_rejects_infinite_cells(tmp_path, cell):
    p = tmp_path / "inf.csv"
    p.write_text(f"a,b\n1,2\n3,nan\n5,{cell}\n")
    for ffill in (False, True):
        with pytest.raises(DataError) as err:
            D.load_csv(str(p), has_date_column=False, ffill=ffill)
        assert "infinite" in str(err.value)
        assert "row 4" in str(err.value)
        assert "column 2" in str(err.value)


def test_load_csv_drops_bom_of_headerless_file(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    ds = D.load_csv(str(p))
    assert ds.channel_names is None
    np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_drops_bom_before_header(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")
    ds = D.load_csv(str(p))
    assert ds.channel_names == ["a", "b"]
    np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4]])


def test_load_csv_reads_a_plain_body_with_the_c_reader(tmp_path, monkeypatch):
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(k.get("usecols")) or loadtxt(*a, **k))
    p = tmp_path / "dated.csv"
    p.write_text("date,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n")
    ds = D.load_csv(str(p))
    assert calls == [range(1, 3)]
    assert ds.timestamps == ["2020-01-01", "2020-01-02"]
    np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4]])


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    ds = D.TimeSeriesDataset(name="r", values=rng.standard_normal((20, 3)))
    path = tmp_path / "round.csv"
    D.write_csv(ds, str(path))
    back = D.load_csv(str(path), has_date_column=False)
    assert np.max(np.abs(back.values - ds.values)) < 1e-9
    path2 = tmp_path / "round2.csv"
    D.write_csv(back, str(path2))
    again = D.load_csv(str(path2), has_date_column=False)
    assert np.max(np.abs(again.values - ds.values)) < 1e-9


# ---------------------------------------------------------------------------
# Standardization and splits
# ---------------------------------------------------------------------------


def test_standardize_zscore():
    values = np.zeros((10, 1))
    values[:, 0] = [10, 12, 8, 10, 12, 8, 10, 12, 8, 14]
    ds = D.TimeSeriesDataset(name="s", values=values)
    stats = D.ChannelStats(mean=np.array([10.0]), std=np.array([2.0]))
    out = D.standardize(ds, stats)
    assert out.values[-1, 0] == 2.0


def test_standardize_constant_channel_flags_zero_variance():
    ds = D.TimeSeriesDataset(name="c", values=np.full((8, 2), 3.0))
    with pytest.warns(ZeroVariance):
        stats = D.compute_train_stats(ds, train_end=6)
    assert stats.zero_variance_channels == [0, 1]
    out = D.standardize(ds, stats)
    np.testing.assert_allclose(out.values, np.zeros((8, 2)))


def test_standardize_not_idempotent():
    rng = np.random.default_rng(1)
    ds = D.TimeSeriesDataset(name="n", values=rng.standard_normal((30, 2)) * 4 + 3)
    stats = D.compute_train_stats(ds, train_end=20)
    once = D.standardize(ds, stats)
    twice = D.standardize(once, stats)
    assert not np.allclose(once.values, twice.values)


@pytest.mark.parametrize(
    "n_extra,expected", [(0, 1), (5, 6)]
)
def test_windows_over_count(n_extra, expected):
    lookback, horizon = 8, 4
    windows = D.Windows.over(np.arange(float(lookback + horizon + n_extra))[:, None], lookback, horizon, stride=1)
    assert len(windows) == expected


def test_windows_over_short_series_is_empty():
    windows = D.Windows.over(np.arange(10.0)[:, None], 8, 4)
    assert len(windows) == 0
    assert windows.inputs.shape == (0, 1, 8) and windows.targets.shape == (0, 1, 4)


def test_window_contiguity():
    windows = D.Windows.over(np.arange(30.0)[:, None], 8, 4, stride=3)
    assert windows.origins == range(8, 27, 3)
    for t, x, y in zip(windows.origins, windows.inputs, windows.targets):
        np.testing.assert_array_equal(x[0], np.arange(t - 8, t))
        np.testing.assert_array_equal(y[0], np.arange(t, t + 4))


def test_windows_are_read_only_views_of_the_series():
    values = np.arange(60.0).reshape(30, 2)
    windows = D.Windows.over(values, 8, 4, stride=5)
    for arr in (windows.inputs, windows.targets, windows[1:].inputs):
        assert np.shares_memory(arr, values)
        with pytest.raises(ValueError):
            arr[0, 0, 0] = -1.0
    np.testing.assert_array_equal(values, np.arange(60.0).reshape(30, 2))


def test_stacks_are_c_contiguous_copies():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((40, 3))
    for stride in (1, 3):
        windows = D.Windows.over(values, 8, 4, stride=stride)
        want_x = np.stack([np.ascontiguousarray(x) for x in windows.inputs])
        want_y = np.stack([np.ascontiguousarray(y) for y in windows.targets])
        for got, want in ((D.stack_inputs(windows), want_x), (D.stack_targets(windows), want_y)):
            assert got.flags.c_contiguous and got.flags.writeable
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, values)
        flat_x, flat_y = D.flatten_channel_windows(windows)
        for got, want in ((flat_x, want_x.reshape(-1, 8)), (flat_y, want_y.reshape(-1, 4))):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            if stride == 1:  # rows of the series itself, not a copy
                assert not got.flags.writeable
                assert np.shares_memory(got, values)


def test_split_windows_no_leakage():
    ds = D.TimeSeriesDataset(name="w", values=np.arange(200.0)[:, None])
    spec = D.SplitSpec()
    lookback, horizon = 16, 8
    train, val, test = D.split_windows(ds, spec, lookback, horizon)
    assert train and val and test
    assert min(test.origins) > max(train.origins) + horizon
    n1, n2 = D.train_boundaries(200, spec)
    assert max(train.origins) + horizon <= n1
    assert min(test.origins) >= n2


def test_split_spec_validation():
    with pytest.raises(InvalidConfig):
        D.SplitSpec(train_frac=0.5, val_frac=0.1, test_frac=0.2)


def test_split_windows_explicit_boundaries():
    ds = D.TimeSeriesDataset(name="w", values=np.arange(200.0)[:, None])
    spec = D.SplitSpec()
    train, val, test = D.split_windows(ds, spec, 16, 8, boundaries=(120, 160))
    assert max(train.origins) + 8 <= 120
    assert 120 <= min(val.origins) and max(val.origins) + 8 <= 160
    assert min(test.origins) >= 160
    for bad in ((150, 120), (0, 160), (-5, 160), (120, 201)):
        with pytest.raises(InvalidConfig):
            D.split_windows(ds, spec, 16, 8, boundaries=bad)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_metrics_examples():
    x = np.array([1.0, 2.0])
    assert D.metric_mse(x, x) == 0.0
    assert D.metric_mae(x, x) == 0.0
    pred = np.array([1.0, -1.0])
    zero = np.zeros(2)
    assert D.metric_mse(pred, zero) == 1.0
    assert D.metric_mae(pred, zero) == 1.0
    target = np.array([5.0, 6.0, 7.0])
    assert D.metric_mse(target + 0.5, target) == pytest.approx(0.25)
    assert D.metric_mae(target + 0.5, target) == pytest.approx(0.5)


def test_metrics_shape_check_and_jensen():
    with pytest.raises(ShapeMismatch):
        D.metric_mse(np.zeros(3), np.zeros(4))
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal((4, 7))
        b = rng.standard_normal((4, 7))
        assert D.metric_mae(a, b) <= np.sqrt(D.metric_mse(a, b)) + 1e-12


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(50)
    b = rng.standard_normal(50)
    perm = rng.permutation(50)
    assert D.metric_mse(a, b) == pytest.approx(D.metric_mse(a[perm], b[perm]))
    assert D.metric_mae(a, b) == pytest.approx(D.metric_mae(a[perm], b[perm]))


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


def test_synth_pure_sinusoid_is_periodic():
    period = 16
    ds = D.synth_generate(0, 1, 200, [D.Sinusoid(freq=1.0 / period)])
    np.testing.assert_array_equal(ds.values[:100, 0], ds.values[period : period + 100, 0])


def test_synth_cross_lag_construction():
    ds = D.synth_generate(
        1, 2, 64, [D.Sinusoid(freq=0.07, channel=0), D.CrossLag(src=0, dst=1, lag=4, gain=1.0)]
    )
    np.testing.assert_array_equal(ds.values[4:, 1], ds.values[:-4, 0])


def test_synth_deterministic():
    comps = [D.Sinusoid(freq=0.05), D.Trend(slope=0.001), D.Noise(sigma=0.3)]
    a = D.synth_generate(7, 3, 128, comps)
    b = D.synth_generate(7, 3, 128, comps)
    assert a.values.tobytes() == b.values.tobytes()


def test_synth_rejects_overlong_lag():
    with pytest.raises(InvalidConfig):
        D.synth_generate(0, 2, 16, [D.CrossLag(src=0, dst=1, lag=16)])


def test_synth_trend_and_gain():
    ds = D.synth_generate(0, 2, 32, [D.Trend(slope=2.0, channel=0), D.CrossLag(src=0, dst=1, lag=1, gain=0.5)])
    np.testing.assert_allclose(ds.values[:, 0], 2.0 * np.arange(32.0))
    np.testing.assert_allclose(ds.values[1:, 1], 0.5 * ds.values[:-1, 0])
