"""Property-based tests of the config format and values, the CSV reader's
numeric boundaries and malformed text, the window splits, the checkpoint
reader, the scan with the tape on and off, its row groups and step blocks,
the Huber op against its elementwise chain, RevIN's affine equivariance,
and what each prediction path reads: each backbone direction, batch rows,
channels without xchannel, and ``evaluate``'s windows."""

import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf, expit

from tsmamba import checkpoint as C
from tsmamba import cli as CLI
from tsmamba import data as D
from tsmamba import model as M
from tsmamba import ssm
from tsmamba import tensor as T
from tsmamba import train as TR
from tsmamba.errors import CorruptCheckpoint, DataError, InvalidConfig, ParseError, RaggedRows
from tsmamba.tensor import Tensor

# values the architecture and the loss hardwire for the keys of earlier configs
RETIRED = {"expand_factor": 2, "revin_affine": False, "combine_mode": "add", "local_conv_kernel": 4, "huber_delta": 1.0}


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
    if type(value) in ((int, float) if type(fixed) is float else (type(fixed),)) and value == fixed:
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
SECTIONS = {"model": M.ModelConfig, "split": D.SplitSpec, "stage1": TR.Stage1Config, "stage2": TR.Stage2Config, "finetune": TR.FinetuneConfig}
# (section, key, JSON kind) of every run-config and model key; section None is
# the top level, and finetune's enable_xchannel is set by a flag, not a key
CONFIG_KEYS = (
    [(None, "seed", int), (None, "precision", str), (None, "window_stride", int)]
    + [(None, section, dict) for section in SECTIONS]
    + [(section, f.name, {"int": int, "float": float, "bool": bool}[f.type])
       for section, cls in SECTIONS.items() for f in dataclasses.fields(cls) if f.name != "enable_xchannel"]
)


def _fits(value, kind) -> bool:
    if kind is float:
        return type(value) in (int, float) and np.isfinite(value)
    return type(value) is kind


def _pretrain_stage1(raw: dict) -> tuple[int, str, list[str]]:
    """Exit code, stderr and the files left beside the config and data of
    ``pretrain --stage 1`` under the run config ``raw``."""
    with tempfile.TemporaryDirectory() as tmp:
        config, data = os.path.join(tmp, "config.json"), os.path.join(tmp, "series.csv")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        D.write_csv(D.synth_generate(0, 2, 120, [D.Sinusoid(freq=1 / 8), D.Noise(sigma=0.1)]), data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            argv = ["pretrain", "--stage", "1", "--config", config, "--data", data]
            code = CLI.main(argv + ["--out", os.path.join(tmp, "m.ckpt"), "--log", os.path.join(tmp, "log.csv")])
        left = sorted(set(os.listdir(tmp)) - {"config.json", "series.csv"})
    return code, err.getvalue(), left


# the stage, epoch and step a divergence names: "stage1_autoregressive epoch 0 step 2: loss is nan"
DIVERGES_AT = re.compile(r"stage1_autoregressive epoch \d+ step \d+: ")


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(CONFIG_KEYS), st.one_of(json_values, st.sampled_from([float("nan"), float("inf"), 1.5, True, "4"])))
@example(("stage1", "lr", float), 1e300)
@example(("stage1", "weight_decay", float), 5.5e65)
@example((None, "seed", int), -1)
@example(("split", "train_frac", float), 0)
@example(("model", "n_layers", int), -1)
@example(("model", "d_state", int), 0)
@example(("model", "head_compress_dim", int), -3)
@example(("model", "patch_len", int), 8)
def test_any_config_value_trains_or_exits_2_naming_its_key(entry, value):
    """Every value trains (0) or is refused naming its key (2); a finite
    stage-1 ``lr`` or ``weight_decay`` may also make training diverge,
    which exits 5 naming the stage and the step, and writes no file."""
    section, key, kind = entry
    raw = json.loads(json.dumps(RUN_CONFIG))
    (raw if section is None else raw.setdefault(section, {}))[key] = value
    code, err, left = _pretrain_stage1(raw)
    if code == 5:
        assert section == "stage1" and key in ("lr", "weight_decay") and _fits(value, kind), err
        assert DIVERGES_AT.search(err), err
        assert left == []
    else:
        assert code in (0, 2), err
    if code == 2:
        assert key in err, err
    if not _fits(value, kind):
        assert code == 2


SPLIT_FLAGS = ("--train-frac", "--val-frac", "--test-frac")


@settings(deadline=None, max_examples=100)
@given(st.floats(), st.floats(), st.one_of(st.none(), st.floats()))
@example(0.7, 0.1, None)
@example(float("nan"), 0.1, 0.2)
@example(0.7, float("nan"), None)
@example(0.7, 0.1, float("nan"))
@example(float("inf"), float("-inf"), None)
@example(1.0, 0.0, None)
@example(1e-300, 0.5, None)
@example(0.7, -5e-324, None)
def test_any_split_fractions_evaluate_or_exit_2_or_3(train, val, test):
    """Every float for the three split flags, NaN and +-inf included, scores
    (0), is refused naming its key (2) or finds a split too short (3); none
    escapes ``main``, and the first fraction that is not finite is named. A
    ``test`` of None is 1 - train - val, so that many draws sum to 1."""
    fractions = (train, val, 1.0 - train - val if test is None else test)
    blob, _ = _saved_checkpoint()
    with tempfile.TemporaryDirectory() as tmp:
        model, data = os.path.join(tmp, "m.ckpt"), os.path.join(tmp, "series.csv")
        with open(model, "wb") as fh:
            fh.write(blob)
        D.write_csv(D.synth_generate(0, 2, 120, [D.Sinusoid(freq=1 / 8), D.Noise(sigma=0.1)]), data)
        argv = ["evaluate", "--model", model, "--data", data, "--horizons", "4", "--out", os.path.join(tmp, "report.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = CLI.main(argv + [f"{flag}={value!r}" for flag, value in zip(SPLIT_FLAGS, fractions)])
    assert code in (0, 2, 3), err.getvalue()
    keys = [flag[2:].replace("-", "_") for flag in SPLIT_FLAGS]
    if code == 2:
        assert any(f"'{key}'" in err.getvalue() for key in keys), err.getvalue()
    not_finite = [key for key, value in zip(keys, fractions) if not np.isfinite(value)]
    if not_finite:
        assert code == 2 and f"'{not_finite[0]}' must be finite" in err.getvalue(), err.getvalue()
    elif min(fractions) < 0:
        assert code == 2


def _flipped(blob: bytes, flips) -> bytes:
    """``blob`` with each (position, xor mask) of ``flips`` applied, positions wrapping."""
    out = bytearray(blob)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


# raw bytes, any JSON text, and the working config with a few bytes flipped
byte_flips = st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=3)
config_bytes = st.one_of(
    st.binary(max_size=64),
    json_values.map(lambda v: json.dumps(v).encode("utf-8")),
    byte_flips.map(lambda flips: _flipped(json.dumps(RUN_CONFIG).encode("utf-8"), flips)),
)


@settings(deadline=None, max_examples=300)
@given(config_bytes)
@example(b"\xff" + json.dumps(RUN_CONFIG).encode("utf-8"))  # not UTF-8
@example(b"[" * 100_000)  # nested past Python's recursion limit
@example(b'{"model": ' * 100_000)
def test_any_config_bytes_load_or_are_invalid(blob):
    """On any bytes, ``load_run_config`` returns a RunConfig or raises
    InvalidConfig."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            loaded = CLI.load_run_config(path)
        except InvalidConfig:
            return
    assert isinstance(loaded, CLI.RunConfig)


@pytest.mark.parametrize(
    "precision, batch_size, key, value",
    [("float64", 32, "lr", 1e300), ("float64", 32, "lr", 3.6e8), ("float64", 32, "weight_decay", 5.5e65),
     ("float32", 64, "lr", 1e300), ("float32", 64, "weight_decay", 5.5e65), ("float32", 32, "lr", 3.5e7)],
)
def test_diverging_optimizer_setting_exits5_naming_stage_and_step(precision, batch_size, key, value):
    # no np.errstate: tier-1 makes a RuntimeWarning an error, so none may
    # escape; float32 at one step per epoch diverges in the first update
    raw = json.loads(json.dumps(RUN_CONFIG))
    raw["precision"] = precision
    raw["stage1"].update({"batch_size": batch_size, key: value})
    code, err, left = _pretrain_stage1(raw)
    assert code == 5, err
    assert DIVERGES_AT.search(err), err
    assert left == []  # no checkpoint, no log


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


def reference_load_csv(path, has_date_column=None, ffill=False):
    """``load_csv`` written out as csv.reader and one float() per cell, with
    a leading byte-order mark dropped: (values, channel_names)."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a readable CSV: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")

    def numeric(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    if has_date_column is None:
        data_rows = rows[1:] if len(rows) > 1 and not all(numeric(c) for c in rows[0]) else rows
        has_date_column = not any(numeric(row[0]) for row in data_rows)
    start_col = 1 if has_date_column else 0
    if width - start_col < 1:
        raise DataError(f"{path}: no value columns after dropping the date column")
    header = None if all(numeric(c) for c in rows[0][start_col:]) else rows[0]
    body = rows if header is None else rows[1:]
    if not body:
        raise DataError(f"{path}: header only, no data rows")
    offset = 0 if header is None else 1

    values = np.empty((len(body), width - start_col))
    for i, row in enumerate(body):
        for j, cell in enumerate(row[start_col:]):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ParseError(f"{path}: non-numeric cell at row {i + 1 + offset}, column {j + 1 + start_col}: {cell!r}") from None
    for i, row in enumerate(body):
        for j, cell in enumerate(row[start_col:]):
            if np.isinf(values[i, j]):
                raise DataError(f"{path}: infinite cell at row {i + 1 + offset}, column {j + 1 + start_col}: {cell!r}")
    for i in range(len(body)):
        if np.isnan(values[i]).any() and not ffill:
            raise DataError(f"{path}: NaN values present (first at data row {i + 1}); pass ffill to forward-fill")
    for j in range(values.shape[1]):
        for i in range(len(body)):
            if np.isnan(values[i, j]):
                if i == 0:
                    raise DataError(f"{path}: column {j + 1 + start_col} starts with NaN; cannot forward-fill")
                values[i, j] = values[i - 1, j]
    return values, None if header is None else header[start_col:]


odd_cells = st.sampled_from(
    ["1_0", "+1.5", "nan", "-NaN", "Infinity", "-inf", "1e999", "#", "#1", "", " ", " 2 ", "\t3", "x", "1 2", "١", "\xa04", "0x10", "1e", "-0"]
    + ['"1"', '"a,b"', '""', '1"', '"2', "2020-01-01", "2020-01-01 00:00", "a", "b c", "1.0", "2"]
)
line_breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0c"])


@st.composite
def csv_texts(draw):
    """CSV-like text: a grid of numbers, an optional header (possibly
    numeric-looking) and date column, and, unless the draw is clean, odd
    cells, uneven rows, trailing commas, blank and whitespace lines, and line
    breaks other than \\n; optionally after a byte-order mark."""
    clean = draw(st.booleans())
    cell = numeric_text if clean else st.one_of(numeric_text, odd_cells)
    width = draw(st.integers(1, 4))
    rows = [draw(st.lists(cell, min_size=width, max_size=width)) for _ in range(draw(st.integers(0, 6)))]
    if draw(st.booleans()):
        rows = [[draw(st.sampled_from(["2020-01-01", "2020-01-02 00:00", "t", "1", '"t"', '"1"']))] + row for row in rows]
    if draw(st.booleans()):
        rows.insert(0, draw(st.lists(st.sampled_from(["a", "b c", "1", "2.5", "date", "#", "nan", '"a"', '"b,c"', '"1"']), min_size=len(rows[0]) if rows else 1, max_size=len(rows[0]) if rows else 1)))
    lines = [",".join(row) for row in rows]
    breaks = st.sampled_from(["\n", "\r\n"])
    if not clean:
        breaks = line_breaks
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.sampled_from(["", " ", "\t", ",", "1,", "1,2,3,4,5,6"])))
        if lines and draw(st.booleans()):
            lines[-1] += ","
    text = "".join(line + draw(breaks) for line in lines)
    if lines and draw(st.booleans()):
        text = text[: -1 if text.endswith(("\n", "\r", "\x0c")) else None]
    return ("\ufeff" if draw(st.booleans()) else "") + text


@settings(deadline=None, max_examples=600)
@given(csv_texts(), st.sampled_from([None, True, False]), st.booleans())
@example("\ufeff1.0,2.0\n3.0,4.0\n5.0,6.0\n", None, False)
@example("\ufeffa,b\n1,2\n3,4\n", None, False)
@example("a,b\n1_0,2\n3,4\n", None, False)
@example('"a",b\n1,2\n', None, False)
@example("a,b\r10,2\r\n\n3,4\r", None, False)
@example("d,a\nx,1,\ny,2,\n", None, False)
@example("d,a\nx,1,2\ny\n", None, False)
@example("a\x0cb\n1\x0c2\n", None, False)
@example("t,1\nu,1e999\n", None, True)
@example("a,b\nnan,1\n2,3\n", None, True)
@example("a,b\n1,2\nnan,3\n", False, True)
def test_load_csv_matches_the_cell_by_cell_reader(text, has_date_column, ffill):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "diff.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            expected = reference_load_csv(path, has_date_column, ffill)
        except DataError as exc:
            with pytest.raises(type(exc)) as err:
                D.load_csv(path, has_date_column=has_date_column, ffill=ffill)
            assert type(err.value) is type(exc) and str(err.value) == str(exc)
            return
        ds = D.load_csv(path, has_date_column=has_date_column, ffill=ffill)
    values, channel_names = expected
    # the shape shows whether a date column was found and dropped
    assert ds.values.dtype == np.float64 and ds.values.shape == values.shape
    assert ds.values.tobytes() == values.tobytes()
    assert ds.channel_names == channel_names


@pytest.mark.parametrize("bad_at", [5, 12_000])
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_load_csv_names_a_bad_byte_as_the_streaming_reader_does(bad_at, bom):
    # the message is csv.reader's over a UTF-8 text stream, whose position is
    # within the chunk being decoded, not the bad byte's offset in the file
    body = b"".join(b"%d.25,%d.5\n" % (i, -i) for i in range(2000))
    blob = bom + b"a,b\n" + body[:bad_at] + b"\xff" + body[bad_at:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "latin.csv")
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(UnicodeDecodeError) as stream:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                list(csv.reader(fh))
        with pytest.raises(ParseError) as err:
            D.load_csv(path)
    assert str(err.value) == f"{path}: not a readable CSV: {stream.value}"


def float_accepts(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


# first-column cells near float()'s grammar: its characters, Unicode digits
# and whitespace, and the characters of dates and times
head_cells = st.one_of(
    st.text(st.sampled_from(list("0123456789+-._eEinfatyINFATY :/T") + ["\u0663", "\u00a0", "\u2003", "\x1c", "\t"]), max_size=12),
    st.sampled_from(["1_0", "_1", "nan", "-inf", "+Infinity", " 1e-5 ", "1e+5", "e-5", "1-2", "\u0663.5", "\u2003-1", "2016-07-01", "2016-07-01 00:00:00", "07/01/2016"]),
    st.floats().map(repr),
    st.text(max_size=12),
)


@settings(deadline=None, max_examples=500)
@given(st.lists(head_cells, min_size=1, max_size=6))
def test_date_column_detection_agrees_with_float_per_row(heads):
    # a headed table: the first column is a date column when float() rejects
    # the first cell of every later row
    start_col, header_rows = D._layout("t.csv", ["date", "v"], len(heads) + 1, iter(heads), None)
    assert start_col == (not any(map(float_accepts, heads))) and header_rows == 1
    assert [D._looks_numeric(c) for c in heads] == [float_accepts(c) for c in heads]


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
    assert list(train.origins) == [t for t in grid if t + horizon <= n1]
    assert list(val.origins) == [t for t in grid if t >= n1 and t + horizon <= n2]
    assert list(test.origins) == [t for t in grid if t >= n2]
    for windows in (train, val, test):
        for t, x, y in zip(windows.origins, windows.inputs, windows.targets):
            assert (t - lookback) % stride == 0
            np.testing.assert_array_equal(x, values[t - lookback : t].T, strict=True)
            np.testing.assert_array_equal(y, values[t : t + horizon].T, strict=True)


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


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.binary(max_size=64), json_values.map(lambda v: json.dumps(v).encode("utf-8"))), st.binary(max_size=32))
@example(b"[" * 100_000, b"")  # nested past Python's recursion limit
@example(b'{"format_version": ' * 100_000, b"")
def test_any_manifest_bytes_load_or_are_corrupt(manifest, payload):
    """On any bytes after a valid magic and manifest length,
    ``load_checkpoint`` returns a Checkpoint or raises CorruptCheckpoint
    naming the file."""
    _load_or_corrupt(C.MAGIC + len(manifest).to_bytes(8, "little") + manifest + payload)


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
    dims = tuple(draw(st.integers(1, hi)) for hi in (3, 24, 5, 4))  # [B, L, d_inner, n_state]
    return dims, draw(st.sampled_from([np.float32, np.float64])), draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=150)
@given(scan_cases(), st.integers(1, 6))
def test_scan_segment_lengths_change_no_bits(case, d_model):
    """The layer op, the scan's one tape entry, gives the same bytes taped
    (fresh arrays) and not (the no_grad block's workspace, reused by a
    second call)."""
    (batch, length, d_inner, n_state), dtype, seed = case
    rng = np.random.default_rng(seed)
    p = ssm.init_mamba_block(rng, d_model, d_inner, n_state, 4, dtype, "b")
    for q in p.parameters():
        q.assign((q.value.array + 0.3 * rng.standard_normal(q.value.shape)).astype(dtype))
    gain = Tensor((1.0 + 0.3 * rng.standard_normal(d_model)).astype(dtype))
    x, other = rng.standard_normal((2, batch, length, d_model)).astype(dtype)
    with T.no_grad():
        ssm.mamba_block_batched(Tensor(other), gain, p)
        off = ssm.mamba_block_batched(Tensor(x), gain, p)
    on = ssm.mamba_block_batched(Tensor(x, requires=True), gain, p)
    assert on.pairs and not off.pairs
    assert on.array.tobytes() == off.array.tobytes()


def whole_batch_scan(g, x, weights):
    """The scan's output, the gradients of <g, y> and, for a_log's gradient,
    the sum of its terms' magnitudes, with every batch row stepped together,
    as the kernel ran before it stepped rows in groups. It shares only the
    token-sized maps of ``ssm._StepCoeffs``; dtx, softplus's argument, the
    steps and the tail are written out here with the kernel's operations."""
    a, w_b, w_c, w_dt, dt_bias, d_skip = weights
    co = ssm._StepCoeffs(x, weights)
    pre = np.add(np.matmul(x, w_dt), dt_bias)
    dtx = co.dt * x
    b_, l_, d = x.shape
    n = a.shape[1]

    def a_bar(t):
        return np.exp(np.einsum("bd,nd->bnd", co.dt[:, t], co.a))

    hs = np.zeros((l_ + 1, b_, n, d), dtype=x.dtype)
    y = np.empty_like(x)
    for t in range(l_):
        hs[t + 1] = a_bar(t) * hs[t] + np.einsum("bn,bd->bnd", co.b[:, t], dtx[:, t])
        y[:, t] = np.matmul(co.c[:, t, None, :], hs[t + 1])[:, 0, :]
    y += d_skip * x
    carry = np.zeros((b_, n, d), dtype=x.dtype)
    g_b, g_c, rb, g_ua = np.empty_like(co.b), np.empty_like(co.c), np.empty_like(x), np.empty_like(x)
    g_a, g_a_abs = np.zeros_like(co.a), np.zeros_like(co.a)
    for t in range(l_ - 1, -1, -1):
        lam = np.einsum("bn,bd->bnd", co.c[:, t], g[:, t]) + carry
        carry = a_bar(t) * lam
        g_c[:, t] = np.matmul(hs[t + 1], g[:, t, :, None])[..., 0]
        rb[:, t] = np.matmul(co.b[:, t, None, :], lam)[:, 0, :]
        g_b[:, t] = np.matmul(lam, dtx[:, t, :, None])[..., 0]
        g_u = carry * hs[t]
        g_a += np.einsum("bnd,bd->nd", g_u, co.dt[:, t])
        g_a_abs += np.einsum("bnd,bd->nd", np.abs(g_u), co.dt[:, t])  # dt > 0
        g_ua[:, t] = np.einsum("bnd,nd->bd", g_u, co.a)
    g_pre = (x * rb + g_ua) * T._sigmoid(pre)
    g_s = g_pre.sum(axis=-1, keepdims=True)
    gx = g * d_skip
    gx += co.dt * rb + g_s * w_dt[:, 0] + g_b @ w_b.T + g_c @ w_c.T
    xf = x.reshape(-1, d).T
    g_wdt = (xf @ g_s.reshape(-1, 1)).reshape(-1)
    grads = gx, g_a.T * a, xf @ g_b.reshape(-1, n), xf @ g_c.reshape(-1, n), g_wdt, g_pre.sum(axis=(0, 1)), (g * x).sum(axis=(0, 1))
    return y, grads, g_a_abs.T * np.abs(a)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 20), st.integers(0, 9), st.integers(1, 8), st.integers(1, 4), st.data(),
    st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1),
)
def test_row_groups_change_no_bits_but_a_logs(batch, length, d_inner, n_state, data, dtype, seed):
    """Any row group size gives the whole-batch kernel's output and gradients
    to the byte, except a_log's: its per-step sum over the rows runs group by
    group, so it moves within a reordered sum's rounding."""
    rows = data.draw(st.integers(1, batch), label="rows per group")
    rng = np.random.default_rng(seed)
    p = ssm.init_ssm_params(rng, d_inner, n_state, dtype, "s")
    for q in p.parameters():
        q.assign((q.value.array + 0.3 * rng.standard_normal(q.value.shape)).astype(dtype))
    weights = ssm._scan_weights(p, dtype)
    x, g = rng.standard_normal((2, batch, length, d_inner)).astype(dtype)
    want_y, want, a_log_abs = whole_batch_scan(g, x, weights)
    with mock.patch.object(ssm, "SCAN_BUDGET", rows * n_state * d_inner * np.dtype(dtype).itemsize):
        assert ssm._StepCoeffs(x, weights).group_rows == rows
        y = ssm._sequential_scan_np(x, weights)
        got = ssm._sequential_scan_vjp(g, x, weights, True)
        frozen = ssm._sequential_scan_vjp(g, x, weights, False)
    assert y.tobytes() == want_y.tobytes()
    for name, got_i, want_i in zip(("x", *(q.name for q in p.parameters())), got, want, strict=True):
        assert got_i.dtype == want_i.dtype and got_i.shape == want_i.shape, name
        if name != "s.a_log":
            assert got_i.tobytes() == want_i.tobytes(), name
    assert frozen[0].tobytes() == want[0].tobytes() and frozen[1:] == (None,) * 6
    # each a_log entry sums m = batch * length terms; a sum in any order is
    # within (m - 1) * eps * sum(|term|) of the exact sum, so two orders are
    # within twice that of each other
    tol = 2 * batch * length * np.finfo(dtype).eps * a_log_abs
    assert (np.abs(got[1] - want[1]) <= tol).all()


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from([1, 2, 7]), st.integers(1, 20), st.integers(1, 6), st.integers(1, 4), st.integers(1, 21),
    st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1),
)
@example(batch=1, length=10, d_inner=5, n_state=3, span=3, dtype=np.float32, seed=1)
@example(batch=2, length=10, d_inner=5, n_state=3, span=4, dtype=np.float64, seed=2)
@example(batch=7, length=10, d_inner=5, n_state=3, span=3, dtype=np.float32, seed=3)
@example(batch=7, length=11, d_inner=5, n_state=3, span=4, dtype=np.float64, seed=4)
def test_block_lengths_change_no_bits(batch, length, d_inner, n_state, span, dtype, seed):
    """Filling a block of steps' coefficients at once gives the one-step
    kernel's output and all seven gradients, a_log's included, to the byte,
    at any block length, a partial last block included. The budget keeps
    every row in one group and sets ``span`` steps per block."""
    rng = np.random.default_rng(seed)
    p = ssm.init_ssm_params(rng, d_inner, n_state, dtype, "s")
    for q in p.parameters():
        q.assign((q.value.array + 0.3 * rng.standard_normal(q.value.shape)).astype(dtype))
    weights = ssm._scan_weights(p, dtype)
    x, g = rng.standard_normal((2, batch, length, d_inner)).astype(dtype)
    want_y, want, _ = whole_batch_scan(g, x, weights)
    state = batch * n_state * d_inner * np.dtype(dtype).itemsize
    with mock.patch.object(ssm, "SCAN_BUDGET", span * state + state - 1):
        co = ssm._StepCoeffs(x, weights)
        next(co.groups())
        assert co.group_rows == batch and co.span == min(span, length)
        y = ssm._sequential_scan_np(x, weights)
        got = ssm._sequential_scan_vjp(g, x, weights, True)
        frozen = ssm._sequential_scan_vjp(g, x, weights, False)
    assert y.tobytes() == want_y.tobytes()
    for name, got_i, want_i in zip(("x", *(q.name for q in p.parameters())), got, want, strict=True):
        assert got_i.dtype == want_i.dtype and got_i.shape == want_i.shape, name
        assert got_i.tobytes() == want_i.tobytes(), name
    assert frozen[0].tobytes() == want[0].tobytes() and frozen[1:] == (None,) * 6


@settings(deadline=None, max_examples=200)
@given(
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=4), st.integers(1, 5),
    st.sampled_from([np.float32, np.float64]), st.data(),
)
def test_linear_bias_gradient_sums_leading_axes_one_at_a_time(lead, n, dtype, data):
    """linear's bias gradient has the bytes of the sum, one leading axis at
    a time and first to last, that a bias widened to [1, ..., 1, n] got."""
    g = data.draw(hnp.arrays(dtype, lead + (n,), elements=st.floats(-1e6, 1e6, width=32)), label="g")
    x, w, b = Tensor(np.ones(lead + (2,), dtype)), Tensor(np.ones((2, n), dtype)), Tensor(np.zeros(n, dtype), requires=True)
    got = T.linear(x, w, b).pairs[0][1](g)
    want = g
    for axis, size in enumerate(lead):
        if size != 1:
            want = want.sum(axis=axis, keepdims=True)
    assert got.dtype == dtype and got.tobytes() == want.reshape(n).tobytes()


def old_rows_per_group(batch, n_state, d_inner, itemsize):
    """Rows per scan group as ``_StepCoeffs`` computed them inline."""
    return max(1, min(batch, ssm.SCAN_BUDGET // (n_state * d_inner * itemsize)))


def old_group_windows(cfg, channels, itemsize):
    """Windows per forecast call as ``cli._group_windows`` computed them inline."""
    return max(1, ssm.SCAN_BUDGET // (channels * cfg.d_inner * cfg.d_state * itemsize))


@settings(deadline=None, max_examples=200)
@given(
    st.integers(0, 64), st.integers(1, 32), st.integers(5, 256), st.integers(1, 16),
    st.sampled_from([np.float32, np.float64]), st.integers(1, 2**22),
)
def test_rows_per_group_keeps_both_old_formulas(batch, n_state, d_model, channels, dtype, budget):
    """``ssm.rows_per_group`` gives both callers what they computed inline."""
    cfg = M.ModelConfig(horizon=1, n_channels=1, lookback=2, patch_len=1, d_model=d_model, d_state=n_state)
    itemsize = np.dtype(dtype).itemsize
    weights = ssm._scan_weights(ssm.init_ssm_params(np.random.default_rng(0), cfg.d_inner, n_state, dtype, "s"), dtype)
    x = np.zeros((batch, 1, cfg.d_inner), dtype)
    with mock.patch.object(ssm, "SCAN_BUDGET", budget):
        assert ssm._StepCoeffs(x, weights).group_rows == old_rows_per_group(batch, n_state, cfg.d_inner, itemsize)
        assert M.window_group(cfg, channels, itemsize) == old_group_windows(cfg, channels, itemsize)


def chain_huber(pred, target, delta):
    """The Huber loss as the elementwise chain of taped ops it was before it
    became one op: sub -> absolute -> mul -> scale -> scale - constant ->
    where -> mean_all. ``absolute``, ``where`` and the constant are written
    out here with the operations those ops had."""
    e = T.sub(pred, target)
    ev = e.array
    ae = T.apply_op(np.abs(ev), [(e, lambda g: g * np.sign(ev))])
    quad = T.scale(T.mul(e, e), 0.5)
    lin = T.sub(T.scale(ae, delta), Tensor(np.full(ae.shape, delta * delta / 2.0, dtype=ae.dtype)))
    cond = ae.array <= delta
    picked = T.apply_op(
        np.where(cond, quad.array, lin.array),
        [(quad, lambda g: np.where(cond, g, 0.0)), (lin, lambda g: np.where(cond, 0.0, g))],
    )
    return T.mean_all(picked)


@st.composite
def huber_cases(draw):
    """(pred, target, delta): errors from e^-8 to e^8, absolute or in units
    of delta, with planted exact zero errors, +-0.0 inputs and |e| == delta."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(1, 12))
    delta = float(10.0 ** draw(st.floats(-6, 6)))
    unit = delta if draw(st.booleans()) else 1.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pred, target = (unit * np.exp(rng.uniform(-8, 8, (2, n))) * rng.choice([-1.0, 1.0], (2, n))).astype(dtype)
    for i, kind in enumerate(draw(st.lists(st.sampled_from(["free", "zero", "signed_zeros", "at_delta"]), min_size=n, max_size=n))):
        signs = rng.choice([-1.0, 1.0], 2)
        if kind == "zero":
            target[i] = pred[i]
        elif kind == "signed_zeros":
            pred[i], target[i] = signs * 0.0
        elif kind == "at_delta":
            pred[i], target[i] = signs[0] * delta, signs[1] * 0.0
    return pred, target, delta


@settings(deadline=None, max_examples=400)
@given(huber_cases())
def test_huber_op_has_the_chains_bytes(case):
    """The one-op Huber loss gives its elementwise chain's loss and both
    gradients to the byte, signed zeros included."""
    pred, target, delta = case
    results = []
    for loss_fn in (TR.huber_loss, chain_huber):
        p, t = Tensor(pred.copy(), requires=True), Tensor(target.copy(), requires=True)
        loss = loss_fn(p, t, delta)
        grads = T.grad_map(loss)
        results.append([loss.array, grads[id(p)], grads[id(t)]])
    for name, got, want in zip(("loss", "pred grad", "target grad"), *results):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


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


def assert_within_rounding(got, ref, abs_sum, n_terms):
    """Each element of ``got``, a sum of ``n_terms`` products in its dtype,
    is within ``n_terms * eps * abs_sum`` of ``ref``, the same sum in float64,
    where ``abs_sum`` sums the terms' magnitudes: a float sum in any order is
    within about half that of the exact sum, and so is the reference. A bound
    scaled by the result instead would fail where the terms cancel."""
    assert got.shape == ref.shape
    bound = n_terms * np.finfo(got.dtype).eps * abs_sum
    err = np.abs(got.astype(np.float64) - ref)
    assert (err <= bound).all(), (err.max(), bound[np.unravel_index(err.argmax(), err.shape)])


@settings(deadline=None, max_examples=120)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=3),
    st.integers(1, 24),
    st.integers(1, 24),
    st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**32 - 1),
)
# 36 weight-gradient terms whose magnitudes sum to 29.3 cancel to 0.0082
@example(lead=[6, 6], k=1, n=1, dtype=np.float32, seed=25473935)
def test_weight_matmul_matches_batched_reference(lead, k, n, dtype, seed):
    # a 2-D right operand takes the flattened path: one GEMM per product
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((*lead, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    g = rng.standard_normal((*lead, n)).astype(dtype)
    out = T.matmul(Tensor(a, requires=True), Tensor(b, requires=True))
    assert out.array.dtype == dtype
    a64, b64, g64 = (v.astype(np.float64) for v in (a, b, g))
    assert_within_rounding(out.array, np.matmul(a64, b64), np.matmul(np.abs(a64), np.abs(b64)), k)
    (_, vjp_a), (_, vjp_b) = out.pairs
    ga, gb = vjp_a(g), vjp_b(g)
    assert ga.dtype == gb.dtype == dtype
    assert_within_rounding(ga, np.matmul(g64, b64.T), np.matmul(np.abs(g64), np.abs(b64).T), n)

    def batched_weight_grad(x, y):
        return np.matmul(np.swapaxes(x, -1, -2), y).reshape(-1, k, n).sum(axis=0)

    n_rows = int(np.prod(lead))
    assert_within_rounding(gb, batched_weight_grad(a64, g64), batched_weight_grad(np.abs(a64), np.abs(g64)), n_rows)


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


# float32 or float64 arrays over the whole float range and over the part
# where erf is not yet +-1, with the branch edge |x| = 1, zeros of both signs,
# subnormals, the largest finite values, infinities and nan
def erf_inputs(dtype):
    info = np.finfo(dtype)
    width = info.bits
    tiny, big = float(info.smallest_subnormal), float(info.max)
    edges = st.sampled_from([0.0, -0.0, tiny, -tiny, 1.0, -1.0, big, -big, np.inf, -np.inf, np.nan])
    elements = st.one_of(st.floats(-7.0, 7.0, width=width), st.floats(width=width), edges)
    return hnp.arrays(dtype, st.integers(1, 64), elements=elements)


F32_MAX = float(np.finfo(np.float32).max)
ERF_EDGES = [-np.inf, -F32_MAX, -8.0, -6.0, -1.0, -0.0, 0.0, 1e-45, 0.5, 1.0, 1.0000001, 5.9, F32_MAX, np.inf, np.nan]


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([np.float32, np.float64]).flatmap(erf_inputs))
@example(np.array(ERF_EDGES, dtype=np.float32))
@example(np.array(ERF_EDGES + [5e-324, 1.7976931348623157e308, -1.7976931348623157e308], dtype=np.float64))
def test_erf_matches_scipy(x):
    """scipy's erf is the oracle: the same Cephes approximations in float64.
    float32 results are byte-identical; float64 ones differ by at most 1 ulp,
    where numpy's exp rounds differently from the C library's."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = T._erf(x)
    want = erf(x)
    assert got.dtype == x.dtype and got.shape == x.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    got, want = got[~nan], want[~nan]
    if x.dtype == np.float32:
        assert got.tobytes() == want.tobytes()
    else:
        # erf is odd and both agree in sign, so the distance between the
        # integer views of the magnitudes is the distance in ulps
        assert (np.signbit(got) == np.signbit(want)).all()
        ulps = np.abs(np.abs(got).view(np.int64) - np.abs(want).view(np.int64))
        assert ulps.max(initial=0) <= 1


@settings(deadline=None, max_examples=200)
@given(hnp.arrays(np.float64, st.integers(1, 64), elements=st.floats(-1e6, 1e6)))
def test_gelu_float64_within_erf_ulp(x):
    """x * (1 + erf) / 2 carries erf's 1-ulp difference scaled by |x| / 2.
    In the left tail, where gelu is near 0, that is many of gelu's own ulps,
    so the bound is absolute."""
    got = T.gelu(Tensor(x)).array
    want = x * (0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0)))))
    assert (np.abs(got - want) <= np.abs(x) * 2.0**-52 + np.spacing(np.abs(want))).all()


# ---------------------------------------------------------------------------
# Information flow: perturbing what a prediction may not read leaves it
# byte-identical, and perturbing what it reads moves it
# ---------------------------------------------------------------------------


def drawn_model(cfg, seed, dtype=np.float64):
    """A model whose every tensor is drawn: the zero-initialized head and
    xchannel expansion would hide what they read."""
    model = M.build_model(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.assign((p.value.array + 0.3 * rng.standard_normal(p.value.shape)).astype(dtype))
    return model


def scan_group_rows(cfg, rows, dtype=np.float64):
    """A ``SCAN_BUDGET`` under which the scan steps ``rows`` rows per group."""
    return mock.patch.object(ssm, "SCAN_BUDGET", rows * cfg.d_state * cfg.d_inner * np.dtype(dtype).itemsize)


def tape(taped):
    return contextlib.nullcontext() if taped else T.no_grad()


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 6), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
    st.booleans(), st.integers(0, 2**32 - 1), st.data(),
)
def test_each_backbone_direction_reads_only_its_own_side(n_tokens, patch_len, group, groups, n_layers, taped, seed, data):
    """Token t of ``fwd_rep`` reads patches 0..t and token t of ``bwd_rep``
    patches t..n_tokens-1: moving patch s leaves the forward tokens before s
    and the backward tokens after s byte-identical, and moves token s of
    both in every row. The rows outnumber a scan group, so the scan steps
    several groups, the last possibly partial."""
    cfg = M.ModelConfig(horizon=1, n_channels=1, lookback=n_tokens * patch_len, patch_len=patch_len, d_model=4, n_layers=n_layers, d_state=2,
                        head_compress_dim=2)
    model = drawn_model(cfg, seed)
    rows = group * (1 + groups) + data.draw(st.integers(0, group - 1), label="rows of a partial group")
    s = data.draw(st.integers(0, n_tokens - 1), label="moved patch")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cfg.lookback))
    moved = x.copy()
    moved[:, s * patch_len : (s + 1) * patch_len] += 1.0 + rng.random((rows, patch_len))
    with scan_group_rows(cfg, group), tape(taped):
        assert ssm.rows_per_group(cfg.d_state, cfg.d_inner, 8) == group < rows
        fwd, bwd = (rep.array for rep in M.backbone_forward(Tensor(x), model))
        fwd_m, bwd_m = (rep.array for rep in M.backbone_forward(Tensor(moved), model))
    assert fwd[:, :s].tobytes() == fwd_m[:, :s].tobytes()
    assert bwd[:, s + 1 :].tobytes() == bwd_m[:, s + 1 :].tobytes()
    assert (fwd[:, s] != fwd_m[:, s]).any(axis=-1).all()
    assert (bwd[:, s] != bwd_m[:, s]).any(axis=-1).all()


@st.composite
def score_cases(draw):
    """(test split, windows per score group, the split's ChannelStats): a
    drawn series standardized with its train statistics, at a drawn stride,
    and a group from one window to past the whole split."""
    channels = draw(st.integers(1, 4), label="channels")
    lookback = draw(st.integers(2, 8), label="lookback")
    horizon = draw(st.integers(1, 40), label="horizon")
    train_end = draw(st.integers(2, 20), label="train end")
    val_end = train_end + draw(st.integers(0, 10), label="val rows")
    stride = draw(st.integers(1, 4), label="stride")
    n_rows = max(val_end, lookback) + horizon + stride - 1 + draw(st.integers(0, 40), label="test rows past one window")
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed")).standard_normal((n_rows, channels)) * 10.0 + 3.0
    ds = D.TimeSeriesDataset("series", values)
    stats = D.compute_train_stats(ds, train_end)
    _, _, test = D.split_windows(D.standardize(ds, stats), D.SplitSpec(), lookback, horizon, stride, (train_end, val_end))
    assert len(test) > 0
    return test, draw(st.integers(1, len(test) + 3), label="group"), stats


@settings(deadline=None, max_examples=100)
@given(score_cases(), st.booleans(), st.data())
def test_score_rows_are_each_windows_metrics_at_any_group(case, raw, data):
    """``data.score`` with ``repeat_last`` and with the oracle gives, at any
    group size, rows byte-identical to ``metric_mse``/``metric_mae`` of each
    window alone, in raw space too when given the stats. The oracle scores
    exactly 0, and a forecast moved in one window moves that window's row
    and leaves every other row's bytes."""
    windows, group, stats = case
    stats = stats if raw else None

    def oracle(part):
        return part.targets

    for predict in (D.repeat_last, oracle):
        preds, targets = predict(windows), np.array(windows.targets)
        pairs = [(preds, targets)]
        if stats is not None:
            pairs.append((preds * stats.std[:, None] + stats.mean[:, None], targets * stats.std[:, None] + stats.mean[:, None]))
        want = np.array([[metric(p[i], t[i]) for p, t in pairs for metric in (D.metric_mse, D.metric_mae)] for i in range(len(windows))])
        assert D.score(predict, windows, group, stats).tobytes() == want.tobytes()
        assert D.score(predict, windows, 1, stats).tobytes() == want.tobytes()
    assert not D.score(oracle, windows, group, stats).any()

    i = data.draw(st.integers(0, len(windows) - 1), label="moved window")
    channel = data.draw(st.integers(0, windows.n_channels - 1), label="moved channel")
    step = data.draw(st.integers(0, windows.horizon - 1), label="moved step")

    def moved(part):
        preds = D.repeat_last(part)
        if windows.origins[i] in part.origins:
            preds[part.origins.index(windows.origins[i]), channel, step] += 1e4
        return preds

    base, after = D.score(D.repeat_last, windows, group, stats), D.score(moved, windows, group, stats)
    others = np.arange(len(windows)) != i
    assert after[others].tobytes() == base[others].tobytes()
    assert (after[i] != base[i]).all()


@st.composite
def batch_cases(draw):
    """(model, windows, moved window, moved inputs, rows per scan group): a
    drawn model without xchannel, a batch of 2-6 windows, and one channel of
    one window moved."""
    d_model = draw(st.integers(2, 6), label="d_model")
    lookback = draw(st.sampled_from([8, 12, 16]), label="lookback")
    channels = draw(st.integers(1, 3), label="channels")
    cfg = M.ModelConfig(horizon=draw(st.integers(1, 8), label="horizon"), n_channels=channels, lookback=lookback, patch_len=4,
                        d_model=d_model, n_layers=1, d_state=2, head_compress_dim=1)
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    model = drawn_model(cfg, seed)
    n_windows = draw(st.integers(2, 6), label="windows")
    rng = np.random.default_rng(seed)
    windows = D.Windows.over(rng.standard_normal((lookback + n_windows - 1 + cfg.horizon, channels)), lookback, cfg.horizon)
    moved = np.array(windows.inputs, order="C")
    i = draw(st.integers(0, n_windows - 1), label="moved window")
    moved[i, draw(st.integers(0, channels - 1), label="moved channel")] += 1.0
    group = draw(st.integers(1, n_windows * channels - 1), label="rows per scan group")
    return model, windows, i, moved, group


@settings(deadline=None, max_examples=60)
@given(batch_cases(), st.booleans())
def test_batch_rows_are_independent(case, taped):
    """A batch's rows share nothing but their shape: moving one window moves
    its own forecast and leaves every other one byte-identical, in
    ``forecast_normalized``, taped and not, and in ``model.forecast_windows``.
    Stepping the rows in scan groups of any size, a partial last group and
    its blocks of several steps included, changes no byte."""
    model, windows, i, moved, group = case
    x = np.array(windows.inputs, order="C")
    moved_windows = D.Windows(np.concatenate([moved, np.array(windows.targets)], axis=2), windows.lookback, windows.origins)
    outs = {}
    for rows in (group, None):
        budget = scan_group_rows(model.config, rows) if rows else contextlib.nullcontext()
        with budget, tape(taped):
            base, after = (M.forecast_normalized(Tensor(v), model).array for v in (x, moved))
        with budget:
            cli_base, cli_after = (M.forecast_windows(model, w, "series") for w in (windows, moved_windows))
        outs[rows] = (base, after, cli_base, cli_after)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(outs[group], outs[None]))
    others = np.arange(len(windows)) != i
    for base, after in (outs[group][:2], outs[group][2:]):
        assert after[others].tobytes() == base[others].tobytes()
        assert (after[i] != base[i]).any()


# One window forecast alone and the same window in a batch of two differ in
# their last bits: numpy hands a one-row product to BLAS's gemv, and
# OpenBLAS's gemm rounds a row by how many rows share it at some shapes
# (here the head's [rows, 8] x [8, 3] product).
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a GEMM row's rounding depends on the rows that share it")
@settings(deadline=None, max_examples=40)
@given(batch_cases(), st.booleans())
@example(
    case=(drawn_model(M.ModelConfig(horizon=3, n_channels=1, lookback=16, patch_len=4, d_model=4, n_layers=1, d_state=2,
                                    head_compress_dim=2), 0),
          D.Windows.over(np.random.default_rng(0).standard_normal((20, 1)), 16, 3), 0, None, 1),
    taped=False,
)
def test_a_batch_forecasts_each_window_as_it_would_alone(case, taped):
    """``forecast_normalized``, taped and not, and ``model.forecast_windows``
    of a batch equal each window forecast alone, byte for byte."""
    model, windows, _, _, _ = case
    x = np.array(windows.inputs, order="C")
    with tape(taped):
        batch = M.forecast_normalized(Tensor(x), model).array
        alone = np.concatenate([M.forecast_normalized(Tensor(x[j : j + 1]), model).array for j in range(len(x))])
    cli_alone = np.concatenate([M.forecast_windows(model, windows[j : j + 1], "series") for j in range(len(x))])
    assert batch.tobytes() == alone.tobytes()
    assert M.forecast_windows(model, windows, "series").tobytes() == cli_alone.tobytes()


@settings(deadline=None, max_examples=50)
@given(
    st.integers(2, 5), st.integers(1, 3), st.integers(1, 4), st.integers(2, 4), st.integers(1, 8), st.integers(2, 6),
    st.booleans(), st.integers(0, 2**32 - 1), st.data(),
)
def test_channels_are_independent_without_xchannel(channels, n_windows, n_tokens, patch_len, horizon, d_model, taped, seed, data):
    """Without the cross-channel module, moving one channel of a raw window
    leaves every other channel's forecast byte-identical and moves its own."""
    cfg = M.ModelConfig(horizon=horizon, n_channels=channels, lookback=n_tokens * patch_len, patch_len=patch_len,
                        d_model=d_model, n_layers=1, d_state=2, head_compress_dim=1)
    model = drawn_model(cfg, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_windows, channels, cfg.lookback)) * 3.0 + 10.0
    c = data.draw(st.integers(0, channels - 1), label="moved channel")
    moved = x.copy()
    moved[:, c] += rng.standard_normal((n_windows, cfg.lookback))
    with tape(taped):
        out = M.forecast(Tensor(x), model).array
        out_m = M.forecast(Tensor(moved), model).array
    others = np.arange(channels) != c
    assert out_m[:, others].tobytes() == out[:, others].tobytes()
    assert (out_m[:, c] != out[:, c]).any(axis=-1).all()


def window_error_rows(path) -> dict[int, tuple[str, str]]:
    with open(path, newline="") as fh:
        return {int(r["origin_index"]): (r["mse"], r["mae"]) for r in csv.DictReader(fh)}


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_evaluate_moves_only_the_windows_that_hold_a_moved_test_value(channels, seed, data):
    """``evaluate`` standardizes with train-split statistics only: moving one
    raw value at or after ``--val-end`` leaves the ``--window-errors`` row of
    every window whose span [t-L, t+H) misses its row unchanged, and changes
    at least one window that holds it. The head is drawn, so the forecasts
    read the inputs."""
    lookback, horizon, n_rows, train_end, val_end = 16, 4, 80, 40, 56
    cfg = M.ModelConfig(horizon=horizon, n_channels=channels, lookback=lookback, patch_len=4, d_model=4, n_layers=1, d_state=2, head_compress_dim=2)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_rows, channels))
    row = data.draw(st.integers(val_end, n_rows - 1), label="moved row")
    moved = values.copy()
    moved[row, data.draw(st.integers(0, channels - 1), label="moved channel")] += data.draw(st.sampled_from([-5.0, 5.0]))
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "model.ckpt")
        C.save_checkpoint(C.checkpoint_from_model(drawn_model(cfg, seed), "stage2"), ckpt)
        for name, series in (("base", values), ("moved", moved)):
            os.mkdir(os.path.join(tmp, name))
            path = os.path.join(tmp, name, "series.csv")
            D.write_csv(D.TimeSeriesDataset(name="series", values=series), path)
            argv = ["evaluate", "--model", ckpt, "--data", path, "--horizons", str(horizon), "--train-end", str(train_end),
                    "--val-end", str(val_end), "--out", os.path.join(tmp, name, "report.csv"),
                    "--window-errors", os.path.join(tmp, name, "windows.csv")]
            assert CLI.main(argv) == 0
            errors.append(window_error_rows(os.path.join(tmp, name, "windows.csv")))
    base, after = errors
    assert sorted(base) == sorted(after) == list(range(val_end, n_rows - horizon + 1))
    holds = {t for t in base if t - lookback <= row < t + horizon}
    assert all(after[t] == base[t] for t in base if t not in holds)
    assert any(after[t] != base[t] for t in holds)
