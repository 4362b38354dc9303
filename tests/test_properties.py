"""Property-based tests of the config format and the CSV reader's numeric boundaries."""

import json
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from tsmamba import data as D
from tsmamba import model as M
from tsmamba.errors import DataError, InvalidConfig

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


@settings(deadline=None)
@given(model_configs(), st.sampled_from(sorted(RETIRED)), any_json_value)
def test_retired_key_rejected_at_any_other_value(cfg, key, value):
    fixed = RETIRED[key]
    if type(value) is type(fixed) and value == fixed:
        return
    with pytest.raises(InvalidConfig, match=key):
        M.ModelConfig.from_dict({**cfg.to_dict(), key: value})


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
