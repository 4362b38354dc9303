"""Unit tests for the binary checkpoint format."""

import json
import struct

import numpy as np
import pytest

from tsmamba import checkpoint as C
from tsmamba import model as M
from tsmamba import tensor as T
from tsmamba.errors import CheckpointMismatch, CorruptCheckpoint, InvalidConfig, VersionMismatch


def tiny_model(seed=0, dtype=np.float64, **overrides):
    base = dict(horizon=4, n_channels=2, lookback=16, patch_len=4, d_model=8, n_layers=1, d_state=2, head_compress_dim=4)
    base.update(overrides)
    return M.build_model(M.ModelConfig(**base), seed=seed, dtype=dtype)


def _read_parts(path):
    blob = open(path, "rb").read()
    (mlen,) = struct.unpack("<Q", blob[8:16])
    manifest = json.loads(blob[16 : 16 + mlen])
    payload = blob[16 + mlen :]
    return manifest, payload


def _write_parts(path, manifest, payload):
    raw = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(C.MAGIC)
        fh.write(struct.pack("<Q", len(raw)))
        fh.write(raw)
        fh.write(payload)


def test_roundtrip_bitwise(tmp_path):
    model = tiny_model(seed=1)
    for p in model.parameters():
        p.assign(np.random.default_rng(2).standard_normal(p.value.shape))
    ckpt = C.checkpoint_from_model(model, "stage2")
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(ckpt, str(path))
    back = C.load_checkpoint(str(path))
    assert back.stage == "stage2"
    assert back.config() == model.config
    assert set(back.tensors) == set(ckpt.tensors)
    for name, arr in ckpt.tensors.items():
        assert back.tensors[name].tobytes() == arr.tobytes(), name

    rebuilt = C.model_from_checkpoint(back)
    for p in model.parameters():
        assert rebuilt.named_parameters()[p.name].value.array.tobytes() == p.value.array.tobytes()


def test_truncated_file_rejected(tmp_path):
    model = tiny_model(seed=3)
    ckpt = C.checkpoint_from_model(model, "stage2")
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(ckpt, str(path))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) - 100])
    with pytest.raises(CorruptCheckpoint):
        C.load_checkpoint(str(path))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(CorruptCheckpoint):
        C.load_checkpoint(str(path))


def test_version_mismatch(tmp_path):
    model = tiny_model(seed=4)
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(C.checkpoint_from_model(model, "stage2"), str(path))
    manifest, payload = _read_parts(path)
    # version 1 weights were trained under the exact-ZOH input factor
    for version in (1, 99):
        manifest["format_version"] = version
        _write_parts(path, manifest, payload)
        with pytest.raises(VersionMismatch):
            C.load_checkpoint(str(path))


def test_wrong_byte_len_names_tensor(tmp_path):
    model = tiny_model(seed=5)
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(C.checkpoint_from_model(model, "stage2"), str(path))
    manifest, payload = _read_parts(path)
    manifest["tensors"]["embedding.bias"]["byte_len"] += 8
    _write_parts(path, manifest, payload)
    with pytest.raises(CorruptCheckpoint) as err:
        C.load_checkpoint(str(path))
    assert "embedding.bias" in str(err.value)


def test_overlapping_tensors_rejected(tmp_path):
    model = tiny_model(seed=6)
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(C.checkpoint_from_model(model, "stage2"), str(path))
    manifest, payload = _read_parts(path)
    names = sorted(manifest["tensors"])
    # shift the second tensor into the first one's span
    manifest["tensors"][names[1]]["byte_offset"] = manifest["tensors"][names[0]]["byte_offset"]
    with_room = dict(manifest["tensors"][names[1]])
    if with_room["byte_offset"] + with_room["byte_len"] > len(payload):
        manifest["tensors"][names[1]]["byte_offset"] = 0
    _write_parts(path, manifest, payload)
    with pytest.raises(CorruptCheckpoint):
        C.load_checkpoint(str(path))


DROP = object()
BIAS = ("tensors", "embedding.bias")

# a well-formed JSON manifest with the wrong structure: (key path, new value or DROP)
MALFORMED = {
    "missing model_config": (("model_config",), DROP),
    "model_config not an object": (("model_config",), [1]),
    "missing tensors": (("tensors",), DROP),
    "tensors not an object": (("tensors",), "x"),
    "entry not an object": (BIAS, [1, 2]),
    "missing dtype": (BIAS + ("dtype",), DROP),
    "missing shape": (BIAS + ("shape",), DROP),
    "shape not a list": (BIAS + ("shape",), 8),
    "shape of floats": (BIAS + ("shape",), [8.0]),
    "negative shape": (BIAS + ("shape",), [-8]),
    "missing byte_offset": (BIAS + ("byte_offset",), DROP),
    "byte_offset a string": (BIAS + ("byte_offset",), "0"),
    "negative byte_offset": (BIAS + ("byte_offset",), -8),
    "missing byte_len": (BIAS + ("byte_len",), DROP),
    "byte_len a float": (BIAS + ("byte_len",), 64.0),
    "byte_len a boolean": (BIAS + ("byte_len",), True),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_manifest_is_corrupt_and_names_file(tmp_path, case):
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(C.checkpoint_from_model(tiny_model(seed=17), "stage2"), str(path))
    manifest, payload = _read_parts(path)
    (*parents, last), value = MALFORMED[case]
    node = manifest
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    _write_parts(path, manifest, payload)
    with pytest.raises(CorruptCheckpoint, match="m.ckpt"):
        C.load_checkpoint(str(path))


@pytest.mark.parametrize("manifest", [[1, 2], "text", 1, None])
def test_manifest_not_an_object_is_corrupt(tmp_path, manifest):
    path = tmp_path / "m.ckpt"
    _write_parts(path, manifest, b"")
    with pytest.raises(CorruptCheckpoint, match="m.ckpt"):
        C.load_checkpoint(str(path))


def test_load_into_model_shape_conflict(tmp_path):
    small = tiny_model(seed=7)
    big = tiny_model(seed=8, d_model=16, head_compress_dim=8)
    ckpt = C.checkpoint_from_model(small, "stage2")
    with pytest.raises(CheckpointMismatch):
        C.load_into_model(big, ckpt)


def test_model_from_checkpoint_requires_all_tensors(tmp_path):
    model = tiny_model(seed=9)
    partial = C.checkpoint_from_model(model, "stage1", prefixes=C.STAGE1_PREFIXES)
    with pytest.raises(CheckpointMismatch):
        C.model_from_checkpoint(partial)


def test_unknown_tensor_name_rejected():
    model = tiny_model(seed=10)
    ckpt = C.checkpoint_from_model(model, "stage2")
    ckpt.tensors["mystery.weight"] = np.zeros(3)
    with pytest.raises(CheckpointMismatch):
        C.load_into_model(tiny_model(seed=11), ckpt)


def test_save_leaves_no_temp_files(tmp_path):
    model = tiny_model(seed=12)
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(C.checkpoint_from_model(model, "stage2"), str(path))
    C.save_checkpoint(C.checkpoint_from_model(model, "stage2"), str(path))  # overwrite
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_refuses_non_finite_tensor(tmp_path, dtype, bad):
    ckpt = C.checkpoint_from_model(tiny_model(seed=14, dtype=dtype), "stage2")
    ckpt.tensors["head.out_w"][1, 0] = bad
    path = tmp_path / "m.ckpt"
    with pytest.raises(CorruptCheckpoint, match="head.out_w") as exc:
        C.save_checkpoint(ckpt, str(path))
    assert str(path) in str(exc.value)
    assert list(tmp_path.iterdir()) == []  # neither the target nor a .ckpt-* temp file


def test_float32_roundtrip(tmp_path):
    model = tiny_model(seed=13, dtype=np.float32)
    path = tmp_path / "m32.ckpt"
    C.save_checkpoint(C.checkpoint_from_model(model, "finetune"), str(path))
    back = C.load_checkpoint(str(path))
    assert all(arr.dtype == np.float32 for arr in back.tensors.values())
    rebuilt = C.model_from_checkpoint(back)
    assert rebuilt.embedding.weight.value.dtype == np.float32


def _mixed(ckpt):
    """``ckpt`` with its last-named tensor cast to float64 among float32 ones;
    (checkpoint, that tensor's name, the name of a float32 one)."""
    name = sorted(ckpt.tensors)[-1]
    ckpt.tensors[name] = ckpt.tensors[name].astype(np.float64)
    return ckpt, name, next(n for n in ckpt.tensors if n != name)


def test_mixed_dtype_checkpoint_is_corrupt(tmp_path):
    # one float64 tensor among float32 ones: no model holds two dtypes, so the
    # file must not load with the rest cast to whichever dtype came first.
    # save_checkpoint refuses such a checkpoint, so the file is written by hand
    ckpt = C.checkpoint_from_model(tiny_model(seed=15, dtype=np.float32), "stage2")
    path = tmp_path / "mixed.ckpt"
    C.save_checkpoint(ckpt, str(path))
    manifest, payload = _read_parts(path)
    name = sorted(ckpt.tensors)[-1]
    raw = ckpt.tensors[name].astype(np.float64).tobytes()
    manifest["tensors"][name].update(dtype="float64", byte_offset=len(payload), byte_len=len(raw))
    _write_parts(path, manifest, payload + raw)
    with pytest.raises(CorruptCheckpoint) as exc:
        C.load_checkpoint(str(path))
    msg = str(exc.value)
    assert str(path) in msg and "float32" in msg and "float64" in msg and repr(name) in msg


def test_save_refuses_mixed_dtypes(tmp_path):
    ckpt, f64, f32 = _mixed(C.checkpoint_from_model(tiny_model(seed=15, dtype=np.float32), "stage2"))
    path = tmp_path / "mixed.ckpt"
    with pytest.raises(CorruptCheckpoint) as exc:
        C.save_checkpoint(ckpt, str(path))
    msg = str(exc.value)
    assert str(path) in msg and "float32" in msg and "float64" in msg
    assert repr(f32) in msg and repr(f64) in msg
    assert list(tmp_path.iterdir()) == []  # neither the target nor a .ckpt-* temp file


def test_model_from_checkpoint_refuses_mixed_dtypes():
    # an in-memory checkpoint, never written: it must not be cast to one dtype
    ckpt, f64, f32 = _mixed(C.checkpoint_from_model(tiny_model(seed=15, dtype=np.float32), "stage2"))
    with pytest.raises(CorruptCheckpoint) as exc:
        C.model_from_checkpoint(ckpt)
    msg = str(exc.value)
    assert "float32" in msg and "float64" in msg and repr(f32) in msg and repr(f64) in msg


# the three ModelConfig keys of earlier manifests, at the values they were
# always saved with; the architecture now hardwires them
LEGACY_KEYS = {"expand_factor": 2, "revin_affine": False, "combine_mode": "add"}


def test_legacy_manifest_loads_and_forecasts_identically(tmp_path):
    model = tiny_model(seed=14, dtype=np.float32)
    rng = np.random.default_rng(15)
    for p in model.parameters():
        p.assign((rng.standard_normal(p.value.shape) * 0.2).astype(np.float32))
    path = tmp_path / "legacy.ckpt"
    C.save_checkpoint(C.checkpoint_from_model(model, "stage2"), str(path))
    manifest, payload = _read_parts(path)
    manifest["model_config"].update(LEGACY_KEYS)
    _write_parts(path, manifest, payload)

    back = C.load_checkpoint(str(path))
    assert back.config() == model.config
    x = T.tensor(rng.standard_normal((3, 2, 16)), dtype=np.float32)
    with T.no_grad():
        want = M.forecast(x, model).array
        got = M.forecast(x, C.model_from_checkpoint(back)).array
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("key,value", [("combine_mode", "concat"), ("revin_affine", True), ("expand_factor", 3)])
def test_legacy_manifest_with_other_setting_rejected(tmp_path, key, value):
    path = tmp_path / "legacy.ckpt"
    C.save_checkpoint(C.checkpoint_from_model(tiny_model(seed=16), "stage2"), str(path))
    manifest, payload = _read_parts(path)
    manifest["model_config"].update({**LEGACY_KEYS, key: value})
    _write_parts(path, manifest, payload)
    with pytest.raises(InvalidConfig, match=key):
        C.model_from_checkpoint(C.load_checkpoint(str(path)))


@pytest.mark.parametrize("key,value", [("horizon", "4"), ("d_model", 8.0), ("xchannel_enabled", 0)])
def test_manifest_model_value_of_wrong_type_rejected(tmp_path, key, value):
    path = tmp_path / "typed.ckpt"
    C.save_checkpoint(C.checkpoint_from_model(tiny_model(seed=16), "stage2"), str(path))
    manifest, payload = _read_parts(path)
    manifest["model_config"][key] = value
    _write_parts(path, manifest, payload)
    with pytest.raises(InvalidConfig, match=repr(key)):
        C.model_from_checkpoint(C.load_checkpoint(str(path)))


# ---------------------------------------------------------------------------
# model_from_checkpoint builds without random draws
# ---------------------------------------------------------------------------


def _trained_like(dtype, xchannel, seed=21):
    """A model whose every tensor holds seeded noise, so no tensor of a
    rebuilt model can match it by keeping its initial value."""
    model = tiny_model(seed=seed, dtype=dtype, n_channels=3, xchannel_enabled=xchannel)
    rng = np.random.default_rng(seed + 1)
    for p in model.parameters():
        p.assign((rng.standard_normal(p.value.shape) * 0.3).astype(dtype))
    return model


@pytest.mark.parametrize("xchannel", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_model_from_checkpoint_matches_build_and_load(dtype, xchannel):
    ckpt = C.checkpoint_from_model(_trained_like(dtype, xchannel), "finetune")
    reference = M.build_model(ckpt.config(), seed=5, dtype=dtype)
    C.load_into_model(reference, ckpt)
    rebuilt = C.model_from_checkpoint(ckpt)
    assert list(rebuilt.named_parameters()) == list(reference.named_parameters())
    for name, p in reference.named_parameters().items():
        q = rebuilt.named_parameters()[name]
        assert q.value.dtype == p.value.dtype and q.value.array.tobytes() == p.value.array.tobytes(), name
    x = T.tensor(np.random.default_rng(3).standard_normal((2, 3, 16)) * 4 + 1, dtype=dtype)
    with T.no_grad():
        assert M.forecast(x, rebuilt).array.tobytes() == M.forecast(x, reference).array.tobytes()


def test_model_from_checkpoint_draws_no_random_numbers(monkeypatch):
    ckpt = C.checkpoint_from_model(_trained_like(np.float32, True), "finetune")
    seeded, drawn = [], []
    real_default_rng = np.random.default_rng

    class SpyGenerator:
        """Passes every call on to a real Generator and records its name."""

        def __init__(self, gen):
            self._gen = gen

        def __getattr__(self, name):
            drawn.append(name)
            return getattr(self._gen, name)

    def default_rng(*args, **kwargs):
        seeded.append(args)
        return SpyGenerator(real_default_rng(*args, **kwargs))

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    # numpy's legacy global draws, in case a build reached for them instead
    for name in ("uniform", "standard_normal", "normal", "rand", "randn", "random"):
        monkeypatch.setattr(np.random, name, lambda *a, _name=name, **k: drawn.append(_name))

    C.model_from_checkpoint(ckpt)
    assert seeded == [] and drawn == []

    # the spies do see the draws of an ordinary build
    M.build_model(ckpt.config(), seed=0, dtype=np.float32)
    assert seeded == [(0,)] and {"uniform", "standard_normal"} <= set(drawn)


@pytest.mark.parametrize(
    "edit,match",
    [
        (lambda t: t.pop("fwd_encoder.layer0.mamba.ssm.x_to_b"), "missing"),
        (lambda t: t.update({"mystery.weight": np.zeros(3)}), "mystery"),
        (lambda t: t.update({"head.out_w": np.zeros((5, 4))}), "head.out_w"),
    ],
    ids=["missing", "extra", "shape"],
)
def test_model_from_checkpoint_refusals(edit, match):
    ckpt = C.checkpoint_from_model(tiny_model(seed=22), "stage2")
    edit(ckpt.tensors)
    with pytest.raises(CheckpointMismatch, match=match):
        C.model_from_checkpoint(ckpt)


def test_training_a_loaded_model_leaves_the_checkpoint_alone():
    from tsmamba import train as TR

    ckpt = C.checkpoint_from_model(_trained_like(np.float64, False), "stage2")
    before = {name: arr.tobytes() for name, arr in ckpt.tensors.items()}
    model = C.model_from_checkpoint(ckpt)
    rng = np.random.default_rng(4)
    x = T.tensor(rng.standard_normal((6, 16)), dtype=np.float64)
    y = T.tensor(rng.standard_normal((6, 4)), dtype=np.float64)
    params = model.parameters()
    T.backward(TR.stage2_loss(x, y, model), params)
    TR.AdamW().step([(p, 1e-2) for p in params])
    assert {name: arr.tobytes() for name, arr in ckpt.tensors.items()} == before
    moved = [p.name for p in params if p.value.array.tobytes() != before[p.name]]
    assert "head.out_w" in moved and "embedding.weight" in moved
