"""Binary checkpoint format: magic, JSON manifest, raw little-endian payload.

Layout: 8-byte magic ``TSMBCKPT``, an unsigned 64-bit little-endian manifest
length, the UTF-8 JSON manifest, then the concatenated tensor bytes. The
manifest indexes every tensor by name with dtype, shape, byte offset and
length relative to the payload start, and embeds the ModelConfig that
produced the tensors.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointMismatch, CorruptCheckpoint, VersionMismatch
from .model import Model, ModelConfig, _unfilled_model

MAGIC = b"TSMBCKPT"
FORMAT_VERSION = 2  # 2: the scan discretizes its input as B_bar = dt*B; 1 used exact ZOH

_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}

STAGE1_PREFIXES = ("embedding.", "fwd_encoder.", "bwd_encoder.")


@dataclass
class Checkpoint:
    format_version: int
    model_config: dict
    stage: str
    tensors: dict[str, np.ndarray]

    def config(self) -> ModelConfig:
        return ModelConfig.from_dict(self.model_config)


def checkpoint_from_model(model: Model, stage: str, prefixes: tuple[str, ...] | None = None) -> Checkpoint:
    """Snapshot model tensors (optionally restricted to name prefixes)."""
    tensors = {}
    for p in model.parameters():
        if prefixes is None or p.name.startswith(prefixes):
            tensors[p.name] = np.array(p.value.array, copy=True)
    return Checkpoint(
        format_version=FORMAT_VERSION,
        model_config=model.config.to_dict(),
        stage=stage,
        tensors=tensors,
    )


def _dtype_name(arr: np.ndarray) -> str:
    if arr.dtype == np.float32:
        return "float32"
    if arr.dtype == np.float64:
        return "float64"
    raise CheckpointMismatch(f"unsupported tensor dtype {arr.dtype}")


def _single_dtype(where: str, tensors: dict[str, np.ndarray]) -> np.dtype | None:
    """The one dtype of ``tensors`` (None when empty); tensors of two dtypes
    are a CorruptCheckpoint naming ``where`` and one tensor of each."""
    # a model holds one dtype, so tensors that mix two were not taken from one
    first_of = {}
    for name, arr in tensors.items():
        first_of.setdefault(arr.dtype, name)
    if len(first_of) > 1:
        (d0, n0), (d1, n1) = list(first_of.items())[:2]
        raise CorruptCheckpoint(f"{where}: tensors mix dtypes {d0} ({n0!r}) and {d1} ({n1!r})")
    return next(iter(first_of), None)


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Write atomically: temp file in the target directory, then rename.

    A tensor holding NaN or inf, or tensors of two dtypes, are a
    CorruptCheckpoint, raised before any file is created.
    """
    index = {}
    chunks = []
    offset = 0
    for name, arr in ckpt.tensors.items():
        dtype_name = _dtype_name(arr)
        if not np.isfinite(arr).all():
            raise CorruptCheckpoint(f"{path}: tensor {name!r} holds non-finite values")
        raw = np.ascontiguousarray(arr, dtype=_DTYPES[dtype_name]).tobytes()
        index[name] = {
            "dtype": dtype_name,
            "shape": list(arr.shape),
            "byte_offset": offset,
            "byte_len": len(raw),
        }
        chunks.append(raw)
        offset += len(raw)
    _single_dtype(path, ckpt.tensors)
    manifest = {
        "format_version": ckpt.format_version,
        "model_config": ckpt.model_config,
        "stage": ckpt.stage,
        "tensors": index,
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(manifest_bytes)))
            fh.write(manifest_bytes)
            for raw in chunks:
                fh.write(raw)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _tensor_entry(path: str, name: str, entry) -> tuple[np.dtype, tuple[int, ...], int, int]:
    """(dtype, shape, byte_offset, byte_len) of one manifest tensor entry."""
    fields = entry if isinstance(entry, dict) else {}
    dtype_name, shape, off, ln = (fields.get(k) for k in ("dtype", "shape", "byte_offset", "byte_len"))
    sizes = shape + [off, ln] if isinstance(shape, list) else [None]
    # ``type(v) is int`` also rejects JSON true/false, which Python counts as ints
    if not isinstance(dtype_name, str) or dtype_name not in _DTYPES or not all(type(v) is int and v >= 0 for v in sizes):
        raise CorruptCheckpoint(f"{path}: tensor {name!r} has a malformed entry {entry!r}")
    return _DTYPES[dtype_name], tuple(shape), off, ln


def load_checkpoint(path: str) -> Checkpoint:
    """Read and validate a checkpoint; any malformed file, including one whose
    tensors mix float32 and float64, is a CorruptCheckpoint naming ``path``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 8 or blob[: len(MAGIC)] != MAGIC:
        raise CorruptCheckpoint(f"{path}: bad magic")
    (manifest_len,) = struct.unpack("<Q", blob[len(MAGIC) : len(MAGIC) + 8])
    header_end = len(MAGIC) + 8 + manifest_len
    if header_end > len(blob):
        raise CorruptCheckpoint(f"{path}: truncated manifest")
    try:
        manifest = json.loads(blob[len(MAGIC) + 8 : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CorruptCheckpoint(f"{path}: manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{path}: format_version {version} != {FORMAT_VERSION}")
    model_config, index = manifest.get("model_config"), manifest.get("tensors")
    if not isinstance(model_config, dict) or not isinstance(index, dict):
        raise CorruptCheckpoint(f"{path}: manifest needs 'model_config' and 'tensors' objects")
    payload = blob[header_end:]
    spans = []
    tensors: dict[str, np.ndarray] = {}
    for name, entry in index.items():
        dtype, shape, off, ln = _tensor_entry(path, name, entry)
        expected = math.prod(shape) * dtype.itemsize
        if ln != expected:
            raise CorruptCheckpoint(f"{path}: tensor {name!r} byte_len {ln} != {expected}")
        if off + ln > len(payload):
            raise CorruptCheckpoint(f"{path}: tensor {name!r} spans outside payload")
        spans.append((off, off + ln, name))
        tensors[name] = np.frombuffer(payload, dtype=dtype, count=ln // dtype.itemsize, offset=off).reshape(shape).copy()
    spans.sort()
    for (s0, e0, n0), (s1, _, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise CorruptCheckpoint(f"{path}: tensors {n0!r} and {n1!r} overlap")
    _single_dtype(path, tensors)
    return Checkpoint(
        format_version=version,
        model_config=model_config,
        stage=manifest.get("stage", ""),
        tensors=tensors,
    )


def load_into_model(model: Model, ckpt: Checkpoint, required_prefixes: tuple[str, ...] = ()) -> list[str]:
    """Copy checkpoint tensors into matching parameters; returns loaded names.

    Shape conflicts raise CheckpointMismatch, as do required prefixes with no
    tensors present. Checkpoint entries without a matching parameter are
    rejected (they indicate an architecture mismatch).
    """
    named = model.named_parameters()
    for prefix in required_prefixes:
        if not any(name.startswith(prefix) for name in ckpt.tensors):
            raise CheckpointMismatch(f"checkpoint missing required tensors {prefix}*")
    loaded = []
    for name, arr in ckpt.tensors.items():
        if name not in named:
            raise CheckpointMismatch(f"checkpoint tensor {name!r} has no parameter slot")
        param = named[name]
        if tuple(arr.shape) != param.value.shape:
            raise CheckpointMismatch(
                f"{name}: checkpoint shape {tuple(arr.shape)} != model shape {param.value.shape}"
            )
        param.assign(arr.astype(param.value.dtype, copy=False))
        loaded.append(name)
    return loaded


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    """Rebuild the architecture recorded in the manifest and fill every tensor.

    The model is built without random draws, since every tensor is loaded
    over; tensors of two dtypes are a CorruptCheckpoint.
    """
    cfg = ckpt.config()
    dtype = _single_dtype("checkpoint", ckpt.tensors)
    model = _unfilled_model(cfg, np.float32 if dtype is None else dtype)
    expected = set(model.named_parameters())
    missing = expected - set(ckpt.tensors)
    if missing:
        raise CheckpointMismatch(f"checkpoint missing tensors: {sorted(missing)[:4]}...")
    load_into_model(model, ckpt)
    return model
