"""Binary model checkpoints.

Layout (all little-endian):
  magic "WSPL", u32 version (=1),
  u32 config length + canonical JSON config (sorted keys, UTF-8),
  then per parameter block: u32 name length + name, u32 rank,
  rank x u64 dims, raw 64-bit float data.

Round-trips are bitwise lossless.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import (CheckpointFormatError, CheckpointTruncatedError,
                     CheckpointVersionError, ShapeError)
from .model import (ModelConfig, ModelParams, init_model_params, params_from_dict,
                    params_to_dict)
from .rng import SeededRng

MAGIC = b"WSPL"
VERSION = 1


def _expected_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Block name -> shape, read off a freshly initialized model."""
    params = init_model_params(config, SeededRng(0))
    return {name: arr.shape for name, arr in params_to_dict(params).items()}


def checkpoint_save(params: ModelParams, config: ModelConfig, path) -> None:
    config_bytes = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(config_bytes)))
        fh.write(config_bytes)
        for name, arr in params_to_dict(params).items():
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.astype("<f8", copy=False).tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointTruncatedError(f"file ends inside {what} ({len(data)}/{n} bytes)")
    return data


def checkpoint_load(path) -> tuple[ModelParams, ModelConfig]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != VERSION:
            raise CheckpointVersionError(f"unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        cfg_json = _read_exact(fh, cfg_len, "config")
        try:
            config = ModelConfig(**json.loads(cfg_json.decode("utf-8")))
        except (ValueError, TypeError) as exc:
            raise CheckpointFormatError(f"invalid embedded config: {exc}") from exc

        expected = _expected_shapes(config)
        arrays: dict[str, np.ndarray] = {}
        while True:
            head = fh.read(4)
            if head == b"":
                break
            if len(head) != 4:
                raise CheckpointTruncatedError("file ends inside a block header")
            (name_len,) = struct.unpack("<I", head)
            name = _read_exact(fh, name_len, "block name").decode("utf-8")
            if name not in expected:
                raise CheckpointFormatError(f"unknown parameter block '{name}'")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, f"rank of '{name}'"))
            dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, f"dims of '{name}'"))
            if dims != expected[name]:
                block = name.split(".")[0]
                raise ShapeError(
                    f"checkpoint block '{block}' has shape {dims}, "
                    f"but the config requires {expected[name]} for '{name}'")
            count = int(np.prod(dims)) if dims else 1
            raw = _read_exact(fh, 8 * count, f"data of '{name}'")
            arrays[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)

    missing = set(expected) - set(arrays)
    if missing:
        raise CheckpointTruncatedError(f"missing parameter blocks: {sorted(missing)}")
    return params_from_dict(arrays), config
