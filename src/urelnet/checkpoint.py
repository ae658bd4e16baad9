"""Versioned binary checkpoints for model parameters.

Layout: 8 magic bytes, uint32 format version, uint32 header length, a JSON
header (UTF-8, sorted keys) holding the model configuration and the ordered
parameter block names/shapes, then the blocks as little-endian float64 in
header order. Round trips are bit-exact.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Tuple

import numpy as np

from .errors import CheckpointError
from .model import ModelConfig, build_model

MAGIC = b"URELNETC"
FORMAT_VERSION = 1


def save_checkpoint(path, config: ModelConfig, params: Dict[str, np.ndarray]) -> None:
    names = sorted(params)
    header = {
        "config": config.to_json_dict(),
        "blocks": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for name in names:
            fh.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


def load_checkpoint(path) -> Tuple[ModelConfig, Dict[str, np.ndarray]]:
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint file not found: {path}") from None
    with fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes {magic!r}")
        prefix = fh.read(8)
        if len(prefix) != 8:
            raise CheckpointError(f"{path}: truncated before the header length")
        version, header_len = struct.unpack("<II", prefix)
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            config = ModelConfig.from_json_dict(header["config"])
            blocks = [(b["name"], tuple(int(d) for d in b["shape"])) for b in header["blocks"]]
            if any(not isinstance(n, str) or min(shape, default=0) < 0 for n, shape in blocks):
                raise ValueError("block names must be strings and dimensions non-negative")
        except (KeyError, TypeError, ValueError) as exc:
            # ValueError covers JSON and UTF-8 decoding and ModelConfig's checks.
            raise CheckpointError(f"{path}: corrupt header ({exc!r})") from None
        params = {}
        for name, shape in blocks:
            count = int(np.prod(shape))
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise CheckpointError(
                    f"{path}: truncated block {name!r} "
                    f"(expected {count * 8} bytes, got {len(raw)})"
                )
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after parameter blocks")
    return config, params


def load_model(path, rng: np.random.Generator | None = None):
    """Rebuild the model architecture from the checkpoint and load weights."""
    config, params = load_checkpoint(path)
    model = build_model(config, rng if rng is not None else np.random.default_rng(0))
    try:
        model.load_parameters(params)
    except Exception as exc:
        raise CheckpointError(f"{path}: parameters do not fit the configuration ({exc})") from None
    return model
