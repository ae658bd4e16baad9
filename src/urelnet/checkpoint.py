"""Versioned binary checkpoints: a model configuration and its parameter arena.

Layout: 8 magic bytes, uint32 format version, uint32 header length, a JSON
header (UTF-8, sorted keys) holding the model configuration and the
parameter blocks' names and shapes in sorted-name order, then the payload:
the parameter arena's flat buffer (``nn.Arena``) as little-endian float64.
The header's block list must equal the layout the configuration implies.
Loading checks that and the payload's byte count against the file before
it allocates anything, reads the payload into one arena buffer in a single
read, and rejects non-finite values. Round trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import Dict, List, Tuple

import numpy as np

from .errors import CheckpointError, UrelnetError
from .model import Model, ModelConfig, model_shapes, wire_model
from .nn import Arena, non_finite_block

MAGIC = b"URELNETC"
FORMAT_VERSION = 1
PREFIX_BYTES = len(MAGIC) + 8


def _block_list(shapes: Dict[str, Tuple[int, ...]]) -> List[dict]:
    return [{"name": name, "shape": list(shapes[name])} for name in sorted(shapes)]


def save_checkpoint(path, config: ModelConfig, params: Arena) -> None:
    header = {
        "config": config.to_json_dict(),
        "blocks": _block_list({name: block.shape for name, block in params.items()}),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(params.flat.astype("<f8", copy=False))


def load_checkpoint(path) -> Tuple[ModelConfig, Arena]:
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            magic = fh.read(8)
            if magic != MAGIC:
                raise CheckpointError(f"{path}: bad magic bytes {magic!r}")
            prefix = fh.read(8)
            if len(prefix) != 8:
                raise CheckpointError(f"{path}: truncated before the header length")
            version, header_len = struct.unpack("<II", prefix)
            if version != FORMAT_VERSION:
                raise CheckpointError(f"{path}: unsupported format version {version}")
            if PREFIX_BYTES + header_len > size:
                raise CheckpointError(f"{path}: truncated header ({header_len} bytes declared)")
            try:
                header = json.loads(fh.read(header_len).decode("utf-8"))
                config = ModelConfig.from_json_dict(header["config"])
                shapes = model_shapes(config)
                blocks = header["blocks"]
            except (KeyError, TypeError, ValueError, UrelnetError) as exc:
                # ValueError covers JSON and UTF-8 decoding and ModelConfig's checks;
                # UrelnetError a configuration that leaves a network without streams.
                raise CheckpointError(f"{path}: corrupt header ({exc!r})") from None
            if blocks != _block_list(shapes):
                raise CheckpointError(
                    f"{path}: corrupt header (its blocks are not the layout of its configuration)"
                )
            expected = 8 * sum(math.prod(shape) for shape in shapes.values())
            payload = size - PREFIX_BYTES - header_len
            if payload < expected:
                raise CheckpointError(
                    f"{path}: truncated payload (expected {expected} bytes, got {payload})"
                )
            if payload > expected:
                raise CheckpointError(f"{path}: trailing bytes after the payload")
            flat = np.empty(expected // 8, dtype="<f8")
            if fh.readinto(flat) != expected:
                raise CheckpointError(f"{path}: truncated payload while reading")
    except (OSError, ValueError) as exc:
        # ValueError: a NUL byte in the path (the header's are caught above).
        raise CheckpointError(f"checkpoint file not found or unreadable: {exc}") from None
    params = Arena(shapes, flat.astype(np.float64, copy=False))
    bad = non_finite_block(params)
    if bad is not None:
        raise CheckpointError(f"{path}: non-finite value in parameter block {bad!r}")
    return config, params


def load_model(path) -> Model:
    """The model a checkpoint holds, wired onto the arena ``load_checkpoint``
    read; nothing is drawn or copied."""
    config, params = load_checkpoint(path)
    return wire_model(config, params)
