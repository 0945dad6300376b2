"""Flat binary model container.

Layout: the magic string ``LGN1``, a length-prefixed UTF-8 JSON config
blob, then each tensor as (u32 name length, name bytes, u32 rank, u64
extents, little-endian float64 payload). Tensors are written in sorted
name order so the file is a pure function of its contents.
"""

from __future__ import annotations

import contextlib
import json
import math
import struct
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

MAGIC = b"LGN1"

__all__ = [
    "save_container", "load_container", "metadata_errors", "check_fields", "config_from_dict",
    "CheckpointError",
]


class CheckpointError(ValueError):
    pass


@contextlib.contextmanager
def metadata_errors(path: str | Path) -> Iterator[None]:
    """Report a missing or malformed metadata field as CheckpointError."""
    try:
        yield
    except CheckpointError:
        raise
    except KeyError as exc:
        raise CheckpointError(f"{path}: metadata lacks {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad metadata: {exc}") from exc


def check_fields(d, defaults: Mapping) -> dict:
    """Return ``d`` if it is a dict whose every key names a field of
    ``defaults`` with a value that can stand in that field; otherwise raise
    ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"config must be a JSON object, not {type(d).__name__}")
    for key, value in d.items():
        if key not in defaults:
            raise ValueError(f"unknown config field {key!r}")
        if not _fits(value, defaults[key]):
            raise ValueError(f"config field {key!r} cannot be {value!r}")
    return d


def config_from_dict(cls, d):
    """The dataclass ``cls``, whose fields all have defaults, built from the
    parsed JSON ``d`` as :func:`check_fields` allows; lists become tuples."""
    defaults = cls().__dict__
    check_fields(d, defaults)
    return cls(**{key: tuple(v) if isinstance(defaults[key], tuple) else v for key, v in d.items()})


def _fits(value, default) -> bool:
    """Whether a parsed JSON value can stand in a field with this default."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def save_container(path: str | Path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC]
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<I", len(blob)))
    chunks.append(blob)
    for name in sorted(tensors):
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=np.float64))
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container; any malformed content raises CheckpointError
    naming the file."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    view = memoryview(raw)
    pos = 4

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError(f"{path}: truncated container")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    def text(n: int) -> str:
        try:
            return bytes(take(n)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: text is not UTF-8: {exc}") from None

    (cfg_len,) = struct.unpack("<I", take(4))
    blob = text(cfg_len)
    try:
        config = json.loads(blob)
    except ValueError as exc:
        raise CheckpointError(f"{path}: metadata is not JSON: {exc}") from None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    tensors: dict[str, np.ndarray] = {}
    while pos < len(view):
        (name_len,) = struct.unpack("<I", take(4))
        name = text(name_len)
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank))
        # exact integer product: a payload this long must follow
        payload = take(8 * math.prod(shape))
        try:
            arr = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
        except ValueError:  # an empty tensor with an extent numpy cannot hold
            raise CheckpointError(f"{path}: tensor {name!r} has bad extents {shape}") from None
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
        tensors[name] = arr
    return config, tensors
