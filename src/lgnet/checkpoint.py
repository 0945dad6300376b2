"""Flat binary model container.

Layout: the magic string ``LGN1``, a length-prefixed UTF-8 JSON config
blob, then each tensor as (u32 name length, name bytes, u32 rank, u64
extents, little-endian float64 payload). Tensors are written in sorted
name order so the file is a pure function of its contents.
"""

from __future__ import annotations

import contextlib
import json
import struct
from pathlib import Path
from typing import Iterator

import numpy as np

MAGIC = b"LGN1"

__all__ = ["save_container", "load_container", "metadata_errors", "CheckpointError"]


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

    (cfg_len,) = struct.unpack("<I", take(4))
    config = json.loads(bytes(take(cfg_len)).decode("utf-8"))
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    tensors: dict[str, np.ndarray] = {}
    while pos < len(view):
        (name_len,) = struct.unpack("<I", take(4))
        name = bytes(take(name_len)).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank))
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        payload = take(8 * count)
        arr = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
        if arr.shape != tuple(shape):
            raise CheckpointError(f"{path}: tensor {name!r} shape mismatch")
        tensors[name] = arr
    return config, tensors
