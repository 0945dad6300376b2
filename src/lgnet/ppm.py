"""Binary PPM (P6) and PGM (P5) readers/writers, dependency-free."""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["write_ppm", "read_ppm", "write_pgm"]


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Write a [3, H, W] float image in [0, 1] as binary PPM."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"image must be [3, H, W], got {image.shape}")
    h, w = image.shape[1:]
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    body = pixels.transpose(1, 2, 0).tobytes()  # interleave to RGB rows
    Path(path).write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + body)


def _read_header(raw: bytes, magic: bytes, path) -> tuple[int, int, int, int]:
    """Parse width, height, maxval; returns them plus the payload offset."""
    if not raw.startswith(magic):
        raise ValueError(f"{path}: bad magic, expected {magic.decode()}")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":  # comment line
            pos = raw.find(b"\n", pos) + 1
            if pos == 0:
                raise ValueError(f"{path}: corrupt header, unterminated comment")
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        try:
            fields.append(int(raw[start:pos]))
        except ValueError:
            raise ValueError(f"{path}: corrupt header") from None
    return fields[0], fields[1], fields[2], pos + 1


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary PPM into a [3, H, W] float array in [0, 1]."""
    path = Path(path)
    raw = path.read_bytes()
    w, h, maxval, offset = _read_header(raw, b"P6", path)
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported")
    if w < 1 or h < 1:
        raise ValueError(f"{path}: image size {w}x{h} is not positive")
    body = raw[offset : offset + 3 * w * h]
    if len(body) != 3 * w * h:
        raise ValueError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3)
    return pixels.transpose(2, 0, 1).astype(np.float64) / 255.0


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a [H, W] float image as binary PGM, rescaled to full range."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"image must be [H, W], got {image.shape}")
    lo, hi = image.min(), image.max()
    scaled = np.zeros_like(image) if hi == lo else (image - lo) / (hi - lo)
    pixels = np.clip(np.rint(scaled * 255.0), 0, 255).astype(np.uint8)
    h, w = image.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())
