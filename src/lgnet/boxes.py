"""Axis-aligned boxes in image pixel coordinates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Rectangle with exclusive max edges, optionally scored.

    Coordinates are real-valued pixel positions: a box spanning the whole
    of a WxH image is (0, 0, W, H).
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    score: float | None = None

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate box: {self}")

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def with_score(self, score: float) -> "Box":
        return Box(self.x_min, self.y_min, self.x_max, self.y_max, score)

    def contains_point(self, x: float, y: float) -> bool:
        return self.x_min <= x < self.x_max and self.y_min <= y < self.y_max


def full_image_box(image_w: float, image_h: float, score: float | None = None) -> Box:
    return Box(0.0, 0.0, float(image_w), float(image_h), score)


def box_array(boxes, scored: bool = False) -> np.ndarray:
    """Boxes as float64 rows (x_min, y_min, x_max, y_max), with the score
    as a fifth column when ``scored``.

    ``boxes`` is a sequence of :class:`Box` or a 2-D array of such rows;
    an array is returned as a view of its first four or five columns.
    """
    width = 5 if scored else 4
    if isinstance(boxes, np.ndarray):
        if boxes.ndim != 2 or boxes.shape[1] < width:
            raise ValueError(f"box rows need shape [n, {width}], got {boxes.shape}")
        return boxes[:, :width].astype(np.float64, copy=False)
    missing = [b for b in boxes if scored and b.score is None]
    if missing:
        raise ValueError(f"box has no score: {missing[0]}")
    rows = [(b.x_min, b.y_min, b.x_max, b.y_max, b.score)[:width] for b in boxes]
    return np.array(rows, dtype=np.float64).reshape(-1, width)


def pairwise_overlap(a, b, mode: str = "iou") -> np.ndarray:
    """[n, m] intersection areas ("overlap_area") or IoUs, taken as
    ``inter / ((area_a + area_b) - inter)``, of each box of ``a`` with each
    box of ``b``. Either side is anything :func:`box_array` takes."""
    if mode not in ("iou", "overlap_area"):
        raise ValueError(f"unknown overlap mode {mode!r}")
    a, b = box_array(a)[:, :, None], box_array(b).T  # [n, 4, 1] and [4, m]
    iw = np.minimum(a[:, 2], b[2]) - np.maximum(a[:, 0], b[0])
    ih = np.minimum(a[:, 3], b[3]) - np.maximum(a[:, 1], b[1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    if mode == "overlap_area":
        return inter
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    return inter / ((area_a + (b[2] - b[0]) * (b[3] - b[1])) - inter)
