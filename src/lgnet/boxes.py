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
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def with_score(self, score: float) -> "Box":
        return Box(self.x_min, self.y_min, self.x_max, self.y_max, score)

    def contains_point(self, x: float, y: float) -> bool:
        return self.x_min <= x < self.x_max and self.y_min <= y < self.y_max


def intersection_area(a: Box, b: Box) -> float:
    w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


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
