"""Axis-aligned boxes in image pixel coordinates."""

from __future__ import annotations

from dataclasses import dataclass


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
