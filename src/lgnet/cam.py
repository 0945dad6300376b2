"""Class activation maps and activation-box extraction.

The activation map of an attribute is the classifier-weighted sum of the
final feature channels, computed as a fixed 1x1 convolution so it falls
out of an ordinary forward pass. The activation box is the tight bound of
the dominant high-response region, and stands in as the attribute's
location.
"""

from __future__ import annotations

import numpy as np

from .boxes import Box

__all__ = ["class_activation_maps", "activation_boxes", "activation_box"]


def class_activation_maps(featmap: np.ndarray, fc_weight: np.ndarray) -> np.ndarray:
    """Weighted channel sums: maps[i, y, x] = sum_ch W[i, ch] * featmap[ch, y, x].

    ``featmap`` is [k, h, w], ``fc_weight`` is [a, k]; returns [a, h, w].
    Operates on plain arrays: the producing branch is frozen, so no
    gradient path is wanted here.
    """
    featmap = np.asarray(featmap, dtype=np.float64)
    fc_weight = np.asarray(fc_weight, dtype=np.float64)
    if featmap.ndim != 3 or fc_weight.ndim != 2 or fc_weight.shape[1] != featmap.shape[0]:
        raise ValueError(
            f"shape mismatch: featmap {featmap.shape} vs fc_weight {fc_weight.shape}"
        )
    return np.tensordot(fc_weight, featmap, axes=([1], [0]))


def activation_boxes(
    cams: np.ndarray,
    image_w: int,
    image_h: int,
    tau: float = 0.2,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounding boxes of the dominant activated region of m maps at once.

    ``cams`` is [m, h, w]. In each map, cells with value strictly greater
    than tau * max(map) are activated; the largest 4-connected component
    of activated cells is boxed tightly and scaled from cell coordinates
    to image pixels, each cell covering its full stride footprint. Among
    components of the largest size the one holding the map's maximum
    wins, else the one whose first cell comes first in row-major order.

    Returns ([m, 4] corners, [m] degenerate flags). A map with no usable
    response (all cells equal, or a non-positive maximum, which empties
    the activated set) is degenerate and maps to the full-image box.

    Components are labelled for every map in one pass: each activated
    cell starts with its own row-major index, then repeatedly takes the
    smallest label among itself and its activated neighbours and jumps
    to its label's label, until nothing changes. Each component then
    carries the index of its first cell.
    """
    cams = np.asarray(cams, dtype=np.float64)
    if cams.ndim != 3:
        raise ValueError(f"cams must be [m, h, w], got shape {cams.shape}")
    if not np.isfinite(cams).all():
        raise ValueError("cam contains non-finite values")
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau {tau} outside (0, 1)")

    m, h, w = cams.shape
    hw = h * w
    flat = cams.reshape(m, hw)
    peak = flat.max(axis=1)
    degenerate = (peak <= 0.0) | (peak == flat.min(axis=1))
    active = (flat > (tau * peak)[:, None]) & ~degenerate[:, None]

    # labels are cell indices over the maps laid end to end; n marks an
    # inactive cell, and the last entry of ``lookup`` keeps it
    n = m * hw
    labels = np.where(active, np.arange(n).reshape(m, hw), n)
    lookup = np.full(n + 1, n)
    while True:
        grid = labels.reshape(m, h, w)
        low = grid.copy()
        np.minimum(low[:, 1:], grid[:, :-1], out=low[:, 1:])
        np.minimum(low[:, :-1], grid[:, 1:], out=low[:, :-1])
        np.minimum(low[:, :, 1:], grid[:, :, :-1], out=low[:, :, 1:])
        np.minimum(low[:, :, :-1], grid[:, :, 1:], out=low[:, :, :-1])
        lookup[:n] = np.where(active, low.reshape(m, hw), n).ravel()
        merged = lookup[lookup[:n]].reshape(m, hw)
        if np.array_equal(merged, labels):
            break
        labels = merged

    sizes = np.bincount(labels.ravel(), minlength=n + 1)[:n].reshape(m, hw)
    largest = sizes.max(axis=1)
    maps = np.arange(m)
    peak_label = np.minimum(labels[maps, flat.argmax(axis=1)] - maps * hw, hw - 1)
    first = (sizes == largest[:, None]).argmax(axis=1)
    chosen = np.where(sizes[maps, peak_label] == largest, peak_label, first) + maps * hw

    member = labels == chosen[:, None]
    rows, cols = np.divmod(np.arange(hw), w)
    sx = image_w / float(w)
    sy = image_h / float(h)
    corners = np.stack([
        np.where(member, cols, w).min(axis=1) * sx,
        np.where(member, rows, h).min(axis=1) * sy,
        (np.where(member, cols, -1).max(axis=1) + 1) * sx,
        (np.where(member, rows, -1).max(axis=1) + 1) * sy,
    ], axis=1)
    corners[degenerate] = (0.0, 0.0, float(image_w), float(image_h))
    return corners, degenerate


def activation_box(
    cam: np.ndarray,
    image_w: int,
    image_h: int,
    tau: float = 0.2,
) -> tuple[Box, bool]:
    """Bounding box of the dominant activated region of one [h, w] map:
    :func:`activation_boxes` of that map alone, as (box, degenerate)."""
    cam = np.asarray(cam, dtype=np.float64)
    if cam.ndim != 2:
        raise ValueError(f"cam must be 2-D, got shape {cam.shape}")
    corners, degenerate = activation_boxes(cam[None], image_w, image_h, tau)
    return Box(*corners[0].tolist()), bool(degenerate[0])
