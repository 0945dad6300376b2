"""Class activation maps and activation-box extraction.

The activation map of an attribute is the classifier-weighted sum of the
final feature channels, computed as a fixed 1x1 convolution so it falls
out of an ordinary forward pass. The activation box is the tight bound of
the dominant high-response region, and stands in as the attribute's
location.
"""

from __future__ import annotations

import numpy as np

from .boxes import Box, full_image_box

__all__ = ["class_activation_maps", "activation_box"]


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


def activation_box(
    cam: np.ndarray,
    image_w: int,
    image_h: int,
    tau: float = 0.2,
) -> tuple[Box, bool]:
    """Bounding box of the dominant activated region of one map.

    Cells with value strictly greater than tau * max(cam) are activated;
    the largest 4-connected component of activated cells is boxed tightly
    and scaled from cell coordinates to image pixels, each cell covering
    its full stride footprint. Among components of the largest size the
    one holding the global maximum wins, else the one whose first cell
    comes first in row-major order. Only the activated cells are walked.

    Returns (box, degenerate). A map with no usable response (all cells
    equal, or a non-positive maximum, which empties the activated set) is
    degenerate and maps to the full-image box.
    """
    cam = np.asarray(cam, dtype=np.float64)
    if cam.ndim != 2:
        raise ValueError(f"cam must be 2-D, got shape {cam.shape}")
    if not np.isfinite(cam).all():
        raise ValueError("cam contains non-finite values")
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau {tau} outside (0, 1)")

    h, w = cam.shape
    peak = cam.max()
    if peak <= 0.0 or peak == cam.min():
        return full_image_box(image_w, image_h), True

    # 4-connected components over the activated cells only, discovered
    # in row-major order of their first cell
    cells = np.flatnonzero(cam > tau * peak).tolist()
    peak_cell = int(cam.argmax())
    unseen = set(cells)
    best: list[int] = []
    for start_cell in cells:
        if start_cell not in unseen:
            continue
        unseen.remove(start_cell)
        component = [start_cell]
        for cell in component:  # grows while it is walked: breadth first
            col = cell % w
            for nb in (cell - w, cell + w, cell - 1 if col else -1, cell + 1 if col + 1 < w else -1):
                if nb in unseen:
                    unseen.remove(nb)
                    component.append(nb)
        if len(component) > len(best) or (len(component) == len(best) and peak_cell in component):
            best = component

    rows, cols = np.divmod(np.array(best), w)
    sx = image_w / float(w)
    sy = image_h / float(h)
    box = Box(
        cols.min() * sx,
        rows.min() * sy,
        (cols.max() + 1) * sx,
        (rows.max() + 1) * sy,
    )
    return box, False
