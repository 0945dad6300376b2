"""Class-agnostic region proposals: a transparent EdgeBoxes-style surrogate.

A Sobel edge map scores deterministic sliding-window candidates: a box is
good when edge mass concentrates in a thin band just inside its border
and its interior stays clean. Greedy NMS and top-k selection (padded with
full-image boxes so the proposal count is constant) finish the pipeline.
The candidate grid and each box's suppression list depend only on the
image size, so they are computed once per size and reused; per image,
only the window scores and the greedy walk are new work. A proposal set
is one [k, 5] array of rows (x_min, y_min, x_max, y_max, score) from the
walk to the file and back; ``Box`` objects are built only on request.
Externally computed proposals can be dropped in through the same file
format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .boxes import Box, box_array, pairwise_overlap

__all__ = [
    "CandidateConfig",
    "ProposalSet",
    "edge_map",
    "generate_candidates",
    "score_windows",
    "nms",
    "top_k",
    "propose_for_image",
    "save_proposals",
    "load_proposals",
]

BAND_WIDTH = 2  # inner border band, pixels
INTERIOR_PENALTY = 0.5
MIN_SIDE = 5  # boxes thinner than this score 0


@dataclass(frozen=True)
class CandidateConfig:
    min_scale: int = 16
    scale_ratio: float = 1.5
    aspect_ratios: tuple[float, ...] = (0.5, 1.0, 2.0)
    stride_fraction: float = 0.25


@dataclass(frozen=True, eq=False)
class ProposalSet:
    """Scored proposals, best first for a generated set.

    ``rows`` is given as a sequence of scored :class:`Box` or as an
    [n, 5] array, and is kept as a read-only float64 array of rows
    (x_min, y_min, x_max, y_max, score).
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = box_array(self.rows, scored=True).view()
        rows.flags.writeable = False  # a view, so the caller's array stays writeable
        object.__setattr__(self, "rows", rows)

    @property
    def boxes(self) -> tuple[Box, ...]:
        """The rows as :class:`Box` objects, built on each access."""
        return tuple(Box(*row) for row in self.rows.tolist())

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProposalSet):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)


def edge_map(image: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude of the channel-mean grayscale image.

    ``image`` is [3, H, W]; the result is [H, W] with zeroed borders.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"image must be [3, H, W], got shape {image.shape}")
    h, w = image.shape[1:]
    if h < 3 or w < 3:
        raise ValueError("image too small for a 3x3 stencil")
    gray = image.mean(axis=0)
    gx = np.zeros((h, w))
    gy = np.zeros((h, w))
    # 3x3 Sobel stencils as paired differences, so flat regions cancel
    # exactly instead of leaving summation-order residue
    gx[1:-1, 1:-1] = (
        (gray[:-2, 2:] - gray[:-2, :-2])
        + 2.0 * (gray[1:-1, 2:] - gray[1:-1, :-2])
        + (gray[2:, 2:] - gray[2:, :-2])
    )
    gy[1:-1, 1:-1] = (
        (gray[2:, :-2] - gray[:-2, :-2])
        + 2.0 * (gray[2:, 1:-1] - gray[:-2, 1:-1])
        + (gray[2:, 2:] - gray[:-2, 2:])
    )
    return np.hypot(gx, gy)


def generate_candidates(
    image_w: int,
    image_h: int,
    config: CandidateConfig = CandidateConfig(),
) -> list[Box]:
    """Deterministic sliding-window pyramid over scales and aspect ratios."""
    return [Box(*row) for row in _candidate_grid(image_w, image_h, config).tolist()]


@lru_cache(maxsize=8)
def _candidate_grid(image_w: int, image_h: int, config: CandidateConfig) -> np.ndarray:
    """The candidates of one image size as a read-only [n, 4] array of
    (x_min, y_min, x_max, y_max); the grid depends on nothing else."""
    seen: set[tuple[int, int, int, int]] = set()
    out: list[tuple[int, int, int, int]] = []
    scale = float(config.min_scale)
    limit = min(image_w, image_h)
    while scale <= limit:
        for ratio in config.aspect_ratios:
            w = int(round(scale * np.sqrt(ratio)))
            h = int(round(scale / np.sqrt(ratio)))
            if w < 1 or h < 1 or w > image_w or h > image_h:
                continue
            sx = max(1, int(round(config.stride_fraction * w)))
            sy = max(1, int(round(config.stride_fraction * h)))
            for y0 in range(0, image_h - h + 1, sy):
                for x0 in range(0, image_w - w + 1, sx):
                    key = (x0, y0, x0 + w, y0 + h)
                    if key not in seen:
                        seen.add(key)
                        out.append(key)
        scale *= config.scale_ratio
    grid = np.array(out, dtype=np.float64).reshape(-1, 4)
    grid.flags.writeable = False  # shared by every caller of the cache
    return grid


def _integral(edges: np.ndarray) -> np.ndarray:
    ii = np.zeros((edges.shape[0] + 1, edges.shape[1] + 1))
    ii[1:, 1:] = edges.cumsum(axis=0).cumsum(axis=1)
    return ii


def _window_scores(edges: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Scores of the [n, 4] windows ``coords``, corners rounded to pixels."""
    eh, ew = edges.shape
    x0, y0, x1, y1 = np.rint(coords).T
    outside = ~((0 <= x0) & (x0 < x1) & (x1 <= ew) & (0 <= y0) & (y0 < y1) & (y1 <= eh))
    if outside.any():
        box = Box(*coords[np.argmax(outside)].tolist())
        raise ValueError(f"candidate outside edge map bounds: {box}")
    x0, y0, x1, y1 = (v.astype(np.intp) for v in (x0, y0, x1, y1))
    w, h = x1 - x0, y1 - y0
    scores = np.zeros(len(coords))
    big = (w >= MIN_SIDE) & (h >= MIN_SIDE)  # smaller boxes score 0
    x0, y0, x1, y1, w, h = (v[big] for v in (x0, y0, x1, y1, w, h))
    ii = _integral(edges)
    b = BAND_WIDTH
    # the four-corner sums keep the scalar ((a - b) - c) + d order, so the
    # scores are the bits a per-box loop produces
    total = ii[y1, x1] - ii[y0, x1] - ii[y1, x0] + ii[y0, x0]
    interior = ii[y1 - b, x1 - b] - ii[y0 + b, x1 - b] - ii[y1 - b, x0 + b] + ii[y0 + b, x0 + b]
    band = total - interior
    perimeter = 2.0 * (w + h)
    interior_area = (w - 2 * b) * (h - 2 * b)
    scores[big] = band / perimeter - INTERIOR_PENALTY * interior / interior_area
    return scores


def score_windows(edges: np.ndarray, candidates: list[Box]) -> list[Box]:
    """Score each candidate by border-band edge concentration.

    score = band mass / perimeter - 0.5 * interior mass / interior area,
    where the band is the BAND_WIDTH-pixel strip just inside the box and
    the interior is everything the band encloses. Boxes under 5x5 pixels
    score 0.
    """
    scores = _window_scores(np.asarray(edges, dtype=np.float64), box_array(candidates))
    return [box.with_score(s) for box, s in zip(candidates, scores.tolist())]


def _suppression_rows(coords: np.ndarray, iou_threshold: float) -> tuple[np.ndarray, ...]:
    """For each box, the indices of the other boxes whose IoU with it
    exceeds the threshold. Built from blocks of rows, never as an n x n
    matrix."""
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou threshold {iou_threshold} outside (0, 1)")
    n = len(coords)
    # about 2**14 IoUs a block: one BLAS thread, 611 boxes took 20, 12 and
    # 26 us a row with blocks of 2**12, 2**14 and 2**16 IoUs; 3732 boxes
    # took 110, 61 and 148 us a row
    step = max(1, (1 << 14) // max(n, 1))
    rows = []
    for start in range(0, n, step):
        hit = pairwise_overlap(coords[start : start + step], coords) > iou_threshold
        diagonal = np.arange(len(hit))
        hit[diagonal, diagonal + start] = False
        found, cols = np.nonzero(hit)
        for row in np.split(cols, np.searchsorted(found, diagonal[1:])):
            row.flags.writeable = False  # cached rows are shared by every caller
            rows.append(row)
    return tuple(rows)


@lru_cache(maxsize=8)
def _grid_suppression_rows(
    image_w: int, image_h: int, config: CandidateConfig, iou_threshold: float
) -> tuple[np.ndarray, ...]:
    return _suppression_rows(_candidate_grid(image_w, image_h, config), iou_threshold)


def _greedy(scores: np.ndarray, rows: tuple[np.ndarray, ...], k: int | None = None) -> list[int]:
    """Indices greedy NMS keeps, best first, stopping once ``k`` are kept.

    The best remaining box is kept and the boxes in its suppression row
    are dropped; ties in score go to the lower index.
    """
    order = np.lexsort((np.arange(len(scores)), -scores))  # score desc, then index asc
    alive = np.ones(len(scores), dtype=bool)
    kept: list[int] = []
    for i in order.tolist():
        if not alive[i]:
            continue
        kept.append(i)
        if len(kept) == k:
            break
        if rows[i].size:
            alive[rows[i]] = False
    return kept


def nms(boxes: list[Box], iou_threshold: float = 0.7) -> list[Box]:
    """Greedy suppression: keep the best remaining box, drop boxes whose
    IoU with it exceeds the threshold. Ties go to the lower index."""
    rows = box_array(boxes, scored=True)
    suppressed = _suppression_rows(rows[:, :4], iou_threshold)
    return [boxes[i] for i in _greedy(rows[:, 4], suppressed)]


def top_k(boxes, image_w: int, image_h: int, k: int = 100) -> ProposalSet:
    """Highest-k scored boxes, padded with zero-score full-image boxes.

    ``boxes`` is a sequence of scored :class:`Box` or an [n, 5] array of
    rows. Padding keeps the proposal count constant across images, which
    the affinity matrix shape depends on. Both sorts are stable: equal
    scores keep their input order, and pads follow real zero scores.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rows = box_array(boxes, scored=True)
    rows = rows[np.argsort(-rows[:, 4], kind="stable")[:k]]
    if len(rows) < k:
        pad = np.array([0.0, 0.0, float(image_w), float(image_h), 0.0])
        rows = np.concatenate([rows, np.broadcast_to(pad, (k - len(rows), 5))])
        # interior-penalized scores can go negative, so the zero-score pads
        # are merged back into score order rather than appended
        rows = rows[np.argsort(-rows[:, 4], kind="stable")]
    return ProposalSet(rows)


def propose_for_image(
    image: np.ndarray,
    k: int = 100,
    iou_threshold: float = 0.7,
    config: CandidateConfig = CandidateConfig(),
) -> ProposalSet:
    """Full pipeline: edges, candidates, scoring, NMS, top-k.

    The candidate grid and its suppression rows are cached per image
    size, and NMS stops at the k-th kept box: its output is already in
    top-k order, so the boxes after it could never be picked.
    """
    h, w = image.shape[1:]
    edges = edge_map(image)
    grid = _candidate_grid(w, h, config)
    scores = _window_scores(edges, grid)
    kept = _greedy(scores, _grid_suppression_rows(w, h, config, iou_threshold), k)
    return top_k(np.column_stack([grid[kept], scores[kept]]), w, h, k)


def save_proposals(path: str | Path, proposals: ProposalSet) -> None:
    """One line per box: `x_min y_min x_max y_max score`, 6 decimals."""
    rows = proposals.rows
    text = "\n".join(["%.6f %.6f %.6f %.6f %.6f"] * len(rows)) % tuple(rows.ravel().tolist())
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_proposals(path: str | Path) -> ProposalSet:
    """Read a file written by :func:`save_proposals`. Raises ValueError,
    naming the first offending line, on a wrong field count, a token that
    ``float`` rejects, a non-finite value or a degenerate box."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    lines = [(ln, line, line.split()) for ln, line in enumerate(text.splitlines(), start=1)]
    lines = [entry for entry in lines if entry[2]]  # blank lines are skipped
    # rows parse up to the first line with a wrong field count or a bad token
    good = next((i for i, (_, _, parts) in enumerate(lines) if len(parts) != 5), len(lines))
    fault = f"expected 5 fields, got {len(lines[good][2])}" if good < len(lines) else None
    fields = [token for _, _, parts in lines[:good] for token in parts]
    unread = iter(fields)
    try:
        values = np.fromiter(map(float, unread), np.float64, len(fields))
    except ValueError as exc:
        # the tokens left unread locate the one float rejected; the rows
        # before its line are still checked first
        good, fault = (len(fields) - sum(1 for _ in unread) - 1) // 5, str(exc)
        values = np.fromiter(map(float, fields[: 5 * good]), np.float64, 5 * good)
    rows = values.reshape(good, 5)
    finite = np.isfinite(rows).all(axis=1)
    bad = ~finite | ~((rows[:, 0] < rows[:, 2]) & (rows[:, 1] < rows[:, 3]))
    if bad.any():
        i = int(bad.argmax())
        ln, line, _ = lines[i]
        if not finite[i]:
            raise ValueError(f"{path}:{ln}: non-finite value in {line.strip()!r}")
        try:
            Box(*rows[i].tolist())  # raises the degenerate-box error
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
    if fault is not None:
        raise ValueError(f"{path}:{lines[good][0]}: {fault}")
    if not good:
        raise ValueError(f"{path}: no proposals")
    return ProposalSet(rows)
