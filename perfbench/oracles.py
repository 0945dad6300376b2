"""Reference computations for the output checks, written apart from lgnet.

Where a check needs a value the program also computes, it is computed
here from its definition: the Sobel magnitude with scipy, window scores
by direct summation, IoU and the five metrics by counting. The one
exception is :func:`compose_scores`, which rebuilds the stage-2 scores
from the public layer functions so that the scoring loop around them
is checked.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

# score_windows constants, restated from its documented formula
BAND = 2
INTERIOR_PENALTY = 0.5
MIN_SIDE = 5


def read_ppm(path) -> np.ndarray:
    """Decode a binary PPM with a plain `P6 W H 255` header into [3, H, W]."""
    raw = path.read_bytes()
    magic, w, h, maxval = raw.split(maxsplit=4)[:4]
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path}: unexpected header")
    w, h = int(w), int(h)
    pixels = np.frombuffer(raw[-3 * w * h:], dtype=np.uint8).reshape(h, w, 3)
    return pixels.transpose(2, 0, 1) / 255.0


def read_gt_boxes(path) -> list[tuple[float, float, float, float]]:
    boxes = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            boxes.append(tuple(float(v) for v in line.split()[1:5]))
    return boxes


def sobel_magnitude(image: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude of the channel-mean image, zero on the border."""
    gray = image.mean(axis=0)
    mag = np.hypot(ndimage.sobel(gray, axis=1), ndimage.sobel(gray, axis=0))
    out = np.zeros_like(mag)
    out[1:-1, 1:-1] = mag[1:-1, 1:-1]
    return out


def window_score(edges: np.ndarray, box) -> float:
    """band mass / perimeter - 0.5 * interior mass / interior area, by direct sums."""
    x0, y0, x1, y1 = (int(round(v)) for v in box)
    w, h = x1 - x0, y1 - y0
    if w < MIN_SIDE or h < MIN_SIDE:
        return 0.0
    total = edges[y0:y1, x0:x1].sum()
    interior = edges[y0 + BAND:y1 - BAND, x0 + BAND:x1 - BAND].sum()
    area = (w - 2 * BAND) * (h - 2 * BAND)
    return (total - interior) / (2.0 * (w + h)) - INTERIOR_PENALTY * interior / area


def iou(a, b) -> float:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0 or h <= 0:
        return 0.0
    inter = w * h
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def five_metrics(scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> dict[str, float]:
    """mA and example-based accuracy, precision, recall and F1 by counting.

    A side of an attribute with no samples (no positives or no negatives)
    counts as rate 0; an empty predicted set has precision 0, an empty
    true set recall 1, and both empty give accuracy 1.
    """
    with np.errstate(over="ignore"):
        probs = 1.0 / (1.0 + np.exp(-np.asarray(scores, dtype=np.float64)))
    preds = (probs > threshold).tolist()
    truth = (np.asarray(labels) == 1).tolist()
    n, a = len(truth), len(truth[0])
    rates = 0.0
    for j in range(a):
        tp = sum(1 for i in range(n) if truth[i][j] and preds[i][j])
        tn = sum(1 for i in range(n) if not truth[i][j] and not preds[i][j])
        pos = sum(1 for i in range(n) if truth[i][j])
        neg = n - pos
        rates += 0.5 * ((tp / pos if pos else 0.0) + (tn / neg if neg else 0.0))
    acc = prec = rec = 0.0
    for p, y in zip(preds, truth):
        inter = sum(1 for u, v in zip(p, y) if u and v)
        union = sum(1 for u, v in zip(p, y) if u or v)
        acc += 1.0 if union == 0 else inter / union
        prec += 0.0 if sum(p) == 0 else inter / sum(p)
        rec += 1.0 if sum(y) == 0 else inter / sum(y)
    acc, prec, rec = acc / n, prec / n, rec / n
    f1 = 2.0 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
    return {"mA": rates / a, "accuracy": acc, "precision": prec, "recall": rec, "f1": f1}


def compose_scores(model, samples, proposal_sets) -> np.ndarray:
    """Stage-2 fused scores built from the public layer functions.

    Proposals are taken best first, cut to the model's k and padded with
    full-image boxes, as a loaded proposal file is prepared for scoring.
    """
    from lgnet import backbone, cam, guidance, proposals
    from lgnet.tensor import Tensor, roi_max_pool_batch

    oh, ow = model.roi_out
    rows = []
    for sample in samples:
        h, w = sample.image.shape[1:]
        best = sorted(proposal_sets[sample.image_id].boxes, key=lambda b: -(b.score or 0.0))
        boxes = list(proposals.top_k(best[: model.top_k], w, h, model.top_k).boxes)
        image = Tensor(sample.image)
        featmap, logits = backbone.forward_global(model.global_params, model.backbone, image)
        maps = cam.class_activation_maps(featmap.data, model.cam_weights)
        cam_boxes = [cam.activation_box(m, w, h, model.cam_threshold)[0] for m in maps]
        raw = guidance.affinity_map(cam_boxes, boxes, model.affinity_mode)
        weights = guidance.normalize_affinity(raw)
        stem = backbone.forward_local_stem(model.local_params, model.backbone, image)
        pooled = roi_max_pool_batch(stem, boxes, oh, ow, w, h)
        feats = backbone.forward_local_tail(model.local_params, model.backbone, pooled)
        fused, _ = guidance.guided_fusion(weights, feats, model.head, logits.data)
        rows.append(fused.data)
    return np.stack(rows)


def compare(name: str, got: dict[str, float], want: dict[str, float], tol: float = 1e-12) -> list[str]:
    return [
        f"{name}: {key} is {got[key]!r}, counted {want[key]!r}"
        for key in want
        if not abs(got[key] - want[key]) <= tol
    ]
