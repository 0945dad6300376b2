"""Affinity between activation boxes and proposals, and the guided fusion head.

Each attribute's activation box is compared against every proposal to
produce a c x d affinity matrix. Row-normalized affinities weight the
per-proposal feature vectors; the weighted sum per attribute is projected
to a scalar by a learned vector and added to the frozen global logit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import Box, intersection_area
from .tensor import Tensor, matmul

__all__ = [
    "iou",
    "overlap_area",
    "AffinityMatrix",
    "affinity_map",
    "normalize_affinity",
    "GuidanceHead",
    "guided_fusion",
]

AFFINITY_MODES = ("iou", "overlap_area")


def iou(a: Box, b: Box) -> float:
    """Intersection over union on real-valued coordinates."""
    inter = intersection_area(a, b)
    if inter == 0.0:
        return 0.0
    return inter / (a.area + b.area - inter)


def overlap_area(a: Box, b: Box) -> float:
    """Raw intersection area; the ablation alternative to IoU weighting."""
    return intersection_area(a, b)


@dataclass(frozen=True)
class AffinityMatrix:
    """Per-attribute, per-proposal weights, with the mode that produced them."""

    values: np.ndarray  # [c, d]
    mode: str
    normalized: bool = field(default=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"affinity values must be 2-D, got shape {v.shape}")
        if (v < 0.0).any():
            raise ValueError("affinity values must be non-negative")
        object.__setattr__(self, "values", v)


def affinity_map(cam_boxes: list[Box], proposals: list[Box], mode: str = "iou") -> AffinityMatrix:
    """Raw affinity values[i, j] between activation box i and proposal j.

    Matches elementwise application of :func:`iou` / :func:`overlap_area`;
    both axes are broadcast.
    """
    if mode not in AFFINITY_MODES:
        raise ValueError(f"unknown affinity mode {mode!r}")
    if not cam_boxes or not proposals:
        raise ValueError("need at least one activation box and one proposal")
    c = np.array([[b.x_min, b.y_min, b.x_max, b.y_max] for b in cam_boxes])[:, :, None]  # [a, 4, 1]
    p = np.array([[b.x_min, b.y_min, b.x_max, b.y_max] for b in proposals]).T  # [4, d]
    iw = np.minimum(c[:, 2], p[2]) - np.maximum(c[:, 0], p[0])
    ih = np.minimum(c[:, 3], p[3]) - np.maximum(c[:, 1], p[1])
    values = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    if mode == "iou":
        c_areas = (c[:, 2] - c[:, 0]) * (c[:, 3] - c[:, 1])
        values = values / (c_areas + (p[2] - p[0]) * (p[3] - p[1]) - values)
    return AffinityMatrix(values, mode)


def normalize_affinity(raw: AffinityMatrix) -> AffinityMatrix:
    """Divide each row by its sum; all-zero rows stay all-zero.

    A zeroed row means the attribute receives no local evidence and its
    prediction falls back to the global logit plus the head bias.
    """
    sums = raw.values.sum(axis=1, keepdims=True)
    safe = np.where(sums > 0.0, sums, 1.0)
    return AffinityMatrix(raw.values / safe, raw.mode, normalized=True)


@dataclass
class GuidanceHead:
    """Learned per-attribute projection of the aggregated local feature."""

    weight: Tensor  # [c, k]
    bias: Tensor  # [c]

    @classmethod
    def zeros(cls, num_attributes: int, feature_dim: int) -> "GuidanceHead":
        return cls(
            weight=Tensor(np.zeros((num_attributes, feature_dim)), requires_grad=True),
            bias=Tensor(np.zeros(num_attributes), requires_grad=True),
        )

    def parameters(self) -> dict[str, Tensor]:
        return {"head/weight": self.weight, "head/bias": self.bias}


def guided_fusion(
    affinity: AffinityMatrix | np.ndarray,
    local_feats: Tensor,
    head: GuidanceHead,
    global_logits: np.ndarray,
) -> tuple[Tensor, Tensor]:
    """Fuse affinity-weighted local features with frozen global logits.

    For attribute i the aggregated feature is
    G[i] = sum_j A[i, j] * X[j], the local logit is
    Yl[i] = weight[i] . G[i] + bias[i], and the fused logit is
    Y[i] = Yl[i] + Yg[i]. Gradients flow to ``local_feats`` and the head;
    the affinity matrix and the global logits are constants.

    Returns (fused logits Y, local logits Yl), both shape [c].
    """
    values = affinity.values if isinstance(affinity, AffinityMatrix) else np.asarray(affinity)
    c, d = values.shape
    if local_feats.data.ndim != 2 or local_feats.data.shape[0] != d:
        raise ValueError(
            f"local features shape {local_feats.shape} does not match {d} proposals"
        )
    if head.weight.data.shape != (c, local_feats.data.shape[1]):
        raise ValueError(
            f"head weight shape {head.weight.shape} does not match "
            f"{c} attributes x {local_feats.data.shape[1]} features"
        )
    g = np.asarray(global_logits, dtype=np.float64)
    if g.shape != (c,):
        raise ValueError(f"global logits shape {g.shape} != ({c},)")

    aggregated = matmul(Tensor(values), local_feats)  # [c, k]
    local_logits = (head.weight * aggregated).sum(axis=1) + head.bias
    fused = local_logits + Tensor(g)
    return fused, local_logits
