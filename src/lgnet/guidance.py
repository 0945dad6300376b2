"""Affinity between activation boxes and proposals, and the guided fusion head.

Each attribute's activation box is compared against every proposal to
produce a c x d affinity matrix. Row-normalized affinities weight the
per-proposal feature vectors; the weighted sum per attribute is projected
to a scalar by a learned vector and added to the frozen global logit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import Box, pairwise_overlap
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


def iou(a: Box, b: Box) -> float:
    """Intersection over union on real-valued coordinates."""
    return float(pairwise_overlap([a], [b])[0, 0])


def overlap_area(a: Box, b: Box) -> float:
    """Raw intersection area; the ablation alternative to IoU weighting."""
    return float(pairwise_overlap([a], [b], "overlap_area")[0, 0])


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


def affinity_map(cam_boxes, proposals, mode: str = "iou") -> AffinityMatrix:
    """Raw affinity values[i, j] between activation box i and proposal j.

    Either side is a sequence of :class:`Box` or an array of rows whose
    first four columns are the corners; the values are those of
    :func:`~lgnet.boxes.pairwise_overlap` in the same mode.
    """
    values = pairwise_overlap(cam_boxes, proposals, mode)
    if not values.size:
        raise ValueError("need at least one activation box and one proposal")
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

    One image has affinity [c, d], features [d, k] and global logits [c];
    n images stack them as [n, c, d], [n*d, k] and [n, c], and aggregate
    in one batched product. Returns (fused logits Y, local logits Yl),
    both shaped like the global logits.
    """
    values = affinity.values if isinstance(affinity, AffinityMatrix) else np.asarray(affinity)
    if values.ndim not in (2, 3):
        raise ValueError(f"affinity must be [c, d] or [n, c, d], got shape {values.shape}")
    n, c, d = values.reshape(-1, *values.shape[-2:]).shape
    if local_feats.data.ndim != 2 or local_feats.data.shape[0] != n * d:
        raise ValueError(
            f"local features shape {local_feats.shape} does not match {n} x {d} proposals"
        )
    k = local_feats.data.shape[1]
    if head.weight.data.shape != (c, k):
        raise ValueError(
            f"head weight shape {head.weight.shape} does not match {c} attributes x {k} features"
        )
    g = np.asarray(global_logits, dtype=np.float64)
    if g.shape != values.shape[:-1]:
        raise ValueError(f"global logits shape {g.shape} != {values.shape[:-1]}")

    aggregated = matmul(Tensor(values.reshape(n, c, d)), local_feats.reshape(n, d, k))  # [n, c, k]
    local_logits = ((head.weight * aggregated).sum(axis=2) + head.bias).reshape(*g.shape)
    fused = local_logits + Tensor(g)
    return fused, local_logits
