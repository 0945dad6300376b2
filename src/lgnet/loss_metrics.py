"""Imbalance-weighted sigmoid cross-entropy and the five evaluation metrics.

Positive terms of the loss are scaled by w = exp((1 - p) / sigma^2) where
p is the attribute's positive ratio on the training split, so rare
attributes push harder. Metrics follow the usual multi-label conventions:
label-based mean accuracy plus example-based accuracy / precision /
recall / F1.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _sigmoid_stable

__all__ = [
    "positive_ratio",
    "weighted_sigmoid_ce",
    "weighted_sigmoid_ce_node",
    "mean_accuracy",
    "example_based_metrics",
    "MetricsReport",
]


def positive_ratio(labels: np.ndarray) -> np.ndarray:
    """Fraction of positive samples per attribute, computed on a training split."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"labels must be [N, a], got shape {labels.shape}")
    return labels.astype(np.float64).mean(axis=0)


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) without overflow for any float64 input
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def weighted_sigmoid_ce(
    logits: np.ndarray,
    labels: np.ndarray,
    pos_ratio: np.ndarray,
    sigma: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Loss and analytic gradient for one sample [a] or a batch [N, a].

    Per attribute with weight w = exp((1 - p) / sigma^2):
        term = w * y * (-log sigmoid(z)) + (1 - y) * (-log(1 - sigmoid(z)))
    A sample's loss is its mean term over attributes and a batch's loss is
    the mean of its samples' losses. Uses the softplus formulation, stable
    for any logit magnitude.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    p = np.asarray(pos_ratio, dtype=np.float64)
    if z.shape != y.shape or z.shape[-1:] != p.shape or z.ndim not in (1, 2):
        raise ValueError(f"shape mismatch: logits {z.shape}, labels {y.shape}, p {p.shape}")
    if (p < 0.0).any() or (p > 1.0).any():
        raise ValueError("positive ratios must lie in [0, 1]")
    w = np.exp((1.0 - p) / (sigma * sigma))
    # -log sigmoid(z) = softplus(-z); -log(1 - sigmoid(z)) = softplus(z)
    terms = w * y * _softplus(-z) + (1.0 - y) * _softplus(z)
    s = _sigmoid_stable(z)
    grad = (w * y * (s - 1.0) + (1.0 - y) * s) / z.shape[-1]
    if z.ndim == 2:
        grad /= z.shape[0]
    return float(terms.mean(axis=-1).mean()), grad


def weighted_sigmoid_ce_node(
    logits: Tensor,
    labels: np.ndarray,
    pos_ratio: np.ndarray,
    sigma: float = 1.0,
) -> Tensor:
    """Graph-building wrapper around :func:`weighted_sigmoid_ce`: a scalar
    tensor whose backward pass injects the analytic gradient."""
    loss, grad = weighted_sigmoid_ce(logits.data, labels, pos_ratio, sigma)

    def backward(g):
        if logits.requires_grad:
            logits._accumulate(grad * g)

    return Tensor._make(np.asarray(loss), (logits,), backward, "weighted_sigmoid_ce")


def _predictions(scores: np.ndarray, threshold: float) -> np.ndarray:
    return _sigmoid_stable(np.asarray(scores, dtype=np.float64)) > threshold


def mean_accuracy(scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> float:
    """Label-based mA: per attribute, average the positive and negative
    recognition rates, then average over attributes.

    An attribute with no positives (or no negatives) in the split
    contributes 0 for that side's rate and emits a warning.
    """
    labels = np.asarray(labels)
    preds = _predictions(scores, threshold)
    if labels.shape != preds.shape or labels.ndim != 2:
        raise ValueError(f"shape mismatch: scores {preds.shape}, labels {labels.shape}")
    y = labels == 1
    pos = y.sum(axis=0)
    neg = (~y).sum(axis=0)
    for i in np.flatnonzero((pos == 0) | (neg == 0)):
        warnings.warn(
            f"attribute {i} has {'no positives' if pos[i] == 0 else 'no negatives'} "
            "in the evaluation split; that rate counts as 0",
            stacklevel=2,
        )
    tpr = _ratio((y & preds).sum(axis=0), pos, 0.0)
    tnr = _ratio((~y & ~preds).sum(axis=0), neg, 0.0)
    # summed left to right in attribute order (a pairwise np.sum can round
    # the last bit differently)
    total = np.cumsum(0.5 * (tpr + tnr))[-1]
    return float(total) / labels.shape[1]


def _ratio(num: np.ndarray, den: np.ndarray, empty: float) -> np.ndarray:
    """num / den elementwise, with ``empty`` where den is 0."""
    return np.divide(num, den, out=np.full(num.shape, empty), where=den != 0)


def example_based_metrics(
    scores: np.ndarray,
    labels: np.ndarray,
    threshold: float = 0.5,
) -> tuple[float, float, float, float]:
    """Example-based accuracy, precision, recall and F1.

    Per sample with predicted set P and true set Y:
        accuracy  = |P & Y| / |P | Y|   (1 when both sets are empty)
        precision = |P & Y| / |P|       (0 when P is empty)
        recall    = |P & Y| / |Y|       (1 when Y is empty)
    Means are taken over samples; F1 combines the mean precision and
    recall (0 when their sum is 0).
    """
    labels = np.asarray(labels).astype(bool)
    preds = _predictions(scores, threshold)
    if labels.shape != preds.shape or labels.ndim != 2:
        raise ValueError(f"shape mismatch: scores {preds.shape}, labels {labels.shape}")
    inter = (preds & labels).sum(axis=1)
    acc = float(np.mean(_ratio(inter, (preds | labels).sum(axis=1), 1.0)))
    prec = float(np.mean(_ratio(inter, preds.sum(axis=1), 0.0)))
    rec = float(np.mean(_ratio(inter, labels.sum(axis=1), 1.0)))
    f1 = 2.0 * prec * rec / (prec + rec) if prec + rec > 0.0 else 0.0
    return acc, prec, rec, f1


@dataclass(frozen=True)
class MetricsReport:
    """The five headline numbers, all as fractions in [0, 1]."""

    ma: float
    accuracy: float
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_scores(
        cls, scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5
    ) -> "MetricsReport":
        acc, prec, rec, f1 = example_based_metrics(scores, labels, threshold)
        return cls(mean_accuracy(scores, labels, threshold), acc, prec, rec, f1)

    def as_dict(self) -> dict[str, float]:
        return {
            "mA": self.ma,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def tsv_line(self) -> str:
        """Single TSV row of the five metrics as percentages."""
        vals = [self.ma, self.accuracy, self.precision, self.recall, self.f1]
        return "\t".join(f"{100.0 * v:.2f}" for v in vals)
