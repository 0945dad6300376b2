"""Two-stage training, evaluation and ablation drivers.

Stage 1 trains the whole-image classifier. Stage 2 freezes it, transplants
its classifier weights into the activation-map generator, and trains the
region branch plus the guidance head on the fused logits. Everything is
seeded and single-threaded, so runs are byte-reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import checkpoint
from .backbone import (
    BACKBONE_PRESETS,
    BackboneConfig,
    BackboneParams,
    _config_dict,
    _config_from_dict,
    _params_from_tensors,
    forward_global,
    forward_local_stem,
    forward_local_tail,
    init_backbone_params,
    preset_config,
)
from .boxes import Box
from .cam import activation_box, class_activation_maps
from .guidance import GuidanceHead, affinity_map, guided_fusion, normalize_affinity
from .loss_metrics import MetricsReport, positive_ratio, weighted_sigmoid_ce_node
from .proposals import ProposalSet, load_proposals, top_k
from .synthdata import DataError, Sample
from .tensor import Tensor, is_grad_enabled, no_grad, roi_max_pool_batch

__all__ = [
    "TrainConfig",
    "GlobalModel",
    "LGModel",
    "Guidance",
    "Stage1Result",
    "Stage2Result",
    "learning_rate",
    "train_stage1",
    "train_stage2",
    "evaluate",
    "run_ablation",
    "ABLATIONS",
    "load_proposal_dir",
    "write_training_log",
    "save_stage2_checkpoint",
    "load_stage2_checkpoint",
]

AFFINITY_CHOICES = ("iou", "overlap_area", "uniform")
# images per stage-2 scoring pass; chunks of 64 were measured slower than 8-16
SCORE_BATCH = 16


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.02
    weight_decay: float = 0.005
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 20
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0
    top_k_proposals: int = 100
    cam_threshold: float = 0.2
    affinity_mode: str = "iou"
    roi_out: tuple[int, int] = (3, 3)
    backbone: str = "base"
    momentum: float = 0.0
    loss_sigma: float = 1.0

    def __post_init__(self):
        # lr0 == 0 is allowed: a no-op optimizer is a legitimate control
        if self.lr0 < 0 or self.weight_decay < 0 or not (0 < self.lr_decay_factor <= 1):
            raise ValueError("bad learning-rate/weight-decay settings")
        if self.lr_decay_every < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs, batch size and decay interval must be positive")
        if self.top_k_proposals < 1 or not (0 < self.cam_threshold < 1):
            raise ValueError("bad proposal count or activation threshold")
        if self.affinity_mode not in AFFINITY_CHOICES:
            raise ValueError(f"affinity mode must be one of {AFFINITY_CHOICES}")
        if self.backbone not in BACKBONE_PRESETS:
            raise ValueError(f"unknown backbone preset {self.backbone!r}")
        if len(self.roi_out) != 2 or min(self.roi_out) < 1:
            raise ValueError("roi_out must be two positive integers")
        if not (0 <= self.momentum < 1):
            raise ValueError("momentum must lie in [0, 1)")

    def as_dict(self) -> dict:
        d = self.__dict__.copy()
        d["roi_out"] = list(self.roi_out)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Build from parsed JSON; every key must name a field of a fitting type."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, not {type(d).__name__}")
        defaults = cls().__dict__
        for key, value in d.items():
            if key not in defaults:
                raise ValueError(f"unknown config field {key!r}")
            if not _fits(value, defaults[key]):
                raise ValueError(f"config field {key!r} cannot be {value!r}")
        d = dict(d)
        if "roi_out" in d:
            d["roi_out"] = tuple(d["roi_out"])
        return cls(**d)

    @classmethod
    def from_file(cls, path: str | Path) -> "TrainConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc


def _fits(value, default) -> bool:
    """Whether a parsed JSON value can stand in a field with this default."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def learning_rate(config: TrainConfig, epoch: int) -> float:
    """Stepped schedule: lr0 scaled by the decay factor every interval."""
    return config.lr0 * config.lr_decay_factor ** (epoch // config.lr_decay_every)


# -- models --------------------------------------------------------------------


@dataclass
class GlobalModel:
    """Stage-1 artifact: the whole-image classifier."""

    backbone: BackboneConfig
    params: BackboneParams


@dataclass
class LGModel:
    """Stage-2 artifact: frozen global branch, trainable local branch and head."""

    backbone: BackboneConfig
    global_params: BackboneParams  # frozen, head included
    cam_weights: np.ndarray  # [a, k], transplanted classifier weights
    local_params: BackboneParams  # trainable trunk, no head
    head: GuidanceHead
    affinity_mode: str = "iou"
    cam_threshold: float = 0.2
    roi_out: tuple[int, int] = (3, 3)
    top_k: int = 100

    def trainable(self) -> dict[str, Tensor]:
        named = self.local_params.named("local/")
        named.update(self.head.parameters())
        return named

    def frozen_digest(self) -> str:
        """Hash of the frozen branch; must not move during stage 2."""
        h = hashlib.sha256()
        for name in sorted(self.global_params.named_arrays()):
            h.update(self.global_params.named_arrays()[name].tobytes())
        h.update(self.cam_weights.tobytes())
        return h.hexdigest()


@dataclass
class Stage1Result:
    model: GlobalModel
    pos_ratio: np.ndarray
    log_rows: list[dict]
    best_val_ma: float
    best_epoch: int
    step_losses: list[list[float]]  # per epoch, per optimizer step


@dataclass
class Stage2Result:
    model: LGModel
    pos_ratio: np.ndarray
    log_rows: list[dict]
    best_val_ma: float
    best_epoch: int  # -1 means the untrained initialization won


# -- SGD -----------------------------------------------------------------------


def _is_weight(name: str) -> bool:
    return name.endswith("/kernel") or name.endswith("/weight")


def _zero_grads(named: Mapping[str, Tensor]) -> None:
    for t in named.values():
        t.zero_grad()


def _sgd_step(
    named: Mapping[str, Tensor],
    lr: float,
    weight_decay: float,
    momentum: float,
    velocity: dict[str, np.ndarray],
) -> None:
    for name, t in named.items():
        if t.grad is None:
            continue
        g = t.grad
        if weight_decay > 0 and _is_weight(name):
            g = g + weight_decay * t.data
        if momentum > 0:
            v = velocity.setdefault(name, np.zeros_like(t.data))
            v *= momentum
            v += g
            g = v
        t.data -= lr * g


def _epoch_permutation(seed: int, stage: int, epoch: int, n: int) -> np.ndarray:
    # stateless derivation: arms sharing a seed shuffle identically no
    # matter what else they compute
    ss = np.random.SeedSequence((seed, stage, 7000 + epoch))
    return np.random.Generator(np.random.PCG64(ss)).permutation(n)


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


# -- stage 1 ---------------------------------------------------------------------


def _label_matrix(samples: Sequence[Sample]) -> np.ndarray:
    return np.stack([s.labels for s in samples]).astype(np.float64)


def _same_size_chunks(samples: Sequence[Sample], size: int):
    """Runs of at most ``size`` consecutive samples whose images share a shape."""
    chunk: list[Sample] = []
    for s in samples:
        if chunk and (len(chunk) == size or s.image.shape != chunk[0].image.shape):
            yield chunk
            chunk = []
        chunk.append(s)
    if chunk:
        yield chunk


def _global_scores(model: GlobalModel, samples: Sequence[Sample], batch_size: int = 64) -> np.ndarray:
    rows = []
    for chunk in _same_size_chunks(samples, batch_size):
        images = Tensor(np.stack([s.image for s in chunk]))
        _, logits = forward_global(model.params, model.backbone, images)
        rows.append(logits.data)
    return np.concatenate(rows, axis=0)


def train_stage1(
    train: Sequence[Sample],
    val: Sequence[Sample],
    config: TrainConfig,
) -> Stage1Result:
    """Train the whole-image classifier; keeps the best-val-mA snapshot."""
    num_attributes = len(train[0].labels)
    bb = preset_config(config.backbone, num_attributes)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 0))))
    params = init_backbone_params(bb, rng, trainable=True)
    named = params.named()
    pos = positive_ratio(_label_matrix(train))
    labels = _label_matrix(train)

    velocity: dict[str, np.ndarray] = {}
    best_ma, best_epoch, best_arrays = -1.0, -1, None
    log_rows: list[dict] = []
    step_losses: list[list[float]] = []
    eval_model = GlobalModel(bb, params)
    for epoch in range(config.epochs):
        lr = learning_rate(config, epoch)
        order = _epoch_permutation(config.seed, 1, epoch, len(train))
        total_loss, seen = 0.0, 0
        epoch_steps: list[float] = []
        for step, batch_idx in enumerate(_batches(order, config.batch_size)):
            try:
                images = Tensor(np.stack([train[i].image for i in batch_idx]))
                _, logits = forward_global(params, bb, images)
                loss = weighted_sigmoid_ce_node(logits, labels[batch_idx], pos, config.loss_sigma)
            except FloatingPointError as exc:
                raise RuntimeError(f"stage-1 training diverged at epoch {epoch} step {step}: {exc}") from exc
            _zero_grads(named)
            loss.backward()
            _sgd_step(named, lr, config.weight_decay, config.momentum, velocity)
            epoch_steps.append(loss.item())
            total_loss += loss.item() * len(batch_idx)
            seen += len(batch_idx)
        val_ma = evaluate(eval_model, val).ma
        log_rows.append({"epoch": epoch, "lr": lr, "train_loss": total_loss / seen, "val_mA": val_ma})
        step_losses.append(epoch_steps)
        if val_ma > best_ma:
            best_ma, best_epoch = val_ma, epoch
            best_arrays = {n: t.data.copy() for n, t in named.items()}

    best_params = _params_from_tensors(bb, best_arrays, with_head=True)
    return Stage1Result(GlobalModel(bb, best_params), pos, log_rows, best_ma, best_epoch, step_losses)


# -- stage 2 ---------------------------------------------------------------------


def build_lg_model(stage1: GlobalModel, config: TrainConfig) -> LGModel:
    """Assemble the stage-2 model: freeze the global branch, fork its trunk
    into the local branch, start the guidance head at zero so the fused
    prediction begins exactly at the stage-1 one."""
    frozen = stage1.params.copy(requires_grad=False, with_head=True)
    local = stage1.params.copy(requires_grad=True, with_head=False)
    head = GuidanceHead.zeros(stage1.backbone.num_attributes, stage1.backbone.final_channels)
    return LGModel(
        backbone=stage1.backbone,
        global_params=frozen,
        cam_weights=frozen.head_weight.data.copy(),
        local_params=local,
        head=head,
        affinity_mode=config.affinity_mode,
        cam_threshold=config.cam_threshold,
        roi_out=config.roi_out,
        top_k=config.top_k_proposals,
    )


@dataclass(frozen=True)
class Guidance:
    """The frozen branch's output for one image; fixed through stage 2, so
    computed once. The CAM fields stay empty under uniform affinity."""

    boxes: Sequence[Box]  # the k proposals, best first
    global_logits: np.ndarray  # [c]
    affinity: np.ndarray  # [c, k], rows normalized
    cams: np.ndarray | None = None  # [c, h, w]
    cam_boxes: tuple[Box, ...] = ()
    degenerate: tuple[bool, ...] = ()
    affinity_raw: np.ndarray | None = None  # [c, k]


def _guidance(model: LGModel, sample: Sample, boxes: Sequence[Box]) -> Guidance:
    """Run the frozen half of the stage-2 model on one image, gradient-free."""
    image_h, image_w = sample.image.shape[1:]
    with no_grad():
        featmap, logits_g = forward_global(model.global_params, model.backbone, Tensor(sample.image))
    if model.affinity_mode == "uniform":
        c, d = model.backbone.num_attributes, len(boxes)
        return Guidance(boxes, logits_g.data, np.full((c, d), 1.0 / d))
    cams = class_activation_maps(featmap.data, model.cam_weights)
    found = [activation_box(cam, image_w, image_h, model.cam_threshold) for cam in cams]
    cam_boxes = tuple(box for box, _ in found)
    raw = affinity_map(cam_boxes, boxes, model.affinity_mode)
    return Guidance(
        boxes, logits_g.data, normalize_affinity(raw).values,
        cams, cam_boxes, tuple(degen for _, degen in found), raw.values,
    )


def _fused_logits(model: LGModel, samples: Sequence[Sample], guides: Sequence[Guidance]) -> list[Tensor]:
    """Run the trainable half on images of one size: the local trunk, ROI
    pooling and tail once for the batch, then the fusion per image.

    A batch of several images splits its region features per image
    without a gradient path, so it must run under ``no_grad``.
    """
    if len(samples) > 1 and is_grad_enabled():
        raise RuntimeError("a batch of several images can only be scored under no_grad")
    d = len(guides[0].boxes)
    if any(len(g.boxes) != d for g in guides):
        raise ValueError("every image of a batch needs the same number of proposals")
    image_h, image_w = samples[0].image.shape[1:]
    images = Tensor(np.stack([s.image for s in samples]))
    stem = forward_local_stem(model.local_params, model.backbone, images)
    oh, ow = model.roi_out
    boxes = [b for g in guides for b in g.boxes]
    pooled = roi_max_pool_batch(stem, boxes, oh, ow, image_w, image_h)
    feats = forward_local_tail(model.local_params, model.backbone, pooled)
    per_image = [feats] if len(samples) == 1 else [Tensor(f) for f in np.split(feats.data, len(samples))]
    return [
        guided_fusion(g.affinity, f, model.head, g.global_logits)[0]
        for g, f in zip(guides, per_image)
    ]


def _lg_forward(model: LGModel, sample: Sample, boxes: Sequence[Box]) -> tuple[Tensor, Guidance]:
    """One sample through the full pipeline; returns (fused logits, guidance)."""
    guide = _guidance(model, sample, boxes)
    return _fused_logits(model, [sample], [guide])[0], guide


def _prepare_proposals(
    samples: Sequence[Sample],
    proposals: Mapping[str, ProposalSet],
    k: int,
) -> dict[str, tuple[Box, ...]]:
    """Each image's k best proposals, padded with full-image boxes."""
    ready = {}
    for s in samples:
        if s.image_id not in proposals:
            raise DataError(f"no proposals for image {s.image_id!r}")
        h, w = s.image.shape[1:]
        for b in proposals[s.image_id].boxes:
            if b.x_max <= 0 or b.y_max <= 0 or b.x_min >= w or b.y_min >= h:
                raise DataError(
                    f"proposal ({b.x_min:g}, {b.y_min:g}, {b.x_max:g}, {b.y_max:g}) "
                    f"for image {s.image_id!r} lies outside the {w}x{h} image"
                )
        ready[s.image_id] = top_k(proposals[s.image_id].boxes, w, h, k).boxes
    return ready


def _guidance_for(
    model: LGModel,
    samples: Sequence[Sample],
    proposals: Mapping[str, ProposalSet],
) -> dict[str, Guidance]:
    """The guidance of every sample, keyed by image id."""
    boxes = _prepare_proposals(samples, proposals, model.top_k)
    return {s.image_id: _guidance(model, s, boxes[s.image_id]) for s in samples}


def train_stage2(
    train: Sequence[Sample],
    val: Sequence[Sample],
    stage1: GlobalModel,
    proposals: Mapping[str, ProposalSet],
    config: TrainConfig,
) -> Stage2Result:
    """Train the local branch and guidance head against frozen localization.

    The best snapshot is selected on validation mA, with the untouched
    initialization (which reproduces the stage-1 predictions exactly)
    included as a candidate.
    """
    model = build_lg_model(stage1, config)
    named = model.trainable()
    pos = positive_ratio(_label_matrix(train))
    train_guides = _guidance_for(model, train, proposals)
    val_guides = _guidance_for(model, val, proposals)

    digest = model.frozen_digest()
    velocity: dict[str, np.ndarray] = {}
    best_ma = _untrained_report(val, val_guides).ma
    best_epoch = -1
    best_arrays = {n: t.data.copy() for n, t in named.items()}
    log_rows: list[dict] = []

    for epoch in range(config.epochs):
        lr = learning_rate(config, epoch)
        order = _epoch_permutation(config.seed, 2, epoch, len(train))
        total_loss, seen = 0.0, 0
        for step, batch_idx in enumerate(_batches(order, config.batch_size)):
            _zero_grads(named)
            batch_loss = 0.0
            scale = 1.0 / len(batch_idx)
            for i in batch_idx:
                sample = train[i]
                try:
                    fused = _fused_logits(model, [sample], [train_guides[sample.image_id]])[0]
                    loss = weighted_sigmoid_ce_node(fused, sample.labels, pos, config.loss_sigma)
                except FloatingPointError as exc:
                    raise RuntimeError(
                        f"stage-2 training diverged at epoch {epoch} step {step}: {exc}"
                    ) from exc
                loss.backward(np.asarray(scale))
                batch_loss += loss.item()
            _sgd_step(named, lr, config.weight_decay, config.momentum, velocity)
            total_loss += batch_loss
            seen += len(batch_idx)
        if model.frozen_digest() != digest:
            raise RuntimeError(f"frozen global branch drifted during epoch {epoch}")
        val_ma = evaluate(model, val, proposals=val_guides).ma
        log_rows.append({"epoch": epoch, "lr": lr, "train_loss": total_loss / seen, "val_mA": val_ma})
        if val_ma > best_ma:
            best_ma, best_epoch = val_ma, epoch
            best_arrays = {n: t.data.copy() for n, t in named.items()}

    for name, t in named.items():
        t.data = best_arrays[name].copy()
    return Stage2Result(model, pos, log_rows, best_ma, best_epoch)


# -- evaluation -------------------------------------------------------------------


def _untrained_report(samples: Sequence[Sample], guides: Mapping[str, Guidance]) -> MetricsReport:
    """What :func:`evaluate` reports for a freshly built stage-2 model: its
    zero head makes the fused logits exactly the global ones, which the
    guidance records already hold."""
    scores = np.stack([guides[s.image_id].global_logits for s in samples])
    return MetricsReport.from_scores(scores, _label_matrix(samples))


def evaluate(
    model: GlobalModel | LGModel,
    samples: Sequence[Sample],
    proposals: Mapping[str, ProposalSet] | Mapping[str, Guidance] | None = None,
    threshold: float = 0.5,
) -> MetricsReport:
    """Score a split and compute the five metrics at the given threshold.

    Scoring is gradient-free and runs over consecutive images of one
    size, in chunks of up to 64 for a stage-1 model and ``SCORE_BATCH``
    for a stage-2 one.
    """
    labels = _label_matrix(samples)
    with no_grad():
        if isinstance(model, GlobalModel):
            scores = _global_scores(model, samples)
        else:
            if not proposals:
                raise DataError("stage-2 evaluation requires proposals")
            first = next(iter(proposals.values()))
            if isinstance(first, ProposalSet):
                proposals = _guidance_for(model, samples, proposals)
            scores = np.stack([
                fused.data
                for chunk in _same_size_chunks(samples, SCORE_BATCH)
                for fused in _fused_logits(model, chunk, [proposals[s.image_id] for s in chunk])
            ])
    return MetricsReport.from_scores(scores, labels, threshold)


# -- persistence -----------------------------------------------------------------


def write_training_log(path: str | Path, rows: Sequence[dict]) -> None:
    """CSV log, one row per epoch; floats keep full precision."""
    lines = ["epoch,lr,train_loss,val_mA"]
    for row in rows:
        lines.append(f"{row['epoch']},{row['lr']!r},{row['train_loss']!r},{row['val_mA']!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_proposal_dir(directory: str | Path, image_ids: Sequence[str]) -> dict[str, ProposalSet]:
    directory = Path(directory)
    out = {}
    for image_id in image_ids:
        path = directory / f"{image_id}.proposals"
        if not path.exists():
            raise DataError(f"missing proposal file: {path}")
        out[image_id] = load_proposals(path)
    return out


def save_stage2_checkpoint(path: str | Path, model: LGModel, extra: dict | None = None) -> None:
    meta = {
        "kind": "lg",
        "backbone": _config_dict(model.backbone),
        "affinity_mode": model.affinity_mode,
        "cam_threshold": model.cam_threshold,
        "roi_out": list(model.roi_out),
        "top_k": model.top_k,
    }
    if extra:
        meta.update(extra)
    tensors = model.global_params.named_arrays("global/")
    tensors["cam/weight"] = model.cam_weights
    tensors.update(model.local_params.named_arrays("local/"))
    tensors["head/weight"] = model.head.weight.data
    tensors["head/bias"] = model.head.bias.data
    checkpoint.save_container(path, meta, tensors)


def load_stage2_checkpoint(path: str | Path) -> tuple[LGModel, dict]:
    meta, tensors = checkpoint.load_container(path)
    return _stage2_from_container(path, meta, tensors), meta


def _stage2_from_container(path: str | Path, meta: dict, tensors: dict[str, np.ndarray]) -> LGModel:
    with checkpoint.metadata_errors(path):
        if meta["kind"] != "lg":
            raise checkpoint.CheckpointError(f"{path}: not a stage-2 checkpoint ({meta['kind']!r})")
        bb = _config_from_dict(meta["backbone"])
        # the stage-2 settings are training-config fields; check them as such
        settings = TrainConfig.from_dict({
            "affinity_mode": meta["affinity_mode"], "cam_threshold": meta["cam_threshold"],
            "roi_out": meta["roi_out"], "top_k_proposals": meta["top_k"],
        })
    global_params = _params_from_tensors(bb, tensors, with_head=True, prefix="global/")
    local_params = _params_from_tensors(bb, tensors, with_head=False, prefix="local/")
    missing = [name for name in ("cam/weight", "head/weight", "head/bias") if name not in tensors]
    if missing:
        raise checkpoint.CheckpointError(f"{path}: missing tensor {missing[0]!r}")
    cam_w = tensors["cam/weight"]
    if cam_w.shape != (bb.num_attributes, bb.final_channels):
        raise checkpoint.CheckpointError(f"{path}: cam weight shape {cam_w.shape}")
    if not np.array_equal(cam_w, global_params.head_weight.data):
        raise checkpoint.CheckpointError(f"{path}: cam weights diverge from the frozen classifier")
    head = GuidanceHead(Tensor(tensors["head/weight"]), Tensor(tensors["head/bias"]))
    if head.weight.data.shape != (bb.num_attributes, bb.final_channels):
        raise checkpoint.CheckpointError(f"{path}: head weight shape {head.weight.data.shape}")
    if head.bias.data.shape != (bb.num_attributes,):
        raise checkpoint.CheckpointError(f"{path}: head bias shape {head.bias.data.shape}")
    return LGModel(
        backbone=bb,
        global_params=global_params,
        cam_weights=cam_w,
        local_params=local_params,
        head=head,
        affinity_mode=settings.affinity_mode,
        cam_threshold=settings.cam_threshold,
        roi_out=settings.roi_out,
        top_k=settings.top_k_proposals,
    )


# -- ablations --------------------------------------------------------------------

# name -> (kind, arm labels, config overrides per arm)
ABLATIONS: dict[str, dict] = {
    "resolution": {
        "kind": "stage1",
        "arms": [("coarse_map", {"backbone": "base"}), ("stretched_map", {"backbone": "stretched"})],
    },
    "dilation": {
        "kind": "stage1",
        "arms": [("dilation_1", {"backbone": "stretched"}), ("dilation_2", {"backbone": "dilated"})],
    },
    "affinity_mode": {
        "kind": "stage2",
        "arms": [("overlap_area", {"affinity_mode": "overlap_area"}), ("iou", {"affinity_mode": "iou"})],
    },
    "no_guidance": {
        "kind": "stage2",
        "arms": [("uniform", {"affinity_mode": "uniform"}), ("guided", {"affinity_mode": "iou"})],
    },
}


@dataclass
class AblationArm:
    label: str
    config: TrainConfig
    report: MetricsReport
    best_val_ma: float


@dataclass
class AblationResult:
    name: str
    arms: list[AblationArm]


def run_ablation(
    name: str,
    train: Sequence[Sample],
    val: Sequence[Sample],
    base_config: TrainConfig,
    proposals: Mapping[str, ProposalSet] | None = None,
) -> AblationResult:
    """Train both arms of a named ablation with identical seeds and data.

    Stage-1 ablations (feature-map geometry) compare classifiers directly;
    stage-2 ablations share one stage-1 model per backbone and differ only
    in the guidance configuration. Reports are on the validation split.
    """
    if name not in ABLATIONS:
        raise ValueError(f"unknown ablation {name!r}; have {sorted(ABLATIONS)}")
    spec = ABLATIONS[name]
    arms: list[AblationArm] = []
    stage1_cache: dict[str, Stage1Result] = {}
    for label, overrides in spec["arms"]:
        config = replace(base_config, **overrides)
        if spec["kind"] == "stage1":
            result = train_stage1(train, val, config)
            report = evaluate(result.model, val)
            arms.append(AblationArm(label, config, report, result.best_val_ma))
        else:
            if proposals is None:
                raise DataError(f"ablation {name!r} needs proposals")
            if config.backbone not in stage1_cache:
                stage1_cache[config.backbone] = train_stage1(train, val, config)
            s1 = stage1_cache[config.backbone]
            result = train_stage2(train, val, s1.model, proposals, config)
            report = evaluate(result.model, val, proposals=proposals)
            arms.append(AblationArm(label, config, report, result.best_val_ma))
    return AblationResult(name, arms)
