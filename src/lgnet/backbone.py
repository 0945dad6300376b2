"""Small configurable convolutional trunk with a GAP + linear head.

A plain stack of 3x3 conv + ReLU stages stands in for a large pretrained
network. The same architecture serves two roles: the image-level branch
(run end to end, pooled, classified) and the region branch, which is cut
at ``split_index`` so region features can be pooled out of the stem and
pushed through the remaining stages.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import checkpoint
from .tensor import Tensor, affine, conv2d, conv_output_extent, global_avg_pool, relu

__all__ = [
    "BackboneConfig",
    "BackboneParams",
    "BACKBONE_PRESETS",
    "preset_config",
    "init_backbone_params",
    "forward_global",
    "forward_local_stem",
    "forward_local_tail",
    "feature_extent",
    "save_stage1_checkpoint",
    "load_stage1_checkpoint",
]


@dataclass(frozen=True)
class BackboneConfig:
    stage_channels: tuple[int, ...] = (8, 16, 32)
    strides: tuple[int, ...] = (2, 2, 2)
    dilations: tuple[int, ...] = (1, 1, 1)
    split_index: int = 2
    num_attributes: int = 8
    in_channels: int = 3
    kernel_size: int = 3

    def __post_init__(self):
        n = len(self.stage_channels)
        if not (len(self.strides) == len(self.dilations) == n and n >= 1):
            raise ValueError("stage_channels, strides and dilations must have equal length")
        if any(s < 1 for s in self.strides) or any(d < 1 for d in self.dilations):
            raise ValueError("strides and dilations must be >= 1")
        # The boundary split (== stage count) leaves an empty tail: region
        # features are then pooled straight off the final map.
        if not (0 < self.split_index <= n):
            raise ValueError(f"split_index {self.split_index} outside (0, {n}]")
        if self.kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd")

    @property
    def num_stages(self) -> int:
        return len(self.stage_channels)

    @property
    def final_channels(self) -> int:
        return self.stage_channels[-1]

    @property
    def split_channels(self) -> int:
        return self.stage_channels[self.split_index - 1]

    def padding(self, stage: int) -> int:
        # keeps extent at stride 1 and halves even extents at stride 2
        return self.dilations[stage] * (self.kernel_size - 1) // 2

    def stage_in_channels(self, stage: int) -> int:
        return self.in_channels if stage == 0 else self.stage_channels[stage - 1]


BACKBONE_PRESETS: dict[str, dict] = {
    # coarse final map (each stage halves the extent)
    "base": dict(strides=(2, 2, 2), dilations=(1, 1, 1)),
    # stride dropped to 1 in the last stage: doubled final extent
    "stretched": dict(strides=(2, 2, 1), dilations=(1, 1, 1)),
    # doubled extent with the receptive field restored by dilation
    "dilated": dict(strides=(2, 2, 1), dilations=(1, 1, 2)),
}


def preset_config(name: str, num_attributes: int) -> BackboneConfig:
    if name not in BACKBONE_PRESETS:
        raise ValueError(f"unknown backbone preset {name!r}; have {sorted(BACKBONE_PRESETS)}")
    return BackboneConfig(num_attributes=num_attributes, **BACKBONE_PRESETS[name])


def feature_extent(config: BackboneConfig, extent: int, upto: int | None = None) -> int:
    """Spatial extent after running stages [0, upto) on an input of the
    given extent (both axes behave identically)."""
    stop = config.num_stages if upto is None else upto
    for i in range(stop):
        extent = conv_output_extent(
            extent, config.kernel_size, config.strides[i], config.dilations[i], config.padding(i)
        )
    return extent


@dataclass
class BackboneParams:
    """Stage kernels/biases plus the classifier head.

    The head is optional: the region branch reuses the trunk without one.
    """

    stage_kernels: list[Tensor]
    stage_biases: list[Tensor]
    head_weight: Tensor | None = None
    head_bias: Tensor | None = None

    def validate(self, config: BackboneConfig) -> None:
        if len(self.stage_kernels) != config.num_stages or len(self.stage_biases) != config.num_stages:
            raise ValueError("stage parameter count does not match config")
        for i, (k, b) in enumerate(zip(self.stage_kernels, self.stage_biases)):
            expected = (
                config.stage_channels[i],
                config.stage_in_channels(i),
                config.kernel_size,
                config.kernel_size,
            )
            if k.data.shape != expected:
                raise ValueError(f"stage {i} kernel shape {k.data.shape} != {expected}")
            if b.data.shape != (config.stage_channels[i],):
                raise ValueError(f"stage {i} bias shape {b.data.shape}")
        if self.head_weight is not None:
            if self.head_weight.data.shape != (config.num_attributes, config.final_channels):
                raise ValueError(f"head weight shape {self.head_weight.data.shape}")
            if self.head_bias is None or self.head_bias.data.shape != (config.num_attributes,):
                raise ValueError("head bias missing or mis-shaped")

    def named(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, (k, b) in enumerate(zip(self.stage_kernels, self.stage_biases)):
            out[f"{prefix}stage{i}/kernel"] = k
            out[f"{prefix}stage{i}/bias"] = b
        if self.head_weight is not None:
            out[f"{prefix}head/weight"] = self.head_weight
            out[f"{prefix}head/bias"] = self.head_bias
        return out

    def named_arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.named(prefix).items()}

    def copy(self, requires_grad: bool, with_head: bool = True) -> "BackboneParams":
        """Deep copy with fresh buffers; used to freeze or fork a branch."""
        return BackboneParams(
            stage_kernels=[Tensor(k.data.copy(), requires_grad) for k in self.stage_kernels],
            stage_biases=[Tensor(b.data.copy(), requires_grad) for b in self.stage_biases],
            head_weight=(
                Tensor(self.head_weight.data.copy(), requires_grad)
                if with_head and self.head_weight is not None
                else None
            ),
            head_bias=(
                Tensor(self.head_bias.data.copy(), requires_grad)
                if with_head and self.head_bias is not None
                else None
            ),
        )


# Multiplier on the He kernel scale. The plain stack has no normalization
# layers, so activations shrink stage over stage; the gain keeps the
# pooled features near unit scale and was calibrated once on the default
# synthetic family.
INIT_GAIN = 1.5


def init_backbone_params(
    config: BackboneConfig,
    rng: np.random.Generator,
    trainable: bool = True,
) -> BackboneParams:
    """He-style kernel init (with a fixed gain), zero biases, small head."""
    kernels, biases = [], []
    for i in range(config.num_stages):
        fan_in = config.stage_in_channels(i) * config.kernel_size**2
        scale = INIT_GAIN * np.sqrt(2.0 / fan_in)
        shape = (
            config.stage_channels[i],
            config.stage_in_channels(i),
            config.kernel_size,
            config.kernel_size,
        )
        kernels.append(Tensor(rng.normal(0.0, scale, shape), requires_grad=trainable))
        biases.append(Tensor(np.zeros(config.stage_channels[i]), requires_grad=trainable))
    scale = np.sqrt(1.0 / config.final_channels)
    head_w = Tensor(
        rng.normal(0.0, scale, (config.num_attributes, config.final_channels)),
        requires_grad=trainable,
    )
    head_b = Tensor(np.zeros(config.num_attributes), requires_grad=trainable)
    params = BackboneParams(kernels, biases, head_w, head_b)
    params.validate(config)
    return params


# Raster inputs live in [0, 1] and are mostly flat background; without
# normalization the DC level swamps the per-image signal at the pooling
# layer and gradient steps barely move the classifier. The trunk therefore
# standardizes its input: per-image mean subtraction and a fixed contrast
# gain, chosen once so early activations land near unit scale.
INPUT_GAIN = 4.0


def _standardize(image: Tensor) -> Tensor:
    if image.requires_grad:
        raise ValueError("images are data, not parameters; they must not require gradients")
    data = image.data
    axes = (0, 1, 2) if data.ndim == 3 else (1, 2, 3)
    mean = data.mean(axis=axes, keepdims=True)
    return Tensor((data - mean) * INPUT_GAIN)


def _run_stages(params: BackboneParams, config: BackboneConfig, x: Tensor, start: int, stop: int) -> Tensor:
    if start == 0:
        x = _standardize(x)
    for i in range(start, stop):
        x = relu(
            conv2d(
                x,
                params.stage_kernels[i],
                params.stage_biases[i],
                stride=config.strides[i],
                dilation=config.dilations[i],
                padding=config.padding(i),
            )
        )
    return x


def forward_global(
    params: BackboneParams, config: BackboneConfig, image: Tensor
) -> tuple[Tensor, Tensor]:
    """Whole-image pass: returns (final feature map, attribute logits).

    Accepts [C, H, W] or a batched [N, C, H, W] image tensor.
    """
    if params.head_weight is None:
        raise ValueError("forward_global needs a classifier head")
    featmap = _run_stages(params, config, image, 0, config.num_stages)
    pooled = global_avg_pool(featmap)
    logits = affine(pooled, params.head_weight, params.head_bias)
    return featmap, logits


def forward_local_stem(params: BackboneParams, config: BackboneConfig, image: Tensor) -> Tensor:
    """Stages up to the split point; region pooling happens on this map."""
    return _run_stages(params, config, image, 0, config.split_index)


def forward_local_tail(params: BackboneParams, config: BackboneConfig, pooled: Tensor) -> Tensor:
    """Remaining stages plus GAP: pooled regions become feature vectors.

    ``pooled`` is [C', oh, ow] for one region or [N, C', oh, ow] for a
    batch of regions; returns [k] or [N, k].
    """
    channels = pooled.data.shape[0] if pooled.data.ndim == 3 else pooled.data.shape[1]
    if channels != config.split_channels:
        raise ValueError(
            f"pooled features have {channels} channels, split point expects {config.split_channels}"
        )
    x = _run_stages(params, config, pooled, config.split_index, config.num_stages)
    return global_avg_pool(x)


def _config_from_dict(d: dict) -> BackboneConfig:
    """A checkpoint's ``backbone`` block, which must give every field."""
    return checkpoint.config_from_dict(BackboneConfig, {f.name: d[f.name] for f in fields(BackboneConfig)})


def save_stage1_checkpoint(
    path,
    config: BackboneConfig,
    params: BackboneParams,
    extra: dict | None = None,
) -> None:
    meta = {"kind": "global", "backbone": asdict(config)}
    if extra:
        meta.update(extra)
    checkpoint.save_container(path, meta, params.named_arrays())


def load_stage1_checkpoint(path) -> tuple[BackboneConfig, BackboneParams, dict]:
    meta, tensors = checkpoint.load_container(path)
    config, params = _stage1_from_container(path, meta, tensors)
    return config, params, meta


def _stage1_from_container(
    path, meta: dict, tensors: dict[str, np.ndarray]
) -> tuple[BackboneConfig, BackboneParams]:
    with checkpoint.metadata_errors(path):
        if meta["kind"] != "global":
            raise checkpoint.CheckpointError(f"{path}: not a stage-1 checkpoint ({meta['kind']!r})")
        config = _config_from_dict(meta["backbone"])
    params = _params_from_tensors(config, tensors, with_head=True)
    return config, params


def _params_from_tensors(
    config: BackboneConfig,
    tensors: dict[str, np.ndarray],
    with_head: bool,
    prefix: str = "",
) -> BackboneParams:
    try:
        kernels = [Tensor(tensors[f"{prefix}stage{i}/kernel"]) for i in range(config.num_stages)]
        biases = [Tensor(tensors[f"{prefix}stage{i}/bias"]) for i in range(config.num_stages)]
        head_w = head_b = None
        if with_head:
            head_w = Tensor(tensors[f"{prefix}head/weight"])
            head_b = Tensor(tensors[f"{prefix}head/bias"])
    except KeyError as exc:
        raise checkpoint.CheckpointError(f"missing tensor {exc.args[0]!r} in checkpoint") from exc
    params = BackboneParams(kernels, biases, head_w, head_b)
    try:
        params.validate(config)
    except ValueError as exc:
        raise checkpoint.CheckpointError(str(exc)) from exc
    return params
