"""Localization-guided multi-label attribute recognition, desk scale.

A frozen whole-image classifier provides class activation boxes; region
proposals are weighted by their spatial affinity to those boxes; the
weighted local features are fused with the global logits for the final
prediction. Includes a from-scratch autodiff core, a synthetic benchmark
with ground-truth object locations, two-stage training and a CLI.
"""

from .boxes import Box
from .cam import activation_box, class_activation_maps
from .guidance import (
    AffinityMatrix,
    GuidanceHead,
    affinity_map,
    guided_fusion,
    iou,
    normalize_affinity,
    overlap_area,
)
from .loss_metrics import (
    MetricsReport,
    example_based_metrics,
    mean_accuracy,
    positive_ratio,
    weighted_sigmoid_ce,
)
from .proposals import ProposalSet, edge_map, generate_candidates, nms, score_windows, top_k
from .synthdata import Sample, SynthSpec, default_spec, generate_dataset, load_dataset
from .tensor import (
    Tensor,
    affine,
    check_gradients,
    conv2d,
    global_avg_pool,
    relu,
)
from .training import (
    LGModel,
    TrainConfig,
    evaluate,
    learning_rate,
    run_ablation,
    train_stage1,
    train_stage2,
)

__version__ = "0.1.0"
