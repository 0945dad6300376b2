"""Span tracing of lgnet's modules from outside the program.

Each traced function is replaced, while a :class:`Tracer` is installed,
by a wrapper at the place where its callers look it up (for example
``lgnet.backbone.conv2d``, which is how the trunk reaches the convolution).
The wrapper records a span (name, start, end, parent) and, for a few
functions, a count read off the arguments or the result. The backward
closure of every tensor that ``conv2d`` or ``roi_max_pool_batch`` returns
is wrapped too, which gives the backward spans of those two operations.

Spans are kept in memory; :meth:`Tracer.dump` writes them out as JSONL.
A layer's self time is its spans' durations minus the time covered by
their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_conv(tracer, args, kwargs, out):
    tracer.wrap_backward(out, "tensor.conv2d_bwd")


def _count_roi(tracer, args, kwargs, out):
    tracer.count("tensor.roi_boxes", len(_arg(args, kwargs, 1, "boxes")))
    tracer.wrap_backward(out, "tensor.roi_max_pool_batch_bwd")


def _count_global_images(tracer, args, kwargs, out):
    image = _arg(args, kwargs, 2, "image")
    tracer.count("backbone.forward_global_images", image.data.shape[0] if image.data.ndim == 4 else 1)


def _count_candidates(tracer, args, kwargs, out):
    tracer.count("proposals.candidates", len(out))


def _count_suppressed(tracer, args, kwargs, out):
    tracer.count("proposals.nms_suppressed", len(_arg(args, kwargs, 0, "boxes")) - len(out))


def _count_padded(tracer, args, kwargs, out):
    tracer.count("proposals.padded", len(out) - min(len(_arg(args, kwargs, 0, "boxes")), len(out)))


def _count_activation_box(tracer, args, kwargs, out):
    tracer.count("cam.activation_boxes", 1)
    tracer.count("cam.degenerate_boxes", int(out[1]))


def _count_zero_rows(tracer, args, kwargs, out):
    tracer.count("guidance.zero_affinity_rows", int((out.values.sum(axis=1) == 0.0).sum()))


# span name -> (every (module, attribute) where callers look the function
# up, optional hook run on the call's arguments and result)
FUNCTIONS = {
    "proposals.edge_map": ([("lgnet.proposals", "edge_map")], None),
    "proposals.generate_candidates": ([("lgnet.proposals", "generate_candidates")], _count_candidates),
    "proposals.score_windows": ([("lgnet.proposals", "score_windows")], None),
    "proposals.nms": ([("lgnet.proposals", "nms")], _count_suppressed),
    "proposals.top_k": ([("lgnet.proposals", "top_k"), ("lgnet.training", "top_k")], _count_padded),
    "proposals.save": ([("lgnet.proposals", "save_proposals"), ("lgnet.cli", "save_proposals")], None),
    "proposals.load": ([("lgnet.proposals", "load_proposals"), ("lgnet.training", "load_proposals")], None),
    "tensor.conv2d_fwd": ([("lgnet.backbone", "conv2d")], _count_conv),
    "tensor.roi_max_pool_batch_fwd": ([("lgnet.training", "roi_max_pool_batch")], _count_roi),
    "backbone.forward_global": ([("lgnet.training", "forward_global")], _count_global_images),
    "backbone.forward_local_stem": ([("lgnet.training", "forward_local_stem")], None),
    "backbone.forward_local_tail": ([("lgnet.training", "forward_local_tail")], None),
    "cam.class_activation_maps": ([("lgnet.training", "class_activation_maps")], None),
    "cam.activation_box": ([("lgnet.training", "activation_box")], _count_activation_box),
    "guidance.affinity_map": ([("lgnet.training", "affinity_map")], None),
    "guidance.normalize_affinity": ([("lgnet.training", "normalize_affinity")], _count_zero_rows),
    "guidance.guided_fusion": ([("lgnet.training", "guided_fusion")], None),
    "loss_metrics.loss": ([("lgnet.training", "weighted_sigmoid_ce_node")], None),
    # evaluate as the training loops call it (per-epoch validation) and
    # as the eval command calls it (scoring a split)
    "training.validation": ([("lgnet.training", "evaluate")], None),
    "training.evaluate": ([("lgnet.cli", "evaluate")], None),
    "training.train_stage1": ([("lgnet.training", "train_stage1")], None),
    "training.train_stage2": ([("lgnet.training", "train_stage2")], None),
    "synthdata.generate_dataset": ([("lgnet.synthdata", "generate_dataset")], None),
    "synthdata.load_dataset": ([("lgnet.synthdata", "load_dataset"), ("lgnet.cli", "load_dataset")], None),
    "ppm.read_ppm": ([("lgnet.ppm", "read_ppm"), ("lgnet.synthdata", "read_ppm")], None),
    "checkpoint.load_container": ([("lgnet.checkpoint", "load_container")], None),
    "checkpoint.save_container": ([("lgnet.checkpoint", "save_container")], None),
}

# span name -> (module, class, attribute) for methods and classmethods
METHODS = {
    "tensor.backward": ("lgnet.tensor", "Tensor", "backward"),
    "training.frozen_digest": ("lgnet.training", "LGModel", "frozen_digest"),
    "loss_metrics.metrics": ("lgnet.loss_metrics", "MetricsReport", "from_scores"),
}

# reported self-time metric -> the spans whose self time it sums
SELF_TIMES = {f"{name}_s": (name,) for name in [*FUNCTIONS, *METHODS] if not name.startswith("training.")}
SELF_TIMES.update({
    "tensor.conv2d_bwd_s": ("tensor.conv2d_bwd",),
    "tensor.roi_max_pool_batch_bwd_s": ("tensor.roi_max_pool_batch_bwd",),
    "training.validation_s": ("training.validation",),
    "training.frozen_digest_s": ("training.frozen_digest",),
    "training.self_s": ("training.train_stage1", "training.train_stage2", "training.evaluate"),
    # the benchmark's own set-up and round code outside every traced layer
    "bench.unattributed_s": ("bench.setup", "bench.round"),
})

COUNTS = (
    "proposals.candidates",
    "proposals.nms_suppressed",
    "proposals.padded",
    "tensor.roi_boxes",
    "backbone.forward_global_images",
    "cam.activation_boxes",
    "cam.degenerate_boxes",
    "guidance.zero_affinity_rows",
)


class Tracer:
    """In-memory span recorder; accumulates self time and counts per phase."""

    def __init__(self):
        self.records: list[tuple] = []  # (id, parent id, phase, name, start, end)
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.phase = "setup"
        self._open: list[list] = []  # [id, name, start, child seconds]
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._open.append([len(self.records) + len(self._open), name, perf_counter(), 0.0])

    def end(self) -> None:
        end = perf_counter()
        span_id, name, start, child = self._open.pop()
        duration = end - start
        self.self_time[(self.phase, name)] += duration - child
        parent = -1
        if self._open:
            self._open[-1][3] += duration
            parent = self._open[-1][0]
        self.records.append((span_id, parent, self.phase, name, start, end))

    def count(self, name: str, n: int) -> None:
        self.counts[(self.phase, name)] += n

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return traced

    def wrap_backward(self, tensor, name: str) -> None:
        if tensor._backward is not None:
            tensor._backward = self.wrap(tensor._backward, name)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Put every wrapper in place; :meth:`uninstall` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (sites, hook) in FUNCTIONS.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, hook))
        for name, (module_name, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(self.wrap(original.__func__, name)))
            else:
                setattr(cls, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def per_layer(self, phase: str, units: int) -> dict[str, float]:
        """Self times and counts of one phase divided by its number of units
        (set-ups or traced rounds): the cost of one of them."""
        out = {
            metric: sum(self.self_time.get((phase, s), 0.0) for s in spans) / units
            for metric, spans in SELF_TIMES.items()
        }
        for name in COUNTS:
            out[name] = self.counts.get((phase, name), 0) / units
        out["trace.spans"] = sum(1 for r in self.records if r[2] == phase) / units
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, phase, name, start, end in sorted(self.records):
                fh.write(json.dumps({"id": span_id, "parent": parent, "phase": phase,
                                     "name": name, "start": start, "end": end}) + "\n")
