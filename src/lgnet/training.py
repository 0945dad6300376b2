"""Two-stage training, evaluation and ablation drivers.

Stage 1 trains the whole-image classifier. Stage 2 freezes it, transplants
its classifier weights into the activation-map generator, and trains the
region branch plus the guidance head on the fused logits. Everything is
seeded and byte-reproducible: SGD and the gradient-free passes spread
their image chunks over the calling process and worker processes forked
once per stage or per evaluation (:class:`_Workers`), chunk i on process
i mod cores. Each chunk's results are the same bits on any process, and
the caller adds them in chunk order.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import json
import os
import signal
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, replace
from multiprocessing import Pipe
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import checkpoint
from .backbone import (
    BACKBONE_PRESETS,
    BackboneConfig,
    BackboneParams,
    _config_from_dict,
    _params_from_tensors,
    forward_global,
    forward_local_stem,
    forward_local_tail,
    init_backbone_params,
    preset_config,
)
from .boxes import Box, box_array
# activation_box is not called here; the benchmark's tracer still wraps it at this name
from .cam import activation_box, activation_boxes, class_activation_maps  # noqa: F401
from .guidance import GuidanceHead, affinity_map, guided_fusion, normalize_affinity
from .loss_metrics import MetricsReport, positive_ratio, weighted_sigmoid_ce_node
from .proposals import ProposalSet, load_proposals, top_k
from .synthdata import DataError, Sample
from .tensor import Tensor, no_grad, roi_max_pool_batch

__all__ = [
    "TrainConfig",
    "read_config",
    "GlobalModel",
    "LGModel",
    "Guidance",
    "StageResult",
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
# images per gradient-free pass (stage-1 and stage-2 scoring, the frozen
# half); one BLAS thread, the trunk read 0.31 ms per image in chunks of
# 8-16, 0.37 ms one image at a time and 0.47 ms in chunks of 64. Each
# process holds one chunk in flight: on 2 cores (one worker), one run each
# of the benchmark's train and eval workloads read 87 and 94 MB peak RSS in
# the calling process with chunks of 8, and 92 and 98 MB with 16; the
# worker's peak, pages shared with the caller included, was 81 and 77 MB
# against 85 and 79 MB
SCORE_BATCH = 8
# images per SGD graph, in both stages; each process holds a chunk graph in
# flight and keeps its last. On 2 cores the benchmark's train and eval
# workloads read 87 and 94 MB peak RSS in the calling process with chunks
# of 4 (worker 81 and 77 MB), and 98 and 104 MB with 8 (worker 92 and 88 MB)
SGD_CHUNK = 4


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
        for name in ("lr0", "weight_decay"):
            if not (0 <= getattr(self, name) < float("inf")):
                raise ValueError(f"{name} must be finite and at least 0, not {getattr(self, name)!r}")
        if not (0 < self.lr_decay_factor <= 1):
            raise ValueError("learning-rate decay factor must lie in (0, 1]")
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
        if not (0 < self.loss_sigma * self.loss_sigma < float("inf")):
            raise ValueError(f"loss_sigma must have a positive, finite square, not {self.loss_sigma!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, not {self.seed}")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Build from parsed JSON; every key must name a field of a fitting type."""
        return checkpoint.config_from_dict(cls, d)

    @classmethod
    def from_file(cls, path: str | Path) -> "TrainConfig":
        return read_config(path, cls.from_dict)


def read_config(path: str | Path, parse: Callable):
    """``parse`` applied to the JSON in ``path``; a file that is not UTF-8
    JSON or that ``parse`` refuses with ValueError raises DataError naming it."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


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
        arrays = self.global_params.named_arrays()
        for name in sorted(arrays):
            h.update(arrays[name].tobytes())
        h.update(self.cam_weights.tobytes())
        return h.hexdigest()


@dataclass
class StageResult:
    model: GlobalModel | LGModel
    log_rows: list[dict]
    best_val_ma: float
    best_epoch: int  # -1 means the parameters the stage started from won
    step_losses: list[list[float]]  # per epoch and step: sum of chunk losses x batch shares


# -- SGD -----------------------------------------------------------------------


def _is_weight(name: str) -> bool:
    return name.endswith("/kernel") or name.endswith("/weight")


def _sgd_step(
    named: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    lr: float,
    weight_decay: float,
    momentum: float,
    velocity: dict[str, np.ndarray],
) -> None:
    for name, t in named.items():
        g = grads[name]
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


def _fit(named: Mapping[str, Tensor], config: TrainConfig, stage: int,
         train: Sequence[Sample], chunk_loss: Callable[[list[int]], Tensor],
         val: Sequence[Sample], score: Callable[[list[int]], np.ndarray], best_ma: float,
         frozen: Callable[[], str] | None = None) -> tuple[list[dict], float, int, list[list[float]]]:
    """The SGD epochs of one stage, on workers forked here. Each step
    applies the gradient of its batch's mean loss, ``chunk_loss`` being
    that of :func:`_sgd_task`; each epoch ends with the val mA of
    ``score``, a chunk of indices into ``val`` to its [n, c] logits.
    ``frozen()``, where given, is a digest that must not move from epoch
    to epoch. ``named`` ends at the best snapshot: epoch -1, scoring
    ``best_ma``, is the parameters as given. Returns the log rows, the
    best val mA, its epoch and each step's mean loss, epoch by epoch."""
    sgd = _sgd_task(named, chunk_loss)
    val_chunks = _same_size_chunks(val, SCORE_BATCH)
    val_labels = _label_matrix(val)
    digest = None if frozen is None else frozen()
    velocity: dict[str, np.ndarray] = {}
    best_epoch, best_arrays = -1, {n: t.data.copy() for n, t in named.items()}
    log_rows: list[dict] = []
    step_losses: list[list[float]] = []
    # a full batch of same-size images makes ceil(batch_size / SGD_CHUNK) chunks
    with _Workers(max(-(-config.batch_size // SGD_CHUNK), len(val_chunks)), named, sgd, score) as workers:
        for epoch in range(config.epochs):
            lr = learning_rate(config, epoch)
            order = _epoch_permutation(config.seed, stage, epoch, len(train))
            total_loss = 0.0
            step_losses.append([])
            for i, start in enumerate(range(0, len(train), config.batch_size)):
                batch = order[start : start + config.batch_size].tolist()
                try:
                    total, mean, grads = _chunked_gradients(workers, sgd, train, batch)
                except FloatingPointError as exc:
                    raise RuntimeError(f"stage-{stage} training diverged at epoch {epoch} step {i}: {exc}") from exc
                total_loss += total
                step_losses[-1].append(mean)
                _sgd_step(named, grads, lr, config.weight_decay, config.momentum, velocity)
            if frozen is not None and frozen() != digest:
                raise RuntimeError(f"frozen global branch drifted during epoch {epoch}")
            try:
                val_ma = MetricsReport.from_scores(np.concatenate(workers.map(score, val_chunks)), val_labels).ma
            except FloatingPointError as exc:
                raise RuntimeError(f"stage-{stage} validation diverged at epoch {epoch}: {exc}") from exc
            log_rows.append({"epoch": epoch, "lr": lr, "train_loss": total_loss / len(train), "val_mA": val_ma})
            if val_ma > best_ma:
                best_ma, best_epoch = val_ma, epoch
                best_arrays = {n: t.data.copy() for n, t in named.items()}
    for name, t in named.items():
        t.data = best_arrays[name]
    return log_rows, best_ma, best_epoch, step_losses


# -- stage 1 ---------------------------------------------------------------------


def _label_matrix(samples: Sequence[Sample]) -> np.ndarray:
    return np.stack([s.labels for s in samples]).astype(np.float64)


def _same_size_chunks(samples: Sequence[Sample], size: int, order: Iterable[int] | None = None) -> list[list[int]]:
    """Runs of at most ``size`` consecutive indices of ``order`` (by default
    every index of ``samples``) whose images share a shape."""
    chunks: list[list[int]] = []
    for i in range(len(samples)) if order is None else order:
        if chunks and len(chunks[-1]) < size and samples[i].image.shape == samples[chunks[-1][0]].image.shape:
            chunks[-1].append(i)
        else:
            chunks.append([i])
    return chunks


def _cores() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _run(task: Callable, payloads: Sequence, grad: bool) -> tuple[list, Exception | None]:
    """``task`` on each payload in order, gradient-free unless ``grad``, up
    to the first that fails: the results before it and its error."""
    done: list = []
    with nullcontext() if grad else no_grad():
        for payload in payloads:
            try:
                done.append(task(payload))
            except Exception as exc:  # raised by the caller in chunk order
                return done, exc
    return done, None


def _serve(named: Mapping[str, Tensor], tasks: Sequence[Callable], conn: Connection) -> None:
    """A worker's loop: point its copies of the parameters ``named`` at the
    arrays a call brings, run the call's payloads and send back what
    :func:`_run` returns, until the caller stops it or closes its end of
    the pipe."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # the caller stops a worker so, whatever it handles itself
    while True:
        try:
            index, arrays, payloads, grad = conn.recv()
        except EOFError:
            return
        for name, t in named.items():
            t.data = arrays[name]
        conn.send(_run(tasks[index], payloads, grad))


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS numpy has loaded,
    or None where they cannot be found (no ``/proc/self/maps``, or another
    BLAS)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapped file that is gone or is no library
            continue
        for prefix, suffix in itertools.product(("openblas", "scipy_openblas"), ("", "64_")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    return None


@contextmanager
def _lost_worker(pid: int):
    """Report a worker's end of the pipe gone, as when the worker was
    killed, as a ``RuntimeError`` naming it. The pipe reads as closed, or
    as reset when the worker died with a call unread."""
    try:
        yield
    except (EOFError, BrokenPipeError, ConnectionResetError):
        raise RuntimeError(f"worker process {pid} exited during a call") from None


class _Workers:
    """The calling process plus up to ``cores - 1`` worker processes,
    forked here, that run ``tasks`` on chunks; ``most`` bounds the chunks
    of one call, and no more processes than that are used.

    Forked, a worker inherits everything the tasks read (samples, frozen
    parameters, guidance tables), and the GIL of each process is its
    own. Per call it receives over a pipe only its payloads and the
    current arrays of the parameters ``named`` (``{}`` for a pool of one
    call), which the caller may change between calls. So every task a
    pool will run is given here, before the fork. Forking is safe here
    because lgnet starts no thread, and numpy's OpenBLAS stops its thread
    pool at a fork and starts it again on its next call. While the pool is
    open, each process runs at most ``cores // processes`` BLAS threads,
    so the processes do not oversubscribe the cores; the caller's count
    comes back at :meth:`close`. Use it in a ``with`` block: on any exit
    the workers are stopped, mid-call or not, and joined. On one core,
    where ``os.fork`` does not exist or where OpenBLAS's thread count
    cannot be set, the caller runs every payload itself. Where a fork
    fails, at a process or memory limit, the workers already forked are
    kept and the pool is that much smaller; each chunk's results are the
    same bits on any process. A worker that dies during a call is
    reported as a ``RuntimeError`` naming it.
    """

    def __init__(self, most: int, named: Mapping[str, Tensor], *tasks: Callable) -> None:
        self.named = named
        self.tasks = tasks
        self.workers: list[tuple[int, Connection]] = []
        self.blas_threads: int | None = None  # the caller's own count, while it is lowered
        blas = _openblas() if hasattr(os, "fork") else None
        processes = 1 if blas is None else min(_cores(), most)
        try:
            if processes > 1:
                get, put = blas
                self.blas_threads = get()
                put(min(self.blas_threads, max(1, _cores() // processes)))  # the workers inherit it
            for _ in range(processes - 1):
                ours, theirs = Pipe()
                try:
                    pid = os.fork()
                except OSError:  # at a process or memory limit: the caller runs the unforked workers' chunks
                    ours.close()
                    theirs.close()
                    put(min(self.blas_threads, max(1, _cores() // self.processes)))
                    break
                if pid == 0:
                    code = 1
                    try:
                        ours.close()
                        for _, conn in self.workers:  # only the caller may hold an earlier worker's pipe
                            conn.close()
                        _serve(named, tasks, theirs)
                        code = 0
                    finally:
                        os._exit(code)
                theirs.close()
                self.workers.append((pid, ours))
        except BaseException:
            self.close()
            raise

    @property
    def processes(self) -> int:
        return len(self.workers) + 1

    def map(self, task: Callable, payloads: Sequence, grad: bool = False) -> list:
        """``[task(p) for p in payloads]``, gradient-free unless ``grad``,
        with the parameters as the caller holds them now.

        Payload i runs on process i mod ``processes``, the caller being
        process 0, so each process's share of the work repeats from run
        to run. Each process runs its payloads in order and stops at its
        first failure; the error raised is that of the first failing
        payload in order, as in the serial loop, since every payload
        before it ran.
        """
        index, n = self.tasks.index(task), self.processes
        arrays = {name: t.data for name, t in self.named.items()}
        busy = [(w, pid, conn) for w, (pid, conn) in enumerate(self.workers, 1) if w < len(payloads)]
        for w, pid, conn in busy:
            with _lost_worker(pid):
                conn.send((index, arrays, payloads[w::n], grad))
        replies = [(0, _run(task, payloads[::n], grad))]
        for w, pid, conn in busy:
            with _lost_worker(pid):
                replies.append((w, conn.recv()))
        results, errors = [None] * len(payloads), {}
        for first, (done, exc) in replies:
            results[first : first + n * len(done) : n] = done
            if exc is not None:
                errors[first + n * len(done)] = exc
        if errors:
            raise errors[min(errors)]
        return results

    def close(self) -> None:
        """Stop every worker, mid-call or not, join it, and give the caller
        back its BLAS thread count."""
        workers, self.workers = self.workers, []
        for pid, conn in workers:
            os.kill(pid, signal.SIGTERM)
            conn.close()
        for pid, _ in workers:
            os.waitpid(pid, 0)
        if self.blas_threads is not None:
            _openblas()[1](self.blas_threads)
            self.blas_threads = None

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _sgd_task(named: Mapping[str, Tensor], chunk_loss: Callable[[list[int]], Tensor]) -> Callable:
    """The SGD task of a stage, run on a pool given its trainable
    parameters ``named``. Its payload is (a chunk of indices into the
    stage's train split, the chunk's share of the batch). ``chunk_loss(chunk)``
    returns the chunk's mean loss built on ``named``; the task clears
    their gradients, seeds that loss with the share and returns the
    chunk's size, its mean loss and their gradients."""
    last = None

    def task(payload: tuple) -> tuple[int, float, dict[str, np.ndarray]]:
        nonlocal last
        chunk, share = payload
        loss = chunk_loss(chunk)
        # each process keeps its last graph until it has built the next; freed at once, its buffers
        # were faulted in anew (fresh 3-epoch stage 1, 1000 images: 650 k faults, 3.0 s, not 22 k, 2.2 s)
        last = loss
        for t in named.values():
            t.zero_grad()
        loss.backward(np.asarray(share))
        return len(chunk), loss.item(), {name: t.grad for name, t in named.items()}

    return task


def _chunked_gradients(workers: _Workers, task: Callable, samples: Sequence[Sample],
                       batch: Sequence[int]) -> tuple[float, float, dict[str, np.ndarray]]:
    """The gradient of the mean loss of the samples ``batch`` indexes with
    respect to the pool's parameters, one graph per same-size chunk of at
    most ``SGD_CHUNK`` images, by the :func:`_sgd_task` ``task`` over
    ``samples`` on every process. The chunks' gradients are added in
    chunk order from zero, the same bits on any number of cores. Returns
    the images' loss sum, the batch's mean loss and the gradient by
    parameter name."""
    payloads = [(chunk, len(chunk) / len(batch)) for chunk in _same_size_chunks(samples, SGD_CHUNK, batch)]
    total = mean = 0.0
    grads = {name: np.zeros_like(t.data) for name, t in workers.named.items()}
    for n, loss, chunk_grads in workers.map(task, payloads, grad=True):
        total += loss * n
        mean += loss * (n / len(batch))
        for name, g in chunk_grads.items():
            grads[name] += g
    return total, mean, grads


def _map_once(task: Callable, samples: Sequence[Sample]) -> list:
    """``task`` on each chunk of up to ``SCORE_BATCH`` consecutive
    same-size ``samples``, gradient-free, on workers forked for this one
    call."""
    chunks = _same_size_chunks(samples, SCORE_BATCH)
    with _Workers(len(chunks), {}, task) as workers:
        return workers.map(task, chunks)


def _frozen_forward(params: BackboneParams, config: BackboneConfig,
                    chunk: Sequence[Sample]) -> tuple[np.ndarray, np.ndarray]:
    """The final feature maps [n, k, h, w] and the logits [n, c] of n
    images of one size, from one trunk pass. The classifier runs row by
    row, so each row holds the bits of a one-image ``forward_global``: a
    batched classifier product may round the last bit differently, while
    the trunk's maps are the same either way."""
    featmap = forward_global(params, config, Tensor(np.stack([s.image for s in chunk])))[0].data
    weight, bias = params.head_weight.data, params.head_bias.data
    return featmap, np.stack([weight @ row + bias for row in featmap.mean(axis=(2, 3))])


def _global_score_task(model: GlobalModel, samples: Sequence[Sample]) -> Callable:
    """Stage-1 scoring of a chunk of indices into ``samples``: [n, c]
    logits, each row the bits of the image's own ``forward_global``, as
    the frozen half of a stage-2 model computes them."""
    return lambda chunk: _frozen_forward(model.params, model.backbone, [samples[i] for i in chunk])[1]


def _stage1_chunk_loss(params: BackboneParams, config: BackboneConfig, samples: Sequence[Sample],
                       pos: np.ndarray, sigma: float) -> Callable:
    """The chunk loss of :func:`_sgd_task` for the whole-image classifier,
    over ``samples``."""
    def chunk_loss(chunk: list[int]) -> Tensor:
        batch = [samples[i] for i in chunk]
        _, logits = forward_global(params, config, Tensor(np.stack([s.image for s in batch])))
        return weighted_sigmoid_ce_node(logits, _label_matrix(batch), pos, sigma)

    return chunk_loss


def train_stage1(
    train: Sequence[Sample],
    val: Sequence[Sample],
    config: TrainConfig,
) -> StageResult:
    """Train the whole-image classifier; keeps the best-val-mA snapshot."""
    num_attributes = len(train[0].labels)
    bb = preset_config(config.backbone, num_attributes)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 0))))
    params = init_backbone_params(bb, rng, trainable=True)
    pos = positive_ratio(_label_matrix(train))
    chunk_loss = _stage1_chunk_loss(params, bb, train, pos, config.loss_sigma)
    score = _global_score_task(GlobalModel(bb, params), val)
    fitted = _fit(params.named(), config, 1, train, chunk_loss, val, score, -1.0)
    return StageResult(GlobalModel(bb, params.copy(requires_grad=False)), *fitted)


# -- stage 2 ---------------------------------------------------------------------


def build_lg_model(stage1: GlobalModel, config: TrainConfig) -> LGModel:
    """Assemble the stage-2 model: freeze the global branch, fork its trunk
    into the local branch, start the guidance head at zero so the fused
    prediction begins exactly at the frozen global logits."""
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
    """The frozen branch's output for a split, row i that of sample i;
    fixed through stage 2, so computed once. The CAM columns stay None
    under uniform affinity."""

    boxes: np.ndarray  # [n, k, 4] corners of each image's k proposals, best first
    global_logits: np.ndarray  # [n, c]
    affinity: np.ndarray  # [n, c, k], rows normalized
    cams: np.ndarray | None = None  # [n] objects, each an image's [c, h, w] maps
    cam_boxes: np.ndarray | None = None  # [n, c, 4] activation-box corners, the whole image where degenerate
    degenerate: np.ndarray | None = None  # [n, c] bool
    affinity_raw: np.ndarray | None = None  # [n, c, k]

    def rows(self, index) -> "Guidance":
        """Every column indexed by ``index`` along its rows: an index list
        or a slice gives a table, one position one image's fields."""
        return Guidance(*(None if col is None else col[index] for col in vars(self).values()))


def _concat(tables: Sequence[Guidance]) -> Guidance:
    """The rows of ``tables``, one after another."""
    columns = zip(*(vars(t).values() for t in tables))
    return Guidance(*(None if col[0] is None else np.concatenate(col) for col in columns))


def _guidance_chunk(model: LGModel, chunk: Sequence[Sample], boxes: np.ndarray) -> Guidance:
    """Run the frozen half of the stage-2 model on n images of one size,
    gradient-free: one trunk pass, and one labelling pass for the
    activation boxes of all their maps. ``boxes`` holds the images'
    [n, k, 4] proposal corners. Every row equals that of the image alone."""
    image_h, image_w = chunk[0].image.shape[1:]
    with no_grad():
        featmaps, logits = _frozen_forward(model.global_params, model.backbone, chunk)
    if model.affinity_mode == "uniform":
        return Guidance(boxes, logits, np.full((*logits.shape, boxes.shape[1]), 1.0 / boxes.shape[1]))
    cams = np.stack([class_activation_maps(f, model.cam_weights) for f in featmaps])  # [n, a, h, w]
    n, a = cams.shape[:2]
    corners, degenerate = activation_boxes(
        cams.reshape(-1, *cams.shape[2:]), image_w, image_h, model.cam_threshold)
    corners = corners.reshape(n, a, 4)
    raw = [affinity_map(rows, b, model.affinity_mode) for rows, b in zip(corners, boxes)]
    return Guidance(boxes, logits, np.stack([normalize_affinity(r).values for r in raw]),
                    np.fromiter(cams, dtype=object, count=n), corners, degenerate.reshape(n, a),
                    np.stack([r.values for r in raw]))


def _fused_logits(model: LGModel, samples: Sequence[Sample], guides: Guidance) -> Tensor:
    """Run the trainable half on n images of one size and their guidance
    rows, the local trunk, ROI pooling, tail and fusion once for the batch:
    the [n, c] fused logits, with a gradient path outside ``no_grad``."""
    image_h, image_w = samples[0].image.shape[1:]
    images = Tensor(np.stack([s.image for s in samples]))
    stem = forward_local_stem(model.local_params, model.backbone, images)
    oh, ow = model.roi_out
    pooled = roi_max_pool_batch(stem, guides.boxes.reshape(-1, 4), oh, ow, image_w, image_h)
    feats = forward_local_tail(model.local_params, model.backbone, pooled)
    return guided_fusion(guides.affinity, feats, model.head, guides.global_logits)[0]


def _lg_forward(model: LGModel, sample: Sample, boxes: Sequence[Box] | np.ndarray) -> tuple[Tensor, Guidance]:
    """One sample through the full pipeline, its frozen half a chunk of
    one; ``boxes`` are the proposals, as :class:`Box` objects or corner
    rows. Returns (fused logits, its one-row guidance)."""
    guide = _guidance_chunk(model, [sample], box_array(boxes)[None])
    return _fused_logits(model, [sample], guide).reshape(-1), guide


def _prepare_proposals(
    samples: Sequence[Sample],
    proposals: Mapping[str, ProposalSet],
    k: int,
) -> np.ndarray:
    """The [n, k, 4] corners of each image's k best proposals, padded with
    full-image boxes."""
    ready = []
    for s in samples:
        if s.image_id not in proposals:
            raise DataError(f"no proposals for image {s.image_id!r}")
        h, w = s.image.shape[1:]
        rows = proposals[s.image_id].rows
        outside = (rows[:, 2] <= 0) | (rows[:, 3] <= 0) | (rows[:, 0] >= w) | (rows[:, 1] >= h)
        if outside.any():
            x0, y0, x1, y1 = rows[outside.argmax(), :4].tolist()
            raise DataError(
                f"proposal ({x0:g}, {y0:g}, {x1:g}, {y1:g}) "
                f"for image {s.image_id!r} lies outside the {w}x{h} image"
            )
        ready.append(top_k(rows, w, h, k).rows[:, :4])
    return np.stack(ready)


def _guidance_task(model: LGModel, samples: Sequence[Sample], proposals: Mapping[str, ProposalSet]) -> Callable:
    """The frozen half over ``samples``: payload a chunk of indices, result
    its rows of the :class:`Guidance` table, from the model's top k of
    each image's proposal set."""
    boxes = _prepare_proposals(samples, proposals, model.top_k)
    return lambda chunk: _guidance_chunk(model, [samples[i] for i in chunk], boxes[chunk])


def _guidance_for(
    model: LGModel,
    samples: Sequence[Sample],
    proposals: Mapping[str, ProposalSet],
) -> Guidance:
    """The guidance table of ``samples``, computed over consecutive
    same-size images in chunks of up to ``SCORE_BATCH`` on every core."""
    return _concat(_map_once(_guidance_task(model, samples, proposals), samples))


def _stage2_chunk_loss(model: LGModel, samples: Sequence[Sample], guides: Guidance,
                       pos: np.ndarray, sigma: float) -> Callable:
    """The chunk loss of :func:`_sgd_task` for the trainable half, over
    ``samples`` and their first rows of ``guides``."""
    def chunk_loss(chunk: list[int]) -> Tensor:
        batch = [samples[i] for i in chunk]
        fused = _fused_logits(model, batch, guides.rows(chunk))
        return weighted_sigmoid_ce_node(fused, _label_matrix(batch), pos, sigma)

    return chunk_loss


def _lg_score_task(model: LGModel, samples: Sequence[Sample],
                   given: Guidance | Mapping[str, ProposalSet]) -> Callable:
    """Stage-2 scoring of a chunk of indices into ``samples``: [n, c]
    fused logits, from the chunk's rows of the guidance table or, given
    proposal sets, from the chunk's guidance found first."""
    find = given.rows if isinstance(given, Guidance) else _guidance_task(model, samples, given)
    return lambda chunk: _fused_logits(model, [samples[i] for i in chunk], find(chunk)).data


def train_stage2(
    train: Sequence[Sample],
    val: Sequence[Sample],
    stage1: GlobalModel,
    proposals: Mapping[str, ProposalSet],
    config: TrainConfig,
) -> StageResult:
    """Train the local branch and guidance head against frozen localization.

    The best snapshot is selected on validation mA, with the untouched
    initialization (which scores with the frozen global logits alone)
    included as a candidate. The frozen branch is checked every epoch.
    """
    model = build_lg_model(stage1, config)
    pos = positive_ratio(_label_matrix(train))
    both = [*train, *val]
    find = _guidance_task(model, both, proposals)

    def trimmed(chunk: list[int]) -> Guidance:  # the columns the trainable half reads
        found = find(chunk)
        return Guidance(found.boxes, found.global_logits, found.affinity)

    # found before the stage's workers are forked, so they inherit the table: train rows, then val rows
    guides = _concat(_map_once(trimmed, both))
    val_guides = guides.rows(slice(len(train), None))
    chunk_loss = _stage2_chunk_loss(model, train, guides, pos, config.loss_sigma)
    score = _lg_score_task(model, val, val_guides)
    best_ma = _untrained_report(val, val_guides).ma  # the fresh model is a candidate
    fitted = _fit(model.trainable(), config, 2, train, chunk_loss, val, score, best_ma, model.frozen_digest)
    return StageResult(model, *fitted)


# -- evaluation -------------------------------------------------------------------


def _untrained_report(samples: Sequence[Sample], guides: Guidance) -> MetricsReport:
    """What :func:`evaluate` reports for a freshly built stage-2 model: its
    zero head makes the fused logits exactly the global ones, which the
    guidance table of ``samples`` already holds."""
    return MetricsReport.from_scores(guides.global_logits, _label_matrix(samples))


def evaluate(
    model: GlobalModel | LGModel,
    samples: Sequence[Sample],
    proposals: Mapping[str, ProposalSet] | Guidance | None = None,
    threshold: float = 0.5,
) -> MetricsReport:
    """Score a split and compute the five metrics at the given threshold.

    Scoring is gradient-free and runs over consecutive images of one
    size, in chunks of up to ``SCORE_BATCH`` on every core. Each image's
    scores carry the bits of scoring it alone. A stage-2 model needs each
    image's proposal set or the split's guidance table; given proposal
    sets, one task per chunk finds its guidance and scores it.
    """
    if isinstance(model, GlobalModel):
        task = _global_score_task(model, samples)
    elif not proposals:
        raise DataError("stage-2 evaluation requires proposals")
    else:
        task = _lg_score_task(model, samples, proposals)
    return MetricsReport.from_scores(np.concatenate(_map_once(task, samples)), _label_matrix(samples), threshold)


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
        "backbone": asdict(model.backbone),
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
    stage1: GlobalModel | None = None,
) -> AblationResult:
    """Train both arms of a named ablation with identical seeds and data.

    Stage-1 ablations (feature-map geometry) compare classifiers directly
    and take no ``stage1``. Stage-2 ablations train both arms on ``stage1``
    (by default one classifier trained with ``base_config``) and differ only
    in the guidance configuration. Reports are on the validation split.
    """
    if name not in ABLATIONS:
        raise ValueError(f"unknown ablation {name!r}; have {sorted(ABLATIONS)}")
    spec = ABLATIONS[name]
    if spec["kind"] == "stage1":
        if stage1 is not None:
            raise ValueError(f"ablation {name!r} trains its own classifiers; it takes no stage-1 model")
    elif proposals is None:
        raise DataError(f"ablation {name!r} needs proposals")
    elif stage1 is None:
        stage1 = train_stage1(train, val, base_config).model
    arms: list[AblationArm] = []
    for label, overrides in spec["arms"]:
        config = replace(base_config, **overrides)
        if spec["kind"] == "stage1":
            result = train_stage1(train, val, config)
            report = evaluate(result.model, val)
        else:
            result = train_stage2(train, val, stage1, proposals, config)
            report = evaluate(result.model, val, proposals=proposals)
        arms.append(AblationArm(label, config, report, result.best_val_ma))
    return AblationResult(name, arms)
