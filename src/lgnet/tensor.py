"""Dense float64 arrays with reverse-mode automatic differentiation.

A tiny eager autodiff engine: every operation computes its result
immediately and, when an input tracks gradients outside :func:`no_grad`,
records a closure that routes the output gradient back to its inputs.
Gradients are accumulated by calling :meth:`Tensor.backward` on a
result, optionally seeding it with an externally computed gradient.

Everything is float64 and every primitive validates that its result is
finite; NaN or Inf anywhere is treated as a hard error rather than a
value to propagate.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .boxes import box_array

__all__ = [
    "Tensor",
    "no_grad",
    "relu",
    "affine",
    "matmul",
    "conv2d",
    "global_avg_pool",
    "roi_max_pool_batch",
    "check_gradients",
    "conv_output_extent",
]


class _GradMode(threading.local):
    enabled = True  # each thread starts out recording


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Record no graph inside the block; nests, and restores the mode on
    any exit. The mode belongs to the calling thread: a block in one
    thread leaves every other thread's mode as it was."""
    previous, _grad_mode.enabled = _grad_mode.enabled, False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values produced by '{op}'")


class Tensor:
    """A float64 array plus an optional same-shape gradient buffer.

    Leaf tensors are created directly (``Tensor(data, requires_grad=True)``
    for parameters); results of primitives carry hidden references to
    their inputs so that ``backward`` can replay the graph in reverse
    topological order. Values are immutable by convention after a
    forward pass; gradient accumulation is single-writer.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        _ensure_finite(arr, "tensor")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        """Internal constructor for op results; drops the graph when no
        parent tracks gradients or grad mode is off.

        ``backward`` receives the result's gradient as its argument and
        must not refer to the result itself: a graph then holds no
        reference cycle and is freed as soon as its last result is."""
        _ensure_finite(data, op)
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = _grad_mode.enabled and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # -- backward ------------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate gradients of this tensor's inputs.

        ``grad`` seeds the output gradient; it defaults to ones and is
        only optional for scalar outputs. Seeding with an externally
        computed gradient is how analytic loss gradients enter the graph.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar output")
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(grad, dtype=np.float64)
            if seed.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {seed.shape} != output shape {self.data.shape}"
                )
        order = self._topo_order()
        self._accumulate(seed)
        for node in order:
            if node._backward is not None:
                node._backward(node.grad)

    def _topo_order(self) -> list["Tensor"]:
        # Iterative DFS; returns nodes in reverse topological order
        # (output first) so gradients flow parents-last.
        order: list[Tensor] = []
        visited: set[int] = set()
        pending: list[tuple[Tensor, bool]] = [(self, False)]
        while pending:
            node, processed = pending.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            pending.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    pending.append((parent, False))
        order.reverse()
        return order

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        a, b = self, other
        _check_broadcast(a, b, "add")
        data = a.data + b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(_reduce_to(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_reduce_to(g, b.data.shape))

        return Tensor._make(data, (a, b), backward, "add")

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        a = self
        data = -a.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(-g)

        return Tensor._make(data, (a,), backward, "neg")

    def __sub__(self, other):
        return self.__add__(-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other).__add__(-self)

    def __mul__(self, other):
        other = _as_tensor(other)
        a, b = self, other
        _check_broadcast(a, b, "mul")
        data = a.data * b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(_reduce_to(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_reduce_to(g * a.data, b.data.shape))

        return Tensor._make(data, (a, b), backward, "mul")

    def __rmul__(self, other):
        return self.__mul__(other)

    def sum(self, axis: int | None = None) -> "Tensor":
        a = self
        data = np.asarray(a.data.sum(axis=axis))

        def backward(g):
            if not a.requires_grad:
                return
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape).copy())
            else:
                a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

        return Tensor._make(data, (a,), backward, "sum")

    def reshape(self, *shape: int) -> "Tensor":
        a = self
        data = a.data.reshape(shape)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g.reshape(a.data.shape))

        return Tensor._make(data, (a,), backward, "reshape")


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    """Operands must match, or one is a scalar, or one's shape ends the other's."""
    short, long = sorted((a.data.shape, b.data.shape), key=len)
    if a.data.size != 1 and b.data.size != 1 and long[len(long) - len(short):] != short:
        raise ValueError(f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    if np.prod(shape, dtype=int) == 1:
        return np.asarray(grad.sum()).reshape(shape)
    return grad.sum(axis=tuple(range(grad.ndim - len(shape))))


# -- elementwise nonlinearities -----------------------------------------------


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x), +0.0 where x is -0.0. Subgradient at 0 is 0."""
    data = np.maximum(x.data, 0.0)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (data > 0))

    return Tensor._make(data, (x,), backward, "relu")


def _sigmoid_stable(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# -- linear maps ---------------------------------------------------------------


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """weight @ x + bias for a single vector, or row-batched for a matrix.

    ``x`` may be shape [n] (returns [m]) or [N, n] (returns [N, m]);
    ``weight`` is [m, n], ``bias`` is [m].
    """
    w, b = weight, bias
    if w.data.ndim != 2 or b.data.ndim != 1 or w.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"affine: bad weight/bias shapes {w.shape}, {b.shape}")
    if x.data.ndim == 1:
        if x.data.shape[0] != w.data.shape[1]:
            raise ValueError(f"affine: x has {x.data.shape[0]} features, weight expects {w.data.shape[1]}")
        data = w.data @ x.data + b.data

        def backward(g):
            if w.requires_grad:
                w._accumulate(np.outer(g, x.data))
            if x.requires_grad:
                x._accumulate(w.data.T @ g)
            if b.requires_grad:
                b._accumulate(g)

    elif x.data.ndim == 2:
        if x.data.shape[1] != w.data.shape[1]:
            raise ValueError(f"affine: x has {x.data.shape[1]} features, weight expects {w.data.shape[1]}")
        data = x.data @ w.data.T + b.data[None, :]

        def backward(g):
            if w.requires_grad:
                w._accumulate(g.T @ x.data)
            if x.requires_grad:
                x._accumulate(g @ w.data)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0))

    else:
        raise ValueError(f"affine: x must be rank 1 or 2, got rank {x.data.ndim}")

    return Tensor._make(data, (x, w, b), backward, "affine")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b of two 2-D operands, or of two stacks
    [n, m, k] and [n, k, p] one pair at a time."""
    sa, sb = a.data.shape, b.data.shape
    if a.data.ndim not in (2, 3) or b.data.ndim != a.data.ndim or sa[:-2] != sb[:-2] or sa[-1] != sb[-2]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ g)

    return Tensor._make(data, (a, b), backward, "matmul")


# -- convolution ----------------------------------------------------------------


def conv_output_extent(extent: int, kernel: int, stride: int, dilation: int, padding: int) -> int:
    """Output size of one spatial axis; raises if the kernel does not fit."""
    effective = dilation * (kernel - 1) + 1
    out = (extent + 2 * padding - effective) // stride + 1
    if out < 1:
        raise ValueError(
            f"conv produces non-positive extent: input {extent}, kernel {kernel}, "
            f"stride {stride}, dilation {dilation}, padding {padding}"
        )
    return out


@lru_cache(maxsize=16)
def _conv_gather_index(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, dilation: int, padding: int
) -> np.ndarray:
    """Read-only [C*kh*kw, out_h*out_w] im2col index into an input
    flattened to C*H*W cells plus one zero cell, at which taps landing in
    the padding point. It depends on no batch size, so one entry serves
    every batch of a geometry."""
    out_h = conv_output_extent(h, kh, stride, dilation, padding)
    out_w = conv_output_extent(w, kw, stride, dilation, padding)
    ys = (np.arange(kh) * dilation)[:, None] + stride * np.arange(out_h) - padding  # [kh, out_h]
    xs = (np.arange(kw) * dilation)[:, None] + stride * np.arange(out_w) - padding  # [kw, out_w]
    inside = ((ys >= 0) & (ys < h))[:, None, :, None] & ((xs >= 0) & (xs < w))[None, :, None, :]
    spatial = ys[:, None, :, None] * w + xs[None, :, None, :]  # [kh, kw, out_h, out_w]
    idx = np.where(inside, np.arange(c)[:, None, None, None, None] * (h * w) + spatial, c * h * w)
    idx = idx.reshape(c * kh * kw, out_h * out_w)
    idx.flags.writeable = False  # shared by every caller of the cache
    return idx


def _dense_operator(wmat: np.ndarray, idx: np.ndarray, cells: int) -> np.ndarray:
    """The conv's linear operator T, [C*H*W, K*out_h*out_w], from the
    kernel matrix [K, C*kh*kw] and the gather index: input cell j feeds
    output channel k at output cell o with T[j, k*L + o], L = out_h*out_w,
    the kernel tap that reads j at o, or 0 where none does. Taps that read
    padding land on a spare row, which is dropped."""
    k, positions = len(wmat), idx.shape[1]
    op = np.zeros((cells + 1, k, positions))
    op[idx, :, np.arange(positions)] = wmat.T[:, None, :]
    return op[:-1].reshape(cells, k * positions)


# Largest output map, in cells, whose im2col kernel gradient is one GEMM
# over all images' columns. One BLAS thread, per-image products against one
# GEMM, for 100 maps of 4x4: 2x2 out, 0.85 against 0.25 ms; 4x4 out, 1.59
# against 1.10 ms; for 16 maps: 8x8 out, 0.53 against 0.82 ms; 32x32 out,
# 0.47 against 1.95 ms. The dense path cannot serve these maps as well: at
# 400 maps of 7x7 (4x4 out) its forward took 12.2 against 6.3 ms, and at
# 16 maps of 4x4 (2x2 out) forward and backward took 0.23 against 0.17 ms.
DW_GEMM_MAX_CELLS = 16


def conv2d(
    x: Tensor,
    kernels: Tensor,
    bias: Tensor,
    stride: int = 1,
    dilation: int = 1,
    padding: int = 0,
) -> Tensor:
    """Dilated 2-D cross-correlation with zero padding.

    ``x`` is [C, H, W] or batched [N, C, H, W]; ``kernels`` is
    [K, C, kh, kw]; ``bias`` is [K]. The output has the matching rank.
    Differentiable with respect to all three tensor arguments.

    An input map of at most kh*kw cells (the region tail's pooled grids)
    is convolved by its dense operator T (:func:`_dense_operator`): the
    output is one GEMM ``X @ T`` over all images, the input gradient
    ``G @ T.T``, one sum over every (k, oy, ox), and the kernel gradient
    ``X.T @ G``, summed over the images first and then, per tap, over
    the output cells in row-major order.

    Any larger map takes the im2col path. The columns are one gather,
    ``np.take`` of the flattened input with a cached index
    (:func:`_conv_gather_index`), followed by one batched matmul. The
    input gradient is one ``np.bincount`` over the same index, so every
    input cell sums its taps in row-major tap order. The kernel gradient
    is one GEMM over all images' columns for an output map of at most
    ``DW_GEMM_MAX_CELLS`` cells, else per-image products.
    """
    if stride < 1 or dilation < 1 or padding < 0:
        raise ValueError(f"bad conv spec: stride={stride} dilation={dilation} padding={padding}")
    squeezed = x.data.ndim == 3
    xd = x.data[None] if squeezed else x.data
    if xd.ndim != 4:
        raise ValueError(f"conv2d: input must be rank 3 or 4, got rank {x.data.ndim}")
    wd = kernels.data
    if wd.ndim != 4:
        raise ValueError(f"conv2d: kernels must be rank 4, got rank {wd.ndim}")
    n, c, h, w = xd.shape
    k, kc, kh, kw = wd.shape
    if kc != c:
        raise ValueError(f"conv2d: input has {c} channels, kernels expect {kc}")
    if bias.data.shape != (k,):
        raise ValueError(f"conv2d: bias shape {bias.data.shape} != ({k},)")
    out_h = conv_output_extent(h, kh, stride, dilation, padding)
    out_w = conv_output_extent(w, kw, stride, dilation, padding)

    idx = _conv_gather_index(c, h, w, kh, kw, stride, dilation, padding)
    cells = c * h * w
    wmat = wd.reshape(k, -1)
    rows = xd.reshape(n, cells)
    # a map no larger than the kernel window: T has no more rows than the
    # im2col columns, so its GEMMs do no more multiply-adds
    op = _dense_operator(wmat, idx, cells) if h * w <= kh * kw else None
    if op is not None:
        data = rows @ op
    else:
        flat = np.concatenate([rows, np.zeros((n, 1))], axis=1)  # the last cell is the zero padding reads
        cols = np.take(flat, idx, axis=1)  # [N, C*kh*kw, out_h*out_w]
        data = np.matmul(wmat, cols)
    data = data.reshape(n, k, out_h * out_w)
    data += bias.data[None, :, None]
    data = data.reshape(n, k, out_h, out_w)
    if squeezed:
        data = data[0]

    def backward(g):
        gmat = (g[None] if squeezed else g).reshape(n, k, -1)
        if kernels.requires_grad:
            if op is not None:
                # [C*H*W + 1, K, L] sums over the images, a zero row for padding
                per_cell = np.zeros((cells + 1, k, out_h * out_w))
                per_cell[:-1] = (rows.T @ gmat.reshape(n, -1)).reshape(cells, k, -1)
                dw = per_cell[idx, :, np.arange(out_h * out_w)].sum(axis=1).T
            elif out_h * out_w <= DW_GEMM_MAX_CELLS:
                dw = np.tensordot(gmat, cols, axes=([0, 2], [0, 2]))
            else:
                dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0)
            kernels._accumulate(dw.reshape(wd.shape))
        if bias.requires_grad:
            bias._accumulate(gmat.sum(axis=(0, 2)))
        if x.requires_grad:
            if op is not None:
                dx = gmat.reshape(n, -1) @ op.T
            else:
                dcols = np.matmul(wmat.T, gmat)
                # each cell sums its taps from 0 in row-major tap order
                scatter = idx + (np.arange(n) * (cells + 1))[:, None, None]
                dx = np.bincount(scatter.ravel(), weights=dcols.ravel(), minlength=n * (cells + 1))
                dx = dx.reshape(n, cells + 1)[:, :-1]
            dx = dx.reshape(xd.shape)
            x._accumulate(dx[0] if squeezed else dx)

    return Tensor._make(data, (x, kernels, bias), backward, "conv2d")


# -- pooling ------------------------------------------------------------------


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per channel: [C,H,W] -> [C] or [N,C,H,W] -> [N,C]."""
    if x.data.ndim == 3:
        axes = (1, 2)
    elif x.data.ndim == 4:
        axes = (2, 3)
    else:
        raise ValueError(f"global_avg_pool: input must be rank 3 or 4, got {x.data.ndim}")
    spatial = x.data.shape[-1] * x.data.shape[-2]
    if spatial == 0:
        raise ValueError("global_avg_pool: empty spatial extent")
    data = x.data.mean(axis=axes)

    def backward(g):
        if x.requires_grad:
            expanded = g[..., None, None] / spatial
            x._accumulate(np.broadcast_to(expanded, x.data.shape).copy())

    return Tensor._make(data, (x,), backward, "global_avg_pool")


def roi_max_pool_batch(
    x: Tensor,
    boxes: Sequence,
    out_h: int,
    out_w: int,
    image_w: int,
    image_h: int,
) -> Tensor:
    """Quantized max pooling of many boxes from a feature map into
    out_h x out_w grids: returns [len(boxes), C, out_h, out_w].

    ``x`` is one map [C, H, W] or a batch [N, C, H, W] of maps of images
    of one size. ``boxes`` is a sequence of :class:`~lgnet.boxes.Box` or
    an array of rows whose first four columns are the corners. A batch
    takes its boxes image by image, the same number k for each:
    boxes[i*k:(i+1)*k] are pooled from map i.

    Box coordinates live in image pixel space. They are scaled onto the
    feature map's cell grid, rounded half to even and clipped to it, and
    a box that collapses is widened to one cell. Each region is split
    into near-equal integer bins, every bin at least one cell, so bins
    overlap when a box spans fewer cells than the grid. The maximum of
    each bin is taken per channel, and gradients flow to its argmax
    cell, ties going to the first cell in row-major order.

    The bins of every map are grouped by their (rows, columns) span, and
    each group is answered by one gather, channels last, through a window
    of exactly that size that lists every bin's cells in row-major order;
    a bin's value is the window's maximum. Only when the result records a
    backward are the argmax cells found: a bin's argmax is the smallest
    window offset whose value equals the window's maximum, found by one
    masked max; that is the first cell. The gradient scatter is one
    ``np.bincount`` in output order.
    """
    if x.data.ndim not in (3, 4):
        raise ValueError(f"roi_max_pool_batch: feature map must be rank 3 or 4, got {x.data.ndim}")
    corners = box_array(boxes)
    if not len(corners):
        raise ValueError("roi_max_pool_batch: need at least one box")
    if out_h < 1 or out_w < 1:
        raise ValueError("roi_max_pool_batch: output grid must be at least 1x1")
    n, c, fh, fw = x.data.shape if x.data.ndim == 4 else (1, *x.data.shape)
    if len(corners) % n:
        raise ValueError(f"roi_max_pool_batch: {len(corners)} boxes do not split evenly over {n} maps")
    d, hw = len(corners), fh * fw
    corners = np.rint(corners * np.array([fw / image_w, fh / image_h] * 2))
    x0, y0, x1, y1 = corners.T.clip(0, [[fw - 1], [fh - 1], [fw], [fh]]).astype(np.intp)

    def bins(start, stop, parts):
        # [d, parts] bin starts and spans; spans are at least one cell
        edges = start[:, None] + (np.arange(parts + 1) * np.maximum(stop - start, 1)[:, None]) // parts
        return edges[:, :-1], np.maximum(edges[:, 1:] - edges[:, :-1], 1)

    top, span_h = bins(y0, y1, out_h)
    left, span_w = bins(x0, x1, out_w)
    # every bin in output order: its map, its first cell among the maps'
    # cells laid end to end, and its span
    shape = (d, out_h, out_w)
    owner = np.repeat(np.arange(n), d // n * out_h * out_w)
    first = owner * hw + (top[:, :, None] * fw + left[:, None, :]).ravel()
    span_h = np.broadcast_to(span_h[:, :, None], shape).ravel()
    span_w = np.broadcast_to(span_w[:, None, :], shape).ravel()
    key = span_h * (fw + 1) + span_w
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))

    # channels last: row r holds cell r of the maps laid end to end
    rows = x.data.reshape(n, c, hw).transpose(0, 2, 1).reshape(n * hw, c)
    # only a recorded backward reads the argmax cells
    recorded = _grad_mode.enabled and x.requires_grad
    pooled = np.empty((len(first), c))
    argpos = np.empty((len(first), c), dtype=np.intp) if recorded else None
    for members in np.split(order, starts[1:]):
        sh, sw = span_h[members[0]], span_w[members[0]]
        offset = (np.arange(sh)[:, None] * fw + np.arange(sw)).ravel()  # row-major, increasing
        corner = first[members]
        window = rows[offset[:, None] + corner]  # [sh*sw, bins, C]
        top = pooled[members] = window.max(axis=0)
        if recorded:
            # the first cell holding the maximum has the largest hw - offset
            hit = (window == top) * (hw - offset)[:, None, None]
            argpos[members] = corner[:, None] + (hw - hit.max(axis=0))
    data = np.ascontiguousarray(pooled.reshape(d, out_h, out_w, c).transpose(0, 3, 1, 2))
    if not recorded:
        return Tensor._make(data, (x,), None, "roi_max_pool_batch")
    # flat (map, channel, cell) source of every pooled value, in output order
    argpos += (owner * (c - 1) * hw)[:, None] + np.arange(c) * hw
    target = argpos.reshape(d, out_h, out_w, c).transpose(0, 3, 1, 2).ravel()

    def backward(g):
        dx = np.bincount(target, weights=g.ravel(), minlength=x.data.size)
        x._accumulate(dx.reshape(x.data.shape))

    return Tensor._make(data, (x,), backward, "roi_max_pool_batch")


# -- verification ---------------------------------------------------------------


def check_gradients(
    f: Callable[[], Tensor],
    params: Iterable[Tensor],
    eps: float = 1e-5,
) -> float:
    """Compare reverse-mode gradients of a scalar composite against
    central finite differences.

    ``f`` rebuilds the forward pass from the current parameter values on
    every call and must return a scalar tensor. Returns the worst relative
    error over every entry of every parameter, with denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    params = list(params)
    for p in params:
        p.zero_grad()
    out = f()
    if out.data.size != 1:
        raise ValueError("check_gradients: f must be scalar-valued")
    out.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f().item()
            flat[i] = orig - eps
            f_minus = f().item()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise FloatingPointError("non-finite objective at perturbed point")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
