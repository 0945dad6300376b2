import gc
import threading
import weakref

import numpy as np
import pytest

from lgnet import tensor
from lgnet.backbone import forward_global, forward_local_stem, forward_local_tail, init_backbone_params, preset_config
from lgnet.boxes import Box
from lgnet.tensor import (
    Tensor,
    affine,
    check_gradients,
    conv2d,
    conv_output_extent,
    global_avg_pool,
    matmul,
    no_grad,
    relu,
    roi_max_pool_batch,
)
from lgnet.tensor import DW_GEMM_MAX_CELLS, _conv_gather_index, _sigmoid_stable

# relative bound on a result that sums in another order than the references:
# a kernel gradient summed as one GEMM against their per-image products, and
# every product of the dense small-map path; measured below 2e-15
DW_GEMM_REL = 1e-13


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function, computed in the overflow-safe split form."""
    data = _sigmoid_stable(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * data * (1.0 - data))

    return Tensor._make(data, (x,), backward, "sigmoid")


def _run_conv(op, x_data, k_data, b_data, **spec):
    """``op``'s output and its input, kernel and bias gradients under a
    fixed random output gradient."""
    x = Tensor(x_data, requires_grad=True)
    k = Tensor(k_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    out = op(x, k, b, **spec)
    out.backward(np.random.default_rng(5).normal(size=out.data.shape))
    return out.data, x.grad, k.grad, b.grad


def _assert_close(a, b):
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= DW_GEMM_REL * np.abs(b).max()


def _assert_same_conv(results):
    """Output, input and bias gradients equal the reference's bit for bit,
    and so does the kernel gradient of a large output map. What sums in
    another order agrees within ``DW_GEMM_REL`` of its largest entry: a
    small output map's kernel gradient, one GEMM over every image, and
    the output, input and kernel gradients of an input map of at most
    kh*kw cells, which takes the dense path."""
    got, want = results
    h, w = got[1].shape[-2:]
    kh, kw = got[2].shape[-2:]
    dense = h * w <= kh * kw
    one_gemm = got[0].shape[-2] * got[0].shape[-1] <= DW_GEMM_MAX_CELLS
    for i, (a, b) in enumerate(zip(got, want)):
        if (dense and i < 3) or (i == 2 and one_gemm):
            _assert_close(a, b)
        else:
            assert np.array_equal(a, b)


def _dense_reference_conv2d(x, kernels, bias, stride=1, dilation=1, padding=0):
    """The dense-operator convolution of a batch [N, C, H, W], its operator
    T [C*H*W, K*L] (L output cells) built entry by entry: the bit-for-bit
    reference for :func:`conv2d` on a map of at most kh*kw cells. The
    kernel gradient sums ``X.T @ G`` per tap over the output cells the
    tap reads the input at, in row-major order."""
    xd, wd = x.data, kernels.data
    n, c, h, w = xd.shape
    k, _, kh, kw = wd.shape
    out_h = conv_output_extent(h, kh, stride, dilation, padding)
    out_w = conv_output_extent(w, kw, stride, dilation, padding)
    positions = out_h * out_w
    op = np.zeros((c * h * w, k * positions))
    reads = {}  # tap (c, i, j) -> the (input cell, output cell) pairs it reads
    for ci in range(c):
        for i in range(kh):
            for j in range(kw):
                for oy in range(out_h):
                    for ox in range(out_w):
                        y, xx = oy * stride + i * dilation - padding, ox * stride + j * dilation - padding
                        if 0 <= y < h and 0 <= xx < w:
                            cell, o = (ci * h + y) * w + xx, oy * out_w + ox
                            op[cell, np.arange(k) * positions + o] = wd[:, ci, i, j]
                            reads.setdefault((ci, i, j), []).append((cell, o))
    rows = xd.reshape(n, -1)
    data = (rows @ op).reshape(n, k, positions) + bias.data[None, :, None]

    def backward(g):
        gm = g.reshape(n, -1)
        if kernels.requires_grad:
            per_cell = rows.T @ gm
            dw = np.zeros(wd.shape)
            for (ci, i, j), pairs in reads.items():
                total = np.zeros(k)
                for cell, o in pairs:
                    total += per_cell[cell, np.arange(k) * positions + o]
                dw[:, ci, i, j] = total
            kernels._accumulate(dw)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            x._accumulate((gm @ op.T).reshape(xd.shape))

    return Tensor._make(data.reshape(n, k, out_h, out_w), (x, kernels, bias), backward, "dense_reference_conv2d")


def _tail_spec(preset: str) -> tuple[int, int, dict]:
    """The in and out channels and the conv spec of a backbone preset's
    region tail, the trunk stage after the split."""
    config = preset_config(preset, 8)
    i = config.split_index
    spec = dict(stride=config.strides[i], dilation=config.dilations[i], padding=config.padding(i))
    return config.stage_in_channels(i), config.stage_channels[i], spec


def _reference_conv2d(x, kernels, bias, stride=1, dilation=1, padding=0):
    """Index-array im2col convolution with an ``np.add.at`` col2im: the
    slow reference for :func:`conv2d`."""
    squeezed = x.data.ndim == 3
    xd = x.data[None] if squeezed else x.data
    wd = kernels.data
    n, c, h, w = xd.shape
    k, _, kh, kw = wd.shape
    out_h = conv_output_extent(h, kh, stride, dilation, padding)
    out_w = conv_output_extent(w, kw, stride, dilation, padding)
    p = padding
    xp = np.pad(xd, ((0, 0), (0, 0), (p, p), (p, p))) if p else xd
    i0 = np.tile(np.repeat(np.arange(kh) * dilation, kw), c)
    j0 = np.tile(np.tile(np.arange(kw) * dilation, kh), c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    ii = i0[:, None] + i1[None, :]
    jj = j0[:, None] + j1[None, :]
    kk = np.repeat(np.arange(c), kh * kw)[:, None]
    cols = xp[:, kk, ii, jj]  # [N, C*kh*kw, out_h*out_w]
    wmat = wd.reshape(k, -1)
    data = (np.matmul(wmat, cols) + bias.data[None, :, None]).reshape(n, k, out_h, out_w)
    if squeezed:
        data = data[0]

    def backward(g):
        gmat = (g[None] if squeezed else g).reshape(n, k, -1)
        if kernels.requires_grad:
            dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0)
            kernels._accumulate(dw.reshape(wd.shape))
        if bias.requires_grad:
            bias._accumulate(gmat.sum(axis=(0, 2)))
        if x.requires_grad:
            dcols = np.matmul(wmat.T, gmat)  # [N, C*kh*kw, L]
            dxp = np.zeros_like(xp)
            np.add.at(dxp, (slice(None), kk, ii, jj), dcols)
            dx = dxp[:, :, p : p + h, p : p + w] if p else dxp
            x._accumulate(dx[0] if squeezed else dx)

    return Tensor._make(data, (x, kernels, bias), backward, "reference_conv2d")


def _sliding_window_conv2d(x, kernels, bias, stride=1, dilation=1, padding=0):
    """``sliding_window_view`` im2col with one strided slice-add per kernel
    tap in the backward: the previous :func:`conv2d`, kept as the
    bit-for-bit reference for the cached-index version."""
    squeezed = x.data.ndim == 3
    xd = x.data[None] if squeezed else x.data
    wd = kernels.data
    n, c, h, w = xd.shape
    k, _, kh, kw = wd.shape
    out_h = conv_output_extent(h, kh, stride, dilation, padding)
    out_w = conv_output_extent(w, kw, stride, dilation, padding)
    p = padding
    xp = np.pad(xd, ((0, 0), (0, 0), (p, p), (p, p))) if p else xd
    span = (dilation * (kh - 1) + 1, dilation * (kw - 1) + 1)
    # [N, C, out_h, out_w, kh, kw] view of every kernel placement
    windows = np.lib.stride_tricks.sliding_window_view(xp, span, axis=(2, 3))[
        :, :, ::stride, ::stride, ::dilation, ::dilation
    ]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    wmat = wd.reshape(k, -1)
    data = (np.matmul(wmat, cols) + bias.data[None, :, None]).reshape(n, k, out_h, out_w)
    if squeezed:
        data = data[0]

    def backward(g):
        gmat = (g[None] if squeezed else g).reshape(n, k, -1)
        if kernels.requires_grad:
            dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0)
            kernels._accumulate(dw.reshape(wd.shape))
        if bias.requires_grad:
            bias._accumulate(gmat.sum(axis=(0, 2)))
        if x.requires_grad:
            dcols = np.matmul(wmat.T, gmat).reshape(n, c, kh, kw, out_h, out_w)
            dxp = np.zeros(xp.shape)
            # one strided slice-add per kernel tap, in row-major tap order
            for i in range(kh):
                for j in range(kw):
                    ys = slice(i * dilation, i * dilation + stride * out_h, stride)
                    xs = slice(j * dilation, j * dilation + stride * out_w, stride)
                    dxp[:, :, ys, xs] += dcols[:, :, i, j]
            dx = dxp[:, :, p : p + h, p : p + w] if p else dxp
            x._accumulate(dx[0] if squeezed else dx)

    return Tensor._make(data, (x, kernels, bias), backward, "sliding_window_conv2d")


def _bin_edges(start: int, count: int, bins: int) -> list[tuple[int, int]]:
    # Near-equal integer partition of [start, start+count) into `bins`
    # pieces; every piece is forced to span at least one cell, so pieces
    # overlap when count < bins.
    edges = []
    for b in range(bins):
        lo = start + (b * count) // bins
        hi = start + ((b + 1) * count) // bins
        if hi <= lo:
            hi = lo + 1
        edges.append((lo, hi))
    return edges


def _quantize_roi(box, fh: int, fw: int, image_w: int, image_h: int) -> tuple[int, int, int, int]:
    """Scale a pixel-space box onto the cell grid, round, and repair boxes
    that collapse under quantization to a single cell."""
    sx = fw / float(image_w)
    sy = fh / float(image_h)
    ix0 = min(max(int(round(box.x_min * sx)), 0), fw - 1)
    iy0 = min(max(int(round(box.y_min * sy)), 0), fh - 1)
    ix1 = min(max(int(round(box.x_max * sx)), 0), fw)
    iy1 = min(max(int(round(box.y_max * sy)), 0), fh)
    if ix1 <= ix0:
        ix1 = ix0 + 1
    if iy1 <= iy0:
        iy1 = iy0 + 1
    return ix0, iy0, ix1, iy1


def _pool_rect(data, rect, out_h, out_w, chans):
    """Max and row-major argmax (flat spatial index) per bin of one rect."""
    c = data.shape[0]
    fw = data.shape[2]
    ix0, iy0, ix1, iy1 = rect
    pooled = np.empty((c, out_h, out_w))
    argpos = np.empty((c, out_h, out_w), dtype=np.intp)
    for bi, (r0, r1) in enumerate(_bin_edges(iy0, iy1 - iy0, out_h)):
        for bj, (c0, c1) in enumerate(_bin_edges(ix0, ix1 - ix0, out_w)):
            block = data[:, r0:r1, c0:c1].reshape(c, -1)
            idx = block.argmax(axis=1)
            pooled[:, bi, bj] = block[chans, idx]
            width = c1 - c0
            argpos[:, bi, bj] = (r0 + idx // width) * fw + (c0 + idx % width)
    return pooled, argpos


def roi_max_pool(x, box, out_h, out_w, image_w, image_h):
    """Single-box ROI max pooling, one bin at a time: the slow reference
    for :func:`roi_max_pool_batch`."""
    c, fh, fw = x.data.shape
    rect = _quantize_roi(box, fh, fw, image_w, image_h)
    chans = np.arange(c)
    data, argpos = _pool_rect(x.data, rect, out_h, out_w, chans)

    def backward(g):
        if x.requires_grad:
            dx = np.zeros((c, fh * fw))
            ch_idx = np.broadcast_to(chans[:, None, None], argpos.shape)
            np.add.at(dx, (ch_idx, argpos), g)
            x._accumulate(dx.reshape(c, fh, fw))

    return Tensor._make(data, (x,), backward, "reference_roi_max_pool")


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_extreme_logits_stay_finite(self):
        out = sigmoid(Tensor([-800.0, 800.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0, abs=1e-300)
        assert out.data[1] == pytest.approx(1.0)

    def test_relu_values(self):
        out = relu(Tensor([-3.5, 2.0]))
        assert out.data.tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
    def test_relu_equals_where_bit_for_bit(self, rng, layout):
        base = rng.normal(size=(6, 10))
        base[::3, ::2] = -0.0
        base[1::3, 1::2] = 0.0
        x = {"contiguous": base, "strided": base[:, ::3], "transposed": base.T}[layout]
        out = relu(Tensor(x)).data
        want = np.where(x > 0, x, 0.0)
        assert np.array_equal(out.view(np.int64), want.view(np.int64))
        # Tensor() stores a contiguous copy, but op results may be views,
        # so the array op itself must agree on the strided layout too
        direct = np.maximum(x, 0.0)
        assert np.array_equal(direct.view(np.int64), want.view(np.int64))

    def test_relu_gradient_is_zero_at_zero(self):
        x = Tensor([-0.0, 0.0, -1.0, 2.0], requires_grad=True)
        relu(x).backward(np.ones(4))
        assert x.grad.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_matmul_of_stacks_matches_per_pair_products(self, rng):
        a = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        out = matmul(a, b)
        g = rng.normal(size=(3, 2, 5))
        out.backward(g)
        for i in range(3):
            ai = Tensor(a.data[i], requires_grad=True)
            bi = Tensor(b.data[i], requires_grad=True)
            single = matmul(ai, bi)
            single.backward(g[i])
            assert np.array_equal(out.data[i], single.data)
            assert np.array_equal(a.grad[i], ai.grad)
            assert np.array_equal(b.grad[i], bi.grad)
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones((3, 2, 4))), Tensor(np.ones((2, 4, 5))))
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones((3, 2, 4))), Tensor(np.ones((4, 5))))

    def test_trailing_broadcast_sums_the_leading_axes(self, rng):
        w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
        ((w * x) + w).reshape(8, 3).sum().backward()
        assert np.array_equal(w.grad, x.data.sum(axis=0) + 4.0)
        assert np.array_equal(x.grad, np.broadcast_to(w.data, (4, 2, 3)))
        with pytest.raises(ValueError):
            w * Tensor(np.ones((2, 3, 2)))

    def test_affine_hand_example(self):
        out = affine(Tensor([1.0, 1.0]), Tensor([[1.0, 2.0]]), Tensor([0.5]))
        assert out.data.tolist() == [3.5]

    def test_affine_shape_mismatch(self):
        with pytest.raises(ValueError):
            affine(Tensor([1.0, 2.0, 3.0]), Tensor([[1.0, 2.0]]), Tensor([0.5]))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestConv2d:
    def test_identity_kernel_is_bit_exact(self, rng):
        x = Tensor(rng.normal(size=(4, 7, 5)))
        k = Tensor(np.eye(4).reshape(4, 4, 1, 1))
        out = conv2d(x, k, Tensor(np.zeros(4)))
        assert np.array_equal(out.data, x.data)

    def test_ones_kernel_on_constant_map(self):
        x = Tensor(np.full((1, 5, 5), 2.0))
        out = conv2d(x, Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
        assert out.data.shape == (1, 3, 3)
        assert np.all(out.data == 18.0)

    def test_dilation_two_gives_single_output(self):
        x = Tensor(np.arange(25.0).reshape(1, 5, 5))
        out = conv2d(x, Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)), dilation=2)
        assert out.data.shape == (1, 1, 1)

    def test_output_extent_formula(self):
        assert conv_output_extent(32, 3, 2, 1, 1) == 16
        assert conv_output_extent(8, 3, 1, 2, 2) == 8
        with pytest.raises(ValueError):
            conv_output_extent(3, 3, 1, 2, 0)

    def test_channel_mismatch_rejected(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 5)))
        with pytest.raises(ValueError):
            conv2d(x, Tensor(rng.normal(size=(1, 3, 3, 3))), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("rank", [3, 4])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_reference_bit_for_bit(self, rng, stride, dilation, padding, rank):
        shape = (3, 7, 8) if rank == 3 else (2, 3, 7, 8)
        data = rng.normal(size=shape), rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
        spec = dict(stride=stride, dilation=dilation, padding=padding)
        _assert_same_conv([_run_conv(op, *data, **spec) for op in (conv2d, _reference_conv2d)])

    @pytest.mark.parametrize("x_shape, k_out, stride, dilation, padding", [
        ((16, 3, 64, 64), 8, 2, 1, 1),  # stage-1 batch, first stage
        ((8, 32, 32), 16, 2, 1, 1),  # stem 8 -> 16
        ((100, 16, 3, 3), 32, 2, 1, 1),  # tail over 100 pooled regions: the dense path, within a bound
        *[((2, 3, 9, 8), 4, s, d, p) for s in (1, 2) for d in (1, 2) for p in (0, 1)],
    ])
    def test_matches_sliding_window_conv_bit_for_bit(self, rng, x_shape, k_out, stride, dilation, padding):
        data = rng.normal(size=x_shape), rng.normal(size=(k_out, x_shape[-3], 3, 3)), rng.normal(size=k_out)
        spec = dict(stride=stride, dilation=dilation, padding=padding)
        _assert_same_conv([_run_conv(op, *data, **spec) for op in (conv2d, _sliding_window_conv2d)])

    @pytest.mark.parametrize("x_shape, stride", [
        ((100, 16, 4, 4), 2),  # 100 pooled 4x4 regions: 2x2 cells per region
        ((7, 2, 4, 4), 1),  # 4x4 cells, the largest map summed as one GEMM
    ])
    def test_one_gemm_kernel_gradient_matches_per_image_products(self, rng, x_shape, stride):
        x = Tensor(rng.normal(size=x_shape))
        k_data, b = rng.normal(size=(8, x_shape[1], 3, 3)), Tensor(rng.normal(size=8))
        seed = None
        grads = []
        for op in (conv2d, _reference_conv2d):
            k = Tensor(k_data, requires_grad=True)
            out = op(x, k, b, stride=stride, padding=1)
            assert out.data.shape[-2] * out.data.shape[-1] <= DW_GEMM_MAX_CELLS
            seed = np.random.default_rng(6).normal(size=out.data.shape) if seed is None else seed
            out.backward(seed)
            grads.append(k.grad)
        got, want = grads
        assert np.abs(got - want).max() <= DW_GEMM_REL * np.abs(want).max()

    def test_one_gemm_kernel_gradient_passes_gradient_check(self, rng):
        x = Tensor(rng.normal(size=(5, 2, 4, 4)), requires_grad=True)
        k = Tensor(0.5 * rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(0.1 * rng.normal(size=3), requires_grad=True)
        weights = Tensor(rng.normal(size=(5, 3, 2, 2)))
        f = lambda: (conv2d(x, k, b, stride=2, padding=1) * weights).sum()
        assert f().data.size == 1 and 2 * 2 <= DW_GEMM_MAX_CELLS
        assert check_gradients(f, [k, b, x], eps=1e-5) < 1e-6

    def test_gather_index_built_once_per_geometry(self, rng):
        _conv_gather_index.cache_clear()
        k, b = Tensor(rng.normal(size=(4, 3, 3, 3))), Tensor(np.zeros(4))
        for shape in ((2, 3, 9, 8), (5, 3, 9, 8), (3, 9, 8)):
            conv2d(Tensor(rng.normal(size=shape)), k, b, padding=1)
        assert _conv_gather_index.cache_info().misses == 1
        conv2d(Tensor(rng.normal(size=(2, 3, 9, 8))), k, b, padding=0)
        assert _conv_gather_index.cache_info().misses == 2

    def test_gather_index_is_read_only(self):
        idx = _conv_gather_index(3, 9, 8, 3, 3, 1, 1, 1)
        with pytest.raises(ValueError):
            idx[0, 0] = 0

    def test_bad_geometry_rejected(self, rng):
        x = Tensor(rng.normal(size=(1, 5, 5)))
        k, b = Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1))
        for kwargs in ({"stride": 0}, {"dilation": 0}, {"padding": -1}):
            with pytest.raises(ValueError):
                conv2d(x, k, b, **kwargs)

    def test_batched_matches_per_sample(self, rng):
        x = rng.normal(size=(3, 2, 6, 6))
        k = Tensor(rng.normal(size=(4, 2, 3, 3)))
        b = Tensor(rng.normal(size=4))
        batched = conv2d(Tensor(x), k, b, stride=2, padding=1)
        for n in range(3):
            single = conv2d(Tensor(x[n]), k, b, stride=2, padding=1)
            # BLAS may sum batched and single gemms in different orders
            assert np.allclose(batched.data[n], single.data, atol=1e-12, rtol=0)


class TestDenseSmallMapConv:
    """An input map of at most kh*kw cells, as each backbone preset's region
    tail convolves, takes the dense-operator path."""

    @pytest.mark.parametrize("n", [1, 100])
    @pytest.mark.parametrize("preset", ["base", "stretched", "dilated"])
    def test_matches_the_dense_reference_bit_for_bit(self, rng, preset, n):
        c, k, spec = _tail_spec(preset)
        data = rng.normal(size=(n, c, 3, 3)), rng.normal(size=(k, c, 3, 3)), rng.normal(size=k)
        got, want = (_run_conv(op, *data, **spec) for op in (conv2d, _dense_reference_conv2d))
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_one_map_equals_a_batch_of_one(self, rng):
        c, k, spec = _tail_spec("base")
        data = rng.normal(size=(c, 3, 3)), rng.normal(size=(k, c, 3, 3)), rng.normal(size=k)
        single = _run_conv(conv2d, *data, **spec)
        batch = _run_conv(conv2d, data[0][None], *data[1:], **spec)
        for a, b in zip(single, batch):
            assert np.array_equal(a, b.reshape(a.shape))

    @pytest.mark.parametrize("reference", [_reference_conv2d, _sliding_window_conv2d])
    @pytest.mark.parametrize("preset", ["base", "stretched", "dilated"])
    def test_matches_the_im2col_references_within_a_bound(self, rng, preset, reference):
        c, k, spec = _tail_spec(preset)
        data = rng.normal(size=(100, c, 3, 3)), rng.normal(size=(k, c, 3, 3)), rng.normal(size=k)
        got, want = (_run_conv(op, *data, **spec) for op in (conv2d, reference))
        for a, b in zip(got, want):
            _assert_close(a, b)

    @pytest.mark.parametrize("preset", ["base", "stretched", "dilated"])
    def test_passes_gradient_check(self, rng, preset):
        _, _, spec = _tail_spec(preset)
        x = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        k = Tensor(0.5 * rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(0.1 * rng.normal(size=3), requires_grad=True)
        weights = Tensor(rng.normal(size=conv2d(x, k, b, **spec).data.shape))
        f = lambda: (conv2d(x, k, b, **spec) * weights).sum()
        assert check_gradients(f, [k, b, x], eps=1e-5) < 1e-6

    @pytest.mark.parametrize("preset", ["base", "stretched", "dilated"])
    def test_taken_at_the_tail_and_not_at_the_stem_or_trunk(self, monkeypatch, preset):
        built = []
        real = tensor._dense_operator
        monkeypatch.setattr(tensor, "_dense_operator", lambda *args: built.append(args) or real(*args))
        config = preset_config(preset, 8)
        params = init_backbone_params(config, np.random.default_rng(0))
        image = Tensor(np.random.default_rng(1).uniform(size=(2, 3, 64, 64)))
        forward_global(params, config, image)
        forward_local_stem(params, config, image)
        assert built == []
        pooled = Tensor(np.random.default_rng(2).normal(size=(100, config.split_channels, 3, 3)))
        forward_local_tail(params, config, pooled)
        assert len(built) == config.num_stages - config.split_index == 1


class TestGlobalAvgPool:
    def test_constant_channel(self):
        assert global_avg_pool(Tensor(np.full((1, 3, 4), 7.0))).data[0] == 7.0

    def test_hand_mean(self):
        out = global_avg_pool(Tensor([[[0.0, 2.0], [4.0, 6.0]]]))
        assert out.data[0] == 3.0

    def test_gradient_is_uniform(self):
        x = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        global_avg_pool(x).sum().backward()
        assert np.all(x.grad == 1.0 / 12.0)

    def test_linearity(self, rng):
        x = rng.normal(size=(3, 5, 5))
        y = rng.normal(size=(3, 5, 5))
        a, b = 2.5, -0.75
        lhs = global_avg_pool(Tensor(a * x + b * y)).data
        rhs = a * global_avg_pool(Tensor(x)).data + b * global_avg_pool(Tensor(y)).data
        assert np.allclose(lhs, rhs, atol=1e-12, rtol=0)

    def test_empty_spatial_extent_rejected(self):
        with pytest.raises(ValueError):
            global_avg_pool(Tensor(np.zeros(3)))


def _brute_force_roi(data, box, out_h, out_w, image_w, image_h):
    """Plain-python oracle: quantize, partition, scan every cell per bin."""
    c, fh, fw = data.shape
    sx, sy = fw / image_w, fh / image_h
    ix0 = min(max(int(round(box.x_min * sx)), 0), fw - 1)
    iy0 = min(max(int(round(box.y_min * sy)), 0), fh - 1)
    ix1 = min(max(int(round(box.x_max * sx)), 0), fw)
    iy1 = min(max(int(round(box.y_max * sy)), 0), fh)
    if ix1 <= ix0:
        ix1 = ix0 + 1
    if iy1 <= iy0:
        iy1 = iy0 + 1

    def edges(start, count, bins):
        out = []
        for b in range(bins):
            lo = start + (b * count) // bins
            hi = start + ((b + 1) * count) // bins
            out.append((lo, max(hi, lo + 1)))
        return out

    result = np.empty((c, out_h, out_w))
    for ch in range(c):
        for bi, (r0, r1) in enumerate(edges(iy0, iy1 - iy0, out_h)):
            for bj, (c0, c1) in enumerate(edges(ix0, ix1 - ix0, out_w)):
                best = -np.inf
                for r in range(r0, r1):
                    for cc in range(c0, c1):
                        best = max(best, data[ch, r, cc])
                result[ch, bi, bj] = best
    return result


class TestRoiMaxPool:
    def test_constant_map_any_box(self):
        x = Tensor(np.full((2, 4, 4), 3.25))
        out = roi_max_pool(x, Box(1, 1, 7, 5), 2, 3, 8, 8)
        assert np.all(out.data == 3.25)

    def test_single_cell_box_identity(self):
        x = Tensor(np.arange(16.0).reshape(1, 4, 4))
        # feature cell (1, 2) under 2x scaling
        out = roi_max_pool(x, Box(4, 2, 6, 4), 1, 1, 8, 8)
        assert out.data[0, 0, 0] == x.data[0, 1, 2]

    def test_quadrants_of_4x4(self):
        x = Tensor(np.arange(16.0).reshape(1, 4, 4))
        out = roi_max_pool(x, Box(0, 0, 8, 8), 2, 2, 8, 8)
        assert np.array_equal(out.data[0], [[5.0, 7.0], [13.0, 15.0]])

    def test_exhaustive_boxes_on_6x6_match_brute_force(self, rng):
        data = rng.permutation(36.0 * np.arange(1, 37) / 36).reshape(1, 6, 6)
        x = Tensor(data)
        for x0 in range(6):
            for x1 in range(x0 + 1, 7):
                for y0 in range(6):
                    for y1 in range(y0 + 1, 7):
                        box = Box(x0, y0, x1, y1)
                        for size in (1, 2, 3):
                            got = roi_max_pool(x, box, size, size, 6, 6)
                            want = _brute_force_roi(data, box, size, size, 6, 6)
                            assert np.array_equal(got.data, want), (box, size)

    def test_degenerate_box_repaired_to_one_cell(self):
        x = Tensor(np.arange(16.0).reshape(1, 4, 4))
        # collapses to zero cells after rounding; repaired, not an error
        out = roi_max_pool(x, Box(3.9, 3.9, 4.05, 4.05), 1, 1, 8, 8)
        assert out.data.shape == (1, 1, 1)

    def test_gradient_routes_to_first_argmax(self):
        data = np.zeros((1, 2, 2))
        data[0, 0, 1] = 5.0
        data[0, 1, 0] = 5.0  # tie with (0,1); row-major first wins
        x = Tensor(data, requires_grad=True)
        out = roi_max_pool(x, Box(0, 0, 2, 2), 1, 1, 2, 2)
        out.backward(np.ones((1, 1, 1)))
        assert x.grad[0, 0, 1] == 1.0
        assert x.grad[0, 1, 0] == 0.0

    def test_batch_matches_singles_including_ties(self, rng):
        for _ in range(20):
            fh, fw = int(rng.integers(3, 18)), int(rng.integers(3, 18))
            c = int(rng.integers(1, 5))
            data = rng.integers(0, 4, size=(c, fh, fw)).astype(float)  # many ties
            x = Tensor(data, requires_grad=True)
            boxes = []
            for _ in range(17):
                xs = np.sort(rng.uniform(0, 48, 2))
                ys = np.sort(rng.uniform(0, 48, 2))
                boxes.append(Box(xs[0], ys[0], max(xs[1], xs[0] + 0.5), max(ys[1], ys[0] + 0.5)))
            oh, ow = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            batch = roi_max_pool_batch(x, boxes, oh, ow, 48, 48)
            seed = rng.integers(-3, 4, size=batch.data.shape).astype(float)
            batch.backward(seed)
            batch_grad = x.grad.copy()
            x.zero_grad()
            for i, box in enumerate(boxes):
                single = roi_max_pool(x, box, oh, ow, 48, 48)
                assert np.array_equal(batch.data[i], single.data)
                single.backward(seed[i])
            # integer-valued seeds make the scatter order irrelevant
            assert np.array_equal(batch_grad, x.grad)
            x.zero_grad()

    @pytest.mark.parametrize("requires_grad", [True, False], ids=["grad", "no-grad"])
    def test_batch_matches_singles_at_borders_and_overlapping_bins(self, rng, requires_grad):
        # boxes straddling or beyond the border, boxes narrower than the bin
        # grid (overlapping bins), non-square grids, and integer corners that
        # land on half cells, where rounding goes to even
        for _ in range(20):
            fh, fw = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            image_w, image_h = 4 * fw, 4 * fh
            c = int(rng.integers(1, 4))
            data = rng.integers(0, 3, size=(c, fh, fw)).astype(float)
            x = Tensor(data, requires_grad=requires_grad)
            boxes = []
            for _ in range(23):
                x0, y0 = rng.uniform(-30, 70, 2)
                w, h = rng.choice([0.3, 2.0, 9.0, 40.0, 120.0], 2) * rng.uniform(0.5, 1.0, 2)
                if rng.random() < 0.5:
                    x0, y0, w, h = np.floor([x0, y0, w + 1, h + 1])
                boxes.append(Box(x0, y0, x0 + w, y0 + h))
            oh, ow = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            if oh == ow:
                ow += 1
            batch = roi_max_pool_batch(x, boxes, oh, ow, image_w, image_h)
            assert batch.data.shape == (len(boxes), c, oh, ow)
            seed = rng.integers(-3, 4, size=batch.data.shape).astype(float)
            if requires_grad:
                batch.backward(seed)
                batch_grad = x.grad.copy()
                x.zero_grad()
            for i, box in enumerate(boxes):
                single = roi_max_pool(x, box, oh, ow, image_w, image_h)
                assert np.array_equal(batch.data[i], single.data), (box, oh, ow)
                if requires_grad:
                    single.backward(seed[i])
            if requires_grad:
                assert np.array_equal(batch_grad, x.grad)


    def test_batch_matches_singles_over_many_span_groups(self, rng):
        # one call whose bins fall into many (rows, columns) span groups:
        # boxes from one cell to the whole map, many narrower than the bin
        # grid, on a map of small integers so that bins hold ties
        fh, fw, c, oh, ow = 20, 18, 3, 3, 4
        data = rng.integers(0, 3, size=(c, fh, fw)).astype(float)
        x = Tensor(data, requires_grad=True)
        boxes = []
        for _ in range(120):
            w, h = 4 * rng.integers(1, fw + 1), 4 * rng.integers(1, fh + 1)
            x0, y0 = 4 * rng.integers(0, fw - w // 4 + 1), 4 * rng.integers(0, fh - h // 4 + 1)
            boxes.append(Box(x0, y0, x0 + w, y0 + h))
        rects = [_quantize_roi(box, fh, fw, 4 * fw, 4 * fh) for box in boxes]
        spans = {
            (r1 - r0, c1 - c0)
            for ix0, iy0, ix1, iy1 in rects
            for r0, r1 in _bin_edges(iy0, iy1 - iy0, oh)
            for c0, c1 in _bin_edges(ix0, ix1 - ix0, ow)
        }
        assert len(spans) >= 30
        assert any(ix1 - ix0 < ow or iy1 - iy0 < oh for ix0, iy0, ix1, iy1 in rects)
        batch = roi_max_pool_batch(x, boxes, oh, ow, 4 * fw, 4 * fh)
        seed = rng.integers(-3, 4, size=batch.data.shape).astype(float)
        batch.backward(seed)
        batch_grad = x.grad.copy()
        x.zero_grad()
        for i, box in enumerate(boxes):
            single = roi_max_pool(x, box, oh, ow, 4 * fw, 4 * fh)
            assert np.array_equal(batch.data[i], single.data), box
            single.backward(seed[i])
        # integer-valued seeds make the scatter order irrelevant
        assert np.array_equal(batch_grad, x.grad)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_batch_of_maps_matches_per_map_calls(self, rng, n):
        # a rank-4 batch takes its boxes image by image; each map's values
        # and gradients equal a rank-3 call on that map with its boxes
        fh, fw, c, oh, ow, d = 13, 11, 3, 3, 2, 19
        image_w, image_h = 4 * fw, 4 * fh
        data = rng.integers(0, 3, size=(n, c, fh, fw)).astype(float)  # many ties
        boxes = []
        for _ in range(n * d):
            x0, y0 = rng.uniform(-8, image_w - 1), rng.uniform(-8, image_h - 1)
            w, h = rng.choice([0.4, 3.0, 10.0, 30.0, 60.0], 2) * rng.uniform(0.5, 1.0, 2)
            boxes.append(Box(x0, y0, x0 + w, y0 + h))
        x = Tensor(data, requires_grad=True)
        batch = roi_max_pool_batch(x, boxes, oh, ow, image_w, image_h)
        assert batch.data.shape == (n * d, c, oh, ow)
        seed = rng.normal(size=batch.data.shape)  # not integers: the sum order must match too
        batch.backward(seed)
        for i in range(n):
            xi = Tensor(data[i], requires_grad=True)
            single = roi_max_pool_batch(xi, boxes[i * d : (i + 1) * d], oh, ow, image_w, image_h)
            assert np.array_equal(batch.data[i * d : (i + 1) * d], single.data)
            single.backward(seed[i * d : (i + 1) * d])
            assert np.array_equal(x.grad[i], xi.grad)

    @pytest.mark.parametrize("n", [0, 1, 3], ids=["rank3", "rank4-1", "rank4-3"])
    def test_box_rows_match_box_lists(self, rng, n):
        # corner rows, with or without a score column, pool exactly as the
        # same boxes given as Box objects: values and gradients
        fh, fw, c, oh, ow, d = 9, 12, 2, 3, 2, 17
        image_w, image_h = 4 * fw, 4 * fh
        data = rng.integers(0, 3, size=(c, fh, fw) if n == 0 else (n, c, fh, fw)).astype(float)
        k = max(n, 1) * d
        x0, y0 = rng.uniform(-8, image_w, k), rng.uniform(-8, image_h, k)
        w, h = rng.uniform(0.3, 40, (2, k))
        rows = np.column_stack([x0, y0, x0 + w, y0 + h, rng.normal(size=k)])
        boxes = [Box(*row) for row in rows.tolist()]
        seed = rng.normal(size=(len(rows), c, oh, ow))
        x = Tensor(data, requires_grad=True)
        want = roi_max_pool_batch(x, boxes, oh, ow, image_w, image_h)
        want.backward(seed)
        for given in (rows[:, :4], rows):
            xa = Tensor(data, requires_grad=True)
            got = roi_max_pool_batch(xa, given, oh, ow, image_w, image_h)
            assert np.array_equal(got.data, want.data)
            got.backward(seed)
            assert np.array_equal(xa.grad, x.grad)

    def test_gradient_free_pooling_equals_graph_mode_on_stem_maps(self):
        # post-ReLU stem maps are full of exact zeros, so many bins tie
        from lgnet.backbone import forward_local_stem, init_backbone_params, preset_config
        from lgnet.proposals import propose_for_image
        from lgnet.synthdata import _sample_rng, default_spec, render_sample

        spec = default_spec()
        config = preset_config("base", spec.num_attributes)
        params = init_backbone_params(config, np.random.default_rng(3), trainable=True)
        images = [render_sample(spec, _sample_rng(4, "test", i), f"roi_{i}").image for i in range(6)]
        boxes = np.concatenate([propose_for_image(image, k=50).rows for image in images])
        stem = forward_local_stem(params, config, Tensor(np.stack(images)))
        assert stem.requires_grad and (stem.data == 0.0).mean() > 0.2
        graph = roi_max_pool_batch(stem, boxes, 3, 3, 64, 64)
        assert graph.requires_grad
        with no_grad():
            free = roi_max_pool_batch(stem, boxes, 3, 3, 64, 64)
        untracked = roi_max_pool_batch(Tensor(stem.data), boxes, 3, 3, 64, 64)
        for got in (free, untracked):
            assert not got.requires_grad and got._backward is None
            assert got.data.flags.c_contiguous and got.data.tobytes() == graph.data.tobytes()

    def test_batch_of_maps_rejects_uneven_boxes_and_bad_ranks(self):
        boxes = [Box(0, 0, 4, 4)] * 5
        with pytest.raises(ValueError, match="split evenly"):
            roi_max_pool_batch(Tensor(np.zeros((2, 1, 4, 4))), boxes, 2, 2, 8, 8)
        for shape in [(4, 4), (1, 2, 1, 4, 4)]:
            with pytest.raises(ValueError, match="rank 3 or 4"):
                roi_max_pool_batch(Tensor(np.zeros(shape)), boxes, 2, 2, 8, 8)


class TestBackwardMachinery:
    def test_backward_without_seed_needs_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            relu(x).backward()

    def test_gradient_accumulates_over_fanout(self):
        x = Tensor(np.ones(4), requires_grad=True)
        (x + x).sum().backward()
        assert np.all(x.grad == 2.0)

    def test_graph_is_freed_without_the_cycle_collector(self, rng):
        x = Tensor(rng.normal(size=(2, 6, 6)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        gc.disable()
        try:
            hidden = relu(conv2d(x, k, b, padding=1))
            ref = weakref.ref(hidden.data)
            loss = global_avg_pool(hidden).sum()
            loss.backward()
            del hidden, loss
            # freed by reference counting alone: no result refers to itself
            assert ref() is None
        finally:
            gc.enable()

    def test_non_finite_result_is_an_error(self):
        big = Tensor([1e308])
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError):
                big + big

    def test_non_finite_construction_is_an_error(self):
        with pytest.raises(FloatingPointError):
            Tensor([np.nan])


class TestNoGrad:
    def test_results_inside_record_no_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = relu(x * 2.0).sum()
        assert not y.requires_grad and y._parents == () and y._backward is None
        assert y.item() == 6.0

    def test_nests_and_restores_the_outer_mode(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not (x + x).requires_grad
        assert (x + x).requires_grad

    def test_restores_grad_mode_when_the_block_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert (x + x).requires_grad

    def test_backward_works_after_the_block(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        with no_grad():
            frozen = x * 3.0
        (x * x + frozen).sum().backward()
        assert np.array_equal(x.grad, 2.0 * np.arange(3.0))

    def test_mode_is_per_thread(self):
        x = Tensor(np.ones(3), requires_grad=True)
        entered, leave = threading.Event(), threading.Event()
        seen = []

        def other():
            with no_grad():
                entered.set()
                leave.wait(10)
                seen.append((x + x).requires_grad)
            seen.append((x + x).requires_grad)

        thread = threading.Thread(target=other)
        thread.start()
        assert entered.wait(10)
        assert (x + x).requires_grad  # the other thread's block leaves this one recording
        with no_grad():
            leave.set()
            thread.join(10)
            # the other thread left its block: this one is still gradient-free
            assert not (x + x).requires_grad
        assert (x + x).requires_grad
        assert seen == [False, True]  # and the other thread got its own mode back

    def test_a_new_thread_starts_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        seen = []
        with no_grad():
            thread = threading.Thread(target=lambda: seen.append((x + x).requires_grad))
            thread.start()
            thread.join(10)
        assert seen == [True]


class TestCheckGradients:
    def test_sum_is_exact(self, rng):
        # integer values plus a power-of-two eps keep the finite-difference
        # arithmetic exact, so the relative error is literally zero
        x = Tensor(rng.integers(-8, 9, size=(3, 4)).astype(float), requires_grad=True)
        assert check_gradients(lambda: x.sum(), [x], eps=2.0**-17) == 0.0

    def test_sigmoid_dot_path(self, rng):
        w = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=4))
        b = Tensor(np.zeros(1), requires_grad=True)
        err = check_gradients(lambda: sigmoid(affine(x, w, b)).sum(), [w, b])
        assert err < 1e-6

    def test_eps_outside_range_rejected(self, rng):
        x = Tensor(rng.normal(size=3), requires_grad=True)
        with pytest.raises(ValueError):
            check_gradients(lambda: x.sum(), [x], eps=1e-2)

    def test_randomized_primitives_100_trials(self):
        """Every differentiable primitive agrees with finite differences on
        randomized shapes: 100 seeded trials, rel err < 1e-4 at eps 1e-5."""
        rng = np.random.default_rng(77)
        worst = 0.0
        for trial in range(100):
            kind = trial % 5
            if kind == 0:  # conv + relu + gap
                cin, cout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
                h = w = int(rng.integers(4, 7))
                x = Tensor(_away_from_zero(rng.normal(size=(cin, h, w))), requires_grad=True)
                k = Tensor(0.5 * rng.normal(size=(cout, cin, 3, 3)), requires_grad=True)
                b = Tensor(0.1 * rng.normal(size=cout), requires_grad=True)
                stride = int(rng.integers(1, 3))
                f = lambda: global_avg_pool(relu(conv2d(x, k, b, stride=stride, padding=1))).sum()
                params = [x, k, b]
            elif kind == 1:  # affine + sigmoid
                n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
                x = Tensor(rng.normal(size=n), requires_grad=True)
                w = Tensor(rng.normal(size=(m, n)), requires_grad=True)
                b = Tensor(rng.normal(size=m), requires_grad=True)
                f = lambda: sigmoid(affine(x, w, b)).sum()
                params = [x, w, b]
            elif kind == 2:  # matmul + elementwise mul
                a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
                b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
                c = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
                f = lambda: (matmul(a, b) * c).sum()
                params = [a, b, c]
            elif kind == 3:  # roi pooling over a well-separated map
                ch = int(rng.integers(1, 3))
                x = Tensor(rng.permutation(36.0 * ch * np.arange(1, 36 * ch + 1) / 7).reshape(ch, 6, 6),
                           requires_grad=True)
                box = Box(1.0, 0.0, 5.0, 6.0)
                f = lambda: sigmoid(roi_max_pool(x, box, 2, 2, 6, 6)).sum()
                params = [x]
            else:  # sum along an axis + scalar arithmetic
                x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
                y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
                f = lambda: ((x * y - x).sum(axis=1) * 0.5).sum()
                params = [x, y]
            worst = max(worst, check_gradients(f, params, eps=1e-5))
        assert worst < 1e-4, worst


def _away_from_zero(arr, margin=0.05):
    arr = arr.copy()
    small = np.abs(arr) < margin
    arr[small] = margin * np.where(arr[small] >= 0, 1.0, -1.0)
    return arr
