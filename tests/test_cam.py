import numpy as np
import pytest
from scipy import ndimage

from lgnet.backbone import forward_global, init_backbone_params, preset_config
from lgnet.boxes import Box
from lgnet.cam import activation_box, activation_boxes, class_activation_maps
from lgnet.synthdata import _sample_rng, default_spec, render_sample
from lgnet.tensor import Tensor, affine, global_avg_pool


def _label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Reference: 4-connected component labelling by a scan of the full
    grid; labels start at 1 in row-major order of each component's first
    cell, 0 is background."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int32)
    current = 0
    for sr in range(h):
        for sc in range(w):
            if not mask[sr, sc] or labels[sr, sc]:
                continue
            current += 1
            frontier = [(sr, sc)]
            labels[sr, sc] = current
            while frontier:
                r, c = frontier.pop()
                for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not labels[nr, nc]:
                        labels[nr, nc] = current
                        frontier.append((nr, nc))
    return labels, current


def _reference_activation_box(cam, image_w, image_h, tau=0.2):
    """Reference: activation_box through the full-grid labelling above."""
    cam = np.asarray(cam, dtype=np.float64)
    h, w = cam.shape
    peak = cam.max()
    if peak <= 0.0 or peak == cam.min():
        return Box(0.0, 0.0, float(image_w), float(image_h)), True
    labels, count = _label_components(cam > tau * peak)
    sizes = np.bincount(labels.reshape(-1), minlength=count + 1)
    sizes[0] = 0
    best = int(sizes.argmax())
    tied = np.flatnonzero(sizes == sizes[best])
    if len(tied) > 1:
        peak_label = labels[np.unravel_index(cam.argmax(), cam.shape)]
        if peak_label in tied:
            best = int(peak_label)
    rows, cols = np.nonzero(labels == best)
    sx, sy = image_w / float(w), image_h / float(h)
    box = Box(cols.min() * sx, rows.min() * sy, (cols.max() + 1) * sx, (rows.max() + 1) * sy)
    return box, False


def _bfs_activation_box(cam, image_w, image_h, tau=0.2):
    """Reference: activation_box as a breadth-first walk of the activated
    cells, one map at a time, components in row-major order of their
    first cell."""
    cam = np.asarray(cam, dtype=np.float64)
    h, w = cam.shape
    peak = cam.max()
    if peak <= 0.0 or peak == cam.min():
        return Box(0.0, 0.0, float(image_w), float(image_h)), True
    cells = np.flatnonzero(cam > tau * peak).tolist()
    peak_cell = int(cam.argmax())
    unseen = set(cells)
    best: list[int] = []
    for start_cell in cells:
        if start_cell not in unseen:
            continue
        unseen.remove(start_cell)
        component = [start_cell]
        for cell in component:  # grows while it is walked: breadth first
            col = cell % w
            for nb in (cell - w, cell + w, cell - 1 if col else -1, cell + 1 if col + 1 < w else -1):
                if nb in unseen:
                    unseen.remove(nb)
                    component.append(nb)
        if len(component) > len(best) or (len(component) == len(best) and peak_cell in component):
            best = component
    rows, cols = np.divmod(np.array(best), w)
    sx = image_w / float(w)
    sy = image_h / float(h)
    box = Box(cols.min() * sx, rows.min() * sy, (cols.max() + 1) * sx, (rows.max() + 1) * sy)
    return box, False


def _assert_matches_reference(cam, image_w, image_h, tau=0.2):
    got = activation_box(cam, image_w, image_h, tau)
    want = _reference_activation_box(cam, image_w, image_h, tau)
    assert got == want, (cam, tau)
    box = got[0]
    assert all(type(v) is float for v in (box.x_min, box.y_min, box.x_max, box.y_max))


class TestClassActivationMaps:
    def test_single_channel_identity(self, rng):
        fm = rng.normal(size=(1, 4, 4))
        cams = class_activation_maps(fm, np.array([[1.0]]))
        assert np.array_equal(cams[0], fm[0])

    def test_zero_weights_give_zero_maps(self, rng):
        cams = class_activation_maps(rng.normal(size=(3, 4, 4)), np.zeros((2, 3)))
        assert np.all(cams == 0.0)

    def test_linear_combination_pointwise(self, rng):
        fm = rng.normal(size=(2, 5, 5))
        cams = class_activation_maps(fm, np.array([[1.0, 2.0]]))
        assert np.allclose(cams[0], fm[0] + 2.0 * fm[1], atol=0, rtol=0)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            class_activation_maps(rng.normal(size=(3, 4, 4)), np.zeros((2, 4)))

    def test_linear_in_feature_map(self, rng):
        fm = rng.normal(size=(3, 4, 4))
        w = rng.normal(size=(2, 3))
        assert np.array_equal(
            class_activation_maps(2.0 * fm, w), 2.0 * class_activation_maps(fm, w)
        )

    def test_gap_identity_over_100_draws(self):
        """Spatial mean of each activation map equals logit minus bias."""
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(1, 9))
            a = int(rng.integers(1, 6))
            h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            fm = rng.normal(size=(k, h, w))
            weight = rng.normal(size=(a, k))
            bias = rng.normal(size=a)
            logits = affine(global_avg_pool(Tensor(fm)), Tensor(weight), Tensor(bias)).data
            cams = class_activation_maps(fm, weight)
            worst = max(worst, np.abs(cams.mean(axis=(1, 2)) - (logits - bias)).max())
        assert worst < 1e-9, worst


class TestActivationBox:
    def test_single_hot_cell(self):
        cam = np.array([[0.0, 0.0], [0.0, 10.0]])
        box, degenerate = activation_box(cam, image_w=10, image_h=10, tau=0.2)
        assert not degenerate
        assert (box.x_min, box.y_min, box.x_max, box.y_max) == (5.0, 5.0, 10.0, 10.0)

    def test_constant_map_is_degenerate(self):
        box, degenerate = activation_box(np.full((3, 3), 2.0), image_w=12, image_h=9)
        assert degenerate
        assert (box.x_min, box.y_min, box.x_max, box.y_max) == (0.0, 0.0, 12.0, 9.0)

    def test_non_positive_peak_is_degenerate(self):
        cam = np.array([[-5.0, -1.0], [-3.0, -2.0]])
        box, degenerate = activation_box(cam, image_w=8, image_h=8)
        assert degenerate

    def test_largest_component_wins(self):
        cam = np.zeros((5, 5))
        cam[0, 0] = 5.0        # lone activated cell
        cam[4, 3] = 9.0        # two-cell component at the opposite corner
        cam[4, 4] = 8.0
        box, degenerate = activation_box(cam, image_w=5, image_h=5, tau=0.2)  # threshold 1.8
        assert not degenerate
        assert (box.x_min, box.y_min, box.x_max, box.y_max) == (3.0, 4.0, 5.0, 5.0)

    def test_scaling_invariance(self, rng):
        cam = rng.normal(size=(6, 6)) + 1.0
        ref, _ = activation_box(cam, 32, 32)
        for alpha in (0.25, 3.0, 117.5):
            got, _ = activation_box(alpha * cam, 32, 32)
            assert got == ref

    def test_box_contains_selected_peak_and_usually_global_argmax(self, rng):
        """The box bounds an activated component; whenever the global argmax
        sits in a component of maximal size, the box covers it."""
        for _ in range(200):
            cam = rng.normal(size=(7, 7))
            box, degenerate = activation_box(cam, 7, 7)
            if degenerate:
                continue
            mask = cam > 0.2 * cam.max()
            labels, _ = ndimage.label(mask)  # 4-connected by default
            sizes = np.bincount(labels.ravel())
            sizes[0] = 0
            r, c = np.unravel_index(cam.argmax(), cam.shape)
            if sizes[labels[r, c]] == sizes.max():
                assert box.contains_point(c + 0.5, r + 0.5), (cam, box)

    def test_matches_scipy_component_oracle(self, rng):
        """Component selection agrees with an independent labelling of the
        activated mask (largest component, ties toward the peak's)."""
        for _ in range(300):
            cam = rng.normal(size=(8, 8))
            if cam.max() <= 0 or cam.max() == cam.min():
                continue
            box, _ = activation_box(cam, 8, 8)
            mask = cam > 0.2 * cam.max()
            labels, n = ndimage.label(mask)
            sizes = np.bincount(labels.ravel(), minlength=n + 1)
            sizes[0] = 0
            top = sizes.max()
            candidates = list(np.flatnonzero(sizes == top))
            peak_label = labels[np.unravel_index(cam.argmax(), cam.shape)]
            if peak_label in candidates:
                pick = peak_label
            else:
                # earliest component in row-major discovery order
                pick = min(candidates, key=lambda lb: np.flatnonzero(labels.ravel() == lb)[0])
            rows, cols = np.nonzero(labels == pick)
            expected = Box(float(cols.min()), float(rows.min()),
                           float(cols.max() + 1), float(rows.max() + 1))
            assert box == expected

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            activation_box(np.ones((2, 2)), 4, 4, tau=1.5)

    @pytest.mark.parametrize("shape", [(8, 8), (5, 9), (9, 5), (1, 7), (7, 1), (1, 1), (16, 12)])
    def test_matches_full_grid_labelling_on_random_maps(self, rng, shape):
        for _ in range(150):
            kind = rng.integers(4)
            if kind == 0:  # small integers: ties, plateaus, equal-size components
                cam = rng.integers(-1, 3, size=shape).astype(float)
            elif kind == 1:  # a plateau at the peak beside noise
                cam = rng.normal(size=shape)
                cam[rng.random(shape) < 0.3] = cam.max()
            elif kind == 2:  # single activated cells, all of one size
                cam = np.where(rng.random(shape) < 0.3, rng.integers(1, 3, size=shape), 0).astype(float)
            else:
                cam = rng.normal(size=shape)
            tau = float(rng.choice([0.05, 0.2, 0.5, 0.9]))
            _assert_matches_reference(cam, 4 * shape[1], 3 * shape[0], tau)

    def test_matches_full_grid_labelling_on_equal_components(self):
        # two blobs of three cells; the peak sits in the later one, then in
        # neither of the tied ones, then in a smaller one
        cam = np.zeros((6, 6))
        cam[0, 0:3] = 1.0
        cam[4, 3:6] = 1.0
        for peak_at in [(4, 5), (0, 1)]:
            peaked = cam.copy()
            peaked[peak_at] = 2.0
            _assert_matches_reference(peaked, 24, 24)
        cam[2, 1] = 5.0
        _assert_matches_reference(cam, 24, 24)
        # a checkerboard: every activated cell is its own component
        board = np.indices((5, 7)).sum(axis=0) % 2 * 1.0
        board[3, 4] = 1.5
        _assert_matches_reference(board, 28, 20)

    @pytest.mark.parametrize("cam", [np.zeros((4, 4)), np.full((2, 5), 3.0), -np.ones((3, 1)),
                                     np.array([[0.0, -1.0, 0.0]])])
    def test_degenerate_maps_match_full_grid_labelling(self, cam):
        _assert_matches_reference(cam, 16, 16)

    def test_matches_full_grid_labelling_on_real_maps(self):
        spec = default_spec()
        config = preset_config("base", spec.num_attributes)
        params = init_backbone_params(config, np.random.default_rng(5))
        for i in range(6):
            sample = render_sample(spec, _sample_rng(9, "test", i), f"cam_{i}")
            featmap, _ = forward_global(params, config, Tensor(sample.image))
            cams = class_activation_maps(featmap.data, params.head_weight.data)
            for cam in cams:
                for tau in (0.2, 0.5):
                    _assert_matches_reference(cam, 64, 64, tau)


def _serpentine(h, w, reverse=False):
    """One component snaking through every other row, linked at
    alternating ends: the longest path a label has to travel."""
    cam = np.zeros((h, w))
    cam[::2] = 1.0
    for r in range(1, h, 2):
        cam[r, w - 1 if r % 4 == 1 else 0] = 1.0
    cam[-1, -1] = 2.0  # the peak at the far end of the walk
    return cam[::-1, ::-1].copy() if reverse else cam


def _map_stacks(rng, shape):
    """Stacks of [m, h, w] maps of every kind the labelling must handle."""
    h, w = shape
    ints = rng.integers(-1, 3, size=(24, h, w)).astype(float)  # ties, plateaus, equal-size components
    rounded = np.round(rng.normal(size=(24, h, w)), 1)
    plateau = rng.normal(size=(24, h, w))
    plateau[rng.random(plateau.shape) < 0.3] = plateau.max()
    singles = np.where(rng.random((24, h, w)) < 0.3, rng.integers(1, 3, size=(24, h, w)), 0).astype(float)
    degenerate = np.stack([np.zeros(shape), np.full(shape, 3.0), -np.ones(shape), -rng.random(shape)])
    return {
        "integers": ints,
        "rounded": rounded,
        "plateau": plateau,
        "single cells": singles,
        "normal": rng.normal(size=(24, h, w)),
        "degenerate": degenerate,
        "all kinds": np.concatenate([ints[:4], degenerate, rounded[:4], degenerate[:1], singles[:4]]),
    }


def _assert_stack_matches_references(cams, image_w, image_h, tau):
    corners, degenerate = activation_boxes(cams, image_w, image_h, tau)
    assert corners.shape == (len(cams), 4) and degenerate.shape == (len(cams),)
    for cam, row, flag in zip(cams, corners, degenerate):
        for reference in (_bfs_activation_box, _reference_activation_box):
            box, want_flag = reference(cam, image_w, image_h, tau)
            assert flag == want_flag, (cam, tau)
            assert row.tolist() == [box.x_min, box.y_min, box.x_max, box.y_max], (cam, tau)


class TestActivationBoxes:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (8, 8), (5, 7), (16, 16)])
    def test_stack_matches_bfs_and_full_grid_references(self, rng, shape):
        for cams in _map_stacks(rng, shape).values():
            for tau in (0.05, 0.2, 0.5, 0.9):
                _assert_stack_matches_references(cams, 4 * shape[1], 3 * shape[0], tau)

    @pytest.mark.parametrize("shape", [(8, 8), (16, 16), (9, 16), (16, 3)])
    def test_serpentine_component(self, shape):
        cams = np.stack([_serpentine(*shape), _serpentine(*shape, reverse=True), np.zeros(shape)])
        corners, degenerate = activation_boxes(cams, 64, 64)
        assert degenerate.tolist() == [False, False, True]
        assert np.array_equal(corners, np.tile([0.0, 0.0, 64.0, 64.0], (3, 1)))
        _assert_stack_matches_references(cams, 64, 64, 0.2)

    def test_real_maps_of_a_chunk(self):
        spec = default_spec()
        config = preset_config("base", spec.num_attributes)
        params = init_backbone_params(config, np.random.default_rng(5))
        images = np.stack([render_sample(spec, _sample_rng(9, "test", i), f"cam_{i}").image for i in range(16)])
        featmaps, _ = forward_global(params, config, Tensor(images))
        cams = np.concatenate([class_activation_maps(f, params.head_weight.data) for f in featmaps.data])
        for tau in (0.2, 0.5):
            _assert_stack_matches_references(cams, 64, 64, tau)

    @pytest.mark.parametrize("cams, match", [
        (np.ones((4, 4)), r"\[m, h, w\]"),
        (np.ones((1, 2, 4, 4)), r"\[m, h, w\]"),
        (np.array([[[1.0, np.nan]]]), "non-finite"),
        (np.array([[[1.0, np.inf]]]), "non-finite"),
    ])
    def test_bad_input_rejected(self, cams, match):
        with pytest.raises(ValueError, match=match):
            activation_boxes(cams, 8, 8)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 1.5])
    def test_tau_outside_unit_interval_rejected(self, tau):
        with pytest.raises(ValueError, match="tau"):
            activation_boxes(np.ones((2, 3, 3)), 8, 8, tau)
