import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgnet.boxes import Box
from lgnet.guidance import (
    AffinityMatrix,
    GuidanceHead,
    affinity_map,
    guided_fusion,
    iou,
    normalize_affinity,
    overlap_area,
)
from lgnet.tensor import Tensor


def _pixel_count_iou(a: Box, b: Box, extent: int = 80) -> float:
    """Brute-force oracle: rasterize both boxes onto unit cells and count."""
    grid_a = np.zeros((extent, extent), dtype=bool)
    grid_b = np.zeros((extent, extent), dtype=bool)
    grid_a[int(a.y_min) : int(a.y_max), int(a.x_min) : int(a.x_max)] = True
    grid_b[int(b.y_min) : int(b.y_max), int(b.x_min) : int(b.x_max)] = True
    inter = np.logical_and(grid_a, grid_b).sum()
    union = np.logical_or(grid_a, grid_b).sum()
    return inter / union


def _random_int_box(rng, lim=64) -> Box:
    x0, x1 = sorted(rng.choice(lim + 1, size=2, replace=False).tolist())
    y0, y1 = sorted(rng.choice(lim + 1, size=2, replace=False).tolist())
    return Box(float(x0), float(y0), float(x1), float(y1))


def _per_box_affinity(cam_boxes, proposals, mode):
    """Reference: one vectorized row per activation box."""
    p = np.array([[b.x_min, b.y_min, b.x_max, b.y_max] for b in proposals])
    p_areas = (p[:, 2] - p[:, 0]) * (p[:, 3] - p[:, 1])
    values = np.empty((len(cam_boxes), len(proposals)))
    for i, ci in enumerate(cam_boxes):
        iw = np.minimum(ci.x_max, p[:, 2]) - np.maximum(ci.x_min, p[:, 0])
        ih = np.minimum(ci.y_max, p[:, 3]) - np.maximum(ci.y_min, p[:, 1])
        inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
        if mode == "iou":
            values[i] = inter / (ci.area + p_areas - inter)
        else:
            values[i] = inter
    return values


def _grid_box(rng, grid: float) -> Box:
    x0, y0 = grid * rng.integers(0, 8, 2)
    w, h = grid * rng.integers(1, 5, 2)
    return Box(x0, y0, x0 + w, y0 + h)


boxes_strategy = st.builds(
    lambda x0, y0, w, h: Box(x0, y0, x0 + w, y0 + h),
    st.floats(0, 50), st.floats(0, 50), st.floats(0.5, 30), st.floats(0.5, 30),
)


class TestIou:
    def test_identical_boxes(self):
        b = Box(2, 3, 10, 12)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(Box(0, 0, 5, 5), Box(6, 6, 9, 9)) == 0.0

    def test_hand_computed_overlap(self):
        val = iou(Box(0, 0, 10, 10), Box(5, 5, 15, 15))
        assert val == pytest.approx(25.0 / 175.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(boxes_strategy, boxes_strategy)
    def test_symmetry_and_range(self, a, b):
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0

    def test_matches_pixel_counting_on_1000_pairs(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            a, b = _random_int_box(rng), _random_int_box(rng)
            assert iou(a, b) == pytest.approx(_pixel_count_iou(a, b), abs=1e-9)


class TestOverlapArea:
    def test_identical(self):
        assert overlap_area(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 100.0

    def test_disjoint(self):
        assert overlap_area(Box(0, 0, 2, 2), Box(5, 5, 9, 9)) == 0.0

    def test_partial(self):
        assert overlap_area(Box(0, 0, 10, 10), Box(5, 5, 15, 15)) == 25.0


class TestAffinityMap:
    def test_single_identical_pair(self):
        b = Box(1, 1, 5, 5)
        out = affinity_map([b], [b], mode="iou")
        assert out.values.tolist() == [[1.0]]

    def test_all_disjoint_gives_zero_matrix(self):
        cams = [Box(0, 0, 2, 2)]
        props = [Box(10, 10, 12, 12), Box(20, 20, 30, 30)]
        assert np.all(affinity_map(cams, props).values == 0.0)

    def test_matches_scalar_calls(self, rng):
        cams = [_random_int_box(rng) for _ in range(2)]
        props = [_random_int_box(rng) for _ in range(3)]
        for mode, fn in (("iou", iou), ("overlap_area", overlap_area)):
            got = affinity_map(cams, props, mode=mode).values
            for i in range(2):
                for j in range(3):
                    assert got[i, j] == pytest.approx(fn(cams[i], props[j]), abs=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            affinity_map([Box(0, 0, 1, 1)], [Box(0, 0, 1, 1)], mode="cosine")

    @pytest.mark.parametrize("mode", ["iou", "overlap_area"])
    def test_matches_per_box_rows_bit_for_bit(self, rng, mode):
        for _ in range(50):
            # corners on a coarse grid: many touching, nested and shared edges
            grid = rng.choice([2.0, 8.0, 0.37])
            cams = [_grid_box(rng, grid) for _ in range(int(rng.integers(1, 9)))]
            props = [_grid_box(rng, grid) for _ in range(int(rng.integers(1, 30)))]
            got = affinity_map(cams, props, mode=mode).values
            assert np.array_equal(got, _per_box_affinity(cams, props, mode))

    @pytest.mark.parametrize("mode", ["iou", "overlap_area"])
    def test_touching_and_disjoint_edges_match_per_box_rows(self, mode):
        cams = [Box(0, 0, 4, 4), Box(4, 0, 8, 4), Box(10, 10, 12, 12)]
        props = [Box(4, 4, 6, 6), Box(0, 4, 4, 8), Box(2, 2, 6, 6), Box(13, 13, 14, 14),
                 Box(0.5, 0.5, 3.5, 3.5)]
        got = affinity_map(cams, props, mode=mode).values
        assert np.array_equal(got, _per_box_affinity(cams, props, mode))
        assert got[0, 0] == got[0, 1] == got[0, 3] == got[2, 2] == 0.0

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            AffinityMatrix(np.array([[-0.1]]), "iou")


class TestNormalizeAffinity:
    def test_row_proportions(self):
        raw = AffinityMatrix(np.array([[1.0, 1.0, 2.0]]), "iou")
        assert normalize_affinity(raw).values.tolist() == [[0.25, 0.25, 0.5]]

    def test_zero_row_stays_zero(self):
        raw = AffinityMatrix(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), "iou")
        out = normalize_affinity(raw).values
        assert out[0].tolist() == [0.0, 0.0, 0.0]
        assert out[1].tolist() == [1.0, 0.0, 0.0]

    def test_scale_invariance(self):
        a = normalize_affinity(AffinityMatrix(np.array([[2.0, 2.0, 4.0]]), "iou"))
        b = normalize_affinity(AffinityMatrix(np.array([[1.0, 1.0, 2.0]]), "iou"))
        assert np.array_equal(a.values, b.values)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(0, 10), min_size=3, max_size=3),
            min_size=1, max_size=4,
        )
    )
    def test_rows_sum_to_one_or_stay_zero(self, raw_rows):
        raw = AffinityMatrix(np.array(raw_rows), "iou")
        out = normalize_affinity(raw).values
        sums = out.sum(axis=1)
        for i, row in enumerate(raw.values):
            if row.sum() > 0:
                assert sums[i] == pytest.approx(1.0, abs=1e-12)
            else:
                assert np.all(out[i] == 0.0)


def _head(weight, bias):
    return GuidanceHead(
        Tensor(np.asarray(weight, dtype=float), requires_grad=True),
        Tensor(np.asarray(bias, dtype=float), requires_grad=True),
    )


class TestGuidedFusion:
    def test_hand_example(self):
        head = _head([[1.0, 1.0]], [0.0])
        fused, local = guided_fusion(
            np.array([[1.0]]), Tensor([[1.0, 2.0]], requires_grad=True), head, np.zeros(1)
        )
        assert local.data.tolist() == [3.0]
        assert fused.data.tolist() == [3.0]

    def test_zero_affinity_falls_back_to_bias_plus_global(self, rng):
        head = _head(rng.normal(size=(2, 3)), [0.5, -1.0])
        yg = np.array([2.0, 3.0])
        feats = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        fused, local = guided_fusion(np.zeros((2, 4)), feats, head, yg)
        assert np.allclose(local.data, [0.5, -1.0], atol=0)
        assert np.allclose(fused.data, [2.5, 2.0], atol=0)

    def test_split_weight_equals_single_proposal(self, rng):
        feats = rng.normal(size=3)
        head = _head(rng.normal(size=(1, 3)), [0.2])
        two = guided_fusion(
            np.array([[0.5, 0.5]]), Tensor(np.stack([feats, feats])), head, np.zeros(1)
        )[0].data
        one = guided_fusion(np.array([[1.0]]), Tensor(feats[None]), head, np.zeros(1))[0].data
        assert np.allclose(two, one, atol=1e-12, rtol=0)

    def test_linear_in_features(self, rng):
        a = np.abs(rng.normal(size=(3, 5))) + 0.1
        a /= a.sum(axis=1, keepdims=True)
        head = _head(rng.normal(size=(3, 4)), rng.normal(size=3))
        x = rng.normal(size=(5, 4))
        yl1 = guided_fusion(a, Tensor(x), head, np.zeros(3))[1].data - head.bias.data
        yl2 = guided_fusion(a, Tensor(2.0 * x), head, np.zeros(3))[1].data - head.bias.data
        assert np.allclose(yl2, 2.0 * yl1, atol=1e-12)

    def test_proposal_permutation_invariance(self, rng):
        a = rng.uniform(size=(2, 6))
        a /= a.sum(axis=1, keepdims=True)
        x = rng.normal(size=(6, 3))
        head = _head(rng.normal(size=(2, 3)), rng.normal(size=2))
        perm = rng.permutation(6)
        base = guided_fusion(a, Tensor(x), head, np.ones(2))[0].data
        shuffled = guided_fusion(a[:, perm], Tensor(x[perm]), head, np.ones(2))[0].data
        assert np.allclose(base, shuffled, atol=1e-12, rtol=0)

    def test_zero_affinity_proposal_contributes_zero_gradient(self, rng):
        """Changing a zero-affinity proposal's features leaves that
        attribute's projection-row gradient untouched, exactly."""
        a = np.array([[0.0, 1.0], [0.5, 0.5]])
        head = _head(rng.normal(size=(2, 3)), np.zeros(2))
        x1 = rng.normal(size=(2, 3))
        x2 = x1.copy()
        x2[0] = rng.normal(size=3)  # proposal 0 has zero affinity to attribute 0
        grads = []
        for x in (x1, x2):
            head.weight.zero_grad()
            head.bias.zero_grad()
            fused, _ = guided_fusion(a, Tensor(x, requires_grad=True), head, np.zeros(2))
            fused.backward(np.array([1.0, 0.0]))
            grads.append(head.weight.grad.copy())
        assert np.array_equal(grads[0][0], grads[1][0])

    def test_shape_validation(self, rng):
        head = _head(rng.normal(size=(2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            guided_fusion(np.ones((2, 4)), Tensor(rng.normal(size=(3, 3))), head, np.zeros(2))
        with pytest.raises(ValueError):
            guided_fusion(np.ones((2, 4)), Tensor(rng.normal(size=(4, 3))), head, np.zeros(3))
