import numpy as np
import pytest

from lgnet.boxes import Box
from lgnet.guidance import iou
from lgnet.proposals import (
    CandidateConfig,
    ProposalSet,
    edge_map,
    generate_candidates,
    load_proposals,
    nms,
    propose_for_image,
    save_proposals,
    score_windows,
    top_k,
)


class TestEdgeMap:
    def test_constant_image_has_no_edges(self):
        assert np.all(edge_map(np.full((3, 10, 10), 0.3)) == 0.0)

    def test_vertical_step_edge_is_local(self):
        img = np.zeros((3, 8, 8))
        img[:, :, 4:] = 1.0
        em = edge_map(img)
        cols = set(np.nonzero(em)[1].tolist())
        assert cols == {3, 4}          # inside {j-1 .. j+1}
        assert em[1:-1, 3:5].min() > 0

    def test_two_pixel_checkerboard_interior_strictly_positive(self):
        rr, cc = np.mgrid[0:10, 0:10]
        board = ((rr // 2 + cc // 2) % 2).astype(float)
        em = edge_map(np.stack([board] * 3))
        assert em[1:-1, 1:-1].min() > 0.0

    def test_borders_are_zero(self, rng):
        em = edge_map(rng.uniform(size=(3, 9, 9)))
        assert np.all(em[0] == 0) and np.all(em[-1] == 0)
        assert np.all(em[:, 0] == 0) and np.all(em[:, -1] == 0)

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            edge_map(np.zeros((3, 2, 5)))


class TestScoreWindows:
    def test_zero_edge_map_scores_zero(self):
        scored = score_windows(np.zeros((20, 20)), [Box(2, 2, 16, 16)])
        assert scored[0].score == 0.0

    def test_outline_under_band_scores_band_mass_over_perimeter(self):
        edges = np.zeros((32, 32))
        edges[8:10, 8:24] = 1.0
        edges[22:24, 8:24] = 1.0
        edges[8:24, 8:10] = 1.0
        edges[8:24, 22:24] = 1.0
        box = Box(8, 8, 24, 24)
        scored = score_windows(edges, [box])
        band_mass = edges[8:24, 8:24].sum()
        assert scored[0].score == pytest.approx(band_mass / (2 * (16 + 16)), abs=1e-12)

    def test_outline_in_interior_scores_strictly_lower(self):
        edges = np.zeros((32, 32))
        edges[8:10, 8:24] = 1.0
        edges[22:24, 8:24] = 1.0
        edges[8:24, 8:10] = 1.0
        edges[8:24, 22:24] = 1.0
        tight = score_windows(edges, [Box(8, 8, 24, 24)])[0].score
        loose = score_windows(edges, [Box(4, 4, 28, 28)])[0].score
        assert loose < tight

    def test_boxes_under_5px_score_zero(self, rng):
        edges = rng.uniform(size=(20, 20))
        scored = score_windows(edges, [Box(0, 0, 4, 12), Box(0, 0, 12, 4)])
        assert scored[0].score == 0.0 and scored[1].score == 0.0


class TestGenerateCandidates:
    def test_all_within_bounds_32(self):
        for b in generate_candidates(32, 32):
            assert 0 <= b.x_min < b.x_max <= 32
            assert 0 <= b.y_min < b.y_max <= 32

    def test_frozen_count_for_64(self):
        # enumerated once with the default config and frozen as a regression value
        assert len(generate_candidates(64, 64)) == 611

    def test_full_stride_emits_fewer_windows(self):
        dense = generate_candidates(64, 64, CandidateConfig(stride_fraction=0.25))
        sparse = generate_candidates(64, 64, CandidateConfig(stride_fraction=1.0))
        assert len(sparse) < len(dense)

    def test_pure_function(self):
        a = generate_candidates(48, 40)
        b = generate_candidates(48, 40)
        assert a == b


def _reference_nms(boxes, threshold):
    """Independent greedy oracle: python loops plus the scalar iou."""
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept, dead = [], set()
    for i in order:
        if i in dead:
            continue
        kept.append(boxes[i])
        for j in order:
            if j != i and j not in dead and iou(boxes[i], boxes[j]) > threshold:
                dead.add(j)
        dead.add(i)
    return kept


class TestNms:
    def test_disjoint_boxes_both_kept(self):
        boxes = [Box(0, 0, 4, 4, 0.9), Box(10, 10, 14, 14, 0.5)]
        assert nms(boxes) == boxes

    def test_duplicate_keeps_higher_score(self):
        a = Box(0, 0, 4, 4, 0.9)
        b = Box(0, 0, 4, 4, 0.8)
        assert nms([b, a]) == [a]

    def test_overlap_chain_keeps_ends(self):
        a = Box(0, 0, 10, 10, 0.9)
        b = Box(0, 6, 10, 16, 0.8)   # overlaps a and c
        c = Box(0, 12, 10, 22, 0.7)  # disjoint from a
        kept = nms([a, b, c], iou_threshold=0.2)
        assert kept == [a, c]

    def test_matches_reference_on_1000_random_sets(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            boxes = []
            for _ in range(n):
                x0, y0 = rng.uniform(0, 50, 2)
                w, h = rng.uniform(1, 25, 2)
                score = float(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]))  # force ties
                boxes.append(Box(x0, y0, x0 + w, y0 + h, score))
            threshold = float(rng.uniform(0.2, 0.8))
            assert nms(boxes, threshold) == _reference_nms(boxes, threshold)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            nms([], iou_threshold=1.5)


class TestTopK:
    def test_keeps_best_three_of_five(self):
        boxes = [Box(0, 0, 10, 10, s) for s in (0.1, 0.9, 0.4, 0.7, 0.2)]
        out = top_k(boxes, 64, 64, k=3)
        assert [b.score for b in out.boxes] == [0.9, 0.7, 0.4]

    def test_pads_with_full_image_boxes(self):
        boxes = [Box(0, 0, 10, 10, 0.5), Box(5, 5, 20, 20, 0.3)]
        out = top_k(boxes, 64, 48, k=4)
        assert len(out) == 4
        for pad in out.boxes[2:]:
            assert (pad.x_min, pad.y_min, pad.x_max, pad.y_max) == (0, 0, 64, 48)
            assert pad.score == 0.0

    def test_sorted_non_increasing(self, rng):
        boxes = [Box(0, 0, 5, 5, float(s)) for s in rng.uniform(size=20)]
        scores = [b.score for b in top_k(boxes, 64, 64, k=10).boxes]
        assert scores == sorted(scores, reverse=True)

    def test_pads_sort_above_negative_scores(self):
        boxes = [Box(0, 0, 10, 10, 0.5), Box(2, 2, 12, 12, -0.1)]
        scores = [b.score for b in top_k(boxes, 64, 64, k=4).boxes]
        assert scores == [0.5, 0.0, 0.0, -0.1]


class TestSerialization:
    def test_round_trip_is_byte_stable(self, tmp_path, rng):
        boxes = tuple(
            Box(float(x0), float(y0), float(x0 + w), float(y0 + h), float(s))
            for x0, y0, w, h, s in rng.uniform(1, 20, size=(15, 5))
        )
        ps = ProposalSet(boxes, source="generated")
        path = tmp_path / "a.proposals"
        save_proposals(path, ps)
        first = path.read_bytes()
        loaded = load_proposals(path)
        assert loaded.source == "loaded"
        save_proposals(path, loaded)
        assert path.read_bytes() == first
        reloaded = load_proposals(path)
        assert reloaded.boxes == loaded.boxes  # fixed point after one cycle

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.proposals"
        path.write_text("1 2 3 4\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_proposals(path)

    @pytest.mark.parametrize("line", ["0 0 inf 20 1", "0 0 10 20 nan", "-inf 0 10 20 1", "0 0 10 20 inf"])
    def test_non_finite_value_rejected(self, tmp_path, line):
        path = tmp_path / "bad.proposals"
        path.write_text(f"0 0 4 4 1\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2: non-finite"):
            load_proposals(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.proposals"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            load_proposals(path)


class TestPipeline:
    def test_propose_on_synthetic_image(self):
        from lgnet.synthdata import _sample_rng, default_spec, render_sample

        sample = render_sample(default_spec(), _sample_rng(5, "train", 0), "x")
        ps = propose_for_image(sample.image, k=40)
        assert len(ps) == 40
        h, w = sample.image.shape[1:]
        for b in ps.boxes:
            assert 0 <= b.x_min < b.x_max <= w
            assert 0 <= b.y_min < b.y_max <= h
        scores = [b.score for b in ps.boxes]
        assert scores == sorted(scores, reverse=True)
