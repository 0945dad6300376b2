import math
from pathlib import Path

import numpy as np
import pytest

from lgnet import proposals
from lgnet.boxes import Box, pairwise_overlap
from lgnet.proposals import (
    INTERIOR_PENALTY,
    MIN_SIDE,
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
from test_guidance import _reference_iou


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


def _reference_score_windows(edges, candidates):
    """Per-box scoring loop: two four-corner integral-image sums per box."""
    edges = np.asarray(edges, dtype=np.float64)
    ii = np.zeros((edges.shape[0] + 1, edges.shape[1] + 1))
    ii[1:, 1:] = edges.cumsum(axis=0).cumsum(axis=1)

    def rect_mass(x0, y0, x1, y1):
        return float(ii[y1, x1] - ii[y0, x1] - ii[y1, x0] + ii[y0, x0])

    eh, ew = edges.shape
    scored = []
    for box in candidates:
        x0, y0 = int(round(box.x_min)), int(round(box.y_min))
        x1, y1 = int(round(box.x_max)), int(round(box.y_max))
        if not (0 <= x0 < x1 <= ew and 0 <= y0 < y1 <= eh):
            raise ValueError(f"candidate outside edge map bounds: {box}")
        w, h = x1 - x0, y1 - y0
        if w < MIN_SIDE or h < MIN_SIDE:
            scored.append(box.with_score(0.0))
            continue
        total = rect_mass(x0, y0, x1, y1)
        b = proposals.BAND_WIDTH
        interior = rect_mass(x0 + b, y0 + b, x1 - b, y1 - b)
        band = total - interior
        perimeter = 2.0 * (w + h)
        interior_area = (w - 2 * b) * (h - 2 * b)
        scored.append(box.with_score(band / perimeter - INTERIOR_PENALTY * interior / interior_area))
    return scored


def _reference_candidates(image_w, image_h, config):
    """The sliding-window pyramid enumerated box by box, with no cache."""
    seen, out = set(), []
    scale = float(config.min_scale)
    while scale <= min(image_w, image_h):
        for ratio in config.aspect_ratios:
            w = int(round(scale * np.sqrt(ratio)))
            h = int(round(scale / np.sqrt(ratio)))
            if w < 1 or h < 1 or w > image_w or h > image_h:
                continue
            sx = max(1, int(round(config.stride_fraction * w)))
            sy = max(1, int(round(config.stride_fraction * h)))
            for y0 in range(0, image_h - h + 1, sy):
                for x0 in range(0, image_w - w + 1, sx):
                    key = (x0, y0, x0 + w, y0 + h)
                    if key not in seen:
                        seen.add(key)
                        out.append(Box(*map(float, key)))
        scale *= config.scale_ratio
    return out


def _reference_top_k(boxes, image_w, image_h, k):
    """The Box-list selection: a stable sort by score, zero-score
    full-image pads, then a second stable sort."""
    picked = sorted(boxes, key=lambda b: b.score, reverse=True)[:k]
    while len(picked) < k:
        picked.append(Box(0.0, 0.0, float(image_w), float(image_h), 0.0))
    picked.sort(key=lambda b: b.score, reverse=True)
    return tuple(picked)


def _reference_propose(image, k, iou_threshold, config):
    """The Box-list pipeline: every candidate scored, full NMS, then top-k."""
    h, w = image.shape[1:]
    scored = _reference_score_windows(edge_map(image), _reference_candidates(w, h, config))
    return _reference_top_k(nms(scored, iou_threshold), w, h, k)


def _fields(boxes):
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max, b.score) for b in boxes]).reshape(-1, 5)


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

    def test_matches_reference_loop_bit_for_bit(self, rng):
        # corners off the pixel grid, including halves, exercise the rounding
        edges = rng.uniform(size=(30, 41))
        boxes = []
        for _ in range(300):
            x0, y0 = rng.integers(0, 68), rng.integers(0, 46)
            w, h = rng.integers(4, 24, size=2)
            boxes.append(Box(x0 / 2, y0 / 2, min(x0 + w, 81) / 2, min(y0 + h, 59) / 2,
                             score=None if rng.uniform() < 0.5 else 1.0))
        assert score_windows(edges, boxes) == _reference_score_windows(edges, boxes)

    def test_box_outside_edge_map_rejected(self):
        with pytest.raises(ValueError, match="outside edge map bounds"):
            score_windows(np.zeros((10, 10)), [Box(0, 0, 5, 5), Box(4, 4, 11, 9)])


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

    def test_matches_reference_loop_across_sizes_and_configs(self):
        # sizes and configs interleaved, so a grid cached under the wrong key shows
        for w, h, config in [(64, 64, CandidateConfig()), (80, 48, CandidateConfig()),
                             (64, 64, CandidateConfig(stride_fraction=0.5)), (48, 80, CandidateConfig()),
                             (5, 7, CandidateConfig(min_scale=3)), (64, 64, CandidateConfig())]:
            assert generate_candidates(w, h, config) == _reference_candidates(w, h, config)


def _reference_nms(boxes, threshold):
    """Independent greedy oracle: python loops plus the scalar reference iou."""
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept, dead = [], set()
    for i in order:
        if i in dead:
            continue
        kept.append(boxes[i])
        for j in order:
            if j != i and j not in dead and _reference_iou(boxes[i], boxes[j]) > threshold:
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


def _reference_suppression_rows(coords, iou_threshold):
    """The per-row loop with the IoU arithmetic written inline, as
    ``_suppression_rows`` computed it before the shared overlap kernel."""
    areas = (coords[:, 2] - coords[:, 0]) * (coords[:, 3] - coords[:, 1])
    rows = []
    for i in range(len(coords)):
        iw = np.minimum(coords[i, 2], coords[:, 2]) - np.maximum(coords[i, 0], coords[:, 0])
        ih = np.minimum(coords[i, 3], coords[:, 3]) - np.maximum(coords[i, 1], coords[:, 1])
        inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
        hit = inter / (areas[i] + areas - inter) > iou_threshold
        hit[i] = False
        rows.append(np.flatnonzero(hit))
    return rows


def _block_suppression_rows(coords, iou_threshold):
    """The builder that tested every pair, as ``_suppression_rows`` ran
    before it sorted the boxes by x: blocks of about 2**14 IoUs, each
    block of rows against all n boxes."""
    n = len(coords)
    step = max(1, (1 << 14) // max(n, 1))
    rows = []
    for start in range(0, n, step):
        hit = pairwise_overlap(coords[start : start + step], coords) > iou_threshold
        diagonal = np.arange(len(hit))
        hit[diagonal, diagonal + start] = False
        found, cols = np.nonzero(hit)
        rows += np.split(cols, np.searchsorted(found, diagonal[1:]))
    return rows


def _overlap_test_sets(rng):
    """Box sets with random, touching, nested and identical boxes."""
    floats = np.sort(rng.uniform(0, 40, (60, 2, 2)), axis=1)  # [n, (min, max), (x, y)]
    grid = 2.0 * rng.integers(0, 10, (60, 2)).astype(float)
    sides = 2.0 * rng.integers(1, 4, (60, 2)).astype(float)
    nested = np.array([[i, i, 30.0 - i, 30.0 - i] for i in range(0, 15, 3)] + [[5.0, 6.0, 7.0, 8.0]])
    same = np.tile([[1.5, 2.5, 9.0, 12.0]], (4, 1))
    touching = np.column_stack([grid, grid + sides])  # corners on a coarse grid: shared edges
    return {
        "random": floats.reshape(-1, 4),
        "touching": touching,
        "nested": nested,
        "identical": same,
        "all_kinds": np.concatenate([touching[:20], nested, same, touching[:5]]),
    }


class TestSuppressionRows:
    @pytest.mark.parametrize("kind", ["random", "touching", "nested", "identical", "all_kinds"])
    def test_rows_match_the_reference_loop(self, rng, kind):
        coords = _overlap_test_sets(rng)[kind]
        ious = [_reference_iou(Box(*a), Box(*b)) for a in coords for b in coords]
        # thresholds equal to IoUs that occur, so some pairs sit exactly on the > boundary
        exact = sorted({v for v in ious if 0.0 < v < 1.0})
        thresholds = [0.1, 0.5, 0.7, 0.9] + exact[:: max(1, len(exact) // 6)]
        for threshold in thresholds:
            got = proposals._suppression_rows(coords, threshold)
            want = _reference_suppression_rows(coords, threshold)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), threshold

    def test_boundary_is_strict(self):
        # IoU of the pair is 16 / 32 = 0.5 exactly: suppressed only below 0.5
        coords = np.array([[0.0, 0.0, 4.0, 8.0], [0.0, 0.0, 4.0, 4.0]])
        assert [r.tolist() for r in proposals._suppression_rows(coords, 0.5)] == [[], []]
        assert [r.tolist() for r in proposals._suppression_rows(coords, 0.4999)] == [[1], [0]]

    @pytest.mark.parametrize("size", [64, 80])
    def test_rows_match_the_reference_loop_across_blocks(self, size):
        # 611 and 1160 candidates: 24 and 83 blocks of rows, the last one short
        coords = proposals._candidate_grid(size, size, CandidateConfig())
        for threshold in (0.3, 0.5, 0.619, 0.7):
            got = proposals._suppression_rows(coords, threshold)
            want = _reference_suppression_rows(coords, threshold)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), threshold

    @pytest.mark.parametrize("size", [64, 80, 128])
    def test_rows_equal_the_block_builder(self, size):
        # 611, 1160 and 3732 candidates
        coords = proposals._candidate_grid(size, size, CandidateConfig())
        for threshold in (0.3, 0.5, 0.619, 0.7):
            got = proposals._suppression_rows(coords, threshold)
            want = _block_suppression_rows(coords, threshold)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), threshold

    def test_tests_only_boxes_whose_x_ranges_meet(self, monkeypatch):
        tested = []
        real = proposals.overlap

        def recording(a, b, mode="iou"):
            out = real(a, b, mode)
            tested.append(out.shape)
            return out

        monkeypatch.setattr(proposals, "overlap", recording)
        coords = proposals._candidate_grid(128, 128, CandidateConfig())
        n = len(coords)
        rows = proposals._suppression_rows(coords, 0.5)
        # 35% of the pairs meet in x; blocks of rows test a few more than those
        assert sum(height * width for height, width in tested) < n * n / 3
        assert all(height <= 16 for height, _ in tested)
        assert len(rows) == n and not any(row.flags.writeable for row in rows)

    def test_no_boxes_and_one_box(self):
        assert proposals._suppression_rows(np.zeros((0, 4)), 0.5) == ()
        assert [r.tolist() for r in proposals._suppression_rows(np.array([[0.0, 0.0, 4.0, 4.0]]), 0.5)] == [[]]


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

    @pytest.mark.parametrize("k", [1, 4, 12, 40])
    def test_rows_match_the_box_pipeline(self, k):
        # scores drawn from a few values (ties, zeros that tie with the pads,
        # negatives) or continuous; k below and above the box count
        rng = np.random.default_rng(k)
        for n in (0, 1, 3, 12, 25):
            for _ in range(20):
                corners = rng.uniform(0, 40, (n, 2))
                sizes = rng.uniform(1, 20, (n, 2))
                if rng.random() < 0.7:
                    scores = rng.choice([-0.5, -0.1, -0.0, 0.0, 0.25, 0.5], n)
                else:
                    scores = rng.normal(size=n)
                rows = np.column_stack([corners, corners + sizes, scores])
                boxes = [Box(*row) for row in rows.tolist()]
                expected = _fields(_reference_top_k(boxes, 64, 48, k))
                assert np.array_equal(top_k(rows, 64, 48, k).rows, expected)
                assert np.array_equal(top_k(boxes, 64, 48, k).rows, expected)

    def test_box_without_score_rejected(self):
        with pytest.raises(ValueError, match="no score"):
            top_k([Box(0, 0, 4, 4, 0.5), Box(1, 1, 5, 5)], 8, 8, k=2)


class TestSerialization:
    def test_round_trip_is_byte_stable(self, tmp_path, rng):
        boxes = tuple(
            Box(float(x0), float(y0), float(x0 + w), float(y0 + h), float(s))
            for x0, y0, w, h, s in rng.uniform(1, 20, size=(15, 5))
        )
        ps = ProposalSet(boxes)
        path = tmp_path / "a.proposals"
        save_proposals(path, ps)
        first = path.read_bytes()
        loaded = load_proposals(path)
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

    def test_rows_are_read_only_and_boxes_built_on_request(self):
        rows = np.array([[0.0, 1.5, 12.0, 20.25, 0.75], [3.0, 4.0, 5.0, 6.0, -1.0]])
        ps = ProposalSet(rows)
        assert ps.boxes == (Box(0.0, 1.5, 12.0, 20.25, 0.75), Box(3.0, 4.0, 5.0, 6.0, -1.0))
        assert ps == ProposalSet(ps.boxes)
        with pytest.raises(ValueError):
            ps.rows[0, 0] = 1.0
        rows[0, 0] = 1.0  # the caller's own array stays writeable
        with pytest.raises(ValueError, match="shape"):
            ProposalSet(rows[:, :4])


def _reference_load_proposals(path):
    """The per-line reader: one ``float`` per field, one Box per line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    boxes = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"{path}:{ln}: expected 5 fields, got {len(parts)}")
        try:
            values = [float(v) for v in parts]
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"non-finite value in {line.strip()!r}")
            boxes.append(Box(*values))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
    if not boxes:
        raise ValueError(f"{path}: no proposals")
    return boxes


def _read_both(path, raw: bytes):
    """Loads ``raw`` with both readers and checks they agree: equal values,
    or a ValueError with the same message. Returns the message or None."""
    path.write_bytes(raw)
    try:
        expected = _reference_load_proposals(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_proposals(path)
        assert str(got.value) == str(exc)
        return str(exc)
    assert np.array_equal(load_proposals(path).rows, _fields(expected))
    return None


OK = "0 1.5 12 20.25 0.75"
READER_CORPUS = {
    "crlf": b"0 0 4 4 1\r\n2 2 6 6 0.5\r\n",
    "blank_lines_and_trailing_space": b"\n\n0 0 4 4 1   \n \t \n2 2 6 6 0.5\t\n\n",
    "other_line_breaks": b"0 0 4 4 1\x0c2 2 6 6 0.5\r3 3 7 7 0.25\xc2\x85" + OK.encode(),
    "no_final_newline": OK.encode(),
    "underscores": b"1_0 0 2_0 4 1\n",
    "exponents": b"1e3 0 2E3 4 -1e-3\n",
    "leading_space_nan": b"0 0 4 4  nan\n",
    "minus_inf": OK.encode() + b"\n-inf 0 4 4 1\n",
    "overflow_to_inf": b"0 0 1e400 4 1\n",
    "comma": OK.encode() + b"\n0 0 4 4 1,5\n",
    "comma_first_token": b"1,5 0 4 4 1\n" + OK.encode(),
    "four_fields": OK.encode() + b"\n0 0 4 4\n",
    "six_fields": b"0 0 4 4 1 1\n",
    "x_min_equals_x_max": OK.encode() + b"\n3 0 3 4 1\n",
    "y_min_above_y_max": b"0 5 4 4 1\n",
    "empty": b"",
    "only_blank_lines": b"\n  \n\t\n",
    "not_utf8": b"0 0 4 4 \xff\n",
    # the first faulty line decides, whatever the kind of fault after it
    "non_finite_before_bad_token": OK.encode() + b"\n0 0 inf 4 1\n0 0 4 4 x\n",
    "bad_token_before_field_count": b"0 0 4 4 x\n0 0 4\n",
    "field_count_before_bad_token": b"0 0 4\n0 0 4 4 x\n",
    "degenerate_before_field_count": b"4 0 4 4 1\n0 0 4\n",
    "degenerate_before_non_finite": b"4 0 4 4 1\n0 0 nan 4 1\n",
    "non_finite_and_degenerate_in_one_line": b"nan 0 0 4 1\n",
}


@pytest.mark.parametrize("name", sorted(READER_CORPUS))
def test_reader_matches_per_line_reference(tmp_path, name):
    message = _read_both(tmp_path / f"{name}.proposals", READER_CORPUS[name])
    if message is not None:
        assert str(tmp_path / f"{name}.proposals") in message


def test_reader_matches_per_line_reference_on_random_files(tmp_path):
    # lines drawn from valid rows and every kind of fault, so the first
    # fault sits at any line and faults of several kinds follow it
    rng = np.random.default_rng(9)
    pool = [OK, "2 2 6 6 -0.5", "1_0 0 2_0 4 1", "  0 0 4 4 1  ", "", "   ", "0 0 4 4 nan",
            "-inf 0 4 4 1", "0 0 4 4 1,5", "0 0 4 4", "0 0 4 4 1 1", "3 0 3 4 1", "0 0 4 4 0x1"]
    weights = np.array([30, 10, 5, 5, 5, 3, 1, 1, 1, 1, 1, 1, 1], dtype=float)
    rejected = 0
    for i in range(300):
        n = int(rng.integers(0, 12))
        lines = rng.choice(pool, size=n, p=weights / weights.sum())
        ending = rng.choice(["\n", "\r\n"])
        raw = ending.join(lines).encode() + (ending.encode() if rng.random() < 0.5 else b"")
        rejected += _read_both(tmp_path / f"r{i}.proposals", raw) is not None
    assert 50 < rejected < 250


def _reference_images():
    """Images of interleaved sizes, each with the candidate config it runs under."""
    from lgnet.synthdata import _sample_rng, default_spec, render_sample

    rng = np.random.default_rng(77)
    default, small = CandidateConfig(), CandidateConfig(min_scale=3)
    synthetic = [render_sample(default_spec(), _sample_rng(5, "train", i), "x").image for i in range(3)]
    return [
        (synthetic[0], default),
        (rng.uniform(size=(3, 48, 80)), default),
        (np.full((3, 64, 64), 0.3), default),  # every score ties at 0
        (rng.uniform(size=(3, 7, 5)), small),
        (synthetic[1], default),
        (rng.uniform(size=(3, 80, 48)), default),
        (rng.uniform(size=(3, 7, 5)), default),  # no candidate fits: padding only
        (synthetic[2], default),
        (rng.uniform(size=(3, 48, 80)), default),
    ]


class TestNoBoxObjects:
    """The proposal path from the walk to the file and back builds no Box."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = []
        check = Box.__post_init__

        def counted(box):
            count.append(1)
            check(box)

        monkeypatch.setattr(Box, "__post_init__", counted)
        return count

    @pytest.fixture(scope="class")
    def image(self):
        from lgnet.synthdata import _sample_rng, default_spec, render_sample

        return render_sample(default_spec(), _sample_rng(5, "train", 0), "x").image

    def test_propose_for_image(self, image, built):
        assert len(propose_for_image(image)) == 100
        assert len(built) == 0

    def test_save_proposals(self, tmp_path, built):
        rows = np.array([[0.0, 1.5, 12.0, 20.25, 0.75], [3.0, 4.0, 5.0, 6.0, -1.0]])
        save_proposals(tmp_path / "a.proposals", ProposalSet(rows))
        assert len(built) == 0

    def test_load_proposals(self, image, tmp_path, built):
        save_proposals(tmp_path / "a.proposals", propose_for_image(image))
        built.clear()
        assert len(load_proposals(tmp_path / "a.proposals")) == 100
        assert len(built) == 0


class TestPipeline:
    @pytest.mark.parametrize("k, iou_threshold", [(100, 0.7), (100, 0.3), (20, 0.5), (700, 0.5), (1, 0.9)])
    def test_matches_reference_pipeline(self, k, iou_threshold):
        # 0.3 and 0.5 suppress boxes on these grids, 0.7 does not; k = 700
        # exceeds every candidate count, so the walk runs to the end
        for image, config in _reference_images():
            expected = ProposalSet(_reference_propose(image, k, iou_threshold, config))
            assert propose_for_image(image, k, iou_threshold, config) == expected

    @pytest.mark.parametrize("k, iou_threshold", [(100, 0.7), (700, 0.5), (5, 0.3)])
    def test_files_match_the_box_pipeline_byte_for_byte(self, tmp_path, k, iou_threshold):
        for i, (image, config) in enumerate(_reference_images()):
            save_proposals(tmp_path / "rows.proposals", propose_for_image(image, k, iou_threshold, config))
            boxes = _reference_propose(image, k, iou_threshold, config)
            lines = [f"{b.x_min:.6f} {b.y_min:.6f} {b.x_max:.6f} {b.y_max:.6f} {b.score:.6f}" for b in boxes]
            assert (tmp_path / "rows.proposals").read_text(encoding="utf-8") == "\n".join(lines) + "\n", i

    def test_suppression_lists_built_once_per_size(self, monkeypatch, rng):
        builds = []
        build = proposals._suppression_rows

        def counting(coords, iou_threshold):
            builds.append(len(coords))
            return build(coords, iou_threshold)

        proposals._grid_suppression_rows.cache_clear()
        monkeypatch.setattr(proposals, "_suppression_rows", counting)
        for _ in range(6):
            propose_for_image(rng.uniform(size=(3, 40, 56)), k=10)
        assert len(builds) == 1
        for _ in range(2):
            propose_for_image(rng.uniform(size=(3, 56, 40)), k=10)
        propose_for_image(rng.uniform(size=(3, 40, 56)), k=10)
        assert len(builds) == 2

    def test_default_grid_never_suppresses_at_0_7(self):
        config = CandidateConfig()
        grid = proposals._candidate_grid(64, 64, config)
        assert grid.shape == (611, 4)
        x0, y0, x1, y1 = (grid[:, j] for j in range(4))
        iw = np.clip(np.minimum.outer(x1, x1) - np.maximum.outer(x0, x0), 0, None)
        ih = np.clip(np.minimum.outer(y1, y1) - np.maximum.outer(y0, y0), 0, None)
        area = (x1 - x0) * (y1 - y0)
        pair_iou = iw * ih / (area[:, None] + area[None, :] - iw * ih)
        np.fill_diagonal(pair_iou, 0.0)
        assert round(float(pair_iou.max()), 3) == 0.619
        assert all(row.size == 0 for row in proposals._grid_suppression_rows(64, 64, config, 0.7))

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
