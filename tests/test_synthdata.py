import hashlib
from pathlib import Path

import numpy as np
import pytest

from lgnet.loss_metrics import mean_accuracy
from lgnet.synthdata import (
    AttributeTemplate,
    DataError,
    SynthSpec,
    _sample_rng,
    default_spec,
    generate_dataset,
    load_dataset,
    load_split,
    render_sample,
)


def _dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "ds"
    generate_dataset(default_spec(), seed=7, n_train=12, n_val=5, n_test=5, out_dir=root)
    return root


class TestGeneration:
    def test_same_seed_is_byte_identical(self, tmp_path):
        spec = default_spec()
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(spec, seed=3, n_train=6, n_val=2, n_test=2, out_dir=a)
        generate_dataset(spec, seed=3, n_train=6, n_val=2, n_test=2, out_dir=b)
        assert _dir_digest(a) == _dir_digest(b)

    def test_different_seed_differs(self, tmp_path):
        spec = default_spec()
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(spec, seed=3, n_train=4, n_val=2, n_test=2, out_dir=a)
        generate_dataset(spec, seed=4, n_train=4, n_val=2, n_test=2, out_dir=b)
        assert _dir_digest(a) != _dir_digest(b)

    def test_positive_rate_within_binomial_bound(self):
        spec = default_spec()
        labels = np.stack(
            [render_sample(spec, _sample_rng(11, "train", i), f"t{i}").labels for i in range(1000)]
        )
        rates = labels.mean(axis=0)
        assert np.all(np.abs(rates - spec.positive_rate) < 0.05), rates

    def test_gt_boxes_cover_colored_pixels(self):
        spec = default_spec()
        for i in range(30):
            sample = render_sample(spec, _sample_rng(2, "val", i), f"v{i}")
            h, w = sample.image.shape[1:]
            for idx, box in sample.gt_boxes.items():
                assert sample.labels[idx] == 1
                assert 0 <= box.x_min < box.x_max <= w
                assert 0 <= box.y_min < box.y_max <= h
                color = np.array(spec.attributes[idx].color)
                patch = sample.image[
                    :, int(box.y_min) : int(box.y_max), int(box.x_min) : int(box.x_max)
                ]
                dist = np.abs(patch - color[:, None, None]).max(axis=0)
                assert (dist < 0.2).any(), f"attribute {idx} color missing in its box"

    def test_labels_match_boxes(self):
        spec = default_spec()
        sample = render_sample(spec, _sample_rng(0, "test", 3), "x")
        assert set(sample.gt_boxes) == {i for i, v in enumerate(sample.labels) if v == 1}

    def test_infeasible_template_rejected_at_validation(self):
        big = AttributeTemplate(
            name="too_big", shape="square", color=(1, 0, 0),
            size_range=(30, 40), region=(0.0, 0.0, 0.3, 0.3),
        )
        with pytest.raises(ValueError):
            SynthSpec(image_size=64, attributes=(big,))

    def test_split_streams_are_disjoint(self):
        spec = default_spec()
        a = render_sample(spec, _sample_rng(5, "train", 0), "a")
        b = render_sample(spec, _sample_rng(5, "val", 0), "b")
        assert not np.array_equal(a.image, b.image)


class TestLoading:
    def test_round_trip_labels_exact(self, small_dataset):
        splits, spec = load_dataset(small_dataset)
        assert spec is not None and spec.num_attributes == 8
        assert len(splits["train"]) == 12
        for i, sample in enumerate(splits["train"]):
            regenerated = render_sample(spec, _sample_rng(7, "train", i), sample.image_id)
            assert np.array_equal(sample.labels, regenerated.labels)
            assert set(sample.gt_boxes) == set(regenerated.gt_boxes)

    def test_images_quantized_to_8bit_grid(self, small_dataset):
        sample = load_split(small_dataset / "train")[0]
        assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0
        assert np.allclose(sample.image * 255.0, np.rint(sample.image * 255.0), atol=1e-9)

    def test_read_ppm_is_c_contiguous_and_equals_a_plain_decode(self, small_dataset):
        from lgnet.ppm import read_ppm

        for path in sorted((small_dataset / "train" / "images").glob("*.ppm"))[:3]:
            image = read_ppm(path)
            assert image.flags.c_contiguous and image.dtype == np.float64
            # a plain decode: the header is "P6\n64 64\n255\n", then interleaved RGB rows
            raw = path.read_bytes()
            assert raw.startswith(b"P6\n64 64\n255\n")
            rgb = np.frombuffer(raw[len(b"P6\n64 64\n255\n"):], dtype=np.uint8).reshape(64, 64, 3)
            plain = np.stack([rgb[:, :, c] / 255.0 for c in range(3)])
            assert image.shape == plain.shape and np.array_equal(image, plain)

    def test_missing_image_error_names_file(self, small_dataset, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(small_dataset / "val", broken)
        victim = sorted((broken / "images").glob("*.ppm"))[0]
        victim.unlink()
        with pytest.raises(DataError, match=victim.stem):
            load_split(broken)

    def test_corrupt_image_rejected(self, small_dataset, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(small_dataset / "val", broken)
        victim = sorted((broken / "images").glob("*.ppm"))[0]
        victim.write_bytes(b"P6\n64 64\n255\nshort")
        with pytest.raises(ValueError, match="truncated"):
            load_split(broken)

    def test_gt_boxes_optional(self, small_dataset, tmp_path):
        import shutil

        stripped = tmp_path / "nogt"
        shutil.copytree(small_dataset / "test", stripped)
        shutil.rmtree(stripped / "gt_boxes")
        samples = load_split(stripped)
        assert all(s.gt_boxes == {} for s in samples)

    def test_missing_labels_rejected(self, tmp_path):
        (tmp_path / "images").mkdir()
        with pytest.raises(DataError, match="labels"):
            load_split(tmp_path)


class TestLearnability:
    def test_color_presence_classifier_reaches_high_ma(self):
        """Oracle floor: thresholding each attribute's color-pixel count
        must solve the task; anything the trained models achieve is judged
        against this."""
        spec = default_spec()

        def features(samples):
            feats = np.empty((len(samples), spec.num_attributes))
            for n, s in enumerate(samples):
                for i, tpl in enumerate(spec.attributes):
                    color = np.array(tpl.color)[:, None, None]
                    match = (np.abs(s.image - color).max(axis=0) < 0.2).sum()
                    feats[n, i] = match
            return feats

        train = [render_sample(spec, _sample_rng(31, "train", i), f"t{i}") for i in range(120)]
        test = [render_sample(spec, _sample_rng(31, "test", i), f"e{i}") for i in range(120)]
        tr_feats, te_feats = features(train), features(test)
        tr_labels = np.stack([s.labels for s in train])
        te_labels = np.stack([s.labels for s in test])
        thresholds = np.empty(spec.num_attributes)
        for i in range(spec.num_attributes):
            pos = tr_feats[tr_labels[:, i] == 1, i]
            neg = tr_feats[tr_labels[:, i] == 0, i]
            thresholds[i] = 0.5 * (pos.min() + neg.max()) if len(pos) and len(neg) else 1.0
        scores = np.where(te_feats > thresholds, 5.0, -5.0)
        assert mean_accuracy(scores, te_labels) > 0.9
