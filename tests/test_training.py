import dataclasses
import errno
import itertools
import math
import os
import re
import signal
import time

import numpy as np
import pytest

from lgnet.backbone import BackboneConfig, forward_global, init_backbone_params, preset_config
from lgnet.boxes import Box, box_array
from lgnet.loss_metrics import MetricsReport, positive_ratio, weighted_sigmoid_ce_node
from lgnet.proposals import ProposalSet, propose_for_image, save_proposals, top_k
from lgnet.synthdata import DataError, Sample, _sample_rng, default_spec, render_sample
from lgnet.tensor import Tensor, check_gradients, no_grad
from lgnet.training import (
    SCORE_BATCH,
    SGD_CHUNK,
    GlobalModel,
    TrainConfig,
    _Workers,
    _chunked_gradients,
    _epoch_permutation,
    _fused_logits,
    _global_score_task,
    _guidance_for,
    _label_matrix,
    _lg_forward,
    _map_once,
    _prepare_proposals,
    _same_size_chunks,
    _sgd_step,
    _sgd_task,
    build_lg_model,
    evaluate,
    learning_rate,
    load_proposal_dir,
    load_stage2_checkpoint,
    run_ablation,
    save_stage2_checkpoint,
    train_stage1,
    train_stage2,
    write_training_log,
)


def _global_scores(model, samples):
    """Stage-1 logits of ``samples`` on every core, as ``evaluate`` scores them."""
    return np.concatenate(_map_once(_global_score_task(model, samples), samples))


def _make_samples(n, split, seed=51, spec=None):
    spec = spec or default_spec()
    return [render_sample(spec, _sample_rng(seed, split, i), f"{split}_{i:05d}") for i in range(n)]


@pytest.fixture(scope="module")
def tiny_data():
    train = _make_samples(40, "train")
    val = _make_samples(16, "val")
    proposals = {
        s.image_id: propose_for_image(s.image, k=24) for s in train + val
    }
    return train, val, proposals


FAST = dict(epochs=3, batch_size=8, top_k_proposals=24, lr0=0.05)


@pytest.fixture
def one_core(monkeypatch):
    """Every chunk runs on the calling process, where a patched function
    counts its calls; a worker process counts in its own copy."""
    from lgnet import training

    monkeypatch.setattr(training, "_cores", lambda: 1)


class TestSchedule:
    def test_decay_values_are_exact(self):
        config = TrainConfig()
        for epoch in (0, 5, 19):
            assert learning_rate(config, epoch) == 0.02
        assert learning_rate(config, 20) == 0.02 * 0.1
        assert learning_rate(config, 39) == 0.02 * 0.1
        assert learning_rate(config, 40) == 0.02 * 0.1**2
        assert learning_rate(config, 20) == pytest.approx(0.002, rel=1e-12)
        assert learning_rate(config, 40) == pytest.approx(0.0002, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr0=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(affinity_mode="fancy")
        with pytest.raises(ValueError):
            TrainConfig(cam_threshold=1.5)
        with pytest.raises(ValueError):
            TrainConfig(backbone="resnet")

    def test_config_round_trips_through_json(self, tmp_path):
        config = TrainConfig(epochs=7, roi_out=(2, 5), affinity_mode="overlap_area")
        path = tmp_path / "c.json"
        import json

        path.write_text(json.dumps(dataclasses.asdict(config)), encoding="utf-8")
        assert TrainConfig.from_file(path) == config

    def test_config_file_value_out_of_range_names_the_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"epochs": 0}', encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: epochs"):
            TrainConfig.from_file(path)


class TestStage1:
    def test_loss_decreases_within_an_epoch_for_some_seed(self):
        train = _make_samples(10, "train", seed=3)
        val = _make_samples(4, "val", seed=3)
        wins = 0
        for seed in (0, 1, 2):
            config = TrainConfig(epochs=1, batch_size=2, seed=seed, lr0=0.05)
            result = train_stage1(train, val, config)
            steps = result.step_losses[0]
            wins += int(steps[-1] < steps[0])
        assert wins >= 1

    def test_same_seed_gives_identical_checkpoints(self, tmp_path):
        train = _make_samples(8, "train", seed=5)
        val = _make_samples(4, "val", seed=5)
        config = TrainConfig(epochs=2, batch_size=4, seed=9)
        digests = []
        for name in ("a", "b"):
            result = train_stage1(train, val, config)
            from lgnet.backbone import save_stage1_checkpoint

            path = tmp_path / f"{name}.lgn"
            save_stage1_checkpoint(path, result.model.backbone, result.model.params)
            digests.append(path.read_bytes())
        assert digests[0] == digests[1]

    def test_zero_learning_rate_leaves_parameters_at_init(self):
        train = _make_samples(6, "train", seed=6)
        val = _make_samples(3, "val", seed=6)
        config = TrainConfig(epochs=1, batch_size=3, seed=4, lr0=0.0, weight_decay=0.0)
        result = train_stage1(train, val, config)
        from lgnet.backbone import preset_config

        fresh = init_backbone_params(
            preset_config(config.backbone, 8), np.random.Generator(
                np.random.PCG64(np.random.SeedSequence((config.seed, 0)))
            )
        )
        for name, tensor in result.model.params.named().items():
            assert np.array_equal(tensor.data, fresh.named()[name].data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        train = _make_samples(6, "train", seed=6)
        val = _make_samples(3, "val", seed=6)
        config = TrainConfig(epochs=4, batch_size=3, seed=4, lr0=1e18)
        with pytest.raises(RuntimeError, match="stage-1 training diverged at epoch"):
            train_stage1(train, val, config)

    @pytest.mark.parametrize("batch_size, lengths", [(4, [4, 4, 2]), (3, [3, 3, 3, 1])])
    def test_step_losses_per_epoch_add_up_to_the_log(self, monkeypatch, one_core, batch_size, lengths):
        """In both stages; each step here is one chunk, whose loss is recorded."""
        from lgnet import training

        losses = []

        def recording(*args, **kwargs):
            loss = weighted_sigmoid_ce_node(*args, **kwargs)
            losses.append(loss.item())
            return loss

        monkeypatch.setattr(training, "weighted_sigmoid_ce_node", recording)
        train = _make_samples(10, "train", seed=3)
        val = _make_samples(4, "val", seed=3)
        proposals = {s.image_id: propose_for_image(s.image, k=8) for s in train + val}
        config = TrainConfig(epochs=2, batch_size=batch_size, seed=1, lr0=0.05, top_k_proposals=8)
        stage1 = train_stage1(train, val, config)
        recorded = [losses[:]]
        losses.clear()
        stage2 = train_stage2(train, val, stage1.model, proposals, config)
        recorded.append(losses)
        for result, stage_losses in zip((stage1, stage2), recorded):
            assert [len(steps) for steps in result.step_losses] == [len(lengths)] * 2
            # each entry is its step's mean loss, bit for bit
            assert [loss for steps in result.step_losses for loss in steps] == stage_losses
            for row, steps in zip(result.log_rows, result.step_losses):
                total = 0.0
                for loss, n in zip(steps, lengths):
                    total += loss * n
                assert row["train_loss"] == total / 10

    def test_log_rows_shape(self, tiny_data):
        train, val, _ = tiny_data
        config = TrainConfig(seed=1, **FAST)
        result = train_stage1(train, val, config)
        assert [row["epoch"] for row in result.log_rows] == [0, 1, 2]
        assert all(0.0 <= row["val_mA"] <= 1.0 for row in result.log_rows)
        assert result.best_val_ma == max(row["val_mA"] for row in result.log_rows)


@pytest.fixture(scope="module")
def stage1(tiny_data):
    train, val, _ = tiny_data
    return train_stage1(train, val, TrainConfig(seed=2, **FAST))


class TestStage2:
    def test_frozen_branch_never_moves(self, tiny_data, stage1):
        train, val, proposals = tiny_data
        config = TrainConfig(seed=2, **FAST)
        model0 = build_lg_model(stage1.model, config)
        digest_before = model0.frozen_digest()
        result = train_stage2(train, val, stage1.model, proposals, config)
        assert result.model.frozen_digest() == digest_before
        for name, t in result.model.global_params.named().items():
            assert np.array_equal(t.data, stage1.model.params.named()[name].data)

    def test_frozen_branch_runs_once_per_image(self, tiny_data, stage1, monkeypatch, one_core):
        from lgnet import training

        train, val, proposals = tiny_data
        real = training.forward_global
        images = []  # the images of each call, which may take a chunk

        def counted(params, config, image):
            images.append(image.data.shape[0] if image.data.ndim == 4 else 1)
            return real(params, config, image)

        monkeypatch.setattr(training, "forward_global", counted)
        for epochs in (1, 2):
            images.clear()
            config = TrainConfig(seed=2, **dict(FAST, epochs=epochs))
            train_stage2(train, val, stage1.model, proposals, config)
            assert sum(images) == len(train) + len(val)

    def test_global_branch_receives_no_gradients(self, tiny_data, stage1):
        train, val, proposals = tiny_data
        config = TrainConfig(seed=2, **FAST)
        model = build_lg_model(stage1.model, config)
        sample = train[0]
        boxes = list(proposals[sample.image_id].boxes)
        fused, _ = _lg_forward(model, sample, boxes)
        loss = weighted_sigmoid_ce_node(fused, sample.labels, np.full(8, 0.3))
        loss.backward()
        for t in model.global_params.named().values():
            assert not t.requires_grad and t.grad is None

    def test_initialization_reproduces_stage1_predictions(self, tiny_data, stage1):
        train, val, proposals = tiny_data
        config = TrainConfig(seed=2, **FAST)
        model = build_lg_model(stage1.model, config)
        stage1_report = evaluate(stage1.model, val)
        lg_report = evaluate(model, val, proposals=proposals)
        assert lg_report == stage1_report
        # both score the global logits of one image at a time
        guides = _guidance_for(model, val, proposals)
        with no_grad():
            fused = _fused_logits(model, val, guides)
        assert np.array_equal(fused.data, _global_scores(stage1.model, val))

    def test_best_val_never_below_stage1(self, tiny_data, stage1):
        train, val, proposals = tiny_data
        config = TrainConfig(seed=2, **FAST)
        result = train_stage2(train, val, stage1.model, proposals, config)
        assert result.best_val_ma >= evaluate(stage1.model, val).ma

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self, tiny_data, stage1):
        train, val, proposals = tiny_data
        config = TrainConfig(seed=2, **dict(FAST, epochs=2, lr0=1e18))
        with pytest.raises(RuntimeError, match="stage-2 training diverged at epoch"):
            train_stage2(train[:16], val[:4], stage1.model, proposals, config)
        assert _no_children()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_frozen_branch_drift_aborts(self, tiny_data, stage1, monkeypatch, cores):
        """The frozen classifier, changed during epoch 0, stops the stage at
        that epoch's end; the stage's workers are gone."""
        from lgnet import training

        monkeypatch.setattr(training, "_cores", lambda: cores)
        built, real_build, real_step = [], training.build_lg_model, training._sgd_step

        def build(*args):
            built.append(real_build(*args))
            return built[-1]

        def step(named, grads, *args):
            real_step(named, grads, *args)
            built[-1].global_params.head_weight.data[0, 0] += 1.0

        monkeypatch.setattr(training, "build_lg_model", build)
        monkeypatch.setattr(training, "_sgd_step", step)
        train, val, proposals = tiny_data
        with pytest.raises(RuntimeError, match="^frozen global branch drifted during epoch 0$"):
            train_stage2(train[:16], val[:4], stage1.model, proposals, TrainConfig(seed=2, **FAST))
        assert _no_children()

    def test_missing_proposal_file_is_an_error(self, tmp_path, tiny_data):
        train, _, _ = tiny_data
        with pytest.raises(DataError, match=train[0].image_id):
            load_proposal_dir(tmp_path, [train[0].image_id])

    def test_proposal_outside_image_is_an_error(self, tiny_data):
        train, _, proposals = tiny_data
        sample = train[0]
        h, w = sample.image.shape[1:]
        inside = proposals[sample.image_id].boxes
        edge = Box(w - 1, h - 1, w + 5, h + 5, 1.0)  # overlaps one corner pixel
        ready = _prepare_proposals([sample], {sample.image_id: ProposalSet(inside + (edge,))}, 4)
        assert ready.shape == (1, 4, 4)
        for outside in (Box(w, 0, w + 4, 4, 1.0), Box(0, -9, 4, 0, 1.0), Box(500, 500, 600, 600, 9.0)):
            bad = {sample.image_id: ProposalSet(inside + (outside,))}
            with pytest.raises(DataError, match=sample.image_id):
                _prepare_proposals([sample], bad, 4)

    def test_prepared_proposals_are_the_top_k_boxes(self, tiny_data):
        train, _, proposals = tiny_data
        rng = np.random.default_rng(3)
        # loaded in shuffled order, with ties, so both sorts have work to do
        shuffled = {}
        for s in train[:6]:
            rows = np.array(proposals[s.image_id].rows)
            rows[:, 4] = np.round(rows[:, 4], 1)
            shuffled[s.image_id] = ProposalSet(rng.permutation(rows))
        for k in (1, 10, 24, 30):
            ready = _prepare_proposals(train[:6], shuffled, k)
            assert ready.shape == (6, k, 4)
            for s, got in zip(train[:6], ready):
                h, w = s.image.shape[1:]
                boxes = top_k(list(shuffled[s.image_id].boxes), w, h, k).boxes
                expected = [(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes]
                assert np.array_equal(got, expected)

    def test_evaluate_builds_no_box(self, tmp_path, tiny_data, stage1, monkeypatch, one_core):
        # the files hold 20 proposals and the model takes 24, so every
        # image is padded as well
        _, val, _ = tiny_data
        for s in val:
            save_proposals(tmp_path / f"{s.image_id}.proposals", propose_for_image(s.image, k=20))
        loaded = load_proposal_dir(tmp_path, [s.image_id for s in val])
        model = build_lg_model(stage1.model, TrainConfig(seed=2, **FAST))
        built = []
        check = Box.__post_init__

        def counted(box):
            built.append(1)
            check(box)

        monkeypatch.setattr(Box, "__post_init__", counted)
        evaluate(model, val, proposals=loaded)
        assert built == []

    def test_checkpoint_round_trip(self, tmp_path, tiny_data, stage1):
        train, val, proposals = tiny_data
        config = TrainConfig(seed=2, **dict(FAST, epochs=1))
        result = train_stage2(train, val, stage1.model, proposals, config)
        path = tmp_path / "lg.lgn"
        save_stage2_checkpoint(path, result.model)
        loaded, meta = load_stage2_checkpoint(path)
        assert meta["kind"] == "lg"
        assert loaded.affinity_mode == result.model.affinity_mode
        assert np.array_equal(loaded.head.weight.data, result.model.head.weight.data)
        report_a = evaluate(result.model, val, proposals=proposals)
        report_b = evaluate(loaded, val, proposals=proposals)
        assert report_a == report_b

    def test_tampered_cam_weights_rejected(self, tmp_path, tiny_data, stage1):
        from lgnet import checkpoint
        from lgnet.training import TrainConfig

        config = TrainConfig(seed=2, **dict(FAST, epochs=1))
        model = build_lg_model(stage1.model, config)
        path = tmp_path / "lg.lgn"
        save_stage2_checkpoint(path, model)
        meta, tensors = checkpoint.load_container(path)
        tensors["cam/weight"] = tensors["cam/weight"] + 1.0
        checkpoint.save_container(path, meta, tensors)
        with pytest.raises(checkpoint.CheckpointError, match="cam"):
            load_stage2_checkpoint(path)


class TestFullPipelineGradient:
    def test_micro_instance_matches_finite_differences(self):
        """Reverse-mode gradients of the stage-2 loss against central
        differences on a 2-attribute, 3-proposal, 8x8 micro model."""
        start = time.time()
        bb = BackboneConfig(
            stage_channels=(3, 4), strides=(2, 2), dilations=(1, 1),
            split_index=1, num_attributes=2,
        )
        rng = np.random.default_rng(12)
        global_params = init_backbone_params(bb, rng, trainable=False)
        stage1 = GlobalModel(bb, global_params)
        config = TrainConfig(
            epochs=1, top_k_proposals=3, roi_out=(2, 2), affinity_mode="iou", seed=0
        )
        model = build_lg_model(stage1, config)
        image = rng.uniform(0.05, 0.95, size=(3, 8, 8))
        labels = np.array([1, 0])
        sample = Sample("micro", image, labels, {})
        boxes = [Box(0, 0, 5, 5), Box(2, 3, 8, 8), Box(1, 0, 7, 6)]
        pos = np.array([0.4, 0.6])

        def f():
            fused, _ = _lg_forward(model, sample, boxes)
            return weighted_sigmoid_ce_node(fused, labels, pos)

        params = list(model.trainable().values())
        err = check_gradients(f, params, eps=1e-5)
        elapsed = time.time() - start
        assert err < 1e-4, err
        assert elapsed < 10.0, elapsed


class TestEvaluate:
    def test_stage1_eval_uses_global_logits_only(self, tiny_data):
        train, val, _ = tiny_data
        result = train_stage1(train, val, TrainConfig(seed=3, **dict(FAST, epochs=1)))
        report = evaluate(result.model, val)
        scores = _global_scores(result.model, val)
        assert report == MetricsReport.from_scores(scores, _label_matrix(val))

    def test_deterministic_across_runs(self, tiny_data):
        train, val, _ = tiny_data
        result = train_stage1(train, val, TrainConfig(seed=3, **dict(FAST, epochs=1)))
        assert evaluate(result.model, val) == evaluate(result.model, val)

    @pytest.mark.parametrize("kind", ["global", "lg"])
    def test_builds_no_graph(self, tiny_data, stage1, monkeypatch, kind):
        """No op result made during evaluation requires a gradient, even
        though the evaluated parameters do (as in per-epoch validation)."""
        train, val, proposals = tiny_data
        if kind == "global":
            bb = preset_config("base", 8)
            model = GlobalModel(bb, init_backbone_params(bb, np.random.default_rng(0), trainable=True))
        else:
            model = build_lg_model(stage1.model, TrainConfig(seed=2, **FAST))
        real = Tensor.__dict__["_make"].__func__
        made = []

        def counted(cls, *args, **kwargs):
            out = real(cls, *args, **kwargs)
            made.append(out.requires_grad)
            return out

        monkeypatch.setattr(Tensor, "_make", classmethod(counted))
        evaluate(model, val, proposals=proposals)
        assert made and not any(made)
        # outside evaluate the same forward does build a graph, and is counted
        if kind == "global":
            forward_global(model.params, model.backbone, Tensor(val[0].image))
        else:
            _lg_forward(model, val[0], proposals[val[0].image_id].boxes)
        assert any(made)

    def test_stage2_requires_proposals(self, tiny_data):
        train, val, proposals = tiny_data
        result = train_stage1(train, val, TrainConfig(seed=3, **dict(FAST, epochs=1)))
        model = build_lg_model(result.model, TrainConfig(seed=3, **FAST))
        with pytest.raises(DataError):
            evaluate(model, val)


def _random_head(model, seed):
    rng = np.random.default_rng(seed)
    model.head.weight.data[...] = rng.normal(size=model.head.weight.data.shape)
    model.head.bias.data[...] = rng.normal(size=model.head.bias.data.shape)
    return model


def _odd_sized_sample(image_id, h, w, seed):
    rng = np.random.default_rng(seed)
    return Sample(image_id, rng.uniform(0, 1, size=(3, h, w)), rng.integers(0, 2, size=8), {})


class TestBatchedScoring:
    @pytest.mark.parametrize("n", [16, 17])
    def test_batch_matches_per_image_calls(self, tiny_data, stage1, n):
        train, _, proposals = tiny_data
        model = _random_head(build_lg_model(stage1.model, TrainConfig(seed=2, **FAST)), 4)
        samples = train[:n]
        guides = _guidance_for(model, samples, proposals)
        with no_grad():
            batch = _fused_logits(model, samples, guides)
            singles = [_fused_logits(model, [s], guides.rows([i])) for i, s in enumerate(samples)]
        assert batch.shape == (n, 8)
        for got, want in zip(batch.data, singles):
            assert np.array_equal(got, want.data[0])

    def test_chunk_fused_logits_carry_a_gradient(self, tiny_data, stage1):
        train, _, proposals = tiny_data
        model = _random_head(build_lg_model(stage1.model, TrainConfig(seed=2, **FAST)), 4)
        guides = _guidance_for(model, train[:4], proposals)
        fused = _fused_logits(model, train[:4], guides)
        assert fused.shape == (4, 8) and fused.requires_grad
        fused.backward(np.ones((4, 8)))
        for name, t in model.trainable().items():
            assert t.grad is not None and np.abs(t.grad).max() > 0, name

    @pytest.mark.parametrize("n", [1, 16, 17, 40])
    def test_evaluate_runs_the_local_stem_once_per_chunk(self, tiny_data, stage1, monkeypatch, one_core, n):
        from lgnet import training

        train, _, proposals = tiny_data
        model = build_lg_model(stage1.model, TrainConfig(seed=2, **FAST))
        real = training.forward_local_stem
        images = []

        def counted(params, config, image):
            images.append(image.data.shape[0])
            return real(params, config, image)

        monkeypatch.setattr(training, "forward_local_stem", counted)
        evaluate(model, train[:n], proposals=proposals)
        assert len(images) == math.ceil(n / SCORE_BATCH)
        assert sum(images) == n

    def test_untrained_score_is_the_fresh_model_evaluation(self, tiny_data, stage1):
        train, val, proposals = tiny_data
        for mode in ("iou", "uniform"):
            config = TrainConfig(seed=2, **dict(FAST, affinity_mode=mode))
            model = build_lg_model(stage1.model, config)
            guides = _guidance_for(model, train[:8] + val, proposals)
            report = MetricsReport.from_scores(guides.global_logits[8:], _label_matrix(val))
            assert report == evaluate(model, val, proposals=proposals)
            # a run that cannot move its parameters keeps the fresh model, at exactly that mA
            result = train_stage2(train[:8], val, stage1.model, proposals,
                                  dataclasses.replace(config, lr0=0.0, epochs=1))
            assert (result.best_epoch, result.best_val_ma) == (-1, report.ma)

    def test_mixed_image_sizes_are_scored_in_same_size_runs(self, tiny_data, stage1):
        train, _, proposals = tiny_data
        odd = [_odd_sized_sample("wide", 64, 128, 1), _odd_sized_sample("tall", 96, 64, 2)]
        samples = train[:3] + odd[:1] + train[3:5] + odd[1:] + odd[:1]
        proposals = dict(proposals, **{s.image_id: propose_for_image(s.image, k=24) for s in odd})
        runs = [samples[:3], samples[3:4], samples[4:6], samples[6:7], samples[7:]]
        rows = np.concatenate([_global_scores(stage1.model, run) for run in runs])
        assert np.array_equal(_global_scores(stage1.model, samples), rows)
        model = _random_head(build_lg_model(stage1.model, TrainConfig(seed=2, **FAST)), 5)
        guides = _guidance_for(model, samples, proposals)
        with no_grad():
            scores = np.concatenate([_fused_logits(model, [s], guides.rows([i])).data
                                     for i, s in enumerate(samples)])
        assert evaluate(model, samples, proposals=proposals) == MetricsReport.from_scores(
            scores, _label_matrix(samples))


def _mixed_size_split(train, proposals):
    """Images of three sizes in runs of several lengths, with their proposals."""
    odd = [_odd_sized_sample(f"wide_{i}", 64, 128, i) for i in range(3)]
    odd += [_odd_sized_sample(f"tall_{i}", 96, 64, 10 + i) for i in range(2)]
    samples = train[:3] + odd[:1] + train[3:20] + odd[3:5] + odd[1:3] + train[20:22]
    return samples, dict(proposals, **{s.image_id: propose_for_image(s.image, k=24) for s in odd})


# the columns of a guidance table that uniform affinity, or stage 2's trim, leaves out
NO_CAMS = dict(cams=None, cam_boxes=None, degenerate=None, affinity_raw=None)


def _reference_guidance(model, sample, boxes):
    """The frozen half one image at a time, as it ran before chunking:
    a one-image trunk pass and a breadth-first walk for each map's box.
    Returns the image's row of the guidance table, column by column."""
    from lgnet.cam import class_activation_maps
    from lgnet.guidance import affinity_map, normalize_affinity
    from test_cam import _bfs_activation_box

    image_h, image_w = sample.image.shape[1:]
    with no_grad():
        featmap, logits = forward_global(model.global_params, model.backbone, Tensor(sample.image))
    if model.affinity_mode == "uniform":
        c, d = model.backbone.num_attributes, len(boxes)
        return dict(boxes=boxes, global_logits=logits.data, affinity=np.full((c, d), 1.0 / d), **NO_CAMS)
    cams = class_activation_maps(featmap.data, model.cam_weights)
    found = [_bfs_activation_box(cam, image_w, image_h, model.cam_threshold) for cam in cams]
    cam_boxes = [box for box, _ in found]
    raw = affinity_map(cam_boxes, boxes, model.affinity_mode)
    return dict(boxes=boxes, global_logits=logits.data, affinity=normalize_affinity(raw).values, cams=cams,
                cam_boxes=box_array(cam_boxes), degenerate=np.array([degen for _, degen in found]),
                affinity_raw=raw.values)


def _assert_same_row(got, want, where):
    """Two rows of a guidance table hold the same bits, dtypes and shapes
    column by column; ``got`` is a table's row, ``want`` a column dict."""
    assert vars(got).keys() == want.keys()
    for name, b in want.items():
        a = getattr(got, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), (where, name)
        else:
            assert a is b is None, (where, name)


class TestFrozenHalfInChunks:
    @pytest.mark.parametrize("n", [1, 16, 17, "mixed sizes"])
    def test_global_scores_equal_one_image_logits(self, tiny_data, stage1, n):
        train, val, proposals = tiny_data
        samples = _mixed_size_split(train, proposals)[0] if n == "mixed sizes" else (train + val)[:n]
        model = stage1.model
        scores = _global_scores(model, samples)
        assert scores.shape == (len(samples), 8)
        for s, row in zip(samples, scores):
            assert np.array_equal(row, forward_global(model.params, model.backbone, Tensor(s.image))[1].data)

    @pytest.mark.parametrize("mode", ["iou", "overlap_area", "uniform"])
    @pytest.mark.parametrize("split", ["train and val", "mixed sizes"])
    def test_guidance_equals_the_per_image_path(self, tiny_data, stage1, mode, split):
        train, val, proposals = tiny_data
        if split == "mixed sizes":
            samples, proposals = _mixed_size_split(train, proposals)
        else:
            samples = train + val
        model = build_lg_model(stage1.model, TrainConfig(seed=2, **dict(FAST, affinity_mode=mode)))
        model.cam_weights = model.cam_weights.copy()
        model.cam_weights[0] = 0.0  # attribute 0's maps are all zero: degenerate
        guides = _guidance_for(model, samples, proposals)
        boxes = _prepare_proposals(samples, proposals, model.top_k)
        assert {len(col) for col in vars(guides).values() if col is not None} == {len(samples)}
        for i, s in enumerate(samples):
            _assert_same_row(guides.rows(i), _reference_guidance(model, s, boxes[i]), s.image_id)
        if mode != "uniform":
            assert len(samples) <= guides.degenerate.sum() < len(samples) * 8

    def test_guidance_of_one_sample_is_a_chunk_of_one(self, tiny_data, stage1):
        train, _, proposals = tiny_data
        model = build_lg_model(stage1.model, TrainConfig(seed=2, **FAST))
        guides = _guidance_for(model, train[:17], proposals)
        for i in (0, 16):
            _, guide = _lg_forward(model, train[i], proposals[train[i].image_id].boxes[: model.top_k])
            assert len(guide.boxes) == 1
            _assert_same_row(guide.rows(0), vars(guides.rows(i)), train[i].image_id)

    def test_stage2_val_rows_equal_the_val_split_alone(self, tiny_data, stage1, monkeypatch):
        """Stage 2 keeps one table, train rows then val rows, and scores
        from it; with 17 train images one guidance chunk holds the last
        train image and the first seven val images, yet the val rows hold
        the bits of the val split's own table in the columns the trainable
        half reads."""
        from lgnet import training

        train, val, proposals = tiny_data
        train = train[:17]
        assert list(range(16, 24)) in _same_size_chunks(train + val, SCORE_BATCH)
        given, real = [], training._lg_score_task
        monkeypatch.setattr(training, "_lg_score_task", lambda model, samples, table:
                            given.append((samples, table)) or real(model, samples, table))
        config = TrainConfig(seed=2, **dict(FAST, epochs=1))
        train_stage2(train, val, stage1.model, proposals, config)
        ((samples, table),) = given
        want = _guidance_for(build_lg_model(stage1.model, config), val, proposals)
        assert [s.image_id for s in samples] == [s.image_id for s in train + val]
        assert len(table.boxes) == len(samples)
        for i, s in enumerate(val):
            _assert_same_row(table.rows(len(train) + i), dict(vars(want.rows(i)), **NO_CAMS), s.image_id)

    @pytest.mark.parametrize("n", [1, 16, 17, 40])
    def test_guidance_runs_the_trunk_once_per_chunk(self, tiny_data, stage1, monkeypatch, one_core, n):
        from lgnet import training

        train, _, proposals = tiny_data
        model = build_lg_model(stage1.model, TrainConfig(seed=2, **FAST))
        real = training.forward_global
        images = []

        def counted(params, config, image):
            images.append(image.data.shape[0])
            return real(params, config, image)

        monkeypatch.setattr(training, "forward_global", counted)
        _guidance_for(model, train[:n], proposals)
        # every chunk runs on the calling process, in chunk order
        assert images == [min(SCORE_BATCH, n - i) for i in range(0, n, SCORE_BATCH)]


def _plain_loop(fn, samples, size):
    """The serial loop the chunk mapper replaces, as the reference: ``fn``
    on the indices of each same-size run of at most ``size`` samples,
    gradient-free."""
    with no_grad():
        return [fn(chunk) for chunk in _same_size_chunks(samples, size)]


def _spread(payload):
    """A task for the tests below: the process it ran on, its payload
    times ten, and whether its arithmetic records a graph."""
    x = Tensor(np.asarray(payload, dtype=float), requires_grad=True)
    return os.getpid(), [v * 10 for v in payload], (x * 2.0).requires_grad


def _no_children():
    """True when this process has no child process, running or exited."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _failing_fork(monkeypatch, at: int) -> None:
    """Make the ``at``-th call of ``os.fork`` fail as at a process limit."""
    real, calls = os.fork, []

    def fork():
        calls.append(None)
        if len(calls) == at:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, "fork", fork)


class TestChunksOnEveryCore:
    """``_Workers`` with no helper process (one core) and with three gives
    the plain loop's outputs bit for bit."""

    @pytest.fixture(params=[1, 4], ids=["0 helpers", "3 helpers"])
    def cores(self, request, monkeypatch):
        from lgnet import training

        monkeypatch.setattr(training, "_cores", lambda: request.param)
        return request.param

    def test_helpers_share_the_chunks_and_keep_their_order(self, cores):
        """Chunk i runs on process i mod cores, the caller being process 0."""
        from lgnet.training import _Workers

        chunks = [[i, i + 100] for i in range(9)]
        with _Workers(len(chunks), {}, _spread) as workers:
            assert workers.processes == cores
            found = workers.map(_spread, chunks)
            assert [out for _, out, _ in found] == [[10 * i, 10 * i + 1000] for i in range(9)]
            pids = [pid for pid, _, _ in found]
            assert pids[0] == os.getpid()
            assert len(set(pids)) == cores
            assert all(pid == pids[i % cores] for i, pid in enumerate(pids))
            assert not any(grad for _, _, grad in found)  # gradient-free on every process
            assert all(grad for _, _, grad in workers.map(_spread, chunks, grad=True))
            assert workers.map(_spread, []) == []
        assert (Tensor(np.ones(2), requires_grad=True) * 2.0).requires_grad  # the caller records again
        assert _no_children()

    def test_a_worker_count_never_exceeds_the_chunks_of_a_call(self, cores):
        from lgnet.training import _Workers

        with _Workers(2, {}, _spread) as workers:
            assert workers.processes == min(cores, 2)
        with _Workers(0, {}, _spread) as workers:
            assert workers.processes == 1

    def test_a_parameter_changed_in_the_caller_reaches_every_process(self, cores):
        from lgnet.training import _Workers

        weight = Tensor(np.zeros(3), requires_grad=True)

        def fn(chunk):
            return os.getpid(), weight.data.tolist()

        with _Workers(cores, {"w/weight": weight}, fn) as workers:
            assert [v for _, v in workers.map(fn, range(cores))] == [[0.0] * 3] * cores
            weight.data += 1.0  # in place
            found = workers.map(fn, range(cores))
            assert len({pid for pid, _ in found}) == cores
            assert [v for _, v in found] == [[1.0] * 3] * cores
            weight.data = np.full(3, 7.0)  # rebound
            assert [v for _, v in workers.map(fn, range(cores))] == [[7.0] * 3] * cores
        assert _no_children()

    def test_first_failing_chunk_in_order_raises(self, cores, tmp_path):
        from lgnet.training import _Workers

        finished = tmp_path / "finished"

        def fn(chunk):
            if chunk == 2:
                time.sleep(0.05)  # chunk 5 fails first in time
                raise ValueError("chunk 2 failed")
            if chunk == 5:
                raise KeyError("chunk 5 failed")
            with open(finished, "a") as fh:  # one short append per chunk, from any process
                fh.write(f"{chunk}\n")
            return chunk

        with _Workers(12, {}, fn) as workers:
            with pytest.raises(ValueError, match="^chunk 2 failed$"):
                workers.map(fn, range(12))
            done = {int(v) for v in finished.read_text().split()}
            # every chunk before chunk 2 ran; each process runs its chunks in
            # order up to its first failure, so on one core the serial loop
            # stops at chunk 2
            want = set()
            for first in range(cores):
                want.update(itertools.takewhile(lambda c: c not in (2, 5), range(first, 12, cores)))
            assert {0, 1} <= done == want
            assert workers.map(fn, [0, 1]) == [0, 1]  # the pool outlives a failed call
        assert _no_children()

    def test_workers_ignore_an_interrupt_and_are_joined_after_one(self, cores):
        from lgnet.training import _Workers

        def fn(chunk):
            if chunk == 0:
                raise KeyboardInterrupt
            return chunk

        with pytest.raises(KeyboardInterrupt):
            with _Workers(4, {}, fn) as workers:
                assert workers.map(fn, [1, 2, 3, 4]) == [1, 2, 3, 4]  # every worker is in its loop
                for pid, _ in workers.workers:
                    os.kill(pid, signal.SIGINT)
                assert workers.map(fn, [1, 2, 3, 4]) == [1, 2, 3, 4]
                workers.map(fn, range(4))  # chunk 0 runs on the caller
        assert _no_children()

    def test_an_interrupt_stops_a_busy_worker_at_once(self, monkeypatch):
        from lgnet import training

        if training._openblas() is None:
            pytest.skip("no worker processes where numpy's OpenBLAS cannot be reached")
        monkeypatch.setattr(training, "_cores", lambda: 2)
        caller = os.getpid()

        def fn(chunk):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)  # the worker's chunk would hold the join for a minute
            return chunk

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            with _Workers(2, {}, fn) as workers:
                assert workers.processes == 2
                workers.map(fn, [0, 1])
        assert time.perf_counter() - start < 10
        assert _no_children()

    @pytest.mark.parametrize("at, threads", [(1, [4]), (2, [2, 1])], ids=["fork 1 fails", "fork 2 fails"])
    def test_a_failed_fork_keeps_the_workers_forked_before_it(self, monkeypatch, at, threads):
        """Fork ``at`` of three failing leaves ``at`` processes; the caller
        takes the BLAS threads of the workers that are missing."""
        from lgnet import training

        if training._openblas() is None:
            pytest.skip("no worker processes where numpy's OpenBLAS cannot be reached")
        get, put = training._openblas()
        monkeypatch.setattr(training, "_cores", lambda: 4)
        _failing_fork(monkeypatch, at)
        chunks = [[i, i + 100] for i in range(9)]
        before = get()
        put(4)
        try:
            def blas(chunk):
                return get()

            with _Workers(len(chunks), {}, _spread, blas) as workers:
                assert workers.processes == at
                found = workers.map(_spread, chunks)
                assert [out for _, out, _ in found] == [[10 * i, 10 * i + 1000] for i in range(9)]
                pids = [pid for pid, _, _ in found]
                assert pids[0] == os.getpid() and len(set(pids)) == at
                assert all(pid == pids[i % at] for i, pid in enumerate(pids))
                assert workers.map(blas, range(at)) == threads
            assert get() == 4
        finally:
            put(before)
        assert _no_children()

    def test_a_worker_killed_during_a_call_is_named(self, monkeypatch):
        from lgnet import training

        if training._openblas() is None:
            pytest.skip("no worker processes where numpy's OpenBLAS cannot be reached")
        monkeypatch.setattr(training, "_cores", lambda: 2)
        caller = os.getpid()

        def fn(chunk):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return chunk

        with _Workers(2, {}, fn) as workers:
            (pid, _), = workers.workers
            with pytest.raises(RuntimeError, match=f"^worker process {pid} exited during a call$"):
                workers.map(fn, [0, 1])
        assert _no_children()

    def test_a_worker_killed_between_calls_is_named(self, monkeypatch):
        from lgnet import training

        if training._openblas() is None:
            pytest.skip("no worker processes where numpy's OpenBLAS cannot be reached")
        monkeypatch.setattr(training, "_cores", lambda: 2)
        with _Workers(2, {}, _spread) as workers:
            (pid, _), = workers.workers
            assert len(workers.map(_spread, [[0], [1]])) == 2
            os.kill(pid, signal.SIGKILL)
            for _ in range(3):  # whether the call finds the pipe closed or reset
                with pytest.raises(RuntimeError, match=f"^worker process {pid} exited during a call$"):
                    workers.map(_spread, [[0], [1]])
        assert _no_children()

    def test_each_process_runs_its_share_of_the_blas_threads(self, monkeypatch):
        """An open pool splits the cores' BLAS threads over its processes,
        the workers included, and the caller gets its count back after."""
        from lgnet import training

        if training._openblas() is None:
            pytest.skip("numpy's OpenBLAS cannot be reached")
        get, put = training._openblas()
        monkeypatch.setattr(training, "_cores", lambda: 4)
        before = get()
        put(4)
        try:
            def fn(chunk):
                return get()

            for most, share in ((1, 4), (2, 2), (4, 1)):
                with _Workers(most, {}, fn) as workers:
                    assert workers.processes == most
                    assert workers.map(fn, range(most)) == [share] * most
                assert get() == 4
            put(3)
            with _Workers(2, {}, fn) as workers:
                assert workers.map(fn, range(2)) == [2, 2]
            assert get() == 3
            put(1)  # a count below the share is kept
            with _Workers(2, {}, fn) as workers:
                assert workers.map(fn, range(2)) == [1, 1]
        finally:
            put(before)
        assert _no_children()

    def test_global_scores_equal_the_plain_loop(self, tiny_data, stage1, cores):
        from lgnet.training import _frozen_forward

        train, val, proposals = tiny_data
        model = stage1.model
        for samples in (train + val, _mixed_size_split(train, proposals)[0]):
            want = _plain_loop(lambda chunk: _frozen_forward(model.params, model.backbone,
                                                             [samples[i] for i in chunk])[1],
                               samples, SCORE_BATCH)
            assert np.array_equal(_global_scores(model, samples), np.concatenate(want))

    @pytest.mark.parametrize("mode", ["iou", "overlap_area", "uniform"])
    @pytest.mark.parametrize("split", ["train and val", "mixed sizes"])
    def test_guidance_equals_the_plain_loop(self, tiny_data, stage1, cores, mode, split):
        from lgnet.training import _guidance_chunk

        train, val, proposals = tiny_data
        if split == "mixed sizes":
            samples, proposals = _mixed_size_split(train, proposals)
        else:
            samples = train + val
        model = build_lg_model(stage1.model, TrainConfig(seed=2, **dict(FAST, affinity_mode=mode)))
        boxes = _prepare_proposals(samples, proposals, model.top_k)
        found = _plain_loop(lambda chunk: _guidance_chunk(model, [samples[i] for i in chunk], boxes[chunk]),
                            samples, SCORE_BATCH)
        want = [vars(table.rows(j)) for table in found for j in range(len(table.boxes))]
        got = _guidance_for(model, samples, proposals)
        assert len(got.boxes) == len(want) == len(samples)
        for i, (s, w) in enumerate(zip(samples, want)):
            _assert_same_row(got.rows(i), w, s.image_id)

    @pytest.mark.parametrize("split", ["train and val", "mixed sizes"])
    def test_stage2_scores_equal_the_plain_loop(self, tiny_data, stage1, cores, monkeypatch, split):
        from lgnet import training

        train, val, proposals = tiny_data
        if split == "mixed sizes":
            samples, proposals = _mixed_size_split(train, proposals)
        else:
            samples = train + val
        model = _random_head(build_lg_model(stage1.model, TrainConfig(seed=2, **FAST)), 6)
        guides = _guidance_for(model, samples, proposals)
        want = _plain_loop(lambda chunk: _fused_logits(model, [samples[i] for i in chunk],
                                                       guides.rows(chunk)).data,
                           samples, SCORE_BATCH)
        scored = []
        real = training.MetricsReport.from_scores
        monkeypatch.setattr(training.MetricsReport, "from_scores",
                            lambda scores, *args: scored.append(scores) or real(scores, *args))
        for given in (guides, proposals):
            report = evaluate(model, samples, proposals=given)
            assert np.array_equal(scored.pop(), np.concatenate(want))
            assert report == real(np.concatenate(want), _label_matrix(samples))


def _per_image_gradients(model, batch, guides, pos, sigma):
    """The stage-2 SGD step before chunking, kept as the reference: one
    graph per image, each image's loss seeded with 1 / len(batch).
    Returns the trainable gradients and the sum of the images' losses."""
    named = model.trainable()
    for t in named.values():
        t.zero_grad()
    total = 0.0
    for i, sample in enumerate(batch):
        fused = _fused_logits(model, [sample], guides.rows([i])).reshape(-1)
        loss = weighted_sigmoid_ce_node(fused, sample.labels, pos, sigma)
        loss.backward(np.asarray(1.0 / len(batch)))
        total += loss.item()
    return {name: t.grad.copy() for name, t in named.items()}, total


# relative bound on a chunked step's gradient against the per-image
# reference, per parameter and over its largest entry; measured at most
# 6.1e-16 on the batches below
SGD_REL = 1e-13


class TestChunkedSgd:
    @pytest.mark.parametrize("case, chunks", [
        ("16 images", [4, 4, 4, 4]),
        ("7 images", [4, 3]),
        ("mixed sizes", [2, 2, 3, 1, 2]),
    ])
    def test_gradients_match_the_per_image_reference(self, tiny_data, stage1, case, chunks):
        train, _, proposals = tiny_data
        if case == "mixed sizes":
            wide = [_odd_sized_sample(f"wide_{i}", 64, 128, i) for i in range(3)]
            batch = train[:2] + wide[:2] + train[2:5] + wide[2:] + train[5:7]
            proposals = dict(proposals, **{s.image_id: propose_for_image(s.image, k=24) for s in wide})
        else:
            batch = train[: int(case.split()[0])]
        assert [len(c) for c in _same_size_chunks(batch, SGD_CHUNK)] == chunks
        model = _random_head(build_lg_model(stage1.model, TrainConfig(seed=2, **FAST)), 7)
        guides = _guidance_for(model, batch, proposals)
        pos = positive_ratio(_label_matrix(train))
        want, want_loss = _per_image_gradients(model, batch, guides, pos, 1.0)
        chunk_loss = _fit_loss(_stage2_logits(model, batch, guides), batch, pos)
        got_loss, _, got = _step(model.trainable(), chunk_loss, batch)
        assert got.keys() == want.keys()
        for name, g in got.items():
            scale = np.abs(want[name]).max()
            assert scale > 0, name
            assert np.abs(g - want[name]).max() <= SGD_REL * scale, name
        assert got_loss == pytest.approx(want_loss, rel=SGD_REL)


def _step(named, chunk_loss, batch):
    """One chunked SGD step over all of ``batch`` on every core, as a
    stage takes it; returns the images' loss sum, the batch's mean loss
    and the gradient by parameter name."""
    task = _sgd_task(named, chunk_loss)
    with _Workers(len(batch), named, task) as workers:
        return _chunked_gradients(workers, task, batch, range(len(batch)))


def _fit_loss(logits, samples, pos, sigma=1.0):
    """The chunk loss ``_fit`` builds from a stage's ``logits``, a chunk of
    indices into ``samples`` to its [n, c] logits: the chunk's rows of the
    split's label matrix, weighted by the positive ratios ``pos``."""
    labels = _label_matrix(samples)
    return lambda chunk: weighted_sigmoid_ce_node(logits(chunk), labels[chunk], pos, sigma)


def _stage1_logits(params, bb, samples):
    """Stage 1's ``logits``: the whole-image classifier on a chunk."""
    return lambda chunk: forward_global(params, bb, Tensor(np.stack([samples[i].image for i in chunk])))[1]


def _stage2_logits(model, samples, guides):
    """Stage 2's ``logits``: the fused logits of a chunk and its guidance rows."""
    return lambda chunk: _fused_logits(model, [samples[i] for i in chunk], guides.rows(chunk))


def _serial_chunk_gradients(named, batch, chunk_loss):
    """The chunked SGD step as a plain serial loop, kept as the reference:
    each chunk's graph, ``chunk_loss`` of its indices into ``batch``, is
    built on the shared parameters ``named``, whose gradients add up every
    chunk's, and each chunk's mean loss is seeded with its share of the
    batch. Returns the gradients, the images' loss sum and the batch's
    mean loss."""
    for t in named.values():
        t.zero_grad()
    total = mean = 0.0
    for chunk in _same_size_chunks(batch, SGD_CHUNK):
        loss = chunk_loss(chunk)
        loss.backward(np.asarray(len(chunk) / len(batch)))
        total += loss.item() * len(chunk)
        mean += loss.item() * (len(chunk) / len(batch))
    return {name: t.grad.copy() for name, t in named.items()}, total, mean


def _sgd_batch(train, proposals, case):
    """A batch for one SGD step, with the proposals its images need."""
    if case == "mixed sizes":
        wide = [_odd_sized_sample(f"wide_{i}", 64, 128, i) for i in range(3)]
        batch = train[:2] + wide[:2] + train[2:5] + wide[2:] + train[5:7]
        return batch, dict(proposals, **{s.image_id: propose_for_image(s.image, k=24) for s in wide})
    return train[: int(case.split()[0])], proposals


SGD_CASES = [("16 images", [4, 4, 4, 4]), ("10 images", [4, 4, 2]), ("mixed sizes", [2, 2, 3, 1, 2])]


class TestFitLoss:
    """``_fit`` builds each stage's loss from the stage's logits over its
    train-then-val rows: one epoch of one batch gives the serial
    reference's loss bit for bit, its positive ratios those of the train
    rows alone."""

    @staticmethod
    def _assert_first_step(result, named, batch, chunk_loss, n_train):
        _, total, mean = _serial_chunk_gradients(named, batch, chunk_loss)
        assert result.step_losses == [[mean]]
        assert result.log_rows[0]["train_loss"] == total / n_train

    def test_stage1(self, tiny_data):
        train, val, _ = tiny_data
        train = train[:12]
        config = TrainConfig(seed=4, **dict(FAST, epochs=1, batch_size=len(train)))
        bb = preset_config(config.backbone, 8)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 0))))
        params = init_backbone_params(bb, rng, trainable=True)  # as the stage starts
        batch = [train[i] for i in _epoch_permutation(config.seed, 1, 0, len(train))]
        pos = positive_ratio(_label_matrix(train))

        def chunk_loss(chunk):
            samples = [batch[i] for i in chunk]
            _, logits = forward_global(params, bb, Tensor(np.stack([s.image for s in samples])))
            return weighted_sigmoid_ce_node(logits, _label_matrix(samples), pos, config.loss_sigma)

        result = train_stage1(train, val, config)
        self._assert_first_step(result, params.named(), batch, chunk_loss, len(train))

    def test_stage2(self, tiny_data, stage1):
        train, val, proposals = tiny_data
        train = train[:12]
        config = TrainConfig(seed=4, **dict(FAST, epochs=1, batch_size=len(train)))
        model = build_lg_model(stage1.model, config)  # as the stage starts
        batch = [train[i] for i in _epoch_permutation(config.seed, 2, 0, len(train))]
        guides = _guidance_for(model, batch, proposals)
        pos = positive_ratio(_label_matrix(train))

        def chunk_loss(chunk):
            samples = [batch[i] for i in chunk]
            fused = _fused_logits(model, samples, guides.rows(chunk))
            return weighted_sigmoid_ce_node(fused, _label_matrix(samples), pos, config.loss_sigma)

        result = train_stage2(train, val, stage1.model, proposals, config)
        self._assert_first_step(result, model.trainable(), batch, chunk_loss, len(train))


class TestSgdChunksOnEveryCore:
    """Both stages' chunked SGD step on one core and with one and three
    helper processes gives the serial loop's gradients and losses bit for
    bit, and so whole runs give the same bytes on any number of cores."""

    @pytest.fixture(params=[1, 2, 4], ids=["0 helpers", "1 helper", "3 helpers"])
    def cores(self, request, monkeypatch):
        from lgnet import training

        monkeypatch.setattr(training, "_cores", lambda: request.param)
        return request.param

    @staticmethod
    def _assert_same(want, got, want_losses):
        *losses, grads = got
        assert grads.keys() == want.keys()
        for name, g in grads.items():
            assert np.array_equal(g, want[name]), name
        assert losses == want_losses

    @pytest.mark.parametrize("case, chunks", SGD_CASES, ids=[c for c, _ in SGD_CASES])
    def test_stage1_step_equals_the_serial_loop(self, tiny_data, cores, case, chunks):
        train, _, proposals = tiny_data
        batch, _ = _sgd_batch(train, proposals, case)
        assert [len(c) for c in _same_size_chunks(batch, SGD_CHUNK)] == chunks
        bb = preset_config("base", 8)
        params = init_backbone_params(bb, np.random.default_rng(5))
        pos = positive_ratio(_label_matrix(train))

        def chunk_loss(chunk):
            samples = [batch[i] for i in chunk]
            _, logits = forward_global(params, bb, Tensor(np.stack([s.image for s in samples])))
            return weighted_sigmoid_ce_node(logits, _label_matrix(samples), pos, 1.0)

        want, *want_losses = _serial_chunk_gradients(params.named(), batch, chunk_loss)
        got = _step(params.named(), _fit_loss(_stage1_logits(params, bb, batch), batch, pos), batch)
        self._assert_same(want, got, want_losses)

    @pytest.mark.parametrize("case, chunks", SGD_CASES, ids=[c for c, _ in SGD_CASES])
    def test_stage2_step_equals_the_serial_loop(self, tiny_data, stage1, cores, case, chunks):
        train, _, proposals = tiny_data
        batch, proposals = _sgd_batch(train, proposals, case)
        assert [len(c) for c in _same_size_chunks(batch, SGD_CHUNK)] == chunks
        model = _random_head(build_lg_model(stage1.model, TrainConfig(seed=2, **FAST)), 7)
        guides = _guidance_for(model, batch, proposals)
        pos = positive_ratio(_label_matrix(train))

        def chunk_loss(chunk):
            samples = [batch[i] for i in chunk]
            fused = _fused_logits(model, samples, guides.rows(chunk))
            return weighted_sigmoid_ce_node(fused, _label_matrix(samples), pos, 1.0)

        want, *want_losses = _serial_chunk_gradients(model.trainable(), batch, chunk_loss)
        got = _step(model.trainable(), _fit_loss(_stage2_logits(model, batch, guides), batch, pos), batch)
        self._assert_same(want, got, want_losses)

    def test_stale_gradients_change_no_bit(self, tiny_data, cores):
        """The step's gradient is the same bits when every trainable
        parameter holds a non-zero gradient beforehand, on any process."""
        train, _, _ = tiny_data
        batch = train[:10]
        bb = preset_config("base", 8)
        params = init_backbone_params(bb, np.random.default_rng(5))
        chunk_loss = _fit_loss(_stage1_logits(params, bb, batch), batch, positive_ratio(_label_matrix(train)))
        for t in params.named().values():
            t.zero_grad()
        want = _step(params.named(), chunk_loss, batch)
        for t in params.named().values():
            t.grad = np.full_like(t.data, 0.25)
        self._assert_same(want[2], _step(params.named(), chunk_loss, batch), list(want[:2]))

    @pytest.mark.parametrize("at", [1, 2], ids=["fork 1 fails", "fork 2 fails"])
    def test_a_failed_fork_gives_the_serial_loops_bits(self, tiny_data, monkeypatch, at):
        from lgnet import training

        monkeypatch.setattr(training, "_cores", lambda: 4)
        _failing_fork(monkeypatch, at)
        train, _, proposals = tiny_data
        batch = train[:16]
        bb = preset_config("base", 8)
        params = init_backbone_params(bb, np.random.default_rng(5))
        pos = positive_ratio(_label_matrix(train))

        def chunk_loss(chunk):
            samples = [batch[i] for i in chunk]
            _, logits = forward_global(params, bb, Tensor(np.stack([s.image for s in samples])))
            return weighted_sigmoid_ce_node(logits, _label_matrix(samples), pos, 1.0)

        want, *want_losses = _serial_chunk_gradients(params.named(), batch, chunk_loss)
        got = _step(params.named(), _fit_loss(_stage1_logits(params, bb, batch), batch, pos), batch)
        self._assert_same(want, got, want_losses)
        assert _no_children()

    def test_first_failing_chunk_in_order_is_reported(self, cores, monkeypatch):
        from lgnet import training

        train, val = _make_samples(24, "train", seed=8), _make_samples(4, "val", seed=8)
        config = TrainConfig(epochs=1, batch_size=24, seed=3, lr0=0.05)
        order = _epoch_permutation(config.seed, 1, 0, len(train)).tolist()
        real = training.forward_global

        def failing(params, bb, images):
            first = next(i for i, s in enumerate(train) if np.array_equal(s.image, images.data[0]))
            chunk = order.index(first) // SGD_CHUNK
            if chunk == 2:
                time.sleep(0.05)  # chunk 5 fails first in time
            if chunk in (2, 5):
                raise FloatingPointError(f"chunk {chunk} failed")
            return real(params, bb, images)

        monkeypatch.setattr(training, "forward_global", failing)
        with pytest.raises(RuntimeError, match="^stage-1 training diverged at epoch 0 step 0: chunk 2 failed$"):
            train_stage1(train, val, config)
        assert _no_children()

    def test_both_stages_write_the_same_bytes_on_any_number_of_cores(self, tiny_data, monkeypatch, tmp_path):
        from lgnet import training
        from lgnet.backbone import save_stage1_checkpoint

        train, val, proposals = tiny_data
        config = TrainConfig(seed=6, **dict(FAST, epochs=2, batch_size=10))  # chunks of 4, 4 and 2
        runs = []
        for cores in (1, 2, 4):
            monkeypatch.setattr(training, "_cores", lambda: cores)
            s1 = train_stage1(train, val, config)
            s2 = train_stage2(train, val, s1.model, proposals, config)
            save_stage1_checkpoint(tmp_path / "s1.lgn", s1.model.backbone, s1.model.params)
            save_stage2_checkpoint(tmp_path / "s2.lgn", s2.model)
            runs.append([(tmp_path / "s1.lgn").read_bytes(), (tmp_path / "s2.lgn").read_bytes(),
                         s1.step_losses, s1.log_rows, s2.step_losses, s2.log_rows])
            assert _no_children()  # no process outlives its stage
        assert runs[0] == runs[1] == runs[2]


class TestSgdStep:
    def test_weight_decay_skips_biases(self, rng):
        from lgnet.tensor import Tensor

        w = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        grads = {"x/weight": np.zeros(3), "x/bias": np.zeros(3)}
        _sgd_step({"x/weight": w, "x/bias": b}, grads, lr=0.1, weight_decay=0.5, momentum=0.0, velocity={})
        assert np.allclose(w.data, 1.0 - 0.1 * 0.5)
        assert np.array_equal(b.data, np.ones(3))

    def test_single_step_descends_with_small_lr(self, tiny_data):
        """Line-search sanity: the analytic gradient points downhill."""
        train, _, _ = tiny_data
        bb = preset_config("base", 8)
        params = init_backbone_params(bb, np.random.default_rng(0), trainable=True)
        batch = train[:8]
        images = np.stack([s.image for s in batch])
        labels = np.stack([s.labels for s in batch]).astype(float)
        pos = np.full(8, 0.3)

        def current_loss():
            _, logits = forward_global(params, bb, Tensor(images))
            return weighted_sigmoid_ce_node(logits, labels, pos)

        base = current_loss()
        named = params.named()
        for t in named.values():
            t.zero_grad()
        base.backward()
        snapshot = {n: t.data.copy() for n, t in named.items()}
        descended = False
        for lr in (1e-1, 1e-2, 1e-3, 1e-4):
            for n, t in named.items():
                t.data = snapshot[n] - lr * t.grad
            if current_loss().item() < base.item():
                descended = True
                break
        assert descended


class TestAblations:
    def test_uniform_arm_weights_every_proposal_equally(self, tiny_data):
        train, val, proposals = tiny_data
        result = train_stage1(train, val, TrainConfig(seed=4, **dict(FAST, epochs=1)))
        config = dataclasses.replace(
            TrainConfig(seed=4, **FAST), affinity_mode="uniform"
        )
        model = build_lg_model(result.model, config)
        sample = val[0]
        boxes = list(proposals[sample.image_id].boxes)
        _, guide = _lg_forward(model, sample, boxes)
        assert np.all(guide.affinity == 1.0 / len(boxes))

    def test_arm_configs_differ_only_in_affinity_field(self, tiny_data):
        from lgnet.training import ABLATIONS

        base = TrainConfig(seed=4, **FAST)
        arms = ABLATIONS["no_guidance"]["arms"]
        configs = [dataclasses.asdict(dataclasses.replace(base, **ov)) for _, ov in arms]
        diff = {k for k in configs[0] if configs[0][k] != configs[1][k]}
        assert diff == {"affinity_mode"}

    def test_arms_share_batch_order(self):
        for epoch in range(3):
            a = _epoch_permutation(11, 2, epoch, 40)
            b = _epoch_permutation(11, 2, epoch, 40)
            assert np.array_equal(a, b)

    def test_stage1_ablation_runs_both_arms(self, tiny_data):
        train, val, _ = tiny_data
        result = run_ablation(
            "resolution", train, val, TrainConfig(seed=5, **dict(FAST, epochs=1))
        )
        assert [arm.label for arm in result.arms] == ["coarse_map", "stretched_map"]
        assert result.arms[0].config.backbone == "base"
        assert result.arms[1].config.backbone == "stretched"
        for arm in result.arms:
            for value in arm.report.as_dict().values():
                assert 0.0 <= value <= 1.0

    def test_stage2_ablation_defaults_to_a_classifier_trained_with_the_base_config(self, tiny_data):
        train, val, proposals = tiny_data
        base = TrainConfig(seed=4, **dict(FAST, epochs=1))
        stage1 = train_stage1(train, val, base).model
        given, default = (run_ablation("no_guidance", train, val, base, proposals, stage1=model)
                          for model in (stage1, None))
        assert [arm.report for arm in given.arms] == [arm.report for arm in default.arms]
        assert [arm.best_val_ma for arm in given.arms] == [arm.best_val_ma for arm in default.arms]

    @pytest.mark.parametrize("name", ["resolution", "dilation"])
    def test_stage1_ablation_refuses_a_stage1_model(self, tiny_data, name):
        train, val, _ = tiny_data
        bb = preset_config("base", len(train[0].labels))
        stage1 = GlobalModel(bb, init_backbone_params(bb, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="trains its own classifiers"):
            run_ablation(name, train, val, TrainConfig(), stage1=stage1)

    def test_unknown_ablation_rejected(self, tiny_data):
        train, val, _ = tiny_data
        with pytest.raises(ValueError):
            run_ablation("dropout", train, val, TrainConfig())


class TestTrainingLog:
    def test_csv_round_trips_floats_exactly(self, tmp_path):
        rows = [
            {"epoch": 0, "lr": 0.02, "train_loss": 1.2345678901234567, "val_mA": 0.875},
            {"epoch": 1, "lr": 0.02 * 0.1, "train_loss": 0.9, "val_mA": 0.9},
        ]
        path = tmp_path / "log.csv"
        write_training_log(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_mA"
        parsed = [line.split(",") for line in lines[1:]]
        assert float(parsed[0][1]) == 0.02
        assert float(parsed[1][1]) == 0.02 * 0.1
        assert float(parsed[0][2]) == rows[0]["train_loss"]
