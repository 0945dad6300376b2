"""The three workloads: set-up, one round of the measured loop, and checks.

All of them serve the traffic the repository serves today: synthetic
64x64 images from ``default_spec()`` with 8 attributes, the default
candidate grid, NMS at 0.7 and the top 100 proposals, the ``base``
backbone with 3x3 ROI bins, and the acceptance-suite schedule (batch 16,
stage-1 lr 0.6, stage-2 lr 0.3).

A set-up writes its inputs under a fresh directory. A round repeats the
same operations on them, so every round of a run does identical work.
Each round reports the seconds the workload's metric is taken over, the
images that went through, and the operations attempted.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from lgnet import backbone, cli, ppm, proposals, synthdata, training
from lgnet.tensor import Tensor

import oracles

TOP_K = 100
NMS_IOU = 0.7
BATCH = 16
STAGE1_LR = 0.6
STAGE2_LR = 0.3


@dataclass(frozen=True)
class Sizes:
    n_train: int = 1
    n_val: int = 1
    n_test: int = 1
    stage1_epochs: int = 1
    stage2_epochs: int = 1


FULL = {
    "propose": Sizes(n_train=32),
    "train": Sizes(n_train=64, n_val=48, stage1_epochs=10, stage2_epochs=2),
    "eval": Sizes(n_train=48, n_val=16, n_test=64, stage1_epochs=12, stage2_epochs=1),
}
SMOKE = {
    "propose": Sizes(n_train=3),
    "train": Sizes(n_train=16, n_val=8),
    "eval": Sizes(n_train=16, n_val=8, n_test=8),
}


@dataclass
class Round:
    seconds: float  # the time the workload's throughput is taken over
    images: int
    ops: int
    outputs: dict = field(default_factory=dict)


def _configs(seed: int, sizes: Sizes) -> tuple[training.TrainConfig, training.TrainConfig]:
    stage1 = training.TrainConfig(seed=seed, epochs=sizes.stage1_epochs, batch_size=BATCH, lr0=STAGE1_LR)
    stage2 = training.TrainConfig(seed=seed, epochs=sizes.stage2_epochs, batch_size=BATCH,
                                  lr0=STAGE2_LR, top_k_proposals=TOP_K)
    return stage1, stage2


def _generate(root: Path, seed: int, sizes: Sizes) -> Path:
    data = root / "data"
    synthdata.generate_dataset(synthdata.default_spec(), seed, sizes.n_train, sizes.n_val,
                               sizes.n_test, data)
    return data


def _propose_all(samples, out_dir: Path) -> None:
    """Proposal files for in-memory samples, as ``lgnet propose`` writes them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for s in samples:
        found = proposals.propose_for_image(s.image, k=TOP_K, iou_threshold=NMS_IOU)
        proposals.save_proposals(out_dir / f"{s.image_id}.proposals", found)


# -- propose --------------------------------------------------------------------


def setup_propose(root: Path, seed: int, sizes: Sizes) -> dict:
    split = _generate(root, seed, sizes) / "train"
    paths = sorted((split / "images").glob("*.ppm"))
    gt = [oracles.read_gt_boxes(split / "gt_boxes" / f"{p.stem}.txt") for p in paths]
    out = root / "proposals"
    out.mkdir()
    return {"paths": paths, "gt": gt, "out": out}


def round_propose(state: dict) -> Round:
    made, loaded = [], []
    t0 = perf_counter()
    for path in state["paths"]:
        image = ppm.read_ppm(path)
        found = proposals.propose_for_image(image, k=TOP_K, iou_threshold=NMS_IOU)
        target = state["out"] / f"{path.stem}.proposals"
        proposals.save_proposals(target, found)
        made.append(found)
        loaded.append(proposals.load_proposals(target))
    seconds = perf_counter() - t0
    n = len(state["paths"])
    return Round(seconds, n, n, {"made": made, "loaded": loaded})


def check_propose(state: dict, last: Round) -> list[str]:
    fails = []
    rng = np.random.default_rng(0)
    for path, made, loaded in zip(state["paths"], last.outputs["made"], last.outputs["loaded"]):
        image = oracles.read_ppm(path)
        if not np.array_equal(image, ppm.read_ppm(path)):
            fails.append(f"{path.name}: read_ppm differs from a plain decode")
        h, w = image.shape[1:]
        boxes = [(b.x_min, b.y_min, b.x_max, b.y_max) for b in loaded.boxes]
        scores = [b.score for b in loaded.boxes]
        if len(boxes) != TOP_K:
            fails.append(f"{path.name}: {len(boxes)} proposals, expected {TOP_K}")
        if any(not (0 <= x0 < x1 <= w and 0 <= y0 < y1 <= h) for x0, y0, x1, y1 in boxes):
            fails.append(f"{path.name}: a proposal leaves the image")
        if any(a < b for a, b in zip(scores, scores[1:])):
            fails.append(f"{path.name}: scores not sorted non-increasing")
        original = [(b.x_min, b.y_min, b.x_max, b.y_max, b.score) for b in made.boxes]
        reread = [(*box, s) for box, s in zip(boxes, scores)]
        if len(original) != len(reread) or any(
            abs(u - v) > 5e-7 for a, b in zip(original, reread) for u, v in zip(a, b)
        ):
            fails.append(f"{path.name}: reloaded proposals differ from the saved set")
        # full-image boxes are top_k's padding; every other box was generated
        generated = [(b, s) for b, s in zip(boxes, scores) if b != (0.0, 0.0, float(w), float(h))]
        worst = max((oracles.iou(a, b) for i, (a, _) in enumerate(generated)
                     for b, _ in generated[i + 1:]), default=0.0)
        if worst > NMS_IOU:
            fails.append(f"{path.name}: two kept boxes overlap with IoU {worst:.3f} > {NMS_IOU}")

        edges = oracles.sobel_magnitude(image)
        program_edges = proposals.edge_map(image)
        if not np.allclose(program_edges[1:-1, 1:-1], edges[1:-1, 1:-1], rtol=0, atol=1e-9):
            fails.append(f"{path.name}: edge_map differs from the Sobel magnitude")
        for box, s in generated:
            if abs(oracles.window_score(edges, box) - s) > 1e-6:
                fails.append(f"{path.name}: saved score {s} of {box} differs from direct summation")
                break
        candidates = proposals.generate_candidates(w, h)
        sample = [candidates[i] for i in rng.choice(len(candidates), size=20, replace=False)]
        for box in proposals.score_windows(program_edges, sample):
            direct = oracles.window_score(edges, (box.x_min, box.y_min, box.x_max, box.y_max))
            if abs(direct - box.score) > 1e-9:
                fails.append(f"{path.name}: score_windows gives {box.score} for {box}, direct {direct}")
                break
    return fails


def quality_propose(state: dict, last: Round) -> float:
    """Mean over ground-truth boxes of the best IoU any proposal reaches."""
    best = [
        max(oracles.iou(g, (b.x_min, b.y_min, b.x_max, b.y_max)) for b in loaded.boxes)
        for gt, loaded in zip(state["gt"], last.outputs["loaded"])
        for g in gt
    ]
    return float(np.mean(best))


# -- train ----------------------------------------------------------------------


def setup_train(root: Path, seed: int, sizes: Sizes) -> dict:
    data = _generate(root, seed, sizes)
    splits, _ = synthdata.load_dataset(data)
    samples = splits["train"] + splits["val"]
    _propose_all(samples, root / "proposals")
    found = training.load_proposal_dir(root / "proposals", [s.image_id for s in samples])
    return {"train": splits["train"], "val": splits["val"], "proposals": found,
            "configs": _configs(seed, sizes)}


def round_train(state: dict) -> Round:
    train, val = state["train"], state["val"]
    cfg1, cfg2 = state["configs"]
    t0 = perf_counter()
    r1 = training.train_stage1(train, val, cfg1)
    stage1_s = perf_counter() - t0
    before = {name: a.copy() for name, a in r1.model.params.named_arrays().items()}
    t0 = perf_counter()
    r2 = training.train_stage2(train, val, r1.model, state["proposals"], cfg2)
    stage2_s = perf_counter() - t0
    steps = math.ceil(len(train) / BATCH)
    return Round(
        stage1_s + stage2_s,
        len(train) * (cfg1.epochs + cfg2.epochs),
        steps * (cfg1.epochs + cfg2.epochs),
        {"stage1": r1, "stage2": r2, "stage1_params": before,
         "stage1_s": stage1_s, "stage2_s": stage2_s,
         "stage1_images": len(train) * cfg1.epochs, "stage2_images": len(train) * cfg2.epochs},
    )


def check_train(state: dict, last: Round) -> list[str]:
    fails = []
    train, val = state["train"], state["val"]
    _, cfg2 = state["configs"]
    r1, r2 = last.outputs["stage1"], last.outputs["stage2"]
    losses = [row["train_loss"] for row in r1.log_rows + r2.log_rows]
    losses += [v for epoch in r1.step_losses for v in epoch]
    if not all(math.isfinite(v) for v in losses):
        fails.append("a training loss is not finite")
    after = r1.model.params.named_arrays()
    if any(not np.array_equal(a, after[name]) for name, a in last.outputs["stage1_params"].items()):
        fails.append("stage 2 modified the stage-1 model")
    if training.build_lg_model(r1.model, cfg2).frozen_digest() != r2.model.frozen_digest():
        fails.append("frozen_digest moved during stage 2")
    if not r2.best_val_ma >= r1.best_val_ma:
        fails.append(f"stage-2 val mA {r2.best_val_ma} below stage-1 val mA {r1.best_val_ma}")

    fresh = training.evaluate(training.build_lg_model(r1.model, cfg2), val, proposals=state["proposals"])
    stage1 = training.evaluate(r1.model, val)
    if fresh != stage1:
        fails.append(f"a fresh stage-2 model scores the val split as {fresh}, stage 1 as {stage1}")
    images = Tensor(np.stack([s.image for s in val]))
    _, logits = backbone.forward_global(r1.model.params, r1.model.backbone, images)
    counted = oracles.five_metrics(logits.data, np.stack([s.labels for s in val]))
    fails += oracles.compare("stage-1 val", {"mA": r1.best_val_ma}, {"mA": counted["mA"]})
    return fails


def quality_train(state: dict, last: Round) -> float:
    return last.outputs["stage2"].best_val_ma


# -- eval -----------------------------------------------------------------------


def setup_eval(root: Path, seed: int, sizes: Sizes) -> dict:
    data = _generate(root, seed, sizes)
    splits, _ = synthdata.load_dataset(data)
    props = root / "proposals"
    _propose_all(splits["train"] + splits["val"] + splits["test"], props)
    train, val = splits["train"], splits["val"]
    found = training.load_proposal_dir(props, [s.image_id for s in train + val])
    cfg1, cfg2 = _configs(seed, sizes)
    stage1 = training.train_stage1(train, val, cfg1)
    stage2 = training.train_stage2(train, val, stage1.model, found, cfg2)
    model = root / "stage2.lgn"
    training.save_stage2_checkpoint(model, stage2.model)
    argv = ["eval", "--model", str(model), "--data", str(data), "--split", "test",
            "--proposals", str(props), "--out", str(root / "report.json")]
    return {"argv": argv, "model": model, "props": props, "report": root / "report.json",
            "test": splits["test"], "seed": seed}


def round_eval(state: dict) -> Round:
    quiet = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(quiet):
        code = cli.main(state["argv"])
    seconds = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"lgnet {' '.join(state['argv'])} exited with {code}")
    report = json.loads(state["report"].read_text(encoding="utf-8"))
    n = len(state["test"])
    return Round(seconds, n, n, {"report": report})


def check_eval(state: dict, last: Round) -> list[str]:
    test = state["test"]
    model, _ = training.load_stage2_checkpoint(state["model"])
    found = training.load_proposal_dir(state["props"], [s.image_id for s in test])
    labels = np.stack([s.labels for s in test])
    counted = oracles.five_metrics(oracles.compose_scores(model, test, found), labels)
    fails = oracles.compare("eval report", last.outputs["report"], counted)
    # a trained head may still be all zero (best-model selection can keep
    # the initialization), which hides the local branch; score once more
    # with a seeded non-zero head
    rng = np.random.default_rng(state["seed"])
    model.head.weight.data[...] = rng.normal(0.0, 1.0, model.head.weight.data.shape)
    model.head.bias.data[...] = rng.normal(0.0, 0.1, model.head.bias.data.shape)
    report = training.evaluate(model, test, proposals=found).as_dict()
    counted = oracles.five_metrics(oracles.compose_scores(model, test, found), labels)
    fails += oracles.compare("eval with a random head", report, counted)
    return fails


def quality_eval(state: dict, last: Round) -> float:
    return last.outputs["report"]["mA"]


WORKLOADS = {
    "propose": (setup_propose, round_propose, check_propose, quality_propose),
    "train": (setup_train, round_train, check_train, quality_train),
    "eval": (setup_eval, round_eval, check_eval, quality_eval),
}
