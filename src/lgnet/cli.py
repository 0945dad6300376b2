"""Command-line driver: dataset generation through training to inspection.

Exit codes: 0 success, 1 usage error, 2 data or model error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .backbone import (
    BACKBONE_PRESETS, _stage1_from_container, load_stage1_checkpoint, preset_config, save_stage1_checkpoint,
)
from .boxes import Box
from .checkpoint import CheckpointError, check_fields, load_container
from .guidance import iou
from .ppm import write_pgm, write_ppm
from .synthdata import (
    DataError, SynthSpec, _text_error, default_spec, generate_dataset, load_dataset, load_split,
)
from .proposals import CandidateConfig, propose_for_image, save_proposals
from .training import (
    ABLATIONS,
    GlobalModel,
    TrainConfig,
    _guidance_for,
    _stage2_from_container,
    evaluate,
    load_proposal_dir,
    load_stage2_checkpoint,
    read_config,
    run_ablation,
    save_stage2_checkpoint,
    train_stage1,
    train_stage2,
    write_training_log,
)

_OVERLAY_COLORS = [
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.4, 1.0), (1.0, 1.0, 0.0),
    (1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 0.6, 0.0), (0.7, 0.3, 1.0),
]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="random seed (default: a training config's seed, else 0)")
    p.add_argument("--config", type=Path, default=None, help="JSON config file")


def build_parser() -> _Parser:
    parser = _Parser(prog="lgnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-val", type=int, default=500)
    p.add_argument("--n-test", type=int, default=500)
    p.add_argument("--num-attributes", type=int, default=8)
    p.add_argument("--image-size", type=int, default=64)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("propose", help="generate region proposals for images")
    p.add_argument("--images", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--top-k", type=int, default=100)
    p.add_argument("--nms", type=float, default=0.7)
    p.set_defaults(func=_cmd_propose)

    p = sub.add_parser("train-stage1", help="train the whole-image classifier")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--log", type=Path, default=None)
    _add_train_flags(p)
    p.add_argument("--backbone", default=None)
    p.set_defaults(func=_cmd_train_stage1)

    p = sub.add_parser("train-stage2", help="train the guided local branch")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True, help="stage-1 checkpoint")
    p.add_argument("--proposals", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--log", type=Path, default=None)
    _add_train_flags(p)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None, help="activation threshold")
    p.add_argument("--affinity", choices=("iou", "overlap", "uniform"), default=None)
    p.set_defaults(func=_cmd_train_stage2)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--proposals", type=Path, default=None)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", type=Path, default=None, help="write report JSON + TSV here")
    p.add_argument("--dump-affinity", type=Path, default=None, help="write per-image affinity CSVs")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("localize", help="write per-attribute activation boxes")
    p.add_argument("--model", type=Path, required=True, help="stage-2 checkpoint")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--proposals", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--heatmaps", action="store_true", help="also dump activation maps as PGM")
    p.add_argument("--top-n", type=int, default=5)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("ablate", help="train and compare both arms of an ablation")
    p.add_argument("--name", required=True, choices=sorted(ABLATIONS))
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--model", type=Path, default=None, help="stage-1 checkpoint for both arms")
    p.add_argument("--proposals", type=Path, default=None)
    p.add_argument("--out", type=Path, default=None, help="write paired reports as JSON")
    _add_train_flags(p)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None, help="activation threshold")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("plot", help="render a training log as an SVG")
    p.add_argument("--log", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_plot)

    return parser


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """``--seed``, ``--config`` and the overrides every training command reads."""
    _add_common(p)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)


# the TrainConfig field each training flag sets, by argparse dest
_TRAIN_FLAG_FIELDS = {
    "seed": "seed", "epochs": "epochs", "batch_size": "batch_size", "lr": "lr0", "backbone": "backbone",
    "top_k": "top_k_proposals", "threshold": "cam_threshold", "affinity": "affinity_mode",
}


def _train_config(args) -> TrainConfig:
    base = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    overrides = {field: getattr(args, dest) for dest, field in _TRAIN_FLAG_FIELDS.items()
                 if getattr(args, dest, None) is not None}
    if overrides.get("affinity_mode") == "overlap":
        overrides["affinity_mode"] = "overlap_area"
    return dataclasses.replace(base, **overrides)


# -- commands -------------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise DataError(f"seed must be at least 0, not {args.seed}")
    cfg = {
        "num_attributes": args.num_attributes, "image_size": args.image_size,
        "n_train": args.n_train, "n_val": args.n_val, "n_test": args.n_test,
        **{key: getattr(SynthSpec, key)
           for key in ("positive_rate", "noise_sigma", "background", "clutter_range")},
    }

    splits = ("n_train", "n_val", "n_test")

    def parse(d: dict) -> SynthSpec:  # each field must fit the type of its default
        cfg.update(check_fields(d, cfg))
        for key in splits:
            if key in d and d[key] < 1:
                raise ValueError(f"{key} must be at least 1, not {d[key]}")
        return dataclasses.replace(
            default_spec(num_attributes=cfg["num_attributes"], image_size=cfg["image_size"]),
            positive_rate=cfg["positive_rate"],
            noise_sigma=cfg["noise_sigma"],
            background=cfg["background"],
            clutter_range=tuple(cfg["clutter_range"]),
        )

    # a config the spec refuses is named before anything is written
    spec = read_config(args.config, parse) if args.config else parse({})
    for key in splits:  # a size below 1 the config did not set came from its flag
        if cfg[key] < 1:
            raise DataError(f"--{key.replace('_', '-')} must be at least 1, not {cfg[key]}")
    generate_dataset(
        spec,
        seed=args.seed or 0,
        n_train=cfg["n_train"],
        n_val=cfg["n_val"],
        n_test=cfg["n_test"],
        out_dir=args.out,
    )
    print(f"wrote dataset to {args.out}")
    return 0


def _collect_images(images_dir: Path) -> list[Path]:
    flat = sorted(images_dir.glob("*.ppm"))
    if flat:
        return flat
    nested = sorted(images_dir.glob("*/images/*.ppm"))
    if not nested:
        raise DataError(f"no .ppm images under {images_dir}")
    return nested


def _cmd_propose(args) -> int:
    from .ppm import read_ppm

    if args.top_k < 1:
        raise DataError(f"--top-k must be at least 1, not {args.top_k}")
    if not (0 < args.nms < 1):
        raise DataError(f"--nms must lie in (0, 1), not {args.nms}")
    paths = _collect_images(args.images)
    args.out.mkdir(parents=True, exist_ok=True)
    for path in paths:
        image = read_ppm(path)
        proposals = propose_for_image(image, k=args.top_k, iou_threshold=args.nms,
                                      config=CandidateConfig())
        save_proposals(args.out / f"{path.stem}.proposals", proposals)
    print(f"wrote {len(paths)} proposal files to {args.out}")
    return 0


def _cmd_train_stage1(args) -> int:
    config = _train_config(args)
    splits, _ = load_dataset(args.data)
    result = train_stage1(splits["train"], splits["val"], config)
    return _finish_training(args, config, result, lambda extra: save_stage1_checkpoint(
        args.out, result.model.backbone, result.model.params, extra=extra))


def _cmd_train_stage2(args) -> int:
    config = _train_config(args)
    splits, _ = load_dataset(args.data)
    proposals = _train_val_proposals(args.proposals, splits)
    stage1, config = _load_stage1(args.model, config)
    result = train_stage2(splits["train"], splits["val"], stage1, proposals, config)
    return _finish_training(args, config, result, lambda extra: save_stage2_checkpoint(
        args.out, result.model, extra=extra))


def _load_stage1(path: Path, config: TrainConfig) -> tuple[GlobalModel, TrainConfig]:
    """The stage-1 model at ``path``, and ``config`` naming the preset of its
    trunk, which is the trunk a run on it uses; a trunk that is no preset
    keeps the name ``config`` gives."""
    model = GlobalModel(*load_stage1_checkpoint(path)[:2])
    bb = model.backbone
    preset = next((name for name in BACKBONE_PRESETS if preset_config(name, bb.num_attributes) == bb),
                  config.backbone)
    return model, dataclasses.replace(config, backbone=preset)


def _train_val_proposals(directory: Path, splits) -> dict:
    return load_proposal_dir(directory, [s.image_id for s in splits["train"] + splits["val"]])


def _finish_training(args, config: TrainConfig, result, save) -> int:
    """Save the best model through ``save(extra)``, write the epoch log and report both."""
    save({"best_val_ma": result.best_val_ma, "train_config": dataclasses.asdict(config)})
    log_path = args.log or args.out.with_suffix(".log.csv")
    write_training_log(log_path, result.log_rows)
    print(f"best val mA {result.best_val_ma:.4f} at epoch {result.best_epoch}")
    print(f"saved checkpoint to {args.out}, log to {log_path}")
    return 0


def _load_any_model(path: Path):
    meta, tensors = load_container(path)
    if meta.get("kind") == "lg":
        return _stage2_from_container(path, meta, tensors)
    return GlobalModel(*_stage1_from_container(path, meta, tensors))


def _cmd_eval(args) -> int:
    if not (0 < args.threshold < 1):
        raise DataError(f"--threshold must lie in (0, 1), not {args.threshold}")
    model = _load_any_model(args.model)
    if args.dump_affinity is not None and isinstance(model, GlobalModel):
        raise DataError("--dump-affinity needs a stage-2 model")
    samples = load_split(args.data / args.split)
    proposals = None
    if not isinstance(model, GlobalModel):
        if args.proposals is None:
            raise DataError("stage-2 model evaluation needs --proposals")
        proposals = load_proposal_dir(args.proposals, [s.image_id for s in samples])
        if args.dump_affinity is not None:
            proposals = _guidance_for(model, samples, proposals)
    report = evaluate(model, samples, proposals=proposals, threshold=args.threshold)
    print("mA\tAcc\tPrec\tRec\tF1")
    print(report.tsv_line())
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report.to_json() + "\n", encoding="utf-8")
        args.out.with_suffix(".tsv").write_text(report.tsv_line() + "\n", encoding="utf-8")
    if args.dump_affinity is not None:
        _dump_affinity(samples, proposals, args.dump_affinity)
    return 0


def _dump_affinity(samples, guides, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for sample, affinity in zip(samples, guides.affinity):
        rows = "\n".join(",".join(f"{v:.6f}" for v in row) for row in affinity)
        (out_dir / f"{sample.image_id}_affinity.csv").write_text(rows + "\n", encoding="utf-8")


def _draw_box_outline(image: np.ndarray, box, color) -> None:
    h, w = image.shape[1:]
    x0 = int(np.clip(round(box.x_min), 0, w - 1))
    y0 = int(np.clip(round(box.y_min), 0, h - 1))
    x1 = int(np.clip(round(box.x_max) - 1, 0, w - 1))
    y1 = int(np.clip(round(box.y_max) - 1, 0, h - 1))
    for ch in range(3):
        image[ch, y0, x0 : x1 + 1] = color[ch]
        image[ch, y1, x0 : x1 + 1] = color[ch]
        image[ch, y0 : y1 + 1, x0] = color[ch]
        image[ch, y0 : y1 + 1, x1] = color[ch]


def _cmd_localize(args) -> int:
    if args.top_n < 1:
        raise DataError(f"--top-n must be at least 1, not {args.top_n}")
    model, _ = load_stage2_checkpoint(args.model)
    if model.affinity_mode == "uniform":
        raise DataError("model was trained without localization guidance; nothing to localize")
    samples = load_split(args.data / args.split)
    proposals = load_proposal_dir(args.proposals, [s.image_id for s in samples])
    guides = _guidance_for(model, samples, proposals)
    args.out.mkdir(parents=True, exist_ok=True)
    overlays = args.out / "overlays"
    overlays.mkdir(exist_ok=True)
    if args.heatmaps:
        (args.out / "heatmaps").mkdir(exist_ok=True)

    records = []
    for n, sample in enumerate(samples):
        guide = guides.rows(n)
        boxes = guide.boxes
        overlay = sample.image.copy()
        for i, (corners, degenerate) in enumerate(zip(guide.cam_boxes, guide.degenerate.tolist())):
            cam_box = Box(*corners.tolist())
            affinity_row = guide.affinity_raw[i]
            top = np.argsort(-affinity_row, kind="stable")[: args.top_n]
            record = {
                "image_id": sample.image_id,
                "attribute_id": i,
                "box": [cam_box.x_min, cam_box.y_min, cam_box.x_max, cam_box.y_max],
                "degenerate": degenerate,
                "top_proposals": [
                    {
                        "box": boxes[j].tolist(),
                        "affinity": float(affinity_row[j]),
                    }
                    for j in top
                ],
            }
            if i in sample.gt_boxes:
                record["iou_gt"] = iou(cam_box, sample.gt_boxes[i])
            records.append(record)
            if not degenerate:
                _draw_box_outline(overlay, cam_box, _OVERLAY_COLORS[i % len(_OVERLAY_COLORS)])
            if args.heatmaps:
                write_pgm(args.out / "heatmaps" / f"{sample.image_id}_attr{i}.pgm",
                          guide.cams[i])
        write_ppm(overlays / f"{sample.image_id}.ppm", overlay)

    jsonl = args.out / "localizations.jsonl"
    with open(jsonl, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    print(f"wrote {len(records)} records to {jsonl}")
    return 0


def _cmd_ablate(args) -> int:
    config = _train_config(args)
    splits, _ = load_dataset(args.data)
    proposals = None
    if ABLATIONS[args.name]["kind"] == "stage2":
        if args.proposals is None:
            raise DataError(f"ablation {args.name!r} needs --proposals")
        proposals = _train_val_proposals(args.proposals, splits)
    stage1 = None
    if args.model:
        stage1, config = _load_stage1(args.model, config)
    result = run_ablation(args.name, splits["train"], splits["val"], config, proposals, stage1)

    print(f"ablation: {result.name}")
    print(f"{'arm':<16}\tmA\tAcc\tPrec\tRec\tF1")
    for arm in result.arms:
        print(f"{arm.label:<16}\t{arm.report.tsv_line()}")
    if args.out:
        payload = {
            "name": result.name,
            "arms": [
                {"label": a.label, "config": dataclasses.asdict(a.config),
                 "best_val_ma": a.best_val_ma, "report": a.report.as_dict()}
                for a in result.arms
            ],
        }
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


# -- plotting -------------------------------------------------------------------


def _read_log(path: Path) -> tuple[list[str], np.ndarray]:
    """A training log's header and its [rows, columns] of finite numbers;
    a file that is not UTF-8 or holds a malformed row raises DataError
    naming it."""
    try:
        lines = path.read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise _text_error(path, exc) from exc
    if len(lines) < 2:
        raise DataError(f"{path}: log has no data rows")
    header = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if len(rows[-1]) != len(header) or not np.isfinite(rows[-1]).all():
            raise DataError(f"{path}:{lineno}: want {len(header)} finite numbers")
    return header, np.array(rows)


def _cmd_plot(args) -> int:
    header, data = _read_log(args.log)
    svg = _render_svg(header[0], data[:, 0], header[1:], data[:, 1:].T)
    args.out.write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


_SERIES_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf"]


def _render_svg(x_label: str, xs: np.ndarray, names: list[str], series: np.ndarray) -> str:
    width, height = 640, 400
    ml, mr, mt, mb = 60, 20, 30, 40
    pw, ph = width - ml - mr, height - mt - mb
    x_lo, x_hi = float(xs.min()), float(xs.max())
    x_span = (x_hi - x_lo) or 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" text-anchor="middle" '
        f'font-size="13">{x_label}</text>',
    ]
    for s, (name, ys) in enumerate(zip(names, series)):
        lo, hi = float(ys.min()), float(ys.max())
        span = (hi - lo) or 1.0
        pts = " ".join(
            f"{ml + pw * (x - x_lo) / x_span:.1f},{mt + ph * (1 - (y - lo) / span):.1f}"
            for x, y in zip(xs, ys)
        )
        color = _SERIES_COLORS[s % len(_SERIES_COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{ml + 8}" y="{mt + 16 + 16 * s}" font-size="12" fill="{color}">'
            f"{name} [{lo:.4g}, {hi:.4g}]</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- entry ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataError, CheckpointError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # finite weights whose products overflow float64
        model = getattr(args, "model", None)
        print(f"error: model {model}: {exc}" if model else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
