"""Procedural attribute dataset with known object locations.

Each attribute is a distinct colored shape. Some attributes always appear
in a fixed image region (hat-like), others are placed freely, which is
where location guidance has to earn its keep. Positives are drawn
independently per attribute; gray clutter shapes and pixel noise are
layered in so the task is not trivially clean. Ground-truth boxes are
recorded for every rendered attribute object.

On-disk layout per split: ``images/*.ppm``, ``labels.csv``,
``gt_boxes/*.txt``, plus a top-level ``spec.json``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .boxes import Box
from .ppm import read_ppm, write_ppm

__all__ = [
    "AttributeTemplate",
    "SynthSpec",
    "Sample",
    "default_spec",
    "render_sample",
    "generate_dataset",
    "load_dataset",
    "load_split",
    "DataError",
]

SPLIT_IDS = {"train": 0, "val": 1, "test": 2}

SHAPES = ("square", "disk", "triangle", "hbar", "vbar", "diamond", "ring", "cross")


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class AttributeTemplate:
    name: str
    shape: str
    color: tuple[float, float, float]
    size_range: tuple[int, int]  # object side length, pixels
    region: tuple[float, float, float, float] | None  # fractional box, None = free

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if len(self.size_range) != 2 or self.size_range[0] < 3 or self.size_range[1] < self.size_range[0]:
            raise ValueError(f"bad size range {self.size_range}")
        if len(self.color) != 3 or (self.region is not None and len(self.region) != 4):
            raise ValueError(f"attribute {self.name!r}: color must be 3 numbers and region 4 or null")


@dataclass(frozen=True)
class SynthSpec:
    image_size: int = 64
    attributes: tuple[AttributeTemplate, ...] = ()
    positive_rate: float = 0.3
    clutter_range: tuple[int, int] = (2, 5)
    noise_sigma: float = 0.03
    background: float = 0.12

    def __post_init__(self):
        if self.image_size < 1:
            raise ValueError(f"image_size must be at least 1, not {self.image_size}")
        if not (0.0 < self.positive_rate < 1.0):
            raise ValueError("positive_rate must lie in (0, 1)")
        clutter = self.clutter_range
        if len(clutter) != 2 or not all(isinstance(v, int) for v in clutter) or not 0 <= clutter[0] <= clutter[1]:
            raise ValueError(f"clutter_range must be two integers 0 <= low <= high, not {list(clutter)}")
        if not (0.0 <= self.noise_sigma < np.inf):
            raise ValueError("noise_sigma must be finite and at least 0")
        if not (0.0 <= self.background <= 1.0):
            raise ValueError("background must lie in [0, 1]")
        for tpl in self.attributes:
            region = tpl.region or (0.0, 0.0, 1.0, 1.0)
            rw = (region[2] - region[0]) * self.image_size
            rh = (region[3] - region[1]) * self.image_size
            if tpl.size_range[1] > min(rw, rh):
                raise ValueError(
                    f"attribute {tpl.name!r}: max size {tpl.size_range[1]} "
                    f"does not fit its placement region at image_size {self.image_size}"
                )

    @property
    def num_attributes(self) -> int:
        return len(self.attributes)


# Saturated, pairwise-distinct hues; clutter stays on the gray axis so a
# color-presence feature separates every attribute.
_PALETTE = [
    ("red", (1.0, 0.05, 0.05)),
    ("green", (0.05, 1.0, 0.05)),
    ("blue", (0.1, 0.1, 1.0)),
    ("yellow", (1.0, 1.0, 0.05)),
    ("magenta", (1.0, 0.05, 1.0)),
    ("cyan", (0.05, 1.0, 1.0)),
    ("orange", (1.0, 0.55, 0.05)),
    ("purple", (0.55, 0.05, 1.0)),
]

_REGIONS = {
    "top": (0.0, 0.0, 1.0, 0.35),
    "bottom": (0.0, 0.65, 1.0, 1.0),
    "left": (0.0, 0.0, 0.35, 1.0),
    "right": (0.65, 0.0, 1.0, 1.0),
}


def default_spec(num_attributes: int = 8, image_size: int = 64) -> SynthSpec:
    """Half the attributes are free-floating, half are region-locked."""
    if not (1 <= num_attributes <= len(_PALETTE)):
        raise ValueError(f"num_attributes must be in [1, {len(_PALETTE)}], not {num_attributes}")
    region_cycle = [None, None, None, None, _REGIONS["top"], _REGIONS["bottom"],
                    _REGIONS["left"], _REGIONS["right"]]
    templates = []
    for i in range(num_attributes):
        color_name, color = _PALETTE[i]
        shape = SHAPES[i % len(SHAPES)]
        region = region_cycle[i % len(region_cycle)]
        suffix = "free" if region is None else "fixed"
        templates.append(
            AttributeTemplate(
                name=f"{color_name}_{shape}_{suffix}",
                shape=shape,
                color=color,
                size_range=(9, 15),
                region=region,
            )
        )
    return SynthSpec(image_size=image_size, attributes=tuple(templates))


@dataclass
class Sample:
    image_id: str
    image: np.ndarray  # [3, H, W] in [0, 1]
    labels: np.ndarray  # [a] of {0, 1}
    gt_boxes: dict[int, Box]  # attribute index -> box, positives only


@lru_cache(maxsize=256)
def _shape_mask(shape: str, size: int) -> np.ndarray:
    """Read-only [size, size] mask of a shape, built once per (shape, size)."""
    mask = _draw_mask(shape, size)
    mask.flags.writeable = False  # shared by every caller of the cache
    return mask


def _draw_mask(shape: str, size: int) -> np.ndarray:
    s = size
    yy, xx = np.mgrid[0:s, 0:s]
    cy = cx = (s - 1) / 2.0
    if shape == "square":
        return np.ones((s, s), dtype=bool)
    if shape == "disk":
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= (s / 2.0) ** 2
    if shape == "triangle":
        # upward triangle: row r spans a widening band
        half = (yy + 1) * (s / 2.0) / s
        return np.abs(xx - cx) <= half
    if shape == "hbar":
        return np.abs(yy - cy) <= max(1.0, s / 5.0)
    if shape == "vbar":
        return np.abs(xx - cx) <= max(1.0, s / 5.0)
    if shape == "diamond":
        return np.abs(yy - cy) + np.abs(xx - cx) <= s / 2.0
    if shape == "ring":
        r2 = (yy - cy) ** 2 + (xx - cx) ** 2
        return (r2 <= (s / 2.0) ** 2) & (r2 >= (s / 4.0) ** 2)
    if shape == "cross":
        arm = max(1.0, s / 5.0)
        return (np.abs(yy - cy) <= arm) | (np.abs(xx - cx) <= arm)
    raise ValueError(shape)


def _paint(image: np.ndarray, mask: np.ndarray, x0: int, y0: int, color) -> None:
    region = image[:, y0 : y0 + mask.shape[0], x0 : x0 + mask.shape[1]]
    np.copyto(region, np.reshape(color, (3, 1, 1)), where=mask)


def _place(
    rng: np.random.Generator,
    spec: SynthSpec,
    size: int,
    region: tuple[float, float, float, float] | None,
    occupied: list[tuple[int, int, int, int]],
) -> tuple[int, int]:
    n = spec.image_size
    r = region or (0.0, 0.0, 1.0, 1.0)
    x_lo, y_lo = int(np.ceil(r[0] * n)), int(np.ceil(r[1] * n))
    x_hi, y_hi = int(np.floor(r[2] * n)) - size, int(np.floor(r[3] * n)) - size
    for _ in range(1000):
        x0 = int(rng.integers(x_lo, x_hi + 1))
        y0 = int(rng.integers(y_lo, y_hi + 1))
        if all(
            x0 + size <= ox0 or ox1 <= x0 or y0 + size <= oy0 or oy1 <= y0
            for ox0, oy0, ox1, oy1 in occupied
        ):
            return x0, y0
    raise DataError("could not place object without overlap after 1000 tries")


def render_sample(spec: SynthSpec, rng: np.random.Generator, image_id: str) -> Sample:
    n = spec.image_size
    image = np.full((3, n, n), spec.background)
    labels = (rng.random(spec.num_attributes) < spec.positive_rate).astype(np.int64)

    # clutter first so attribute objects are never occluded
    n_clutter = int(rng.integers(spec.clutter_range[0], spec.clutter_range[1] + 1))
    for _ in range(n_clutter):
        size = int(rng.integers(5, 11))
        shape = SHAPES[int(rng.integers(0, len(SHAPES)))]
        gray = float(rng.uniform(0.35, 0.6))
        x0 = int(rng.integers(0, n - size + 1))
        y0 = int(rng.integers(0, n - size + 1))
        _paint(image, _shape_mask(shape, size), x0, y0, (gray, gray, gray))

    gt_boxes: dict[int, Box] = {}
    occupied: list[tuple[int, int, int, int]] = []
    # region-locked objects go first: free ones can always dodge them
    order = sorted(range(spec.num_attributes), key=lambda i: spec.attributes[i].region is None)
    for idx in order:
        tpl = spec.attributes[idx]
        if not labels[idx]:
            continue
        size = int(rng.integers(tpl.size_range[0], tpl.size_range[1] + 1))
        x0, y0 = _place(rng, spec, size, tpl.region, occupied)
        mask = _shape_mask(tpl.shape, size)
        _paint(image, mask, x0, y0, tpl.color)
        rows, cols = np.nonzero(mask)
        gt_boxes[idx] = Box(
            float(x0 + cols.min()),
            float(y0 + rows.min()),
            float(x0 + cols.max() + 1),
            float(y0 + rows.max() + 1),
        )
        occupied.append((x0, y0, x0 + size, y0 + size))

    if spec.noise_sigma > 0:
        image = image + rng.normal(0.0, spec.noise_sigma, image.shape)
    return Sample(image_id, np.clip(image, 0.0, 1.0), labels, gt_boxes)


def _sample_rng(seed: int, split: str, index: int) -> np.random.Generator:
    # independent stream per (seed, split, sample): splits stay disjoint
    # and generation order or parallelism cannot change results
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, SPLIT_IDS[split], index))))


def generate_dataset(
    spec: SynthSpec,
    seed: int,
    n_train: int,
    n_val: int,
    n_test: int,
    out_dir: str | Path,
) -> None:
    if min(n_train, n_val, n_test) < 1:
        raise ValueError("each split needs at least one sample")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"seed": seed, "n_train": n_train, "n_val": n_val, "n_test": n_test,
            "spec": asdict(spec)}
    (out_dir / "spec.json").write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
    for split, count in (("train", n_train), ("val", n_val), ("test", n_test)):
        split_dir = out_dir / split
        (split_dir / "images").mkdir(parents=True, exist_ok=True)
        (split_dir / "gt_boxes").mkdir(parents=True, exist_ok=True)
        rows = []
        for i in range(count):
            image_id = f"{split}_{i:05d}"
            sample = render_sample(spec, _sample_rng(seed, split, i), image_id)
            write_ppm(split_dir / "images" / f"{image_id}.ppm", sample.image)
            gt_lines = [
                f"{idx} {b.x_min:.6f} {b.y_min:.6f} {b.x_max:.6f} {b.y_max:.6f}"
                for idx, b in sorted(sample.gt_boxes.items())
            ]
            (split_dir / "gt_boxes" / f"{image_id}.txt").write_text(
                "\n".join(gt_lines) + ("\n" if gt_lines else ""), encoding="utf-8"
            )
            rows.append([image_id] + [str(int(v)) for v in sample.labels])
        with open(split_dir / "labels.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["image_id"] + [f"attr_{i}" for i in range(spec.num_attributes)])
            writer.writerows(rows)


def _field(obj: dict, key: str, kind, is_list: bool = False):
    """``obj[key]`` checked to be a ``kind``, or with ``is_list`` a list of
    them (returned as a tuple); KeyError if it is missing, TypeError if not."""
    value = obj[key]
    items = value if is_list else [value]
    if not isinstance(items, list) or not all(
            isinstance(v, kind) and not isinstance(v, bool) for v in items):
        raise TypeError(f"field {key!r} cannot be {value!r}")
    return tuple(value) if is_list else value


def _spec_from_dict(d: dict) -> SynthSpec:
    number = (int, float)
    attrs = tuple(
        AttributeTemplate(
            name=_field(t, "name", str),
            shape=_field(t, "shape", str),
            color=_field(t, "color", number, True),
            size_range=_field(t, "size_range", int, True),
            region=None if t["region"] is None else _field(t, "region", number, True),
        )
        for t in _field(d, "attributes", dict, True)
    )
    return SynthSpec(
        image_size=_field(d, "image_size", int),
        attributes=attrs,
        positive_rate=_field(d, "positive_rate", number),
        clutter_range=_field(d, "clutter_range", int, True),
        noise_sigma=_field(d, "noise_sigma", number),
        background=_field(d, "background", number),
    )


def _text_error(path: Path, exc: UnicodeDecodeError) -> DataError:
    return DataError(f"{path}: not UTF-8 text ({exc.reason})")


def load_split(split_dir: str | Path) -> list[Sample]:
    """Load one split eagerly, cross-checking labels against image files.

    A ground-truth box needs an attribute id within the label count that
    the image's labels mark 1, finite corners, and at least a part inside
    its image; an id takes at most one line.
    """
    split_dir = Path(split_dir)
    labels_path = split_dir / "labels.csv"
    if not labels_path.exists():
        raise DataError(f"missing labels file: {labels_path}")
    with open(labels_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise _text_error(labels_path, exc) from exc
        if not header or header[0] != "image_id":
            raise DataError(f"{labels_path}: malformed header")
        if not rows:
            raise DataError(f"{labels_path}: lists no image")
        first_line: dict[str, int] = {}
        for lineno, row in enumerate(rows, 2):
            if len(row) != len(header) or not set(row[1:]) <= {"0", "1"}:
                raise DataError(f"{labels_path}:{lineno}: want an id and {len(header) - 1} labels of 0 or 1")
            if row[0] in first_line:
                raise DataError(f"{labels_path}:{lineno}: {row[0]!r} repeats line {first_line[row[0]]}")
            first_line[row[0]] = lineno

    image_files = {p.stem for p in (split_dir / "images").glob("*.ppm")}
    listed = set(first_line)
    missing = sorted(listed - image_files)
    if missing:
        raise DataError(f"{labels_path}: no image file for {missing[0]!r}"
                        + (f" and {len(missing) - 1} more" if len(missing) > 1 else ""))
    if image_files != listed:
        raise DataError(
            f"{labels_path}: lists {len(listed)} images but "
            f"{len(image_files)} image files exist"
        )

    gt_dir = split_dir / "gt_boxes"
    samples = []
    for row in rows:
        image_id = row[0]
        image = read_ppm(split_dir / "images" / f"{image_id}.ppm")
        h, w = image.shape[1:]
        labels = np.array([int(v) for v in row[1:]], dtype=np.int64)
        gt_boxes: dict[int, Box] = {}
        gt_lines: dict[int, int] = {}
        gt_file = gt_dir / f"{image_id}.txt"
        if gt_dir.is_dir() and gt_file.exists():
            try:
                text = gt_file.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise _text_error(gt_file, exc) from exc
            for lineno, line in enumerate(text.splitlines(), 1):
                if not line.strip():
                    continue
                parts = line.split()
                where = f"{gt_file}:{lineno}"
                if len(parts) != 5:
                    raise DataError(f"{where}: {len(parts)} fields, expected 5")
                try:
                    idx, (x0, y0, x1, y1) = int(parts[0]), map(float, parts[1:])
                    box = Box(x0, y0, x1, y1)
                except ValueError as exc:
                    raise DataError(f"{where}: {exc}") from exc
                if not 0 <= idx < len(labels):
                    raise DataError(f"{where}: attribute id {idx} outside [0, {len(labels)})")
                if idx in gt_lines:
                    raise DataError(f"{where}: attribute {idx} repeats line {gt_lines[idx]}")
                if not all(map(math.isfinite, (x0, y0, x1, y1))):
                    raise DataError(f"{where}: box corners must be finite")
                if x1 <= 0 or y1 <= 0 or x0 >= w or y0 >= h:
                    raise DataError(f"{where}: box ({x0:g}, {y0:g}, {x1:g}, {y1:g}) lies outside the {w}x{h} image")
                if not labels[idx]:
                    raise DataError(f"{where}: box for attribute {idx}, "
                                    f"which {labels_path}:{first_line[image_id]} marks 0")
                gt_boxes[idx], gt_lines[idx] = box, lineno
        samples.append(Sample(image_id, image, labels, gt_boxes))
    return samples


def load_dataset(root: str | Path) -> tuple[dict[str, list[Sample]], SynthSpec | None]:
    """Load all splits; returns them plus the generating spec if recorded."""
    root = Path(root)
    spec = None
    spec_path = root / "spec.json"
    if spec_path.exists():
        try:
            meta = json.loads(spec_path.read_text(encoding="utf-8"))
            if not isinstance(meta, dict):
                raise TypeError(f"want a JSON object, not {type(meta).__name__}")
            spec = _spec_from_dict(_field(meta, "spec", dict))
        except KeyError as exc:
            raise DataError(f"{spec_path}: lacks field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise DataError(f"{spec_path}: {exc}") from exc
    splits = {}
    for split in ("train", "val", "test"):
        if (root / split).is_dir():
            splits[split] = load_split(root / split)
    if not splits:
        raise DataError(f"{root}: no splits found")
    return splits, spec
