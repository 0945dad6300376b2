import argparse
import json
import os
import re
import shutil
import signal
import struct
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from lgnet.cli import _TRAIN_FLAG_FIELDS, build_parser, main

COMMANDS = [
    "gen-data", "propose", "train-stage1", "train-stage2",
    "eval", "localize", "ablate", "plot",
]
# the commands that read --seed and --config
SEEDED = {"gen-data", "train-stage1", "train-stage2", "ablate"}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny end-to-end run: dataset, proposals, both stages."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    props = root / "props"
    stage1 = root / "stage1.lgn"
    stage2 = root / "stage2.lgn"
    assert main([
        "gen-data", "--out", str(data), "--seed", "3",
        "--n-train", "12", "--n-val", "6", "--n-test", "6",
    ]) == 0
    assert main(["propose", "--images", str(data), "--out", str(props), "--top-k", "16"]) == 0
    assert main([
        "train-stage1", "--data", str(data), "--out", str(stage1),
        "--seed", "3", "--epochs", "2", "--batch-size", "6", "--lr", "0.05",
    ]) == 0
    assert main([
        "train-stage2", "--data", str(data), "--model", str(stage1),
        "--proposals", str(props), "--out", str(stage2),
        "--seed", "3", "--epochs", "1", "--batch-size", "6", "--top-k", "16",
    ]) == 0
    return root


class TestParsing:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_zero(self, command, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert ("--seed" in out) == ("--config" in out) == (command in SEEDED)

    # each command's required flags, then a flag it does not read
    @pytest.mark.parametrize("argv", [
        *([command, *required, flag, value]
          for command, required in [
              ("propose", ["--images", "i", "--out", "o"]),
              ("eval", ["--model", "m.lgn", "--data", "d"]),
              ("localize", ["--model", "m.lgn", "--data", "d", "--proposals", "p", "--out", "o"]),
              ("plot", ["--log", "l.csv", "--out", "o.svg"]),
          ]
          for flag, value in [("--seed", "1"), ("--config", "c.json")]),
        *(["train-stage1", "--data", "d", "--out", "o.lgn", flag, value]
          for flag, value in [("--top-k", "5"), ("--threshold", "0.3"), ("--affinity", "uniform")]),
        ["train-stage2", "--data", "d", "--model", "m.lgn", "--proposals", "p", "--out", "o.lgn",
         "--backbone", "dilated"],
        *(["ablate", "--name", "no_guidance", "--data", "d", flag, value]
          for flag, value in [("--affinity", "uniform"), ("--backbone", "dilated")]),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flag_the_command_does_not_read_is_usage_error(self, argv, capsys):
        assert main(argv) == 1
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert main(["gen-data", "--out", "x", "--frobnicate"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert main(["eval", "--model", "m.lgn"]) == 1


def _numeric_flags():
    """(command, flag, dest, type) of every int or float flag of every command."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[-1], action.dest, action.type)
            for command, parser in sub.choices.items() for action in parser._actions
            if action.type in (int, float)]


# out-of-range values for every int or float flag, but for those a flag takes
OUT_OF_RANGE = {int: ["0", "-1"], float: ["-1", "1.5", "nan"]}
IN_RANGE = {"--seed": "0", "--lr": "1.5"}


class TestNumericFlags:
    """Every int or float flag refuses an out-of-range value with one
    error line naming the flag, or the training-config field it sets,
    and the value, before anything is written."""

    @pytest.mark.parametrize("command, flag, dest, value", [
        (command, flag, dest, value) for command, flag, dest, kind in _numeric_flags()
        for value in OUT_OF_RANGE[kind] if value != IN_RANGE.get(flag)
    ], ids=lambda v: str(v) if isinstance(v, str) else None)
    def test_out_of_range_value_is_named_and_writes_nothing(self, workspace, tmp_path, capsys,
                                                           command, flag, dest, value):
        data, model, props, out = workspace / "data", workspace / "stage2.lgn", workspace / "props", tmp_path / "out"
        required = {
            "gen-data": ["--out", out],
            "propose": ["--images", data, "--out", out],
            "train-stage1": ["--data", data, "--out", out],
            "train-stage2": ["--data", data, "--model", workspace / "stage1.lgn", "--proposals", props,
                             "--out", out],
            "eval": ["--model", model, "--data", data, "--proposals", props, "--out", out],
            "localize": ["--model", model, "--data", data, "--proposals", props, "--out", out],
            "ablate": ["--name", "resolution", "--data", data, "--out", out],
        }[command]
        assert main([command, *map(str, required), flag, value]) == 2
        printed = capsys.readouterr()
        trains = command in ("train-stage1", "train-stage2", "ablate")
        names = [_TRAIN_FLAG_FIELDS[dest]] if trains else [flag, dest]
        assert printed.out == "" and printed.err.startswith("error: ") and printed.err.count("\n") == 1
        assert any(re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", printed.err) for name in names)
        assert value in printed.err
        assert list(tmp_path.iterdir()) == []


class TestGenDataConfig:
    def test_gen_data_config_of_right_types_is_applied(self, tmp_path):
        config = {"num_attributes": 3, "image_size": 48, "positive_rate": 0.4, "noise_sigma": 0,
                  "background": 0.1, "clutter_range": [1, 3], "n_train": 2, "n_val": 1, "n_test": 1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "data"
        assert main(["gen-data", "--out", str(out), "--config", str(path)]) == 0
        written = json.loads((out / "spec.json").read_text())
        spec = written["spec"]
        assert (written["n_train"], written["n_val"], written["n_test"]) == (2, 1, 1)
        assert len(spec["attributes"]) == 3 and spec["image_size"] == 48
        assert spec["clutter_range"] == [1, 3] and spec["noise_sigma"] == 0
        assert (spec["positive_rate"], spec["background"]) == (0.4, 0.1)


class TestTrainConfigSeed:
    @pytest.mark.parametrize("flags, seed", [([], 5), (["--seed", "7"], 7)], ids=["config", "flag"])
    def test_config_seed_is_used_unless_the_flag_is_given(self, workspace, tmp_path, capsys, flags, seed):
        from lgnet import checkpoint

        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 5, "epochs": 1, "batch_size": 6}))
        out = tmp_path / "stage1.lgn"
        assert main(["train-stage1", "--data", str(workspace / "data"), "--out", str(out),
                     "--config", str(path), *flags]) == 0
        meta, _ = checkpoint.load_container(out)
        assert meta["train_config"]["seed"] == seed


class TestErrors:
    def test_missing_data_dir_is_data_error(self, tmp_path):
        assert main([
            "eval", "--model", str(tmp_path / "no.lgn"), "--data", str(tmp_path / "no"),
        ]) == 2

    def test_stage2_eval_without_proposals_is_data_error(self, workspace):
        assert main([
            "eval", "--model", str(workspace / "stage2.lgn"),
            "--data", str(workspace / "data"),
        ]) == 2

    @pytest.mark.parametrize("first_line", [
        "0.000000 0.000000 inf 20.000000 1.000000",  # non-finite coordinate
        "500.000000 500.000000 600.000000 600.000000 9.000000",  # outside the image
    ])
    @pytest.mark.parametrize("command", ["train-stage2", "eval"])
    def test_bad_proposal_file_is_data_error(self, workspace, tmp_path, capsys, command, first_line):
        props = tmp_path / "props"
        shutil.copytree(workspace / "props", props)
        for path in props.glob("*.proposals"):
            lines = path.read_text().splitlines()
            path.write_text("\n".join([first_line] + lines[1:]) + "\n")
        if command == "train-stage2":
            argv = ["train-stage2", "--model", str(workspace / "stage1.lgn"),
                    "--out", str(tmp_path / "s2.lgn"), "--epochs", "1", "--top-k", "16"]
        else:
            argv = ["eval", "--model", str(workspace / "stage2.lgn")]
        assert main(argv + ["--data", str(workspace / "data"), "--proposals", str(props)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestMalformedInput:
    """Malformed external input exits 2 with an error line, never a traceback."""

    @staticmethod
    def _assert_data_error(argv, capsys):
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("model, change, named", [
        ("stage2.lgn", lambda meta: ["kind", "lg"], "not a JSON object"),
        ("stage2.lgn", lambda meta: {k: v for k, v in meta.items() if k != "kind"}, "'kind'"),
        ("stage2.lgn", lambda meta: {k: v for k, v in meta.items() if k != "backbone"}, "'backbone'"),
        ("stage2.lgn", lambda meta: {**meta, "backbone": "base"}, "bad metadata"),
        ("stage2.lgn", lambda meta: {k: v for k, v in meta.items() if k != "roi_out"}, "'roi_out'"),
        ("stage2.lgn", lambda meta: {k: v for k, v in meta.items() if k != "top_k"}, "'top_k'"),
        ("stage2.lgn", lambda meta: {**meta, "top_k": "16"}, "'top_k_proposals'"),
        ("stage1.lgn", lambda meta: {k: v for k, v in meta.items() if k != "backbone"}, "'backbone'"),
        ("stage1.lgn", lambda meta: {**meta, "backbone": {**meta["backbone"], "split_index": 2.7}},
         "'split_index'"),
        ("stage2.lgn", lambda meta: {**meta, "backbone": {**meta["backbone"], "strides": [2.5, 2, 2]}},
         "'strides'"),
        ("stage1.lgn", lambda meta: {**meta, "backbone": {**meta["backbone"], "num_attributes": True}},
         "'num_attributes'"),
    ], ids=["list", "no-kind", "no-backbone", "bad-backbone", "no-roi_out", "no-top_k",
            "string-top_k", "stage1-no-backbone", "float-split_index", "float-strides",
            "bool-num_attributes"])
    def test_bad_checkpoint_metadata(self, workspace, tmp_path, capsys, model, change, named):
        from lgnet import checkpoint

        meta, tensors = checkpoint.load_container(workspace / model)
        bad = tmp_path / "bad.lgn"
        checkpoint.save_container(bad, change(meta), tensors)
        err = self._assert_data_error(["eval", "--model", bad, "--data", workspace / "data",
                                       "--proposals", workspace / "props"], capsys)
        assert str(bad) in err and named in err

    @pytest.mark.parametrize("change, named", [
        (lambda meta: [1, 2], "JSON object"),
        (lambda meta: {**meta, "spec": {k: v for k, v in meta["spec"].items() if k != "noise_sigma"}},
         "'noise_sigma'"),
        (lambda meta: {**meta, "spec": {**meta["spec"], "noise_sigma": "0.03"}}, "'noise_sigma'"),
        (lambda meta: {**meta, "spec": {**meta["spec"], "attributes": [
            {**meta["spec"]["attributes"][0], "region": "top"}]}}, "'region'"),
        (lambda meta: {**meta, "spec": {**meta["spec"], "clutter_range": [5, 1]}}, "clutter_range"),
        (lambda meta: {**meta, "spec": {**meta["spec"], "attributes": [
            {**meta["spec"]["attributes"][0], "size_range": []}]}}, "size range"),
        (lambda meta: {**meta, "spec": {**meta["spec"], "attributes": [
            {**meta["spec"]["attributes"][0], "region": [0.0, 0.5]}]}}, "region 4"),
        (lambda meta: {**meta, "spec": {**meta["spec"], "attributes": [
            {**meta["spec"]["attributes"][0], "color": [1.0]}]}}, "color must be 3"),
    ], ids=["list", "no-noise_sigma", "string-noise_sigma", "string-region", "reversed-clutter_range",
            "empty-size_range", "short-region", "short-color"])
    def test_bad_spec_json(self, workspace, tmp_path, capsys, change, named):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        spec = data / "spec.json"
        spec.write_text(json.dumps(change(json.loads(spec.read_text()))))
        out = tmp_path / "s1.lgn"
        err = self._assert_data_error(["train-stage1", "--data", data, "--out", out], capsys)
        assert str(spec) in err and named in err and not out.exists()

    @pytest.mark.parametrize("bias", [None, np.zeros(3)], ids=["missing", "mis-shaped"])
    def test_bad_head_bias(self, workspace, tmp_path, capsys, bias):
        from lgnet import checkpoint

        meta, tensors = checkpoint.load_container(workspace / "stage2.lgn")
        if bias is None:
            del tensors["head/bias"]
        else:
            tensors["head/bias"] = bias
        bad = tmp_path / "bad.lgn"
        checkpoint.save_container(bad, meta, tensors)
        err = self._assert_data_error(["eval", "--model", bad, "--data", workspace / "data",
                                       "--proposals", workspace / "props"], capsys)
        assert "head/bias" in err or "head bias" in err

    @classmethod
    def _assert_config_errors(cls, workspace, tmp_path, capsys, path):
        """``path`` is refused by ``gen-data --config`` and by ``train-stage1
        --config`` (``TrainConfig.from_file``) alike: each exits 2 with an
        error line naming the file and writes nothing. Returns both lines."""
        errs = []
        for argv in (["gen-data"], ["train-stage1", "--data", workspace / "data"]):
            out = tmp_path / "out"
            errs.append(cls._assert_data_error([*argv, "--out", out, "--config", path], capsys))
            assert str(path) in errs[-1] and not out.exists()
        return errs

    @pytest.mark.parametrize("config", [
        [1, 2], {"bogus": 1}, {"roi_out": 3}, {"epochs": 1.5}, {"epochs": "2"},
    ])
    def test_bad_train_config(self, workspace, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        self._assert_config_errors(workspace, tmp_path, capsys, path)

    @pytest.mark.parametrize("config", [
        {"loss_sigma": 0.0}, {"loss_sigma": 1e-200}, {"loss_sigma": 1e200}, {"seed": -3},
        {"lr0": float("nan")}, {"lr0": float("inf")}, {"weight_decay": float("nan")},
        {"weight_decay": float("inf")}, {"weight_decay": -0.1},
    ])
    def test_train_config_out_of_range_names_the_file_and_field(self, workspace, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.lgn"
        err = self._assert_data_error(["train-stage1", "--data", workspace / "data", "--out", out,
                                       "--config", path], capsys)
        assert err.startswith(f"error: {path}: {next(iter(config))} ") and not out.exists()

    def test_negative_seed_flag_is_named(self, workspace, tmp_path, capsys):
        out = tmp_path / "out.lgn"
        err = self._assert_data_error(["train-stage1", "--data", workspace / "data", "--out", out,
                                       "--seed", "-3"], capsys)
        assert err.startswith("error: seed ") and not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_flag_is_named(self, workspace, tmp_path, capsys, lr):
        out = tmp_path / "out.lgn"
        err = self._assert_data_error(["train-stage1", "--data", workspace / "data", "--out", out,
                                       "--lr", lr], capsys)
        assert err.startswith(f"error: lr0 must be finite and at least 0, not {lr}") and not out.exists()

    def test_negative_gen_data_seed_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "data"
        err = self._assert_data_error(["gen-data", "--out", out, "--seed", "-3", "--n-train", "2",
                                       "--n-val", "1", "--n-test", "1"], capsys)
        assert err == "error: seed must be at least 0, not -3\n" and not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("localize", "--top-n", "0"), ("localize", "--top-n", "-1"),
        ("eval", "--threshold", "0"), ("eval", "--threshold", "1"),
        ("eval", "--threshold", "2"), ("eval", "--threshold", "nan"),
    ])
    def test_out_of_range_output_flag_writes_nothing(self, workspace, tmp_path, capsys, command, flag, value):
        out = tmp_path / ("loc" if command == "localize" else "report.json")
        err = self._assert_data_error([command, "--model", workspace / "stage2.lgn", "--data", workspace / "data",
                                       "--proposals", workspace / "props", "--out", out, flag, value], capsys)
        assert err.startswith(f"error: {flag} ") and not out.exists()

    def test_non_finite_checkpoint_tensor(self, workspace, tmp_path, capsys):
        from lgnet import checkpoint

        meta, tensors = checkpoint.load_container(workspace / "stage1.lgn")
        tensors["stage0/kernel"] = tensors["stage0/kernel"].copy()
        tensors["stage0/kernel"].flat[0] = np.nan
        bad = tmp_path / "bad.lgn"
        checkpoint.save_container(bad, meta, tensors)
        err = self._assert_data_error(["eval", "--model", bad, "--data", workspace / "data"], capsys)
        assert str(bad) in err and "'stage0/kernel'" in err

    @pytest.mark.parametrize("meta, body", [
        (b'{"kind": "global"}', struct.pack("<I", 1) + b"w" + struct.pack("<I2Q", 2, 2**32, 2**32)),
        (b"\xff\xfe{}", b""),
        (b"{not json", b""),
    ], ids=["extents-overflow-int64", "metadata-not-utf8", "metadata-not-json"])
    def test_corrupt_container(self, workspace, tmp_path, capsys, meta, body):
        bad = tmp_path / "bad.lgn"
        bad.write_bytes(b"LGN1" + struct.pack("<I", len(meta)) + meta + body)
        err = self._assert_data_error(["eval", "--model", bad, "--data", workspace / "data"], capsys)
        assert str(bad) in err

    @pytest.mark.parametrize("raw", [
        b"P6\n0 4\n255\n",
        b"P6\n-2 -2\n255\n" + bytes(12),
        b"P6\n# no newline",
    ], ids=["zero-width", "negative-size", "unterminated-comment"])
    def test_corrupt_ppm(self, tmp_path, capsys, raw):
        images = tmp_path / "images"
        images.mkdir()
        bad = images / "bad.ppm"
        bad.write_bytes(raw)
        err = self._assert_data_error(["propose", "--images", images, "--out", tmp_path / "p"], capsys)
        assert str(bad) in err

    def test_gen_data_config_not_an_object(self, workspace, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1]")
        self._assert_config_errors(workspace, tmp_path, capsys, path)

    @pytest.mark.parametrize("config", [{"n_train": "5"}, {"num_attributes": 2.5}])
    def test_gen_data_config_wrong_type(self, workspace, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        for err in self._assert_config_errors(workspace, tmp_path, capsys, path):
            assert repr(next(iter(config))) in err

    def test_gen_data_config_unknown_key(self, workspace, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_trian": 1, "n_train": 1, "n_val": 1, "n_test": 1}))
        for err in self._assert_config_errors(workspace, tmp_path, capsys, path):
            assert "'n_trian'" in err

    @pytest.mark.parametrize("config", [
        {"clutter_range": [5, 1]}, {"clutter_range": [-2, 1]}, {"clutter_range": [1, 2, 3]},
        {"positive_rate": 1.5}, {"noise_sigma": -0.1}, {"background": 3.0}, {"num_attributes": 9},
    ], ids=lambda config: "-".join(map(str, next(iter(config.items())))))
    def test_gen_data_config_out_of_range(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        err = self._assert_data_error(["gen-data", "--out", out, "--config", path], capsys)
        assert str(path) in err and next(iter(config)) in err and not out.exists()

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_gen_data_split_below_one_is_named(self, tmp_path, capsys, source):
        out, path = tmp_path / "out", tmp_path / "config.json"
        path.write_text(json.dumps({"n_train": 0}))
        argv = ["--config", path] if source == "config" else ["--n-val", "0"]
        err = self._assert_data_error(["gen-data", "--out", out, *argv], capsys)
        assert not out.exists()
        if source == "config":
            assert str(path) in err and "n_train" in err
        else:
            assert "--n-val" in err

    @pytest.mark.parametrize("raw", [b"{n_train: 1}", b'{"n_train": 1\xff}'], ids=["not-json", "not-utf8"])
    def test_gen_data_config_not_json(self, workspace, tmp_path, capsys, raw):
        path = tmp_path / "config.json"
        path.write_bytes(raw)
        self._assert_config_errors(workspace, tmp_path, capsys, path)

    def test_short_ground_truth_line(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        gt_file = sorted((data / "test" / "gt_boxes").glob("*.txt"))[0]
        gt_file.write_text("0 1 2 30\n")
        err = self._assert_data_error(["eval", "--model", workspace / "stage1.lgn", "--data", data],
                                      capsys)
        assert f"{gt_file}:1" in err

    def test_extra_fields_in_ground_truth_line(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        gt_file = sorted((data / "test" / "gt_boxes").glob("*.txt"))[0]
        gt_file.write_text("3 2 3 14 28\n4 3 14 17 28 99 junk\n")
        err = self._assert_data_error(["eval", "--model", workspace / "stage1.lgn", "--data", data],
                                      capsys)
        assert f"{gt_file}:2" in err

    # the first test image of the seed-3 set marks attributes 0, 3, 4 and 5, which alone may have boxes
    @pytest.mark.parametrize("text, line, named", [
        ("0 0 0 inf 5\n", 1, "finite"),
        ("3 2 3 14 28\n99 1 1 5 5\n", 2, "attribute id 99 outside [0, 8)"),
        ("-1 1 1 5 5\n", 1, "attribute id -1 outside [0, 8)"),
        ("0 500 500 600 600\n", 1, "outside the 64x64 image"),
        ("4 1 1 5 5\n\n4 3 3 9 9\n", 3, "attribute 4 repeats line 1"),
    ], ids=["infinite", "id-too-large", "id-negative", "outside-image", "repeated-id"])
    def test_bad_ground_truth_box(self, workspace, tmp_path, capsys, text, line, named):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        gt_file = sorted((data / "test" / "gt_boxes").glob("*.txt"))[0]
        gt_file.write_text(text)
        err = self._assert_data_error(["eval", "--model", workspace / "stage1.lgn", "--data", data],
                                      capsys)
        assert err.startswith(f"error: {gt_file}:{line}: ") and named in err

    def test_ground_truth_box_for_a_negative_attribute(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        labels = data / "test" / "labels.csv"
        image_id, *row = labels.read_text().splitlines()[1].split(",")
        negative = row.index("0")
        gt_file = data / "test" / "gt_boxes" / f"{image_id}.txt"
        lines = gt_file.read_text().splitlines()
        gt_file.write_text("\n".join([*lines, f"{negative} 1 1 5 5"]) + "\n")
        err = self._assert_data_error(["eval", "--model", workspace / "stage1.lgn", "--data", data],
                                      capsys)
        assert err == f"error: {gt_file}:{len(lines) + 1}: box for attribute {negative}, which {labels}:2 marks 0\n"

    @pytest.mark.parametrize("name", ["labels.csv", "gt_boxes"])
    def test_split_file_not_utf8_is_named(self, workspace, tmp_path, capsys, name):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        path = data / "test" / name
        if name == "gt_boxes":
            path = sorted(path.glob("*.txt"))[0]
        raw = path.read_bytes()
        path.write_bytes(raw[:-2] + b"\xff" + raw[-2:])
        err = self._assert_data_error(["eval", "--model", workspace / "stage1.lgn", "--data", data],
                                      capsys)
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("flag, value", [("--nms", "1.5"), ("--nms", "nan"), ("--nms", "0"), ("--top-k", "0")])
    def test_out_of_range_propose_flag_writes_nothing(self, workspace, tmp_path, capsys, flag, value):
        out = tmp_path / "props"
        err = self._assert_data_error(["propose", "--images", workspace / "data", "--out", out, flag, value],
                                      capsys)
        assert err.startswith(f"error: {flag} ") and value in err and not out.exists()

    # each edit maps the second data row (line 3) to the lines put in its place
    @pytest.mark.parametrize("edit", [
        lambda row: ["", row],
        lambda row: [row.rsplit(",", 1)[0]],
        lambda row: [row[:-1] + "2"],
        lambda row: [row[:-1] + "x"],
    ], ids=["blank-row", "short-row", "label-2", "label-x"])
    def test_bad_labels_row(self, workspace, tmp_path, capsys, edit):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        labels = data / "test" / "labels.csv"
        lines = labels.read_text().splitlines()
        lines[2:3] = edit(lines[2])
        labels.write_text("\n".join(lines) + "\n")
        err = self._assert_data_error(["eval", "--model", workspace / "stage1.lgn", "--data", data],
                                      capsys)
        assert f"{labels}:3" in err

    def test_repeated_labels_row(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        labels = data / "test" / "labels.csv"
        lines = labels.read_text().splitlines()
        labels.write_text("\n".join(lines + [lines[1]]) + "\n")
        err = self._assert_data_error(["eval", "--model", workspace / "stage1.lgn", "--data", data],
                                      capsys)
        assert f"{labels}:{len(lines) + 1}" in err and "line 2" in err

    def test_missing_split(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        shutil.rmtree(data / "test")
        self._assert_data_error(["eval", "--model", workspace / "stage1.lgn", "--data", data], capsys)

    @pytest.mark.parametrize("command, split", [("train-stage1", "train"), ("eval", "test")])
    def test_empty_split(self, workspace, tmp_path, capsys, command, split):
        data, out = tmp_path / "data", tmp_path / "out"
        shutil.copytree(workspace / "data", data)
        labels = data / split / "labels.csv"
        labels.write_text(labels.read_text().splitlines()[0] + "\n")  # the header alone
        for path in (data / split).glob("*/*"):
            path.unlink()
        argv = {"train-stage1": ["train-stage1", "--data", data, "--out", out],
                "eval": ["eval", "--model", workspace / "stage1.lgn", "--data", data, "--out", out]}[command]
        err = self._assert_data_error(argv, capsys)
        assert err == f"error: {labels}: lists no image\n"
        assert not out.exists()

    def test_dump_affinity_refuses_a_stage1_model_before_scoring(self, workspace, tmp_path, capsys):
        out, dump = tmp_path / "report.json", tmp_path / "affinity"
        err = self._assert_data_error(["eval", "--model", workspace / "stage1.lgn", "--data", workspace / "data",
                                       "--out", out, "--dump-affinity", dump], capsys)
        assert err == "error: --dump-affinity needs a stage-2 model\n"
        assert not out.exists() and not out.with_suffix(".tsv").exists() and not dump.exists()


class TestEval:
    def test_prints_percent_tsv(self, workspace, capsys):
        assert main([
            "eval", "--model", str(workspace / "stage1.lgn"),
            "--data", str(workspace / "data"), "--split", "test",
        ]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "mA\tAcc\tPrec\tRec\tF1"
        values = [float(v) for v in out[1].split("\t")]
        assert len(values) == 5
        assert all(0.0 <= v <= 100.0 for v in values)

    def test_writes_report_files(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main([
            "eval", "--model", str(workspace / "stage2.lgn"),
            "--data", str(workspace / "data"), "--proposals", str(workspace / "props"),
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert set(report) == {"mA", "accuracy", "precision", "recall", "f1"}
        tsv = out.with_suffix(".tsv").read_text().strip()
        assert len(tsv.split("\t")) == 5

    def test_dump_affinity_writes_csv_per_image(self, workspace, tmp_path, capsys):
        dump = tmp_path / "affinity"
        assert main([
            "eval", "--model", str(workspace / "stage2.lgn"),
            "--data", str(workspace / "data"), "--proposals", str(workspace / "props"),
            "--split", "val", "--dump-affinity", str(dump),
        ]) == 0
        capsys.readouterr()
        files = sorted(dump.glob("*_affinity.csv"))
        assert len(files) == 6
        rows = files[0].read_text().strip().splitlines()
        assert len(rows) == 8  # attributes
        assert len(rows[0].split(",")) == 16  # proposals

    def test_byte_identical_across_runs(self, workspace, tmp_path, capsys):
        outs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            assert main([
                "eval", "--model", str(workspace / "stage1.lgn"),
                "--data", str(workspace / "data"), "--out", str(path),
            ]) == 0
            outs.append(path.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]


class TestLocalize:
    def test_writes_jsonl_overlays_and_heatmaps(self, workspace, tmp_path, capsys):
        out = tmp_path / "loc"
        assert main([
            "localize", "--model", str(workspace / "stage2.lgn"),
            "--data", str(workspace / "data"), "--split", "test",
            "--proposals", str(workspace / "props"), "--out", str(out), "--heatmaps",
        ]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in (out / "localizations.jsonl").read_text().splitlines()]
        assert len(records) == 6 * 8  # images x attributes
        for record in records:
            assert set(record) >= {"image_id", "attribute_id", "box", "degenerate", "top_proposals"}
            affs = [p["affinity"] for p in record["top_proposals"]]
            assert affs == sorted(affs, reverse=True)
            assert len(affs) == 5
        # gt overlap reported exactly when a ground-truth box exists
        from lgnet.synthdata import load_dataset

        splits, _ = load_dataset(workspace / "data")
        gt = {(s.image_id, i) for s in splits["test"] for i in s.gt_boxes}
        for record in records:
            assert (("iou_gt" in record)
                    == ((record["image_id"], record["attribute_id"]) in gt))
        assert len(list((out / "overlays").glob("*.ppm"))) == 6
        assert len(list((out / "heatmaps").glob("*.pgm"))) == 6 * 8


class TestFrozenBranchReuse:
    def test_localize_and_dump_affinity_do_not_rerun_either_branch(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        from lgnet import training

        # images through each branch: a call takes one image or a batch
        counts = {"forward_global": 0, "forward_local_stem": 0}
        for name in counts:
            def counted(params, config, image, _name=name, _real=getattr(training, name)):
                counts[_name] += image.data.shape[0] if image.data.ndim == 4 else 1
                return _real(params, config, image)

            monkeypatch.setattr(training, name, counted)
        common = ["--model", str(workspace / "stage2.lgn"), "--data", str(workspace / "data"),
                  "--split", "val", "--proposals", str(workspace / "props")]
        assert main(["localize", *common, "--out", str(tmp_path / "loc")]) == 0
        assert counts == {"forward_global": 6, "forward_local_stem": 0}
        counts.update(forward_global=0, forward_local_stem=0)
        # scoring runs each half once per image; the dump reuses its guidance
        assert main(["eval", *common, "--dump-affinity", str(tmp_path / "affinity")]) == 0
        capsys.readouterr()
        assert counts == {"forward_global": 6, "forward_local_stem": 6}


class TestWorkerProcesses:
    @pytest.mark.parametrize("model", ["stage1.lgn", "stage2.lgn"])
    def test_no_process_outlives_eval(self, workspace, tmp_path, capsys, monkeypatch, model):
        from lgnet import training
        from test_training import _no_children

        monkeypatch.setattr(training, "_cores", lambda: 2)
        common = ["--model", str(workspace / model), "--data", str(workspace / "data"),
                  "--proposals", str(workspace / "props")]
        # the train split's 12 images make two chunks, so a worker is forked
        assert main(["eval", *common, "--split", "train"]) == 0
        assert _no_children()
        if model == "stage2.lgn":
            assert main(["eval", *common, "--split", "train", "--dump-affinity", str(tmp_path / "a")]) == 0
            assert main(["localize", *common, "--split", "train", "--out", str(tmp_path / "loc")]) == 0
            assert _no_children()
        capsys.readouterr()

    def test_a_worker_killed_during_eval_exits_2(self, workspace, capsys, monkeypatch):
        from lgnet import training
        from test_training import _no_children

        if training._openblas() is None:
            pytest.skip("no worker processes where numpy's OpenBLAS cannot be reached")
        monkeypatch.setattr(training, "_cores", lambda: 2)
        caller, real = os.getpid(), training._frozen_forward

        def dying(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)  # as the OOM killer would
            return real(*args)

        monkeypatch.setattr(training, "_frozen_forward", dying)
        argv = ["eval", "--model", workspace / "stage1.lgn", "--data", workspace / "data", "--split", "train"]
        assert main([str(a) for a in argv]) == 2
        assert re.fullmatch(r"error: worker process \d+ exited during a call\n", capsys.readouterr().err)
        assert _no_children()


class TestMixedSizeSplit:
    @pytest.mark.parametrize("kind", ["stage1", "stage2"])
    def test_eval_scores_a_split_holding_a_wider_image(self, workspace, tmp_path, capsys, kind):
        from lgnet.backbone import load_stage1_checkpoint
        from lgnet.loss_metrics import MetricsReport
        from lgnet.ppm import read_ppm, write_ppm
        from lgnet.proposals import propose_for_image, save_proposals
        from lgnet.synthdata import load_split
        from lgnet.tensor import no_grad
        from lgnet.training import (
            GlobalModel, _fused_logits, _guidance_for, _label_matrix, load_proposal_dir, load_stage2_checkpoint,
        )
        from test_training import _global_scores

        data, props = tmp_path / "data", tmp_path / "props"
        shutil.copytree(workspace / "data", data)
        shutil.copytree(workspace / "props", props)
        # the third of six test images becomes 64 rows by 128 columns
        wide = sorted((data / "test" / "images").glob("*.ppm"))[2]
        write_ppm(wide, np.random.default_rng(0).uniform(0, 1, size=(3, 64, 128)))
        save_proposals(props / f"{wide.stem}.proposals", propose_for_image(read_ppm(wide), k=16))
        out = tmp_path / "report.json"
        assert main(["eval", "--model", str(workspace / f"{kind}.lgn"), "--data", str(data),
                     "--split", "test", "--proposals", str(props), "--out", str(out)]) == 0
        assert "error" not in capsys.readouterr().err

        samples = load_split(data / "test")
        assert {s.image.shape for s in samples} == {(3, 64, 64), (3, 64, 128)}
        if kind == "stage1":
            model = GlobalModel(*load_stage1_checkpoint(workspace / "stage1.lgn")[:2])
            runs = [samples[:2], samples[2:3], samples[3:]]
            scores = np.concatenate([_global_scores(model, run) for run in runs])
        else:
            model, _ = load_stage2_checkpoint(workspace / "stage2.lgn")
            found = load_proposal_dir(props, [s.image_id for s in samples])
            guides = _guidance_for(model, samples, found)
            with no_grad():
                scores = np.concatenate([_fused_logits(model, [s], guides.rows([i])).data
                                         for i, s in enumerate(samples)])
        expected = MetricsReport.from_scores(scores, _label_matrix(samples))
        assert json.loads(out.read_text()) == expected.as_dict()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestOverflowingModel:
    """Finite weights whose products overflow float64 exit 2 with an error
    line that names the model, never a traceback."""

    @staticmethod
    def _scaled(workspace, tmp_path, model, prefix=""):
        """``model`` with every trunk kernel (of the frozen branch, in a
        stage-2 checkpoint) scaled by 1e120: finite, but three stages deep
        the activations overflow."""
        from lgnet import checkpoint

        meta, tensors = checkpoint.load_container(workspace / model)
        for name in list(tensors):
            if name.startswith(f"{prefix}stage") and name.endswith("/kernel"):
                tensors[name] = tensors[name] * 1e120
        if prefix:
            tensors["cam/weight"] = tensors["global/head/weight"]
        path = tmp_path / f"huge-{model}"
        checkpoint.save_container(path, meta, tensors)
        return path

    @pytest.mark.parametrize("command, model, prefix", [
        ("eval", "stage1.lgn", ""),
        ("eval", "stage2.lgn", "global/"),
        ("localize", "stage2.lgn", "global/"),
        ("train-stage2", "stage1.lgn", ""),
    ], ids=["eval-stage1", "eval-stage2", "localize", "train-stage2"])
    def test_command_names_the_model(self, workspace, tmp_path, capsys, command, model, prefix):
        huge = self._scaled(workspace, tmp_path, model, prefix)
        argv = [command, "--model", huge, "--data", workspace / "data", "--proposals", workspace / "props"]
        if command in ("localize", "train-stage2"):
            argv += ["--out", tmp_path / "out"]
        if command == "train-stage2":
            argv += ["--epochs", "1", "--top-k", "16"]
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: model {huge}: non-finite values produced by 'conv2d'\n"

    def test_validation_pass(self, workspace, tmp_path, capsys, monkeypatch):
        from lgnet import training

        real = training._frozen_forward

        def huge(params, *args):  # validation scores with a copy whose kernels overflow
            params = params.copy(requires_grad=False)
            for kernel in params.stage_kernels:
                kernel.data *= 1e120
            return real(params, *args)

        monkeypatch.setattr(training, "_frozen_forward", huge)
        out = tmp_path / "s1.lgn"
        assert main(["train-stage1", "--data", str(workspace / "data"), "--out", str(out),
                     "--epochs", "2", "--batch-size", "6"]) == 2
        err = capsys.readouterr().err
        assert err == "error: stage-1 validation diverged at epoch 0: non-finite values produced by 'conv2d'\n"
        assert not out.exists()


class TestLocalizeUniformModel:
    def test_uniform_checkpoint_cannot_localize(self, workspace, tmp_path, capsys):
        uniform = tmp_path / "uniform.lgn"
        assert main([
            "train-stage2", "--data", str(workspace / "data"),
            "--model", str(workspace / "stage1.lgn"),
            "--proposals", str(workspace / "props"), "--out", str(uniform),
            "--seed", "3", "--epochs", "1", "--batch-size", "6",
            "--top-k", "16", "--affinity", "uniform",
        ]) == 0
        capsys.readouterr()
        assert main([
            "localize", "--model", str(uniform), "--data", str(workspace / "data"),
            "--proposals", str(workspace / "props"), "--out", str(tmp_path / "loc"),
        ]) == 2


class TestAblate:
    def test_prints_both_arms(self, workspace, tmp_path, capsys):
        out = tmp_path / "ablation.json"
        assert main([
            "ablate", "--name", "no_guidance", "--data", str(workspace / "data"),
            "--proposals", str(workspace / "props"), "--seed", "3",
            "--epochs", "1", "--batch-size", "6", "--top-k", "16", "--out", str(out),
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "ablation: no_guidance"
        assert lines[1].startswith("arm")
        assert lines[2].split("\t")[0].strip() == "uniform"
        assert lines[3].split("\t")[0].strip() == "guided"
        payload = json.loads(out.read_text())
        assert [arm["label"] for arm in payload["arms"]] == ["uniform", "guided"]

    def test_arms_from_a_stage1_model_match_train_stage2(self, workspace, tmp_path, capsys):
        from lgnet import checkpoint

        flags = ["--data", str(workspace / "data"), "--model", str(workspace / "stage1.lgn"),
                 "--proposals", str(workspace / "props"), "--seed", "3",
                 "--epochs", "1", "--batch-size", "6", "--top-k", "16"]
        out = tmp_path / "ablation.json"
        assert main(["ablate", "--name", "no_guidance", *flags, "--out", str(out)]) == 0
        arms = {arm["label"]: arm["best_val_ma"] for arm in json.loads(out.read_text())["arms"]}
        for label, affinity in (("uniform", "uniform"), ("guided", "iou")):
            model = tmp_path / f"{affinity}.lgn"
            assert main(["train-stage2", *flags, "--affinity", affinity, "--out", str(model)]) == 0
            meta, _ = checkpoint.load_container(model)
            assert arms[label] == meta["best_val_ma"]

    def test_a_stage1_model_names_its_own_backbone(self, workspace, tmp_path, capsys):
        """``train-stage2`` and ``ablate --model`` record the trunk of the
        classifier they ran on, not the ``--config`` preset."""
        from lgnet import checkpoint

        dilated = tmp_path / "dilated.lgn"
        assert main(["train-stage1", "--data", str(workspace / "data"), "--out", str(dilated),
                     "--seed", "3", "--epochs", "1", "--batch-size", "6", "--backbone", "dilated"]) == 0
        flags = ["--data", str(workspace / "data"), "--model", str(dilated),
                 "--proposals", str(workspace / "props"), "--seed", "3",
                 "--epochs", "1", "--batch-size", "6", "--top-k", "16"]
        model, out = tmp_path / "stage2.lgn", tmp_path / "ablation.json"
        assert main(["train-stage2", *flags, "--out", str(model)]) == 0
        assert main(["ablate", "--name", "no_guidance", *flags, "--out", str(out)]) == 0
        capsys.readouterr()
        meta, _ = checkpoint.load_container(model)
        assert meta["backbone"]["dilations"] == [1, 1, 2]
        assert meta["train_config"]["backbone"] == "dilated"
        assert [arm["config"]["backbone"] for arm in json.loads(out.read_text())["arms"]] == ["dilated"] * 2

    @pytest.mark.parametrize("name", ["resolution", "dilation"])
    def test_stage1_ablation_refuses_a_stage1_model(self, workspace, capsys, name):
        assert main(["ablate", "--name", name, "--data", str(workspace / "data"),
                     "--model", str(workspace / "stage1.lgn")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trains its own classifiers" in err


class TestPlot:
    def test_svg_has_one_polyline_per_series(self, workspace, tmp_path, capsys):
        log = workspace / "stage1.log.csv"
        out = tmp_path / "curves.svg"
        assert main(["plot", "--log", str(log), "--out", str(out)]) == 0
        capsys.readouterr()
        tree = ET.parse(out)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = tree.getroot().findall(".//svg:polyline", ns)
        header = log.read_text().splitlines()[0].split(",")
        assert len(polylines) == len(header) - 1

    @pytest.mark.parametrize("row", ["1,0.1,oops,0.5", "1,0.1,0.6", "1,0.1,nan,0.5"],
                             ids=["non-numeric", "short-row", "nan"])
    def test_malformed_row_names_the_log_line(self, tmp_path, capsys, row):
        log = tmp_path / "train.log.csv"
        log.write_text(f"epoch,lr,train_loss,val_mA\n0,0.1,0.7,0.4\n{row}\n")
        assert main(["plot", "--log", str(log), "--out", str(tmp_path / "x.svg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{log}:3" in err and "Traceback" not in err
        assert not (tmp_path / "x.svg").exists()

    def test_log_not_utf8_is_named(self, tmp_path, capsys):
        log = tmp_path / "train.log.csv"
        log.write_bytes(b"epoch,lr,train_loss,val_mA\n0,0.1,0.7,0.\xff4\n")
        assert main(["plot", "--log", str(log), "--out", str(tmp_path / "x.svg")]) == 2
        assert capsys.readouterr().err == f"error: {log}: not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / "x.svg").exists()

    def test_empty_log_is_data_error(self, tmp_path):
        log = tmp_path / "empty.csv"
        log.write_text("epoch,lr\n")
        assert main(["plot", "--log", str(log), "--out", str(tmp_path / "x.svg")]) == 2
