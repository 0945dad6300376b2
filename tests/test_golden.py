"""Golden digests: the whole CLI pipeline on a tiny fixed dataset.

A refactor that claims to keep behaviour must reproduce these outputs
byte for byte. A change that alters a float summation order re-pins the
digests and names the order it changed. The digests hold for the
float64 numpy/OpenBLAS build the suite runs on; another BLAS kernel may
round matrix products differently.
"""

import hashlib
from pathlib import Path

import pytest

from lgnet.cli import main

GOLDEN = {
    "proposals": "b02025079397581862a449f3353af816ceb9e0ba4ca49a9abc0e8d6099a630c0",
    "stage1": "965e3567fbd84011701837bb360f603ce301fe5c9f91e2755f5803e62483f30f",
    "stage2": "2257276532cf50b5dea38737edcf03f2476d180c09241448e58323a54b993b23",
    "stage2_log": "622c28b241a7405cf246d84d746f135e1a2940dbb95f181bcd7ec9e2cd4e5a89",
    "eval_report": "f272c47bd69659011c3bf0e8f79555d1f633b980c9ed5919db0156ed43a6dae7",
}


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    data, props = root / "data", root / "props"
    stage1, stage2 = root / "stage1.lgn", root / "stage2.lgn"
    stage2_log, report = root / "stage2.log.csv", root / "report.json"
    for argv in (
        ["gen-data", "--out", data, "--seed", "11",
         "--n-train", "32", "--n-val", "16", "--n-test", "16"],
        ["propose", "--images", data, "--out", props, "--top-k", "12"],
        ["train-stage1", "--data", data, "--out", stage1,
         "--seed", "11", "--epochs", "3", "--batch-size", "8", "--lr", "0.6"],
        ["train-stage2", "--data", data, "--model", stage1, "--proposals", props,
         "--out", stage2, "--log", stage2_log,
         "--seed", "11", "--epochs", "2", "--batch-size", "8", "--lr", "0.3", "--top-k", "12"],
        ["eval", "--model", stage2, "--data", data, "--proposals", props, "--out", report],
    ):
        assert main([str(a) for a in argv]) == 0, argv[0]
    return {
        "proposals": _dir_digest(props),
        "stage1": _file_digest(stage1),
        "stage2": _file_digest(stage2),
        "stage2_log": _file_digest(stage2_log),
        "eval_report": _file_digest(report),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(outputs, name):
    assert outputs[name] == GOLDEN[name]
