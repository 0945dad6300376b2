"""Golden digests: the whole CLI pipeline on a tiny fixed dataset.

A refactor that claims to keep behaviour must reproduce these outputs
byte for byte. A change that alters a float summation order re-pins the
digests and names the order it changed. The digests hold for the
float64 numpy/OpenBLAS build the suite runs on; another BLAS kernel may
round matrix products differently.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lgnet
from lgnet.cli import main

GOLDEN = {
    "proposals": "b02025079397581862a449f3353af816ceb9e0ba4ca49a9abc0e8d6099a630c0",
    "stage1": "f1acfad936e177dafec2f8a54dda71460a602f4ae9c8350fc9d1a71d8a6e7e5c",
    "stage2": "5eff6b8c81e7abb6ca7b27870e76b261999678a901aa7a385fc01eba80f584af",
    "stage2_log": "622c28b241a7405cf246d84d746f135e1a2940dbb95f181bcd7ec9e2cd4e5a89",
    "eval_report": "f272c47bd69659011c3bf0e8f79555d1f633b980c9ed5919db0156ed43a6dae7",
    "localize": "1fa0734d2421752a9d99e989e342778401df536ca881aaa8958d1522c699f61f",
    "dump_affinity": "edd63574565faa807ec212b50ebf6235f4637ffdb1ee50b1285dcad5bfcc0b5c",
}


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _pipeline_digests(root: Path) -> dict[str, str]:
    """Run the pipeline in ``root`` and return the digest of each output."""
    data, props = root / "data", root / "props"
    stage1, stage2 = root / "stage1.lgn", root / "stage2.lgn"
    stage2_log, report = root / "stage2.log.csv", root / "report.json"
    localized, affinity = root / "localize", root / "affinity"
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
        ["localize", "--model", stage2, "--data", data, "--proposals", props,
         "--out", localized, "--heatmaps"],
        ["eval", "--model", stage2, "--data", data, "--split", "val", "--proposals", props,
         "--dump-affinity", affinity],
    ):
        assert main([str(a) for a in argv]) == 0, argv[0]
    return {
        "proposals": _dir_digest(props),
        "stage1": _file_digest(stage1),
        "stage2": _file_digest(stage2),
        "stage2_log": _file_digest(stage2_log),
        "eval_report": _file_digest(report),
        "localize": _dir_digest(localized),
        "dump_affinity": _dir_digest(affinity),
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _pipeline_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(outputs, name):
    assert outputs[name] == GOLDEN[name]


# pins its own process to one CPU, then prints the number of cores lgnet
# sees and the pipeline's digests as the last line
ONE_CPU = """
import json, os, sys
from pathlib import Path
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
import test_golden
from lgnet import training
print(json.dumps([training._cores(), test_golden._pipeline_digests(Path(sys.argv[2]))]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_one_cpu_process_matches_golden_digests(tmp_path):
    """The digests hold end to end in a process that may run on one CPU
    only, where no worker process is forked."""
    src = str(Path(lgnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", ONE_CPU, str(Path(__file__).parent), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    cores, digests = json.loads(done.stdout.splitlines()[-1])
    assert cores == 1
    assert digests == GOLDEN
