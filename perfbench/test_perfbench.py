"""The benchmark's own tests: the smoke mode and the refusal without sources.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_runs_every_workload_with_its_checks_and_the_traced_run():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    runs = {}
    for line in proc.stdout.splitlines():
        if line.startswith("smoke "):
            label, payload = line.split(": ", 1)
            runs[label] = json.loads(payload)
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(runs) == sorted(f"smoke {w} trace={t}" for w in names for t in (0, 1))
    for label, result in runs.items():
        assert result["correct"], label
        assert result["attempted"] >= 1 and result["failed"] == 0, label
        declared = SPEC["per_layer"] if label.endswith("trace=1") else SPEC["end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }, label
        if label.endswith("trace=0"):
            assert all(v["value"] > 0 for v in result["metrics"].values()), label


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = ["--workload", "propose", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], *argv],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
