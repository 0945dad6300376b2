"""Smoke runs of the experiment scripts at the smallest useful scale, so a
library signature change cannot break them unseen."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *map(str, argv)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code


def test_run_pipeline(tmp_path, monkeypatch, capsys):
    out = tmp_path / "demo"
    assert _run_script("run_pipeline.py", ["--out", out, "--n-train", 8, "--epochs", 1], monkeypatch) == 0
    for artifact in ("stage1.lgn", "stage2.lgn", "report.json", "report.tsv", "curves.svg"):
        assert (out / artifact).is_file(), artifact
    assert any((out / "localize").iterdir())
    assert f"done; artifacts under {out}" in capsys.readouterr().out
