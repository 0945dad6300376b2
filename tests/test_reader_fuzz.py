"""Truncated and byte-mutated copies of valid input files.

Each reader may reject a damaged file only with its documented error,
and the message must name the file.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lgnet.boxes import Box
from lgnet.checkpoint import CheckpointError, load_container, save_container
from lgnet.ppm import read_ppm, write_ppm
from lgnet.proposals import ProposalSet, load_proposals, save_proposals

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _damaged(valid: bytes):
    """Up to eight single-byte overwrites, then a truncation. Both favour
    the first bytes, where the headers are, and overwrites favour the
    bytes that the formats give meaning to."""
    n = len(valid)
    at = st.one_of(st.integers(0, 15), st.integers(0, n - 1))
    byte = st.one_of(st.sampled_from(b"0-#\n .e"), st.integers(0, 255))

    def damage(edits, keep):
        raw = bytearray(valid)
        for i, value in edits:
            raw[i] = value
        return bytes(raw[:keep])

    keep = st.one_of(st.integers(0, 16), st.integers(0, n))
    return st.builds(damage, st.lists(st.tuples(at, byte), max_size=8), keep)


def _read_or_reject(reader, error, path, raw):
    """The reader's result, or None when it rejected the file properly."""
    path.write_bytes(raw)
    try:
        return reader(path)
    except error as exc:
        assert str(path) in str(exc), str(exc)
        return None


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of one small valid file per reader."""
    root = tmp_path_factory.mktemp("valid")
    write_ppm(root / "a.ppm", np.linspace(0.0, 1.0, 3 * 4 * 5).reshape(3, 4, 5))
    save_proposals(root / "a.proposals", ProposalSet(
        (Box(0.0, 1.5, 12.0, 20.25, 0.75), Box(3.0, 4.0, 5.0, 6.0, -1.0))))
    save_container(root / "a.lgn", {"kind": "global", "n": 1},
                   {"w": np.arange(6.0).reshape(2, 3), "b": np.array(0.5)})
    return {path.suffix: path.read_bytes() for path in root.iterdir()}


@given(data=st.data())
@FUZZ
def test_read_ppm_raises_only_value_error_naming_the_file(tmp_path, valid, data):
    raw = data.draw(_damaged(valid[".ppm"]))
    image = _read_or_reject(read_ppm, ValueError, tmp_path / "damaged.ppm", raw)
    assert image is None or (image.ndim == 3 and image.shape[0] == 3 and image.size > 0)


@given(data=st.data())
@FUZZ
def test_load_proposals_raises_only_value_error_naming_the_file(tmp_path, valid, data):
    raw = data.draw(_damaged(valid[".proposals"]))
    _read_or_reject(load_proposals, ValueError, tmp_path / "damaged.proposals", raw)


@given(data=st.data())
@FUZZ
def test_load_container_raises_only_checkpoint_error_naming_the_file(tmp_path, valid, data):
    raw = data.draw(_damaged(valid[".lgn"]))
    _read_or_reject(load_container, CheckpointError, tmp_path / "damaged.lgn", raw)
