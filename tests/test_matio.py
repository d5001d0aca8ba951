import struct

import numpy as np
import pytest

from mmvgreedy.linalg import RngStream
from mmvgreedy.matio import load_jsm, save_jsm


def test_jsm_round_trip(tmp_path):
    rng = RngStream(3, (0,))
    X = rng.standard_normal((5, 3))
    path = tmp_path / "x.jsm"
    save_jsm(path, X)
    np.testing.assert_array_equal(load_jsm(path), X)


def test_jsm_layout_is_pinned(tmp_path):
    # magic, u64-LE dims, f64-LE row-major payload
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    path = tmp_path / "x.jsm"
    save_jsm(path, X)
    blob = path.read_bytes()
    assert blob[:4] == bytes([0x4A, 0x53, 0x4D, 0x31])
    rows, cols = struct.unpack_from("<QQ", blob, 4)
    assert (rows, cols) == (3, 2)
    values = struct.unpack_from("<6d", blob, 20)
    assert values == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert len(blob) == 4 + 16 + 48


def test_jsm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.jsm"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_jsm(path)


def test_jsm_rejects_truncation(tmp_path):
    X = np.ones((2, 2))
    path = tmp_path / "x.jsm"
    save_jsm(path, X)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_jsm(path)
    # no file holds an empty matrix, and a header of zero rows is refused
    with pytest.raises(ValueError, match="at least one row"):
        save_jsm(tmp_path / "empty.jsm", np.ones((0, 2)))
    path.write_bytes(b"JSM1" + struct.pack("<QQ", 0, 2))
    with pytest.raises(ValueError, match="invalid dimensions"):
        load_jsm(path)


def test_jsm_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        save_jsm(tmp_path / "x.jsm", np.array([[np.nan, 1.0]]))
    # a hand-built file with an inf payload must fail on load
    path = tmp_path / "inf.jsm"
    payload = struct.pack("<d", np.inf)
    path.write_bytes(b"JSM1" + struct.pack("<QQ", 1, 1) + payload)
    with pytest.raises(ValueError):
        load_jsm(path)

