"""Matrix file I/O in the JSM1 binary format.

JSM1 layout: magic bytes ``4A 53 4D 31``, rows and cols as unsigned
64-bit little-endian integers, then rows*cols IEEE-754 binary64
little-endian values in row-major order.
"""

from __future__ import annotations

import struct

import numpy as np

from .linalg import as_matrix, require_finite

__all__ = ["save_jsm", "load_jsm"]

MAGIC = b"JSM1"
_HEADER = struct.Struct("<QQ")


def save_jsm(path, X) -> None:
    A = as_matrix(X, "matrix")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError("matrix must have at least one row and one column")
    require_finite(A, "matrix")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(A.shape[0], A.shape[1]))
        fh.write(A.astype("<f8", copy=False).tobytes(order="C"))


def load_jsm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic bytes, not a JSM1 file")
    if len(blob) < 4 + _HEADER.size:
        raise ValueError(f"{path}: truncated JSM1 header")
    rows, cols = _HEADER.unpack_from(blob, 4)
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: invalid dimensions {rows}x{cols}")
    expected = 4 + _HEADER.size + rows * cols * 8
    if len(blob) != expected:
        raise ValueError(
            f"{path}: payload is {len(blob)} bytes, expected {expected}"
        )
    data = np.frombuffer(blob, dtype="<f8", offset=4 + _HEADER.size)
    A = data.reshape(rows, cols).astype(np.float64)
    return require_finite(A, path)

