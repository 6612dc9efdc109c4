"""JSON matrix exchange format used by the command line tools.

A matrix file is one JSON object::

    {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], ...]}

``data`` lists [real, imag] pairs in row-major order; the optional
``block_k`` marks the module block size and must divide both dimensions.
Floats are emitted with shortest round-trip repr, so save followed by load
reproduces the matrix bit-exactly.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .exceptions import ParseError, ShapeError
from .kernel import as_matrix

__all__ = ["matrix_to_obj", "obj_to_matrix", "save_matrix", "load_matrix", "load_matrix_meta"]


def matrix_to_obj(m, block_k: int | None = None) -> dict:
    m = as_matrix(m)
    obj = {"rows": int(m.shape[0]), "cols": int(m.shape[1])}
    if block_k is not None:
        obj["block_k"] = int(block_k)
    # tolist() yields Python floats, which json writes with the shortest repr.
    obj["data"] = np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist()
    return obj


def obj_to_matrix(obj, where: str = "<memory>"):
    """Decode one matrix object; returns (matrix, block_k)."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key in ("rows", "cols"):
        if key not in obj:
            raise ParseError(f"{where}: missing field {key!r}")
        if not isinstance(obj[key], int) or obj[key] < 0:
            raise ParseError(f"{where}: field {key!r} must be a nonnegative integer")
    rows, cols = obj["rows"], obj["cols"]
    data = obj.get("data")
    if not isinstance(data, list):
        raise ParseError(f"{where}: missing or non-list field 'data'")
    if len(data) != rows * cols:
        raise ShapeError(f"{where}: data length {len(data)} != rows*cols = {rows * cols}")
    block_k = obj.get("block_k")
    if block_k is not None:
        if not isinstance(block_k, int) or block_k < 1:
            raise ParseError(f"{where}: field 'block_k' must be a positive integer")
        if rows % block_k or cols % block_k:
            raise ShapeError(f"{where}: block_k={block_k} does not divide {rows}x{cols}")
    try:
        pairs = np.asarray(data, dtype=np.float64) if data else np.empty((0, 2))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: data has a ragged or non-numeric entry: {exc}") from exc
    if pairs.shape != (rows * cols, 2):
        raise ParseError(f"{where}: data entries must be [re, im] pairs")
    # null converts to NaN, so this check rejects it too.
    if not np.isfinite(pairs).all():
        raise ParseError(f"{where}: non-finite entry in data")
    # A C-ordered (n, 2) float64 array is n complex128 values in memory.
    return pairs.view(np.complex128).reshape(rows, cols), block_k


def save_matrix(path, m, block_k: int | None = None) -> None:
    obj = matrix_to_obj(m, block_k)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        # json.dumps runs the C encoder; json.dump streams through the Python one.
        fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
    os.replace(tmp, path)


def load_matrix(path) -> np.ndarray:
    return load_matrix_meta(path)[0]


def load_matrix_meta(path):
    """Load a matrix file; returns (matrix, block_k)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return obj_to_matrix(obj, where=str(path))
