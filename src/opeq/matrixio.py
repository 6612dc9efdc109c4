"""JSON matrix exchange format used by the command line tools.

A matrix file is one JSON object::

    {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], ...]}

``data`` lists [real, imag] pairs in row-major order; the optional
``block_k`` marks the module block size and must divide both dimensions.
Floats are emitted with shortest round-trip repr, so save followed by load
reproduces the matrix bit-exactly.

``save_matrix`` writes, and ``load_matrix_meta`` reads back, one compact
layout a slice of ``data`` at a time, so neither holds a whole matrix as
Python lists; any other layout is decoded whole by ``json.loads``. The
SHA-256 of a written file comes from the interpreter's built-in module:
``hashlib`` would load OpenSSL, several MB of resident memory, to hash a
few hundred KB.
"""

from __future__ import annotations

import json
import operator
import os
import re
from itertools import chain

import numpy as np

from .exceptions import ParseError, ShapeError
from .kernel import as_matrix

try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["matrix_to_obj", "obj_to_matrix", "save_matrix", "load_matrix", "load_matrix_meta"]

# Entries per chunk that save_matrix formats and writes at once.
CHUNK_ENTRIES = 1024
# Characters of "data" that load_matrix_meta parses at once, rounded up to an entry boundary.
SLICE_CHARS = 1 << 16
# The header save_matrix writes: JSON integers, no whitespace, fields in this order.
_HEADER = re.compile(r'\{"rows":(0|[1-9][0-9]*),"cols":(0|[1-9][0-9]*)'
                     r'(?:,"block_k":([1-9][0-9]*))?,"data":\[')
_TAIL = "]}\n"


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _header_and_pairs(m, block_k, where):
    m = as_matrix(m)
    head = {"rows": int(m.shape[0]), "cols": int(m.shape[1])}
    if block_k is not None:
        block_k = operator.index(block_k) if hasattr(block_k, "__index__") else block_k
        head["block_k"] = _checked_block_k(block_k, *m.shape, where)
    return head, np.stack([m.real, m.imag], -1).reshape(-1, 2)


def _checked_block_k(block_k, rows, cols, where):
    """``block_k`` if None or a positive int dividing ``rows`` and ``cols``; else the loader's error."""
    if block_k is not None and (type(block_k) is not int or block_k < 1):
        raise ParseError(f"{where}: field 'block_k' must be a positive integer")
    if block_k is not None and (rows % block_k or cols % block_k):
        raise ShapeError(f"{where}: block_k={block_k} does not divide {rows}x{cols}")
    return block_k


def matrix_to_obj(m, block_k: int | None = None) -> dict:
    obj, pairs = _header_and_pairs(m, block_k, "<memory>")
    # tolist() yields Python floats, which json writes with the shortest repr.
    obj["data"] = pairs.tolist()
    return obj


def obj_to_matrix(obj, where: str = "<memory>"):
    """Decode one matrix object; returns (matrix, block_k)."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key in ("rows", "cols"):
        if key not in obj:
            raise ParseError(f"{where}: missing field {key!r}")
        # type(), not isinstance(): JSON true is a bool, an int subclass, not a size.
        if type(obj[key]) is not int or obj[key] < 0:
            raise ParseError(f"{where}: field {key!r} must be a nonnegative integer")
    rows, cols = obj["rows"], obj["cols"]
    data = obj.get("data")
    if not isinstance(data, list):
        raise ParseError(f"{where}: missing or non-list field 'data'")
    if len(data) != rows * cols:
        raise ShapeError(f"{where}: data length {len(data)} != rows*cols = {rows * cols}")
    block_k = _checked_block_k(obj.get("block_k"), rows, cols, where)
    pairs = _decode_pairs(data, where)
    # A C-ordered (n, 2) float64 array is n complex128 values in memory.
    return pairs.view(np.complex128).reshape(rows, cols), block_k


def _decode_pairs(data: list, where: str) -> np.ndarray:
    """The (len(data), 2) float64 array of a list of [re, im] pairs of finite JSON numbers."""
    try:
        pairs = np.asarray(data, dtype=np.float64) if data else np.empty((0, 2))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: data has a ragged or non-numeric entry: {exc}") from exc
    if pairs.shape != (len(data), 2):
        raise ParseError(f"{where}: data entries must be [re, im] pairs")
    # float64 conversion also takes true, false and numeric strings; JSON numbers load as int or float.
    if not set(map(type, chain.from_iterable(data))) <= {int, float}:
        raise ParseError(f"{where}: data has an entry that is not a JSON number")
    # null converts to NaN, so this check rejects it too.
    if not np.isfinite(pairs).all():
        raise ParseError(f"{where}: non-finite entry in data")
    return pairs


def save_matrix(path, m, block_k: int | None = None) -> str:
    """Write ``m`` to ``path``; returns the SHA-256 hex digest of the bytes written.

    The bytes are ``json.dumps(matrix_to_obj(m, block_k), separators=(",", ":"))``
    and a newline, formatted, written and hashed ``CHUNK_ENTRIES`` entries at a time.
    A ``block_k`` the loader refuses raises its error before a byte is written; ``np.int64(2)`` writes 2.
    """
    head, pairs = _header_and_pairs(m, block_k, path)
    # Each chunk is one slice's list without its brackets; json.dumps runs the C encoder.
    data = (("," if i else "") + _dumps(pairs[i:i + CHUNK_ENTRIES].tolist())[1:-1]
            for i in range(0, len(pairs), CHUNK_ENTRIES))
    digest = sha256()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        for chunk in chain([_dumps(head)[:-1] + ',"data":['], data, [_TAIL]):
            raw = chunk.encode("ascii")
            fh.write(raw)
            digest.update(raw)
    os.replace(tmp, path)
    return digest.hexdigest()


def load_matrix(path) -> np.ndarray:
    return load_matrix_meta(path)[0]


def load_matrix_meta(path):
    """Load a matrix file; returns (matrix, block_k)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not ASCII text: {exc}") from exc
    loaded = _load_saved_layout(text, str(path))
    if loaded is not None:
        return loaded
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    return obj_to_matrix(obj, where=str(path))


def _load_saved_layout(text, where="<memory>"):
    """Decode ``text`` in the exact layout save_matrix writes, about SLICE_CHARS at a time.

    Returns (matrix, block_k), or None for any other text, valid or not: the whole-file path then
    decodes it or raises the error obj_to_matrix names, as this does itself for a ``block_k`` that
    does not divide.  Nothing is sized from the header before the entries are counted.
    """
    head = _HEADER.match(text)
    if head is None or not text.endswith(_TAIL):
        return None
    rows, cols = int(head[1]), int(head[2])
    parts = []
    start, end = head.end(), len(text) - len(_TAIL)
    while start < end:
        cut = text.find("],[", start + SLICE_CHARS, end)
        stop = end if cut < 0 else cut + 1
        try:
            parts.append(_decode_pairs(json.loads(f"[{text[start:stop]}]"), "<slice>"))
        except (ParseError, ValueError, RecursionError):
            return None
        start = stop + 1
    if sum(map(len, parts)) != rows * cols:
        return None
    block_k = _checked_block_k(None if head[3] is None else int(head[3]), rows, cols, where)
    pairs = np.concatenate(parts) if parts else np.empty((0, 2))
    return pairs.view(np.complex128).reshape(rows, cols), block_k
