"""Bit-stable CSV and JSON emission with provenance headers.

CSV files open with '#'-prefixed provenance lines (tool version, config
hash, seed, timestamp) followed by a header row; floats are serialized
with 17 significant digits so every value round-trips exactly, and None
is an empty cell.  Rows are formatted a slice of at most ``SLICE_ROWS``
at a time, in the calling process: by the compiled writer
``levdyn_rows`` where the library loaded and covers every cell of the
slice, else by ``format_value``, the reference, with the same text.
Every line goes to the stream as text, through its ``write``.  JSON
reports carry the same provenance (minus the timestamp) as an embedded
object, keeping the file valid JSON and byte-identical across reruns.
"""

from __future__ import annotations

import ctypes
import json
from datetime import datetime, timezone
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from . import __version__, _kernel

#: most rows of a RowBlock formatted into one text; bounds the text held
SLICE_ROWS = 8192
#: the most characters levdyn_rows writes for a float64, int64 or bool cell
CELL_CHARS = {"f": 23, "i": 20, "b": 1}


def format_value(value: Any) -> str:
    """One CSV cell: the reference every faster formatter must match."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def provenance_lines(config_sha256: str, seed: int | None) -> list[str]:
    return [
        f"# levdyn_version: {__version__}",
        f"# config_sha256: {config_sha256}",
        f"# seed: {'none' if seed is None else seed}",
        f"# timestamp: {datetime.now(timezone.utc).isoformat(timespec='seconds')}",
    ]


class RowBlock(NamedTuple):
    """Rows that share their leading and trailing cells.

    Row i is ``[*head, *(c[i] for c in columns), *tail]``.  ``columns``
    holds one or more equal-length 1-d numpy arrays; other shapes raise
    ValueError before any row is written.  The shared cells are
    formatted once for the block, and the text equals formatting every
    cell with ``format_value``.  A string (``U``-kind) column is written
    as it is, so it can carry several cells already joined by commas.
    """

    head: Sequence[Any]
    columns: Sequence[Any]
    tail: Sequence[Any]


def _rows(columns: Sequence[Any]) -> int:
    """The columns' common length; ValueError unless they are one or more
    1-d arrays of one length."""
    shapes = [c.shape for c in columns]
    if not shapes or len(shapes[0]) != 1 or set(shapes) != {shapes[0]}:
        raise ValueError(f"a RowBlock needs 1-d columns of one length, got shapes {shapes}")
    return shapes[0][0]


def _compiled_writer(head: str, columns: Sequence[Any],
                     tail: str) -> Callable[[int, int], str | None] | None:
    """levdyn_rows bound to one block's cells: a function of a slice's first
    row and its row count that returns the slice's text, or None
    where a cell is out of the writer's reach.  None where the library
    did not load, a column is not float64, int64, bool or native ``U``,
    or the head or tail text is not ASCII."""
    lib = _kernel.lib
    kinds = [c.dtype.kind for c in columns
             if c.dtype.isnative and (c.dtype.kind in "fi" and c.dtype.itemsize == 8
                                      or c.dtype.kind in "bU")]
    if lib is None or len(kinds) != len(columns) or not (head + tail).isascii():
        return None
    ncols = len(columns)
    chars = (ctypes.c_longlong * ncols)(*(c.dtype.itemsize // 4 if k == "U" else CELL_CHARS[k]
                                          for c, k in zip(columns, kinds)))
    data = (ctypes.c_void_p * ncols)(*(c.ctypes.data for c in columns))
    strides = (ctypes.c_longlong * ncols)(*(c.strides[0] for c in columns))
    code, head_bytes, tail_bytes = "".join(kinds).encode(), head.encode(), tail.encode()
    row_chars = len(head) + sum(chars) + ncols - 1 + len(tail)

    def write(start: int, rows: int) -> str | None:
        capacity = rows * row_chars
        buffer = np.empty(capacity, dtype=np.uint8)
        length = lib.levdyn_rows(ncols, code, chars, data, strides, start, rows,
                                 head_bytes, len(head_bytes), tail_bytes, len(tail_bytes),
                                 buffer.ctypes.data, capacity)
        return None if length < 0 else str(buffer.data[:length], "ascii")

    return write


def _block_texts(block: RowBlock) -> Iterator[str]:
    """The block's rows, a slice at a time: the compiled writer's text, or
    format_value's where the writer does not cover the slice."""
    n = _rows(block.columns)
    head = "".join(format_value(v) + "," for v in block.head)
    tail = "".join("," + format_value(v) for v in block.tail) + "\n"
    compiled = _compiled_writer(head, block.columns, tail)
    for start in range(0, n, SLICE_ROWS):
        text = compiled(start, min(SLICE_ROWS, n - start)) if compiled else None
        if text is None:
            cells = [map(format_value, c[start:start + SLICE_ROWS].tolist())
                     for c in block.columns]
            text = head + (tail + head).join(map(",".join, zip(*cells))) + tail
        yield text


def write_csv(
    stream: TextIO,
    columns: Sequence[str],
    blocks: Iterable[RowBlock],
    config_sha256: str,
    seed: int | None,
) -> None:
    """Provenance lines, the header, then each RowBlock's rows as it arrives."""
    for line in provenance_lines(config_sha256, seed):
        stream.write(line + "\n")
    stream.write(",".join(columns) + "\n")
    for block in blocks:
        for chunk in _block_texts(block):
            stream.write(chunk)


def write_json(
    stream: TextIO,
    payload: dict[str, Any],
    config_sha256: str,
    seed: int | None,
) -> None:
    document = dict(payload)
    document["provenance"] = {
        "levdyn_version": __version__,
        "config_sha256": config_sha256,
        "seed": seed,
    }
    json.dump(document, stream, sort_keys=True, indent=2)
    stream.write("\n")
