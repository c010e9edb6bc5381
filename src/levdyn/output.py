"""Bit-stable CSV and JSON emission with provenance headers.

CSV files open with '#'-prefixed provenance lines (tool version, config
hash, seed, timestamp) followed by a header row; floats are serialized
with 17 significant digits so every value round-trips exactly, and None
is an empty cell.  JSON reports carry the same provenance (minus the
timestamp) as an embedded object, keeping the file valid JSON and
byte-identical across reruns.
"""

from __future__ import annotations

import json
from collections import deque
from datetime import datetime, timezone
from typing import Any, Iterable, Iterator, NamedTuple, Sequence, TextIO

from . import __version__

#: most rows of a RowBlock formatted into one text, and of one pool task;
#: bounds the text held
SLICE_ROWS = 8192
#: pool tasks in flight per worker when write_csv formats in a pool
TASKS_PER_WORKER = 2


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
    holds one or more equal-length 1-d numpy arrays.  The shared cells
    are formatted once for the block and each column once per dtype, so
    the text equals formatting every cell with ``format_value``.  A
    string (``U``-kind) column is written as it is, so it can carry
    several cells already joined by commas.
    """

    head: Sequence[Any]
    columns: Sequence[Any]
    tail: Sequence[Any]


def _format_column(values: Any) -> Iterator[str]:
    items = values.tolist()
    kind = values.dtype.kind
    if kind == "f":
        return map("{:.17g}".format, items)
    if kind in "iu":
        return map(str, items)
    if kind == "U":
        return iter(items)
    return map(format_value, items)


def _block_texts(block: RowBlock) -> Iterator[str]:
    head = "".join(format_value(v) + "," for v in block.head)
    tail = "".join("," + format_value(v) for v in block.tail) + "\n"
    for start in range(0, len(block.columns[0]), SLICE_ROWS):
        cells = [_format_column(c[start:start + SLICE_ROWS]) for c in block.columns]
        yield head + (tail + head).join(map(",".join, zip(*cells))) + tail


def _tasks(blocks: Iterable[RowBlock]) -> Iterator[list[RowBlock]]:
    """The blocks' rows in order, as lists of consecutive slices of at
    most SLICE_ROWS rows in all: a long block is cut, and short ones
    share a list."""
    task: list[RowBlock] = []
    rows = 0
    for head, columns, tail in blocks:
        n = len(columns[0])
        for start in range(0, n, SLICE_ROWS):
            size = min(SLICE_ROWS, n - start)
            if rows + size > SLICE_ROWS:
                yield task
                task, rows = [], 0
            task.append(RowBlock(head, [c[start:start + SLICE_ROWS] for c in columns], tail))
            rows += size
    if task:
        yield task


def _format_task(task: list[RowBlock]) -> str:
    return "".join(text for block in task for text in _block_texts(block))


def _write_pooled(stream: TextIO, blocks: Iterable[RowBlock], workers: int) -> None:
    """Format the blocks' tasks in a pool of ``workers`` processes, at most
    TASKS_PER_WORKER tasks per worker in flight, and write their texts in
    order."""
    # imported here, so the commands that never format in a pool do not load
    # it; the default start method, as in the sweep's pool, since spawned
    # workers would import levdyn again: 0.3-0.5 s of fig5's 1.6 s on 2 vCPUs
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        pending: deque = deque()
        for task in _tasks(blocks):
            if len(pending) == TASKS_PER_WORKER * workers:
                stream.write(pending.popleft().result())
            pending.append(pool.submit(_format_task, task))
        while pending:
            stream.write(pending.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)


def write_csv(
    stream: TextIO,
    columns: Sequence[str],
    blocks: Iterable[RowBlock],
    config_sha256: str,
    seed: int | None,
    workers: int = 1,
) -> None:
    """Provenance lines, the header, then each RowBlock's rows as it arrives.

    With more than one worker the rows are formatted in a pool and
    written in the same order, so the bytes do not depend on ``workers``.
    """
    for line in provenance_lines(config_sha256, seed):
        stream.write(line + "\n")
    stream.write(",".join(columns) + "\n")
    if workers > 1:
        _write_pooled(stream, blocks, workers)
        return
    for block in blocks:
        for text in _block_texts(block):
            stream.write(text)


def read_csv(stream: TextIO) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Parse a file produced by write_csv.

    Returns (provenance, columns, rows) with cells kept as strings; the
    17-digit float serialization guarantees float(cell) recovers the
    exact written value.
    """
    provenance: dict[str, str] = {}
    columns: list[str] | None = None
    rows: list[list[str]] = []
    for raw in stream:
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                provenance[key.strip()] = value.strip()
            continue
        if columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return provenance, columns or [], rows


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
