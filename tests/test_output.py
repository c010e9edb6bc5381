"""Block CSV emission against the per-cell reference path."""

from __future__ import annotations

import io
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import needs_kernel, python_loops
from levdyn import _kernel, cli, output
from levdyn.config import parse_config
from levdyn.orbits import OrbitTrace, PeriodReport, pair_sync
from levdyn.params import LeverageState
from levdyn.output import RowBlock, format_value, write_csv
from levdyn.sweep import SweepRecord

COLUMNS = [
    "param_value", "branch", "step", "bank", "lambda",
    "lyapunov_top", "period", "survival_fraction", "classification",
]

EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e308, -1e308, 2.0, 0.1, 1.0 / 3.0, 81.0593900481541]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def reference_rows(records: list[SweepRecord]) -> list[list]:
    """The cell rows bifurcate built before it emitted blocks."""
    rows = []
    for rec in records:
        lyap = "" if rec.lyapunov_top is None else rec.lyapunov_top
        period = "" if rec.period is None else rec.period.label
        for r in range(rec.samples.shape[0]):
            for bank in range(rec.samples.shape[1]):
                rows.append([
                    rec.param_value, int(rec.branch[r]), r, bank + 1,
                    float(rec.samples[r, bank]), lyap, period,
                    rec.survival_fraction, rec.classification,
                ])
        if rec.samples.shape[0] == 0:
            rows.append([
                rec.param_value, -1, -1, 0, "", lyap, period,
                rec.survival_fraction, rec.classification,
            ])
    return rows


@st.composite
def sweep_records(draw, banks: int) -> SweepRecord:
    initials = draw(st.integers(1, 4))
    survivors = sorted(draw(st.sets(st.integers(0, initials - 1), max_size=initials)))
    record = draw(st.integers(1, 5))
    rows = len(survivors) * record
    values = draw(st.lists(floats, min_size=rows * banks, max_size=rows * banks))
    period = draw(st.one_of(st.none(), st.integers(1, 12), st.just("aperiodic")))
    return SweepRecord(
        param_value=draw(floats),
        samples=np.array(values, dtype=np.float64).reshape(rows, banks),
        survivors=tuple(survivors),
        lyapunov_top=draw(st.one_of(st.none(), floats)),
        period=(
            None if period is None
            else PeriodReport(None if period == "aperiodic" else period, 1e-6, 100)
        ),
        survival_fraction=len(survivors) / initials,
        classification=draw(st.sampled_from(["fixed-point", "periodic", "chaotic", "infeasible"])),
    )


@given(survivors=st.lists(st.integers(0, 5), unique=True).map(sorted),
       record=st.integers(1, 5), banks=st.integers(1, 2))
def test_branch_repeats_each_survivor_over_its_rows(survivors, record, banks):
    rec = SweepRecord(0.5, np.zeros((len(survivors) * record, banks)), tuple(survivors),
                      None, None, 1.0, "chaotic")
    assert rec.branch.dtype == np.int64
    assert np.array_equal(rec.branch, np.repeat(np.array(survivors, dtype=np.int64), record))


def csv_body(blocks) -> str:
    buf = io.StringIO()
    write_csv(buf, COLUMNS, blocks, "deadbeef", 1)
    return buf.getvalue().partition(",".join(COLUMNS) + "\n")[2]


def cell_text(rows) -> str:
    """Rows formatted cell by cell with the reference formatter."""
    return "".join(",".join(format_value(v) for v in row) + "\n" for row in rows)


class TestBlockEmission:
    @settings(max_examples=150, deadline=None)
    @given(
        records=st.integers(1, 2).flatmap(
            lambda banks: st.lists(sweep_records(banks), min_size=1, max_size=6)
        ),
        slice_rows=st.integers(1, 8),
    )
    @example(
        records=[
            SweepRecord(
                -0.0, np.array([[5e-324, 1e308], [2.0, 0.1]]), (0, 2), None,
                None, 2 / 3, "chaotic",
            ),
            SweepRecord(0.1, np.empty((0, 2)), (), None, None, 0.0, "infeasible"),
        ],
        slice_rows=1,
    )
    def test_sweep_blocks_match_cell_rows(self, records, slice_rows):
        expected = "".join(
            ",".join(format_value(v) for v in row) + "\n" for row in reference_rows(records)
        )
        with patch.object(output, "SLICE_ROWS", slice_rows):
            assert csv_body(cli._sweep_rows(records)) == expected
        assert csv_body(cli._sweep_rows(records)) == expected

    @given(
        ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=20),
        data=st.data(),
    )
    def test_column_dtypes_match_cells(self, ints, data):
        n = len(ints)
        flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        words = data.draw(st.lists(st.sampled_from(["a", "b c", ""]), min_size=n, max_size=n))
        block = RowBlock(
            (True, None, 7),
            (np.array(ints, dtype=np.int64), np.array(flags), np.array(words, dtype=object)),
            (0.1, "x"),
        )
        rows = [[True, None, 7, i, f, w, 0.1, "x"] for i, f, w in zip(ints, flags, words)]
        assert csv_body([block]) == cell_text(rows)


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072009e-308, 1e-310]
any_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS + EDGE_FLOATS), st.floats())
#: a non-ASCII character sends a slice to the reference formatters; a U
#: array keeps a NUL unless it trails
TEXT = "ab, 1.-\x00\xe9"
scalars = st.one_of(st.none(), st.booleans(), st.integers(-(2**63), 2**63 - 1), any_floats,
                    st.text(TEXT, max_size=4))
#: (numpy dtype, cell strategy) of every column kind a RowBlock carries
COLUMN_KINDS = [
    (np.float64, any_floats),
    (np.int64, st.integers(-(2**63), 2**63 - 1)),
    (bool, st.booleans()),
    (object, scalars),
    (str, st.text(TEXT, max_size=6)),
]


@st.composite
def row_blocks(draw) -> tuple[RowBlock, list[list]]:
    """A RowBlock and its rows as cells."""
    n = draw(st.integers(0, 12))
    head = draw(st.lists(scalars, max_size=3))
    tail = draw(st.lists(scalars, max_size=3))
    columns, cells = [], []
    for dtype, values in draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=3)):
        drawn = draw(st.lists(values, min_size=n, max_size=n))
        column = np.array(drawn, dtype=dtype) if n else np.empty(0, dtype=dtype)
        columns.append(column)
        # a U array drops its strings' trailing NULs
        cells.append(column.tolist() if dtype is str else drawn)
    rows = [[*head, *row, *tail] for row in zip(*cells)]
    return RowBlock(head, columns, tail), rows


def both_paths(blocks) -> str:
    """The rows of ``blocks`` through the compiled writer, where it loaded,
    after checking that the reference formatters give the same text."""
    with python_loops():
        reference = csv_body(blocks)
    assert csv_body(blocks) == reference
    return reference


@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(row_blocks(), max_size=6), slice_rows=st.sampled_from([1, 2, 3, 5, 8192]))
def test_compiled_rows_give_the_same_bytes(blocks, slice_rows):
    with patch.object(output, "SLICE_ROWS", slice_rows):
        text = both_paths([block for block, _ in blocks])
    assert text == cell_text(row for _, rows in blocks for row in rows)


@pytest.mark.parametrize("slices", [2, 3])
def test_pool_formatting_of_long_blocks(slices):
    # blocks longer than SLICE_ROWS are cut into ``slices`` slices, the last
    # one half full (the name is from the formatting pool this once checked)
    rng = np.random.default_rng(8)
    long = output.SLICE_ROWS * slices - output.SLICE_ROWS // 2
    blocks = [
        RowBlock((0.5, 7), (rng.normal(size=n), np.arange(n)), ("x",))
        for n in (long, 3, 0, 1000, long, 17)
    ]
    rows = [[0.5, 7, x, i, "x"] for block in blocks for x, i in zip(*map(list, block.columns))]
    assert both_paths(blocks) == cell_text(rows)


#: the compiled writer formats floats with 2^-14 <= |x| < 2^52
LOW, HIGH = 2.0 ** -14, 2.0 ** 52


def compiled_cells(*columns, head: str = "", tail: str = "\n") -> str | None:
    """All rows of ``columns`` through levdyn_rows alone, None where it
    leaves them to the reference formatters."""
    return output._compiled_writer(head, columns, tail)(0, len(columns[0]))


def check_float_cell(x: float) -> None:
    text = compiled_cells(np.array([x]))
    if math.isfinite(x) and x != 0 and not LOW <= abs(x) < HIGH:
        assert text is None
    else:
        assert text == format(x, ".17g") + "\n"


def edge_floats() -> list[float]:
    """Signed zeros and nan, subnormals, DBL_MAX, the ties of 17 digits,
    the powers of ten from 1e-7 to 1e17 and the range's edges, each with
    its neighbours one ulp away."""
    centres = [float(f"1e{p}") for p in range(-7, 18)] + [LOW, HIGH]
    around = [math.nextafter(c, d) for c in centres for d in (-math.inf, math.inf)]
    values = [0.0, 5e-324, 2.2250738585072009e-308, 1e-310, 1.7976931348623157e308,
              1000000000000000.25, 1000000000000000.75, *centres, *around]
    return [math.copysign(math.nan, -1.0), math.nan, math.inf, -0.0, *values,
            *(-v for v in values)]


@needs_kernel
@settings(max_examples=1000, deadline=None)
@given(x=st.floats())
def test_compiled_float_cells_match_format(x):
    check_float_cell(x)


@needs_kernel
def test_compiled_edge_cells_match_format():
    for x in edge_floats():
        check_float_cell(x)
    ints = np.array([-(2**63), 2**63 - 1, 0, -1, 10**18], dtype=np.int64)
    assert compiled_cells(ints) == "".join(f"{v}\n" for v in ints.tolist())


#: the compiled writer's range by bit pattern, so every binade in it is as
#: likely as any other; st.floats() rarely lands in it
_BITS_LOW, _BITS_HIGH = (int(np.float64(v).view(np.uint64)) for v in (LOW, HIGH))
range_floats = st.one_of(
    st.integers(_BITS_LOW, _BITS_HIGH - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.integers(1, 2**52 - 1).map(float),  # whole numbers
    # few significant digits, so most of the 17 are trailing zeros
    st.builds(lambda k, p: float(f"{k}e{p}"), st.integers(1, 999_999), st.integers(-9, 15))
    .filter(lambda x: LOW <= x < HIGH),
)


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.tuples(range_floats, st.booleans()), min_size=1, max_size=50))
def test_compiled_cells_in_range_match_format_value(xs):
    # 17 digits in two halves of 9 and 8, two digits at a time
    values = [-x if negative else x for x, negative in xs]
    assert compiled_cells(np.array(values)) == "".join(f"{format_value(x)}\n" for x in values)


@needs_kernel
def test_compiled_writer_fills_its_buffer_and_no_more():
    # a slice of the longest cells of every kind is exactly as long as the
    # capacity the writer is given; one byte less and it writes nothing past it
    n = output.SLICE_ROWS
    floats = np.resize([-math.nextafter(LOW, 1.0), -0.00012345678901234567], n)
    columns = (floats, np.full(n, -(2**63), dtype=np.int64), np.ones(n, dtype=bool),
               np.full(n, "a,b\x00c"))
    head, tail = "0.5,nan,", ",x,-0\n"
    text = compiled_cells(*columns, head=head, tail=tail)
    assert len(text) == n * (len(head) + 23 + 20 + 1 + 5 + 3 + len(tail))
    assert text == "".join(
        head + ",".join(output.format_value(v) for v in row) + tail
        for row in zip(*(c.tolist() for c in columns))
    )
    full = len(text)
    chars = np.array([23, 20, 1, 5], dtype=np.int64)
    data = np.array([c.ctypes.data for c in columns], dtype=np.uintp)
    strides = np.array([c.strides[0] for c in columns], dtype=np.int64)
    for capacity in (full, full - 1, 0):
        buffer = np.full(full + 64, 0xAB, dtype=np.uint8)
        length = _kernel.lib.levdyn_rows(4, b"fibU", chars.ctypes.data, data.ctypes.data,
                                         strides.ctypes.data, 0, n, head.encode(), len(head),
                                         tail.encode(), len(tail), buffer.ctypes.data, capacity)
        assert length == (full if capacity == full else -1)
        assert (buffer[capacity:] == 0xAB).all()


@pytest.mark.parametrize("columns", [
    (np.arange(3.0), np.arange(2)),
    (np.arange(2), np.arange(3.0)),
    (np.ones((2, 2)),),
    (np.arange(4.0), np.ones((4, 1))),
    (),
])
def test_columns_of_the_wrong_shape_raise_before_any_row(columns):
    for loops in (nullcontext, python_loops):
        buf = io.StringIO()
        with loops(), pytest.raises(ValueError, match="1-d columns of one length"):
            write_csv(buf, COLUMNS, [RowBlock((0.5,), columns, ("x",))], "deadbeef", 1)
        assert buf.getvalue().endswith(",".join(COLUMNS) + "\n")


class BreakingSink:
    """A stream whose write raises, as into a closed pipe, after ``writes``."""

    def __init__(self, writes: int) -> None:
        self.writes = writes

    def write(self, text: str) -> int:
        if self.writes == 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.writes -= 1
        return len(text)


def test_failed_write_leaves_no_pool_process():
    config = parse_config({
        "model": {"omegas": [0.5, 0.3], "pis": [0.5, 0.5]},
        "run": {"seed": 1, "transient": 50, "record": 20},
        "sweep": {"axis": "pi1", "range": [0.2, 0.8], "resolution": 6},
    })
    # the provenance lines, the header and three grid points' rows
    with pytest.raises(BrokenPipeError):
        cli.cmd_bifurcate(config, BreakingSink(5 + 3), workers=2)
    assert multiprocessing.active_children() == []


class CountingSink:
    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


def bifurcate_peak(monkeypatch, workers: int) -> tuple[int, int]:
    """The main process's tracemalloc peak while bifurcate writes 96,000
    rows of ready records, and the characters it wrote."""
    rng = np.random.default_rng(3)
    records = [
        SweepRecord(
            float(v), rng.uniform(1.0, 100.0, (240, 2)), (0, 1, 2),
            float(rng.normal()), PeriodReport(None, 1e-6, 100), 1.0, "chaotic",
        )
        for v in np.linspace(0.0, 1.0, 200)
    ]
    monkeypatch.setattr(cli, "run_sweep", lambda spec, workers: records)
    config = parse_config({
        "model": {"omegas": [0.5, 0.3], "pis": [0.5, 0.5]},
        "run": {"seed": 1, "record": 80},
        "sweep": {"axis": "pi1", "range": [0.0, 1.0], "resolution": 200},
    })
    sink = CountingSink()
    tracemalloc.start()
    try:
        assert cli.cmd_bifurcate(config, sink, workers=workers) == cli.EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 200 * 240 * 2 * 60
    return peak, sink.chars


def test_bifurcate_memory_bounded_by_one_grid_point(monkeypatch):
    for loops, workers in itertools.product((nullcontext, python_loops), (1, 2)):
        with loops():
            peak, chars = bifurcate_peak(monkeypatch, workers=workers)
        assert peak < chars / 4, (loops, workers)


#: a compiled slice, one that levdyn_rows refuses for its float below 2^-14,
#: as micro's sigma_hat_sq near 6e-8, then a compiled one again
MIXED = [
    RowBlock((1,), (np.array([0.5, 2.0]), np.arange(2)), ("x",)),
    RowBlock((2,), (np.array([6e-8, 1.0]), np.arange(2)), ("y",)),
    RowBlock((3,), (np.arange(3.0), np.arange(3)), ()),
]


def without_timestamp(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# timestamp:"))


def sink_text(sink: str, tmp_path) -> str:
    """What write_csv of MIXED leaves in ``sink``, but its timestamp line."""
    if sink == "file":
        path = tmp_path / "mixed.csv"
        with cli._open_out(str(path)) as fh:
            write_csv(fh, COLUMNS, MIXED, "deadbeef", 1)
        text = path.read_bytes().decode()
    elif sink in ("bytesio", "crlf"):
        wrapper = io.TextIOWrapper(io.BytesIO(), encoding="utf-8",
                                   newline="\r\n" if sink == "crlf" else None)
        write_csv(wrapper, COLUMNS, MIXED, "deadbeef", 1)
        text = wrapper.detach().getvalue().decode()
    else:
        buf = io.StringIO()
        write_csv(buf, COLUMNS, MIXED, "deadbeef", 1)
        text = buf.getvalue()
    return without_timestamp(text)


@pytest.mark.parametrize("sink", ["file", "bytesio", "stringio", "crlf"])
def test_compiled_and_python_slices_reach_every_sink_in_order(sink, tmp_path):
    with python_loops():
        reference = sink_text("stringio", tmp_path)
    rows = [[1, 0.5, 0, "x"], [1, 2.0, 1, "x"], [2, 6e-8, 0, "y"], [2, 1.0, 1, "y"],
            [3, 0.0, 0], [3, 1.0, 1], [3, 2.0, 2]]
    assert reference.endswith(",".join(COLUMNS) + "\n" + cell_text(rows))
    assert reference.startswith("# levdyn_version: ")
    # a sink that translates newlines does so on every line alike
    newline = "\r\n" if sink == "crlf" else "\n"
    assert sink_text(sink, tmp_path) == reference.replace("\n", newline)


def test_simulate_to_stdout_gives_the_python_loops_text(tmp_path):
    # two synchronising banks: sync_12 falls below 2^-14 within the first
    # slice of SLICE_ROWS rows, which levdyn_rows refuses, and is 0 or above
    # it in the second, which it writes
    document = {"model": {"omegas": [0.5, 0.5], "pis": [0.5, 0.5]},
                "run": {"transient": 0, "record": 10000, "initial": [50.0, 60.0]}}
    cfg = tmp_path / "sync.json"
    cfg.write_text(json.dumps(document))
    src = str(Path(cli.__file__).parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    buf = io.StringIO()
    with python_loops():
        assert cli.cmd_simulate(parse_config(document), buf) == cli.EXIT_OK
    # unbuffered, sys.stdout's buffer is the raw pipe; the text is the same
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        done = subprocess.run(
            [sys.executable, "-m", "levdyn.cli", "simulate", "--config", str(cfg)],
            env={**env, **unbuffered}, capture_output=True, check=True, timeout=120)
        assert without_timestamp(done.stdout.decode()) == without_timestamp(buf.getvalue())


def simulate_rows(config, trace: OrbitTrace) -> list[list]:
    """The cell rows simulate built before it emitted blocks."""
    n = config.model.n_banks
    rows = []
    for k in range(trace.n_recorded):
        lams = trace.recorded[k]
        sync = pair_sync(lams[0], lams[1]) if n >= 2 else 0.0
        rows.append([config.run.transient + k + 1, *(float(v) for v in lams), sync, True])
    return rows


def micro_rows(config, run) -> list[list]:
    """The cell rows micro built before it emitted blocks."""
    rows = []
    for t in range(config.micro.horizon):
        for bank in range(config.model.n_banks):
            rows.append([
                t, bank + 1,
                float(run.lambdas_stochastic[t, bank]),
                float(run.lambdas_deterministic[t, bank]),
                float(run.pi_drift_max[t]),
                float(run.phi_hat[t]),
                float(run.sigma_eps_hat_sq[t]),
            ])
    return rows


def stability_rows(config, result) -> list[list]:
    """The cell rows stability-map built before it emitted blocks."""
    rows = []
    for i, w1 in enumerate(result.omega1s):
        for j, w2 in enumerate(result.omega2s):
            rows.append([float(w1), float(w2), result.classes[i, j]])
    return rows


TWO_BANKS = {"omegas": [0.5, 0.3], "pis": [0.5, 0.5]}
MICRO = {"n_intraday": 200, "horizon": 12}

#: name: (command, the function whose result it writes, old rows, config, rows)
COMMAND_CASES = {
    "simulate": (cli.cmd_simulate, "iterate", simulate_rows, {
        "model": TWO_BANKS, "run": {"transient": 20, "record": 300, "initial": [50.0, 60.0]},
    }, 300),
    "simulate-first-step-escapes": (cli.cmd_simulate, "iterate", simulate_rows, {
        "model": {"omegas": [0.5]}, "run": {"transient": 0, "record": 10, "initial": [101.0]},
    }, 0),
    "simulate-one-bank": (cli.cmd_simulate, "iterate", simulate_rows, {
        "model": {"omegas": [0.5]}, "run": {"transient": 20, "record": 200, "initial": [50.0]},
    }, 200),
    "micro": (cli.cmd_micro, "run_micro", micro_rows, {
        "model": TWO_BANKS, "run": {"seed": 3, "initial": [50.0, 60.0]}, "micro": MICRO,
    }, 24),
    "micro-zero-noise": (cli.cmd_micro, "run_micro", micro_rows, {
        "model": TWO_BANKS, "run": {"seed": 3, "initial": [50.0, 60.0]},
        "micro": {**MICRO, "zero_noise": True},
    }, 24),
    "stability-map": (partial(cli.cmd_stability_map, workers=1), "stability_map",
                      stability_rows, {
        "model": TWO_BANKS, "run": {"seed": 4, "transient": 50, "record": 30},
        "stability": {"omega1_range": [0.1, 0.9], "omega2_range": [0.0, 1.0],
                      "resolution": [3, 4], "pi1": 0.5, "initials_per_point": 1},
    }, 12),
}


@pytest.mark.parametrize("case", sorted(COMMAND_CASES))
def test_command_blocks_match_cell_rows(case, monkeypatch):
    command, computes, old_rows, document, n_rows = COMMAND_CASES[case]
    results = []
    compute = getattr(cli, computes)

    def keep(*args, **kwargs):
        results.append(compute(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, computes, keep)
    config = parse_config(document)
    buf = io.StringIO()
    command(config, buf)
    body = "".join(buf.getvalue().splitlines(keepends=True)[5:])
    rows = old_rows(config, results[0])
    assert len(rows) == n_rows
    assert body == cell_text(rows)


def test_simulate_memory_holds_columns_not_rows(monkeypatch):
    rows = 60_000
    config = parse_config({
        "model": TWO_BANKS, "run": {"transient": 1000, "record": rows, "initial": [50.0, 60.0]},
    })
    rng = np.random.default_rng(5)
    trace = OrbitTrace(
        config.model, LeverageState.from_lambdas([50.0, 60.0], config.model), 1000,
        rng.uniform(1.0, 100.0, (rows, 2)), None,
    )
    monkeypatch.setattr(cli, "iterate", lambda *a, **k: trace)
    # small slices leave the columns simulate adds to the orbit (step,
    # sync_12 and feasible: 17 bytes a row) as the bulk of the peak
    monkeypatch.setattr(output, "SLICE_ROWS", 1024)
    sink = CountingSink()
    tracemalloc.start()
    try:
        assert cli.cmd_simulate(config, sink) == cli.EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > rows * 60
    assert peak < sink.chars / 2
