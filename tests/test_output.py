"""Block CSV emission against the per-cell reference path."""

from __future__ import annotations

import concurrent.futures
import io
import math
import multiprocessing
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levdyn import cli, output
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
    branch = np.repeat(np.array(survivors, dtype=np.int64), record)
    values = draw(st.lists(floats, min_size=branch.size * banks, max_size=branch.size * banks))
    period = draw(st.one_of(st.none(), st.integers(1, 12), st.just("aperiodic")))
    return SweepRecord(
        param_value=draw(floats),
        samples=np.array(values, dtype=np.float64).reshape(branch.size, banks),
        branch=branch,
        lyapunov_top=draw(st.one_of(st.none(), floats)),
        period=(
            None if period is None
            else PeriodReport(None if period == "aperiodic" else period, 1e-6, 100)
        ),
        survival_fraction=len(survivors) / initials,
        classification=draw(st.sampled_from(["fixed-point", "periodic", "chaotic", "infeasible"])),
    )


def csv_body(blocks, workers: int = 1) -> str:
    buf = io.StringIO()
    write_csv(buf, COLUMNS, blocks, "deadbeef", 1, workers=workers)
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
                -0.0, np.array([[5e-324, 1e308], [2.0, 0.1]]), np.array([0, 2]), None,
                None, 2 / 3, "chaotic",
            ),
            SweepRecord(0.1, np.empty((0, 2)), np.empty(0, dtype=np.int64), None, None, 0.0,
                        "infeasible"),
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
scalars = st.one_of(st.none(), st.booleans(), st.integers(-(2**63), 2**63 - 1), any_floats,
                    st.text("ab, 1.-", max_size=4))
#: (numpy dtype, cell strategy) of every column kind a RowBlock carries
COLUMN_KINDS = [
    (np.float64, any_floats),
    (np.int64, st.integers(-(2**63), 2**63 - 1)),
    (bool, st.booleans()),
    (object, scalars),
    (str, st.text("ab, 1.-", max_size=6)),
]


@st.composite
def row_blocks(draw) -> tuple[RowBlock, list[list]]:
    """A RowBlock and its rows as cells."""
    n = draw(st.integers(0, 12))
    head = draw(st.lists(scalars, max_size=3))
    tail = draw(st.lists(scalars, max_size=3))
    columns, cells = [], []
    for dtype, values in draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=3)):
        column = draw(st.lists(values, min_size=n, max_size=n))
        cells.append(column)
        columns.append(np.array(column, dtype=dtype) if n else np.empty(0, dtype=dtype))
    rows = [[*head, *row, *tail] for row in zip(*cells)]
    return RowBlock(head, columns, tail), rows


@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(row_blocks(), max_size=6), slice_rows=st.sampled_from([1, 2, 3, 5, 8192]))
def test_pool_formatting_gives_the_same_bytes(blocks, slice_rows):
    expected = cell_text(row for _, rows in blocks for row in rows)
    with patch.object(output, "SLICE_ROWS", slice_rows):
        serial = csv_body([block for block, _ in blocks])
        pooled = csv_body([block for block, _ in blocks], workers=2)
    assert serial == expected
    assert pooled == expected


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_formatting_of_long_blocks(workers):
    # blocks longer than SLICE_ROWS are cut, short ones share a task
    rng = np.random.default_rng(8)
    long = output.SLICE_ROWS * 5 // 2
    blocks = [
        RowBlock((0.5, 7), (rng.normal(size=n), np.arange(n)), ("x",))
        for n in (long, 3, 0, 1000, long, 17)
    ]
    assert csv_body(blocks, workers=workers) == csv_body(blocks)


class BreakingSink:
    """A stream whose write raises, as into a closed pipe, after ``writes``."""

    def __init__(self, writes: int) -> None:
        self.writes = writes

    def write(self, text: str) -> int:
        if self.writes == 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.writes -= 1
        return len(text)


def test_failed_write_leaves_no_pool_process(monkeypatch):
    pools = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            pools.append(1)

    monkeypatch.setattr(output, "SLICE_ROWS", 16)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    blocks = [RowBlock((float(i),), (np.linspace(0.0, 1.0, 40),), ()) for i in range(50)]
    # the provenance lines, the header and three row texts
    with pytest.raises(BrokenPipeError):
        write_csv(BreakingSink(5 + 3), COLUMNS, blocks, "deadbeef", 1, workers=2)
    assert pools == [1]
    assert multiprocessing.active_children() == []


class CountingSink:
    def __init__(self, delay: float = 0.0) -> None:
        self.chars = 0
        self.delay = delay

    def write(self, text: str) -> int:
        time.sleep(self.delay)
        self.chars += len(text)
        return len(text)


def bifurcate_peak(monkeypatch, workers: int, delay: float = 0.0) -> tuple[int, int]:
    """The main process's tracemalloc peak while bifurcate writes 96,000
    rows of ready records, each write taking ``delay`` seconds, and the
    characters it wrote."""
    rng = np.random.default_rng(3)
    records = [
        SweepRecord(
            float(v), rng.uniform(1.0, 100.0, (240, 2)), np.repeat(np.arange(3), 80),
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
    sink = CountingSink(delay)
    tracemalloc.start()
    try:
        assert cli.cmd_bifurcate(config, sink, workers=workers) == cli.EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 200 * 240 * 2 * 60
    return peak, sink.chars


def test_bifurcate_memory_bounded_by_one_grid_point(monkeypatch):
    peak, chars = bifurcate_peak(monkeypatch, workers=1)
    assert peak < chars / 4


def test_bifurcate_memory_bounded_by_the_pool_window(monkeypatch):
    # the main process holds at most TASKS_PER_WORKER * workers tasks of
    # SLICE_ROWS rows, each as its columns and then as its text; the
    # stream is slower than the pool, so an unbounded window would pile
    # up the texts of the whole file
    monkeypatch.setattr(output, "SLICE_ROWS", 1024)
    peak, chars = bifurcate_peak(monkeypatch, workers=2, delay=0.015)
    window = output.TASKS_PER_WORKER * 2 * output.SLICE_ROWS
    row_chars = chars / (200 * 240 * 2)
    assert peak < 2 * window * row_chars
    assert peak < chars / 4


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
