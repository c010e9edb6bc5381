"""Block CSV emission against the per-cell reference path."""

from __future__ import annotations

import io
import tracemalloc
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levdyn import cli, output
from levdyn.config import parse_config
from levdyn.orbits import PeriodReport
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


def csv_body(rows) -> str:
    buf = io.StringIO()
    write_csv(buf, COLUMNS, rows, "deadbeef", 1)
    return buf.getvalue().partition(",".join(COLUMNS) + "\n")[2]


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
        assert csv_body([block]) == csv_body(rows)


class CountingSink:
    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


def test_bifurcate_memory_bounded_by_one_grid_point(monkeypatch):
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
    sink = CountingSink()
    tracemalloc.start()
    try:
        assert cli.cmd_bifurcate(config, sink, workers=1) == cli.EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 200 * 240 * 2 * 60
    assert peak < sink.chars / 4
