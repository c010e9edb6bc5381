"""The benchmark's workloads: the config each one generates from a seed,
the command that runs it in a fresh process, and the check its output
must pass.

Every workload comes in two sizes: ``full``, the figure-scale run the
benchmark measures, and ``smoke``, a tiny run of the same commands that
the benchmark's own tests use.  The seed goes into ``run.seed`` of the
generated config; nothing else about the inputs depends on it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

#: seed whose outputs and counts are pinned in golden.json
DEFAULT_SEED = 1
#: pool size of the grid commands (the benchmark machine has 2 cores)
WORKERS = 2

#: boxdim-fig7 slope window: measured 1.515; the attractor has D ~ 1.46-1.52
SLOPE_RANGE = (1.4, 1.6)
#: micro-conv: RMS gap must shrink at the CLT rate, n^(-1/2) +- 0.15
MICRO_SLOPE = (-0.5, 0.15)
MICRO_ZERO_GAP = 1e-10

CLASS_NAMES = {"fixed-point", "aperiodic", "unresolved", "infeasible"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # levdyn CLI subcommand, or "micro-conv" (bench/micro_conv.py)
    preset: str | None
    out_suffix: str
    config: Callable[[int, str], dict]  # (seed, size) -> levdyn config document
    extra_argv: Callable[[str], list[str]]
    check: Callable[[bytes, Any], str | None]
    processes: int = 1  # CPU-bound processes the workload runs at once

    def argv(self, config_path: str, out_path: str, size: str) -> list[str]:
        """Arguments after the program: levdyn CLI or bench/micro_conv.py."""
        args = [] if self.command == "micro-conv" else [self.command]
        args += ["--config", config_path, "--out", out_path]
        if self.preset is not None:
            args += ["--preset", self.preset]
        return args + self.extra_argv(size)


def prepare(argv: list[str]) -> Any:
    """What a workload's process does before its first compute call:
    parse the arguments with the CLI's parser and load, preset-merge and
    parse the config through the CLI's own loader.  micro-conv has its
    own parser and takes only the config.  Returns the ExperimentConfig."""
    from levdyn import cli, config

    if argv[0] == "--config":
        return config.load_config(argv[1])
    return cli._load(cli.build_parser().parse_args(argv))


def output_digest(data: bytes) -> str:
    """sha256 of an output with its ``# timestamp:`` line removed."""
    lines = data.split(b"\n")
    kept = [line for line in lines if not line.startswith(b"# timestamp:")]
    return hashlib.sha256(b"\n".join(kept)).hexdigest()


def _class_ok(name: str) -> bool:
    if name in CLASS_NAMES:
        return True
    prefix, _, period = name.partition("-")
    return prefix == "period" and period.isdigit()


def _csv_body(data: bytes) -> tuple[list[str], list[bytes]]:
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    start = 0
    while start < len(lines) and lines[start].startswith(b"#"):
        start += 1
    if start == len(lines):
        return [], []
    return lines[start].decode().split(","), lines[start + 1:]


def _check_fig5(data: bytes, config: Any) -> str | None:
    """Every grid point present in grid order, with the row count its
    survival fraction implies."""
    import numpy as np

    columns, rows = _csv_body(data)
    if columns[:1] != ["param_value"] or columns[-2:] != ["survival_fraction", "classification"]:
        return f"unexpected columns {columns}"
    sweep, run, banks = config.sweep, config.run, config.model.n_banks
    points: list[list] = []  # [value, rows, survival, classification]
    for line in rows:
        value, rest = line.split(b",", 1)
        if not points or points[-1][0] != value:
            tail = rest.rsplit(b",", 2)
            points.append([value, 0, float(tail[1]), tail[2].decode()])
        points[-1][1] += 1
    grid = np.linspace(sweep.bounds[0], sweep.bounds[1], sweep.resolution)
    if len(points) != len(grid):
        return f"{len(points)} grid points in output, expected {len(grid)}"
    for (value, count, survival, name), expected_value in zip(points, grid):
        if float(value) != float(expected_value):
            return f"grid point {value.decode()} out of order, expected {expected_value!r}"
        survivors = round(survival * sweep.initials_per_point)
        expected = survivors * run.record * banks if survivors else 1
        if count != expected:
            return f"point {value.decode()}: {count} rows, expected {expected}"
        if not _class_ok(name):
            return f"point {value.decode()}: unknown classification {name!r}"
    return None


def _check_stabmap(data: bytes, config: Any) -> str | None:
    """One row per cell, cells in grid order, known classifications."""
    import numpy as np

    columns, rows = _csv_body(data)
    if columns != ["omega1", "omega2", "classification"]:
        return f"unexpected columns {columns}"
    block = config.stability
    omega1s = np.linspace(*block.omega1_range, block.resolution[0])
    omega2s = np.linspace(*block.omega2_range, block.resolution[1])
    expected = [(float(a), float(b)) for a in omega1s for b in omega2s]
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for line, (w1, w2) in zip(rows, expected):
        a, b, name = line.decode().split(",")
        if (float(a), float(b)) != (w1, w2):
            return f"cell ({a}, {b}) out of order, expected ({w1!r}, {w2!r})"
        if not _class_ok(name):
            return f"cell ({a}, {b}): unknown classification {name!r}"
    return None


def _check_boxdim(data: bytes, config: Any) -> str | None:
    report = json.loads(data)
    lo, hi = SLOPE_RANGE
    if report["n_points"] != config.attractor.n_points:
        return f"{report['n_points']} points, expected {config.attractor.n_points}"
    if not lo <= report["slope"] <= hi:
        return f"box-counting slope {report['slope']:.4f} outside [{lo}, {hi}]"
    return None


def _check_micro(data: bytes, config: Any) -> str | None:
    report = json.loads(data)
    centre, spread = MICRO_SLOPE
    if not (math.isfinite(report["slope"]) and abs(report["slope"] - centre) <= spread):
        return f"RMS log-log slope {report['slope']:.4f} outside {centre} +- {spread}"
    if not report["zero_noise_gap"] < MICRO_ZERO_GAP:
        return f"zero-noise gap {report['zero_noise_gap']:.3e} not below {MICRO_ZERO_GAP}"
    return None


def _fig5_config(seed: int, size: str) -> dict:
    if size == "smoke":
        return {"run": {"seed": seed, "transient": 200, "record": 60},
                "sweep": {"resolution": 6}}
    return {"run": {"seed": seed}}


def _stabmap_config(seed: int, size: str) -> dict:
    smoke = size == "smoke"
    return {
        "model": {"omegas": [0.5, 0.3], "pis": [0.5, 0.5]},
        "run": {"transient": 200 if smoke else 1000, "record": 60 if smoke else 400,
                "seed": seed},
        "stability": {"omega1_range": [0.0, 1.0], "omega2_range": [0.0, 1.0],
                      "resolution": [4, 4] if smoke else [20, 20], "pi1": 0.5},
    }


def _boxdim_config(seed: int, size: str) -> dict:
    if size == "smoke":
        return {"run": {"seed": seed}, "attractor": {"n_points": 200_000}}
    return {"run": {"seed": seed}}


def _micro_config(seed: int, size: str) -> dict:
    return {
        "model": {"omegas": [0.8], "pis": [1.0]},
        "run": {"seed": seed, "initial": [70.0]},
        "micro": {"n_intraday": 100, "horizon": 10 if size == "smoke" else 50},
    }


def _micro_argv(size: str) -> list[str]:
    if size == "smoke":
        return ["--replicas", "4", "--n", "1000", "3000", "10000"]
    return ["--replicas", "20", "--n", "100", "1000", "10000"]


def _grid_argv(size: str) -> list[str]:
    return ["--workers", str(WORKERS)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sweep-fig5", "bifurcate", "fig5", ".csv", _fig5_config,
                 _grid_argv, _check_fig5, WORKERS),
        Workload("stabmap", "stability-map", None, ".csv", _stabmap_config,
                 _grid_argv, _check_stabmap, WORKERS),
        Workload("boxdim-fig7", "boxdim", "fig7", ".json", _boxdim_config,
                 lambda size: [], _check_boxdim),
        Workload("micro-conv", "micro-conv", None, ".json", _micro_config,
                 _micro_argv, _check_micro),
    )
}
