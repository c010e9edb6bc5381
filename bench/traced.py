"""Traced run of one workload, in a fresh process.

    PYTHONPATH=src python3 bench/traced.py WORKLOAD SIZE CONFIG OUT SPANS

Four phases, each under its own run id:

``main``    the workload itself (the levdyn CLI, or the micro-conv
            ensemble) under one root span ``run``, with a span around
            every call into a traced public function.
``replay``  for the grid workloads only: the workload's ``run_sweep`` or
            ``stability_map`` call again, with the same arguments but
            ``workers=1``, so that every grid point (``sweep._eval_point``)
            and the ``orbits`` and ``lyap`` calls inside it run in this
            process, where they are traced; calls made inside pool
            workers cannot be traced from here.  The serial result must
            equal the workload's parallel one.
``maps``    ``maps.coupled_jacobian`` at states the workload visited.
``config``  repeated argument parsing and config loading.

The spans, with the monotonic time at which ``main`` ended and the speed
reference taken right after it, go to SPANS.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

import numpy as np

import run as bench_run
import spans
import workloads
from levdyn import cli, maps, orbits, sweep
from levdyn.params import ModelParams

#: coupled_jacobian calls in the maps phase
JACOBIAN_CALLS = 5000
#: rows kept from each replayed orbit as Jacobian sample states
ROWS_PER_ORBIT = 4
#: argument-parse and config-load repetitions in the config phase
CONFIG_REPS = 30


def main() -> int:
    name, size, config_path, out_path, spans_path = sys.argv[1:6]
    workload = workloads.WORKLOADS[name]
    argv = workload.argv(config_path, out_path, size)
    if workload.command == "micro-conv":
        import micro_conv

        entry = micro_conv.main
    else:
        entry = cli.main

    tracer = spans.Tracer()
    grid_calls: list[tuple[Callable, dict, Any]] = []  # (traced function, arguments, result)
    states: list[tuple[ModelParams, np.ndarray]] = []

    def count_orbit(counts: dict, args: dict, trace: orbits.OrbitTrace) -> None:
        steps = args["transient"] + args["record"]
        counts["steps"] = trace.violation[0] if trace.violation else steps
        if tracer.run == "replay" and trace.n_recorded:
            stride = max(1, trace.n_recorded // ROWS_PER_ORBIT)
            states.append((trace.params, trace.recorded[::stride]))

    def count_tangent(counts: dict, args: dict, result: object) -> None:
        counts["tangent_steps"] = args["steps"]
        counts["transient"] = args["transient"]

    def count_sweep(counts: dict, args: dict, records: list) -> None:
        counts["points"] = len(records)
        counts["workers"] = args["workers"]
        grid_calls.append((sweep.run_sweep, args, records))

    def count_map(counts: dict, args: dict, result: sweep.StabilityMap) -> None:
        counts["points"] = int(result.classes.size)
        counts["workers"] = args["workers"]
        grid_calls.append((sweep.stability_map, args, result))

    def count_point(counts: dict, args: dict, record: sweep.SweepRecord) -> None:
        counts["initials"] = args["spec"].initials_per_point
        counts["survivors"] = round(record.survival_fraction * counts["initials"])

    def count_cloud(counts: dict, args: dict, cloud: object) -> None:
        counts["points"] = cloud.count
        counts["steps"] = args["transient"] + args["n_points"]
        stride = max(1, cloud.count // JACOBIAN_CALLS)
        states.append((cloud.params, cloud.points[::stride]))

    def count_boxes(counts: dict, args: dict, result: np.ndarray) -> None:
        counts["box_points"] = len(args["points"]) * len(args["epsilons"])

    def count_micro(counts: dict, args: dict, run: object) -> None:
        params = args["params"]
        counts["ticks"] = 0 if params.zero_noise else params.horizon * params.n_intraday
        states.append((params.base, run.lambdas_deterministic))

    tracer.install({
        ("levdyn.cli", "build_parser"): None,
        ("levdyn.config", "load_config"): None,
        ("levdyn.config", "merge_preset"): None,
        ("levdyn.config", "parse_config"): None,
        ("levdyn.sweep", "run_sweep"): count_sweep,
        ("levdyn.sweep", "stability_map"): count_map,
        ("levdyn.sweep", "_eval_point"): count_point,
        ("levdyn.orbits", "iterate"): count_orbit,
        ("levdyn.orbits", "detect_period"): None,
        ("levdyn.lyap", "lyapunov_top"): count_tangent,
        ("levdyn.lyap", "lyapunov_1d"): count_tangent,
        ("levdyn.attractor", "capture_cloud"): count_cloud,
        ("levdyn.attractor", "occupied_box_counts"): count_boxes,
        ("levdyn.attractor", "box_dimension"): None,
        ("levdyn.micro", "run_micro"): count_micro,
        ("levdyn.output", "write_csv"): None,
        ("levdyn.output", "write_json"): None,
    })

    with bench_run.Reference(workload.processes) as reference:
        with tracer.span("run"):
            exit_code = entry(argv)
        main_end = time.monotonic()
        # the speed reference right after ``main``, as after an untraced sample
        reference_after = reference()

    tracer.run = "replay"
    mismatch = None
    for traced, args, parallel in list(grid_calls):
        serial = traced(**{**args, "workers": 1})
        if grid_key(serial) != grid_key(parallel):
            mismatch = f"serial replay of {traced.__name__} differs from the workload's result"

    tracer.run = "maps"
    jacobian = tracer.wrap("maps.coupled_jacobian", maps.coupled_jacobian)
    rows = [(p, [float(x) for x in row]) for p, block in states for row in block]
    for params, lams in rows[:: max(1, len(rows) // JACOBIAN_CALLS)][:JACOBIAN_CALLS]:
        jacobian(lams, params)

    tracer.run = "config"
    for _ in range(CONFIG_REPS):
        with tracer.span("bench.config"):
            workloads.prepare(argv)

    tracer.dump(spans_path, exit_code=exit_code, main_end=main_end,
                reference_after=reference_after, mismatch=mismatch)
    return 0


def grid_key(result: list[sweep.SweepRecord] | sweep.StabilityMap) -> list:
    """A grid call's result in a form that compares by value."""
    if isinstance(result, sweep.StabilityMap):
        return result.classes.tolist()
    return [
        (repr(r.param_value), r.samples.tobytes(), r.branch.tobytes(), repr(r.lyapunov_top),
         r.period and r.period.label, r.survival_fraction, r.classification)
        for r in result
    ]


if __name__ == "__main__":
    sys.exit(main())
