"""Bifurcation and stability sweeps over the model's control parameters.

A sweep walks a grid along one axis (single-bank memory "omega", the
two-bank weight "pi1", or either two-bank memory "omega1"/"omega2"),
runs a few independently seeded initial conditions per grid point, and
records surviving asymptotic samples, the detected period, the top
Lyapunov exponent and the survival fraction.  Per-point seeds derive
from the parameter value so a refined grid reproduces coarse-grid points
exactly.

A grid point is a ``(spec, value)`` pair on every path.  A stability
cell (omega1, omega2) is the point omega1 of the omega1 sweep at fixed
omega2, on one worker and on many; pool workers return only its class.

Every orbit runs through ``iterate``, and so through ``orbits._run``,
and every top exponent through ``lyapunov_top``, and so through the
tangent pass ``lyap._top``; both are compiled where a C compiler is
found, the pass as one loop (``levdyn_top``) that steps its orbit too.
With one worker, each grid point takes the scalar reference path
(``_eval_point``: ``detect_period``, ``lyapunov_top``, ``classify``).
With more, the workers take contiguous chunks of at most CHUNK_POINTS
grid points (``_evaluate``), where the first survivors of a chunk have
their periods tested all at once and then their exponents run one by
one.  So a record is bit-identical to the scalar path's and to any other
chunking of the grid.  Results aggregate in grid order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import OrbitViolationError
from .lyap import lyapunov_top
from .orbits import OrbitTrace, PeriodReport, classify, detect_period, iterate, window_periods
from .params import SWEEP_AXES, LeverageState, ModelParams

#: steps used for the per-point top-exponent estimate
LYAP_STEPS = 2000
DEFAULT_P_MAX = 64
DEFAULT_PERIOD_TOL = 1e-7
#: grid points one pool task evaluates; a worker holds their samples, so
#: its memory stays bounded
CHUNK_POINTS = 512


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep description.

    ``fixed`` supplies every parameter not being swept; the swept entry
    in it is ignored and replaced per grid point.  The "omega" axis
    needs a single-bank ``fixed``; the other axes need two banks.
    ``_eval_point`` and ``_evaluate`` read ``axis``, ``fixed``, the run
    lengths and the seed, never ``bounds`` or ``resolution``.
    """

    axis: str
    bounds: tuple[float, float]
    resolution: int
    fixed: ModelParams
    transient: int = 1000
    record: int = 800
    initials_per_point: int = 3
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        lo, hi = self.bounds
        legal_lo, legal_hi = (0.0, 1.0)
        if not (legal_lo <= lo < hi <= legal_hi):
            raise ValueError(
                f"bounds must satisfy {legal_lo} <= lo < hi <= {legal_hi}, got {self.bounds}"
            )
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")
        if self.initials_per_point < 1:
            raise ValueError("initials_per_point must be >= 1")
        if self.transient < 0 or self.record < 3:
            raise ValueError("need transient >= 0 and record >= 3")
        n_needed = 1 if self.axis == "omega" else 2
        if self.fixed.n_banks != n_needed:
            raise ValueError(
                f"axis {self.axis!r} needs {n_needed} bank(s), fixed has {self.fixed.n_banks}"
            )

    def grid(self) -> np.ndarray:
        lo, hi = self.bounds
        return np.linspace(lo, hi, self.resolution)

    def params_at(self, value: float) -> ModelParams:
        base = self.fixed
        if self.axis == "omega":
            return replace(base, omegas=(value,), pis=(1.0,))
        if self.axis == "pi1":
            return replace(base, pis=(value, 1.0 - value))
        if self.axis == "omega1":
            return replace(base, omegas=(value, base.omegas[1]))
        return replace(base, omegas=(base.omegas[0], value))


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a sweep.

    ``samples`` stacks the recorded states of every surviving initial
    condition, one row per step, ``branch[r]`` naming the initial the
    row came from.  ``lyapunov_top`` and ``period`` come from the first
    surviving initial; both are None when every initial violated.
    """

    param_value: float
    samples: np.ndarray
    branch: np.ndarray
    lyapunov_top: float | None
    period: PeriodReport | None
    survival_fraction: float
    classification: str


def _point_rng(rng_seed: int, value: float) -> np.random.Generator:
    # seed from the parameter value, not the grid index, so refined grids
    # reproduce shared points exactly
    value_bits = int(np.float64(value).view(np.uint64))
    return np.random.default_rng([rng_seed, value_bits])


def _top_exponent(
    initial: LeverageState, params: ModelParams, transient: int, rng_seed: int
) -> float | None:
    """The top exponent from ``initial``; None when the orbit escapes in
    the exponent run, which is longer than the recorded one."""
    try:
        return lyapunov_top(initial, params, transient, LYAP_STEPS, rng_seed)
    except OrbitViolationError:
        return None


def _survivors(spec: SweepSpec, value: float, params: ModelParams) -> list[tuple[int, OrbitTrace]]:
    """The clean orbits of grid point ``(spec, value)``, whose parameters
    are ``params``, with the indices of the seeded initials they start
    from; infeasible initials are skipped."""
    draws = _point_rng(spec.rng_seed, value).uniform(
        1.0, params.lambda_max, size=(spec.initials_per_point, params.n_banks)
    )
    survivors = []
    for idx, row in enumerate(draws):
        state = LeverageState.from_lambdas(row, params)
        if not state.feasible:
            continue
        trace = iterate(state, params, transient=spec.transient, record=spec.record)
        if trace.survived:
            survivors.append((idx, trace))
    return survivors


def _record(
    value: float,
    n_banks: int,
    survivors: list[tuple[int, OrbitTrace]],
    initials_per_point: int,
    period: PeriodReport | None = None,
    top: float | None = None,
) -> SweepRecord:
    """A grid point's record; "infeasible" when nothing survived."""
    return SweepRecord(
        param_value=value,
        samples=np.vstack([np.empty((0, n_banks)), *(t.recorded for _, t in survivors)]),
        branch=np.repeat(np.array([idx for idx, _ in survivors], dtype=np.int64),
                         [trace.n_recorded for _, trace in survivors]),
        lyapunov_top=top,
        period=period,
        survival_fraction=len(survivors) / initials_per_point,
        classification=classify(period, top, bool(survivors)),
    )


def _eval_point(spec: SweepSpec, value: float) -> SweepRecord:
    """One grid point by the scalar reference path."""
    params = spec.params_at(value)
    survivors = _survivors(spec, value, params)
    period = top = None
    if survivors:
        first = survivors[0][1]
        p_max = min(DEFAULT_P_MAX, first.n_recorded // 3)
        period = detect_period(first, p_max=p_max, tol=DEFAULT_PERIOD_TOL)
        top = _top_exponent(first.initial, params, spec.transient, spec.rng_seed)
    return _record(value, params.n_banks, survivors, spec.initials_per_point, period, top)


def _evaluate(points: Sequence[tuple[SweepSpec, float]]) -> list[SweepRecord]:
    """``_eval_point`` on the ``(spec, value)`` points, in order.

    Precondition: the specs share the run lengths and the seed, and the
    points share the bank count, as the points of one grid do; the period
    test and the exponents take the first spec's.
    """
    spec = points[0][0]
    params = [s.params_at(v) for s, v in points]
    records = []
    # each surviving point's first initial; the rows of its orbit lead the
    # point's samples, so no trace is held past its point
    firsts: dict[int, LeverageState] = {}
    for point, ((point_spec, value), p) in enumerate(zip(points, params)):
        survivors = _survivors(point_spec, value, p)
        records.append(_record(value, p.n_banks, survivors, point_spec.initials_per_point))
        if survivors:
            firsts[point] = survivors[0][1].initial
    if not firsts:
        return records
    periods = window_periods(
        np.stack([records[point].samples[:spec.record] for point in firsts]),
        min(DEFAULT_P_MAX, spec.record // 3), DEFAULT_PERIOD_TOL,
    )
    for (point, first), period in zip(firsts.items(), periods):
        top = _top_exponent(first, params[point], spec.transient, spec.rng_seed)
        records[point] = replace(
            records[point], lyapunov_top=top, period=period,
            classification=classify(period, top, True),
        )
    return records


def _in_chunks(fn: Callable[[list], list], points: list, workers: int) -> list:
    """``fn`` over contiguous chunks of ``points``, at least one per
    worker and at most CHUNK_POINTS long, concatenated in order."""
    n = min(max(workers, -(-len(points) // CHUNK_POINTS)), len(points))
    chunks = [points[len(points) * i // n : len(points) * (i + 1) // n] for i in range(n)]
    with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
        return [out for part in pool.map(fn, chunks) for out in part]


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRecord]:
    """Evaluate every grid point, in parallel batches when workers > 1.

    Output order is always grid order; identical spec and seed give
    identical records for any worker count.
    """
    points = [(spec, float(v)) for v in spec.grid()]
    if workers <= 1:
        return [_eval_point(*point) for point in points]
    return _in_chunks(_evaluate, points, workers)


@dataclass(frozen=True)
class StabilityMap:
    """Classification matrix over an (omega1, omega2) grid."""

    omega1s: np.ndarray
    omega2s: np.ndarray
    classes: np.ndarray  # shape (len(omega1s), len(omega2s)), dtype object (str entries)
    pi1: float


def _classes(points: list[tuple[SweepSpec, float]]) -> list[str]:
    """The classes of ``_evaluate``'s records, so workers return no samples."""
    return [record.classification for record in _evaluate(points)]


def stability_map(
    omega1s: np.ndarray,
    omega2s: np.ndarray,
    pi1: float,
    params: ModelParams,
    transient: int = 1000,
    record: int = 400,
    initials_per_point: int = 3,
    rng_seed: int = 0,
    workers: int = 1,
) -> StabilityMap:
    """Classify each cell of an (omega1, omega2) grid at fixed pi1.

    Cell (omega1, omega2) is the grid point omega1 of the omega1 sweep at
    fixed omega2, so it draws its initials as that sweep point would.
    """
    omega1s = np.asarray(omega1s, dtype=float)
    omega2s = np.asarray(omega2s, dtype=float)
    if omega1s.size < 2 or omega2s.size < 2:
        raise ValueError("stability map needs at least a 2 x 2 grid")
    columns = [
        SweepSpec(
            axis="omega1",
            bounds=(0.0, 1.0),
            resolution=2,
            fixed=replace(params, omegas=(0.5, float(w2)), pis=(pi1, 1.0 - pi1)),
            transient=transient,
            record=record,
            initials_per_point=initials_per_point,
            rng_seed=rng_seed,
        )
        for w2 in omega2s
    ]
    points = [(column, float(w1)) for w1 in omega1s for column in columns]
    if workers <= 1:
        classes = [_eval_point(*point).classification for point in points]
    else:
        classes = _in_chunks(_classes, points, workers)
    return StabilityMap(
        omega1s=omega1s,
        omega2s=omega2s,
        classes=np.array(classes, dtype=object).reshape(len(omega1s), len(omega2s)),
        pi1=pi1,
    )
