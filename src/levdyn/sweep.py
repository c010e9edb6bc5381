"""Bifurcation and stability sweeps over the model's control parameters.

A sweep walks a grid along one axis (single-bank memory "omega", the
two-bank weight "pi1", or either two-bank memory "omega1"/"omega2"),
runs a few independently seeded initial conditions per grid point, and
records surviving asymptotic samples, the detected period, the top
Lyapunov exponent and the survival fraction.  Per-point seeds derive
from the parameter value so a refined grid reproduces coarse-grid points
exactly.

A grid point is a ``(spec, value)`` pair, and one evaluator,
``_eval_point``, gives its record on every path: it iterates each
initial, then runs ``detect_period``, ``lyapunov_top`` and ``classify``
on the first survivor.  A stability cell (omega1, omega2) is the point
omega1 of the omega1 sweep at fixed omega2.

Every orbit runs through ``iterate``, and every top exponent through
``lyapunov_top``, and so both through ``orbits._run``, the exponent as
its tangent pass; both are compiled where a C compiler is found, each
as one call of ``levdyn_orbit``, the pass with its transient.
With one worker the points run in process.  With more, the pool workers
take contiguous chunks of at most CHUNK_POINTS of them, and for a
stability map return only each cell's class.  So a record does not
depend on the worker count or the chunking, and results aggregate in
grid order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._draw import uniform
from .errors import OrbitViolationError
from .lyap import lyapunov_top
from .orbits import OrbitTrace, PeriodReport, classify, detect_period, iterate
from .params import SWEEP_AXES, LeverageState, ModelParams

#: steps used for the per-point top-exponent estimate
LYAP_STEPS = 2000
DEFAULT_P_MAX = 64
DEFAULT_PERIOD_TOL = 1e-7
#: grid points one pool task evaluates; a worker holds their samples, so
#: its memory stays bounded, and a grid splits into several chunks a
#: worker, so records come back while the workers are still computing
CHUNK_POINTS = 64


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep description.

    ``fixed`` supplies every parameter not being swept; the swept entry
    in it is ignored and replaced per grid point.  The "omega" axis
    needs a single-bank ``fixed``; the other axes need two banks.
    ``_eval_point`` reads ``axis``, ``fixed``, the run lengths and the
    seed, never ``bounds`` or ``resolution``, so any spec of the right
    axis and bank count can carry a grid point.
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

    ``samples`` stacks the recorded states of the surviving initial
    conditions, whose indices ``survivors`` lists in order, one row per
    step.  A survivor never escaped, so each is a run of equally many
    rows and no per-row label is kept.  ``lyapunov_top`` and ``period``
    come from the first survivor; both are None when every initial
    violated.
    """

    param_value: float
    samples: np.ndarray
    survivors: tuple[int, ...]
    lyapunov_top: float | None
    period: PeriodReport | None
    survival_fraction: float
    classification: str

    @property
    def branch(self) -> np.ndarray:
        """The index of the initial each row of ``samples`` came from, as int64."""
        rows = len(self.samples) // max(len(self.survivors), 1)
        return np.repeat(np.array(self.survivors, dtype=np.int64), rows)


def _point_initials(spec: SweepSpec, value: float, params: ModelParams) -> list[list[float]]:
    """The ``spec.initials_per_point`` seeded initials of grid point
    ``(spec, value)``, whose parameters are ``params``: uniform in
    [1, lambda_max]^N, drawn from the entropy [rng_seed, the bits of
    value as a float64], so refined grids reproduce shared points
    exactly, whatever their index."""
    (value_bits,) = struct.unpack("=Q", struct.pack("=d", value))
    return uniform([spec.rng_seed, value_bits], 1.0, params.lambda_max,
                   spec.initials_per_point, params.n_banks)


def _survivors(spec: SweepSpec, value: float, params: ModelParams) -> list[tuple[int, OrbitTrace]]:
    """The clean orbits of grid point ``(spec, value)``, whose parameters
    are ``params``, with the indices of the seeded initials they start
    from; infeasible initials are skipped."""
    survivors = []
    for idx, row in enumerate(_point_initials(spec, value, params)):
        state = LeverageState.from_lambdas(row, params)
        if not state.feasible:
            continue
        trace = iterate(state, params, transient=spec.transient, record=spec.record)
        if trace.survived:
            survivors.append((idx, trace))
    return survivors


def _eval_point(spec: SweepSpec, value: float) -> SweepRecord:
    """The record of grid point ``(spec, value)``, the one evaluator of
    every worker count, run in process or in a pool chunk; "infeasible"
    when no initial survived.  The period and the top exponent come from
    the first survivor, and the exponent stays None when that orbit
    escapes in the exponent run, which is longer than the recorded one."""
    params = spec.params_at(value)
    survivors = _survivors(spec, value, params)
    period = top = None
    if survivors:
        first = survivors[0][1]
        p_max = min(DEFAULT_P_MAX, first.n_recorded // 3)
        period = detect_period(first, p_max=p_max, tol=DEFAULT_PERIOD_TOL)
        try:
            top = lyapunov_top(first.initial, params, spec.transient, LYAP_STEPS, spec.rng_seed)
        except OrbitViolationError:
            pass
    return SweepRecord(
        param_value=value,
        samples=np.vstack([np.empty((0, params.n_banks)), *(t.recorded for _, t in survivors)]),
        survivors=tuple(idx for idx, _ in survivors),
        lyapunov_top=top,
        period=period,
        survival_fraction=len(survivors) / spec.initials_per_point,
        classification=classify(period, top, bool(survivors)),
    )


def _classify(spec: SweepSpec, value: float) -> str:
    """The class of grid point ``(spec, value)``, so map workers return
    no samples."""
    return _eval_point(spec, value).classification


def _map(fn: Callable, points: list[tuple[SweepSpec, float]], workers: int) -> list:
    """``fn(spec, value)`` over ``points``, in order: in process for one
    worker, else in pool chunks of contiguous points, one chunk per worker
    unless that would make a chunk longer than CHUNK_POINTS.  The pool
    forks where the platform can, whatever the default start method."""
    if workers <= 1:
        return [fn(*point) for point in points]
    # here only: the pool's import loads multiprocessing and socket
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    n = min(max(workers, -(-len(points) // CHUNK_POINTS)), len(points))
    with ProcessPoolExecutor(max_workers=min(workers, n), mp_context=context) as pool:
        return list(pool.map(fn, *zip(*points), chunksize=-(-len(points) // n)))


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRecord]:
    """Evaluate every grid point, in pool chunks when workers > 1.

    Output order is always grid order; identical spec and seed give
    identical records for any worker count.
    """
    return _map(_eval_point, [(spec, float(v)) for v in spec.grid()], workers)


@dataclass(frozen=True)
class StabilityMap:
    """Classification matrix over an (omega1, omega2) grid."""

    omega1s: np.ndarray
    omega2s: np.ndarray
    classes: np.ndarray  # shape (len(omega1s), len(omega2s)), dtype object (str entries)
    pi1: float


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
    classes = _map(_classify, points, workers)
    return StabilityMap(
        omega1s=omega1s,
        omega2s=omega2s,
        classes=np.array(classes, dtype=object).reshape(len(omega1s), len(omega2s)),
        pi1=pi1,
    )
