"""Bifurcation and stability sweeps over the model's control parameters.

A sweep walks a grid along one axis (single-bank memory "omega", the
two-bank weight "pi1", or either two-bank memory "omega1"/"omega2"),
runs a few independently seeded initial conditions per grid point, and
records surviving asymptotic samples, the detected period, the top
Lyapunov exponent and the survival fraction.  Per-point seeds derive
from the parameter value so a refined grid reproduces coarse-grid points
exactly.

Every orbit runs through ``iterate``, and so through ``orbits._run``,
compiled where a C compiler is found.  With one worker, each grid point
takes the scalar reference path (``_eval_point``: ``detect_period``,
``lyapunov_top`` or ``lyapunov_1d``, ``classify``).  With more, the
workers take contiguous chunks of at most CHUNK_POINTS grid points
(``_evaluate``).  A chunk's first survivors have their periods tested
all at once and their top exponents run in lockstep: every lane reads
its Jacobians from ``lyap._window_jacobians``, as ``lyapunov_top``
does, and advances its tangent vector through stacked ``np.matmul``
calls.  That arithmetic repeats the scalar path operation for
operation, so a record is bit-identical to it and to any other chunking
of the grid.  Results aggregate in grid order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Any, Callable, Sequence

import numpy as np

from . import lyap
from .errors import OrbitViolationError
from .lyap import lyapunov_1d, lyapunov_top
from .orbits import OrbitTrace, PeriodReport, classify, detect_period, iterate, window_periods
from .params import SWEEP_AXES, LeverageState, ModelParams

#: steps used for the per-point top-exponent estimate
LYAP_STEPS = 2000
DEFAULT_P_MAX = 64
DEFAULT_PERIOD_TOL = 1e-7
#: grid points one pool task evaluates; a worker holds their samples and
#: a block of their lockstep exponents, so its memory stays bounded
CHUNK_POINTS = 512


def _check_run_lengths(transient: int, record: int, initials_per_point: int) -> None:
    if initials_per_point < 1:
        raise ValueError("initials_per_point must be >= 1")
    if transient < 0 or record < 3:
        raise ValueError("need transient >= 0 and record >= 3")


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep description.

    ``fixed`` supplies every parameter not being swept; the swept entry
    in it is ignored and replaced per grid point.  The "omega" axis
    needs a single-bank ``fixed``; the other axes need two banks.
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
        _check_run_lengths(self.transient, self.record, self.initials_per_point)
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
    """The scalar top exponent from ``initial``; None when the orbit
    escapes in the exponent run, which is longer than the recorded one."""
    try:
        if params.n_banks == 1:
            return lyapunov_1d(
                params.omegas[0],
                params,
                x0=float(initial.lambdas[0]),
                transient=transient,
                steps=LYAP_STEPS,
            ).top
        return lyapunov_top(
            initial, params, transient=transient, steps=LYAP_STEPS, seed=rng_seed
        )
    except OrbitViolationError:
        return None


def _survivors(
    value: float,
    params: ModelParams,
    transient: int,
    record: int,
    initials_per_point: int,
    rng_seed: int,
) -> list[tuple[int, OrbitTrace]]:
    """The clean orbits of grid point ``value``, with the indices of the
    seeded initials they start from; infeasible initials are skipped."""
    draws = _point_rng(rng_seed, value).uniform(
        1.0, params.lambda_max, size=(initials_per_point, params.n_banks)
    )
    survivors = []
    for idx, row in enumerate(draws):
        state = LeverageState.from_lambdas(row, params)
        if not state.feasible:
            continue
        trace = iterate(state, params, transient=transient, record=record)
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
    survivors = _survivors(
        value, params, spec.transient, spec.record, spec.initials_per_point, spec.rng_seed
    )
    period = top = None
    if survivors:
        first = survivors[0][1]
        p_max = min(DEFAULT_P_MAX, first.n_recorded // 3)
        period = detect_period(first, p_max=p_max, tol=DEFAULT_PERIOD_TOL)
        top = _top_exponent(first.initial, params, spec.transient, spec.rng_seed)
    return _record(value, params.n_banks, survivors, spec.initials_per_point, period, top)


def _logs(values: np.ndarray) -> np.ndarray:
    # math.log lane by lane: np.log is not correctly rounded everywhere
    return np.fromiter(map(math.log, values.tolist()), float, len(values))


def _top_exponents(
    initials: Sequence[LeverageState],
    params: Sequence[ModelParams],
    transient: int,
    rng_seed: int,
) -> list[float | None]:
    """``_top_exponent`` from every initial state, one lane a state, with
    ``lyapunov_top``'s tangent loops run in lockstep.

    Each round reads one block of every lane's Jacobians from
    ``lyap._window_jacobians``, as ``lyapunov_top`` does, into one reused
    buffer; a lane whose orbit escapes raises there and keeps no exponent.
    The stacked ``np.matmul`` calls run the same BLAS kernels per lane as
    ``jac @ v`` and ``np.linalg.norm(v)``.  On one bank the vector stays
    exactly +-1 and its norm is |T'|, so the sum is ``lyapunov_1d``'s.
    """
    blocks = [
        lyap._window_jacobians(list(s.lambdas), p, transient, LYAP_STEPS)
        for s, p in zip(initials, params)
    ]
    q, n = len(initials), params[0].n_banks
    v = np.tile(_tangent_start(rng_seed, n), (q, 1))[:, :, None]
    total = np.zeros(q)
    vanished = np.zeros(q, dtype=bool)
    live = list(range(q))
    buf = np.empty((min(lyap.BLOCK_STEPS, LYAP_STEPS), q, n, n))
    for done in range(0, LYAP_STEPS, lyap.BLOCK_STEPS):
        jacs = buf[: min(lyap.BLOCK_STEPS, LYAP_STEPS - done)]
        kept = []
        for lane in live:
            try:
                jacs[:, len(kept)] = next(blocks[lane])
                kept.append(lane)
            except OrbitViolationError:
                pass
        live = kept
        if not live:
            break
        u, acc, hit = v[live], total[live], vanished[live]
        for jac in jacs[:, : len(live)]:
            u = np.matmul(jac, u)
            norm = np.sqrt(np.matmul(u.reshape(len(live), 1, n), u)).reshape(len(live))
            grew = norm > 0.0
            hit |= ~grew
            norm[~grew] = 1.0
            acc += _logs(norm)
            u /= norm[:, None, None]
        v[live], total[live], vanished[live] = u, acc, hit
    tops: list[float | None] = [None] * q
    for lane in live:
        # a vanished tangent takes the scalar path, which redraws it
        # (lyapunov_top) or floors its log (lyapunov_1d)
        tops[lane] = (
            _top_exponent(initials[lane], params[lane], transient, rng_seed)
            if vanished[lane] else float(total[lane]) / LYAP_STEPS
        )
    return tops


def _evaluate(
    values: Sequence[float],
    params: Sequence[ModelParams],
    transient: int,
    record: int,
    initials_per_point: int,
    rng_seed: int,
) -> list[SweepRecord]:
    """``_eval_point`` on the grid points ``params``, in order.

    ``values[i]`` is point i's parameter value, which seeds its initials.
    All points share alpha, gamma, sigma_eps_sq and the bank count.
    """
    records = []
    # each surviving point's first initial; the rows of its orbit lead the
    # point's samples, so no trace is held past its point
    firsts: dict[int, LeverageState] = {}
    for point, (value, p) in enumerate(zip(values, params)):
        survivors = _survivors(value, p, transient, record, initials_per_point, rng_seed)
        records.append(_record(value, p.n_banks, survivors, initials_per_point))
        if survivors:
            firsts[point] = survivors[0][1].initial
    if not firsts:
        return records
    periods = window_periods(
        np.stack([records[point].samples[:record] for point in firsts]),
        min(DEFAULT_P_MAX, record // 3), DEFAULT_PERIOD_TOL,
    )
    tops = _top_exponents(list(firsts.values()), [params[p] for p in firsts], transient, rng_seed)
    for point, period, top in zip(firsts, periods, tops):
        records[point] = replace(
            records[point], lyapunov_top=top, period=period,
            classification=classify(period, top, True),
        )
    return records


def _tangent_start(rng_seed: int, n: int) -> np.ndarray:
    # lyapunov_top's first tangent vector
    v = np.random.default_rng(rng_seed).standard_normal(n)
    return v / np.linalg.norm(v)


def _in_chunks(
    fn: Callable[..., list], items: list, workers: int, *args: Any
) -> list:
    """``fn(chunk, *args)`` over contiguous chunks of ``items``, at least
    one per worker and at most CHUNK_POINTS long, concatenated in order."""
    n = min(max(workers, -(-len(items) // CHUNK_POINTS)), len(items))
    chunks = [items[len(items) * i // n : len(items) * (i + 1) // n] for i in range(n)]
    with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
        parts = pool.map(fn, chunks, *(repeat(a) for a in args))
        return [out for part in parts for out in part]


def _eval_chunk(values: list[float], spec: SweepSpec) -> list[SweepRecord]:
    params = [spec.params_at(v) for v in values]
    return _evaluate(
        values, params, spec.transient, spec.record, spec.initials_per_point, spec.rng_seed
    )


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRecord]:
    """Evaluate every grid point, in parallel batches when workers > 1.

    Output order is always grid order; identical spec and seed give
    identical records for any worker count.
    """
    values = [float(v) for v in spec.grid()]
    if workers <= 1:
        return [_eval_point(spec, v) for v in values]
    return _in_chunks(_eval_chunk, values, workers, spec)


@dataclass(frozen=True)
class StabilityMap:
    """Classification matrix over an (omega1, omega2) grid."""

    omega1s: np.ndarray
    omega2s: np.ndarray
    classes: np.ndarray  # shape (len(omega1s), len(omega2s)), dtype str
    pi1: float


def _classify_cells(
    cells: list[tuple[float, float]],
    base: ModelParams,
    transient: int,
    record: int,
    initials_per_point: int,
    rng_seed: int,
) -> list[str]:
    params = [replace(base, omegas=cell) for cell in cells]
    records = _evaluate(
        [w1 for w1, _ in cells], params, transient, record, initials_per_point, rng_seed
    )
    return [r.classification for r in records]


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
    base = replace(params, omegas=(0.5, 0.5), pis=(pi1, 1.0 - pi1))
    _check_run_lengths(transient, record, initials_per_point)
    if workers <= 1:
        columns = [
            SweepSpec(
                axis="omega1",
                bounds=(0.0, 1.0),
                resolution=2,
                fixed=replace(base, omegas=(0.5, float(w2))),
                transient=transient,
                record=record,
                initials_per_point=initials_per_point,
                rng_seed=rng_seed,
            )
            for w2 in omega2s
        ]
        classes = [
            _eval_point(column, float(w1)).classification
            for w1 in omega1s for column in columns
        ]
    else:
        cells = [(float(w1), float(w2)) for w1 in omega1s for w2 in omega2s]
        classes = _in_chunks(
            _classify_cells, cells, workers,
            base, transient, record, initials_per_point, rng_seed,
        )
    return StabilityMap(
        omega1s=omega1s,
        omega2s=omega2s,
        classes=np.array(classes, dtype=object).reshape(len(omega1s), len(omega2s)),
        pi1=pi1,
    )
