"""Bifurcation and stability sweeps over the model's control parameters.

A sweep walks a grid along one axis (single-bank memory "omega", the
two-bank weight "pi1", or either two-bank memory "omega1"/"omega2"),
runs a few independently seeded initial conditions per grid point, and
records surviving asymptotic samples, the detected period, the top
Lyapunov exponent and the survival fraction.  Per-point seeds derive
from the parameter value so a refined grid reproduces coarse-grid points
exactly.

With one worker, each grid point runs the scalar reference path
(``_eval_point``: ``iterate``, ``detect_period``, ``lyapunov_top`` or
``lyapunov_1d``, ``classify``).  With more, each worker takes one
contiguous chunk of the grid and evaluates it in batches: every
(grid point, initial) pair of a batch is one lane, and all lanes advance
together in numpy arrays.  Both batched passes, the orbit and the
tangent (for every bank count), advance their lanes through one step,
``_step``: ``orbits._run``'s update with its three checks in its order,
so a lane stops where ``iterate`` would.  The tangent pass forms its
Jacobians with ``maps.step_jacobian``, as the scalar exponents do.  The
batched arithmetic repeats the scalar path operation for operation, so a
record is bit-identical to it and to any other chunking of the grid.
Results aggregate in grid order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import OrbitViolationError
from .lyap import lyapunov_1d, lyapunov_top
from .maps import step_jacobian
from .orbits import PeriodReport, classify, detect_period, iterate, window_periods
from .params import SWEEP_AXES, LeverageState, ModelParams, mean_field

#: steps used for the per-point top-exponent estimate
LYAP_STEPS = 2000
DEFAULT_P_MAX = 64
DEFAULT_PERIOD_TOL = 1e-7
#: lanes a batch advances together, which bounds a worker's recorded
#: states at BATCH_LANES x record x banks floats
BATCH_LANES = 2048


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


def _eval_point(spec: SweepSpec, value: float) -> SweepRecord:
    """One grid point by the scalar reference path."""
    params = spec.params_at(value)
    rng = _point_rng(spec.rng_seed, value)
    draws = rng.uniform(
        1.0, params.lambda_max, size=(spec.initials_per_point, params.n_banks)
    )
    kept: list[np.ndarray] = []
    branch: list[np.ndarray] = []
    first_trace = None
    first_initial: LeverageState | None = None
    for idx, row in enumerate(draws):
        state = LeverageState.from_lambdas(row, params)
        if not state.feasible:
            continue
        trace = iterate(state, params, transient=spec.transient, record=spec.record)
        if not trace.survived:
            continue
        kept.append(trace.recorded)
        branch.append(np.full(trace.n_recorded, idx, dtype=np.int64))
        if first_trace is None:
            first_trace = trace
            first_initial = state

    if first_trace is None:
        return _infeasible(value, params.n_banks)
    p_max = min(DEFAULT_P_MAX, first_trace.n_recorded // 3)
    period = detect_period(first_trace, p_max=p_max, tol=DEFAULT_PERIOD_TOL)
    top = _top_exponent(first_initial, params, spec.transient, spec.rng_seed)
    return SweepRecord(
        param_value=value,
        samples=np.vstack(kept),
        branch=np.concatenate(branch),
        lyapunov_top=top,
        period=period,
        survival_fraction=len(kept) / spec.initials_per_point,
        classification=classify(period, top, True),
    )


def _infeasible(value: float, n_banks: int) -> SweepRecord:
    return SweepRecord(
        param_value=value,
        samples=np.empty((0, n_banks)),
        branch=np.empty(0, dtype=np.int64),
        lyapunov_top=None,
        period=None,
        survival_fraction=0.0,
        classification="infeasible",
    )


def _step(
    lams: np.ndarray,
    m: np.ndarray,
    alive: np.ndarray,
    omegas: np.ndarray,
    pis: np.ndarray,
    model: ModelParams,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of ``orbits._run`` on every lane of ``lams`` (lanes x
    banks), whose mean fields are ``m``.

    Clears ``alive`` where ``_run`` stops, with its three checks in its
    order, and pins the leverages of a lane that has died at 1.  A
    single-bank lane steps with pi = 1, since 0.0 + 1.0 * x is x.
    Returns the new states and their mean fields.
    """
    alive &= m < model.lambda_max
    d = 1.0 + model.gamma - m
    kernel = model.coupling_coef / (d * d)
    new = 1.0 / np.sqrt(omegas / (lams * lams) + (1.0 - omegas) * kernel[:, None])
    alive &= ~(new < 1.0).any(axis=1)
    new[~alive] = 1.0
    m = mean_field(new.T, pis.T)
    alive &= ~(m > model.lambda_max)
    return new, m


def _orbit_pass(
    lams: np.ndarray,
    omegas: np.ndarray,
    pis: np.ndarray,
    alive: np.ndarray,
    model: ModelParams,
    transient: int,
    record: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``orbits._run`` on every lane of ``lams`` (lanes x banks) at once.

    Clears ``alive`` at each lane's first violation.  Returns the state
    at step ``transient`` and the recorded states, shaped (record,
    lanes, banks).
    """
    start = lams
    recorded = np.empty((record, *lams.shape))
    m = mean_field(lams.T, pis.T)
    for step in range(1, transient + record + 1):
        lams, m = _step(lams, m, alive, omegas, pis, model)
        if step == transient:
            start = lams
        elif step > transient:
            recorded[step - transient - 1] = lams
    return start, recorded


def _logs(values: np.ndarray) -> np.ndarray:
    # math.log lane by lane: np.log is not correctly rounded everywhere
    return np.fromiter(map(math.log, values.tolist()), float, len(values))


def _tangent_pass(
    lams: np.ndarray,
    omegas: np.ndarray,
    pis: np.ndarray,
    model: ModelParams,
    steps: int,
    v0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``lyapunov_top``'s tangent loop on every lane, from the states
    ``lams`` reached after the transient.

    The stacked ``np.matmul`` calls run the same BLAS kernels per lane
    as ``jac @ v`` and ``np.linalg.norm(v)`` do.  On one bank the vector
    stays exactly +-1 and its norm is |T'|, so the sum is
    ``lyapunov_1d``'s.  Returns the summed log growth, whether each lane
    stayed feasible, and whether its tangent norm ever hit 0.
    """
    q, n = lams.shape
    v = np.tile(v0, (q, 1))[:, :, None]
    total = np.zeros(q)
    ok = np.ones(q, dtype=bool)
    vanished = np.zeros(q, dtype=bool)
    m = mean_field(lams.T, pis.T)
    for _ in range(steps):
        new, m = _step(lams, m, ok, omegas, pis, model)
        v = np.matmul(step_jacobian(lams, new, omegas, pis, model), v)
        lams = new
        norm = np.sqrt(np.matmul(v.reshape(q, 1, n), v)).reshape(q)
        grew = norm > 0.0
        vanished |= ok & ~grew
        norm[~grew] = 1.0
        total += _logs(norm)
        v /= norm[:, None, None]
        v[~ok] = 1.0
    return total, ok, vanished


def _evaluate(
    values: Sequence[float],
    params: Sequence[ModelParams],
    transient: int,
    record: int,
    initials_per_point: int,
    rng_seed: int,
) -> Iterator[SweepRecord]:
    """Records of the grid points ``params`` in order, evaluated in
    batches of at most BATCH_LANES lanes.

    ``values[i]`` is point i's parameter value, which seeds its initials.
    All points share alpha, gamma, sigma_eps_sq and the bank count.
    """
    size = max(1, BATCH_LANES // initials_per_point)
    for lo in range(0, len(values), size):
        yield from _evaluate_batch(
            values[lo : lo + size], params[lo : lo + size],
            transient, record, initials_per_point, rng_seed,
        )


def _evaluate_batch(
    values: Sequence[float],
    params: Sequence[ModelParams],
    transient: int,
    record: int,
    initials_per_point: int,
    rng_seed: int,
) -> Iterator[SweepRecord]:
    """``_eval_point`` on every point of one batch at once.

    The exponent of each point's first survivor starts from the state
    the orbit pass reached at step ``transient``.
    """
    model = params[0]
    k = initials_per_point
    n = model.n_banks
    draws = np.concatenate([
        _point_rng(rng_seed, v).uniform(1.0, model.lambda_max, size=(k, n))
        for v in values
    ])
    omegas = np.repeat([p.omegas for p in params], k, axis=0)
    pis = np.repeat([p.pis for p in params], k, axis=0)
    # LeverageState.feasible, lane by lane
    alive = (draws >= 1.0).all(axis=1) & (mean_field(draws.T, pis.T) <= model.lambda_max)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        start, recorded = _orbit_pass(draws, omegas, pis, alive, model, transient, record)
        survivors = alive.reshape(len(values), k)
        firsts = np.flatnonzero(survivors.any(axis=1))
        lanes = firsts * k + survivors[firsts].argmax(axis=1)
        # an all-infeasible batch has no exponent to run
        steps = LYAP_STEPS if lanes.size else 0
        total, ok, vanished = _tangent_pass(
            start[lanes], omegas[lanes], pis[lanes], model, steps,
            _tangent_start(rng_seed, n),
        )
    periods = window_periods(
        recorded[:, lanes].transpose(1, 0, 2),
        min(DEFAULT_P_MAX, record // 3),
        DEFAULT_PERIOD_TOL,
    )
    found: dict[int, tuple[PeriodReport, float | None]] = {}
    for point, lane, period, top, fine, vanish in zip(
        firsts.tolist(), lanes.tolist(), periods,
        (total / LYAP_STEPS).tolist(), ok.tolist(), vanished.tolist(),
    ):
        if vanish:
            # a vanished tangent takes the scalar path, which redraws it
            # (lyapunov_top) or floors its log (lyapunov_1d)
            initial = LeverageState.from_lambdas(draws[lane], params[point])
            top = _top_exponent(initial, params[point], transient, rng_seed)
        elif not fine:
            # orbit escaped in the longer exponent run; leave the exponent open
            top = None
        found[point] = (period, top)

    for point, value in enumerate(values):
        if point not in found:
            yield _infeasible(value, n)
            continue
        period, top = found[point]
        kept = np.flatnonzero(survivors[point])
        yield SweepRecord(
            param_value=value,
            samples=recorded[:, point * k + kept].transpose(1, 0, 2).reshape(-1, n),
            branch=np.repeat(kept.astype(np.int64), record),
            lyapunov_top=top,
            period=period,
            survival_fraction=len(kept) / k,
            classification=classify(period, top, True),
        )


def _tangent_start(rng_seed: int, n: int) -> np.ndarray:
    # lyapunov_top's first tangent vector
    v = np.random.default_rng(rng_seed).standard_normal(n)
    return v / np.linalg.norm(v)


def _in_chunks(
    fn: Callable[..., list], items: list, workers: int, *args: Any
) -> list:
    """``fn(chunk, *args)`` over one contiguous chunk of ``items`` per
    worker, one pool process each, concatenated in order."""
    n = min(workers, len(items))
    chunks = [items[len(items) * i // n : len(items) * (i + 1) // n] for i in range(n)]
    with ProcessPoolExecutor(max_workers=n) as pool:
        parts = pool.map(fn, chunks, *(repeat(a) for a in args))
        return [out for part in parts for out in part]


def _eval_chunk(values: list[float], spec: SweepSpec) -> list[SweepRecord]:
    params = [spec.params_at(v) for v in values]
    return list(_evaluate(
        values, params, spec.transient, spec.record, spec.initials_per_point, spec.rng_seed
    ))


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
