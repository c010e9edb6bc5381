"""Orbit iteration with transient handling, constraint monitoring,
synchronization metrics and periodicity detection.

Iteration follows the discard protocol used throughout the model's
numerical experiments: a transient prefix is dropped, a fixed window is
recorded, and any step that violates the leverage floor (lambda_i >= 1)
or the stationarity bound (mean field < 1 + gamma) truncates the run.
Violations are data, not exceptions: the trace records where and why
the orbit left the feasible region so survival statistics stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .errors import InsufficientTraceError, OrbitViolationError
from .params import LeverageState, ModelParams

#: constraint names used in violation records
LEVERAGE_FLOOR = "leverage_floor"
AR1_STATIONARITY = "ar1_stationarity"
#: the compiled loop's violation codes
_CONSTRAINTS = {1: LEVERAGE_FLOOR, 2: AR1_STATIONARITY}

#: exponent threshold above which an unresolved period counts as aperiodic
APERIODIC_EXPONENT_MIN = 1e-3


@dataclass(frozen=True)
class OrbitTrace:
    """A recorded trajectory of the coupled map.

    ``recorded`` holds one row per post-transient step, truncated at the
    first violating step (the violating state itself is not recorded).
    ``violation`` is None for a clean run, else (step index, constraint
    name) with steps counted from 1 at the first map application.
    """

    params: ModelParams
    initial: LeverageState
    transient_len: int
    recorded: np.ndarray
    violation: tuple[int, str] | None

    @property
    def survived(self) -> bool:
        return self.violation is None

    @property
    def n_recorded(self) -> int:
        return int(self.recorded.shape[0])


@dataclass(frozen=True)
class PeriodReport:
    """Detected minimal period, or None when no period passed the test.

    A reported period p means every pair of states p steps apart agrees
    componentwise within ``tol`` across the whole verification window,
    and no smaller lag does.
    """

    period: int | None
    tol: float
    window: int

    @property
    def aperiodic(self) -> bool:
        return self.period is None

    @property
    def label(self) -> str:
        return "aperiodic" if self.period is None else str(self.period)


def _run(
    lambdas: list[float],
    params: ModelParams,
    transient: int,
    record: int,
) -> tuple[np.ndarray, tuple[int, str] | None]:
    """Shared iteration core: python-float inner loop for small N.

    Arithmetic matches maps.advance term for term (mean field
    accumulated left to right, kernel formed once per step) so traces
    and map evaluations agree bitwise.  This is the escape protocol of
    every scalar analysis: step k stops the run if the state it starts
    from has mean field at or above 1 + gamma, if a new leverage is
    below 1, or if the new mean field is above 1 + gamma.  A state
    exactly on the bound is recorded but cannot be advanced.

    The loop runs compiled (``levdyn_run`` in ``_kernel.c``) when that
    loaded.  The Python loop below is its reference.  It runs where no
    C compiler is found, and where the compiled loop stops at a step on
    which Python raises ZeroDivisionError, to raise it.
    """
    n = len(lambdas)
    if n != params.n_banks:
        raise ValueError(f"state has {n} leverages, params have {params.n_banks} banks")
    gamma = params.gamma
    lam_max = params.lambda_max
    coef = params.coupling_coef
    omegas = params.omegas
    pis = params.pis
    recorded = np.empty((record, n))
    lib = _kernel.lib
    if lib is not None:
        lams, w, p = (np.array(a, dtype=float) for a in (lambdas, omegas, pis))
        out = np.zeros(2, dtype=np.int64)
        code = lib.levdyn_run(n, lams.ctypes.data, w.ctypes.data, p.ctypes.data, gamma,
                              lam_max, coef, transient, record, recorded.ctypes.data,
                              out.ctypes.data)
        if code != _kernel.DEFER:
            violation = (int(out[1]), _CONSTRAINTS[code]) if code else None
            return recorded[:out[0]], violation
    kept = 0
    violation = None
    lams = list(lambdas)
    sqrt = math.sqrt
    m = 0.0
    for i in range(n):
        m += pis[i] * lams[i]
    for step in range(1, transient + record + 1):
        # the map is undefined once the mean field reaches 1 + gamma
        if not m < lam_max:
            violation = (step, AR1_STATIONARITY)
            break
        d = 1.0 + gamma - m
        kernel = coef / (d * d)
        ok = True
        for i in range(n):
            lam = lams[i]
            w = omegas[i]
            g = w / (lam * lam) + (1.0 - w) * kernel
            new = 1.0 / sqrt(g)
            if new < 1.0:
                ok = False
            lams[i] = new
        if not ok:
            violation = (step, LEVERAGE_FLOOR)
            break
        m = 0.0
        for i in range(n):
            m += pis[i] * lams[i]
        # a state already past the bound is infeasible and never recorded;
        # exactly on the bound it is feasible but the next step cannot run
        if m > lam_max:
            violation = (step, AR1_STATIONARITY)
            break
        if step > transient:
            recorded[kept] = lams
            kept += 1
    return recorded[:kept], violation


def _run_checked(
    lambdas: list[float], params: ModelParams, transient: int, record: int, offset: int = 0
) -> np.ndarray:
    """``_run``'s recorded states, all ``record`` of them; a violation
    raises OrbitViolationError at its step, shifted by ``offset``."""
    recorded, violation = _run(lambdas, params, transient, record)
    if violation is not None:
        step, constraint = violation
        raise OrbitViolationError(offset + step, constraint)
    return recorded


def iterate(
    initial: LeverageState,
    params: ModelParams,
    transient: int = 1000,
    record: int = 800,
) -> OrbitTrace:
    """Iterate the coupled map, discarding ``transient`` steps then
    recording the next ``record`` states.

    The initial state must be feasible.  Recording stops at the first
    constraint violation; the trace then carries (step, constraint)
    metadata instead of raising.
    """
    initial.require_feasible()
    if transient < 0 or record < 0:
        raise ValueError("transient and record must be non-negative")
    recorded, violation = _run(list(initial.lambdas), params, transient, record)
    return OrbitTrace(
        params=params,
        initial=initial,
        transient_len=transient,
        recorded=recorded,
        violation=violation,
    )


def sync_metric(state: LeverageState, i: int, j: int) -> float:
    """Pairwise synchronization distance |l_i - l_j| / (l_i + l_j).

    Lives in [0, 1) for positive leverages; identically zero on the
    diagonal.  Along homogeneous orbits (equal memory weights) it is
    strictly decreasing.
    """
    lams = state.lambdas
    if not (0 <= i < len(lams)) or not (0 <= j < len(lams)):
        raise IndexError(f"bank index out of range: ({i}, {j}) for N={len(lams)}")
    a, b = lams[i], lams[j]
    return abs(a - b) / (a + b)


def pair_sync(a: float, b: float) -> float:
    """sync_metric on raw leverages, for tight loops."""
    return abs(a - b) / (a + b)


def detect_period(
    trace: OrbitTrace, p_max: int = 64, tol: float = 1e-7
) -> PeriodReport:
    """Minimal period p <= p_max passing the window test, else aperiodic.

    Verifies over the last 3 * p_max recorded states: for a candidate
    lag p every pair of rows p apart must agree componentwise within
    tol.  Requires a clean trace with at least 3 * p_max recorded steps.
    """
    if not trace.survived:
        raise InsufficientTraceError(
            f"trace violated {trace.violation[1]} at step {trace.violation[0]}"
        )
    window = 3 * p_max
    if trace.n_recorded < window:
        raise InsufficientTraceError(
            f"need at least {window} recorded steps, have {trace.n_recorded}"
        )
    return window_periods(trace.recorded[None], p_max, tol)[0]


def window_periods(blocks: np.ndarray, p_max: int, tol: float) -> list[PeriodReport]:
    """detect_period's window test on the last 3 * p_max rows of every
    block of a (blocks x rows x columns) array, all lags at once.

    The caller vouches that each block is a clean run with at least
    3 * p_max rows.
    """
    window = 3 * p_max
    w = blocks[:, -window:]
    periods: list[int | None] = [None] * len(w)
    open_ = np.ones(len(w), dtype=bool)
    for p in range(1, p_max + 1):
        if not open_.any():
            break
        hits = open_ & (np.max(np.abs(w[:, p:] - w[:, :-p]), axis=(1, 2)) < tol)
        for b in np.flatnonzero(hits).tolist():
            periods[b] = p
        open_ &= ~hits
    return [PeriodReport(period=p, tol=tol, window=window) for p in periods]


@dataclass(frozen=True)
class FeasibleSetEstimate:
    """Monte-Carlo under-approximation of the surviving initial set."""

    survival_fraction: float
    survivors: np.ndarray
    n_samples: int
    horizon: int
    rng_seed: int


def estimate_feasible_set(
    params: ModelParams,
    n_samples: int,
    horizon: int,
    rng_seed: int,
) -> FeasibleSetEstimate:
    """Sample initial conditions uniformly in [1, 1+gamma]^N and keep
    those whose orbits stay feasible for ``horizon`` steps."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(rng_seed)
    draws = rng.uniform(1.0, params.lambda_max, size=(n_samples, params.n_banks))
    survivors = []
    for row in draws:
        state = LeverageState.from_lambdas(row, params)
        if not state.feasible:
            continue
        _, violation = _run(list(state.lambdas), params, horizon, 0)
        if violation is None:
            survivors.append(row)
    kept = np.array(survivors) if survivors else np.empty((0, params.n_banks))
    return FeasibleSetEstimate(
        survival_fraction=len(survivors) / n_samples,
        survivors=kept,
        n_samples=n_samples,
        horizon=horizon,
        rng_seed=rng_seed,
    )


def classify(
    period: PeriodReport | None,
    top_exponent: float | None,
    survived: bool,
) -> str:
    """Dynamics class of one parameter point.

    Precedence: infeasible > fixed-point > periodic-p > aperiodic.
    Aperiodic additionally requires a clearly positive top exponent
    (> APERIODIC_EXPONENT_MIN) so slow transients are not misread as
    chaos; the rare leftover case is reported as "unresolved".
    """
    if not survived:
        return "infeasible"
    if period is not None and period.period is not None:
        if period.period == 1:
            return "fixed-point"
        return f"period-{period.period}"
    if top_exponent is not None and top_exponent > APERIODIC_EXPONENT_MIN:
        return "aperiodic"
    return "unresolved"
