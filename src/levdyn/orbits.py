"""Orbit iteration with transient handling, constraint monitoring,
synchronization metrics and periodicity detection.

Iteration follows the discard protocol used throughout the model's
numerical experiments: a transient prefix is dropped, a fixed window is
recorded, and any step that violates the leverage floor (lambda_i >= 1)
or the stationarity bound (mean field < 1 + gamma) truncates the run.
Violations are data, not exceptions: the trace records where and why
the orbit left the feasible region so survival statistics stay exact.
The same loop, given tangent vectors, runs the renormalised tangent pass
behind every Lyapunov exponent of ``lyap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernel
from ._draw import uniform
from .errors import InsufficientTraceError, OrbitViolationError
from .maps import step_jacobian
from .params import LeverageState, ModelParams, mean_field

#: constraint names used in violation records
LEVERAGE_FLOOR = "leverage_floor"
AR1_STATIONARITY = "ar1_stationarity"
#: the compiled loop's violation codes
_CONSTRAINTS = {1: LEVERAGE_FLOOR, 2: AR1_STATIONARITY}
#: the most steps one run counts: the compiled loop's C ``long long``
MAX_STEPS = 2**63 - 1

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
    def label(self) -> str:
        return "aperiodic" if self.period is None else str(self.period)


#: floor for log|derivative| at superstable points
LOG_FLOOR = -700.0

#: Veltkamp's splitter 2**27 + 1 cuts a double into halves of at most 26
#: bits, whose products are exact while the operands lie in (_TINY, _HUGE)
_SPLIT, _TINY, _HUGE = 134217729.0, 2.0**-480, 2.0**480


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as C99 ``fma``: ``math.fsum`` of the halves'
    exact products and c, else (zero, non-finite or extreme operands, or
    an overflowing sum) the exact rational sum, rounded."""
    if _TINY < abs(a) < _HUGE and _TINY < abs(b) < _HUGE:
        t = _SPLIT * a
        ah = t - (t - a)
        al = a - ah
        t = _SPLIT * b
        bh = t - (t - b)
        bl = b - bh
        try:
            return math.fsum((ah * bh, ah * bl, al * bh, al * bl, c))
        except OverflowError:
            pass
    if not (a and b and math.isfinite(a) and math.isfinite(b)):
        return a * b + c  # the product is exact: a signed zero, inf or nan
    if not math.isfinite(c):
        return c
    from fractions import Fraction  # here only: it loads decimal at import

    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _orthogonalised(x: list[float], q: list[list[float]]) -> tuple[list[float], float]:
    """x orthogonalised against each of ``q`` in turn (r = q_j[0] x[0], then
    fma(q_j[m], x[m], r); x[m] = fma(-r, q_j[m], x[m])), and its 2-norm,
    squared as x[0] x[0] then fma(x[m], x[m], .)."""
    for qj in q:
        r = qj[0] * x[0]
        for a, b in zip(qj[1:], x[1:]):
            r = _fma(a, b, r)
        x = [_fma(-r, a, b) for a, b in zip(qj, x)]
    sq = x[0] * x[0]
    for b in x[1:]:
        sq = _fma(b, b, sq)
    return x, math.sqrt(sq)


def _tangent_step(rows: list[list[float]], q: list[list[float]], totals: list[float]) -> bool:
    """One renormalised tangent step of the k unit vectors ``q`` on the
    Jacobian ``rows``, taking the vectors in order: vector i is mapped
    (entry r of J u is J[r, n-1] u[n-1], then fma(J[r, j], u[j], .) for
    j = n-2 down to 0), orthogonalised against the new vectors 0 .. i-1,
    the log of its norm added to totals[i], and normalised.  A vector that
    is then exactly 0 adds LOG_FLOOR instead and is replaced by the first
    of e_1 .. e_n that stays nonzero when so orthogonalised, normalised:
    e_1 for vector 0.  Updates ``q``; returns whether a vector vanished."""
    last, new, vanished = len(rows) - 1, [], False
    for i, u in enumerate(q):
        x = []
        for row in rows:
            xi = row[last] * u[last]
            for j in range(last - 1, -1, -1):
                xi = _fma(row[j], u[j], xi)
            x.append(xi)
        x, norm = _orthogonalised(x, new)
        if norm == 0.0:
            totals[i] += LOG_FLOOR
            vanished = True
            new.append(next([y / size for y in e] for e, size in
                            (_orthogonalised(e, new) for e in np.eye(last + 1).tolist())
                            if size != 0.0))
        else:
            totals[i] += math.log(norm)
            new.append([xi / norm for xi in x])
    q[:] = new
    return vanished


def _run(
    lambdas: Sequence[float],
    params: ModelParams,
    transient: int,
    record: int,
    q: list[list[float]] | None = None,
) -> tuple[np.ndarray | tuple[list[float], bool], tuple[int, str] | None]:
    """Shared iteration core: python-float inner loop for small N.

    Arithmetic matches maps.advance term for term (mean field
    accumulated left to right, kernel formed once per step) so traces
    and map evaluations agree bitwise.  This is the escape protocol of
    every scalar analysis: step k stops the run if the state it starts
    from has mean field at or above 1 + gamma, if a new leverage is
    below 1, or if the new mean field is above 1 + gamma.  A state
    exactly on the bound is recorded but cannot be advanced.

    Returns the ``record`` states after the transient or, given k >= 1
    unit vectors ``q``, the renormalised tangent pass (Benettin et al.
    1980): the totals of their log growth and whether one vanished, each
    step a ``_tangent_step`` on the rows of ``maps.step_jacobian``; and
    the violation, None or (step, constraint), counting steps from 1.
    Raises ValueError for a negative transient or record, no record given
    vectors, or where ``lambdas`` does not hold one leverage per bank or
    the run cannot count its steps.

    The loop runs compiled (``levdyn_orbit`` in ``_kernel.c``) when that
    loaded.  The Python loop below is its reference, statement for
    statement.  It runs where no C compiler is found, and from the start
    where the compiled loop defers: to raise ZeroDivisionError at its
    step, or to replace a vector that vanished.
    """
    if transient < 0 or record < (0 if q is None else 1):
        raise ValueError("need transient >= 0 and record >= 0 (>= 1 for a tangent pass)")
    if transient + record > MAX_STEPS:
        raise ValueError(f"transient + steps exceeds {MAX_STEPS}")
    n = len(lambdas)
    if n != params.n_banks:
        raise ValueError(f"state has {n} leverages, params have {params.n_banks} banks")
    gamma, lam_max, coef = params.gamma, params.lambda_max, params.coupling_coef
    omegas, pis = params.omegas, params.pis
    if q is None:
        recorded = np.empty((record, n))
    if _kernel.lib is not None:
        lams, ws, ps = (np.array(a, dtype=float) for a in (lambdas, omegas, pis))
        if q is None:
            vectors = (recorded.ctypes.data, 0, None, None)
        else:
            start, sums = np.array(q, dtype=float), np.zeros(len(q))
            vectors = (None, len(q), start.ctypes.data, sums.ctypes.data)
        out = np.zeros(2, dtype=np.int64)
        code = _kernel.lib.levdyn_orbit(
            n, lams.ctypes.data, ws.ctypes.data, ps.ctypes.data, gamma, lam_max, coef,
            transient, record, *vectors, out.ctypes.data)
        if code != _kernel.DEFER:
            violation = (int(out[1]), _CONSTRAINTS[code]) if code else None
            return (recorded[:out[0]] if q is None else (sums.tolist(), False)), violation
    kept, violation = 0, None
    totals, saturated = [0.0] * len(q or ()), False
    lams = list(lambdas)
    # with vectors the new state is kept apart, as the Jacobian reads both;
    # without, it overwrites the state and the swap at the step's end is idle
    nxt = lams if q is None else [0.0] * n
    sqrt = math.sqrt
    m = mean_field(lams, pis)
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
            nxt[i] = new
        if not ok:
            violation = (step, LEVERAGE_FLOOR)
            break
        m = 0.0
        for i in range(n):
            m += pis[i] * nxt[i]
        # a state already past the bound is infeasible and never recorded;
        # exactly on the bound it is feasible but the next step cannot run
        if m > lam_max:
            violation = (step, AR1_STATIONARITY)
            break
        if step > transient:
            if q is None:
                recorded[kept] = nxt
                kept += 1
            else:
                rows = step_jacobian(lams, nxt, coef / ((d * d) * d), omegas, pis)
                saturated |= _tangent_step(rows, q, totals)
        lams, nxt = nxt, lams
    return (recorded[:kept] if q is None else (totals, saturated)), violation


def _run_checked(
    lambdas: Sequence[float], params: ModelParams, transient: int, record: int,
    q: list[list[float]] | None = None,
) -> np.ndarray | tuple[list[float], bool]:
    """``_run``'s recorded states, all ``record`` of them, or given vectors
    ``q`` its totals and flag; a violation raises OrbitViolationError at
    its step."""
    ran, violation = _run(lambdas, params, transient, record, q)
    if violation is not None:
        raise OrbitViolationError(*violation)
    return ran


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
    recorded, violation = _run(list(initial.lambdas), params, transient, record)
    return OrbitTrace(
        params=params,
        initial=initial,
        transient_len=transient,
        recorded=recorded,
        violation=violation,
    )


def pair_sync(a: float, b: float) -> float:
    """Synchronization distance |a - b| / (a + b) of two leverages: in
    [0, 1) for positive ones, and zero where they are equal."""
    return abs(a - b) / (a + b)


def detect_period(
    trace: OrbitTrace, p_max: int = 64, tol: float = 1e-7
) -> PeriodReport:
    """Minimal period p <= p_max passing the window test, else aperiodic.

    Verifies over the last 3 * p_max recorded states that every pair of
    rows p apart agrees componentwise within tol.  Requires p_max >= 1
    and a clean trace with at least 3 * p_max recorded steps.
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
    return window_period(trace.recorded, p_max, tol)


def window_period(rows: np.ndarray, p_max: int, tol: float) -> PeriodReport:
    """detect_period's window test on the last 3 * p_max of ``rows``, one
    state per row.

    A lag p can pass only if row p of the window agrees with row 0, a
    pair its test compares, so the full test runs only on the lags that
    pass this screen; a NaN fails both.  The caller vouches that ``rows``
    is a clean run with at least 3 * p_max rows.
    """
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    window = 3 * p_max
    w = rows[-window:]
    screened = np.max(np.abs(w[1 : p_max + 1] - w[0]), axis=1) < tol
    for p in (np.flatnonzero(screened) + 1).tolist():
        if np.max(np.abs(w[p:] - w[:-p])) < tol:
            return PeriodReport(period=p, tol=tol, window=window)
    return PeriodReport(period=None, tol=tol, window=window)


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
    if n_samples < 1 or horizon < 0:
        raise ValueError("need n_samples >= 1 and horizon >= 0")
    survivors = []
    for row in uniform(rng_seed, 1.0, params.lambda_max, n_samples, params.n_banks):
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
