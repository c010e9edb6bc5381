"""Forced-forcing (skew-product) subsystem: a zero-weight bank driven by
an autonomous large bank.

The forcing bank runs the single-bank map on its own; the forced bank
follows x_{t+1} = f_{y_t}(x_t) where y_t is the forcing leverage.  The
forced bank's long-run trajectory is pinned by the forcing's past
through the random fixed point

    x(past) = (sum_{i>=0} (1-omega1) omega1^i var_kernel(y_{-1-i}))^(-1/2),

the unique fiber trajectory satisfying f_{y_0}(x(past)) = x(shifted past).
Unrolling 1/x_{t+1}^2 = omega1/x_t^2 + (1-omega1) var_kernel(y_t) makes
the (1-omega1) factor mandatory: dropping it breaks the defining
relation (a regression test documents this).

Backward orbits are realized as tails of long forward orbits of the
forcing map; true inversion of the non-invertible map is never needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, OrbitViolationError, TailBoundError
from .lyap import lyapunov_1d
from .maps import fiber_map, leverage_map
from .orbits import PeriodReport, _run_checked, classify, iterate, window_period
from .params import LeverageState, ModelParams


@dataclass(frozen=True)
class ForcingHistory:
    """Finite approximation of a forcing bank's backward orbit.

    ``past[k]`` is the forcing leverage k+1 steps in the past (most
    recent first).  Histories built by ``history_from_orbit`` satisfy
    T(past[k+1]) = past[k] exactly; synthetic constant histories do not
    (unless the level is the map's fixed point) and are marked by their
    ``source``.
    """

    past: np.ndarray
    source: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.past, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("history must be a non-empty 1-d sequence")
        object.__setattr__(self, "past", arr)

    @property
    def depth(self) -> int:
        return int(self.past.size)


@dataclass(frozen=True)
class RandomFixedPoint:
    """Truncated evaluation of the random fixed point series."""

    value: float
    truncation_depth: int
    tail_bound: float


def history_from_orbit(
    omega2: float,
    params: ModelParams,
    depth: int,
    transient: int = 1000,
    x0: float = 50.0,
) -> tuple[ForcingHistory, float]:
    """Tail of a long forward orbit of the forcing map, as a history.

    Returns (history, y0) where y0 = T(past[0]) is the forcing
    leverage at time zero, i.e. the next value the forcing bank takes.
    The orbit runs through ``orbits._run`` and raises OrbitViolationError
    at the (step, constraint) that ``iterate`` reports when it leaves the
    feasible region.  DomainError for ``x0`` outside (0, 1 + gamma).
    """
    if depth < 1 or transient < 0:
        raise ValueError("need depth >= 1 and transient >= 0")
    p = params.with_single_omega(omega2)
    if not 0.0 < x0 < p.lambda_max:
        raise DomainError(f"x0 must be in (0, 1 + gamma = {p.lambda_max}), got {x0}")
    recorded = _run_checked([float(x0)], p, transient, depth)
    orbit = recorded[:, 0]
    history = ForcingHistory(past=orbit[::-1].copy(), source="orbit-tail")
    y0 = leverage_map(float(orbit[-1]), omega2, p)
    return history, y0


def constant_history(level: float, depth: int) -> ForcingHistory:
    """History frozen at a single forcing level (geometric-series case)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return ForcingHistory(past=np.full(depth, float(level)), source="constant")


def verify_history(
    history: ForcingHistory,
    omega2: float,
    params: ModelParams,
    tol: float = 1e-12,
) -> bool:
    """Check T(past[k+1]) = past[k] for every consecutive pair."""
    past = history.past
    for k in range(history.depth - 1):
        if abs(leverage_map(float(past[k + 1]), omega2, params) - past[k]) > tol:
            return False
    return True


def shift_history(
    history: ForcingHistory, omega2: float, params: ModelParams
) -> ForcingHistory:
    """Advance the history one step: prepend T(past[0]), drop the oldest."""
    p = params.with_single_omega(omega2)
    newest = leverage_map(float(history.past[0]), omega2, p)
    shifted = np.empty_like(history.past)
    shifted[0] = newest
    shifted[1:] = history.past[:-1]
    return ForcingHistory(past=shifted, source=history.source)


def forced_orbit(
    forcing: np.ndarray,
    omega1: float,
    params: ModelParams,
    x0: float,
) -> np.ndarray:
    """Fiber iterates under a given forcing sequence.

    Returns length len(forcing) + 1 with the initial value first:
    out[t+1] = f_{forcing[t]}(out[t]).
    """
    if not x0 > 0.0:
        raise DomainError(f"fiber initial must be positive, got {x0}")
    out = np.empty(len(forcing) + 1)
    out[0] = x0
    x = x0
    for t, y in enumerate(forcing):
        x = fiber_map(x, float(y), omega1, params)
        out[t + 1] = x
    return out


def random_fixed_point(
    history: ForcingHistory,
    omega1: float,
    params: ModelParams,
    tol: float = 1e-10,
) -> RandomFixedPoint:
    """Evaluate the truncated random fixed point series with a certified
    tail bound.

    The dropped tail sum is at most A_max * omega1^depth where A_max is
    the variance kernel at the largest observed history entry (the
    kernel is increasing in the leverage; the bound assumes the
    unobserved deeper past stays within the observed range, which holds
    for histories taken from an orbit on its attractor).  Propagated to
    the value this gives |error| <= value^3 * tail / 2.  Raises
    TailBoundError when the bound exceeds ``tol``.
    """
    if not 0.0 <= omega1 < 1.0:
        raise DomainError(f"omega1 must be in [0, 1) for the series, got {omega1}")
    past = history.past
    m = history.depth
    total = 0.0
    weight = 1.0 - omega1
    for k in range(m):
        y = float(past[k])
        if not y < params.lambda_max:
            raise DomainError(
                f"history entry {y} at depth {k + 1} is not below 1 + gamma"
            )
        total += weight * params.var_kernel(y)
        weight *= omega1
    value = 1.0 / math.sqrt(total)
    a_max = params.var_kernel(float(np.max(past)))
    tail = a_max * omega1**m
    bound = 0.5 * value**3 * tail
    if bound > tol:
        raise TailBoundError(bound, tol, m)
    return RandomFixedPoint(value=value, truncation_depth=m, tail_bound=bound)


@dataclass(frozen=True)
class ForcingResponse:
    """Joint classification of a forcing orbit and its forced orbit."""

    forcing_period: PeriodReport
    forced_period: PeriodReport
    forcing_class: str
    forced_class: str
    forcing_exponent: float
    fiber_exponent: float

    @property
    def transfer_consistent(self) -> bool:
        """Periodic forcing must force an equal period; chaotic forcing
        must leave the forced orbit aperiodic."""
        if self.forcing_period.period is not None:
            return self.forced_period.period == self.forcing_period.period
        if self.forcing_class == "aperiodic":
            return self.forced_period.period is None
        return True


def forcing_response_classification(
    omega1: float,
    omega2: float,
    params: ModelParams,
    transient: int = 2000,
    steps: int = 512,
    y0: float = 50.0,
    x0: float = 50.0,
    p_max: int = 64,
    tol: float = 1e-7,
) -> ForcingResponse:
    """Classify the autonomous forcing orbit and the forced response.

    Runs the two-bank system with pi_1 = 0 (bank 1 carries no weight:
    the mean field is bank 2 alone), detects periods of both coordinate
    sequences over the recorded window, and attaches Lyapunov exponents:
    the forcing map's own exponent and the analytic fiber exponent
    ln(omega1).
    """
    if steps < 3 * p_max:
        raise ValueError(f"need steps >= {3 * p_max} for period detection")
    skew = replace(params, omegas=(omega1, omega2), pis=(0.0, 1.0))
    initial = LeverageState.from_lambdas((x0, y0), skew)
    trace = iterate(initial, skew, transient=transient, record=steps)
    if not trace.survived:
        step, constraint = trace.violation
        raise OrbitViolationError(step, constraint)

    # one period test per coordinate: bank 1 is forced, bank 2 forces
    forced_period, forcing_period = (
        window_period(trace.recorded[:, [bank]], p_max, tol) for bank in (0, 1)
    )

    forcing_exp = lyapunov_1d(
        omega2, params, x0=y0, transient=transient, steps=20_000
    ).top
    fiber_exp = math.log(omega1) if omega1 > 0.0 else float("-inf")

    forcing_class = classify(forcing_period, forcing_exp, True)
    # the forced coordinate inherits irregularity from the forcing, so its
    # aperiodicity is judged against the forcing exponent (its own fiber
    # exponent is always negative)
    forced_class = classify(forced_period, forcing_exp, True)
    return ForcingResponse(
        forcing_period=forcing_period,
        forced_period=forced_period,
        forcing_class=forcing_class,
        forced_class=forced_class,
        forcing_exponent=forcing_exp,
        fiber_exponent=fiber_exp,
    )
