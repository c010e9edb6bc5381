"""Lyapunov exponents: scalar map exponent, full spectrum via QR
products of analytic Jacobians, and the fiber exponent of the forced
subsystem.

Log-derivatives hitting zero (superstable orbits) are floored at
LOG_FLOOR with a saturation flag rather than propagating -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OrbitViolationError
from .maps import advance, coupled_jacobian, fiber_map, leverage_map, leverage_map_deriv
from .orbits import AR1_STATIONARITY, LEVERAGE_FLOOR
from .params import LeverageState, ModelParams, mean_field

#: floor for log|derivative| at superstable points
LOG_FLOOR = -700.0


@dataclass(frozen=True)
class LyapunovEstimate:
    """Per-step log-expansion rates, sorted descending.

    ``saturated`` marks runs where a zero derivative forced the
    LOG_FLOOR clamp (the true exponent is -inf at such parameters).
    """

    exponents: tuple[float, ...]
    steps_used: int
    transient: int
    saturated: bool = False

    @property
    def top(self) -> float:
        return self.exponents[0]


def _check_1d_feasible(x: float, params: ModelParams, step: int) -> None:
    if x < 1.0:
        raise OrbitViolationError(step, LEVERAGE_FLOOR)
    if not x < params.lambda_max:
        raise OrbitViolationError(step, AR1_STATIONARITY)


def lyapunov_1d(
    omega: float,
    params: ModelParams,
    x0: float,
    transient: int = 1000,
    steps: int = 100_000,
) -> LyapunovEstimate:
    """Exponent (1/steps) sum log|T'(x_t)| of the single-bank map.

    Raises OrbitViolationError if the orbit leaves [1, 1+gamma); the
    exponent is undefined on a truncated orbit.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    p = params.with_single_omega(omega)
    x = x0
    _check_1d_feasible(x, p, 0)
    for t in range(1, transient + 1):
        x = leverage_map(x, omega, p)
        _check_1d_feasible(x, p, t)
    total = 0.0
    saturated = False
    for t in range(transient + 1, transient + steps + 1):
        deriv = abs(leverage_map_deriv(x, omega, p))
        if deriv > 0.0:
            total += math.log(deriv)
        else:
            total += LOG_FLOOR
            saturated = True
        x = leverage_map(x, omega, p)
        _check_1d_feasible(x, p, t)
    return LyapunovEstimate(
        exponents=(total / steps,),
        steps_used=steps,
        transient=transient,
        saturated=saturated,
    )


def _advance_checked(lams: list[float], params: ModelParams, step: int) -> list[float]:
    m = mean_field(lams, params.pis)
    if not m < params.lambda_max:
        raise OrbitViolationError(step, AR1_STATIONARITY)
    new = advance(lams, params)
    if any(x < 1.0 for x in new):
        raise OrbitViolationError(step, LEVERAGE_FLOOR)
    return new


def lyapunov_spectrum(
    initial: LeverageState,
    params: ModelParams,
    transient: int = 1000,
    steps: int = 100_000,
    reorth_every: int = 1,
) -> LyapunovEstimate:
    """Full spectrum from QR-factorized products of analytic Jacobians.

    The tangent basis is re-orthonormalized every ``reorth_every`` steps
    (default every step; N is small so the cost is negligible and the
    accumulated product cannot overflow in chaotic regimes).  Exponents
    are the accumulated log magnitudes of the R diagonals divided by the
    step count, sorted descending.
    """
    if steps < reorth_every or reorth_every < 1:
        raise ValueError("need steps >= reorth_every >= 1")
    initial.require_feasible()
    n = params.n_banks
    lams = list(initial.lambdas)
    for t in range(1, transient + 1):
        lams = _advance_checked(lams, params, t)
    q = np.eye(n)
    acc = np.zeros(n)
    saturated = False
    done = 0
    while done < steps:
        block = min(reorth_every, steps - done)
        for _ in range(block):
            # advance first: its checks raise before an undefined Jacobian
            new = _advance_checked(lams, params, transient + done + 1)
            q = coupled_jacobian(lams, params) @ q
            lams = new
            done += 1
        q, r = np.linalg.qr(q)
        diag = np.abs(np.diag(r))
        for k in range(n):
            if diag[k] > 0.0:
                acc[k] += math.log(diag[k])
            else:
                acc[k] += LOG_FLOOR
                saturated = True
    exps = np.sort(acc / done)[::-1]
    return LyapunovEstimate(
        exponents=tuple(float(v) for v in exps),
        steps_used=done,
        transient=transient,
        saturated=saturated,
    )


def lyapunov_top(
    initial: LeverageState,
    params: ModelParams,
    transient: int = 1000,
    steps: int = 2000,
    seed: int = 0,
) -> float:
    """Top exponent only, via a single renormalized tangent vector.

    Cheaper than the full spectrum; used by parameter sweeps where only
    the sign and rough magnitude matter.
    """
    initial.require_feasible()
    n = params.n_banks
    lams = list(initial.lambdas)
    for t in range(1, transient + 1):
        lams = _advance_checked(lams, params, t)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    total = 0.0
    for t in range(steps):
        # advance first: its checks raise before an undefined Jacobian
        new = _advance_checked(lams, params, transient + t + 1)
        v = coupled_jacobian(lams, params) @ v
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            total += math.log(norm)
            v /= norm
        else:
            total += LOG_FLOOR
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
        lams = new
    return total / steps


def fiber_exponent(
    forcing_orbit: np.ndarray,
    omega1: float,
    params: ModelParams,
    x0: float,
    steps: int,
) -> LyapunovEstimate:
    """Fiber exponent (1/steps) sum log f'_{y_t}(x_t) along a forcing orbit.

    Because f'_y(x) = omega1 (f_y(x)/x)^3, the product telescopes to
    omega1^steps (x_steps/x_0)^3: the estimate equals ln(omega1) plus
    (3/steps) log(x_steps/x_0) exactly.  omega1 = 0 yields a constant
    fiber map; the exponent saturates at LOG_FLOOR with the flag set.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if len(forcing_orbit) < steps:
        raise ValueError(
            f"forcing orbit has {len(forcing_orbit)} entries, need {steps}"
        )
    if omega1 == 0.0:
        return LyapunovEstimate(
            exponents=(LOG_FLOOR,), steps_used=steps, transient=0, saturated=True
        )
    if not x0 > 0.0:
        raise DomainError(f"fiber initial must be positive, got {x0}")
    x = x0
    total = 0.0
    log_omega1 = math.log(omega1)
    for t in range(steps):
        # log f'(x_t) = log(omega1) + 3 (log x_{t+1} - log x_t)
        x_next = fiber_map(x, float(forcing_orbit[t]), omega1, params)
        total += log_omega1 + 3.0 * (math.log(x_next) - math.log(x))
        x = x_next
    return LyapunovEstimate(
        exponents=(total / steps,), steps_used=steps, transient=0, saturated=False
    )
