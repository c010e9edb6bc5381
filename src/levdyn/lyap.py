"""Lyapunov exponents: the scalar map exponent, the top exponent and the
full spectrum from one renormalised tangent pass, and the fiber exponent
of the forced subsystem.

The map exponents are a thin layer over ``orbits._run``, the one orbit
loop, compiled or in Python, which steps the tangent vectors on each
step's Jacobian with the fused multiply-adds spelled out, so no BLAS or
LAPACK kernel enters it.  An orbit that leaves the feasible region has
no exponent: they raise OrbitViolationError at the (step, constraint)
that ``iterate`` records for it.  The pass of k vectors, modified
Gram-Schmidt (Shimada & Nagashima 1979), is behind ``lyapunov_top``
(k = 1) and ``lyapunov_spectrum`` (k = n), which on one bank is
``lyapunov_1d``.  A vector that vanishes is replaced by one rule,
whatever k: the first basis vector that survives orthogonalisation.

Log-derivatives hitting zero (superstable orbits) are floored at
LOG_FLOOR with a saturation flag rather than propagating -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InfeasibleStateError, OrbitViolationError
from .maps import fiber_map
from .orbits import LOG_FLOOR, _orthogonalised, _run_checked
from .params import LeverageState, ModelParams


@dataclass(frozen=True)
class LyapunovEstimate:
    """Per-step log-expansion rates, sorted descending.  ``saturated``
    marks runs where a zero derivative forced the LOG_FLOOR clamp (the
    true exponent is -inf at such parameters)."""

    exponents: tuple[float, ...]
    steps_used: int
    transient: int
    saturated: bool = False

    @property
    def top(self) -> float:
        return self.exponents[0]


def lyapunov_1d(
    omega: float,
    params: ModelParams,
    x0: float,
    transient: int = 1000,
    steps: int = 100_000,
) -> LyapunovEstimate:
    """Exponent (1/steps) sum log|T'(x_t)| of the single-bank map: the
    one-bank ``lyapunov_spectrum``.  Raises OrbitViolationError if the orbit
    leaves the feasible region, at step 0 for an infeasible ``x0``; the
    exponent is undefined on a truncated orbit."""
    p = params.with_single_omega(omega)
    try:
        return lyapunov_spectrum(LeverageState.from_lambdas([x0], p), p, transient, steps)
    except InfeasibleStateError as exc:
        raise OrbitViolationError(0, exc.constraint) from None


def lyapunov_spectrum(
    initial: LeverageState,
    params: ModelParams,
    transient: int = 1000,
    steps: int = 100_000,
) -> LyapunovEstimate:
    """Full spectrum by the tangent pass of the identity's n columns,
    re-orthonormalised every step: each vector's summed log growth over
    the step count, sorted descending."""
    initial.require_feasible()
    basis = np.eye(params.n_banks).tolist()
    totals, saturated = _run_checked(initial.lambdas, params, transient, steps, basis)
    exps = tuple(sorted((total / steps for total in totals), reverse=True))
    return LyapunovEstimate(exps, steps, transient, saturated)


def lyapunov_top(
    initial: LeverageState,
    params: ModelParams,
    transient: int = 1000,
    steps: int = 2000,
    seed: int = 0,
) -> float:
    """Top exponent only, via a single renormalized tangent vector drawn
    from ``seed``.  Cheaper than the full spectrum; used by parameter
    sweeps where only the sign and rough magnitude matter."""
    initial.require_feasible()
    start = list(_start_vector(seed, params.n_banks))
    return _run_checked(initial.lambdas, params, transient, steps, [start])[0][0] / steps


@lru_cache(maxsize=64)
def _start_vector(seed: int, n: int) -> tuple[float, ...]:
    """The unit vector ``lyapunov_top`` starts from: n standard normals of
    ``default_rng(seed)``, normalised as ``_orthogonalised`` measures them.
    Drawn once per (seed, n): every exponent of a sweep starts from it, and
    building its generator costs a third of a short compiled exponent."""
    v, norm = _orthogonalised(np.random.default_rng(seed).standard_normal(n).tolist(), [])
    return tuple(x / norm for x in v)


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
        raise ValueError(f"forcing orbit has {len(forcing_orbit)} entries, need {steps}")
    if omega1 == 0.0:
        return LyapunovEstimate((LOG_FLOOR,), steps, 0, saturated=True)
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
    return LyapunovEstimate((total / steps,), steps, 0, saturated=False)
