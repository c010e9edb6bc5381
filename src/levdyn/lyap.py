"""Lyapunov exponents: scalar map exponent, top exponent by a
renormalized tangent vector, full spectrum via QR products of analytic
Jacobians, and the fiber exponent of the forced subsystem.

The map exponents read their orbit from ``orbits._run``, the one scalar
orbit loop, and build each Jacobian from a state and its recorded
successor (``maps.step_jacobian``).  An orbit that leaves the feasible
region has no exponent: they raise OrbitViolationError at the
(step, constraint) that ``iterate`` records for it.  ``_top_lanes`` is
the one tangent-vector loop: ``lyapunov_top`` is its one-lane case and
the sweeps run it over many orbits in lockstep.

Log-derivatives hitting zero (superstable orbits) are floored at
LOG_FLOOR with a saturation flag rather than propagating -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, InfeasibleStateError, OrbitViolationError
from .maps import fiber_map, step_jacobian
from .orbits import _run_checked
from .params import LeverageState, ModelParams

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


#: states an exponent run holds at once; longer windows are walked in
#: blocks of this many steps, so memory does not grow with ``steps``.
#: ``_top_lanes`` holds one block per lane.
BLOCK_STEPS = 256


def _window_jacobians(
    lambdas: list[float], params: ModelParams, transient: int, steps: int
) -> Iterator[np.ndarray]:
    """Jacobians at the states transient .. transient + steps - 1 of the
    orbit from ``lambdas``, in stacks of at most BLOCK_STEPS.

    The orbit runs through ``orbits._run`` and each Jacobian is formed
    from a state and its recorded successor.  Raises OrbitViolationError
    with the (step, constraint) that ``iterate`` reports, before any
    Jacobian of the block holding that step is yielded.
    """
    if steps < 1 or transient < 0:
        raise ValueError("need steps >= 1 and transient >= 0")
    if transient:
        lambdas = _run_checked(lambdas, params, transient - 1, 1)[0].tolist()
    for done in range(0, steps, BLOCK_STEPS):
        block = _run_checked(
            lambdas, params, 0, min(BLOCK_STEPS, steps - done), transient + done
        )
        states = np.vstack(([lambdas], block))
        yield step_jacobian(states[:-1], states[1:], params.omegas, params.pis, params)
        lambdas = block[-1].tolist()


def lyapunov_1d(
    omega: float,
    params: ModelParams,
    x0: float,
    transient: int = 1000,
    steps: int = 100_000,
) -> LyapunovEstimate:
    """Exponent (1/steps) sum log|T'(x_t)| of the single-bank map.

    Raises OrbitViolationError if the orbit leaves the feasible region,
    at step 0 for an infeasible ``x0``; the exponent is undefined on a
    truncated orbit.
    """
    p = params.with_single_omega(omega)
    initial = LeverageState.from_lambdas([x0], p)
    try:
        initial.require_feasible()
    except InfeasibleStateError as exc:
        raise OrbitViolationError(0, exc.constraint) from None
    total = 0.0
    saturated = False
    for jacs in _window_jacobians(list(initial.lambdas), p, transient, steps):
        # a 1 x 1 Jacobian is T'(x)
        for deriv in np.abs(jacs[:, 0, 0]).tolist():
            if deriv > 0.0:
                total += math.log(deriv)
            else:
                total += LOG_FLOOR
                saturated = True
    return LyapunovEstimate(
        exponents=(total / steps,),
        steps_used=steps,
        transient=transient,
        saturated=saturated,
    )


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
    q = np.eye(n)
    acc = np.zeros(n)
    saturated = False
    done = 0
    for jacs in _window_jacobians(list(initial.lambdas), params, transient, steps):
        for jac in jacs:
            q = jac @ q
            done += 1
            if done % reorth_every and done < steps:
                continue
            q, r = np.linalg.qr(q)
            diag = np.abs(np.diag(r))
            for k in range(n):
                if diag[k] > 0.0:
                    acc[k] += math.log(diag[k])
                else:
                    acc[k] += LOG_FLOOR
                    saturated = True
    exps = np.sort(acc / steps)[::-1]
    return LyapunovEstimate(
        exponents=tuple(float(v) for v in exps),
        steps_used=steps,
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
    """Top exponent only, via a single renormalized tangent vector (the
    one-lane case of ``_top_lanes``).  Cheaper than the full spectrum; used
    by parameter sweeps where only the sign and rough magnitude matter."""
    initial.require_feasible()
    (top,) = _top_lanes([initial], [params], transient, steps, seed)
    if isinstance(top, OrbitViolationError):
        raise top
    return top


def _tangent_start(seed: int, n: int) -> np.ndarray:
    v = np.random.default_rng(seed).standard_normal(n)
    return v / np.linalg.norm(v)


def _top_lanes(
    initials: Sequence[LeverageState], params: Sequence[ModelParams],
    transient: int, steps: int, seed: int,
) -> list[float | OrbitViolationError]:
    """``lyapunov_top`` from each initial state, one lane a state, run in
    lockstep; a lane whose orbit escapes gets the OrbitViolationError it
    raised.  All ``params`` share the bank count.

    Each round copies one block of every lane's Jacobians into one reused
    buffer.  The stacked ``np.matmul`` calls run the same BLAS kernels per
    lane as ``jac @ v`` and ``np.linalg.norm(v)`` and the logs are
    ``math.log``, so no lane's sum depends on the others.  A vector that
    maps to exactly 0 adds LOG_FLOOR and is redrawn from the lane's own
    ``default_rng(seed)``, past the start draw.  On one bank the vector
    stays exactly +-1 and its norm is |T'|: the sum is ``lyapunov_1d``'s.
    """
    if steps < 1 or transient < 0:
        raise ValueError("need steps >= 1 and transient >= 0")
    q, n = len(initials), params[0].n_banks
    blocks = [_window_jacobians(list(s.lambdas), p, transient, steps)
              for s, p in zip(initials, params)]
    tops: list[float | OrbitViolationError] = [0.0] * q
    live = list(range(q))  # lanes whose orbit has not escaped
    u = np.tile(_tangent_start(seed, n), (q, 1))[:, :, None]
    acc = np.zeros(q)
    redraws: dict[int, np.random.Generator] = {}
    buf = np.empty((min(BLOCK_STEPS, steps), q, n, n))
    for done in range(0, steps, BLOCK_STEPS):
        jacs = buf[: min(BLOCK_STEPS, steps - done)]
        kept = []
        for k, lane in enumerate(live):
            try:
                jacs[:, len(kept)] = next(blocks[lane])
                kept.append(k)
            except OrbitViolationError as exc:
                tops[lane] = exc
        if not kept:
            return tops
        live, u, acc, m = [live[k] for k in kept], u[kept], acc[kept], len(kept)
        for jac in jacs[:, :m]:
            u = np.matmul(jac, u)
            norm = np.sqrt(np.matmul(u.reshape(m, 1, n), u))
            norms = norm.ravel().tolist()
            if 0.0 in norms:
                for k in [k for k, x in enumerate(norms) if x == 0.0]:
                    if live[k] not in redraws:
                        redraws[live[k]] = np.random.default_rng(seed)
                        redraws[live[k]].standard_normal(n)  # the start draw
                    # u /= norm normalises the draw, and log 1 adds 0
                    u[k, :, 0] = redraws[live[k]].standard_normal(n)
                    norm[k], norms[k] = np.linalg.norm(u[k]), 1.0
                    acc[k] += LOG_FLOOR
            acc += np.fromiter(map(math.log, norms), float, m)
            u /= norm
    for lane, total in zip(live, acc.tolist()):
        tops[lane] = total / steps
    return tops


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
