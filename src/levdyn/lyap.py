"""Lyapunov exponents: the scalar map exponent, the top exponent and the
full spectrum from one renormalised tangent pass, and the fiber exponent
of the forced subsystem.

The map exponents read their orbit from ``orbits._run``, the one scalar
orbit loop, and form each Jacobian from a state and its successor
(``maps.step_jacobian``).  An orbit that leaves the feasible region has
no exponent: they raise OrbitViolationError at the (step, constraint)
that ``iterate`` records for it.  ``_tangent``, the pass of k vectors, is
behind ``lyapunov_top`` (k = 1) and ``lyapunov_spectrum`` (k = n), which
on one bank is ``lyapunov_1d``.  Its Python pass walks the window's
Jacobian blocks once, with the fused multiply-adds spelled out so no BLAS
or LAPACK kernel enters it; its compiled copy, one call of
``levdyn_orbit``, runs the transient, then steps the orbit and forms each
Jacobian in the same loop.  A vector that vanishes is replaced by one
rule, whatever k: the first basis vector that survives orthogonalisation.

Log-derivatives hitting zero (superstable orbits) are floored at
LOG_FLOOR with a saturation flag rather than propagating -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _kernel
from .errors import DomainError, InfeasibleStateError, OrbitViolationError
from .maps import fiber_map, step_jacobian
from .orbits import _check_run, _compiled_orbit, _run_checked
from .params import LeverageState, ModelParams

#: floor for log|derivative| at superstable points
LOG_FLOOR = -700.0


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


#: states an exponent run holds at once; longer windows are walked in
#: blocks of this many steps, so memory does not grow with ``steps``.
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
    if transient:
        lambdas = _run_checked(lambdas, params, transient - 1, 1)[0].tolist()
    for done in range(0, steps, BLOCK_STEPS):
        block = _run_checked(
            lambdas, params, 0, min(BLOCK_STEPS, steps - done), transient + done
        )
        states = np.vstack(([lambdas], block))
        yield step_jacobian(states[:-1], states[1:], params)
        lambdas = block[-1].tolist()


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
    totals, saturated = _tangent(initial.lambdas, params, transient, steps, basis)
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
    return _tangent(initial.lambdas, params, transient, steps, [start])[0][0] / steps


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


@lru_cache(maxsize=64)
def _start_vector(seed: int, n: int) -> tuple[float, ...]:
    """The unit vector ``lyapunov_top`` starts from: n standard normals of
    ``default_rng(seed)``, normalised as ``_orthogonalised`` measures them.
    Drawn once per (seed, n): every exponent of a sweep starts from it, and
    building its generator costs a third of a short compiled exponent."""
    v, norm = _orthogonalised(np.random.default_rng(seed).standard_normal(n).tolist(), [])
    return tuple(x / norm for x in v)


def _tangent_steps(blocks: Iterable[np.ndarray], q: list[list[float]]) -> tuple[list[float], bool]:
    """The tangent pass of the k unit vectors ``q`` over a window of
    Jacobian blocks.  Each step takes the vectors in order: vector i is
    mapped (entry r of J u is J[r, n-1] u[n-1], then fma(J[r, j], u[j], .)
    for j = n-2 down to 0), orthogonalised against the new vectors
    0 .. i-1, the log of its norm added to its total, and normalised.  A
    vector that is then exactly 0 adds LOG_FLOOR instead and is replaced by
    the first of e_1 .. e_n that stays nonzero when so orthogonalised,
    normalised: e_1 for vector 0.  Returns the totals and whether a vector
    vanished; leaves ``q`` at the last step's vectors."""
    last, totals, saturated = len(q[0]) - 1, [0.0] * len(q), False
    basis = np.eye(last + 1).tolist()
    for jacs in blocks:
        for jac in jacs.tolist():
            new = []
            for i, u in enumerate(q):
                x = []
                for row in jac:
                    xi = row[last] * u[last]
                    for j in range(last - 1, -1, -1):
                        xi = _fma(row[j], u[j], xi)
                    x.append(xi)
                x, norm = _orthogonalised(x, new)
                if norm == 0.0:
                    totals[i] += LOG_FLOOR
                    saturated = True
                    new.append(next([y / size for y in e] for e, size in
                                    (_orthogonalised(e, new) for e in basis) if size != 0.0))
                else:
                    totals[i] += math.log(norm)
                    new.append([xi / norm for xi in x])
            q[:] = new
    return totals, saturated


def _tangent(lambdas: Sequence[float], params: ModelParams, transient: int, steps: int,
             q: list[list[float]]) -> tuple[list[float], bool]:
    """The renormalised tangent pass (Benettin et al. 1980) of the k unit
    vectors ``q``, re-orthonormalised by modified Gram-Schmidt (Shimada &
    Nagashima 1979), over ``steps`` steps after ``transient`` of the orbit
    from ``lambdas``: ``_tangent_steps``'s totals and flag.  Runs transient
    and window in one call of ``levdyn_orbit``; where that defers, as it
    does where a vector vanishes, or did not load, the Python pass runs
    from the start.  Raises ValueError before either unless steps >= 1,
    transient >= 0 and the run can count its steps, as ``orbits._run``
    does, and ``lambdas`` holds one leverage per bank of ``params``: the
    compiled pass reads that many."""
    if steps < 1 or transient < 0:
        raise ValueError("need steps >= 1 and transient >= 0")
    _check_run(lambdas, params, transient, steps)
    if _kernel.lib is not None:
        start, totals = np.array(q, dtype=float), np.zeros(len(q))
        ran = _compiled_orbit(lambdas, params, transient, steps, None, len(q),
                              start.ctypes.data, totals.ctypes.data)
        if ran is not None:
            if ran[1] is not None:
                raise OrbitViolationError(*ran[1])
            return totals.tolist(), False
    return _tangent_steps(_window_jacobians(lambdas, params, transient, steps), q)


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
