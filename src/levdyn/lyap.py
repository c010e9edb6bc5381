"""Lyapunov exponents: scalar map exponent, top exponent by a
renormalized tangent vector, full spectrum via QR products of analytic
Jacobians, and the fiber exponent of the forced subsystem.

The map exponents read their orbit from ``orbits._run``, the one scalar
orbit loop, and form each Jacobian from a state and its successor
(``maps.step_jacobian``).  An orbit that leaves the feasible region has
no exponent: they raise OrbitViolationError at the (step, constraint)
that ``iterate`` records for it.  ``_top`` is the one tangent-vector
pass, behind ``lyapunov_1d`` and ``lyapunov_top``: its Python pass walks
the window's Jacobian blocks once, with the fused multiply-adds spelled
out so no BLAS kernel enters it, and its compiled copy ``levdyn_top``
steps the orbit and forms each Jacobian in one loop.

Log-derivatives hitting zero (superstable orbits) are floored at
LOG_FLOOR with a saturation flag rather than propagating -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from . import _kernel
from .errors import DomainError, InfeasibleStateError, OrbitViolationError
from .maps import fiber_map, step_jacobian
from .orbits import _CONSTRAINTS, _bank_count, _run_checked
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


def _after_transient(lambdas: list[float], params: ModelParams, transient: int, steps: int):
    """The state at step ``transient`` of the orbit from ``lambdas``.
    Raises ValueError, as ``orbits._run`` does, unless ``lambdas`` holds
    one leverage per bank of ``params``: the compiled pass reads that many."""
    if steps < 1 or transient < 0:
        raise ValueError("need steps >= 1 and transient >= 0")
    _bank_count(lambdas, params)
    if transient:
        lambdas = _run_checked(lambdas, params, transient - 1, 1)[0].tolist()
    return lambdas


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
    lambdas = _after_transient(lambdas, params, transient, steps)
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
    """Exponent (1/steps) sum log|T'(x_t)| of the single-bank map, by the
    tangent pass on one bank.  Raises OrbitViolationError if the orbit
    leaves the feasible region, at step 0 for an infeasible ``x0``; the
    exponent is undefined on a truncated orbit."""
    p = params.with_single_omega(omega)
    initial = LeverageState.from_lambdas([x0], p)
    try:
        initial.require_feasible()
    except InfeasibleStateError as exc:
        raise OrbitViolationError(0, exc.constraint) from None
    vectors = partial(_tangent_vectors, 0, 1)
    total, saturated = _top(list(initial.lambdas), p, transient, steps, vectors)
    return LyapunovEstimate((total / steps,), steps, transient, saturated)


def lyapunov_spectrum(
    initial: LeverageState,
    params: ModelParams,
    transient: int = 1000,
    steps: int = 100_000,
) -> LyapunovEstimate:
    """Full spectrum from QR-factorized products of analytic Jacobians,
    re-orthonormalized every step (N is small, so the cost is negligible
    and the product cannot overflow in chaotic regimes).  Exponents are
    the accumulated log magnitudes of the R diagonals divided by the
    step count, sorted descending."""
    initial.require_feasible()
    n = params.n_banks
    q = np.eye(n)
    acc = np.zeros(n)
    saturated = False
    for jacs in _window_jacobians(list(initial.lambdas), params, transient, steps):
        for jac in jacs:
            q, r = np.linalg.qr(jac @ q)
            diag = np.abs(np.diag(r))
            for k in range(n):
                if diag[k] > 0.0:
                    acc[k] += math.log(diag[k])
                else:
                    acc[k] += LOG_FLOOR
                    saturated = True
    exps = tuple(float(v) for v in np.sort(acc / steps)[::-1])
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
    vectors = partial(_tangent_vectors, seed, params.n_banks)
    return _top(list(initial.lambdas), params, transient, steps, vectors)[0] / steps


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
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _norm(v: list[float]) -> float:
    """The 2-norm, squared as v[0] v[0] then fma(v[j], v[j], .) for j >= 1."""
    sq = v[0] * v[0]
    for x in v[1:]:
        sq = _fma(x, x, sq)
    return math.sqrt(sq)


def _tangent_vectors(seed: int, n: int) -> Iterator[list[float]]:
    """``_top``'s unit vectors, from ``default_rng(seed)``: the start, then
    one for each vector that vanishes."""
    rng = np.random.default_rng(seed)
    while True:
        v = rng.standard_normal(n).tolist()
        norm = _norm(v)
        yield [x / norm for x in v]


def _tangent_steps(blocks: Iterable[np.ndarray], u: list[float],
                   unit: Iterator[list[float]]) -> tuple[float, bool]:
    """The tangent pass over a window of Jacobian blocks: each step maps
    the unit vector ``u`` (entry i is J[i, n-1] u[n-1], then
    fma(J[i, j], u[j], .) for j = n-2 down to 0), adds the log of its norm
    to the total and renormalizes it in place.  A vector that maps to 0
    adds LOG_FLOOR instead and is replaced in place by the next of
    ``unit``.  Returns the total, and whether that happened."""
    last, total, saturated = len(u) - 1, 0.0, False
    for jacs in blocks:
        for jac in jacs.tolist():
            x = []
            for row in jac:
                xi = row[last] * u[last]
                for j in range(last - 1, -1, -1):
                    xi = _fma(row[j], u[j], xi)
                x.append(xi)
            norm = _norm(x)
            if norm == 0.0:
                total += LOG_FLOOR
                saturated = True
                u[:] = next(unit)
            else:
                total += math.log(norm)
                u[:] = [xi / norm for xi in x]
    return total, saturated


def _top(lambdas: list[float], params: ModelParams, transient: int, steps: int,
         vectors: Callable[[], Iterator[list[float]]]) -> tuple[float, bool]:
    """The renormalized tangent-vector pass (Benettin et al. 1980) over
    ``steps`` steps after ``transient`` of the orbit from ``lambdas``: the
    summed log growth of the first of ``vectors()``, and whether a vector
    vanished; that adds LOG_FLOOR and goes on from the next.  Runs
    ``levdyn_top``; where that defers or did not load, the Python pass
    (``_tangent_steps`` over ``_window_jacobians``) runs from the start."""
    lib, unit = _kernel.lib, vectors()
    if lib is not None:
        lams, omegas, pis = (np.array(a, dtype=float) for a in (
            _after_transient(lambdas, params, transient, steps), params.omegas, params.pis))
        u, total, out = np.array(next(unit)), np.zeros(1), np.zeros(1, np.int64)
        orbit = (params.n_banks, lams.ctypes.data, omegas.ctypes.data, pis.ctypes.data,
                 params.gamma, params.lambda_max, params.coupling_coef)
        tangent, done = (u.ctypes.data, total.ctypes.data, out.ctypes.data), 0
        while (code := lib.levdyn_top(*orbit, steps - done, *tangent)) == _kernel.VANISHED:
            done += int(out[0]) + 1
            total[0] += LOG_FLOOR
            u[:] = next(unit)
        if code == 0:
            return total.item(), done > 0  # done moves only past a vanished vector
        if code != _kernel.DEFER:
            raise OrbitViolationError(transient + done + int(out[0]) + 1, _CONSTRAINTS[code])
        unit = vectors()
    return _tangent_steps(_window_jacobians(lambdas, params, transient, steps), next(unit), unit)


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
