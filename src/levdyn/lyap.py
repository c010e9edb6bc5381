"""Lyapunov exponents: scalar map exponent, top exponent by a
renormalized tangent vector, full spectrum via QR products of analytic
Jacobians, and the fiber exponent of the forced subsystem.

The map exponents read their orbit from ``orbits._run``, the one scalar
orbit loop, and build each Jacobian from a state and its recorded
successor (``maps.step_jacobian``).  An orbit that leaves the feasible
region has no exponent: they raise OrbitViolationError at the
(step, constraint) that ``iterate`` records for it.  ``_top`` is the one
tangent-vector pass, behind ``lyapunov_1d``, ``lyapunov_top`` and every
sweep lane; spelled out in fused multiply-adds, it does not depend on
the BLAS kernel, as ``lyapunov_spectrum`` still does.

Log-derivatives hitting zero (superstable orbits) are floored at
LOG_FLOOR with a saturation flag rather than propagating -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import _kernel
from .errors import DomainError, InfeasibleStateError, OrbitViolationError
from .maps import fiber_map, step_jacobian
from .orbits import _run_checked
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
    total, saturated = _top(_window_jacobians(list(initial.lambdas), p, transient, steps), 1, 0)
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
    blocks = _window_jacobians(list(initial.lambdas), params, transient, steps)
    return _top(blocks, params.n_banks, seed)[0] / steps


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


def _unit(rng: np.random.Generator, n: int) -> list[float]:
    v = rng.standard_normal(n).tolist()
    norm = _norm(v)
    return [x / norm for x in v]


def _tangent_start(seed: int, n: int) -> list[float]:
    return _unit(np.random.default_rng(seed), n)


def _tangent_steps(jacs: np.ndarray, u: list[float], total: float) -> tuple[int, float]:
    """The tangent pass over a block of Jacobians: each step maps the unit
    vector ``u`` (entry i is J[i, n-1] u[n-1], then fma(J[i, j], u[j], .)
    for j = n-2 down to 0), adds the log of its norm to ``total`` and
    renormalizes it in place.  Returns the first step whose vector is
    exactly 0, adding nothing for it, or ``len(jacs)``, with the total.
    Runs compiled (``levdyn_tangent``) when that loaded."""
    if _kernel.lib is not None:
        # the loop reads len(jacs) n x n blocks: another size raises here
        jacs = np.ascontiguousarray(jacs, dtype=float).reshape(len(jacs), len(u), len(u))
        vec, acc = np.array(u, dtype=float), np.array([total])
        stop = _kernel.lib.levdyn_tangent(len(u), jacs.ctypes.data, len(jacs),
                                          vec.ctypes.data, acc.ctypes.data)
        u[:] = vec.tolist()
        return stop, acc.item()
    last = len(u) - 1
    for step, jac in enumerate(jacs.tolist()):
        x = []
        for row in jac:
            xi = row[last] * u[last]
            for j in range(last - 1, -1, -1):
                xi = _fma(row[j], u[j], xi)
            x.append(xi)
        norm = _norm(x)
        if norm == 0.0:
            return step, total
        total += math.log(norm)
        u[:] = [xi / norm for xi in x]
    return len(jacs), total


def _top(blocks: Iterable[np.ndarray], n: int, seed: int) -> tuple[float, bool]:
    """The renormalized tangent-vector pass (Benettin et al. 1980) over
    blocks of n x n Jacobians: the summed log growth of a unit vector
    drawn from ``default_rng(seed)``, and whether it ever vanished.  A
    vector mapped to exactly 0 adds LOG_FLOOR and is redrawn from a second
    ``default_rng(seed)``, past the start draw.  On one bank the vector
    stays exactly +-1 and its norm is |T'|."""
    u = _tangent_start(seed, n)
    total, redraws = 0.0, None
    for jacs in blocks:
        done, total = _tangent_steps(jacs, u, total)
        while done < len(jacs):
            if redraws is None:
                redraws = np.random.default_rng(seed)
                redraws.standard_normal(n)  # the start draw
            u[:] = _unit(redraws, n)
            jacs = jacs[done + 1:]
            done, total = _tangent_steps(jacs, u, total + LOG_FLOOR)
    return total, redraws is not None


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
