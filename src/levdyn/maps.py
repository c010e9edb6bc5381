"""Pure map evaluations on raw leverages: the one per-bank update, the
coupled N-bank step built from it (``advance``), and their analytic
derivatives.  No routine here takes or returns a ``LeverageState``; the
callers check feasibility.

Every bank applies the same VaR update against a leverage y:

    f_y(x) = (omega/x^2 + (1-omega) K / (1+gamma-y)^2)^(-1/2),
    K = alpha^2 gamma^2 sigma_eps_sq,     x > 0,  y < 1+gamma.

Only y differs between the three dynamics.  An isolated bank is its own
mean field, T(x) = f_x(x) on x in (0, 1+gamma).  Coupled banks all see
the weighted mean leverage m = sum pi_j lambda_j,
lambda_i' = f_m(lambda_i) with omega_i.  A zero-weight bank forced by a
large one sees the forcing leverage y.

All evaluations run in 64-bit floats; every routine derives the mean
field and intermediate terms in the same order so analytic Jacobians
match orbit iteration exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError
from .params import ModelParams, mean_field


def leverage_map(x: float, omega: float, params: ModelParams) -> float:
    """Single-bank leverage update T(x) = f_x(x).

    Requires 0 < x < 1 + gamma.  For omega = 1 the map is the identity
    (up to floating-point rounding of the inverse square root).
    """
    return fiber_map(x, x, omega, params)


def advance(lambdas: Sequence[float], params: ModelParams) -> list[float]:
    """One synchronous step of the coupled map on raw leverages.

    Computes the mean field once, then applies every bank's update
    against it.  Raises DomainError when a leverage is non-positive or
    the mean field reaches 1 + gamma (the variance kernel diverges).
    """
    m = mean_field(lambdas, params.pis)
    return [fiber_map(lam, m, omega, params) for lam, omega in zip(lambdas, params.omegas)]


def coupled_jacobian(lambdas: Sequence[float], params: ModelParams) -> np.ndarray:
    """N x N Jacobian of the coupled step at the given leverages.

    Entry (i, j) = T_i^3 [omega_i delta_ij / lambda_i^3
                          - (1-omega_i) K pi_j / (1+gamma-m)^3]
    where T_i is the updated leverage of bank i.
    """
    new = advance(lambdas, params)
    d = 1.0 + params.gamma - mean_field(lambdas, params.pis)
    kernel3 = params.coupling_coef / ((d * d) * d)
    return np.array(step_jacobian(lambdas, new, kernel3, params.omegas, params.pis))


def step_jacobian(lams: Sequence[float], new: Sequence[float], kernel3: float,
                  omegas: Sequence[float], pis: Sequence[float]) -> list[list[float]]:
    """coupled_jacobian's rows at ``lams``, whose successors ``new`` are
    known, with kernel3 = K / (1+gamma-m)^3 at their mean field m: the one
    Python Jacobian, which ``orbits._run`` steps on and ``levdyn_orbit`` mirrors."""
    rows = []
    for i in range(len(lams)):
        lam = lams[i]
        w = omegas[i]
        a = -((1.0 - w) * kernel3)
        lam3 = (lam * lam) * lam
        # 0 only from an infeasible start: C's quotient, inf or nan
        diag = w / lam3 if lam3 else w * math.copysign(math.inf, lam3)
        cube = (new[i] * new[i]) * new[i]
        row = [cube * (a * pj) for pj in pis]
        row[i] = cube * (a * pis[i] + diag)
        rows.append(row)
    return rows


def fiber_map(x: float, y: float, omega1: float, params: ModelParams) -> float:
    """The update f_y(x) every bank applies, against the leverage y it sees.

    Monotonically increasing and concave in x, with horizontal asymptote
    ((1-omega1) var_kernel(y))^(-1/2) as x grows.  Requires x > 0 and
    y < 1 + gamma.
    """
    if not x > 0.0:
        raise DomainError(f"leverage must be positive, got {x}")
    if not y < params.lambda_max:
        raise DomainError(
            f"mean field must be below 1 + gamma = {params.lambda_max}, got {y}"
        )
    g = omega1 / (x * x) + (1.0 - omega1) * params.var_kernel(y)
    return 1.0 / math.sqrt(g)
