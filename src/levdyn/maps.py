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


def leverage_map_deriv(x: float, omega: float, params: ModelParams) -> float:
    """Analytic derivative T'(x) = T(x)^3 [omega/x^3 - (1-omega) K/(1+gamma-x)^3],
    the 1 x 1 step_jacobian."""
    t = leverage_map(x, omega, params)
    return float(step_jacobian([x], [t], params.with_single_omega(omega))[0, 0])


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
    return step_jacobian(lambdas, advance(lambdas, params), params)


def step_jacobian(
    lams: Sequence[float] | np.ndarray, new: Sequence[float] | np.ndarray, params: ModelParams
) -> np.ndarray:
    """coupled_jacobian at states ``lams`` (N, or a stack of them,
    ... x N) whose step is already known: ``new`` holds their successors.
    Every state takes its memories, weights, gamma and coupling
    coefficient from ``params``.  Returns (..., N, N); one bank gives
    leverage_map_deriv exactly.
    """
    lams, new, omegas, pis = (
        np.asarray(a, dtype=float) for a in (lams, new, params.omegas, params.pis))
    n = lams.shape[-1]
    d = 1.0 + params.gamma - mean_field(np.moveaxis(lams, -1, 0), pis)
    kernel3 = params.coupling_coef / (d * d * d)
    entry = -((1.0 - omegas) * kernel3[..., None])[..., :, None] * pis
    # the diagonal, as a strided view of the fresh array
    entry.reshape(*entry.shape[:-2], n * n)[..., :: n + 1] += omegas / (lams * lams * lams)
    return (new * new * new)[..., :, None] * entry


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


def fiber_map_deriv(x: float, y: float, omega1: float, params: ModelParams) -> float:
    """d f_y / dx = omega1 (f_y(x)/x)^3.

    The product of these factors along an orbit telescopes to
    omega1^n (x_n/x_0)^3, which pins the fiber Lyapunov exponent at
    ln(omega1) up to a boundary term.
    """
    f = fiber_map(x, y, omega1, params)
    r = f / x
    return omega1 * r * r * r
