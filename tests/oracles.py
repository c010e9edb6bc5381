"""Oracles and a parser that only the tests use.

``leverage_map_deriv`` and ``fiber_map_deriv`` are the analytic
derivatives of the one-bank map and of the fiber map, written out in
closed form, which the tests hold ``levdyn.maps.coupled_jacobian`` and
the Lyapunov exponents to; ``read_csv`` parses what
``levdyn.output.write_csv`` writes.
"""

from __future__ import annotations

from typing import TextIO

from levdyn.maps import fiber_map, leverage_map
from levdyn.params import ModelParams


def leverage_map_deriv(x: float, omega: float, params: ModelParams) -> float:
    """Analytic derivative T'(x) = T(x)^3 [omega/x^3 - (1-omega) K/(1+gamma-x)^3],
    K = alpha^2 gamma^2 sigma_eps_sq.  Raises DomainError where T does."""
    t = leverage_map(x, omega, params)
    k = params.alpha * params.alpha * params.gamma * params.gamma * params.sigma_eps_sq
    d = 1.0 + params.gamma - x
    return t * t * t * (omega / (x * x * x) - (1.0 - omega) * (k / (d * d * d)))


def fiber_map_deriv(x: float, y: float, omega1: float, params: ModelParams) -> float:
    """d f_y / dx = omega1 (f_y(x)/x)^3.

    The product of these factors along an orbit telescopes to
    omega1^n (x_n/x_0)^3, which pins the fiber Lyapunov exponent at
    ln(omega1) up to a boundary term.
    """
    f = fiber_map(x, y, omega1, params)
    r = f / x
    return omega1 * r * r * r


def read_csv(stream: TextIO) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Parse a file produced by write_csv.

    Returns (provenance, columns, rows) with cells kept as strings; the
    17-digit float serialization guarantees float(cell) recovers the
    exact written value.
    """
    provenance: dict[str, str] = {}
    columns: list[str] | None = None
    rows: list[list[str]] = []
    for raw in stream:
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                provenance[key.strip()] = value.strip()
            continue
        if columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return provenance, columns or [], rows
