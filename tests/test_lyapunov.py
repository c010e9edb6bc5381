from __future__ import annotations

import math

import numpy as np
import pytest

from levdyn.errors import OrbitViolationError
from levdyn.lyap import (
    LOG_FLOOR,
    fiber_exponent,
    lyapunov_1d,
    lyapunov_spectrum,
    lyapunov_top,
)
from levdyn.maps import fiber_map, fiber_map_deriv, leverage_map
from levdyn.orbits import detect_period, iterate
from levdyn.params import LeverageState, ModelParams

from conftest import two_bank


def forcing_orbit(omega2: float, params: ModelParams, x0: float, transient: int, n: int):
    x = x0
    for _ in range(transient):
        x = leverage_map(x, omega2, params)
    out = np.empty(n)
    for t in range(n):
        out[t] = x
        x = leverage_map(x, omega2, params)
    return out


class TestScalarExponent:
    def test_full_memory_identity_is_marginal(self, std1):
        est = lyapunov_1d(1.0, std1, x0=50.0, transient=10, steps=100)
        assert est.top == 0.0
        assert not est.saturated

    def test_signs_across_memory(self, std1):
        assert lyapunov_1d(0.8, std1, 50.0, transient=1000, steps=5000).top < 0
        assert lyapunov_1d(0.3, std1, 50.0, transient=2000, steps=20_000).top > 0

    def test_escaping_orbit_raises(self, std1):
        # below the crisis memory every orbit leaves the feasible region,
        # so the exponent is undefined there
        with pytest.raises(OrbitViolationError):
            lyapunov_1d(0.05, std1, 50.0, transient=100, steps=100)

    def test_sign_matches_periodicity_on_grid(self, std1):
        # positive exponent and undetected period should coincide on the
        # surviving part of a 200-point memory grid
        grid = np.linspace(0.28, 0.99, 200)
        agree = 0
        total = 0
        for omega in grid:
            p = ModelParams(omegas=(float(omega),), pis=(1.0,))
            trace = iterate(LeverageState.from_lambdas([50.0], p), p, 3000, 220)
            if not trace.survived:
                continue
            report = detect_period(trace, p_max=64)
            try:
                top = lyapunov_1d(float(omega), p, 50.0, 3000, 4000).top
            except OrbitViolationError:
                continue
            total += 1
            if (top > 1e-3) == (report.period is None):
                agree += 1
        assert total > 150
        assert agree / total >= 0.95


class TestSpectrum:
    def test_single_bank_matches_scalar(self, std1):
        est1 = lyapunov_1d(0.5, std1, 50.0, transient=500, steps=3000)
        state = LeverageState.from_lambdas([50.0], std1)
        est2 = lyapunov_spectrum(state, std1, transient=500, steps=3000)
        assert est2.exponents[0] == pytest.approx(est1.top, abs=1e-10)

    def test_zero_weight_pair_splits_exponents(self):
        # pi_1 = 0 makes the Jacobian triangular: one exponent is the
        # forcing map's own, the other telescopes to ln(omega1)
        omega1, omega2 = 0.5, 0.3
        p = two_bank(omega1, omega2, 0.0)
        state = LeverageState.from_lambdas([40.0, 60.0], p)
        est = lyapunov_spectrum(state, p, transient=2000, steps=10_000)
        base = lyapunov_1d(omega2, p, 60.0, transient=2000, steps=10_000)
        exps = sorted(est.exponents)
        assert exps[0] == pytest.approx(math.log(omega1), abs=2e-2)
        assert exps[1] == pytest.approx(base.top, abs=5e-2)

    def test_chaotic_pair_has_positive_top(self):
        p = two_bank(0.5, 0.3, 0.5)
        state = LeverageState.from_lambdas([50.0, 60.0], p)
        est = lyapunov_spectrum(state, p, transient=3000, steps=20_000)
        assert est.exponents[0] > 0.2
        assert est.exponents == tuple(sorted(est.exponents, reverse=True))

    def test_order_and_perturbation_stability(self):
        p = two_bank(0.5, 0.3, 0.5)
        a = lyapunov_spectrum(
            LeverageState.from_lambdas([50.0, 60.0], p), p, 2000, 100_000
        )
        b = lyapunov_spectrum(
            LeverageState.from_lambdas([50.000001, 60.000001], p), p, 2000, 100_000
        )
        for x, y in zip(a.exponents, b.exponents):
            assert x == pytest.approx(y, abs=5e-2)

    def test_reorthonormalization_grouping_consistent(self):
        p = two_bank(0.5, 0.3, 0.5)
        state = LeverageState.from_lambdas([50.0, 60.0], p)
        a = lyapunov_spectrum(state, p, 1000, 5000, reorth_every=1)
        b = lyapunov_spectrum(state, p, 1000, 5000, reorth_every=5)
        for x, y in zip(a.exponents, b.exponents):
            assert x == pytest.approx(y, abs=1e-8)

    def test_exactly_degenerate_direction_floors(self):
        # a zero-weight, zero-memory bank contributes an exactly null
        # Jacobian column; the log floor engages with the flag
        p = two_bank(0.0, 0.5, 0.0)
        state = LeverageState.from_lambdas([50.0, 60.0], p)
        est = lyapunov_spectrum(state, p, transient=100, steps=400)
        assert est.saturated
        assert est.exponents[-1] == LOG_FLOOR

    def test_top_escape_between_steps_is_a_violation(self):
        # the orbit survives 3 steps, then its mean field passes 1 + gamma
        # between tangent steps, before the Jacobian at that state is built
        params = two_bank(0.05, 0.15000000000000002, 0.4)
        state = LeverageState.from_lambdas((96.95171505688967, 91.702620462896), params)
        assert iterate(state, params, transient=0, record=3).survived
        with pytest.raises(OrbitViolationError) as info:
            lyapunov_top(state, params, transient=0, steps=2000)
        assert (info.value.step, info.value.constraint) == (6, "ar1_stationarity")
        with pytest.raises(OrbitViolationError):
            lyapunov_spectrum(state, params, transient=0, steps=2000)

    def test_top_estimate_matches_spectrum(self):
        p = two_bank(0.5, 0.3, 0.5)
        state = LeverageState.from_lambdas([50.0, 60.0], p)
        full = lyapunov_spectrum(state, p, 2000, 20_000)
        top = lyapunov_top(state, p, 2000, 20_000)
        assert top == pytest.approx(full.exponents[0], abs=2e-2)


class TestFiberExponent:
    def test_telescoping_identity(self, std1, rng):
        for _ in range(20):
            omega1 = float(rng.uniform(0.05, 0.95))
            omega2 = float(rng.uniform(0.3, 0.9))
            n = 150
            ys = forcing_orbit(omega2, std1, 50.0, 1000, n)
            x = float(rng.uniform(1.0, 90.0))
            x0 = x
            log_prod = 0.0
            for y in ys:
                log_prod += math.log(fiber_map_deriv(x, float(y), omega1, std1))
                x = fiber_map(x, float(y), omega1, std1)
            expected = n * math.log(omega1) + 3 * (math.log(x) - math.log(x0))
            assert log_prod == pytest.approx(expected, rel=1e-8, abs=1e-10)

    def test_matches_log_memory_within_boundary_term(self, std1, rng):
        steps = 20_000
        budget = 3.0 / steps * math.log(1 + std1.gamma) + 1e-3
        for _ in range(5):
            omega1 = float(rng.uniform(0.1, 0.9))
            omega2 = float(rng.uniform(0.3, 0.9))
            ys = forcing_orbit(omega2, std1, 50.0, 1000, steps)
            est = fiber_exponent(ys, omega1, std1, x0=30.0, steps=steps)
            assert abs(est.top - math.log(omega1)) <= budget
            assert est.top < 0

    def test_full_memory_fiber_is_marginal(self, std1):
        ys = forcing_orbit(0.8, std1, 50.0, 500, 500)
        est = fiber_exponent(ys, 1.0, std1, x0=30.0, steps=500)
        assert est.top == pytest.approx(0.0, abs=1e-12)

    def test_zero_memory_floors(self, std1):
        ys = np.full(100, 80.0)
        est = fiber_exponent(ys, 0.0, std1, x0=5.0, steps=100)
        assert est.saturated
        assert est.top == LOG_FLOOR
