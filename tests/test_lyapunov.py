from __future__ import annotations

import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levdyn import lyap
from levdyn.errors import DomainError, OrbitViolationError
from levdyn.lyap import (
    BLOCK_STEPS,
    LOG_FLOOR,
    fiber_exponent,
    lyapunov_1d,
    lyapunov_spectrum,
    lyapunov_top,
)
from levdyn.maps import (
    advance,
    coupled_jacobian,
    fiber_map,
    fiber_map_deriv,
    leverage_map,
    leverage_map_deriv,
)
from levdyn.orbits import detect_period, iterate
from levdyn.params import LeverageState, ModelParams
from levdyn.skew import history_from_orbit

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
        # the orbit survives four steps, then the mean field of its fifth
        # state passes 1 + gamma; the exponents stop at the step that
        # produced that state, as iterate does
        params = two_bank(0.05, 0.15000000000000002, 0.4)
        state = LeverageState.from_lambdas((96.95171505688967, 91.702620462896), params)
        assert iterate(state, params, transient=0, record=3).survived
        escape = iterate(state, params, 0, 10).violation
        assert escape == (5, "ar1_stationarity")
        for exponent in (lyapunov_top, lyapunov_spectrum):
            with pytest.raises(OrbitViolationError) as info:
                exponent(state, params, transient=0, steps=2000)
            assert (info.value.step, info.value.constraint) == escape

    def test_escape_on_the_final_step_is_a_violation(self):
        # the fifth state is past 1 + gamma, so a five-step window holds an
        # infeasible state and has no exponent
        params = two_bank(0.05, 0.15000000000000002, 0.4)
        state = LeverageState.from_lambdas((96.95171505688967, 91.702620462896), params)
        for exponent in (lyapunov_top, lyapunov_spectrum):
            with pytest.raises(OrbitViolationError) as info:
                exponent(state, params, transient=0, steps=5)
            assert (info.value.step, info.value.constraint) == (5, "ar1_stationarity")
        # four steps stay feasible and keep their exponent
        assert lyapunov_top(state, params, transient=0, steps=4) == 0.875917610251258

    def test_top_estimate_matches_spectrum(self):
        p = two_bank(0.5, 0.3, 0.5)
        state = LeverageState.from_lambdas([50.0, 60.0], p)
        full = lyapunov_spectrum(state, p, 2000, 20_000)
        top = lyapunov_top(state, p, 2000, 20_000)
        assert top == pytest.approx(full.exponents[0], abs=2e-2)


class TestWindow:
    """The exponents read their orbit from orbits._run in blocks."""

    @pytest.mark.parametrize("kwargs", [{"steps": 0}, {"transient": -5}])
    def test_bad_lengths_raise(self, std1, kwargs):
        p = two_bank(0.5, 0.3, 0.5)
        state = LeverageState.from_lambdas([50.0, 60.0], p)
        run = {"transient": 10, "steps": 10, **kwargs}
        with pytest.raises(ValueError):
            lyapunov_1d(0.5, std1, 50.0, **run)
        with pytest.raises(ValueError):
            lyapunov_top(state, p, **run)
        with pytest.raises(ValueError):
            lyapunov_spectrum(state, p, **run)

    def test_infeasible_start_is_step_zero(self, std1):
        for x0, constraint in ((0.5, "leverage_floor"), (102.0, "ar1_stationarity")):
            with pytest.raises(OrbitViolationError) as info:
                lyapunov_1d(0.5, std1, x0, transient=10, steps=10)
            assert (info.value.step, info.value.constraint) == (0, constraint)

    def test_memory_does_not_grow_with_steps(self, std1):
        p = two_bank(0.5, 0.3, 0.5)
        state = LeverageState.from_lambdas([50.0, 60.0], p)
        runs = {
            "lyapunov_1d": lambda steps: lyapunov_1d(0.3, std1, 50.0, 100, steps),
            "lyapunov_spectrum": lambda steps: lyapunov_spectrum(state, p, 100, steps),
        }
        for name, run in runs.items():
            peaks = []
            for steps in (2048, 8192):
                tracemalloc.start()
                try:
                    run(steps)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            # holding one float per step would add 48 KiB over the 6,144 extra steps
            assert peaks[1] < peaks[0] + 16 * 1024, (name, peaks)


def _outcome(fn):
    try:
        value = fn()
    except OrbitViolationError as exc:
        return ("violation", exc.step, exc.constraint)
    except DomainError:
        return ("domain",)
    return repr(value)


def _log_or_floor(x):
    return math.log(x) if x > 0.0 else LOG_FLOOR


def _reference_1d(omega, p, x0, transient, steps):
    x = x0
    for _ in range(transient):
        x = leverage_map(x, omega, p)
    total = 0.0
    for _ in range(steps):
        total += _log_or_floor(abs(leverage_map_deriv(x, omega, p)))
        x = leverage_map(x, omega, p)
    return (total / steps,)


def _reference_history(omega, p, x0, transient, depth):
    x = x0
    orbit = []
    for t in range(transient + depth):
        x = leverage_map(x, omega, p)
        if t >= transient:
            orbit.append(x)
    return (orbit[::-1], leverage_map(orbit[-1], omega, p))


def _reference_top(initial, p, transient, steps, seed):
    lams = list(initial.lambdas)
    for _ in range(transient):
        lams = advance(lams, p)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(p.n_banks)
    v /= np.linalg.norm(v)
    total = 0.0
    for _ in range(steps):
        v = coupled_jacobian(lams, p) @ v
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            total += math.log(norm)
            v /= norm
        else:
            total += LOG_FLOOR
            v = rng.standard_normal(p.n_banks)
            v /= np.linalg.norm(v)
        lams = advance(lams, p)
    return total / steps


def _reference_spectrum(initial, p, transient, steps, reorth_every):
    lams = list(initial.lambdas)
    for _ in range(transient):
        lams = advance(lams, p)
    q = np.eye(p.n_banks)
    acc = [0.0] * p.n_banks
    for t in range(1, steps + 1):
        q = coupled_jacobian(lams, p) @ q
        lams = advance(lams, p)
        if t % reorth_every == 0 or t == steps:
            q, r = np.linalg.qr(q)
            for k, x in enumerate(np.abs(np.diag(r))):
                acc[k] += _log_or_floor(x)
    return tuple(float(v) for v in np.sort(np.array(acc) / steps)[::-1])


def _expected(violation, reference):
    if violation is not None:
        return ("violation", *violation)
    return _outcome(reference)


@settings(max_examples=150, deadline=None)
@given(
    omegas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    pi1=st.floats(0.0, 1.0),
    gamma=st.sampled_from([20.0, 100.0]),
    starts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    transient=st.integers(0, 40),
    steps=st.integers(1, 60),
    reorth_every=st.integers(1, 4),
    seed=st.integers(0, 3),
    block=st.one_of(st.none(), st.integers(1, 16)),
)
@example(
    omegas=(0.5, 0.3), pi1=0.5, gamma=100.0, starts=(0.5, 0.6), transient=300,
    steps=2 * BLOCK_STEPS + 50, reorth_every=3, seed=0, block=None,
)
@example(
    omegas=(0.3, 0.7), pi1=0.2, gamma=100.0, starts=(0.4, 0.55), transient=0,
    steps=BLOCK_STEPS + 1, reorth_every=1, seed=1, block=None,
)
@example(
    omegas=(0.05, 0.15000000000000002), pi1=0.4, gamma=100.0,
    starts=(0.9595171505688967, 0.90702620462896), transient=0, steps=5,
    reorth_every=1, seed=0, block=2,
)
@example(
    omegas=(0.0, 0.0), pi1=0.0, gamma=20.0, starts=(1.0, 0.0), transient=0,
    steps=1, reorth_every=1, seed=0, block=None,
)
def test_exponents_match_step_by_step_maps(
    omegas, pi1, gamma, starts, transient, steps, reorth_every, seed, block
):
    """Each exponent and history_from_orbit equals, repr for repr, a
    composition of the public map functions one step at a time; on an
    escaping orbit it raises the (step, constraint) that iterate reports.
    ``block`` shrinks the exponents' block so that runs span several."""
    p = ModelParams(gamma=gamma, omegas=omegas, pis=(pi1, 1.0 - pi1))
    p1 = p.with_single_omega(omegas[0])
    initial = LeverageState.from_lambdas([1.0 + f * gamma for f in starts], p)
    x0 = initial.lambdas[0]
    reorth_every = min(reorth_every, steps)
    escape = iterate(initial, p, 0, transient + steps).violation
    escape_1d = iterate(LeverageState.from_lambdas([x0], p1), p1, 0, transient + steps).violation
    with patch.object(lyap, "BLOCK_STEPS", block or BLOCK_STEPS):
        assert _outcome(lambda: lyapunov_1d(omegas[0], p, x0, transient, steps).exponents) == (
            _expected(escape_1d, lambda: _reference_1d(omegas[0], p1, x0, transient, steps))
        )
        assert _outcome(lambda: lyapunov_top(initial, p, transient, steps, seed)) == (
            _expected(escape, lambda: _reference_top(initial, p, transient, steps, seed))
        )
        assert _outcome(
            lambda: lyapunov_spectrum(initial, p, transient, steps, reorth_every).exponents
        ) == _expected(
            escape, lambda: _reference_spectrum(initial, p, transient, steps, reorth_every)
        )

    def history():
        forcing, y0 = history_from_orbit(omegas[0], p, steps, transient, x0)
        return forcing.past.tolist(), y0

    if x0 < p.lambda_max:
        expected = _expected(
            escape_1d, lambda: _reference_history(omegas[0], p1, x0, transient, steps)
        )
    else:
        # history_from_orbit takes x0 in (0, 1 + gamma) only
        expected = ("domain",)
    assert _outcome(history) == expected


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
