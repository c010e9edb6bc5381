from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levdyn.errors import InsufficientTraceError
from levdyn.lyap import lyapunov_1d, lyapunov_top
from levdyn.orbits import (
    _run,
    classify,
    detect_period,
    estimate_feasible_set,
    iterate,
    pair_sync,
    window_period,
)
from levdyn.params import LeverageState, ModelParams, common_fixed_point, mean_field

from conftest import needs_kernel, python_loops, two_bank


class TestIterate:
    def test_fixed_point_orbit_is_constant(self):
        # memories high enough that the shared fixed point is attracting;
        # at unstable parameters the one-ulp seeding residual amplifies
        p = two_bank(0.9, 0.8, 0.3)
        lam_star = common_fixed_point(p)
        state = LeverageState.from_lambdas([lam_star, lam_star], p)
        trace = iterate(state, p, transient=500, record=200)
        assert trace.survived
        assert np.max(np.abs(trace.recorded - lam_star)) < 1e-8

    def test_full_memory_orbit_constant(self):
        p = ModelParams(omegas=(1.0,), pis=(1.0,))
        trace = iterate(LeverageState.from_lambdas([50.0], p), p, 0, 100)
        assert np.max(np.abs(trace.recorded - 50.0)) < 1e-10

    def test_homogeneous_pair_converges_to_common_value(self, rng):
        p = two_bank(0.8, 0.8, 0.5)
        init = LeverageState.from_lambdas(rng.uniform(1, 101, 2), p)
        trace = iterate(init, p, transient=2000, record=50)
        assert trace.survived
        last = trace.recorded[-1]
        assert abs(last[0] - last[1]) < 1e-8
        # omega = 0.8 lands on the shared fixed point
        assert last[0] == pytest.approx(common_fixed_point(p), abs=1e-6)

    def test_record_counts(self, std1):
        trace = iterate(LeverageState.from_lambdas([50.0], std1), std1, 10, 37)
        assert trace.n_recorded == 37
        assert trace.transient_len == 10

    def test_violating_run_truncates_with_metadata(self, std1):
        # omega below the crisis value: every orbit escapes quickly
        p = ModelParams(omegas=(0.2,), pis=(1.0,))
        trace = iterate(LeverageState.from_lambdas([50.0], p), p, 0, 500)
        assert not trace.survived
        step, constraint = trace.violation
        assert constraint in ("leverage_floor", "ar1_stationarity")
        assert trace.n_recorded < 500
        # everything recorded is feasible
        for row in trace.recorded:
            assert np.all(row >= 1.0)
            assert mean_field(list(row), p.pis) <= p.lambda_max

    @pytest.mark.parametrize("loops", [None, python_loops])
    def test_bank_count_must_match_params(self, std1, loops):
        two = two_bank(0.5, 0.3, 0.5)
        one_bank = LeverageState.from_lambdas([50.0], std1)
        two_banks = LeverageState.from_lambdas([50.0, 60.0], two)
        with loops() if loops else contextlib.nullcontext():
            with pytest.raises(ValueError, match="1 leverages, params have 2 banks"):
                iterate(one_bank, two, 0, 10)
            with pytest.raises(ValueError, match="2 leverages, params have 1 banks"):
                iterate(two_banks, std1, 0, 10)
            # the exponent pass, which reads one leverage per bank, checks
            # before its transient runs
            for transient in (0, 5):
                with pytest.raises(ValueError, match="1 leverages, params have 2 banks"):
                    lyapunov_top(one_bank, two, transient, 10)
                with pytest.raises(ValueError, match="2 leverages, params have 1 banks"):
                    lyapunov_top(two_banks, std1, transient, 10)

    @pytest.mark.parametrize("loops", [None, python_loops])
    def test_counts_past_int64_are_refused(self, loops):
        # C's long long would wrap 2**64 + 5 to 5, and Python would never end
        p = two_bank(0.5, 0.3, 0.5)
        state = LeverageState.from_lambdas([50.0, 60.0], p)
        with loops() if loops else contextlib.nullcontext():
            with pytest.raises(ValueError, match="exceeds 9223372036854775807"):
                iterate(state, p, 2**64 + 5, 10)
            with pytest.raises(ValueError, match="exceeds 9223372036854775807"):
                iterate(state, p, 2**63 - 10, 10)
            with pytest.raises(ValueError, match="exceeds 9223372036854775807"):
                lyapunov_top(state, p, 2**64 + 5, 10)

    def test_determinism_bitwise(self, rng):
        p = two_bank(0.5, 0.3, 0.5)
        init = LeverageState.from_lambdas(rng.uniform(1, 101, 2), p)
        a = iterate(init, p, 100, 300)
        b = iterate(init, p, 100, 300)
        assert a.violation == b.violation
        assert np.array_equal(a.recorded, b.recorded)


class TestSyncMetric:
    def test_equal_leverages_zero(self):
        assert pair_sync(42.0, 42.0) == 0.0

    def test_arithmetic(self):
        assert pair_sync(10.0, 30.0) == 0.5

    def test_strictly_decreasing_along_homogeneous_orbits(self, rng):
        for _ in range(10):
            omega = float(rng.uniform(0.05, 0.95))
            pi1 = float(rng.uniform(0, 1))
            p = two_bank(omega, omega, pi1)
            lams = list(rng.uniform(1, 101, 2))
            state = LeverageState.from_lambdas(lams, p)
            if not state.feasible:
                continue
            trace = iterate(state, p, transient=0, record=2000)
            if not trace.survived:
                continue
            metrics = [pair_sync(float(r[0]), float(r[1])) for r in trace.recorded]
            metrics.insert(0, pair_sync(*lams))
            for before, after in zip(metrics, metrics[1:]):
                if before < 1e-8:
                    break
                assert after < before

    def test_five_banks_equal_memory_synchronize(self, rng):
        omegas = (0.6,) * 5
        raw = rng.uniform(0.1, 1.0, 5)
        p = ModelParams(omegas=omegas, pis=tuple(raw / raw.sum()))
        state = LeverageState.from_lambdas(rng.uniform(1, 80, 5), p)
        trace = iterate(state, p, transient=0, record=10_000)
        assert trace.survived
        finals = trace.recorded[-1]
        worst = max(
            pair_sync(float(a), float(b))
            for i, a in enumerate(finals)
            for b in finals[i + 1 :]
        )
        assert worst < 1e-6


def all_lags_period(rows: np.ndarray, p_max: int, tol: float) -> int | None:
    """Brute-force oracle for window_period: the full window test on every
    lag from 1 up, with no screen."""
    w = rows[-3 * p_max:]
    for p in range(1, p_max + 1):
        if np.max(np.abs(w[p:] - w[:-p])) < tol:
            return p
    return None


@st.composite
def periodic_windows(draw) -> tuple[np.ndarray, int, float]:
    """Rows of 1-3 columns, exactly periodic with period 1..p_max + 2, then
    some entries moved by 0, tol / 2, exactly tol or 2 tol, and some set
    to NaN or +-inf, at any row or next to the window's edge.  With the
    power-of-two tolerances the moves are exact, so a move of exactly tol
    lands on the test's boundary."""
    p_max = draw(st.integers(1, 64))
    tol = draw(st.sampled_from([1e-7, 2.0**-23, 2.0**-10]))
    period = draw(st.integers(1, p_max + 2))
    cols = draw(st.integers(1, 3))
    n_rows = 3 * p_max + draw(st.integers(0, 4))
    entry = st.sampled_from([1.0, 2.5, 50.0])
    cycle = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=period, max_size=period))
    rows = np.tile(np.array(cycle), (-(-n_rows // period), 1))[:n_rows]
    # any row, or one at either side of the window's first row
    edges = [r for r in (n_rows - 3 * p_max - 1, n_rows - 3 * p_max) if r >= 0]
    row = st.one_of(st.integers(0, n_rows - 1), st.sampled_from(edges))
    cell = st.tuples(row, st.integers(0, cols - 1))
    for r, c in draw(st.lists(cell, max_size=4)):
        rows[r, c] += draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, -1.0, -2.0])) * tol
    for r, c in draw(st.lists(cell, max_size=2)):
        rows[r, c] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return rows, p_max, tol


class TestDetectPeriod:
    def test_constant_trace_is_period_one(self):
        p = ModelParams(omegas=(1.0,), pis=(1.0,))
        trace = iterate(LeverageState.from_lambdas([50.0], p), p, 0, 200)
        assert detect_period(trace, p_max=8).period == 1

    def test_period_two_window(self, std1):
        p = ModelParams(omegas=(0.58,), pis=(1.0,))
        trace = iterate(LeverageState.from_lambdas([50.0], p), p, 4000, 200)
        assert detect_period(trace, p_max=64).period == 2

    def test_period_four_window(self):
        p = ModelParams(omegas=(0.5,), pis=(1.0,))
        trace = iterate(LeverageState.from_lambdas([50.0], p), p, 4000, 200)
        assert detect_period(trace, p_max=64).period == 4

    def test_chaotic_regime_reports_aperiodic(self):
        # omega = 0.30: surviving chaotic band; cross-checked against the
        # exponent (the region below ~0.27 escapes instead of being chaotic)
        p = ModelParams(omegas=(0.30,), pis=(1.0,))
        trace = iterate(LeverageState.from_lambdas([50.0], p), p, 4000, 200)
        report = detect_period(trace, p_max=64)
        assert report.period is None
        assert lyapunov_1d(0.30, p, x0=50.0, transient=2000, steps=20_000).top > 0

    def test_reports_minimal_period_on_synthetic_trace(self, std1):
        # a 6-cycle must not be reported as any of its multiples, and a
        # sub-tolerance wobble still counts as period 1
        from levdyn.orbits import OrbitTrace
        from levdyn.params import LeverageState

        cycle = np.array([10.0, 40.0, 25.0, 70.0, 55.0, 90.0])
        recorded = np.tile(cycle, 40).reshape(-1, 1)
        trace = OrbitTrace(
            params=std1,
            initial=LeverageState.from_lambdas([10.0], std1),
            transient_len=0,
            recorded=recorded,
            violation=None,
        )
        assert detect_period(trace, p_max=64).period == 6

        wobble = 50.0 + 1e-9 * np.sin(np.arange(240.0))
        trace2 = OrbitTrace(
            params=std1,
            initial=LeverageState.from_lambdas([50.0], std1),
            transient_len=0,
            recorded=wobble.reshape(-1, 1),
            violation=None,
        )
        assert detect_period(trace2, p_max=64, tol=1e-7).period == 1

    def test_insufficient_trace_raises(self, std1):
        trace = iterate(LeverageState.from_lambdas([50.0], std1), std1, 0, 50)
        with pytest.raises(InsufficientTraceError):
            detect_period(trace, p_max=64)

    def test_violated_trace_rejected(self):
        p = ModelParams(omegas=(0.2,), pis=(1.0,))
        trace = iterate(LeverageState.from_lambdas([50.0], p), p, 0, 500)
        with pytest.raises(InsufficientTraceError):
            detect_period(trace, p_max=8)

    @pytest.mark.parametrize("p_max", [0, -2])
    def test_p_max_below_one_raises(self, std1, p_max):
        trace = iterate(LeverageState.from_lambdas([50.0], std1), std1, 0, 50)
        with pytest.raises(ValueError, match="p_max must be >= 1"):
            detect_period(trace, p_max=p_max)
        with pytest.raises(ValueError, match="p_max must be >= 1"):
            window_period(trace.recorded, p_max, 1e-7)

    @settings(max_examples=300, deadline=None)
    @given(case=periodic_windows())
    def test_screened_lags_match_all_lags(self, case):
        rows, p_max, tol = case
        # inf - inf is NaN by design here, where clean runs never hold one
        with np.errstate(invalid="ignore"):
            report = window_period(rows, p_max, tol)
            expected = all_lags_period(rows, p_max, tol)
        assert (report.period, report.tol, report.window) == (expected, tol, 3 * p_max)


class TestFeasibleSet:
    def test_negative_horizon_raises(self):
        with pytest.raises(ValueError, match="horizon >= 0"):
            estimate_feasible_set(two_bank(0.5, 0.3, 0.5), 20, -5, 0)

    def test_identity_dynamics_all_survive(self):
        p = two_bank(1.0, 1.0, 0.4)
        est = estimate_feasible_set(p, n_samples=200, horizon=200, rng_seed=9)
        assert est.survival_fraction == 1.0

    def test_nonempty_for_homogeneous_half_memory(self):
        p = two_bank(0.5, 0.5, 0.5)
        est = estimate_feasible_set(p, n_samples=100, horizon=2000, rng_seed=9)
        assert est.survival_fraction > 0

    def test_seeded_determinism(self):
        p = two_bank(0.5, 0.3, 0.5)
        a = estimate_feasible_set(p, 100, 500, rng_seed=3)
        b = estimate_feasible_set(p, 100, 500, rng_seed=3)
        assert a.survival_fraction == b.survival_fraction
        assert np.array_equal(a.survivors, b.survivors)


class TestClassify:
    def test_precedence(self):
        from levdyn.orbits import PeriodReport

        assert classify(None, None, False) == "infeasible"
        assert classify(PeriodReport(1, 1e-7, 192), 0.5, True) == "fixed-point"
        assert classify(PeriodReport(4, 1e-7, 192), 0.5, True) == "period-4"
        assert classify(PeriodReport(None, 1e-7, 192), 0.5, True) == "aperiodic"
        assert classify(PeriodReport(None, 1e-7, 192), -0.2, True) == "unresolved"
        assert classify(PeriodReport(None, 1e-7, 192), None, True) == "unresolved"


def _run_outcome(*args):
    """``_run(*args)`` as bytes and values, or the error it raises."""
    try:
        recorded, violation = _run(*args)
    except ArithmeticError as exc:
        return type(exc), exc.args
    return recorded.shape, recorded.tobytes(), violation


@st.composite
def orbit_setups(draw):
    """``_run`` arguments for random 1-4 bank runs: gamma, memories,
    weights, lengths and a start whose leverages lie inside the domain,
    exactly on the 1 + gamma bound, past it or below 1, so both surviving
    and escaping runs occur.  One start in sixteen has a zero leverage,
    on which the Python loop divides by zero."""
    banks = draw(st.integers(1, 4))
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(banks)]
    params = ModelParams(
        gamma=draw(st.floats(5.0, 200.0)),
        omegas=tuple(draw(st.floats(0.0, 1.0)) for _ in range(banks)),
        pis=tuple(x / math.fsum(raw) for x in raw),
    )
    top = params.lambda_max
    lam = st.one_of(st.floats(1.0, top), st.just(top), st.floats(0.5, 1.2 * top))
    start = [draw(lam) for _ in range(banks)]
    if draw(st.integers(0, 15)) == 0:
        start[draw(st.integers(0, banks - 1))] = 0.0
    return start, params, draw(st.integers(0, 200)), draw(st.integers(0, 300))


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(setup=orbit_setups())
@example(setup=([101.0], ModelParams(), 0, 5))  # a start on the bound cannot advance
@example(setup=([50.0], ModelParams(omegas=(0.2,)), 0, 500))  # escapes at step 13
# the transient's last step and the first step after it
@example(setup=([50.0], ModelParams(omegas=(0.2,)), 13, 5))
@example(setup=([50.0], ModelParams(omegas=(0.2,)), 12, 5))
def test_compiled_run_matches_python_loop(setup):
    got = _run_outcome(*setup)
    with python_loops():
        want = _run_outcome(*setup)
    assert got == want
