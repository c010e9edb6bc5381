from __future__ import annotations

import itertools
import math
import struct
import tracemalloc
from contextlib import nullcontext
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levdyn import _kernel, lyap, orbits
from levdyn.errors import DomainError, InfeasibleStateError, OrbitViolationError
from levdyn.lyap import (
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
    leverage_map,
)
from levdyn.orbits import detect_period, iterate
from levdyn.params import LeverageState, ModelParams
from levdyn.skew import history_from_orbit

from conftest import SUPERSTABLE, needs_kernel, python_loops, two_bank
from oracles import fiber_map_deriv, leverage_map_deriv


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
    """The exponents step their orbit and tangent vectors in orbits._run,
    which holds one state whatever the window."""

    @pytest.mark.parametrize("kwargs", [{"steps": 0}, {"transient": -5}, {"steps": -5}])
    def test_bad_lengths_raise(self, std1, kwargs):
        """A negative transient or window raises on both loop paths, in the
        exponents and in ``iterate``, as does a tangent pass of no steps."""
        p = two_bank(0.5, 0.3, 0.5)
        state = LeverageState.from_lambdas([50.0, 60.0], p)
        run = {"transient": 10, "steps": 10, **kwargs}
        for loops in (nullcontext, python_loops):
            with pytest.raises(ValueError):
                lyapunov_1d(0.5, std1, 50.0, **run)
            with pytest.raises(ValueError):
                lyapunov_top(state, p, **run)
            with pytest.raises(ValueError):
                lyapunov_spectrum(state, p, **run)
            if run["steps"] < 0 or run["transient"] < 0:
                with pytest.raises(ValueError):
                    iterate(state, p, run["transient"], run["steps"])

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
    except InfeasibleStateError as exc:
        return ("infeasible", exc.constraint)
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
    v = np.random.default_rng(seed).standard_normal(p.n_banks)
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
            v = np.eye(p.n_banks)[0]
        lams = advance(lams, p)
    return total / steps


def _reference_spectrum(initial, p, transient, steps):
    """Modified Gram-Schmidt from the identity's columns, one step of
    ``coupled_jacobian`` and ``advance`` at a time, on ``_ieee_fma``."""
    lams = list(initial.lambdas)
    for _ in range(transient):
        lams = advance(lams, p)
    n = p.n_banks
    q, acc = [[float(i == j) for j in range(n)] for i in range(n)], [0.0] * n
    for _ in range(steps):
        _exact_step(coupled_jacobian(lams, p).tolist(), q, acc)
        lams = advance(lams, p)
    return tuple(sorted((x / steps for x in acc), reverse=True))


def _escape(initial, p, steps):
    """iterate's violation record, or the InfeasibleStateError of a start
    whose mean field rounds past 1 + gamma."""
    try:
        return iterate(initial, p, 0, steps).violation
    except InfeasibleStateError as exc:
        return exc


def _expected(violation, reference):
    if isinstance(violation, InfeasibleStateError):
        return ("infeasible", violation.constraint)
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
    seed=st.integers(0, 3),
)
@example(
    omegas=(0.5, 0.3), pi1=0.5, gamma=100.0, starts=(0.5, 0.6), transient=300,
    steps=562, seed=0,
)
@example(
    omegas=(0.3, 0.7), pi1=0.2, gamma=100.0, starts=(0.4, 0.55), transient=0,
    steps=257, seed=1,
)
@example(
    omegas=(0.05, 0.15000000000000002), pi1=0.4, gamma=100.0,
    starts=(0.9595171505688967, 0.90702620462896), transient=0, steps=5, seed=0,
)
@example(
    omegas=(0.0, 0.0), pi1=0.0, gamma=20.0, starts=(1.0, 0.0), transient=0,
    steps=1, seed=0,
)
@example(  # the start's mean field rounds to just past 1 + gamma
    omegas=(0.0, 0.0), pi1=0.08237388418672965, gamma=100.0, starts=(1.0, 1.0),
    transient=0, steps=1, seed=0,
)
def test_exponents_match_step_by_step_maps(omegas, pi1, gamma, starts, transient, steps, seed):
    """Each exponent and history_from_orbit equals, repr for repr, a
    composition of the public map functions one step at a time; on an
    escaping orbit it raises the (step, constraint) that iterate reports.
    Both loop paths are held to the same references."""
    p = ModelParams(gamma=gamma, omegas=omegas, pis=(pi1, 1.0 - pi1))
    p1 = p.with_single_omega(omegas[0])
    initial = LeverageState.from_lambdas([1.0 + f * gamma for f in starts], p)
    x0 = initial.lambdas[0]
    escape = _escape(initial, p, transient + steps)
    escape_1d = _escape(LeverageState.from_lambdas([x0], p1), p1, transient + steps)
    exponents = [
        (lambda: lyapunov_1d(omegas[0], p, x0, transient, steps).exponents,
         _expected(escape_1d, lambda: _reference_1d(omegas[0], p1, x0, transient, steps))),
        (lambda: lyapunov_top(initial, p, transient, steps, seed),
         _expected(escape, lambda: _reference_top(initial, p, transient, steps, seed))),
        (lambda: lyapunov_spectrum(initial, p, transient, steps).exponents,
         _expected(escape, lambda: _reference_spectrum(initial, p, transient, steps))),
    ]

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
    for loops in (nullcontext, python_loops):
        with loops():
            for exponent, reference in exponents:
                assert _outcome(exponent) == reference
            assert _outcome(history) == expected


#: each SUPERSTABLE start with its memory, run from step 0, so the tangent
#: vector meets T' = 0 at its first, second or third step
SATURATING = [(omega, x, 0) for omega, xs in SUPERSTABLE.items() for x in xs]


@settings(max_examples=150, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0).map(lambda f: 1.0 + 100.0 * f),
                  st.integers(0, 40)),
        st.sampled_from(SATURATING),
    ),
    steps=st.integers(1, 512),
)
def test_one_bank_spectrum_is_the_scalar_exponent(case, steps):
    """On one bank, lyapunov_spectrum and lyapunov_1d give the same
    estimate repr for repr, saturated ones included, and the same
    violation on an orbit that escapes.  Both loop paths."""
    omega, x0, transient = case
    p = ModelParams(omegas=(omega,), pis=(1.0,))
    state = LeverageState.from_lambdas([x0], p)
    for loops in (nullcontext, python_loops):
        with loops():
            scalar = _outcome(lambda: lyapunov_1d(omega, p, x0, transient, steps))
            assert _outcome(lambda: lyapunov_spectrum(state, p, transient, steps)) == scalar


def _pass_outcome(initial, p, steps, seed):
    """The tangent pass of one vector on the orbit from ``initial``: the
    exponent's repr with the saturation flag, or the escape."""
    try:
        (total,), saturated = orbits._run_checked(
            list(initial.lambdas), p, 0, steps, [list(lyap._start_vector(seed, p.n_banks))])
    except OrbitViolationError as exc:
        return ("violation", exc.step, exc.constraint), None
    return repr(total / steps), saturated


def _seeded_unit(rng, n):
    """n standard normals of ``rng`` over their norm, measured as
    ``orbits._orthogonalised`` measures it."""
    v, norm = orbits._orthogonalised(rng.standard_normal(n).tolist(), [])
    return [x / norm for x in v]


def _window_jacobians(start, p, steps):
    """The Jacobians of the ``steps`` steps of the orbit from ``start``, one
    block of them: ``coupled_jacobian`` at each state before a step."""
    trace = iterate(LeverageState.from_lambdas(start, p), p, 0, steps)
    assert trace.survived
    states = [start, *trace.recorded[:-1].tolist()]
    return [np.array([coupled_jacobian(state, p) for state in states])]


def _alone(omega, n):
    """n banks of which banks 2..n have memory and weight 0, so their
    Jacobian columns are 0 and bank 1, alone in the mean field, follows
    its scalar map: from a SUPERSTABLE start of ``omega`` a tangent vector
    vanishes."""
    return ModelParams(omegas=(omega, *[0.0] * (n - 1)), pis=(1.0, *[0.0] * (n - 1)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 3, 5])
def test_the_kept_start_vector_is_the_seeded_first_draw(seed, n):
    first = _seeded_unit(np.random.default_rng(seed), n)
    assert lyap._start_vector(seed, n) == tuple(first)
    p, start = _alone(0.58, n), [SUPERSTABLE[0.58][0], *[30.0] * (n - 1)]
    for loops in (nullcontext, python_loops):
        with loops():
            assert lyapunov_top(LeverageState.from_lambdas(start, p), p, 0, 10, seed) < 0.0
    # the pass replaced its vector, not the kept one: a tuple, unchanged
    assert lyap._start_vector(seed, n) == tuple(first)


@pytest.mark.parametrize("seed", [0, 5])
def test_vanishing_starts_restart_from_e1(seed):
    """On the SUPERSTABLE starts the tangent vector vanishes and restarts
    from e_1: ``lyapunov_top`` gives on both loop paths the exact
    restatement of the pass, and on one bank ``lyapunov_1d`` does too."""
    cases = [(_alone(omega, 1), [x]) for omega, xs in SUPERSTABLE.items() for x in xs]
    cases += [(_alone(0.58, 2), [x, 30.0]) for x in SUPERSTABLE[0.58]]
    for p, start in cases:
        blocks = _window_jacobians(start, p, 50)
        (total,), saturated = _tangent_pass(
            _exact_step, blocks, [list(lyap._start_vector(seed, p.n_banks))])
        assert saturated
        state = LeverageState.from_lambdas(start, p)
        for loops in (nullcontext, python_loops):
            with loops():
                assert repr(lyapunov_top(state, p, 0, 50, seed)) == repr(total / 50)
                if p.n_banks == 1:
                    scalar = lyapunov_1d(p.omegas[0], p, start[0], 0, 50)
                    assert (repr(scalar.top), scalar.saturated) == (repr(total / 50), True)


#: the exponents at the SUPERSTABLE starts over 50 steps from step 0: on
#: one bank, every seed's start vector is +-1, whose log norms are e_1's,
#: so every seed gives lyapunov_1d's estimate; and the saturated spectra
#: on two banks, bank 2 with memory and weight 0
SUPERSTABLE_TOPS = {
    0.43: ["-13.53190956690091"],
    0.58: ["-14.331649685860292", "-14.34443100593793", "-14.31346419814631"],
}
SUPERSTABLE_SPECTRA = [
    ("-14.300175543899057", "-62.901076328718"),
    ("-14.275023743392063", "-76.13537109782197"),
    ("-14.281990056209604", "-76.12814186214881"),
]


@pytest.mark.parametrize("loops", [nullcontext, python_loops])
def test_superstable_exponents_keep_their_values(loops):
    p2 = _alone(0.58, 2)
    with loops():
        for omega, xs in SUPERSTABLE.items():
            p = _alone(omega, 1)
            for x, top in zip(xs, SUPERSTABLE_TOPS[omega]):
                state = LeverageState.from_lambdas([x], p)
                assert [repr(lyapunov_top(state, p, 0, 50, seed)) for seed in range(6)] == (
                    [top] * 6)
                scalar = lyapunov_1d(omega, p, x, 0, 50)
                assert (repr(scalar.top), scalar.saturated) == (top, True)
        for x, spectrum in zip(SUPERSTABLE[0.58], SUPERSTABLE_SPECTRA):
            est = lyapunov_spectrum(LeverageState.from_lambdas([x, 30.0], p2), p2, 0, 50)
            assert (tuple(map(repr, est.exponents)), est.saturated) == (spectrum, True)


class TestTopLanes:
    """The one tangent pass behind ``lyapunov_1d``, ``lyapunov_top`` and
    the sweeps' exponents, one orbit (lane) at a time against
    ``_reference_top``."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_lanes_vanishing_at_different_steps_match_reference(self, seed):
        steps = 300
        x, y, z = SUPERSTABLE[0.58]
        p1 = ModelParams(omegas=(0.58,), pis=(1.0,))
        assert leverage_map_deriv(x, 0.58, p1) == 0.0
        assert (leverage_map(y, 0.58, p1), leverage_map(z, 0.58, p1)) == (x, y)
        # bank 2 has memory and weight 0, so its column of the Jacobian is
        # 0, and bank 1 is alone in the mean field, so it follows T: at
        # T' = 0 the tangent turns onto bank 2 and vanishes one step
        # later.  On one bank it vanishes at T' = 0.  The last two-bank
        # lane escapes at step 1.
        p2 = ModelParams(omegas=(0.58, 0.0), pis=(1.0, 0.0))
        cases = [
            (p1, [[x], [y], [z], [40.0]]),
            (p2, [[x, 30.0], [y, 30.0], [z, 30.0], [40.0, 30.0], [100.9, 30.0]]),
        ]
        for (p, starts), loops in itertools.product(cases, (nullcontext, python_loops)):
            initials = [LeverageState.from_lambdas(s, p) for s in starts]
            with loops():
                outcomes = [_pass_outcome(initial, p, steps, seed) for initial in initials]
            assert all(float(top) < LOG_FLOOR / steps and saturated
                       for top, saturated in outcomes[:3])
            for initial, (got, _) in zip(initials, outcomes):
                escape = iterate(initial, p, 0, steps).violation
                assert got == _expected(
                    escape, lambda: _reference_top(initial, p, 0, steps, seed)
                )
                if p is p1:
                    assert got == repr(lyapunov_1d(0.58, p, initial.lambdas[0], 0, steps).top)


def _exact_fma(a, b, c):
    """a * b + c, rounded once to nearest-even by exact rational arithmetic."""
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        # IEEE 754: an exact zero sum is +0, unless it adds two -0
        negative_zero_product = (a == 0 or b == 0) and math.copysign(1.0, a * b) < 0
        return -0.0 if negative_zero_product and math.copysign(1.0, c) < 0 else 0.0
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


finite = st.floats(allow_nan=False, allow_infinity=False)
#: magnitudes whose products lie about the overflow threshold 2**1024
near_overflow = st.builds(lambda m, sign: sign * m, st.floats(2.0**505, 2.0**519),
                          st.sampled_from([1.0, -1.0]))
operands = st.one_of(finite, near_overflow, st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0]))


class TestFma:
    """``orbits._fma``, the Python pass's fused multiply-add."""

    @settings(max_examples=1500, deadline=None)
    @given(a=operands, b=operands, c=operands)
    @example(a=2.0**-540, b=3.0 * 2.0**-540, c=5e-324)  # a subnormal result
    @example(a=2.0**-600, b=-(2.0**-600), c=0.0)  # rounds to -0
    @example(a=0.1, b=10.0, c=-1.0)  # the fused result is the rounding error
    @example(a=2.0**512, b=2.0**512 - 2.0**459, c=-(2.0**970))  # just below overflow
    @example(a=2.0**512, b=2.0**512 - 2.0**459, c=2.0**970)  # rounds to overflow
    @example(a=1.7e308, b=1.0, c=1.7e308)  # overflows in the sum
    @example(a=-0.0, b=3.0, c=-0.0)
    def test_rounds_once_like_exact_arithmetic(self, a, b, c):
        assert orbits._fma(a, b, c).hex() == _exact_fma(a, b, c).hex()

    @pytest.mark.parametrize("a, b, c, expected", [
        (math.inf, 0.0, 1.0, math.nan),
        (math.inf, 2.0, -math.inf, math.nan),
        (-math.inf, 2.0, 1.0, -math.inf),
        (2.0**600, 2.0**600, -math.inf, -math.inf),  # the product alone overflows
        (1.0, 2.0, math.nan, math.nan),
        (math.nan, 0.0, 1.0, math.nan),
        (3.0, 2.0, math.inf, math.inf),
    ])
    def test_non_finite_operands(self, a, b, c, expected):
        got = orbits._fma(a, b, c)
        assert (math.isnan(got) and math.isnan(expected)) or got == expected


def _ieee_fma(a, b, c):
    """C99 ``fma``: ``_exact_fma`` on finite operands; otherwise the exact
    product is a signed infinity or NaN, or it is finite and leaves c."""
    if math.isfinite(a) and math.isfinite(b):
        return _exact_fma(a, b, c) if math.isfinite(c) else c
    return a * b + c


def _exact_orthogonalised(x, q):
    """x against each of q in turn, r = q_j[0] x[0] then fma(q_j[m], x[m], r)
    and x[m] = fma(-r, q_j[m], x[m]), on ``_ieee_fma``; with its norm,
    squared as x[0] x[0] then fma(x[m], x[m], .)."""
    for qj in q:
        r = qj[0] * x[0]
        for m in range(1, len(x)):
            r = _ieee_fma(qj[m], x[m], r)
        x = [_ieee_fma(-r, qj[m], x[m]) for m in range(len(x))]
    sq = x[0] * x[0]
    for xm in x[1:]:
        sq = _ieee_fma(xm, xm, sq)
    return x, math.sqrt(sq)


def _exact_step(jac, q, totals):
    """``orbits._tangent_step`` restated on ``_ieee_fma``: entry
    i of J u is J[i, n-1] u[n-1], then fma(J[i, j], u[j], .) for j = n-2
    down to 0, for every vector of q; then vector i is orthogonalised
    against the new vectors before it, its log norm added to totals[i]
    and it is normalised.  A vector that is then 0 adds LOG_FLOOR and is
    replaced by the first basis vector that is not 0 once orthogonalised,
    normalised.  Returns whether a vector vanished."""
    n, vanished = len(jac), False
    xs = []
    for u in q:
        x = []
        for row in jac:
            xi = row[n - 1] * u[n - 1]
            for j in range(n - 2, -1, -1):
                xi = _ieee_fma(row[j], u[j], xi)
            x.append(xi)
        xs.append(x)
    for i, x in enumerate(xs):
        x, norm = _exact_orthogonalised(x, q[:i])
        if norm != 0.0:
            totals[i] += math.log(norm)
            q[i] = [xj / norm for xj in x]
            continue
        totals[i], vanished = totals[i] + LOG_FLOOR, True
        for m in range(n):
            y, size = _exact_orthogonalised([float(j == m) for j in range(n)], q[:i])
            if size != 0.0:
                break
        q[i] = [yj / size for yj in y]
    return vanished


def _tangent_pass(step, blocks, q):
    """``step``, ``orbits._tangent_step`` or ``_exact_step``, on every
    Jacobian of ``blocks`` in turn: the totals and whether a vector
    vanished."""
    totals, saturated = [0.0] * len(q), False
    for jacs in blocks:
        for jac in jacs.tolist():
            saturated |= step(jac, q, totals)
    return totals, saturated


def _pass_state(step, blocks, n, seed, k):
    """``_tangent_pass`` of ``step`` over ``blocks`` from k unit vectors
    drawn from ``seed``: the totals, the flag and the final vectors, as
    bytes.  Every NaN is packed as one NaN: IEEE 754 leaves open which NaN
    operand a product passes on."""
    rng = np.random.default_rng(seed)
    q = [_seeded_unit(rng, n) for _ in range(k)]
    totals, saturated = _tangent_pass(step, blocks, q)
    totals = [x if x == x else math.nan for x in totals]
    entries = [x if x == x else math.nan for u in q for x in u]
    return struct.pack(f"<{k}d?{k * n}d", *totals, saturated, *entries)


entries = st.one_of(st.floats(-3.0, 3.0), st.floats(), st.just(0.0))


@st.composite
def jacobian_blocks(draw):
    """1 to 3 blocks of n x n Jacobians, n from 1 to 3, with exactly zero
    rows and matrices and non-finite entries among them."""
    n = draw(st.integers(1, 3))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        steps = draw(st.integers(1, 12))
        rows = draw(st.lists(st.one_of(st.lists(entries, min_size=n, max_size=n),
                                       st.just([0.0] * n)),
                             min_size=steps * n, max_size=steps * n))
        blocks.append(np.array(rows, dtype=float).reshape(steps, n, n))
    return n, blocks


@settings(max_examples=300, deadline=None)
@given(case=jacobian_blocks(), seed=st.integers(0, 3), k=st.integers(1, 3))
@example(case=(2, [np.array([[[0.9, -1.7], [0.4, 2.3]], [[0.0, 0.0], [0.0, 0.0]]])]), seed=1,
         k=1)
@example(case=(3, [np.full((2, 3, 3), 1e300)]), seed=0, k=1)  # the norm overflows
@example(case=(1, [np.array([[[1e-200]], [[1e-200]]])]), seed=0, k=1)  # the norm underflows
@example(case=(2, [np.array([[[0.9, -1.7], [0.4, 2.3]]]),  # vanishes on a block's first
                   np.array([[[0.0, 0.0], [0.0, 0.0]], [[1.1, 0.2], [-0.3, 0.8]]])]), seed=2,
         k=1)
@example(case=(1, [np.array([[[0.5]], [[2.0]], [[0.0]]]), np.array([[[3.0]]])]),
         seed=3, k=1)  # vanishes on a block's last
@example(case=(2, [np.array([[[0.9, -1.7], [0.4, 2.3]], np.zeros((2, 2))]),
                   np.array([np.zeros((2, 2)), [[1.1, 0.2], [-0.3, 0.8]]])]),
         seed=1, k=1)  # vanishes on two steps in a row, across a block boundary
# both vectors vanish at once: vector 1 is replaced by e_1 orthogonalised
@example(case=(2, [np.array([[[0.9, -1.7], [0.4, 2.3]], [[0.0, 0.0], [0.0, 0.0]]])]), seed=1,
         k=2)
# rank 1: vector 1 vanishes at every step, and e_1, parallel to vector 0,
# gives way to e_2
@example(case=(2, [np.array([[[0.9, -1.7], [0.0, 0.0]]] * 3)]), seed=0, k=2)
# vector 1 and vector 2 vanish; vector 2 takes e_3
@example(case=(3, [np.array([[[0.5, -1.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]] * 2)]),
         seed=3, k=3)
@example(case=(3, [np.full((2, 3, 3), 1e300)]), seed=0, k=3)  # the norm overflows
def test_tangent_steps_match_exact_arithmetic(case, seed, k):
    """The Python tangent step of k vectors, driven one Jacobian at a
    time, rounds each multiply-add once, on Jacobians the map never forms
    too: zero rows, non-finite entries, a norm that overflows or
    underflows, a vector that vanishes after orthogonalisation."""
    n, blocks = case
    k = min(k, n)
    assert _pass_state(orbits._tangent_step, blocks, n, seed, k) == (
        _pass_state(_exact_step, blocks, n, seed, k)
    )


class _DeferringLib:
    """The compiled library, with ``levdyn_orbit`` returning KERNEL_DEFER
    after running, so that the caller holds a partial pass."""

    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def levdyn_orbit(self, *args):
        self._lib.levdyn_orbit(*args)
        return _kernel.DEFER


def _tangent_bytes(lambdas, p, transient, steps, seed, k):
    """The tangent pass's totals and flag as bytes, or what it raised: one
    vector drawn from ``seed``, or the spectrum's identity columns."""
    if k == 1:
        q = [list(lyap._start_vector(seed, p.n_banks))]
    else:
        q = [[float(i == j) for j in range(k)] for i in range(k)]
    try:
        totals, saturated = orbits._run_checked(list(lambdas), p, transient, steps, q)
    except OrbitViolationError as exc:
        return ("violation", exc.step, exc.constraint)
    except ZeroDivisionError:
        return ("zero division",)
    return struct.pack(f"<{k}d?", *totals, saturated)


@st.composite
def top_cases(draw):
    """Parameters of 1 to 3 banks, gamma 20 or 100, and a start in
    [1, 1 + gamma] per bank."""
    n = draw(st.integers(1, 3))
    gamma = draw(st.sampled_from([20.0, 100.0]))
    pis, rest = [], 1.0
    for _ in range(n - 1):
        pis.append(draw(st.floats(0.0, rest)))
        rest -= pis[-1]
    p = ModelParams(gamma=gamma, omegas=[draw(st.floats(0.0, 1.0)) for _ in range(n)],
                    pis=(*pis, rest))
    return p, [draw(st.floats(1.0, 1.0 + gamma)) for _ in range(n)]


_P1 = ModelParams(omegas=(0.58,), pis=(1.0,))
#: bank 2 has memory and weight 0: its Jacobian column is 0
_P2 = ModelParams(omegas=(0.58, 0.0), pis=(1.0, 0.0))
_ESCAPING = (ModelParams(omegas=(0.05, 0.15000000000000002), pis=(0.4, 0.6)),
             [96.95171505688967, 91.702620462896])  # leaves at step 5
_X, _Y, _Z = SUPERSTABLE[0.58]


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(case=top_cases(), transient=st.integers(0, 40), steps=st.integers(1, 60),
       seed=st.integers(0, 3), spectrum=st.booleans(), defer=st.booleans())
@example(case=(_P2, [100.9, 30.0]), transient=0, steps=5, seed=0, spectrum=False,
         defer=False)  # escapes at the first step
@example(case=_ESCAPING, transient=2, steps=10, seed=1, spectrum=False,
         defer=False)  # a middle step
@example(case=_ESCAPING, transient=0, steps=5, seed=0, spectrum=False,
         defer=False)  # the last step
@example(case=_ESCAPING, transient=0, steps=5, seed=0, spectrum=True, defer=False)
@example(case=_ESCAPING, transient=7, steps=5, seed=0, spectrum=False,
         defer=False)  # in the transient
@example(case=_ESCAPING, transient=5, steps=3, seed=0, spectrum=False,
         defer=False)  # the transient's last step
@example(case=_ESCAPING, transient=4, steps=3, seed=0, spectrum=True,
         defer=False)  # the first step after the transient
@example(case=(_P1, [_X]), transient=0, steps=6, seed=0, spectrum=False,
         defer=False)  # vanishes at once
@example(case=(_P1, [_Z]), transient=0, steps=3, seed=2, spectrum=False,
         defer=False)  # on the last step
@example(case=(_P1, [_Z]), transient=1, steps=2, seed=3, spectrum=False, defer=False)
@example(case=(_P2, [_Y, 30.0]), transient=0, steps=40, seed=1, spectrum=False, defer=False)
@example(case=(_P2, [_Z, 30.0]), transient=0, steps=4, seed=0, spectrum=False,
         defer=False)  # on the last step, 2 banks
@example(case=(_P2, [_Y, 30.0]), transient=0, steps=40, seed=1, spectrum=True, defer=False)
@example(case=(ModelParams(omegas=(0.43,), pis=(1.0,)), [SUPERSTABLE[0.43][0]]),
         transient=0, steps=30, seed=1, spectrum=False, defer=False)
@example(case=(_P2, [_Y, 30.0]), transient=0, steps=40, seed=1, spectrum=False,
         defer=True)  # a deferred pass that would have vanished
@example(case=(_P1, [0.0]), transient=0, steps=3, seed=0, spectrum=False,
         defer=False)  # the loop defers
# bank 1's cubed start underflows to 0 in its Jacobian entry: 0 / 0 is NaN
@example(case=(ModelParams(omegas=(0.0, 0.5), pis=(0.0, 1.0)), [1e-120, 50.0]), transient=0,
         steps=5, seed=0, spectrum=True, defer=False)
# the spectrum's first vector, e_1, maps to 0 at every step: the pass
# defers and the Python pass floors it
@example(case=(two_bank(0.0, 0.5, 0.0), [50.0, 60.0]), transient=100, steps=50, seed=0,
         spectrum=True, defer=False)
def test_fused_top_pass_matches_python_pass(case, transient, steps, seed, spectrum, defer):
    """``levdyn_orbit``, which steps the orbit, forms each Jacobian and
    steps the tangent vectors in one loop, gives the Python pass's bytes,
    for one vector and for the spectrum's n: its escapes included, and
    where a vector vanishes it defers and the Python pass runs.  Where it
    defers after running (``defer``), ``orbits._run`` discards its
    partial pass and gives the Python pass's bytes too."""
    p, lambdas = case
    k = p.n_banks if spectrum else 1
    lib = _DeferringLib(_kernel.lib) if defer else _kernel.lib
    with patch.object(_kernel, "lib", lib):
        fused = _tangent_bytes(lambdas, p, transient, steps, seed, k)
    with python_loops():
        assert fused == _tangent_bytes(lambdas, p, transient, steps, seed, k)



@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(SATURATING), n=st.integers(2, 3),
       others=st.tuples(st.floats(1.0, 101.0), st.floats(1.0, 101.0)),
       steps=st.integers(4, 60), seed=st.integers(0, 3))
def test_multi_bank_vanished_vector_restarts_from_e1(case, n, others, steps, seed):
    """One vector on n >= 2 banks that vanishes within the window: the
    compiled pass, which defers there, the Python pass and the exact
    restatement give the same bytes."""
    omega, x, _ = case
    p, lambdas = _alone(omega, n), [x, *others[: n - 1]]
    fused = _tangent_bytes(lambdas, p, 0, steps, seed, 1)
    with python_loops():
        assert _tangent_bytes(lambdas, p, 0, steps, seed, 1) == fused
    (total,), saturated = _tangent_pass(_exact_step, _window_jacobians(lambdas, p, steps),
                                        [list(lyap._start_vector(seed, n))])
    assert saturated and struct.pack("<d?", total, saturated) == fused

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
