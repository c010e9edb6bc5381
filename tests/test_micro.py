from __future__ import annotations

import dataclasses
import math
import threading
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levdyn import micro
from levdyn.errors import DomainError, InsolvencyError, NonstationaryError
from levdyn.maps import advance
from levdyn.micro import (
    SIGMA_SQ_FLOOR,
    MicroParams,
    MicroState,
    close_period,
    _ticks,
    initial_equities,
    run_micro,
    step_intraday,
)
from levdyn.params import ModelParams

import micro_oracle as oracle
from conftest import needs_kernel, python_loops, two_bank


class _StubRng:
    """Generator stand-in emitting a fixed shock value."""

    def __init__(self, value: float = 0.0):
        self.value = value

    def normal(self, loc=0.0, scale=1.0, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


def make_state(params: MicroParams, lambdas) -> MicroState:
    lams = [float(x) for x in lambdas]
    eq = initial_equities(params, lams)
    return MicroState(
        equities=eq,
        target_assets=[lam * e for lam, e in zip(lams, eq)],
        lambdas=lams,
        sigma_sq=[1.0 / (params.base.alpha * lam) ** 2 for lam in lams],
        last_return=0.0,
    )


class TestParams:
    def test_step_variance_scales_with_tick_count(self):
        mp = MicroParams(base=two_bank(0.5, 0.3, 0.5), n_intraday=250, horizon=10)
        assert mp.sigma_eps_step_sq * mp.n_intraday == pytest.approx(
            mp.base.sigma_eps_sq, abs=1e-12 * mp.base.sigma_eps_sq
        )

    def test_tick_count_floor(self):
        with pytest.raises(ValueError):
            MicroParams(base=two_bank(0.5, 0.3, 0.5), n_intraday=1, horizon=10)


class TestStepIntraday:
    def test_no_shock_no_prior_return_is_a_fixed_state(self):
        mp = MicroParams(base=two_bank(0.5, 0.3, 0.5), n_intraday=100, horizon=1)
        state = make_state(mp, [40.0, 70.0])
        nxt = step_intraday(state, mp, _StubRng(0.0))
        assert nxt.equities == state.equities
        assert nxt.target_assets == state.target_assets
        assert nxt.last_return == 0.0

    def test_unit_leverage_kills_feedback(self):
        mp = MicroParams(
            base=ModelParams(omegas=(0.5,), pis=(1.0,)), n_intraday=100, horizon=1
        )
        state = make_state(mp, [1.0])
        state.last_return = 0.37
        nxt = step_intraday(state, mp, _StubRng(2.5e-4))
        # phi_s = 0, so the return is the bare shock
        assert nxt.last_return == 2.5e-4

    def test_equal_leverages_keep_weights_constant(self, rng):
        base = ModelParams(omegas=(0.5, 0.3, 0.8), pis=(0.2, 0.5, 0.3))
        mp = MicroParams(base=base, n_intraday=64, horizon=1)
        state = make_state(mp, [30.0, 30.0, 30.0])
        gen = np.random.default_rng(42)
        w0 = list(state.weights)
        for _ in range(64):
            state = step_intraday(state, mp, gen)
            for a, b in zip(state.weights, w0):
                assert a == pytest.approx(b, abs=1e-12)

    def test_weights_sum_to_one_every_tick(self):
        base = ModelParams(omegas=(0.5, 0.3, 0.8), pis=(0.2, 0.5, 0.3))
        mp = MicroParams(base=base, n_intraday=64, horizon=1)
        state = make_state(mp, [12.0, 55.0, 30.0])
        gen = np.random.default_rng(42)
        for _ in range(64):
            state = step_intraday(state, mp, gen)
            assert math.fsum(state.weights) == pytest.approx(1.0, abs=1e-12)

    def test_balance_sheet_identity(self):
        mp = MicroParams(base=two_bank(0.5, 0.3, 0.5), n_intraday=64, horizon=1)
        state = make_state(mp, [40.0, 70.0])
        gen = np.random.default_rng(7)
        for _ in range(20):
            state = step_intraday(state, mp, gen)
            for a, lam, e in zip(state.target_assets, state.lambdas, state.equities):
                assert a == lam * e

    def test_insolvency_detected(self):
        mp = MicroParams(base=two_bank(0.5, 0.3, 0.5), n_intraday=100, horizon=1)
        state = make_state(mp, [40.0, 70.0])
        with pytest.raises(InsolvencyError):
            step_intraday(state, mp, _StubRng(-1.0))


class TestClosePeriod:
    def test_recovers_synthetic_ar1_parameters(self):
        phi, sig = 0.6, 3e-4
        n = 100_000
        gen = np.random.default_rng(11)
        eps = gen.normal(0.0, sig, n)
        returns = np.empty(n)
        r = 0.0
        for s in range(n):
            r = phi * r + eps[s]
            returns[s] = r
        mp = MicroParams(base=two_bank(0.5, 0.3, 0.5), n_intraday=n, horizon=1)
        _, _, phi_hat, sig_eps_hat, _ = close_period(
            returns, 0.0, [1e-6, 1e-6], mp.base.omegas, mp
        )
        assert phi_hat == pytest.approx(phi, abs=5e-3)
        assert sig_eps_hat == pytest.approx(sig**2, rel=2e-2)

    def test_full_memory_freezes_estimates(self):
        base = ModelParams(omegas=(1.0,), pis=(1.0,))
        mp = MicroParams(base=base, n_intraday=100, horizon=1)
        gen = np.random.default_rng(3)
        returns = gen.normal(0, 1e-4, 100)
        sigma0 = 2.5e-5
        lams, sigmas, _, _, _ = close_period(returns, 0.0, [sigma0], (1.0,), mp)
        assert sigmas[0] == sigma0
        assert lams[0] == 1.0 / (base.alpha * math.sqrt(sigma0))

    def test_degenerate_zero_returns_hit_floor(self):
        base = ModelParams(omegas=(0.0,), pis=(1.0,))
        mp = MicroParams(base=base, n_intraday=100, horizon=1)
        lams, sigmas, phi_hat, sig_eps, floored = close_period(
            np.zeros(100), 0.0, [2.5e-5], (0.0,), mp
        )
        assert floored
        assert phi_hat == 0.0
        assert sig_eps == 0.0
        assert sigmas[0] == SIGMA_SQ_FLOOR
        assert math.isfinite(lams[0])

    def test_explosive_series_rejected(self):
        mp = MicroParams(base=two_bank(0.5, 0.3, 0.5), n_intraday=50, horizon=1)
        returns = 1e-6 * 2.0 ** np.arange(50)
        with pytest.raises(NonstationaryError):
            close_period(returns, 1e-6 / 2, [1e-6, 1e-6], mp.base.omegas, mp)

    def test_nan_returns_rejected(self):
        # a NaN series has a NaN regression denominator; it used to pass
        # as phi_hat = 0 and turn every leverage NaN
        mp = MicroParams(base=two_bank(0.5, 0.3, 0.5), n_intraday=50, horizon=1)
        returns = np.full(50, 1e-4)
        returns[7] = math.nan
        with pytest.raises(NonstationaryError):
            close_period(returns, 1e-4, [1e-6, 1e-6], mp.base.omegas, mp)

    def test_length_mismatch(self):
        mp = MicroParams(base=two_bank(0.5, 0.3, 0.5), n_intraday=50, horizon=1)
        with pytest.raises(ValueError):
            close_period(np.zeros(49), 0.0, [1e-6, 1e-6], mp.base.omegas, mp)


class TestRunMicro:
    def test_zero_noise_reproduces_coupled_map(self):
        base = two_bank(0.9, 0.8, 0.3)
        mp = MicroParams(base=base, n_intraday=100, horizon=100, zero_noise=True)
        run = run_micro(mp, [40.0, 70.0])
        assert np.max(np.abs(run.lambdas_stochastic - run.lambdas_deterministic)) < 1e-10

    def test_zero_noise_single_bank_matches_scalar_map(self):
        base = ModelParams(omegas=(0.8,), pis=(1.0,))
        mp = MicroParams(base=base, n_intraday=100, horizon=100, zero_noise=True)
        run = run_micro(mp, [30.0])
        lam = [30.0]
        for t in range(100):
            lam = advance(lam, base)
            assert run.lambdas_stochastic[t, 0] == pytest.approx(lam[0], abs=1e-10)

    def test_equal_memory_paths_identical(self):
        base = two_bank(0.6, 0.6, 0.3)
        mp = MicroParams(base=base, n_intraday=200, horizon=30, rng_seed=5)
        run = run_micro(mp, [50.0, 50.0])
        assert np.array_equal(
            run.lambdas_stochastic[:, 0], run.lambdas_stochastic[:, 1]
        )

    def test_seeded_determinism(self):
        base = two_bank(0.8, 0.7, 0.4)
        mp = MicroParams(base=base, n_intraday=150, horizon=25, rng_seed=12)
        a = run_micro(mp, [60.0, 75.0])
        b = run_micro(mp, [60.0, 75.0])
        assert np.array_equal(a.lambdas_stochastic, b.lambdas_stochastic)
        assert np.array_equal(a.phi_hat, b.phi_hat)

    def test_tracks_deterministic_fixed_point(self):
        base = ModelParams(omegas=(0.8,), pis=(1.0,))
        mp = MicroParams(base=base, n_intraday=10_000, horizon=50, rng_seed=21)
        run = run_micro(mp, [70.0])
        tail = slice(10, None)
        rms = float(
            np.sqrt(
                np.mean(
                    (run.lambdas_stochastic[tail] - run.lambdas_deterministic[tail])
                    ** 2
                )
            )
        )
        assert rms < 1.0

    def test_estimated_ar1_coefficient_centers_on_model_value(self):
        # near the fixed point the per-period phi_hat estimates should
        # scatter around (lambda* - 1)/gamma
        base = ModelParams(omegas=(0.8,), pis=(1.0,))
        mp = MicroParams(base=base, n_intraday=10_000, horizon=50, rng_seed=77)
        run = run_micro(mp, [81.0])
        want = (float(np.mean(run.lambdas_deterministic[10:])) - 1.0) / base.gamma
        got = float(np.mean(run.phi_hat[10:]))
        assert got == pytest.approx(want, abs=0.02)

    def test_weight_drift_small_for_heterogeneous_banks(self):
        # drift is a reported diagnostic without a model-given bound; it
        # spikes while leverages swing through the transient and settles
        # to the per-period trading scale afterwards
        base = two_bank(0.8, 0.6, 0.4)
        mp = MicroParams(base=base, n_intraday=2000, horizon=20, rng_seed=2)
        run = run_micro(mp, [55.0, 70.0])
        assert float(np.max(run.pi_drift_max)) < 0.2
        assert float(np.max(run.pi_drift_max[10:])) < 0.02

    def test_overflowing_return_is_insolvency_not_nan(self):
        # bank 2's leverage reaches 135.8 > 1 + gamma after period 0, so
        # the intraday returns overflow and the equities turn NaN
        base = ModelParams(omegas=(0.72, 0.07), pis=(0.6, 0.4))
        mp = MicroParams(base=base, n_intraday=100, horizon=10, rng_seed=682)
        with pytest.raises(InsolvencyError) as info:
            run_micro(mp, [35.0, 97.0])
        assert (info.value.period, info.value.bank) == (1, 0)

    @pytest.mark.parametrize("zero_noise", [False, True])
    @pytest.mark.parametrize("start", [101.0, 101.5])
    def test_start_at_or_past_bound_is_nonstationary(self, zero_noise, start):
        # a mean field at 1 + gamma makes phi = 1; the zero-noise limit
        # used to divide by (1 - phi)^2 = 0 there
        mp = MicroParams(base=two_bank(0.5, 0.3, 0.5), n_intraday=100, horizon=5,
                         rng_seed=1, zero_noise=zero_noise)
        with pytest.raises(NonstationaryError) as info:
            run_micro(mp, [start, start])
        assert info.value.period == 0
        assert info.value.phi_hat == (start - 1.0) / 100.0

    def test_initial_equities_match_configured_weights(self):
        base = two_bank(0.5, 0.3, 0.25)
        mp = MicroParams(base=base, n_intraday=100, horizon=1)
        lams = [40.0, 70.0]
        eq = initial_equities(mp, lams)
        assets = [lam * e for lam, e in zip(lams, eq)]
        total = sum(assets)
        assert assets[0] / total == pytest.approx(0.25, abs=1e-12)


def _outcome(fn, *args):
    """``fn(*args)``, or the simulation error it raises."""
    try:
        return fn(*args)
    except (InsolvencyError, NonstationaryError, DomainError) as exc:
        return exc


def _error_fields(exc: Exception) -> tuple:
    return (
        type(exc), getattr(exc, "period", None), getattr(exc, "bank", None),
        repr(getattr(exc, "phi_hat", None)),
    )


@st.composite
def micro_setups(draw):
    """Random 1-4 bank markets: memories, weights, shock variance,
    tick count, horizon, seed and start, with the zero-noise limit on
    or off.  Starts reach past 1 + gamma, so insolvent, nonstationary
    and escaping runs all occur."""
    banks = draw(st.integers(1, 4))
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(banks)]
    base = ModelParams(
        omegas=tuple(draw(st.floats(0.0, 1.0)) for _ in range(banks)),
        pis=tuple(x / math.fsum(raw) for x in raw),
        sigma_eps_sq=10.0 ** draw(st.floats(-7.0, -2.0)),
    )
    params = MicroParams(
        base=base,
        n_intraday=draw(st.integers(2, 200)),
        horizon=draw(st.integers(1, 25)),
        rng_seed=draw(st.integers(0, 2**32 - 1)),
        zero_noise=draw(st.booleans()),
    )
    initial = [draw(st.floats(1.0, 1.1 * base.lambda_max)) for _ in range(banks)]
    return params, initial


RUN_FIELDS = ("lambdas_stochastic", "lambdas_deterministic", "pi_drift_max",
              "phi_hat", "sigma_eps_hat_sq")


@settings(max_examples=200, deadline=None)
@given(setup=micro_setups())
@example(setup=(
    MicroParams(base=ModelParams(omegas=(0.72, 0.07), pis=(0.6, 0.4)),
                n_intraday=100, horizon=10, rng_seed=682),
    [35.0, 97.0],
))
def test_run_micro_matches_tick_by_tick_oracle(setup):
    params, initial = setup
    want = _outcome(oracle.run_micro, params, initial)
    got = _outcome(run_micro, params, initial)
    if isinstance(want, Exception):
        assert isinstance(got, Exception), got
        assert _error_fields(got) == _error_fields(want)
    else:
        assert not isinstance(got, Exception), got
        for name in RUN_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.floored == want.floored


#: runs of 10 and 8 periods that abort in period 1, partway through a
#: draw block of 3 periods: insolvent, and nonstationary (phi_hat 1.039)
INSOLVENT = (MicroParams(base=ModelParams(omegas=(0.72, 0.07), pis=(0.6, 0.4)),
                         n_intraday=100, horizon=10, rng_seed=682), [35.0, 97.0])
NONSTATIONARY = (MicroParams(base=ModelParams(omegas=(0.0,), pis=(1.0,), sigma_eps_sq=1e-4),
                             n_intraday=10, horizon=8, rng_seed=983), [8.0])


def _draw_blocks(periods: int, params: MicroParams):
    """Draw blocks of ``periods`` periods of ``params``' run, and so a
    helper thread for any run longer than two blocks."""
    return mock.patch.object(micro, "BLOCK_DRAWS", periods * (params.n_intraday + 1))


@pytest.mark.parametrize("loops", [nullcontext, python_loops])
@settings(max_examples=100, deadline=None)
@given(setup=micro_setups(), periods=st.integers(1, 4))
@example(setup=INSOLVENT, periods=3)
@example(setup=NONSTATIONARY, periods=3)
def test_run_micro_drawn_in_blocks_matches_oracle(loops, setup, periods):
    """Draw blocks of a few periods, so that a run longer than two blocks
    is drawn on the helper thread and its blocks split it between periods,
    some of its runs aborting partway through a block; on both tick
    loops."""
    params, initial = setup
    params = dataclasses.replace(params, zero_noise=False)
    want = _outcome(oracle.run_micro, params, initial)
    with loops(), _draw_blocks(periods, params):
        got = _outcome(run_micro, params, initial)
    if isinstance(want, Exception):
        assert _error_fields(got) == _error_fields(want)
    else:
        assert not isinstance(got, Exception), got
        for name in RUN_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.floored == want.floored


@pytest.mark.parametrize("setup, error", [
    ((MicroParams(base=two_bank(0.8, 0.7, 0.4), n_intraday=150, horizon=25, rng_seed=12),
      [60.0, 75.0]), None),
    (INSOLVENT, InsolvencyError),
    (NONSTATIONARY, NonstationaryError),
])
def test_no_helper_thread_outlives_run_micro(setup, error):
    params, initial = setup
    ticks = micro._ticks
    seen = []

    def spy(*args):  # the threads alive while a period's ticks run
        seen.append({t.name for t in threading.enumerate()})
        return ticks(*args)

    before = threading.active_count()
    with _draw_blocks(3, params), mock.patch.object(micro, "_ticks", spy):
        if error is None:
            run_micro(params, initial)
        else:
            with pytest.raises(error) as info:
                run_micro(params, initial)
            assert info.value.period == 1  # period 1 of the first block's 3
    assert any(name.startswith("levdyn-shocks") for name in seen[0])
    assert threading.active_count() == before


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    draws=st.lists(st.tuples(
        st.one_of(st.floats(1e-300, 1e3), st.sampled_from([5e-324, 1e-320, 1.0])),
        st.one_of(st.none(), st.integers(0, 300))), max_size=12),
)
def test_normal_draws_are_scaled_standard_normals(seed, draws):
    """numpy's rng.normal(0.0, s[, size]) is 0.0 + s * z over the stream
    that rng.standard_normal reads, scalar and array draws interleaved:
    run_micro draws standard normals and scales them by this identity,
    so a numpy whose normal() differs fails here rather than moving the
    micro digests."""
    normal = np.random.default_rng(seed)
    standard = np.random.default_rng(seed)
    for scale, size in draws:
        if size is None:
            got = float(normal.normal(0.0, scale))
            want = 0.0 + scale * float(standard.standard_normal())
            assert got.hex() == want.hex()
        else:
            got = normal.normal(0.0, scale, size)
            want = 0.0 + scale * standard.standard_normal(size)
            assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    lambdas=st.lists(st.floats(0.5, 150.0), min_size=1, max_size=4),
    data=st.data(),
)
def test_step_intraday_matches_oracle_tick(lambdas, data):
    banks = len(lambdas)
    equities = [data.draw(st.floats(1e-6, 1.0)) for _ in range(banks)]
    state = MicroState(
        equities=equities,
        target_assets=[lam * e for lam, e in zip(lambdas, equities)],
        lambdas=lambdas,
        sigma_sq=[1e-5] * banks,
        last_return=data.draw(st.floats(-0.05, 0.05)),
    )
    mp = MicroParams(base=ModelParams(omegas=(0.5,) * banks, pis=(1.0 / banks,) * banks),
                     n_intraday=100, horizon=1)
    rng = _StubRng(data.draw(st.floats(-0.1, 0.1)))
    want = _outcome(oracle.step_intraday, state, mp, rng)
    got = _outcome(step_intraday, state, mp, rng)
    if isinstance(want, Exception):
        assert _error_fields(got) == _error_fields(want)
    else:
        assert repr(got) == repr(want)


def _ticks_outcome(equities, assets, lambdas, r, gamma, form, shocks, period):
    """``_ticks`` on copies of ``equities`` and ``assets`` and on the
    shocks in the given form: its returns and weights as bytes, or the
    error it raises, with both lists after the call."""
    equities, assets = list(equities), list(assets)
    try:
        returns, weights = _ticks(equities, assets, lambdas, r, gamma, form(shocks), period)
        result = (returns.shape, returns.tobytes(), weights.shape, weights.tobytes())
    except InsolvencyError as exc:
        result = (type(exc), exc.period, exc.bank)
    except ZeroDivisionError as exc:
        result = (type(exc), exc.args)
    return result, np.array(equities).tobytes(), np.array(assets).tobytes()


@needs_kernel
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_last_shock_gives_nan_weights_silently_on_both_paths():
    # the last tick's assets and total are infinite, so its weight is inf / inf
    args = ([10.0], 1e-4, 100.0, list, [1e-3, math.inf], 0)
    got = _ticks_outcome([0.1], [1.0], *args)
    with python_loops():
        want = _ticks_outcome([0.1], [1.0], *args)
    assert got == want
    assert np.isnan(np.frombuffer(got[0][3])[-1])


@needs_kernel
@pytest.mark.filterwarnings("error::RuntimeWarning")  # both loops are silent
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_compiled_ticks_match_python_loop(data):
    """The compiled tick loop against the Python loop: 1-4 banks, up to
    300 shocks given as a list, a one-pass iterator or a memoryview,
    contiguous or strided,
    NaN and infinite shocks and large leverages, so insolvency occurs;
    zero leverages make the Python loop divide by zero."""
    banks = data.draw(st.integers(1, 4))
    lambdas = [data.draw(st.one_of(st.floats(0.5, 150.0), st.just(0.0))) for _ in range(banks)]
    equities = [data.draw(st.floats(1e-6, 1.0)) for _ in range(banks)]
    assets = [data.draw(st.floats(1e-6, 150.0)) for _ in range(banks)]
    shock = st.one_of(st.floats(-0.05, 0.05), st.sampled_from([math.nan, math.inf, -math.inf]))
    form = data.draw(st.sampled_from([
        list, iter, lambda s: memoryview(np.array(s)),
        lambda s: memoryview(np.repeat(np.array(s), 2)[::2]),  # strided
    ]))
    args = (lambdas, data.draw(st.floats(-0.05, 0.05)), data.draw(st.floats(5.0, 200.0)),
            form, data.draw(st.lists(shock, max_size=300)), data.draw(st.integers(-1, 50)))
    got = _ticks_outcome(equities, assets, *args)
    with python_loops():
        want = _ticks_outcome(equities, assets, *args)
    assert got == want
