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
    close_period,
    _impact,
    _TickBuffers,
    _ticks,
    initial_equities,
    run_micro,
)
from levdyn.params import ModelParams

import micro_oracle as oracle
from conftest import needs_kernel, python_loops, two_bank


def start(params: MicroParams, lambdas) -> tuple[list[float], list[float], list[float]]:
    """Equities, target assets and leverages of a period's first tick."""
    lams = [float(x) for x in lambdas]
    eq = initial_equities(params, lams)
    return eq, [lam * e for lam, e in zip(lams, eq)], lams


def tick(equities, assets, lambdas, r, gamma, shock) -> tuple[float, list[float]]:
    """One intraday step, ``_ticks`` on one shock, updating ``equities``
    and ``assets`` in place: the tick's return and the weights after it,
    each asset over their left-to-right sum.  Checks that ``_ticks``'s
    drift is the largest distance of these weights from the start ones."""
    total0 = math.fsum(assets)
    weights0 = [a / total0 for a in assets]
    returns, drift = _ticks(equities, assets, lambdas, r, _impact(lambdas, assets, gamma),
                            gamma, np.array([shock]), -1)
    total = 0.0
    for a in assets:
        total += a
    weights = [a / total for a in assets]
    assert drift == max(abs(w - w0) for w, w0 in zip(weights, weights0))
    return float(returns[0]), weights


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
        equities, assets, lams = start(mp, [40.0, 70.0])
        before = (list(equities), list(assets))
        r, _ = tick(equities, assets, lams, 0.0, mp.base.gamma, 0.0)
        assert (equities, assets) == before
        assert r == 0.0

    def test_unit_leverage_kills_feedback(self):
        mp = MicroParams(
            base=ModelParams(omegas=(0.5,), pis=(1.0,)), n_intraday=100, horizon=1
        )
        equities, assets, lams = start(mp, [1.0])
        r, _ = tick(equities, assets, lams, 0.37, mp.base.gamma, 2.5e-4)
        # phi_s = 0, so the return is the bare shock
        assert r == 2.5e-4

    def test_equal_leverages_keep_weights_constant(self):
        base = ModelParams(omegas=(0.5, 0.3, 0.8), pis=(0.2, 0.5, 0.3))
        mp = MicroParams(base=base, n_intraday=64, horizon=1)
        equities, assets, lams = start(mp, [30.0, 30.0, 30.0])
        gen = np.random.default_rng(42)
        w0 = [a / math.fsum(assets) for a in assets]
        r = 0.0
        for _ in range(64):
            shock = gen.normal(0.0, math.sqrt(mp.sigma_eps_step_sq))
            r, weights = tick(equities, assets, lams, r, base.gamma, shock)
            for a, b in zip(weights, w0):
                assert a == pytest.approx(b, abs=1e-12)

    def test_weights_sum_to_one_every_tick(self):
        base = ModelParams(omegas=(0.5, 0.3, 0.8), pis=(0.2, 0.5, 0.3))
        mp = MicroParams(base=base, n_intraday=64, horizon=1)
        equities, assets, lams = start(mp, [12.0, 55.0, 30.0])
        gen = np.random.default_rng(42)
        r = 0.0
        for _ in range(64):
            shock = gen.normal(0.0, math.sqrt(mp.sigma_eps_step_sq))
            r, weights = tick(equities, assets, lams, r, base.gamma, shock)
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_balance_sheet_identity(self):
        mp = MicroParams(base=two_bank(0.5, 0.3, 0.5), n_intraday=64, horizon=1)
        equities, assets, lams = start(mp, [40.0, 70.0])
        gen = np.random.default_rng(7)
        r = 0.0
        for _ in range(20):
            shock = gen.normal(0.0, math.sqrt(mp.sigma_eps_step_sq))
            r, _ = tick(equities, assets, lams, r, mp.base.gamma, shock)
            for a, lam, e in zip(assets, lams, equities):
                assert a == lam * e

    def test_insolvency_detected(self):
        mp = MicroParams(base=two_bank(0.5, 0.3, 0.5), n_intraday=100, horizon=1)
        equities, assets, lams = start(mp, [40.0, 70.0])
        with pytest.raises(InsolvencyError) as info:
            tick(equities, assets, lams, 0.0, mp.base.gamma, -1.0)
        assert (info.value.period, info.value.bank) == (-1, 0)


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
    """One intraday step, ``_ticks`` on one shock, against the oracle's
    ``_tick``: the return, the weights, the equities and the assets, or
    the insolvent bank, for leverages below 1 and tiny equities too."""
    equities = [data.draw(st.floats(1e-6, 1.0)) for _ in lambdas]
    r = data.draw(st.floats(-0.05, 0.05))
    shock = data.draw(st.floats(-0.1, 0.1))

    def outcome(step):
        e, a = list(equities), [lam * x for lam, x in zip(lambdas, equities)]
        try:
            return repr((*step(e, a, lambdas, r, 100.0, shock), e, a))
        except (InsolvencyError, oracle._Insolvent) as exc:
            return ("insolvent", exc.bank)

    assert outcome(tick) == outcome(oracle._tick)


def _ticks_outcome(equities, assets, lambdas, r, gamma, shocks, period, buffers=None):
    """``_ticks`` on copies of ``equities`` and ``assets``, from their
    impact coefficient, and on ``shocks``, a float64 vector: its returns
    and drift as bytes, or the error it raises, with both lists after
    the call."""
    equities, assets = list(equities), list(assets)
    phi = _impact(lambdas, assets, gamma)
    try:
        returns, drift = _ticks(equities, assets, lambdas, r, phi, gamma, shocks, period,
                                buffers)
        result = (returns.shape, returns.tobytes(), np.float64(drift).tobytes())
    except InsolvencyError as exc:
        result = (type(exc), exc.period, exc.bank)
    except ZeroDivisionError as exc:
        result = (type(exc), exc.args)
    return result, np.array(equities).tobytes(), np.array(assets).tobytes()


def _stale(banks: int, ticks: int) -> _TickBuffers:
    """Buffers for the compiled pass that hold NaN and a stale insolvency
    from an earlier call: a pass that reads what it should write fails."""
    buffers = _TickBuffers(banks, ticks)
    buffers.state[:] = [math.nan] * (4 * banks)
    buffers.returns[:] = math.nan
    buffers.drift.value = math.nan
    buffers.out[:] = [ticks, banks]
    return buffers


@needs_kernel
@pytest.mark.parametrize("shocks", [np.zeros(3), np.zeros(5), np.zeros((2, 2))])
def test_buffers_for_another_tick_count_are_refused(shocks):
    # the compiled loop would read and write past the buffers' ends
    equities, assets = [0.1], [1.0]
    with pytest.raises(ValueError, match="buffers for 4 ticks"):
        _ticks(equities, assets, [10.0], 0.0, 0.09, 100.0, shocks, 0, _TickBuffers(1, 4))
    assert (equities, assets) == ([0.1], [1.0])


@needs_kernel
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_last_shock_gives_nan_weights_silently_on_both_paths():
    # the last tick's assets and total are infinite, so its weight is inf / inf
    # and the drift, their largest distance from the start weights, is NaN
    args = ([10.0], 1e-4, 100.0, np.array([1e-3, math.inf]), 0)
    got = _ticks_outcome([0.1], [1.0], *args)
    with python_loops():
        want = _ticks_outcome([0.1], [1.0], *args)
    assert got == want
    assert np.isnan(np.frombuffer(got[0][2])[0])


@needs_kernel
@pytest.mark.filterwarnings("error::RuntimeWarning")  # both loops are silent
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_compiled_ticks_match_python_loop(data):
    """The compiled tick loop against the Python loop: 1-4 banks, up to
    300 shocks in a contiguous or strided vector, NaN and infinite shocks
    and large leverages, so insolvency occurs; zero leverages make the
    Python loop divide by zero.  The compiled loop runs on fresh buffers
    or on stale ones from an earlier run."""
    banks = data.draw(st.integers(1, 4))
    lambdas = [data.draw(st.one_of(st.floats(0.5, 150.0), st.just(0.0))) for _ in range(banks)]
    equities = [data.draw(st.floats(1e-6, 1.0)) for _ in range(banks)]
    assets = [data.draw(st.floats(1e-6, 150.0)) for _ in range(banks)]
    shock = st.one_of(st.floats(-0.05, 0.05), st.sampled_from([math.nan, math.inf, -math.inf]))
    form = data.draw(st.sampled_from([
        np.array, lambda s: np.repeat(np.array(s), 2)[::2],  # strided
    ]))
    shocks = form(data.draw(st.lists(shock, max_size=300)))
    args = (lambdas, data.draw(st.floats(-0.05, 0.05)), data.draw(st.floats(5.0, 200.0)),
            shocks, data.draw(st.integers(-1, 50)))
    buffers = _stale(banks, len(shocks)) if data.draw(st.booleans()) else None
    got = _ticks_outcome(equities, assets, *args, buffers)
    with python_loops():
        want = _ticks_outcome(equities, assets, *args)
    assert got == want


def _oracle_drift(equities, assets, lambdas, r, gamma, shocks) -> tuple[float, float]:
    """The oracle's ticks over ``shocks`` from copies of the lists: its
    per-tick scan of the largest weight drift, and np.max of |w - w0|
    over the weights of every tick."""
    equities, assets = list(equities), list(assets)
    total0 = math.fsum(assets)
    weights0 = [a / total0 for a in assets]
    scan, rows = 0.0, []
    for shock in shocks:
        r, weights = oracle._tick(equities, assets, lambdas, r, gamma, shock)
        rows.append(weights)
        for w, w0 in zip(weights, weights0):
            d = abs(w - w0)
            if d > scan:
                scan = d
    w = np.array(rows).reshape(len(rows), len(assets))
    return scan, float(np.max(np.abs(w - weights0), initial=0.0))


@pytest.mark.parametrize("loops", [nullcontext, python_loops])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # both loops are silent
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_tick_drift_matches_the_oracle_scan(loops, data):
    """The drift of either tick pass against the oracle's per-tick scan
    and against np.max(np.abs(w - w0)) over the oracle's weights, to the
    byte: 1-4 banks on up to 60 shocks, solvent, some ending in an
    infinite shock.  There the last weights are inf / inf, so the drift
    and np.max are NaN, which the scan, comparing with >, skips."""
    banks = data.draw(st.integers(1, 4))
    gamma = data.draw(st.floats(50.0, 200.0))
    lambdas = [data.draw(st.floats(0.5, 40.0)) for _ in range(banks)]
    equities = [data.draw(st.floats(1e-6, 1.0)) for _ in range(banks)]
    # assets off their targets lambda_i E_i, so the first tick moves them too
    assets = [lam * e * data.draw(st.floats(0.5, 2.0)) for lam, e in zip(lambdas, equities)]
    r = data.draw(st.floats(-1e-3, 1e-3))
    shocks = data.draw(st.lists(st.floats(-1e-3, 1e-3), max_size=60))
    infinite = data.draw(st.booleans())
    shocks += [math.inf] * infinite
    scan, peak = _oracle_drift(equities, assets, lambdas, r, gamma, shocks)
    with loops():
        _, drift = _ticks(list(equities), list(assets), lambdas, r,
                          _impact(lambdas, assets, gamma), gamma, np.array(shocks), 0)
    assert np.float64(drift).tobytes() == np.float64(peak).tobytes()
    if infinite:
        assert math.isnan(drift) and not math.isnan(scan)
    else:
        assert drift == scan
