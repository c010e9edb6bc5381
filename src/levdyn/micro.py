"""Slow-fast stochastic market simulator underlying the deterministic map.

Each slow period runs n intraday trading ticks.  During a period every
bank holds its target leverage fixed and rebalances toward target
assets A*_i = lambda_i * E_i; the aggregate rebalancing demand feeds
back into returns through a linear price impact with depth gamma:

    r_s = phi_s r_{s-1} + eps_s,
    phi_s = sum_i (lambda_i - 1) A*_i / (gamma sum_i A*_i),

with exogenous shocks eps_s ~ N(0, sigma_eps_sq / n).  At the period
close each bank re-estimates the return variance by conditional least
squares on the tick series, aggregates it through 1/(1 - phi_hat)^2,
blends it into its running estimate with memory omega_i, and sets the
next target leverage 1/(alpha sigma).  As n grows the estimator noise
shrinks at the CLT rate and the slow dynamics converge to the
deterministic coupled map.

One tick loop (``_ticks``) serves ``run_micro`` alone; one re-target
(``_retarget``) serves ``close_period`` and the zero-noise limit.  The
tick loop also reports the period's weight drift, the largest distance
of any tick's asset weights from the period's start weights: its
compiled copy scans it tick by tick, with no per-tick weights kept, on
arrays that a run makes once; its Python loop forms it from the stored
per-tick assets.

A run's seed returns and shocks are one stream of normals, those of
``np.random.default_rng(rng_seed).standard_normal`` (``_Shocks``).  The
compiled tick loop draws them itself as it goes, so a run loads no
``numpy.random`` and starts no thread; the Python loop takes each
period's from numpy in one call.  A zero-noise run draws nothing.
"""

from __future__ import annotations

import ctypes
import math
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from . import _draw, _kernel
from .errors import InsolvencyError, NonstationaryError
from .orbits import _run_checked
from .params import ModelParams, mean_field

#: variance estimates are floored here to keep leverage finite
SIGMA_SQ_FLOOR = 1e-18


@dataclass(frozen=True)
class MicroParams:
    """Simulation setup for the intraday market.

    ``sigma_eps_step_sq`` is derived as sigma_eps_sq / n_intraday so the
    per-step and aggregated variances always match.
    """

    base: ModelParams
    n_intraday: int
    horizon: int
    rng_seed: int = 0
    zero_noise: bool = False

    def __post_init__(self) -> None:
        if self.n_intraday < 2:
            raise ValueError(f"n_intraday must be >= 2, got {self.n_intraday}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    @property
    def sigma_eps_step_sq(self) -> float:
        return self.base.sigma_eps_sq / self.n_intraday


def _impact(lambdas: list[float], assets: list[float], gamma: float) -> float:
    """Price-impact coefficient phi = sum (lambda_i - 1) A_i / (gamma sum A_i),
    both sums accumulated left to right from 0.0."""
    demand = 0.0
    total = 0.0
    for lam, a in zip(lambdas, assets):
        demand += (lam - 1.0) * a
        total += a
    return demand / (gamma * total)


class _Shocks:
    """A run's normals, those of ``np.random.default_rng(seed)``'s
    ``standard_normal``: each period's start-return z, then ``ticks``
    shocks 0.0 + scale * z.  levdyn draws them (``levdyn_ticks``,
    ``levdyn_normals``) from the PCG64 ``stream`` that ``_draw.pcg64``
    seeds where the compiled loops loaded, and numpy where not."""

    def __init__(self, seed: int, ticks: int, scale: float) -> None:
        self.ticks, self.scale, self.lib = ticks, scale, _kernel.lib
        if self.lib is None:
            self.rng = np.random.default_rng(seed)
        else:
            self.stream = ctypes.create_string_buffer(
                b"".join(v.to_bytes(16, sys.byteorder) for v in _draw.pcg64(seed)), 32)

    def draw(self, k: int) -> np.ndarray:
        """The stream's next k standard normals."""
        if self.lib is None:
            return self.rng.standard_normal(k)
        z = np.empty(k)
        self.lib.levdyn_normals(self.stream, k, z.ctypes.data)
        return z

    def period(self, r: float) -> tuple[float, np.ndarray]:
        """A period's start return, 0.0 + r * z, and its shocks."""
        z = self.draw(self.ticks + 1)
        shocks = z[1:]
        shocks *= self.scale
        shocks += 0.0  # as numpy adds loc, which turns a -0.0 shock into 0.0
        return 0.0 + r * float(z[0]), shocks


class _TickBuffers:
    """The arrays of the compiled tick pass on ``banks`` banks and ``ticks``
    shocks, with their addresses, made once for a run's periods: one
    vector of the equities, assets, leverages and start weights, then
    the returns, the drift, and the tick and bank of an insolvency."""

    def __init__(self, banks: int, ticks: int) -> None:
        self.ticks = ticks
        self.state = (ctypes.c_double * (4 * banks))()
        self.returns = np.empty(ticks + 1)
        self.drift = ctypes.c_double()
        self.out = (ctypes.c_longlong * 2)()
        at = ctypes.addressof(self.state)
        self.inputs = tuple(at + k * banks * ctypes.sizeof(ctypes.c_double) for k in range(4))
        self.outputs = (self.returns.ctypes.data, ctypes.addressof(self.drift),
                        ctypes.addressof(self.out))


def _ticks(
    equities: list[float], assets: list[float], lambdas: list[float], r: float, phi: float,
    gamma: float, eps: np.ndarray | _Shocks, period: int, buffers: _TickBuffers | None = None,
) -> tuple[np.ndarray, float]:
    """Run one intraday tick per shock, updating ``equities`` and
    ``assets`` in place from the start return ``r`` and the impact
    coefficient ``phi`` (``_impact`` of the leverages and assets) before
    the first tick.  The shocks are the float64 vector ``eps``, or a
    run's ``_Shocks``, which draw the start return 0.0 + r * z first.

    Each tick forms r_s = phi_s r_{s-1} + eps_s, marks every bank's
    equity to market and rebalances it to lambda_i E_i; the pass over
    the banks also accumulates the next tick's phi.  An equity that is
    not positive (NaN included) raises InsolvencyError(period, bank).
    Returns the start return and the tick returns, one vector, and the
    weight drift: the largest |w_i - w0_i| over the ticks and banks,
    where w is a tick's assets over their left-to-right sum and w0 the
    assets at entry over their fsum; NaN where any is NaN, as np.max
    gives, and 0.0 for no shock.

    The loop runs compiled (``levdyn_ticks`` in ``_kernel.c``) when that
    loaded, on ``buffers`` made for these banks and shocks (fresh ones
    where it is None); the returns are then its buffer, overwritten by
    the next call on it.  The Python loop below is its reference.  It
    runs where no C compiler is found, and where the compiled loop stops
    at a step on which Python raises ZeroDivisionError, to raise it.
    """
    total0 = math.fsum(assets)
    weights0 = [a / total0 for a in assets]
    banks = len(equities)
    lib = _kernel.lib if banks == len(assets) == len(lambdas) else None
    drawn = isinstance(eps, _Shocks)
    if lib is not None:
        if drawn:  # levdyn_ticks draws the start return and the shocks
            source, shape = (None, eps.stream, eps.scale), (eps.ticks,)
        else:
            shocks = np.ascontiguousarray(eps, dtype=float)  # no copy of a contiguous vector
            source, shape = (shocks.ctypes.data, None, 0.0), shocks.shape
        buf = buffers or _TickBuffers(banks, math.prod(shape))
        if shape != (buf.ticks,):
            raise ValueError(f"buffers for {buf.ticks} ticks, given {shape} shocks")
        buf.state[:] = [*equities, *assets, *lambdas, *weights0]
        code = lib.levdyn_ticks(banks, *buf.inputs, r, phi, gamma, *source, buf.ticks,
                                *buf.outputs)
        if code != _kernel.DEFER:
            equities[:] = buf.state[:banks]
            assets[:] = buf.state[banks:2 * banks]
            if code:
                raise InsolvencyError(period=period, bank=buf.out[1])
            return buf.returns, buf.drift.value
    if drawn:  # a deferred pass left the stream where it was
        r, eps = eps.period(r)
    # raw doubles: 8 bytes a value, where a list of floats takes 32
    returns = array("d", [r])
    held = array("d")
    for shock in memoryview(eps):  # Python floats, without a list
        r = phi * r + shock
        demand = 0.0
        total = 0.0
        for i in range(banks):
            e = equities[i] + r * assets[i]
            if not e > 0.0:
                raise InsolvencyError(period=period, bank=i)
            equities[i] = e
            lam = lambdas[i]
            a = lam * e
            assets[i] = a
            held.append(a)
            demand += (lam - 1.0) * a
            total += a
        phi = demand / (gamma * total)
        returns.append(r)
    held_assets = np.frombuffer(held).reshape(len(returns) - 1, banks)
    # silent, as the compiled loop is, where an infinite last shock makes
    # a row's total overflow or its weights inf / inf
    with np.errstate(invalid="ignore", over="ignore"):
        totals = sum(held_assets.T, np.zeros(len(held_assets)))
        weights = held_assets / totals[:, None]
        drift = np.max(np.abs(weights - weights0), initial=0.0)
    return np.frombuffer(returns), float(drift)


def _retarget(
    sigma_sq: list[float], omegas: tuple[float, ...], sigma_e_sq: float, alpha: float
) -> tuple[list[float], list[float], bool]:
    """Blend ``sigma_e_sq`` into each bank's variance estimate with
    weight (1 - omega_i), floor it at SIGMA_SQ_FLOOR and re-target
    leverage 1/(alpha sigma).  Returns (new_lambdas, new_sigma_sq,
    floored)."""
    new_sigma = []
    new_lambdas = []
    floored = False
    for w, s in zip(omegas, sigma_sq):
        s_new = w * s + (1.0 - w) * sigma_e_sq
        if s_new < SIGMA_SQ_FLOOR:
            s_new = SIGMA_SQ_FLOOR
            floored = True
        new_sigma.append(s_new)
        new_lambdas.append(1.0 / (alpha * math.sqrt(s_new)))
    return new_lambdas, new_sigma, floored


def close_period(
    returns: np.ndarray,
    r0: float,
    sigma_sq: list[float],
    omegas: tuple[float, ...],
    params: MicroParams,
) -> tuple[list[float], list[float], float, float, bool]:
    """Period-close estimation and leverage update.

    ``returns`` holds the n intraday returns; ``r0`` is the return just
    before the period so the AR(1) regression has n lag pairs:

        phi_hat      = sum r_s r_{s-1} / sum r_{s-1}^2
        sigma_eps^2  = (1/n) sum (r_s - phi_hat r_{s-1})^2
        sigma_e^2    = n sigma_eps^2 / (1 - phi_hat)^2

    and ``_retarget`` blends sigma_e^2 into each bank's estimate.
    Returns (new_lambdas, new_sigma_sq, phi_hat, sigma_eps_hat_sq,
    floored).  Raises NonstationaryError when |phi_hat| >= 1 or phi_hat
    is NaN.
    """
    n = len(returns)
    if n != params.n_intraday:
        raise ValueError(f"expected {params.n_intraday} returns, got {n}")
    prev = np.empty(n)
    prev[0] = r0
    prev[1:] = returns[:-1]
    den = float(np.dot(prev, prev))
    phi_hat = float(np.dot(returns, prev)) / den if den != 0.0 else 0.0
    if not abs(phi_hat) < 1.0:
        raise NonstationaryError(period=-1, phi_hat=phi_hat)
    resid = prev  # in place: the lags are not read again
    resid *= phi_hat
    np.subtract(returns, resid, out=resid)
    sigma_eps_hat_sq = float(np.dot(resid, resid)) / n
    sigma_e_hat_sq = n * sigma_eps_hat_sq / ((1.0 - phi_hat) ** 2)
    new_lambdas, new_sigma, floored = _retarget(
        sigma_sq, omegas, sigma_e_hat_sq, params.base.alpha
    )
    return new_lambdas, new_sigma, phi_hat, sigma_eps_hat_sq, floored


@dataclass(frozen=True)
class MicroRun:
    """Slow-scale output of one simulation run.

    Row t of the leverage arrays is the state entering period t+1 (after
    the period-t close); the deterministic column iterates the coupled
    map from the same initial leverages with the configured weights,
    under the orbits' escape protocol.
    """

    lambdas_stochastic: np.ndarray
    lambdas_deterministic: np.ndarray
    pi_drift_max: np.ndarray
    phi_hat: np.ndarray
    sigma_eps_hat_sq: np.ndarray
    floored: bool


def initial_equities(params: MicroParams, lambdas: list[float]) -> list[float]:
    """Equities making the initial asset weights equal the configured pis,
    for a total equity of 1: every output is a ratio in which it cancels."""
    return [p / lam for p, lam in zip(params.base.pis, lambdas)]


def run_micro(
    params: MicroParams,
    initial_lambdas: list[float] | tuple[float, ...],
) -> MicroRun:
    """Simulate ``horizon`` slow periods and the deterministic reference.

    In ``zero_noise`` mode the intraday market is replaced by its exact
    limit: the shock stream is zero and the aggregated variance estimate
    takes its analytic value sigma_eps_sq / (1 - phi)^2 with phi formed
    from the configured weights, which reproduces the coupled map.

    Raises InsolvencyError or NonstationaryError with the period index
    when a run aborts (mirroring the discard protocol for violating
    runs); in ``zero_noise`` mode a mean field at or past 1 + gamma is
    nonstationary.  The deterministic column is formed after the
    periods, by ``orbits._run_checked``: where it escapes, the run raises
    OrbitViolationError with the step and constraint.
    """
    base = params.base
    n_banks = base.n_banks
    lambdas = [float(x) for x in initial_lambdas]
    if len(lambdas) != n_banks:
        raise ValueError(f"expected {n_banks} initial leverages")
    if any(lam < 1.0 for lam in lambdas):
        raise ValueError("initial leverages must be >= 1")
    equities = initial_equities(params, lambdas)
    if not all(e > 0.0 for e in equities):
        raise ValueError("initial equities must be positive")
    sigma_sq = [1.0 / (base.alpha * lam) ** 2 for lam in lambdas]
    target_assets = [lam * e for lam, e in zip(lambdas, equities)]
    sigma_step = math.sqrt(params.sigma_eps_step_sq)
    # zero_noise draws nothing, so it makes no stream
    shocks = None if params.zero_noise else _Shocks(params.rng_seed, params.n_intraday,
                                                    sigma_step)
    buffers = _TickBuffers(n_banks, params.n_intraday)

    lam_sto = np.empty((params.horizon, n_banks))
    drift = np.zeros(params.horizon)
    phis = np.empty(params.horizon)
    sig_eps = np.empty(params.horizon)
    floored_any = False

    initial = list(lambdas)
    for t in range(params.horizon):
        if params.zero_noise:
            phi = base.ar1_coef(mean_field(lambdas, base.pis))
            if not abs(phi) < 1.0:
                raise NonstationaryError(period=t, phi_hat=phi)
            lambdas, sigma_sq, floored = _retarget(
                sigma_sq, base.omegas, base.sigma_eps_sq / ((1.0 - phi) ** 2), base.alpha,
            )
            phis[t] = phi
            sig_eps[t] = 0.0
        else:
            # stationary seed return, with phi taken from the actual asset
            # mix (identical to the configured-weight value at period 0)
            phi0 = _impact(lambdas, target_assets, base.gamma)
            if not abs(phi0) < 1.0:
                raise NonstationaryError(period=t, phi_hat=phi0)
            returns, drift[t] = _ticks(equities, target_assets, lambdas,
                                       sigma_step / math.sqrt(1.0 - phi0 * phi0), phi0,
                                       base.gamma, shocks, t, buffers)
            try:
                lambdas, sigma_sq, phis[t], sig_eps[t], floored = close_period(
                    returns[1:], float(returns[0]), sigma_sq, base.omegas, params
                )
            except NonstationaryError as exc:
                raise NonstationaryError(period=t, phi_hat=exc.phi_hat) from None
        floored_any = floored_any or floored
        target_assets = [lam * e for lam, e in zip(lambdas, equities)]
        lam_sto[t] = lambdas
    return MicroRun(
        lambdas_stochastic=lam_sto,
        lambdas_deterministic=_run_checked(initial, base, 0, params.horizon),
        pi_drift_max=drift,
        phi_hat=phis,
        sigma_eps_hat_sq=sig_eps,
        floored=floored_any,
    )
