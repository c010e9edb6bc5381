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

A run's seed returns and shocks are one seeded stream of normals, drawn
in order by ``_shock_blocks``.  A long run draws them ahead on a helper
thread, a block of periods at a time, while the current period's ticks
run; one thread draws every value in stream order, so the bytes are the
same at any timing.
"""

from __future__ import annotations

import ctypes
import math
from array import array
from contextlib import closing
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernel
from .errors import InsolvencyError, NonstationaryError
from .maps import advance
from .params import ModelParams, mean_field

#: variance estimates are floored here to keep leverage finite
SIGMA_SQ_FLOOR = 1e-18
#: normals in a block that the helper thread draws (256 KB): as many
#: whole periods as fit, at least one
BLOCK_DRAWS = 2**15


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


class _TickBuffers:
    """The arrays of the compiled tick pass on ``banks`` banks and ``ticks``
    shocks, with their addresses, made once for a run's periods: one
    vector of the equities, assets, leverages and start weights, then
    the returns, the drift, and the tick and bank of an insolvency."""

    def __init__(self, banks: int, ticks: int) -> None:
        self.state = (ctypes.c_double * (4 * banks))()
        self.returns = np.empty(ticks)
        self.drift = ctypes.c_double()
        self.out = (ctypes.c_longlong * 2)()
        at = ctypes.addressof(self.state)
        self.inputs = tuple(at + k * banks * ctypes.sizeof(ctypes.c_double) for k in range(4))
        self.outputs = (self.returns.ctypes.data, ctypes.addressof(self.drift),
                        ctypes.addressof(self.out))


def _ticks(
    equities: list[float], assets: list[float], lambdas: list[float], r: float, phi: float,
    gamma: float, eps: np.ndarray, period: int, buffers: _TickBuffers | None = None,
) -> tuple[np.ndarray, float]:
    """Run one intraday tick per shock in the float64 vector ``eps``,
    updating ``equities`` and ``assets`` in place from the return ``r``
    and the impact coefficient ``phi`` (``_impact`` of the leverages and
    assets) before the first tick.

    Each tick forms r_s = phi_s r_{s-1} + eps_s, marks every bank's
    equity to market and rebalances it to lambda_i E_i; the pass over
    the banks also accumulates the next tick's phi.  An equity that is
    not positive (NaN included) raises InsolvencyError(period, bank).
    Returns the tick returns and the weight drift: the largest
    |w_i - w0_i| over the ticks and banks, where w is a tick's assets
    over their left-to-right sum and w0 the assets at entry over their
    fsum; NaN where any is NaN, as np.max gives, and 0.0 for no shock.

    The loop runs compiled (``levdyn_ticks`` in ``_kernel.c``) when that
    loaded, on ``buffers`` made for these banks and ``len(eps)`` shocks
    (fresh ones where it is None); the returns are then its buffer,
    overwritten by the next call on it.  The Python loop below is its
    reference.  It runs where no C compiler is found, and where the
    compiled loop stops at a step on which Python raises
    ZeroDivisionError, to raise it.
    """
    total0 = math.fsum(assets)
    weights0 = [a / total0 for a in assets]
    lib = _kernel.lib
    banks = len(equities)
    if lib is not None and banks == len(assets) == len(lambdas):
        shocks = np.ascontiguousarray(eps, dtype=float)  # no copy of a contiguous vector
        buf = buffers or _TickBuffers(banks, shocks.size)
        if shocks.shape != buf.returns.shape:
            raise ValueError(f"buffers for {buf.returns.size} ticks, given {shocks.shape} shocks")
        buf.state[:] = [*equities, *assets, *lambdas, *weights0]
        code = lib.levdyn_ticks(banks, *buf.inputs, r, phi, gamma, shocks.ctypes.data,
                                shocks.size, *buf.outputs)
        if code != _kernel.DEFER:
            equities[:] = buf.state[:banks]
            assets[:] = buf.state[banks:2 * banks]
            if code:
                raise InsolvencyError(period=period, bank=buf.out[1])
            return buf.returns, buf.drift.value
    # raw doubles: 8 bytes a value, where a list of floats takes 32
    returns = array("d")
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
    held_assets = np.frombuffer(held).reshape(len(returns), banks)
    # silent, as the compiled loop is, where an infinite last shock makes
    # a row's total overflow or its weights inf / inf
    with np.errstate(invalid="ignore", over="ignore"):
        totals = sum(held_assets.T, np.zeros(len(returns)))
        weights = held_assets / totals[:, None]
        drift = np.max(np.abs(weights - weights0), initial=0.0)
    return np.frombuffer(returns), float(drift)


def _shock_blocks(
    rng: np.random.Generator, horizon: int, n: int, scale: float
) -> Iterator[np.ndarray]:
    """Each of ``horizon`` periods' n + 1 draws from ``rng``, in stream
    order: the standard normal z of the seed return, then the n shocks,
    each formed as ``rng.normal(0.0, scale)`` forms it, 0.0 + scale * z.

    A run of more than two blocks is drawn on one helper thread, each
    block of periods while the caller consumes the block before it: both
    the draw and the compiled tick loop release the GIL, so the two
    overlap.  A shorter run is drawn in one call, because overlapping one
    block with the ticks of the first saves less than the thread and the
    wait for that first block cost.  Closing the generator joins the
    thread.
    """
    def draw(periods: int) -> np.ndarray:
        z = rng.standard_normal((periods, n + 1))
        shocks = z[:, 1:]
        shocks *= scale
        shocks += 0.0  # as numpy adds loc, which turns a -0.0 shock into 0.0
        return z

    per_block = max(1, BLOCK_DRAWS // (n + 1))
    if horizon <= 2 * per_block:
        yield from draw(horizon)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="levdyn-shocks") as helper:
        ahead = helper.submit(draw, per_block)
        for start in range(per_block, horizon + per_block, per_block):
            block = ahead.result()
            if start < horizon:  # the next block, drawn while the caller takes this one
                ahead = helper.submit(draw, min(per_block, horizon - start))
            yield from block


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
    map from the same initial leverages with the configured weights.
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
    nonstationary.
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
    # started by the first stochastic period only, so zero_noise draws nothing
    blocks = _shock_blocks(np.random.default_rng(params.rng_seed), params.horizon,
                           params.n_intraday, sigma_step)
    buffers = _TickBuffers(n_banks, params.n_intraday)

    lam_sto = np.empty((params.horizon, n_banks))
    lam_det = np.empty((params.horizon, n_banks))
    drift = np.zeros(params.horizon)
    phis = np.empty(params.horizon)
    sig_eps = np.empty(params.horizon)
    floored_any = False

    det = list(lambdas)
    with closing(blocks):
        for t in range(params.horizon):
            if params.zero_noise:
                phi = base.ar1_coef(mean_field(lambdas, base.pis))
                if not abs(phi) < 1.0:
                    raise NonstationaryError(period=t, phi_hat=phi)
                lambdas, sigma_sq, floored = _retarget(
                    sigma_sq, base.omegas, base.sigma_eps_sq / ((1.0 - phi) ** 2),
                    base.alpha,
                )
                phis[t] = phi
                sig_eps[t] = 0.0
            else:
                # stationary seed return, with phi taken from the actual asset
                # mix (identical to the configured-weight value at period 0)
                phi0 = _impact(lambdas, target_assets, base.gamma)
                if not abs(phi0) < 1.0:
                    raise NonstationaryError(period=t, phi_hat=phi0)
                draws = next(blocks)
                r0 = 0.0 + sigma_step / math.sqrt(1.0 - phi0 * phi0) * float(draws[0])
                returns, drift[t] = _ticks(equities, target_assets, lambdas, r0, phi0,
                                           base.gamma, draws[1:], t, buffers)
                try:
                    lambdas, sigma_sq, phis[t], sig_eps[t], floored = close_period(
                        returns, r0, sigma_sq, base.omegas, params
                    )
                except NonstationaryError as exc:
                    raise NonstationaryError(period=t, phi_hat=exc.phi_hat) from None
            floored_any = floored_any or floored
            target_assets = [lam * e for lam, e in zip(lambdas, equities)]
            lam_sto[t] = lambdas
            det = advance(det, base)
            lam_det[t] = det
    return MicroRun(
        lambdas_stochastic=lam_sto,
        lambdas_deterministic=lam_det,
        pi_drift_max=drift,
        phi_hat=phis,
        sigma_eps_hat_sq=sig_eps,
        floored=floored_any,
    )
