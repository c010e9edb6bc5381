"""Reference composition of the microstructure simulator, tick by tick.

This is the simulator as it was written before its tick loop and
re-target were shared: one function call per tick building a fresh
weights list, a per-tick scan for the drift maximum, an inline seed-phi
loop and a separate blend loop for the zero-noise limit.  Its three
solvency and stationarity tests, and the stationarity test of the
zero-noise limit, are written as ``levdyn.micro`` writes them, so that
a NaN equity or regression raises instead of passing as data.  The
tests hold ``levdyn.micro`` to it byte for byte, errors
included.
"""

from __future__ import annotations

import math

import numpy as np

from levdyn.errors import InsolvencyError, NonstationaryError
from levdyn.maps import advance
from levdyn.micro import (
    SIGMA_SQ_FLOOR,
    MicroParams,
    MicroRun,
    MicroState,
    initial_equities,
)
from levdyn.params import mean_field


class _Insolvent(Exception):
    def __init__(self, bank: int):
        self.bank = bank


def _tick(equities, target_assets, lambdas, r_prev, gamma, eps):
    n = len(equities)
    demand_coef = 0.0
    total_assets = 0.0
    for i in range(n):
        a = target_assets[i]
        demand_coef += (lambdas[i] - 1.0) * a
        total_assets += a
    phi_s = demand_coef / (gamma * total_assets)
    r = phi_s * r_prev + eps
    total_new = 0.0
    for i in range(n):
        e = equities[i] + r * target_assets[i]
        if not e > 0.0:
            raise _Insolvent(i)
        equities[i] = e
        a = lambdas[i] * e
        target_assets[i] = a
        total_new += a
    weights = [a / total_new for a in target_assets]
    return r, weights


def step_intraday(state: MicroState, params: MicroParams, rng) -> MicroState:
    for i, e in enumerate(state.equities):
        if not e > 0.0:
            raise InsolvencyError(period=-1, bank=i)
    equities = list(state.equities)
    target_assets = list(state.target_assets)
    eps = float(rng.normal(0.0, math.sqrt(params.sigma_eps_step_sq)))
    try:
        r, weights = _tick(
            equities, target_assets, state.lambdas, state.last_return,
            params.base.gamma, eps,
        )
    except _Insolvent as exc:
        raise InsolvencyError(period=-1, bank=exc.bank) from None
    return MicroState(
        equities=equities,
        target_assets=target_assets,
        lambdas=list(state.lambdas),
        sigma_sq=list(state.sigma_sq),
        last_return=r,
        weights=weights,
    )


def close_period(returns, r0, sigma_sq, omegas, params: MicroParams):
    n = len(returns)
    prev = np.empty(n)
    prev[0] = r0
    prev[1:] = returns[:-1]
    den = float(np.dot(prev, prev))
    phi_hat = float(np.dot(returns, prev)) / den if den != 0.0 else 0.0
    if not abs(phi_hat) < 1.0:
        raise NonstationaryError(period=-1, phi_hat=phi_hat)
    resid = returns - phi_hat * prev
    sigma_eps_hat_sq = float(np.dot(resid, resid)) / n
    sigma_e_hat_sq = n * sigma_eps_hat_sq / ((1.0 - phi_hat) ** 2)
    alpha = params.base.alpha
    new_sigma = []
    new_lambdas = []
    floored = False
    for w, s in zip(omegas, sigma_sq):
        s_new = w * s + (1.0 - w) * sigma_e_hat_sq
        if s_new < SIGMA_SQ_FLOOR:
            s_new = SIGMA_SQ_FLOOR
            floored = True
        new_sigma.append(s_new)
        new_lambdas.append(1.0 / (alpha * math.sqrt(s_new)))
    return new_lambdas, new_sigma, phi_hat, sigma_eps_hat_sq, floored


def run_micro(params: MicroParams, initial_lambdas) -> MicroRun:
    base = params.base
    n_banks = base.n_banks
    lambdas = [float(x) for x in initial_lambdas]
    equities = initial_equities(params, lambdas)
    sigma_sq = [1.0 / (base.alpha * lam) ** 2 for lam in lambdas]
    target_assets = [lam * e for lam, e in zip(lambdas, equities)]
    rng = np.random.default_rng(params.rng_seed)
    n = params.n_intraday
    sigma_step = math.sqrt(params.sigma_eps_step_sq)

    lam_sto = np.empty((params.horizon, n_banks))
    lam_det = np.empty((params.horizon, n_banks))
    drift = np.zeros(params.horizon)
    phis = np.empty(params.horizon)
    sig_eps = np.empty(params.horizon)
    floored_any = False

    det = list(lambdas)
    for t in range(params.horizon):
        if params.zero_noise:
            m = mean_field(lambdas, base.pis)
            phi = base.ar1_coef(m)
            if not abs(phi) < 1.0:
                raise NonstationaryError(period=t, phi_hat=phi)
            sigma_e_sq = base.sigma_eps_sq / ((1.0 - phi) ** 2)
            new_sigma = []
            new_lams = []
            for w, s in zip(base.omegas, sigma_sq):
                s_new = w * s + (1.0 - w) * sigma_e_sq
                new_sigma.append(s_new)
                new_lams.append(1.0 / (base.alpha * math.sqrt(s_new)))
            sigma_sq = new_sigma
            lambdas = new_lams
            target_assets = [lam * e for lam, e in zip(lambdas, equities)]
            phis[t] = phi
            sig_eps[t] = 0.0
        else:
            demand = 0.0
            total = 0.0
            for i in range(n_banks):
                demand += (lambdas[i] - 1.0) * target_assets[i]
                total += target_assets[i]
            phi0 = demand / (base.gamma * total)
            if abs(phi0) >= 1.0:
                raise NonstationaryError(period=t, phi_hat=phi0)
            r = float(rng.normal(0.0, sigma_step / math.sqrt(1.0 - phi0 * phi0)))
            r0 = r
            eps_draws = rng.normal(0.0, sigma_step, n)
            returns = np.empty(n)
            total0 = math.fsum(target_assets)
            weights0 = [a / total0 for a in target_assets]
            max_drift = 0.0
            try:
                for s in range(n):
                    r, weights = _tick(
                        equities, target_assets, lambdas, r,
                        base.gamma, float(eps_draws[s]),
                    )
                    returns[s] = r
                    for i in range(n_banks):
                        d = abs(weights[i] - weights0[i])
                        if d > max_drift:
                            max_drift = d
            except _Insolvent as exc:
                raise InsolvencyError(period=t, bank=exc.bank) from None
            try:
                lambdas, sigma_sq, phi_hat, s_eps, floored = close_period(
                    returns, r0, sigma_sq, base.omegas, params
                )
            except NonstationaryError as exc:
                raise NonstationaryError(period=t, phi_hat=exc.phi_hat) from None
            floored_any = floored_any or floored
            target_assets = [lam * e for lam, e in zip(lambdas, equities)]
            drift[t] = max_drift
            phis[t] = phi_hat
            sig_eps[t] = s_eps
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
