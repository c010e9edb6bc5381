"""Model parameters and leverage-state containers.

The model describes N banks targeting a value-at-risk constrained
leverage while trading a common asset.  Bank i carries a memory weight
omega_i (weight on its previous variance estimate) and an asset weight
pi_i (its share of total targeted holdings, sum pi_i = 1).  The three
market parameters are the VaR multiplier alpha, the market depth gamma
and the aggregated exogenous return variance sigma_eps_sq.

Two derived quantities appear throughout:

    var_kernel(y)  = alpha^2 gamma^2 sigma_eps_sq / (1 + gamma - y)^2
    ar1_coef(m)    = (m - 1) / gamma

The first is the squared endogenous-variance kernel evaluated at a
(mean-field) leverage y; the second is the autoregressive coefficient
of the intraday return process when the weighted mean leverage is m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import InfeasibleStateError

#: default VaR multiplier (Gaussian returns, 5% loss probability)
DEFAULT_ALPHA = 1.64
#: default market liquidity / depth
DEFAULT_GAMMA = 100.0
#: default aggregated exogenous return variance
DEFAULT_SIGMA_EPS_SQ = 0.0015**2
#: what a sweep can vary: the single-bank memory, the two-bank weight
#: pi1 or either two-bank memory
SWEEP_AXES = ("omega", "pi1", "omega1", "omega2")

#: tolerance on sum(pis) == 1
_PI_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set with validity invariants enforced on build."""

    alpha: float = DEFAULT_ALPHA
    gamma: float = DEFAULT_GAMMA
    sigma_eps_sq: float = DEFAULT_SIGMA_EPS_SQ
    omegas: tuple[float, ...] = (0.5,)
    pis: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "omegas", tuple(float(w) for w in self.omegas))
        object.__setattr__(self, "pis", tuple(float(p) for p in self.pis))
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not self.sigma_eps_sq > 0:
            raise ValueError(f"sigma_eps_sq must be > 0, got {self.sigma_eps_sq}")
        if len(self.omegas) < 1:
            raise ValueError("need at least one bank")
        if len(self.pis) != len(self.omegas):
            raise ValueError(
                f"omegas and pis length mismatch: {len(self.omegas)} vs {len(self.pis)}"
            )
        for w in self.omegas:
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"memory weight out of [0, 1]: {w}")
        for p in self.pis:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"asset weight out of [0, 1]: {p}")
        if abs(math.fsum(self.pis) - 1.0) > _PI_SUM_TOL:
            raise ValueError(f"asset weights must sum to 1, got {math.fsum(self.pis)!r}")

    @property
    def n_banks(self) -> int:
        return len(self.omegas)

    @property
    def lambda_max(self) -> float:
        """Upper edge 1 + gamma of the map domain."""
        return 1.0 + self.gamma

    @property
    def coupling_coef(self) -> float:
        """alpha^2 gamma^2 sigma_eps_sq, the numerator of the variance kernel."""
        return self.alpha * self.alpha * self.gamma * self.gamma * self.sigma_eps_sq

    def var_kernel(self, y: float) -> float:
        """Squared endogenous-variance kernel at mean-field leverage y.

        Positive for y < 1 + gamma; the denominator vanishes at the
        domain edge.
        """
        d = 1.0 + self.gamma - y
        return self.coupling_coef / (d * d)

    def ar1_coef(self, mean_field: float) -> float:
        """AR(1) coefficient (m - 1)/gamma of the intraday return process."""
        return (mean_field - 1.0) / self.gamma

    def with_single_omega(self, omega: float) -> "ModelParams":
        """Single-bank copy carrying the given memory weight."""
        return replace(self, omegas=(omega,), pis=(1.0,))


def common_fixed_point(params: ModelParams) -> float:
    """The leverage fixed point shared by every memory configuration.

    Solves x = (1 + gamma - x)/(alpha gamma sqrt(sigma_eps_sq)); at this
    point the variance kernel equals 1/x^2 so both terms of the update
    collapse and the state reproduces itself for any omegas and pis.
    """
    c = params.gamma * params.alpha * math.sqrt(params.sigma_eps_sq)
    return (1.0 + params.gamma) / (1.0 + c)


def mean_field(lambdas: Sequence[float], pis: Sequence[float]) -> float:
    """Weighted mean leverage, accumulated left to right.

    Single accumulation order everywhere keeps orbit iteration, map
    evaluation and the Jacobian bit-consistent with each other.
    """
    m = 0.0
    for p, lam in zip(pis, lambdas):
        m += p * lam
    return m


@dataclass(frozen=True)
class LeverageState:
    """N-vector of leverages with cached mean field and feasibility flag.

    Feasibility requires every leverage >= 1 and mean field <= 1 + gamma
    (equivalently |ar1_coef| <= 1).
    """

    lambdas: tuple[float, ...]
    mean_field: float
    feasible: bool

    @classmethod
    def from_lambdas(
        cls, lambdas: Iterable[float], params: ModelParams
    ) -> "LeverageState":
        lams = tuple(float(x) for x in lambdas)
        if len(lams) != params.n_banks:
            raise ValueError(
                f"expected {params.n_banks} leverages, got {len(lams)}"
            )
        m = mean_field(lams, params.pis)
        feasible = all(x >= 1.0 for x in lams) and m <= params.lambda_max
        return cls(lambdas=lams, mean_field=m, feasible=feasible)

    def require_feasible(self) -> None:
        """Raise InfeasibleStateError naming the violated constraint."""
        if any(x < 1.0 for x in self.lambdas):
            raise InfeasibleStateError("leverage_floor")
        if not self.feasible:
            raise InfeasibleStateError("ar1_stationarity")
