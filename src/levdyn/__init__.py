"""Leverage dynamics toolkit.

Deterministic orbit simulation of value-at-risk constrained bank
leverages coupled through a common asset, bifurcation and stability
sweeps, Lyapunov exponents, attractor capture with box-counting
dimension, the forced-forcing (skew-product) subsystem with its random
fixed point, and the underlying slow-fast market microstructure
simulator.
"""

__version__ = "0.1.0"

from .params import (  # noqa: E402,F401
    LeverageState,
    ModelParams,
    common_fixed_point,
)

# before any module that uses it: its self-check imports the modules
# whose loops it checks
from . import _kernel  # noqa: E402,F401
