from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest

from levdyn import _kernel
from levdyn.params import ModelParams

#: for tests that compare the compiled loops with the Python loops
needs_kernel = pytest.mark.skipif(
    _kernel.lib is None,
    reason="the compiled loops did not load (no C compiler, or a failed build or self-check)",
)


@contextmanager
def python_loops() -> Iterator[None]:
    """Run every compiled loop's Python reference instead: orbits._run, and
    with it every tangent pass, loops in Python in place of levdyn_orbit,
    micro._ticks in place of levdyn_ticks, attractor.occupied_box_counts
    counts with numpy in place of levdyn_boxes, and output formats every
    CSV cell with format_value in place of levdyn_rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "lib", None)
        yield


@pytest.fixture
def std1() -> ModelParams:
    """Standard single-bank parameters."""
    return ModelParams(omegas=(0.5,), pis=(1.0,))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def two_bank(omega1: float, omega2: float, pi1: float) -> ModelParams:
    return ModelParams(omegas=(omega1, omega2), pis=(pi1, 1.0 - pi1))


#: single-bank leverages x, y, z at memory 0.58 (standard alpha, gamma,
#: sigma_eps_sq): T'(x) is exactly 0, T(y) == x and T(z) == y, so a
#: tangent vector meets the zero derivative at its first, second or third
#: step; the first entry at memory 0.43 has T' exactly 0 too
SUPERSTABLE = {
    0.43: (float.fromhex("0x1.1a43d15f23672p+6"),),
    0.58: (
        float.fromhex("0x1.2ab17c5446a71p+6"),
        float.fromhex("0x1.dac2089b74f8ap+5"),
        float.fromhex("0x1.6f02d4c315e62p+5"),
    ),
}
