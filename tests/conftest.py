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
    """Run orbits._run and micro._ticks through their Python loops."""
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
