"""Long-run point clouds in the (lambda_1, lambda_2) plane and their
box-counting dimension.

Counting protocol: the cloud is normalized axis-by-axis onto the unit
square (so the fitted slope is exactly invariant under positive diagonal
affine maps), boxes are anchored at the lower corner, and occupied boxes
are counted at geometrically spaced scales.  The dimension is the least
squares slope of log N(eps) against log(1/eps) over a scaling window:
by default the longest contiguous run of scales whose local slopes stay
within 0.1 of each other, which excludes the saturated ends.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCloudError
from .orbits import _run_checked
from .params import LeverageState, ModelParams

#: below this cloud size the fit is warned about, not refused
SOFT_MIN_POINTS = 100_000

#: local slopes within a window may spread at most this much
SLOPE_WINDOW_SPREAD = 0.10


@dataclass(frozen=True)
class AttractorCloud:
    """Recorded post-transient states projected to the first two banks."""

    points: np.ndarray
    params: ModelParams
    transient: int

    @property
    def count(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class DimensionFit:
    """Box-count scaling data and the fitted dimension.

    ``fit_range`` is the half-open index window [start, stop) into
    ``epsilons`` actually used for the least squares fit.
    """

    epsilons: np.ndarray
    counts: np.ndarray
    slope: float
    stderr: float
    fit_range: tuple[int, int]


def capture_cloud(
    initial: LeverageState,
    params: ModelParams,
    transient: int,
    n_points: int,
) -> AttractorCloud:
    """Iterate the coupled map and record n_points (lambda_1, lambda_2)
    pairs after the transient.

    Unlike plain orbit traces, an escape during capture raises: a
    truncated cloud would silently bias the dimension estimate.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if params.n_banks < 2:
        raise ValueError("attractor capture needs at least two banks")
    initial.require_feasible()
    recorded = _run_checked(list(initial.lambdas), params, transient, n_points)
    return AttractorCloud(
        points=recorded[:, :2].copy(), params=params, transient=transient
    )


def _as_points(cloud: AttractorCloud | np.ndarray) -> np.ndarray:
    pts = cloud.points if isinstance(cloud, AttractorCloud) else np.asarray(cloud)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) point array, got shape {pts.shape}")
    return pts


def occupied_box_counts(points: np.ndarray, epsilons: np.ndarray) -> np.ndarray:
    """Occupied-box counts N(eps) on the unit-square-normalized cloud.

    Grid anchored at the bounding-box lower corner; each point is floored
    into an integer cell code and the distinct codes are counted with
    ``np.unique``.
    """
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    extent = hi - lo
    if extent[0] <= 0.0 or extent[1] <= 0.0:
        raise DegenerateCloudError(
            f"cloud extent degenerate: {extent[0]:.3e} x {extent[1]:.3e}"
        )
    norm = (points - lo) / extent
    counts = np.empty(len(epsilons), dtype=np.int64)
    for k, eps in enumerate(epsilons):
        n_cells = int(math.ceil(1.0 / eps))
        ix = np.floor_divide(norm, eps).astype(np.int64)
        np.clip(ix, 0, n_cells - 1, out=ix)
        encoded = (ix[:, 0] << 32) | ix[:, 1]
        counts[k] = np.unique(encoded).size
    return counts


def _auto_window(epsilons: np.ndarray, counts: np.ndarray) -> tuple[int, int]:
    """Longest scale window whose local slopes spread < SLOPE_WINDOW_SPREAD.

    Ties go to the window with the smallest spread.  Falls back to the
    full range when every window degenerates (e.g. very small clouds).
    """
    logs_n = np.log(counts.astype(float))
    logs_e = np.log(1.0 / epsilons)
    local = np.diff(logs_n) / np.diff(logs_e)
    best: tuple[int, int] | None = None
    best_key = None
    n = len(local)
    for start in range(n):
        hi_v = lo_v = local[start]
        for stop in range(start + 1, n + 1):
            hi_v = max(hi_v, local[stop - 1])
            lo_v = min(lo_v, local[stop - 1])
            if hi_v - lo_v >= SLOPE_WINDOW_SPREAD:
                break
            length = stop - start
            key = (-length, hi_v - lo_v, -start)
            if best_key is None or key < best_key:
                best_key = key
                best = (start, stop + 1)
    if best is None or best[1] - best[0] < 3:
        return (0, len(epsilons))
    return best


def box_dimension(
    cloud: AttractorCloud | np.ndarray,
    eps_decades: float = 3.0,
    n_scales: int = 12,
    fit_range: tuple[int, int] | None = None,
) -> DimensionFit:
    """Box-counting dimension of a planar cloud.

    Scales run geometrically from 0.5 down over ``eps_decades`` decades
    in ``n_scales`` steps (on the normalized cloud).  ``fit_range``
    overrides the automatic scaling-window selection.
    """
    points = _as_points(cloud)
    if n_scales < 4:
        raise ValueError("need at least 4 scales")
    if eps_decades <= 0:
        raise ValueError("eps_decades must be positive")
    if points.shape[0] < SOFT_MIN_POINTS:
        warnings.warn(
            f"cloud has only {points.shape[0]} points; "
            "dimension fits are unreliable below ~1e5",
            stacklevel=2,
        )
    exponents = np.linspace(0.0, eps_decades, n_scales)
    epsilons = 0.5 * 10.0 ** (-exponents)
    counts = occupied_box_counts(points, epsilons)

    window = fit_range if fit_range is not None else _auto_window(epsilons, counts)
    start, stop = window
    if not (0 <= start < stop <= len(epsilons)) or stop - start < 2:
        raise ValueError(f"invalid fit range {window}")
    xs = np.log(1.0 / epsilons[start:stop])
    ys = np.log(counts[start:stop].astype(float))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    dof = max(len(xs) - 2, 1)
    denom = float(np.sum((xs - xs.mean()) ** 2))
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / denom)
    return DimensionFit(
        epsilons=epsilons,
        counts=counts,
        slope=float(slope),
        stderr=stderr,
        fit_range=(start, stop),
    )
