"""Long-run point clouds in the (lambda_1, lambda_2) plane and their
box-counting dimension.

Counting protocol: the cloud is normalized axis-by-axis onto the unit
square (so the fitted slope is exactly invariant under positive diagonal
affine maps), boxes are anchored at the lower corner, and occupied boxes
are counted at geometrically spaced scales.  The dimension is the least
squares slope of log N(eps) against log(1/eps) over a scaling window:
by default the longest contiguous run of scales whose local slopes stay
within 0.1 of each other, which excludes the saturated ends.

Counting: each point's cell (ix0, ix1) = floor(norm / eps) is found
exactly, through ``np.floor_divide`` only where the rounded quotient
lies near an integer, and coded ix0 * n_cells + ix1.  Scales whose grid
has at most GRID_CELLS_MAX cells mark a boolean occupancy grid and count
it; finer scales count the distinct codes with ``np.unique``.  Points
are processed SLICE_ROWS at a time so the temporaries stay small.
Scales finer than MAX_CELLS cells per side (eps_decades above about
9.18), whose codes would overflow int64, are refused.
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

#: scales with at most this many cells (a 16 MB bool grid) are counted
#: on an occupancy grid, finer ones by sorting their cell codes
GRID_CELLS_MAX = 2**24

#: points floored and coded per pass: the temporaries stay in cache
SLICE_ROWS = 16_384

#: cells per side up to which the code ix0 * n_cells + ix1 fits int64
MAX_CELLS = math.isqrt(2**63)


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


def _cells_per_side(eps: float) -> int:
    """Cells per side of the grid of boxes of size ``eps`` on the unit
    square; ValueError past MAX_CELLS."""
    n_cells = int(math.ceil(1.0 / eps))
    if n_cells > MAX_CELLS:
        raise ValueError(
            f"box size {eps:.3e} needs {n_cells} cells per side, but cell codes "
            f"fit int64 only up to {MAX_CELLS} (eps_decades at most "
            f"{math.log10(MAX_CELLS / 2):.2f})"
        )
    return n_cells


def _floor_cells(norm: np.ndarray, eps: float, n_cells: int) -> np.ndarray:
    """``np.floor_divide(norm, eps)`` as int64, for ``norm`` in [0, 1]
    and ``n_cells = ceil(1 / eps)``.

    The rounded quotient c = norm / eps is at most n_cells and within
    c * 2**-53 of the true quotient, so floor(c) can differ from the true
    floor only where c lies within tol = n_cells * 2**-50 of an integer.
    Only those elements go to ``np.floor_divide``, which for positive
    operands returns the true floor; everywhere else floor(c) is it.
    """
    c = norm / eps
    q = np.floor(c)
    c -= q
    tol = n_cells * 2.0**-50
    near = (c <= tol) | (c >= 1.0 - tol)
    if near.any():
        q[near] = np.floor_divide(norm[near], eps)
    return q.astype(np.int64)


def _cell_codes(norm: np.ndarray, eps: float, n_cells: int) -> np.ndarray:
    """The code ix0 * n_cells + ix1 of each normalized point's cell."""
    ix = _floor_cells(norm, eps, n_cells)
    np.minimum(ix, n_cells - 1, out=ix)  # the upper edge, norm == 1, joins the last cell
    return ix[:, 0] * n_cells + ix[:, 1]


def occupied_box_counts(points: np.ndarray, epsilons: np.ndarray) -> np.ndarray:
    """Occupied-box counts N(eps) on the unit-square-normalized cloud.

    Grid anchored at the bounding-box lower corner; each point is floored
    into an integer cell code.  A scale whose grid has at most
    GRID_CELLS_MAX cells marks the codes on a boolean grid and counts the
    marked cells; a finer one counts the distinct codes with
    ``np.unique``.  Raises DegenerateCloudError for a cloud without a
    finite positive extent on both axes, and ValueError for a scale
    finer than MAX_CELLS cells per side.
    """
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    extent = hi - lo
    if not np.all((extent > 0.0) & np.isfinite(extent)):
        raise DegenerateCloudError(
            f"cloud extent degenerate: {extent[0]:.3e} x {extent[1]:.3e}"
        )
    cells = [_cells_per_side(eps) for eps in epsilons]
    norm = (points - lo) / extent
    counts = np.empty(len(epsilons), dtype=np.int64)
    for k, (eps, n_cells) in enumerate(zip(epsilons, cells)):
        codes = (
            _cell_codes(norm[start:start + SLICE_ROWS], eps, n_cells)
            for start in range(0, len(norm), SLICE_ROWS)
        )
        if n_cells * n_cells <= GRID_CELLS_MAX:
            grid = np.zeros(n_cells * n_cells, dtype=bool)
            for block in codes:
                grid[block] = True
            counts[k] = np.count_nonzero(grid)
        else:
            counts[k] = np.unique(np.concatenate(list(codes))).size
    return counts


def box_sizes(eps_decades: float, n_scales: int) -> np.ndarray:
    """The box sizes ``box_dimension`` counts at: geometric from 0.5 down
    over ``eps_decades`` decades in ``n_scales`` steps.  ValueError for
    fewer than 4 scales, a non-positive ``eps_decades``, or a finest
    scale past MAX_CELLS cells per side."""
    if n_scales < 4:
        raise ValueError("need at least 4 scales")
    if eps_decades <= 0:
        raise ValueError("eps_decades must be positive")
    exponents = np.linspace(0.0, eps_decades, n_scales)
    epsilons = 0.5 * 10.0 ** (-exponents)
    _cells_per_side(epsilons[-1])
    return epsilons


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
    in ``n_scales`` steps (on the normalized cloud; see ``box_sizes``).
    ``fit_range`` overrides the automatic scaling-window selection.
    """
    points = _as_points(cloud)
    epsilons = box_sizes(eps_decades, n_scales)
    if points.shape[0] < SOFT_MIN_POINTS:
        warnings.warn(
            f"cloud has only {points.shape[0]} points; "
            "dimension fits are unreliable below ~1e5",
            stacklevel=2,
        )
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
