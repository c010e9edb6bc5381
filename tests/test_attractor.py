from __future__ import annotations

import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levdyn import _kernel, attractor
from levdyn.attractor import (
    box_dimension,
    box_sizes,
    capture_cloud,
    occupied_box_counts,
)
from levdyn.errors import DegenerateCloudError, OrbitViolationError
from levdyn.params import LeverageState, common_fixed_point

import box_oracle
from conftest import needs_kernel, python_loops, two_bank

#: well within the bit grid's budget, on both sides of it (11,585 cells
#: per side, about 3.76 decades), and past it up to the int64 code limit
#: (about 9.18 decades)
DECADES = [0.5, 2.0, 3.0, 3.3, 3.35, 3.75, 3.8, 5.0, 9.0, 9.18]


def filled_square(n_side: int = 1000) -> np.ndarray:
    xs = np.linspace(0.0, 1.0, n_side)
    gx, gy = np.meshgrid(xs, xs)
    return np.column_stack([gx.ravel(), gy.ravel()])


def slanted_segment(n: int = 1_000_000) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)
    return np.column_stack([t, 0.37 * t + 0.11])


@st.composite
def adversarial_coordinate(draw, epsilons: np.ndarray) -> float:
    """0 or 1, a lattice point k * eps of one of the scales or its 1-ulp
    neighbours, or any point of the unit interval."""
    kind = draw(st.sampled_from(["edge", "lattice", "uniform"]))
    if kind == "edge":
        return draw(st.sampled_from([0.0, 1.0]))
    if kind == "uniform":
        return draw(st.floats(0.0, 1.0))
    eps = draw(st.sampled_from(list(epsilons)))
    x = draw(st.integers(0, int(np.ceil(1.0 / eps)))) * eps
    x = np.nextafter(x, x + draw(st.sampled_from([-1.0, 0.0, 1.0])))
    return float(min(max(x, 0.0), 1.0))


@st.composite
def cloud_and_scales(draw) -> tuple[np.ndarray, np.ndarray]:
    """Adversarial points pinned to the unit square by its corners, so
    that lattice points stay on the lattice after normalization."""
    epsilons = box_sizes(draw(st.sampled_from(DECADES)), draw(st.integers(4, 8)))
    coordinate = adversarial_coordinate(epsilons)
    rows = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=60))
    return np.array([(0.0, 0.0), (1.0, 1.0), *rows]), epsilons


@settings(max_examples=150, deadline=None)
@given(case=cloud_and_scales(), slice_rows=st.integers(1, 40), affine=st.booleans())
def test_counts_match_the_sorting_counter(case, slice_rows, affine):
    points, epsilons = case
    if affine:
        points = points * np.array([3.0, 0.01]) + np.array([5.0, -2.0])
    want = box_oracle.occupied_box_counts(points, epsilons)
    for loops in (nullcontext, python_loops):
        with loops(), mock.patch.object(attractor, "SLICE_ROWS", slice_rows):
            np.testing.assert_array_equal(occupied_box_counts(points, epsilons), want)


#: the filled square at 2 decades in 6 scales, of 2, 6, 13, 32, 80 and 200
#: cells per side: one pass within 16 MB; two passes, [0..4] and [5], within
#: 5,000 bytes; within 64 bytes one pass of [0..2], whose first two grids
#: are a single word, with [3..5] sorted.  Where the cells are not a
#: multiple of 64 (2, 6 and 13 a side), the corner (1, 1) marks the last
#: cell, in a part-filled last word
BUDGET_CASE = (filled_square(30), box_sizes(2.0, 6))


@needs_kernel
@settings(max_examples=150, deadline=None)
@given(case=cloud_and_scales(), duplicates=st.integers(0, 5),
       dtype=st.sampled_from([np.float64, np.float32]),
       cap=st.sampled_from([attractor.GRID_BYTES_MAX, 5_000, 64]))
@example(case=BUDGET_CASE, duplicates=0, dtype=np.float64, cap=attractor.GRID_BYTES_MAX)
@example(case=BUDGET_CASE, duplicates=0, dtype=np.float64, cap=5_000)
@example(case=BUDGET_CASE, duplicates=0, dtype=np.float64, cap=64)
def test_compiled_counts_match_the_python_counter(case, duplicates, dtype, cap):
    # duplicate points, float32 clouds (counted in numpy, which normalizes
    # them in float32), and grid budgets that cut the scales into several
    # compiled passes, leave a bit grid a single word or push scales past
    # the budget onto the sort; most scales' cell counts are not a
    # multiple of 64
    points, epsilons = case
    points = np.concatenate([points, points[:duplicates]]).astype(dtype)
    with mock.patch.object(attractor, "GRID_BYTES_MAX", cap):
        got = occupied_box_counts(points, epsilons)
        with python_loops():
            np.testing.assert_array_equal(got, occupied_box_counts(points, epsilons))
    np.testing.assert_array_equal(got, box_oracle.occupied_box_counts(points, epsilons))


def test_grid_passes_stay_within_the_grid_cap():
    # fig7's 12 scales share one pass of 0.7 MB of bit grids; at 3.75
    # decades the finest bit grid, near the budget, takes a pass of its own
    grid_bytes = [attractor._bit_grid_bytes(n) for n in range(1, 10)]
    assert grid_bytes == [8] * 8 + [16]  # up to 8 x 8 cells: one word
    cells = [attractor._cells_per_side(eps) for eps in BUDGET_CASE[1]]
    assert [attractor._bit_grid_bytes(n) for n in cells] == [8, 8, 24, 128, 800, 5000]
    for cap, passes in [(attractor.GRID_BYTES_MAX, [[0, 1, 2, 3, 4, 5]]),
                        (5_000, [[0, 1, 2, 3, 4], [5]]), (64, [[0, 1, 2]])]:
        with mock.patch.object(attractor, "GRID_BYTES_MAX", cap):
            on_grid = [k for k in range(6) if attractor._bit_grid_bytes(cells[k]) <= cap]
            assert attractor._grid_passes(cells, on_grid) == passes
    cells = [attractor._cells_per_side(eps) for eps in box_sizes(3.0, 12)]
    assert attractor._grid_passes(cells, list(range(12))) == [list(range(12))]
    assert sum(attractor._bit_grid_bytes(n) for n in cells) == 699_448
    cells = [attractor._cells_per_side(eps) for eps in box_sizes(3.75, 8)]
    passes = attractor._grid_passes(cells, list(range(8)))
    assert [k for group in passes for k in group] == list(range(8))
    assert len(passes) == 2
    for group in passes:
        assert sum(attractor._bit_grid_bytes(cells[k]) for k in group) <= attractor.GRID_BYTES_MAX


@needs_kernel
def test_compiled_counting_holds_one_bit_a_cell():
    # 4,096 cells a side: a 2 MB bit grid, where a byte grid takes 16 MB
    n_cells = 4096
    points = np.array([(0.0, 0.0), (1.0, 1.0), (0.3, 0.7), (0.7, 0.3)])
    tracemalloc.start()
    try:
        counts = occupied_box_counts(points, np.array([1.0 / n_cells]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.tolist() == [4]
    assert peak < n_cells**2 / 8 + 2**20


def test_a_sorted_scale_holds_one_code_array():
    # at 5,000 cells a side, and at each of fig7's 12 scales, the numpy
    # counter sorts one int64 code array in place, 8 bytes a point, plus a
    # byte a point comparing neighbours and one slice's temporaries, and
    # frees it before the next scale; a normalized copy of the cloud, a
    # list of code slices, their concatenation and np.unique's sorted copy
    # took 33 bytes a point
    points = slanted_segment(1_000_000)
    for epsilons in (np.array([1.0 / 5000]), box_sizes(3.0, 12)):
        with python_loops():
            tracemalloc.start()
            try:
                counts = occupied_box_counts(points, epsilons)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(counts, box_oracle.occupied_box_counts(points, epsilons))
        assert peak < 9 * len(points) + 2**20


def test_the_loaders_pinned_probe_counts_are_the_numpy_counts():
    # the loader holds the compiled counter to PROBE_BOXES, not to a run
    # of the numpy counter at import
    points = np.array(_kernel.PROBE_CLOUD)
    epsilons = np.array(_kernel.PROBE_EPSILONS)
    with python_loops():
        assert tuple(occupied_box_counts(points, epsilons).tolist()) == _kernel.PROBE_BOXES
    assert tuple(box_oracle.occupied_box_counts(points, epsilons).tolist()) == _kernel.PROBE_BOXES


@pytest.mark.parametrize("loops", [nullcontext, python_loops])
def test_an_empty_cloud_is_refused(loops):
    empty = np.empty((0, 2))
    with loops(), pytest.raises(ValueError, match="empty cloud"):
        occupied_box_counts(empty, box_sizes(3.0, 12))
    with loops(), pytest.raises(ValueError, match="empty cloud"), pytest.warns(UserWarning):
        box_dimension(empty)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fast_floor_matches_floor_divide(data):
    epsilons = box_sizes(data.draw(st.sampled_from(DECADES)), data.draw(st.integers(4, 8)))
    values = np.array(data.draw(st.lists(adversarial_coordinate(epsilons), min_size=1)))
    for eps in epsilons:
        n_cells = int(np.ceil(1.0 / eps))
        np.testing.assert_array_equal(attractor._floor_cells(values, eps, n_cells),
                                      np.floor_divide(values, eps).astype(np.int64))


# fig7's scales, finer ones still within the bit grid's budget, and past it
@pytest.mark.parametrize("eps_decades", [3.0, 3.6, 4.5])
def test_large_clouds_match_the_sorting_counter(eps_decades):
    # more points than one slice: the filled square and an attractor cloud
    p = two_bank(0.5, 0.3, 0.5)
    state = LeverageState.from_lambdas([50.0, 60.0], p)
    epsilons = box_sizes(eps_decades, 12)
    for points in (filled_square(300),
                   capture_cloud(state, p, transient=2000, n_points=100_000).points):
        want = box_oracle.occupied_box_counts(points, epsilons)
        for loops in (nullcontext, python_loops):
            with loops():
                np.testing.assert_array_equal(occupied_box_counts(points, epsilons), want)


def test_scales_whose_cell_codes_overflow_are_refused():
    # three distinct cells: the shift-or code (ix0 << 32) | ix1 gave the
    # first two the same code 2**32, and ix0 * n_cells + ix1 overflows
    eps = 0.5e-10
    points = np.array([[0.0, (2**32 + 0.5) * eps], [1.5 * eps, 0.0], [1.0, 1.0]])
    assert len({tuple(cell) for cell in np.floor_divide(points, eps)}) == 3
    with pytest.raises(ValueError, match="eps_decades at most 9.18"):
        occupied_box_counts(points, np.array([eps]))
    with pytest.raises(ValueError, match="cells per side"):
        box_dimension(points, eps_decades=10.0)
    box_sizes(9.18, 12)  # the finest scale allowed


class TestCaptureCloud:
    def test_single_point_cloud_at_fixed_point(self):
        p = two_bank(0.9, 0.8, 0.4)
        lam_star = common_fixed_point(p)
        state = LeverageState.from_lambdas([lam_star, lam_star], p)
        cloud = capture_cloud(state, p, transient=100, n_points=500)
        assert cloud.count == 500
        assert np.max(np.abs(cloud.points - lam_star)) < 1e-8

    def test_homogeneous_memories_collapse_to_diagonal(self):
        p = two_bank(0.5, 0.5, 0.3)
        state = LeverageState.from_lambdas([20.0, 90.0], p)
        cloud = capture_cloud(state, p, transient=5000, n_points=2000)
        assert np.max(np.abs(cloud.points[:, 0] - cloud.points[:, 1])) < 1e-6

    def test_escape_during_capture_raises(self):
        p = two_bank(0.1, 0.1, 0.5)
        state = LeverageState.from_lambdas([50.0, 60.0], p)
        with pytest.raises(OrbitViolationError):
            capture_cloud(state, p, transient=0, n_points=1000)

    def test_folded_cloud_shape(self):
        # the heterogeneous pair fills a thin folded set, not a curve and
        # not the whole plane
        p = two_bank(0.5, 0.3, 0.5)
        state = LeverageState.from_lambdas([50.0, 60.0], p)
        cloud = capture_cloud(state, p, transient=2000, n_points=200_000)
        counts = occupied_box_counts(cloud.points, np.array([1.0 / 64]))
        assert 150 < counts[0] < 0.5 * 64 * 64


class TestBoxDimension:
    def test_filled_square_dimension(self):
        fit = box_dimension(filled_square(), eps_decades=2.5, n_scales=10)
        assert fit.slope == pytest.approx(2.0, abs=0.05)

    def test_segment_dimension(self):
        fit = box_dimension(slanted_segment(), eps_decades=3.0, n_scales=12)
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_counts_nonincreasing_in_eps(self):
        for pts in (filled_square(400), slanted_segment(200_000)):
            with pytest.warns(UserWarning) if len(pts) < 100_000 else _nullcontext():
                fit = box_dimension(pts)
            # epsilons descend, so counts must not decrease along the array
            assert np.all(np.diff(fit.counts) >= 0)

    def test_affine_invariance(self):
        pts = slanted_segment(300_000)
        base = box_dimension(pts)
        scaled = pts * np.array([3.0, 0.01]) + np.array([5.0, -2.0])
        fit = box_dimension(scaled)
        assert abs(fit.slope - base.slope) < 0.02

    def test_subsample_stability(self, rng):
        p = two_bank(0.5, 0.3, 0.5)
        state = LeverageState.from_lambdas([50.0, 60.0], p)
        cloud = capture_cloud(state, p, transient=2000, n_points=400_000)
        full = box_dimension(cloud)
        half_idx = rng.choice(cloud.count, cloud.count // 2, replace=False)
        half = box_dimension(cloud.points[half_idx])
        assert abs(half.slope - full.slope) < 0.05

    def test_degenerate_cloud_rejected(self):
        n = 150_000
        flat = np.column_stack([np.linspace(0, 1, n), np.full(n, 0.5)])
        with pytest.raises(DegenerateCloudError):
            box_dimension(flat)
        # a NaN or infinite point leaves no finite extent to normalize by
        for bad in (np.nan, np.inf, -np.inf):
            cloud = filled_square(10)
            cloud[3, 1] = bad
            with pytest.raises(DegenerateCloudError):
                occupied_box_counts(cloud, np.array([0.1]))

    def test_small_cloud_warns(self):
        with pytest.warns(UserWarning, match="unreliable"):
            box_dimension(filled_square(100))

    def test_explicit_fit_range_override(self):
        pts = filled_square(600)
        fit = box_dimension(pts, fit_range=(1, 6))
        assert fit.fit_range == (1, 6)
        assert fit.slope == pytest.approx(2.0, abs=0.1)

    def test_heterogeneous_attractor_dimension_consistent_with_tangent_rates(self):
        # the measured slope should match the dimension implied by the
        # exponent pair (1 + top/|bottom|) reasonably closely
        from levdyn.lyap import lyapunov_spectrum

        p = two_bank(0.5, 0.3, 0.8)
        state = LeverageState.from_lambdas([50.0, 60.0], p)
        cloud = capture_cloud(state, p, transient=20_000, n_points=1_000_000)
        fit = box_dimension(cloud, eps_decades=3.2, n_scales=14)
        est = lyapunov_spectrum(state, p, transient=20_000, steps=100_000)
        implied = 1.0 + est.exponents[0] / abs(est.exponents[1])
        assert fit.slope == pytest.approx(implied, abs=0.15)
        # this attractor's dimension sits near 1.2
        assert 1.1 <= fit.slope <= 1.3


class _nullcontext:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False
