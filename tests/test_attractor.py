from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levdyn import attractor
from levdyn.attractor import (
    box_dimension,
    box_sizes,
    capture_cloud,
    occupied_box_counts,
)
from levdyn.errors import DegenerateCloudError, OrbitViolationError
from levdyn.params import LeverageState, common_fixed_point

import box_oracle
from conftest import two_bank

#: on both sides of the occupancy-grid cap (4,096 cells per side, about
#: 3.31 decades) and up to the int64 code limit (about 9.18 decades)
DECADES = [0.5, 2.0, 3.0, 3.3, 3.35, 5.0, 9.0, 9.18]


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
    with mock.patch.object(attractor, "SLICE_ROWS", slice_rows):
        got = occupied_box_counts(points, epsilons)
    np.testing.assert_array_equal(got, box_oracle.occupied_box_counts(points, epsilons))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fast_floor_matches_floor_divide(data):
    epsilons = box_sizes(data.draw(st.sampled_from(DECADES)), data.draw(st.integers(4, 8)))
    values = np.array(data.draw(st.lists(adversarial_coordinate(epsilons), min_size=1)))
    for eps in epsilons:
        n_cells = int(np.ceil(1.0 / eps))
        np.testing.assert_array_equal(attractor._floor_cells(values, eps, n_cells),
                                      np.floor_divide(values, eps).astype(np.int64))


@pytest.mark.parametrize("eps_decades", [3.0, 4.5])  # below and past the grid cap
def test_large_clouds_match_the_sorting_counter(eps_decades):
    # more points than one slice: the filled square and an attractor cloud
    p = two_bank(0.5, 0.3, 0.5)
    state = LeverageState.from_lambdas([50.0, 60.0], p)
    epsilons = box_sizes(eps_decades, 12)
    for points in (filled_square(300),
                   capture_cloud(state, p, transient=2000, n_points=100_000).points):
        np.testing.assert_array_equal(occupied_box_counts(points, epsilons),
                                      box_oracle.occupied_box_counts(points, epsilons))


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
