from __future__ import annotations

import math
from contextlib import nullcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levdyn import lyap, sweep
from levdyn.params import ModelParams
from levdyn.skew import forcing_response_classification
from levdyn.sweep import (
    SWEEP_AXES,
    SweepRecord,
    SweepSpec,
    _eval_chunk,
    _eval_point,
    run_sweep,
    stability_map,
)

from conftest import python_loops, two_bank

STD1 = ModelParams(omegas=(0.5,), pis=(1.0,))


def omega_sweep(lo=0.2, hi=0.95, resolution=61, record=400, transient=1500):
    return SweepSpec(
        axis="omega",
        bounds=(lo, hi),
        resolution=resolution,
        fixed=STD1,
        transient=transient,
        record=record,
        initials_per_point=3,
        rng_seed=77,
    )


class TestSpecValidation:
    def test_bad_axis(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="zeta", bounds=(0, 1), resolution=10, fixed=STD1)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="omega", bounds=(0.7, 0.2), resolution=10, fixed=STD1)
        with pytest.raises(ValueError):
            SweepSpec(axis="omega", bounds=(0.0, 1.5), resolution=10, fixed=STD1)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="omega", bounds=(0, 1), resolution=1, fixed=STD1)

    def test_bank_count_must_match_axis(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="pi1", bounds=(0, 1), resolution=10, fixed=STD1)
        with pytest.raises(ValueError):
            SweepSpec(
                axis="omega", bounds=(0, 1), resolution=10,
                fixed=two_bank(0.5, 0.3, 0.5),
            )


@pytest.fixture(scope="module")
def records():
    return run_sweep(omega_sweep())


class TestMemorySweep:
    def test_high_memory_is_fixed_point(self, records):
        for rec in records:
            if rec.param_value >= 0.7:
                assert rec.classification == "fixed-point"

    def test_period_doubling_cascade_present(self, records):
        periods = {
            rec.period.period
            for rec in records
            if rec.period is not None and rec.period.period is not None
        }
        assert {1, 2, 4} <= periods

    def test_low_memory_chaotic_band(self, records):
        chaotic = [
            rec for rec in records
            if rec.param_value < 0.45 and rec.classification == "aperiodic"
        ]
        assert len(chaotic) >= 5
        for rec in chaotic:
            assert rec.lyapunov_top > 1e-3

    def test_below_crisis_everything_escapes(self, records):
        for rec in records:
            if rec.param_value < 0.26:
                assert rec.classification == "infeasible"
                assert rec.survival_fraction == 0.0
                assert rec.samples.shape[0] == 0

    def test_samples_all_from_survivors(self, records):
        for rec in records:
            if rec.samples.shape[0]:
                assert np.all(rec.samples >= 1.0)
                assert rec.survival_fraction > 0

    def test_reproducibility(self, records):
        again = run_sweep(omega_sweep())
        for a, b in zip(records, again):
            assert a.param_value == b.param_value
            assert a.classification == b.classification
            assert np.array_equal(a.samples, b.samples)

    def test_parallel_matches_serial(self):
        spec = omega_sweep(resolution=13, record=210, transient=800)
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        # more chunks than workers, of at most CHUNK_POINTS points each
        with patch.object(sweep, "CHUNK_POINTS", 4):
            chunked = run_sweep(spec, workers=2)
        assert len(serial) == len(parallel) == len(chunked) == 13
        for a, b in [*zip(serial, parallel), *zip(serial, chunked)]:
            assert a.param_value == b.param_value
            assert a.classification == b.classification
            assert np.array_equal(a.samples, b.samples)
            assert np.array_equal(a.branch, b.branch)
            assert repr(a.lyapunov_top) == repr(b.lyapunov_top)
            assert (a.period and a.period.label) == (b.period and b.period.label)
            assert a.survival_fraction == b.survival_fraction

    def test_refinement_preserves_shared_points(self):
        coarse_spec = omega_sweep(lo=0.3, hi=0.9, resolution=7, record=210)
        fine_spec = omega_sweep(lo=0.3, hi=0.9, resolution=13, record=210)
        coarse = run_sweep(coarse_spec)
        fine = run_sweep(fine_spec)
        for i, rec in enumerate(coarse):
            twin = fine[2 * i]
            assert twin.param_value == rec.param_value
            assert twin.classification == rec.classification


class TestWeightSweep:
    def test_regime_change_matches_skew_endpoints(self):
        spec = SweepSpec(
            axis="pi1",
            bounds=(0.0, 1.0),
            resolution=5,
            fixed=two_bank(0.5, 0.3, 0.5),
            transient=3000,
            record=400,
            initials_per_point=3,
            rng_seed=5,
        )
        records = run_sweep(spec)
        # pi1 = 0: bank 2 (memory 0.3) drives; chaotic
        left = forcing_response_classification(0.5, 0.3, STD1, transient=4000)
        assert records[0].classification == left.forcing_class == "aperiodic"
        # pi1 = 1: bank 1 (memory 0.5) drives; period 4
        right = forcing_response_classification(0.3, 0.5, STD1, transient=4000)
        assert right.forcing_period.period == 4
        assert records[-1].classification == f"period-{right.forcing_period.period}"
        assert records[0].classification != records[-1].classification


class TestMemory1Sweep:
    def test_critical_memory_splits_regimes(self):
        spec = SweepSpec(
            axis="omega1",
            bounds=(0.3, 1.0),
            resolution=15,
            fixed=two_bank(0.5, 0.4, 0.5),
            transient=2500,
            record=400,
            initials_per_point=3,
            rng_seed=11,
        )
        records = run_sweep(spec)
        classes = [r.classification for r in records]
        assert classes[-1] == "fixed-point"
        assert any(c == "aperiodic" for c in classes)
        first_fp = min(i for i, c in enumerate(classes) if c == "fixed-point")
        assert all(c == "fixed-point" for c in classes[first_fp:])


class TestStabilityMap:
    def test_full_memory_corner_and_diagonal(self):
        omegas = np.array([0.4, 0.58, 0.7, 1.0])
        result = stability_map(
            omegas, omegas, pi1=0.5, params=STD1,
            transient=2500, record=400, initials_per_point=2, rng_seed=3,
        )
        assert result.classes[-1, -1] == "fixed-point"
        # equal memories reduce to the single-bank system
        single = {}
        for i, w in enumerate(omegas):
            spec = SweepSpec(
                axis="omega", bounds=(0.2, 0.95), resolution=2,
                fixed=STD1, transient=2500, record=400,
                initials_per_point=2, rng_seed=3,
            )
            single[w] = _eval_point(spec, float(w)).classification
        for i, w in enumerate(omegas):
            assert result.classes[i, i] == single[w]

    def test_dominant_bank_rows_constant(self):
        omega1s = np.linspace(0.3, 0.9, 10)
        omega2s = np.linspace(0.3, 0.9, 5)
        result = stability_map(
            omega1s, omega2s, pi1=0.999, params=STD1,
            transient=2500, record=400, initials_per_point=2, rng_seed=3,
        )
        constant_rows = sum(
            1 for i in range(len(omega1s)) if len(set(result.classes[i])) == 1
        )
        assert constant_rows / len(omega1s) >= 0.9

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            stability_map(np.array([0.5]), np.array([0.4, 0.6]), 0.5, STD1)

    def test_parallel_matches_serial(self):
        omegas = np.array([0.5, 0.7, 0.9])
        kwargs = dict(
            pi1=0.5, params=STD1, transient=1500, record=300,
            initials_per_point=2, rng_seed=3,
        )
        serial = stability_map(omegas, omegas, **kwargs)
        parallel = stability_map(omegas, omegas, workers=2, **kwargs)
        assert np.array_equal(serial.classes, parallel.classes)


def record_key(rec: SweepRecord) -> tuple:
    """Every field of a record, in a form that compares bit for bit."""
    return (
        repr(rec.param_value), rec.samples.shape, rec.samples.dtype, rec.samples.tobytes(),
        rec.branch.dtype, rec.branch.tobytes(), repr(rec.lyapunov_top),
        rec.period and (rec.period.period, rec.period.window, rec.period.tol),
        repr(rec.survival_fraction), rec.classification,
    )


@st.composite
def sweep_specs(draw) -> SweepSpec:
    axis = draw(st.sampled_from(SWEEP_AXES))
    unit = st.floats(0.0, 1.0)
    pi1 = draw(unit)
    fixed = ModelParams(
        gamma=draw(st.sampled_from([100.0, 40.0])),
        omegas=(draw(unit),) if axis == "omega" else (draw(unit), draw(unit)),
        pis=(1.0,) if axis == "omega" else (pi1, 1.0 - pi1),
    )
    lo = draw(st.floats(0.0, 0.9))
    return SweepSpec(
        axis=axis,
        bounds=(lo, draw(st.floats(lo + 0.05, 1.0))),
        resolution=draw(st.integers(2, 6)),
        fixed=fixed,
        transient=draw(st.integers(0, 60)),
        record=draw(st.integers(3, 40)),
        initials_per_point=draw(st.integers(1, 3)),
        rng_seed=draw(st.integers(0, 2**32 - 1)),
    )


# the escape case that once aborted a sweep: at omega2 = 0.15 the orbit
# survives its 3 recorded steps, then leaves the domain in the exponent run
ESCAPE_SPEC = SweepSpec(
    axis="omega2", bounds=(0.0, 1.0), resolution=21,
    fixed=two_bank(0.05, 0.5, 0.4), transient=0, record=3, rng_seed=0,
)


class TestBatchedEvaluator:
    """The batched grid evaluator against the scalar reference path,
    ``_eval_point``: iterate each initial, then detect_period,
    lyapunov_top or lyapunov_1d, and classify on the first survivor.
    The batched tangent pass stands in for both exponents; a lane whose
    tangent vanishes falls back to the scalar exponent."""

    @settings(max_examples=40, deadline=None)
    @given(spec=sweep_specs(), steps=st.integers(1, 300), data=st.data())
    @example(spec=ESCAPE_SPEC, steps=2000, data=None)
    def test_matches_scalar_reference(self, spec, steps, data):
        """``block`` shrinks the exponent blocks, so that the lockstep
        rounds and escapes at block edges are compared too."""
        values = [float(v) for v in spec.grid()]
        cut = data.draw(st.integers(1, len(values) - 1)) if data else len(values) // 2
        block = data.draw(st.integers(1, 8)) if data else 1
        loops = python_loops() if data and data.draw(st.booleans()) else nullcontext()
        with loops, patch.object(sweep, "LYAP_STEPS", steps):
            expected = [record_key(_eval_point(spec, v)) for v in values]
            whole = _eval_chunk(values, spec)
            split = _eval_chunk(values[:cut], spec) + _eval_chunk(values[cut:], spec)
            with patch.object(lyap, "BLOCK_STEPS", block):
                blocked = _eval_chunk(values, spec)
        assert [record_key(r) for r in whole] == expected
        assert [record_key(r) for r in split] == expected
        assert [record_key(r) for r in blocked] == expected

    def test_escape_in_exponent_run_leaves_it_open(self):
        for records in (run_sweep(ESCAPE_SPEC), _eval_chunk([0.1, 0.15000000000000002],
                                                             ESCAPE_SPEC)):
            rec = next(r for r in records if r.param_value == 0.15000000000000002)
            assert rec.survival_fraction > 0
            assert rec.lyapunov_top is None
            assert rec.classification == "unresolved"

    @pytest.mark.parametrize(("axis", "fixed", "start", "fallbacks"), [
        # pi1 = 1 with omega2 = 0 maps the tangent (0, 1) to the zero
        # vector; the scalar path then redraws from its generator
        pytest.param("pi1", two_bank(0.7, 0.0, 0.5), [0.0, 1.0], 1, id="pi1"),
        # a zero single-bank tangent vanishes at once on every lane; the
        # scalar path is lyapunov_1d
        pytest.param("omega", STD1, [0.0], 2, id="omega"),
    ])
    def test_vanished_tangent_falls_back_to_scalar(self, axis, fixed, start, fallbacks):
        spec = SweepSpec(
            axis=axis, bounds=(0.5, 1.0), resolution=2,
            fixed=fixed, transient=50, record=30, rng_seed=4,
        )
        values = [float(v) for v in spec.grid()]
        with (
            patch.object(sweep, "LYAP_STEPS", 200),
            patch.object(sweep, "_tangent_start", return_value=np.array(start)),
            patch.object(sweep, "_top_exponent", wraps=sweep._top_exponent) as scalar,
        ):
            batched = _eval_chunk(values, spec)
            assert scalar.call_count == fallbacks
            expected = [_eval_point(spec, v) for v in values]
        assert batched[1].lyapunov_top is not None
        assert [record_key(r) for r in batched] == [record_key(r) for r in expected]

    def test_stability_cells_match_omega1_points(self):
        omega1s = np.array([0.1, 0.45, 0.8])
        omega2s = np.array([0.2, 0.6])
        kwargs = dict(transient=300, record=60, initials_per_point=2, rng_seed=8)
        result = stability_map(omega1s, omega2s, pi1=0.4, params=STD1, workers=2, **kwargs)
        for i, w1 in enumerate(omega1s):
            for j, w2 in enumerate(omega2s):
                spec = SweepSpec(axis="omega1", bounds=(0.0, 1.0), resolution=2,
                                 fixed=two_bank(w1, w2, 0.4), **kwargs)
                assert result.classes[i, j] == _eval_point(spec, float(w1)).classification

    def test_stability_map_rejects_short_record(self):
        with pytest.raises(ValueError, match="record >= 3"):
            stability_map(np.array([0.5, 0.6]), np.array([0.5, 0.6]), 0.5, STD1, record=2)

    def test_lane_logs_are_math_log(self):
        # np.log rounds these inputs differently from math.log on some
        # builds; the batched exponent sums math.log as the scalar path does
        x = np.array([2.154630827426079, 1.0275974975708784, 2.1278710383618327,
                      2.8789027629991506, *np.random.default_rng(0).uniform(0.05, 20.0, 500)])
        assert sweep._logs(x).tolist() == [math.log(v) for v in x.tolist()]
