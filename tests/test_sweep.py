from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levdyn import lyap, sweep
from levdyn.errors import OrbitViolationError
from levdyn.params import ModelParams
from levdyn.skew import forcing_response_classification
from levdyn.sweep import (
    SWEEP_AXES,
    SweepRecord,
    SweepSpec,
    _eval_point,
    run_sweep,
    stability_map,
)

from conftest import SUPERSTABLE, python_loops, two_bank

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

    def test_a_record_holds_no_per_row_array_but_its_samples(self):
        # a fig5 point: what a pool worker pickles for the main process to hold
        spec = SweepSpec(axis="pi1", bounds=(0.0, 1.0), resolution=500,
                         fixed=two_bank(0.5, 0.3, 0.5), transient=1000, record=500,
                         rng_seed=1)
        rec = _eval_point(spec, 0.5)
        assert rec.samples.shape == (1500, 2)
        assert len(pickle.dumps(rec)) <= rec.samples.nbytes + 1024
        assert rec.survivors == (0, 1, 2)
        assert rec.branch.dtype == np.int64
        assert np.array_equal(rec.branch, np.repeat([0, 1, 2], 500))


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
        # five chunks of the nine cells: [0:1], [1:3], [3:5], [5:7], [7:9],
        # so chunk boundaries split the rows and every omega2 column
        with patch.object(sweep, "CHUNK_POINTS", 2):
            chunked = stability_map(omegas, omegas, workers=2, **kwargs)
        assert len(set(serial.classes.flat)) > 1
        assert np.array_equal(serial.classes, parallel.classes)
        assert np.array_equal(serial.classes, chunked.classes)


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
    """Grid points evaluated in contiguous pool chunks against the same
    points run one by one in process by ``_eval_point``: iterate each
    initial, then detect_period, lyapunov_top and classify on the first
    survivor."""

    @settings(max_examples=40, deadline=None)
    @given(spec=sweep_specs(), steps=st.integers(1, 300), data=st.data())
    @example(spec=ESCAPE_SPEC, steps=2000, data=None)
    def test_matches_scalar_reference(self, spec, steps, data):
        """Sweeps on two workers, in chunks of one to three points, on both
        loop paths.  ``block`` shrinks the exponent blocks of the chunked
        runs, so that escapes at block edges are compared too."""
        chunk = data.draw(st.sampled_from([1, 2, 3])) if data else 1
        block = data.draw(st.integers(1, 8)) if data else 1
        for loops in (nullcontext(), python_loops()):
            with loops, patch.object(sweep, "LYAP_STEPS", steps):
                expected = [record_key(_eval_point(spec, float(v))) for v in spec.grid()]
                with (
                    patch.object(sweep, "CHUNK_POINTS", chunk),
                    patch.object(lyap, "BLOCK_STEPS", block),
                ):
                    pooled = run_sweep(spec, workers=2)
                    in_process = run_sweep(spec)
            assert [record_key(r) for r in pooled] == expected
            assert [record_key(r) for r in in_process] == expected

    @settings(max_examples=30, deadline=None)
    @given(
        pi1=st.floats(0.0, 1.0),
        omega1s=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3),
        omega2s=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3, unique=True),
        transient=st.integers(0, 60),
        record=st.integers(3, 40),
        initials=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 300),
        data=st.data(),
    )
    def test_chunks_mixing_stability_columns_match_scalar_reference(
        self, pi1, omega1s, omega2s, transient, record, initials, seed, steps, data
    ):
        """Stability maps on two workers, in chunks of one to three cells,
        on both loop paths.  The cells mix omega2 columns in row-major
        order, as ``stability_map`` builds them."""
        chunk = data.draw(st.sampled_from([1, 2, 3]))
        block = data.draw(st.integers(1, 8))
        cells = [
            (SweepSpec(axis="omega1", bounds=(0.0, 1.0), resolution=2,
                       fixed=two_bank(0.5, w2, pi1), transient=transient, record=record,
                       initials_per_point=initials, rng_seed=seed), w1)
            for w1 in omega1s for w2 in omega2s
        ]
        map_args = (np.array(omega1s), np.array(omega2s), pi1, two_bank(0.5, 0.5, pi1),
                    transient, record, initials, seed)
        for loops in (nullcontext(), python_loops()):
            with loops, patch.object(sweep, "LYAP_STEPS", steps):
                expected = [_eval_point(*cell).classification for cell in cells]
                with (
                    patch.object(sweep, "CHUNK_POINTS", chunk),
                    patch.object(lyap, "BLOCK_STEPS", block),
                ):
                    mapped = stability_map(*map_args, workers=2)
            assert mapped.classes.ravel().tolist() == expected

    def test_escape_in_exponent_run_leaves_it_open(self):
        value = 0.15000000000000002
        params = ESCAPE_SPEC.params_at(value)
        first = sweep._survivors(ESCAPE_SPEC, value, params)[0][1]
        with pytest.raises(OrbitViolationError):
            lyap.lyapunov_top(first.initial, params, ESCAPE_SPEC.transient, sweep.LYAP_STEPS,
                              ESCAPE_SPEC.rng_seed)
        point = _eval_point(ESCAPE_SPEC, value)
        assert point.survival_fraction > 0
        assert point.lyapunov_top is None
        assert point.classification == "unresolved"
        for records in (run_sweep(ESCAPE_SPEC), run_sweep(ESCAPE_SPEC, workers=2)):
            rec = next(r for r in records if r.param_value == value)
            assert record_key(rec) == record_key(point)

    def test_vanished_tangent_matches_scalar_path(self):
        # pi1 = 1 with omega2 = 0 maps the tangent (0, 1) to the zero
        # vector; the pass restarts it from e_1
        spec = SweepSpec(
            axis="pi1", bounds=(0.5, 1.0), resolution=2,
            fixed=two_bank(0.7, 0.0, 0.5), transient=50, record=30, rng_seed=4,
        )
        values = [float(v) for v in spec.grid()]
        with (
            patch.object(sweep, "LYAP_STEPS", 200),
            # the start draw
            patch.object(lyap, "_start_vector", lambda seed, n: (0.0, 1.0)),
        ):
            expected = [_eval_point(spec, v) for v in values]
            params = spec.params_at(1.0)
            first = sweep._survivors(spec, 1.0, params)[0][1]
            direct = lyap.lyapunov_top(first.initial, params, spec.transient, 200, spec.rng_seed)
            pooled = run_sweep(spec, workers=2)
        assert expected[1].lyapunov_top is not None
        assert repr(expected[1].lyapunov_top) == repr(direct)
        assert [record_key(r) for r in pooled] == [record_key(r) for r in expected]

    def test_zero_derivative_lanes_match_lyapunov_1d(self):
        # every initial of a point starts at a zero derivative of its map:
        # at the first tangent step for omega = 0.43, the second for 0.58
        spec = SweepSpec(
            axis="omega", bounds=(0.43, 0.58), resolution=2,
            fixed=STD1, transient=0, record=30, rng_seed=4,
        )
        starts = {0.43: SUPERSTABLE[0.43][0], 0.58: SUPERSTABLE[0.58][1]}

        def point_initials(spec, value, params):
            return [[starts[value]]] * spec.initials_per_point

        values = [float(v) for v in spec.grid()]
        with (
            patch.object(sweep, "LYAP_STEPS", 200),
            patch.object(sweep, "_point_initials", point_initials),
        ):
            expected = [_eval_point(spec, v) for v in values]
            pooled = run_sweep(spec, workers=2)
        for value, record in zip(values, expected):
            direct = lyap.lyapunov_1d(value, spec.params_at(value), starts[value], 0, 200)
            assert direct.saturated
            assert repr(record.lyapunov_top) == repr(direct.top)
        assert [record_key(r) for r in pooled] == [record_key(r) for r in expected]

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


#: run in a fresh process: set the default start method, wrap the pool to
#: record the start method it runs on, and pickle that with the grids'
#: results; with a method other than forkserver, also hide fork, as on a
#: platform that has none, so that the pool takes the default
_START_METHOD_RUN = """
import concurrent.futures, multiprocessing, pickle, sys
from levdyn import sweep

method, path = sys.argv[1:]
multiprocessing.set_start_method(method)
if method != "forkserver":
    multiprocessing.get_all_start_methods = lambda: [method]
used = []


class Pool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        used.append(self._mp_context.get_start_method())


concurrent.futures.ProcessPoolExecutor = Pool
with open(path, "rb") as f:
    spec, map_args = pickle.load(f)
results = (sweep.run_sweep(spec, workers=2), sweep.stability_map(*map_args, workers=2).classes)
with open(path, "wb") as f:
    pickle.dump((used, results), f)
"""


class TestStartMethod:
    SPEC = omega_sweep(resolution=6, record=210, transient=800)
    MAP_ARGS = (np.array([0.5, 0.7, 0.9]), np.array([0.5, 0.7, 0.9]), 0.5, STD1, 1500, 300, 2, 3)

    def pooled(self, tmp_path, method: str) -> tuple[list, tuple]:
        path = tmp_path / "grids.pickle"
        path.write_bytes(pickle.dumps((self.SPEC, self.MAP_ARGS)))
        src = str(Path(sweep.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _START_METHOD_RUN, method, str(path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return pickle.loads(path.read_bytes())

    def assert_in_process_results(self, results: tuple) -> None:
        records, classes = results
        assert [record_key(r) for r in records] == [record_key(r) for r in run_sweep(self.SPEC)]
        in_process = stability_map(*self.MAP_ARGS).classes
        assert len(set(in_process.flat)) > 1
        assert np.array_equal(classes, in_process)

    @pytest.mark.skipif(not {"fork", "forkserver"} <= set(multiprocessing.get_all_start_methods()),
                        reason="the platform cannot fork, or has no forkserver")
    def test_grids_fork_whatever_the_default(self, tmp_path):
        used, results = self.pooled(tmp_path, "forkserver")
        assert used == ["fork", "fork"]
        self.assert_in_process_results(results)

    @pytest.mark.skipif("spawn" not in multiprocessing.get_all_start_methods(),
                        reason="the platform cannot spawn")
    def test_grids_spawned_where_fork_is_missing(self, tmp_path):
        used, results = self.pooled(tmp_path, "spawn")
        assert used == ["spawn", "spawn"]
        self.assert_in_process_results(results)
