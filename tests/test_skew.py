from __future__ import annotations

import math

import numpy as np
import pytest

from levdyn.errors import DomainError, OrbitViolationError, TailBoundError
from levdyn.maps import fiber_map, leverage_map
from levdyn.params import ModelParams, common_fixed_point
from levdyn.skew import (
    ForcingHistory,
    constant_history,
    forced_orbit,
    forcing_response_classification,
    history_from_orbit,
    random_fixed_point,
    shift_history,
)



def closed_form_constant(level: float, p: ModelParams) -> float:
    return (1 + p.gamma - level) / (p.gamma * p.alpha * math.sqrt(p.sigma_eps_sq))


class TestHistories:
    def test_orbit_tail_is_consistent(self, std1):
        history, y0 = history_from_orbit(0.5, std1, depth=300, transient=500)
        assert history.depth == 300
        past = history.past.tolist()
        # T(past[k+1]) = past[k], bit for bit
        assert [leverage_map(x, 0.5, std1) for x in past[1:]] == past[:-1]
        assert y0 == leverage_map(float(history.past[0]), 0.5, std1)

    def test_constant_history_not_map_consistent(self, std1):
        history = constant_history(80.0, 50)
        past = history.past.tolist()
        assert max(abs(leverage_map(x, 0.5, std1) - y) for x, y in zip(past[1:], past)) > 1e-12

    def test_constant_history_at_fixed_point_is_consistent(self, std1):
        history = constant_history(common_fixed_point(std1), 50)
        past = history.past.tolist()
        assert max(abs(leverage_map(x, 0.5, std1) - y) for x, y in zip(past[1:], past)) <= 1e-9

    def test_escaping_forcing_raises(self, std1):
        with pytest.raises(OrbitViolationError):
            history_from_orbit(0.1, std1, depth=100, transient=1000)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            ForcingHistory(past=np.empty(0), source="x")


class TestRandomFixedPoint:
    def test_constant_history_closed_form(self, std1):
        for level in (20.0, 50.0, 80.0, 95.0):
            rfp = random_fixed_point(constant_history(level, 400), 0.5, std1, tol=1e-10)
            want = closed_form_constant(level, std1)
            assert rfp.value == pytest.approx(want, abs=1e-12 * want)
            # and it solves x = f_c(x)
            assert fiber_map(rfp.value, level, 0.5, std1) == pytest.approx(
                rfp.value, abs=1e-10
            )

    def test_defining_relation(self, std1, rng):
        for _ in range(20):
            omega1 = float(rng.uniform(0.05, 0.9))
            omega2 = float(rng.uniform(0.3, 0.9))
            history, y0 = history_from_orbit(omega2, std1, depth=1500, transient=1500)
            rfp = random_fixed_point(history, omega1, std1, tol=1e-12)
            shifted = shift_history(history, omega2, std1)
            rfp_next = random_fixed_point(shifted, omega1, std1, tol=1e-12)
            lhs = fiber_map(rfp.value, y0, omega1, std1)
            assert abs(lhs - rfp_next.value) < 1e-10

    def test_series_without_memory_weight_fails_relation(self, std1):
        # dropping the (1 - omega1) factor from the series breaks the
        # defining relation by a visible margin
        omega1, omega2 = 0.5, 0.3
        history, y0 = history_from_orbit(omega2, std1, depth=1500, transient=1500)

        def bare_series(h):
            total = 0.0
            weight = 1.0
            for y in h.past:
                total += weight * std1.var_kernel(float(y))
                weight *= omega1
            return 1.0 / math.sqrt(total)

        x = bare_series(history)
        x_next = bare_series(shift_history(history, omega2, std1))
        assert abs(fiber_map(x, y0, omega1, std1) - x_next) > 1e-3

    def test_pullback_oracle(self, std1, rng):
        # pushing any initial forward along the forcing reproduces the
        # fixed point of the advanced history
        omega1, omega2 = 0.6, 0.35
        p = std1
        x = 50.0
        for _ in range(2000):
            x = leverage_map(x, omega2, p)
        orbit = np.empty(1800)
        for t in range(len(orbit)):
            orbit[t] = x
            x = leverage_map(x, omega2, p)
        cut = 1200
        steps = 360  # contraction 0.6^360 collapses any initial spread
        history = ForcingHistory(past=orbit[:cut][::-1].copy(), source="orbit-tail")
        target_history = ForcingHistory(
            past=orbit[: cut + steps][::-1].copy(), source="orbit-tail"
        )
        target = random_fixed_point(target_history, omega1, p, tol=1e-12)
        for x0 in rng.uniform(1.0, 90.0, 5):
            fiber = forced_orbit(orbit[cut : cut + steps], omega1, p, float(x0))
            assert fiber[-1] == pytest.approx(target.value, abs=1e-8)

    def test_tail_bound_unachievable(self, std1):
        with pytest.raises(TailBoundError):
            random_fixed_point(constant_history(80.0, 4), 0.9, std1, tol=1e-10)

    def test_tail_bound_certified(self, std1):
        rfp = random_fixed_point(constant_history(80.0, 400), 0.7, std1, tol=1e-10)
        assert rfp.tail_bound <= 1e-10
        assert rfp.truncation_depth == 400

    def test_identity_memory_rejected(self, std1):
        with pytest.raises(DomainError):
            random_fixed_point(constant_history(80.0, 10), 1.0, std1)

    def test_continuity_in_the_past(self, std1, rng):
        # perturbing depth k moves the value by at most C * omega1^k
        omega1, omega2 = 0.7, 0.35
        history, _ = history_from_orbit(omega2, std1, depth=400, transient=1500)
        base = random_fixed_point(history, omega1, std1, tol=1e-8)
        for k in (0, 3, 10, 25, 60):
            past = history.past.copy()
            delta = 0.5
            past[k] += delta
            perturbed = ForcingHistory(past=past, source="perturbed")
            moved = random_fixed_point(perturbed, omega1, std1, tol=1e-8)
            kernel_shift = abs(
                std1.var_kernel(float(past[k])) - std1.var_kernel(float(past[k]) - delta)
            )
            bound = 0.5 * base.value**3 * (1 - omega1) * omega1**k * kernel_shift
            assert abs(moved.value - base.value) <= bound * (1 + 1e-9) + 1e-15


class TestForcedOrbit:
    def test_constant_forcing_at_fixed_point_converges_there(self, std1):
        lam_star = common_fixed_point(std1)
        forcing = np.full(300, lam_star)
        orbit = forced_orbit(forcing, 0.5, std1, x0=5.0)
        assert orbit[-1] == pytest.approx(lam_star, abs=1e-9)

    def test_fiber_synchronization(self, std1, rng):
        # any two initials collapse under the same forcing
        omega1, omega2 = 0.5, 0.3
        ys = np.empty(200)
        x = 50.0
        for _ in range(1000):
            x = leverage_map(x, omega2, std1)
        for t in range(len(ys)):
            ys[t] = x
            x = leverage_map(x, omega2, std1)
        a = forced_orbit(ys, omega1, std1, x0=1.0)
        b = forced_orbit(ys, omega1, std1, x0=90.0)
        assert abs(a[-1] - b[-1]) < 1e-8
        assert abs(a[-1] - b[-1]) < abs(a[0] - b[0])

    def test_average_contraction_rate(self, std1, rng):
        # pairs of fiber orbits separate no faster than ln(omega1) on
        # average; omega1 is kept >= 0.8 so 120 steps neither underflow
        # the pair distance nor leave a visible mean-value boundary term
        # (the exact telescoping identity covers the full omega1 range)
        for _ in range(100):
            omega1 = float(rng.uniform(0.8, 0.97))
            omega2 = float(rng.uniform(0.3, 0.9))
            n = 120
            ys = np.empty(n)
            x = float(rng.uniform(30.0, 70.0))
            for _ in range(800):
                x = leverage_map(x, omega2, std1)
            for t in range(n):
                ys[t] = x
                x = leverage_map(x, omega2, std1)
            a = forced_orbit(ys, omega1, std1, x0=40.0)
            b = forced_orbit(ys, omega1, std1, x0=95.0)
            rate = (math.log(abs(a[-1] - b[-1])) - math.log(abs(a[0] - b[0]))) / n
            assert rate <= math.log(omega1) + 0.05

    def test_random_fixed_point_attracts(self, std1, rng):
        omega1, omega2 = 0.5, 0.35
        tol = 1e-8
        history, _ = history_from_orbit(omega2, std1, depth=1200, transient=1500)
        # forward forcing continuation from the history's present
        y = float(history.past[0])
        k = math.ceil(
            (math.log(tol) - math.log(100.0) - 3 * math.log(101.0))
            / math.log(omega1)
        )
        forcing = np.empty(k)
        for t in range(k):
            y = leverage_map(y, omega2, std1)
            forcing[t] = y
        rfp = random_fixed_point(history, omega1, std1, tol=1e-12)
        pinned = forced_orbit(forcing, omega1, std1, x0=rfp.value)
        for x0 in rng.uniform(1.0, 100.0, 3):
            other = forced_orbit(forcing, omega1, std1, x0=float(x0))
            assert abs(other[-1] - pinned[-1]) < tol


class TestForcingResponse:
    def test_fixed_point_forcing(self, std1):
        resp = forcing_response_classification(0.5, 0.8, std1, transient=3000, steps=512)
        assert resp.forcing_period.period == 1
        assert resp.forced_period.period == 1
        assert resp.transfer_consistent

    def test_periodic_forcing_same_period(self, std1):
        resp = forcing_response_classification(0.5, 0.58, std1, transient=4000, steps=512)
        assert resp.forcing_period.period == 2
        assert resp.forced_period.period == 2
        assert resp.transfer_consistent

    def test_chaotic_forcing_gives_aperiodic_response(self, std1):
        resp = forcing_response_classification(0.5, 0.3, std1, transient=4000, steps=512)
        assert resp.forcing_period.period is None
        assert resp.forcing_class == "aperiodic"
        assert resp.forced_period.period is None
        assert resp.transfer_consistent

    def test_chaotic_response_covers_an_interval(self, std1):
        # transitivity surrogate: visited forced values leave no gap wider
        # than a fiftieth of their span
        omega1, omega2 = 0.5, 0.3
        n = 1_000_000
        x = 50.0
        for _ in range(2000):
            x = leverage_map(x, omega2, std1)
        xs = np.empty(n)
        z = 50.0
        for t in range(n):
            z = fiber_map(z, x, omega1, std1)
            x = leverage_map(x, omega2, std1)
            xs[t] = z
        xs.sort()
        span = xs[-1] - xs[0]
        max_gap = float(np.max(np.diff(xs)))
        assert max_gap < span / 50
