from __future__ import annotations

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levdyn.errors import DomainError, InfeasibleStateError
from levdyn.maps import (
    advance,
    coupled_jacobian,
    fiber_map,
    fiber_map_deriv,
    leverage_map,
    leverage_map_deriv,
    step_jacobian,
)
from levdyn.orbits import iterate
from levdyn.params import LeverageState, ModelParams, common_fixed_point

from conftest import two_bank


def decimal_map(x: float, omega: float, p: ModelParams, prec: int = 60) -> float:
    """High-precision oracle for the single-bank update."""
    getcontext().prec = prec
    xd = Decimal(x)
    om = Decimal(omega)
    k = Decimal(p.alpha) ** 2 * Decimal(p.gamma) ** 2 * Decimal(p.sigma_eps_sq)
    d = Decimal(1) + Decimal(p.gamma) - xd
    g = om / (xd * xd) + (Decimal(1) - om) * k / (d * d)
    return float(Decimal(1) / g.sqrt())


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    assert flo * f(hi) < 0, "bracket must straddle a sign change"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSingleBankMap:
    def test_identity_at_full_memory(self, std1, rng):
        xs = rng.uniform(1e-6, std1.lambda_max - 1e-6, 1000)
        for x in xs:
            y = leverage_map(float(x), 1.0, std1)
            assert abs(y - x) <= 4 * math.ulp(x)

    def test_memoryless_fixed_point_matches_closed_form(self, std1):
        lam_star = common_fixed_point(std1)
        c = std1.gamma * std1.alpha * math.sqrt(std1.sigma_eps_sq)
        assert lam_star == pytest.approx((1 + std1.gamma) / (1 + c), rel=1e-15)
        assert leverage_map(lam_star, 0.0, std1) == pytest.approx(lam_star, abs=1e-10)
        # independent root-find oracle on x - T(x)
        root = bisect(lambda x: leverage_map(x, 0.0, std1) - x, 1.5, 100.0)
        assert root == pytest.approx(lam_star, abs=1e-9)

    def test_fixed_point_shared_across_memories(self, std1):
        lam_star = common_fixed_point(std1)
        for omega in (0.0, 0.2, 0.5, 0.9, 1.0):
            assert leverage_map(lam_star, omega, std1) == pytest.approx(
                lam_star, abs=1e-10
            )

    def test_high_precision_oracle(self, std1, rng):
        for x in [50.0, *rng.uniform(2.0, 99.0, 25)]:
            for omega in (0.1, 0.5, 0.93):
                got = leverage_map(float(x), omega, std1)
                want = decimal_map(float(x), omega, std1)
                assert got == pytest.approx(want, rel=1e-14)

    def test_domain_errors(self, std1):
        for x in (0.0, -3.0, std1.lambda_max, std1.lambda_max + 5):
            with pytest.raises(DomainError):
                leverage_map(x, 0.5, std1)
            with pytest.raises(DomainError):
                leverage_map_deriv(x, 0.5, std1)

    def test_unimodal_single_critical_point(self, std1):
        xs = np.linspace(1e-3, std1.lambda_max - 1e-3, 100_000)
        for omega in (0.1, 0.3, 0.5, 0.7, 0.9):
            # leverage_map_deriv on the whole grid: one stack of 1 x 1 Jacobians
            new = [leverage_map(x, omega, std1) for x in xs.tolist()]
            derivs = step_jacobian(xs[:, None], np.array(new)[:, None], std1.with_single_omega(omega))
            signs = derivs[:, 0, 0] > 0
            assert int(np.count_nonzero(signs[1:] != signs[:-1])) == 1

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(min_value=1e-3, max_value=100.999))
    def test_identity_property(self, x):
        p = ModelParams()
        assert leverage_map(x, 1.0, p) == pytest.approx(x, rel=1e-14)


class TestDerivative:
    def test_identity_derivative(self, std1, rng):
        for x in rng.uniform(1.0, 100.0, 50):
            assert leverage_map_deriv(float(x), 1.0, std1) == pytest.approx(
                1.0, rel=1e-13
            )

    def test_finite_difference_agreement(self, std1, rng):
        h = 1e-6
        xs = rng.uniform(1.0, 100.0, 1000)
        omegas = rng.uniform(0.0, 1.0, 1000)
        for x, omega in zip(xs, omegas):
            x, omega = float(x), float(omega)
            fd = (leverage_map(x + h, omega, std1) - leverage_map(x - h, omega, std1)) / (
                2 * h
            )
            assert leverage_map_deriv(x, omega, std1) == pytest.approx(
                fd, rel=1e-5, abs=1e-8
            )

    def test_zero_slope_at_critical_point(self, std1):
        x_c = bisect(lambda x: leverage_map_deriv(x, 0.5, std1), 1.0, 100.0)
        assert abs(leverage_map_deriv(x_c, 0.5, std1)) < 1e-9


class TestCoupledStep:
    def test_reduces_to_single_map_bitwise(self, std1, rng):
        for x in rng.uniform(1.0, 100.0, 1000):
            assert advance([float(x)], std1)[0] == leverage_map(float(x), 0.5, std1)

    def test_common_fixed_point_all_configs(self, rng):
        # acceptance-grade residual on 100 random configurations
        for _ in range(100):
            n = int(rng.integers(1, 6))
            omegas = tuple(rng.uniform(0, 1, n))
            raw = rng.uniform(0.05, 1.0, n)
            pis = tuple(raw / raw.sum())
            p = ModelParams(omegas=omegas, pis=pis)
            lam_star = common_fixed_point(p)
            new = advance([lam_star] * n, p)
            assert max(abs(v - lam_star) for v in new) < 1e-10

    def test_state_wrapper_recomputes_flags(self):
        p = two_bank(0.5, 0.3, 0.5)
        nxt = LeverageState.from_lambdas(advance([50.0, 60.0], p), p)
        assert nxt.feasible
        assert nxt.mean_field == pytest.approx(
            0.5 * nxt.lambdas[0] + 0.5 * nxt.lambdas[1]
        )

    def test_infeasible_state_rejected_with_constraint(self):
        p = two_bank(0.5, 0.3, 0.5)
        below_floor = LeverageState.from_lambdas([0.5, 60.0], p)
        assert not below_floor.feasible
        with pytest.raises(InfeasibleStateError) as info:
            below_floor.require_feasible()
        assert info.value.constraint == "leverage_floor"

    def test_homogeneous_contraction(self, rng):
        # equal memories shrink the relative gap in a single step
        for _ in range(50):
            omega = float(rng.uniform(0.05, 0.95))
            pi1 = float(rng.uniform(0, 1))
            p = two_bank(omega, omega, pi1)
            l1, l2 = rng.uniform(5.0, 95.0, 2)
            if abs(l1 - l2) < 1e-6:
                continue
            n1, n2 = advance([float(l1), float(l2)], p)
            before = abs(l1 - l2) / (l1 + l2)
            after = abs(n1 - n2) / (n1 + n2)
            assert after < before


class TestJacobian:
    def test_single_bank_matches_scalar_derivative(self, std1, rng):
        for x in rng.uniform(1.0, 100.0, 200):
            jac = coupled_jacobian([float(x)], std1)
            assert jac.shape == (1, 1)
            assert jac[0, 0] == leverage_map_deriv(float(x), 0.5, std1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_finite_difference_agreement(self, n, rng):
        h = 1e-6
        for _ in range(1000 // (2 * n)):
            omegas = tuple(rng.uniform(0, 1, n))
            raw = rng.uniform(0.05, 1.0, n)
            pis = tuple(raw / raw.sum())
            p = ModelParams(omegas=omegas, pis=pis)
            lams = [float(v) for v in rng.uniform(1.0, 95.0, n)]
            if sum(pi * lam for pi, lam in zip(pis, lams)) > p.lambda_max - 1.0:
                continue
            jac = coupled_jacobian(lams, p)
            for j in range(n):
                up = list(lams)
                dn = list(lams)
                up[j] += h
                dn[j] -= h
                fd = (np.array(advance(up, p)) - np.array(advance(dn, p))) / (2 * h)
                for i in range(n):
                    assert jac[i, j] == pytest.approx(fd[i], rel=1e-5, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_matches_per_state_calls(self, shape, seed):
        """An (a, b, N) stack of states, all with the memories and weights
        of one ModelParams, gives each state's own Jacobian bit for bit."""
        g = np.random.default_rng(seed)
        n = shape[-1]
        raw = g.uniform(0.05, 1.0, n)
        p = ModelParams(omegas=g.uniform(0.0, 1.0, n), pis=raw / math.fsum(raw))
        lams = g.uniform(1.0, 100.0, shape)
        new = g.uniform(1.0, 100.0, shape)
        stack = step_jacobian(lams, new, p)
        assert stack.shape == (*shape, n)
        for i, j in np.ndindex(shape[:2]):
            one = step_jacobian(lams[i, j], new[i, j], p)
            assert stack[i, j].tobytes() == one.tobytes()

    def test_zero_weight_bank_decouples(self):
        # pi_1 = 0: own column of the forcing bank is exactly zero
        p = two_bank(0.45, 0.3, 0.0)
        lams = [40.0, 70.0]
        new = advance(lams, p)
        jac = coupled_jacobian(lams, p)
        expected_own = 0.45 * (new[0] / lams[0]) ** 3
        assert jac[0, 0] == pytest.approx(expected_own, rel=1e-14)
        assert jac[1, 0] == 0.0


class TestFiberMap:
    def test_memoryless_fiber_is_constant(self, std1):
        y = 80.0
        want = (1 + std1.gamma - y) / (
            std1.gamma * std1.alpha * math.sqrt(std1.sigma_eps_sq)
        )
        for x in (1.0, 5.0, 50.0, 1e6):
            assert fiber_map(x, y, 0.0, std1) == pytest.approx(want, rel=1e-12)
        assert fiber_map(1.0, y, 0.0, std1) == fiber_map(1e6, y, 0.0, std1)

    def test_matches_zero_weight_coupled_coordinate(self, rng):
        p = two_bank(0.4, 0.3, 0.0)
        for _ in range(100):
            l1, l2 = rng.uniform(1.0, 95.0, 2)
            assert advance([float(l1), float(l2)], p)[0] == fiber_map(
                float(l1), float(l2), 0.4, p
            )

    def test_horizontal_asymptote(self, std1):
        # f_y(x) -> ((1 - omega1) var_kernel(y))^(-1/2) as x grows
        got = fiber_map(1e9, 80.0, 0.5, std1)
        want = 1.0 / math.sqrt((1.0 - 0.5) * std1.var_kernel(80.0))
        assert got == pytest.approx(want, rel=1e-6)

    def test_monotone_increasing_concave(self, rng, std1):
        xs = np.linspace(1.0, std1.lambda_max, 400)
        for y in rng.uniform(5.0, 99.0, 10):
            vals = np.array([fiber_map(float(x), float(y), 0.6, std1) for x in xs])
            first = np.diff(vals)
            assert np.all(first > 0)
            assert np.all(np.diff(first) < 0)

    def test_derivative_form(self, std1, rng):
        h = 1e-6
        for _ in range(200):
            x = float(rng.uniform(1.0, 95.0))
            y = float(rng.uniform(1.0, 95.0))
            fd = (fiber_map(x + h, y, 0.5, std1) - fiber_map(x - h, y, 0.5, std1)) / (
                2 * h
            )
            assert fiber_map_deriv(x, y, 0.5, std1) == pytest.approx(
                fd, rel=1e-5, abs=1e-10
            )

    def test_domain_errors(self, std1):
        with pytest.raises(DomainError):
            fiber_map(0.0, 50.0, 0.5, std1)
        with pytest.raises(DomainError):
            fiber_map(10.0, std1.lambda_max, 0.5, std1)


def _closed_advance(lams, p: ModelParams) -> list[float]:
    """lambda_i' = (omega_i/lambda_i^2 + (1-omega_i) K/(1+gamma-m)^2)^(-1/2)."""
    k = p.alpha * p.alpha * p.gamma * p.gamma * p.sigma_eps_sq
    m = 0.0
    for pi, lam in zip(p.pis, lams):
        m += pi * lam
    if not m < 1.0 + p.gamma or not all(lam > 0.0 for lam in lams):
        raise DomainError("outside the domain")
    d = 1.0 + p.gamma - m
    return [1.0 / math.sqrt(om / (lam * lam) + (1.0 - om) * (k / (d * d)))
            for lam, om in zip(lams, p.omegas)]


def _closed_jacobian(lams, p: ModelParams) -> np.ndarray:
    """T_i^3 [omega_i delta_ij / lambda_i^3 - (1-omega_i) K pi_j/(1+gamma-m)^3]."""
    k = p.alpha * p.alpha * p.gamma * p.gamma * p.sigma_eps_sq
    new = _closed_advance(lams, p)
    m = 0.0
    for pi, lam in zip(p.pis, lams):
        m += pi * lam
    d = 1.0 + p.gamma - m
    rows = []
    for i, (lam, om, t) in enumerate(zip(lams, p.omegas, new)):
        c = (1.0 - om) * (k / (d * d * d))
        row = [-(c * pi) for pi in p.pis]
        row[i] = om / (lam * lam * lam) - c * p.pis[i]
        rows.append([t * t * t * e for e in row])
    return np.array(rows)


def _outcome(f, *args):
    """The value's repr (bytes for arrays), or the type of the error raised."""
    try:
        value = f(*args)
    except Exception as exc:
        return type(exc)
    return value.tobytes() if isinstance(value, np.ndarray) else repr(value)


def _leverages(top: float):
    """Leverages inside (0, 1 + gamma), at its edges and past them."""
    return st.one_of(
        st.floats(1e-3, top, exclude_max=True),
        st.sampled_from([-1.0, -0.0, 0.0, 1.0, top]),
        st.floats(-1.0, 0.0),
        st.floats(top, top + 5.0),
    )


class TestClosedForms:
    """The single bank and the coupled step are one update written out in
    the module docstring's closed forms; results agree to the bit and
    DomainError is raised on exactly the same inputs."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_bank(self, data):
        p = ModelParams(gamma=data.draw(st.floats(1.0, 200.0)))
        x = data.draw(_leverages(p.lambda_max))
        omega = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        k = p.alpha * p.alpha * p.gamma * p.gamma * p.sigma_eps_sq

        def closed_map(x, omega, p):
            if not 0.0 < x < 1.0 + p.gamma:
                raise DomainError("outside the domain")
            d = 1.0 + p.gamma - x
            return 1.0 / math.sqrt(omega / (x * x) + (1.0 - omega) * (k / (d * d)))

        def closed_deriv(x, omega, p):
            t = closed_map(x, omega, p)
            d = 1.0 + p.gamma - x
            return t * t * t * (omega / (x * x * x) - (1.0 - omega) * (k / (d * d * d)))

        assert _outcome(leverage_map, x, omega, p) == _outcome(closed_map, x, omega, p)
        assert _outcome(leverage_map_deriv, x, omega, p) == _outcome(closed_deriv, x, omega, p)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_coupled_step(self, data):
        n = data.draw(st.integers(1, 4))
        weights = [data.draw(st.integers(0, 3)) for _ in range(n)]
        weights[0] += sum(weights) == 0
        p = ModelParams(
            gamma=data.draw(st.floats(1.0, 200.0)),
            omegas=[data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
                    for _ in range(n)],
            pis=[w / sum(weights) for w in weights],
        )
        lams = [data.draw(_leverages(p.lambda_max)) for _ in range(n)]
        assert _outcome(advance, lams, p) == _outcome(_closed_advance, lams, p)
        assert _outcome(coupled_jacobian, lams, p) == _outcome(_closed_jacobian, lams, p)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_orbit_loop_repeats_advance(self, data):
        # orbits._run writes the update out again for speed; its states
        # are those of repeated advance, bit for bit
        n = data.draw(st.integers(1, 4))
        p = ModelParams(
            gamma=data.draw(st.floats(1.0, 200.0)),
            omegas=[data.draw(st.floats(0.0, 1.0)) for _ in range(n)],
            pis=[1.0 / n] * n,
        )
        lams = [data.draw(st.floats(1.0, p.lambda_max, exclude_max=True)) for _ in range(n)]
        state = LeverageState.from_lambdas(lams, p)
        assume(state.feasible)
        for row in iterate(state, p, transient=0, record=30).recorded:
            lams = advance(lams, p)
            assert row.tobytes() == np.array(lams).tobytes()


class TestAuxNotation:
    def test_variance_kernel_positive_below_domain_edge(self, std1, rng):
        for y in rng.uniform(-50.0, std1.lambda_max - 1e-9, 500):
            assert std1.var_kernel(float(y)) > 0.0

    def test_ar1_coef_bounds_follow_mean_field(self, std1):
        assert std1.ar1_coef(1.0 - std1.gamma) == -1.0
        assert std1.ar1_coef(1.0 + std1.gamma) == 1.0
        assert abs(std1.ar1_coef(50.0)) < 1.0
        assert std1.ar1_coef(1.0 + std1.gamma + 5.0) > 1.0

    def test_weight_sum_tolerance_is_tight(self):
        ModelParams(omegas=(0.5, 0.5), pis=(0.5, 0.5 + 0.5e-12))
        with pytest.raises(ValueError):
            ModelParams(omegas=(0.5, 0.5), pis=(0.5, 0.5 + 2e-12))


@settings(max_examples=100, deadline=None)
@given(
    l1=st.floats(min_value=1.0, max_value=100.0),
    l2=st.floats(min_value=1.0, max_value=100.0),
)
def test_sync_metric_bounds(l1, l2):
    from levdyn.orbits import pair_sync

    m = pair_sync(l1, l2)
    assert 0.0 <= m < 1.0
    assert pair_sync(l1, l1) == 0.0
