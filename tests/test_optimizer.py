import math

import numpy as np
import pytest

from ceofdm import (
    LineSearchStall,
    OptimizerConfig,
    WaveformConfig,
    armijo_backtrack,
    build_weights,
    compute_acf,
    detect_mainlobe_null,
    random_psk,
    run_gd_gisl,
    synthesize,
)
from ceofdm.optimizer import _direction


def small_problem(seed=0, L=8, samples=64):
    cfg = WaveformConfig(L=L, h=0.2, samples=samples)
    phi0 = random_psk(L, math.inf, seed=seed)
    r = compute_acf(synthesize(phi0, cfg))
    null = detect_mainlobe_null(r)
    w = build_weights(null, "full", cfg.M)
    return cfg, phi0, w


class TestOptimizerConfig:
    def test_defaults(self):
        opt = OptimizerConfig()
        assert opt.p == 20
        assert opt.beta == 0.5
        assert opt.mu0 == 1.0
        assert opt.rho_down == 0.5
        assert opt.rho_up == 2.0
        assert opt.c == 1e-4
        assert opt.max_iters == 100
        assert opt.g_min == 1e-6
        assert opt.max_backtracks == 60

    @pytest.mark.parametrize("kwargs", [
        dict(p=3), dict(p=0), dict(beta=-0.1), dict(beta=1.5),
        dict(mu0=0.0), dict(rho_down=1.0), dict(rho_down=0.0),
        dict(rho_up=0.5), dict(c=0.0), dict(c=1.0),
        dict(max_iters=-1), dict(g_min=-1.0), dict(max_backtracks=0),
        dict(mu0=math.inf),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TestHeavyBallDirection:
    def test_no_momentum(self):
        grad = np.array([1.0, -2.0])
        q = _direction(grad, np.array([5.0, 5.0]), beta=0.0)[0]
        assert np.array_equal(q, -grad)

    def test_first_iteration(self):
        grad = np.array([1.0, -2.0])
        q = _direction(grad, np.zeros(2), beta=0.7)[0]
        assert np.array_equal(q, -grad)

    def test_momentum_kept_when_descending(self):
        grad = np.array([1.0, 0.0])
        q = _direction(grad, np.array([-3.0, 0.0]), beta=1.0)[0]
        assert np.array_equal(q, np.array([-4.0, 0.0]))

    def test_reset_on_ascent(self):
        grad = np.array([1.0, 0.0])
        q = _direction(grad, np.array([3.0, 0.0]), beta=1.0)[0]
        # raw direction (2, 0) projects positively onto the gradient
        assert np.array_equal(q, np.array([-1.0, 0.0]))


class TestArmijoBacktrack:
    def test_hand_checked_quadratic(self):
        # J(x) = ||x||^2 from x = (1, 0) along q = -grad = (-2, 0):
        # mu=1 lands at (-1, 0) with J=1 > 1 - 4e-4, rejected;
        # mu=0.5 lands at (0, 0) with J=0 <= 1 - 2e-4, accepted.
        opt = OptimizerConfig()
        cost = lambda x: float(x @ x)
        phi = np.array([1.0, 0.0])
        grad = np.array([2.0, 0.0])
        res = armijo_backtrack(phi, -grad, grad, 1.0, opt, cost)
        assert res.mu == 0.5
        assert np.array_equal(res.phi_next, np.array([0.0, 0.0]))
        assert res.j_next == 0.0
        assert res.backtracks == 1
        assert res.mu_next == 1.0  # 0.5 * rho_up

    def test_accepts_first_decrease_when_c_tiny(self):
        opt = OptimizerConfig(c=1e-15)
        cost = lambda x: float(x @ x)
        phi = np.array([1.0])
        grad = np.array([2.0])
        res = armijo_backtrack(phi, np.array([-0.5]), grad, 1.0, opt, cost)
        assert res.backtracks == 0
        assert res.j_next < cost(phi)

    def test_rejects_ascent_direction(self):
        opt = OptimizerConfig()
        cost = lambda x: float(x @ x)
        with pytest.raises(ValueError, match="descent"):
            armijo_backtrack(np.array([1.0]), np.array([2.0]), np.array([2.0]), 1.0, opt, cost)

    def test_stall_raises(self):
        opt = OptimizerConfig(max_backtracks=5)

        def cliff(x):  # no step along q ever decreases this
            return 1.0 if x[0] >= 1.0 else 2.0

        with pytest.raises(LineSearchStall):
            armijo_backtrack(
                np.array([1.0]), np.array([-1.0]), np.array([1.0]), 1.0, opt, cliff, j0=1.0
            )

    def test_step_growth_is_capped(self):
        opt = OptimizerConfig(mu_cap=1.5)
        cost = lambda x: float(x @ x)
        res = armijo_backtrack(
            np.array([1.0]), np.array([-1.0]), np.array([2.0]), 1.0, opt, cost
        )
        assert res.mu_next == 1.5


class TestRunGdGisl:
    def test_infinite_gmin_returns_start(self):
        cfg, phi0, w = small_problem()
        phi, trace = run_gd_gisl(phi0, cfg, w, OptimizerConfig(g_min=math.inf))
        assert np.array_equal(phi, phi0)
        assert trace.rows == []
        assert trace.status == "gradient_threshold"
        assert trace.final_j == trace.initial_j

    def test_zero_iterations(self):
        cfg, phi0, w = small_problem()
        phi, trace = run_gd_gisl(phi0, cfg, w, OptimizerConfig(max_iters=0))
        assert np.array_equal(phi, phi0)
        assert trace.rows == []
        assert trace.status == "iteration_cap"

    def test_monotone_descent_and_improvement(self):
        cfg, phi0, w = small_problem(seed=3)
        phi, trace = run_gd_gisl(phi0, cfg, w, OptimizerConfig(p=6, max_iters=50))
        values = [trace.initial_j] + [row.j for row in trace.rows]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert trace.final_j < trace.initial_j

    def test_descent_direction_postcondition(self):
        cfg, phi0, w = small_problem(seed=7)
        phi, trace = run_gd_gisl(phi0, cfg, w, OptimizerConfig(p=6, max_iters=30))
        # every accepted row came from a successful Armijo search
        assert all(row.backtracks <= 60 for row in trace.rows)
        assert all(row.mu > 0 for row in trace.rows)

    def test_deterministic(self):
        cfg, phi0, w = small_problem(seed=5)
        opt = OptimizerConfig(p=6, max_iters=25)
        phi_a, trace_a = run_gd_gisl(phi0, cfg, w, opt)
        phi_b, trace_b = run_gd_gisl(phi0, cfg, w, opt)
        assert np.array_equal(phi_a, phi_b)
        assert trace_a.rows == trace_b.rows
        assert trace_a.status == trace_b.status

    def test_gradient_threshold_termination(self):
        cfg, phi0, w = small_problem(seed=2)
        phi, trace = run_gd_gisl(phi0, cfg, w, OptimizerConfig(p=2, max_iters=500, g_min=1e-3))
        if trace.status == "gradient_threshold":
            assert trace.rows[-1].grad_norm <= 1e-3
        else:  # hit the cap or stalled; still a valid terminal state
            assert trace.status in ("iteration_cap", "line_search_stall")

    def test_default_config_used_when_omitted(self):
        cfg, phi0, w = small_problem(seed=1)
        phi, trace = run_gd_gisl(phi0, cfg, w)
        assert trace.final_j <= trace.initial_j

    def test_trace_row_fields(self):
        cfg, phi0, w = small_problem(seed=4)
        _, trace = run_gd_gisl(phi0, cfg, w, OptimizerConfig(p=6, max_iters=5))
        row = trace.rows[0]
        assert row.iteration == 1
        assert row.j_db == pytest.approx(10.0 * math.log10(row.j))
        assert isinstance(row.reset, bool)
