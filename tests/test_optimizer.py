import math
import warnings

import numpy as np
import pytest

import ceofdm.gradient
from ceofdm import (
    OptimizerConfig,
    WaveformConfig,
    build_weights,
    compute_acf,
    detect_mainlobe_null,
    random_psk,
    run_gd_gisl,
    synthesize,
)
from ceofdm.exports import write_trace_csv
from ceofdm.optimizer import _armijo, _direction


def small_problem(seed=0, L=8, samples=64):
    cfg = WaveformConfig(L=L, h=0.2, samples=samples)
    phi0 = random_psk(L, math.inf, seed=seed)
    r = compute_acf(synthesize(phi0, cfg))
    null = detect_mainlobe_null(r)
    w = build_weights(null, cfg.M)
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

    @pytest.mark.parametrize("p", [math.inf, math.nan, None])
    def test_non_numeric_p_names_the_rule(self, p):
        # int(p) alone raises OverflowError, ValueError and TypeError on these
        with pytest.raises(ValueError, match=r"p must be an even integer >= 2, got"):
            OptimizerConfig(p=p)


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
        # J(x) = ||x||^2 from x = (1, 0) along q = -grad = (-2, 0), slope -4:
        # mu=1 lands at (-1, 0) with J=1 > 1 - 4e-4, rejected;
        # mu=0.5 lands at (0, 0) with J=0 <= 1 - 2e-4, accepted.
        cost = lambda x: float(x @ x)
        phi = np.array([1.0, 0.0])
        grad = np.array([2.0, 0.0])
        step, trial, j, shrinkages = _armijo(cost, phi, -grad, -4.0, 1.0, 1.0, OptimizerConfig())
        assert step == 0.5
        assert np.array_equal(trial, np.array([0.0, 0.0]))
        assert j == 0.0
        assert shrinkages == 1

    def test_accepts_first_decrease_when_c_tiny(self):
        # q = -0.5 against grad = 2: slope -1
        cost = lambda x: float(x @ x)
        phi = np.array([1.0])
        opt = OptimizerConfig(c=1e-15)
        _, _, j, shrinkages = _armijo(cost, phi, np.array([-0.5]), -1.0, cost(phi), 1.0, opt)
        assert shrinkages == 0
        assert j < cost(phi)

    def test_stall_returns_none(self):
        opt = OptimizerConfig(max_backtracks=5)
        trials = []

        def cliff(x):  # no step along q ever decreases this
            trials.append(x)
            return 1.0 if x[0] >= 1.0 else 2.0

        assert _armijo(cliff, np.array([1.0]), np.array([-1.0]), -1.0, 1.0, 1.0, opt) is None
        assert len(trials) == opt.max_backtracks + 1


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

    def test_trace_row_fields(self, tmp_path):
        cfg, phi0, w = small_problem(seed=4)
        _, trace = run_gd_gisl(phi0, cfg, w, OptimizerConfig(p=6, max_iters=5))
        row = trace.rows[0]
        assert row.iteration == 1
        assert isinstance(row.reset, bool)
        write_trace_csv(tmp_path / "trace.csv", trace)
        header, first, *_ = (tmp_path / "trace.csv").read_text().splitlines()
        j_p_db = float(dict(zip(header.split(","), first.split(",")))["J_p_db"])
        assert j_p_db == pytest.approx(10.0 * math.log10(row.j))

    def test_step_follows_growth_rule(self):
        # each search starts from the last accepted step grown by rho_up and
        # capped at mu_cap, and each shrinkage multiplies it by rho_down
        cfg, phi0, w = small_problem()
        opt = OptimizerConfig(p=6, max_iters=40, mu_cap=5.0)
        _, trace = run_gd_gisl(phi0, cfg, w, opt)
        assert len(trace.rows) == 40
        seed = opt.mu0
        for row in trace.rows:
            assert row.mu == seed * opt.rho_down**row.backtracks
            seed = min(row.mu * opt.rho_up, opt.mu_cap)
        # both the cap and the shrinkage are exercised
        assert any(row.mu * opt.rho_up > opt.mu_cap for row in trace.rows)
        assert any(row.backtracks > 0 for row in trace.rows)

    def test_line_search_stall(self):
        cfg, phi0, w = small_problem(seed=0)
        opt = OptimizerConfig(p=6, max_backtracks=1, mu0=1e3)
        _, trace = run_gd_gisl(phi0, cfg, w, opt)
        assert trace.status == "line_search_stall"
        counts, rows = trace.counts, trace.rows
        # every accepted search plus the stalled one, which tries max_backtracks + 1 steps
        cost_calls = sum(row.backtracks + 1 for row in rows) + opt.max_backtracks + 1
        assert counts["gradient_passes"] == len(rows) + 1
        assert counts["forward_passes"] + counts["cache_hits"] == cost_calls + len(rows) + 1
        assert counts["backtracks"] == sum(row.backtracks for row in rows) + opt.max_backtracks
        resets = sum(row.reset for row in rows)
        assert resets <= counts["momentum_resets"] <= resets + 1

    @pytest.mark.parametrize("h", [1e150, 1e200])
    def test_squared_gradient_norm_overflow_names_h(self, h):
        # at h = 1e200 every gradient component is finite but the squared norm
        # is not: the workspace raises one FloatingPointError naming h, where
        # three overflow warnings came before a line-search stall. At h = 1e150
        # the descent runs as before
        cfg = WaveformConfig(L=24, h=h, samples=64)
        phi0 = random_psk(24, 32, seed=1)
        w = build_weights(detect_mainlobe_null(compute_acf(synthesize(phi0, cfg))), cfg.M)
        opt = OptimizerConfig(max_iters=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if h == 1e200:
                with pytest.raises(FloatingPointError, match=r"norm is not finite at h=1e\+200"):
                    run_gd_gisl(phi0, cfg, w, opt)
            else:
                _, trace = run_gd_gisl(phi0, cfg, w, opt)
                assert all(math.isfinite(row.grad_norm) for row in trace.rows)


@pytest.mark.parametrize("hi", [0.1, None], ids=["design", "full_band"])
def test_bound_kernels_reproduce_numpy_fft_descent(monkeypatch, hi):
    # the design run (L = 24, M = 1000, p = 20) and the full band, at seed 1:
    # the kernels bound from numpy's pocketfft gufuncs and the np.fft
    # wrappers give the same phases, trace and evaluation counts
    cfg = WaveformConfig(L=24, mpsk=math.inf)
    phi0 = random_psk(cfg.L, cfg.mpsk, seed=1)
    w = build_weights(detect_mainlobe_null(compute_acf(synthesize(phi0, cfg))), cfg.M, None, hi)
    phi, trace = run_gd_gisl(phi0, cfg, w)
    kinds = set()

    def numpy_fft_kernel(kind, n, norm=None):
        # np.fft's own wrapper, called the way a bound kernel is; it sets the scale
        kinds.add(kind)
        transform = getattr(np.fft, kind)
        return (lambda a, scale, out: transform(a, n, norm=norm, out=out)), None

    monkeypatch.setattr(ceofdm.gradient, "_fft_kernel", numpy_fft_kernel)
    phi_np, trace_np = run_gd_gisl(phi0, cfg, w)
    assert kinds == {"fft", "ifft", "rfft", "irfft"}
    assert np.array_equal(phi, phi_np)
    assert trace.rows == trace_np.rows
    assert trace.counts == trace_np.counts
    assert (trace.status, trace.initial_j) == (trace_np.status, trace_np.initial_j)
