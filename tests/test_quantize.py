import math

import numpy as np
import pytest

from ceofdm import (
    TWO_PI,
    OptimizerConfig,
    WaveformConfig,
    build_weights,
    compute_acf,
    degradation_sweep,
    detect_mainlobe_null,
    quantize_psk,
    random_psk,
    run_gd_gisl,
    synthesize,
    wrap_to_pi,
)


@pytest.fixture(scope="module")
def optimized_subregion():
    """One sub-region-optimized waveform at the reference scale (seed 2)."""
    cfg = WaveformConfig(L=24, tbp=200.0)
    phi0 = random_psk(24, math.inf, seed=2)
    r0 = compute_acf(synthesize(phi0, cfg))
    null = detect_mainlobe_null(r0)
    w = build_weights(null, cfg.M, null / cfg.M, 0.1)
    phi_opt, _ = run_gd_gisl(phi0, cfg, w, OptimizerConfig())
    return cfg, w, phi_opt


class TestQuantizePsk:
    def test_grid_points_unchanged(self):
        phi = TWO_PI * np.array([0, 3, 7, 15]) / 16
        assert np.array_equal(quantize_psk(phi, 16), phi)

    def test_idempotent(self, rng):
        phi = TWO_PI * rng.random(50)
        once = quantize_psk(phi, 8)
        assert np.array_equal(quantize_psk(once, 8), once)

    def test_nearest_neighbor_example(self):
        phi = np.array([0.1, 1.6, 3.2, 6.0])
        expected = np.array([0.0, np.pi / 2, np.pi, 0.0])
        assert np.allclose(quantize_psk(phi, 4), expected, atol=1e-15)

    def test_ties_round_to_smaller_index(self):
        # pi/4 is exactly between 0 and pi/2 on the 4-ary grid
        assert quantize_psk(np.array([np.pi / 4]), 4)[0] == 0.0
        assert quantize_psk(np.array([3 * np.pi / 4]), 4)[0] == pytest.approx(np.pi / 2)

    def test_bounded_perturbation(self, rng):
        for mpsk in (2, 8, 32):
            phi = 10 * rng.standard_normal(200)
            q = quantize_psk(phi, mpsk)
            assert np.max(np.abs(wrap_to_pi(q - phi))) <= np.pi / mpsk + 1e-12

    def test_output_on_grid(self, rng):
        q = quantize_psk(10 * rng.standard_normal(100), 8)
        idx = q * 8 / TWO_PI
        assert np.allclose(idx, np.round(idx), atol=1e-12)
        assert np.all((q >= 0) & (q < TWO_PI))

    def test_infinite_alphabet_is_identity(self, rng):
        phi = rng.random(10)
        q = quantize_psk(phi, math.inf)
        assert np.array_equal(q, phi)
        assert q is not phi

    @pytest.mark.parametrize("mpsk", [1, 0, -2, 2.5])
    def test_bad_alphabet(self, mpsk):
        with pytest.raises(ValueError):
            quantize_psk(np.zeros(4), mpsk)


class TestDegradationSweep:
    def test_infinite_alphabet_zero_delta(self, optimized_subregion):
        cfg, w, phi_opt = optimized_subregion
        report = degradation_sweep(phi_opt, cfg, w, 20, [math.inf])
        row = report[0]
        assert row.gisl_degradation_db == 0.0
        assert row.max_perturbation == 0.0
        assert row.pslr_after_db == row.pslr_before_db

    def test_coarse_alphabet_degrades(self, optimized_subregion):
        cfg, w, phi_opt = optimized_subregion
        report = degradation_sweep(phi_opt, cfg, w, 20, [8])
        assert report[0].gisl_degradation_db > 0.0

    def test_large_alphabet_converges(self, optimized_subregion):
        cfg, w, phi_opt = optimized_subregion
        report = degradation_sweep(phi_opt, cfg, w, 20, [2**16])
        assert abs(report[0].gisl_degradation_db) < 0.01

    def test_perturbation_column(self, optimized_subregion):
        cfg, w, phi_opt = optimized_subregion
        report = degradation_sweep(phi_opt, cfg, w, 20, [16, 64])
        assert report[0].max_perturbation <= np.pi / 16 + 1e-12
        assert report[1].max_perturbation <= np.pi / 64 + 1e-12
        assert report[0].mpsk == 16.0

    def test_rows_carry_the_quantized_acf(self, optimized_subregion):
        cfg, w, phi_opt = optimized_subregion
        report = degradation_sweep(phi_opt, cfg, w, 20, [8, math.inf])
        for row, mpsk in zip(report, [8, math.inf]):
            expected = compute_acf(synthesize(quantize_psk(phi_opt, mpsk), cfg))
            assert np.array_equal(row.acf.r, expected.r)
            assert np.array_equal(row.acf.delays, expected.delays)
