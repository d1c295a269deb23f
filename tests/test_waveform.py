import math

import numpy as np
import pytest

from ceofdm import (
    TWO_PI,
    WaveformConfig,
    compute_acf,
    compute_modulation_index,
    lfm_equivalent_tbp,
    random_psk,
    sample_frequency,
    sample_phase,
    synthesize,
)
from ceofdm.exports import write_acf_csv
from oracles import rms_bandwidth

# frozen output of oracles.bisect_modulation_index(100, 16); the closed form
# agrees with the numeric RMS-bandwidth bisection to machine precision
H_ORACLE_100_16 = 0.16798817410267797


def direct_phase(phi, cfg):
    """Straightforward per-term evaluation of the subcarrier sum."""
    out = np.zeros(cfg.M)
    for ell in range(1, cfg.L + 1):
        out += np.cos(TWO_PI * ell * cfg.t - phi[ell - 1])
    return TWO_PI * cfg.h * out


def direct_frequency(phi, cfg):
    """Straightforward per-term evaluation of the phase derivative over 2*pi."""
    out = np.zeros(cfg.M)
    for ell in range(1, cfg.L + 1):
        out -= ell * np.sin(TWO_PI * ell * cfg.t - phi[ell - 1])
    return TWO_PI * cfg.h * out


# the smallest grids M = 2L+1 and 2L+2, where harmonic L is the highest DFT
# bin below Nyquist
NYQUIST_EDGE = [WaveformConfig(L=L, h=0.2, samples=2 * L + k) for L in (1, 4, 24) for k in (1, 2)]


class TestModulationIndex:
    def test_tbp200_l24(self):
        assert compute_modulation_index(200, 24) == pytest.approx(0.1856, abs=5e-4)

    def test_zero_bandwidth(self):
        assert compute_modulation_index(0, 24) == 0.0

    def test_against_bisection_oracle(self):
        h = compute_modulation_index(100, 16)
        assert h == pytest.approx(H_ORACLE_100_16, rel=1e-9)

    def test_roundtrip(self):
        h = compute_modulation_index(137.0, 12)
        assert lfm_equivalent_tbp(h, 12) == pytest.approx(137.0, rel=1e-12)

    @pytest.mark.parametrize("tbp,L", [(100, 0), (-1, 16), (100, 2.5)])
    def test_domain_errors(self, tbp, L):
        with pytest.raises(ValueError):
            compute_modulation_index(tbp, L)


class TestWaveformConfig:
    def test_derived_from_tbp(self, reference_cfg):
        assert reference_cfg.M == 1000
        assert reference_cfg.h == pytest.approx(0.1856, abs=5e-4)
        assert reference_cfg.tbp == 200.0

    def test_derived_from_h(self):
        cfg = WaveformConfig(L=24, h=0.1856)
        assert cfg.tbp == pytest.approx(199.95, abs=0.1)

    def test_consistent_pair_accepted(self):
        h = compute_modulation_index(200, 24)
        cfg = WaveformConfig(L=24, h=h, tbp=200.0)
        assert cfg.M == 1000

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            WaveformConfig(L=24, h=0.2, tbp=200.0)

    def test_neither_h_nor_tbp_means_tbp_200(self):
        cfg = WaveformConfig(L=24)
        assert cfg.tbp == 200.0
        assert cfg.h == compute_modulation_index(200.0, 24)
        assert cfg == WaveformConfig(L=24, tbp=200.0)

    def test_pinned_samples_ignore_overflowing_tbp(self):
        assert WaveformConfig(L=24, tbp=1e308, samples=64).M == 64

    def test_nyquist_floor(self):
        with pytest.raises(ValueError, match="harmonics"):
            WaveformConfig(L=24, tbp=5.0)
        with pytest.raises(ValueError, match="harmonics"):
            WaveformConfig(L=24, h=0.1, samples=16)

    def test_explicit_samples(self):
        cfg = WaveformConfig(L=1, h=0.0, samples=128)
        assert cfg.M == 128
        assert cfg.t[1] == 1.0 / 128

    @pytest.mark.parametrize("kwargs", [
        dict(L=8, h=0.15, samples=64),
        dict(L=24, tbp=200.0),
        dict(L=24, h=0.1856),
        dict(L=24, tbp=200.3),
    ], ids=["samples", "tbp", "h", "tbp200.3"])
    def test_one_sample_grid(self, kwargs, rng, tmp_path):
        # oversample * tbp need not be an integer; the grid is t = m / M
        # all the same, which the ACF delays and the weights' |k| / M share
        cfg = WaveformConfig(**kwargs)
        assert np.array_equal(cfg.t, np.arange(cfg.M) / cfg.M)
        phi = TWO_PI * rng.random(cfg.L)
        assert np.max(np.abs(sample_phase(phi, cfg) - direct_phase(phi, cfg))) < 1e-10
        write_acf_csv(tmp_path / "acf.csv", compute_acf(synthesize(phi, cfg)))
        rows = [line.split(",") for line in (tmp_path / "acf.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2 * cfg.M - 1
        assert [row[1] for row in rows] == [f"{int(row[0]) / cfg.M:.12e}" for row in rows]

    def test_time_grid(self, small_cfg):
        t = small_cfg.t
        assert len(t) == small_cfg.M
        assert t[0] == 0.0
        assert t[1] == pytest.approx(1.0 / small_cfg.M)

    @pytest.mark.parametrize("kwargs", [
        dict(L=0, h=0.1),
        dict(L=8, h=-0.1),
        dict(L=8, tbp=-5.0),
        dict(L=8, tbp=1e308),  # M = oversample * tbp overflows
        dict(L=8, h=0.1, oversample=0.0),
        dict(L=8, h=math.inf),
        dict(L=8, h=math.nan),
        dict(L=8, tbp=math.inf),
        dict(L=8, h=0.1, oversample=math.inf),
        dict(L=24, h=1e306),  # the derived tbp overflows, and so does M
        dict(L=24, h=1e306, samples=64),  # M is pinned, but the derived tbp overflows
        dict(L=1000, tbp=1.79e308, samples=2001),  # tbp is finite, the frequency can overflow
        dict(L=8, tbp=1.2e17),  # M = 6e17: more samples than one complex array can hold
        dict(L=8, samples=2**59),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            WaveformConfig(**kwargs)


class TestSamplePhase:
    def test_single_subcarrier_at_origin(self):
        cfg = WaveformConfig(L=1, h=0.3, samples=32)
        theta = sample_phase(np.zeros(1), cfg)
        assert theta[0] == pytest.approx(TWO_PI * cfg.h, rel=1e-12)

    def test_quarter_turn_symbols_cancel_at_origin(self, small_cfg):
        theta = sample_phase(np.full(small_cfg.L, np.pi / 2), small_cfg)
        assert abs(theta[0]) < 1e-12

    def test_matches_direct_formula(self, reference_cfg, rng):
        for cfg in [reference_cfg, *NYQUIST_EDGE]:
            for _ in range(5):
                phi = TWO_PI * rng.random(cfg.L)
                assert np.max(np.abs(sample_phase(phi, cfg) - direct_phase(phi, cfg))) < 1e-10

    def test_dual_formula_property_loop(self, small_cfg, rng):
        for _ in range(100):
            phi = TWO_PI * rng.random(small_cfg.L)
            err = np.max(np.abs(sample_phase(phi, small_cfg) - direct_phase(phi, small_cfg)))
            assert err < 1e-10

    def test_length_mismatch(self, small_cfg):
        with pytest.raises(ValueError, match="shape"):
            sample_phase(np.zeros(small_cfg.L + 1), small_cfg)


class TestSampleFrequency:
    def test_single_subcarrier_at_origin(self):
        cfg = WaveformConfig(L=1, h=0.3, samples=32)
        freq = sample_frequency(np.zeros(1), cfg)
        assert abs(freq[0]) < 1e-12

    def test_matches_direct_formula(self, reference_cfg, rng):
        for cfg in [reference_cfg, *NYQUIST_EDGE]:
            for _ in range(5):
                phi = TWO_PI * rng.random(cfg.L)
                direct = direct_frequency(phi, cfg)
                err = np.max(np.abs(sample_frequency(phi, cfg) - direct))
                assert err < 1e-12 * np.abs(direct).max()

    def test_zero_mean(self, reference_cfg, rng):
        phi = TWO_PI * rng.random(reference_cfg.L)
        freq = sample_frequency(phi, reference_cfg)
        assert abs(freq.mean()) < 1e-9 * np.abs(freq).max()

    def test_finite_difference_of_phase(self, rng):
        # central differences of the phase samples converge at O(M^-2)
        phi = TWO_PI * rng.random(24)
        errs = []
        for oversample in (5.0, 10.0):
            cfg = WaveformConfig(L=24, tbp=200.0, oversample=oversample)
            theta = sample_phase(phi, cfg)
            freq = sample_frequency(phi, cfg)
            fd = (theta[2:] - theta[:-2]) * cfg.M / (2.0 * TWO_PI)
            errs.append(np.max(np.abs(fd - freq[1:-1])))
        scale = np.abs(sample_frequency(phi, WaveformConfig(L=24, tbp=200.0))).max()
        assert errs[0] < 0.05 * scale
        assert errs[0] / errs[1] > 3.0  # second order would give 4.0

    def test_length_mismatch(self, small_cfg):
        with pytest.raises(ValueError, match="shape"):
            sample_frequency(np.zeros(1), small_cfg)


class TestSynthesize:
    def test_unmodulated_is_rectangular(self):
        cfg = WaveformConfig(L=1, h=0.0, samples=64)
        s = synthesize(np.zeros(1), cfg)
        assert np.allclose(s.samples, 1.0 / math.sqrt(64), atol=1e-15)

    def test_constant_envelope_and_unit_energy(self, reference_cfg, rng):
        phi = TWO_PI * rng.random(reference_cfg.L)
        s = synthesize(phi, reference_cfg)
        assert np.max(np.abs(np.abs(s.samples) ** 2 * reference_cfg.M - 1.0)) < 1e-12
        assert abs(np.sum(np.abs(s.samples) ** 2) - 1.0) < 1e-12

    def test_constant_envelope_property_loop(self, small_cfg, rng):
        for _ in range(100):
            phi = TWO_PI * rng.random(small_cfg.L)
            s = synthesize(phi, small_cfg)
            assert np.max(np.abs(np.abs(s.samples) ** 2 * small_cfg.M - 1.0)) < 1e-12

    def test_spectral_concentration(self, reference_cfg):
        # frozen seed; measured 97.1% of energy within +-0.75 * tbp
        phi = random_psk(reference_cfg.L, math.inf, seed=1)
        s = synthesize(phi, reference_cfg)
        power = np.abs(np.fft.fft(s.samples)) ** 2
        freqs = np.fft.fftfreq(reference_cfg.M, d=1.0 / reference_cfg.M)
        frac = power[np.abs(freqs) <= 0.75 * reference_cfg.tbp].sum() / power.sum()
        assert frac >= 0.95

    def test_nyquist_margin(self, reference_cfg):
        for seed in range(3):
            phi = random_psk(reference_cfg.L, math.inf, seed=seed)
            s = synthesize(phi, reference_cfg)
            power = np.abs(np.fft.fft(s.samples)) ** 2
            freqs = np.fft.fftfreq(reference_cfg.M, d=1.0 / reference_cfg.M)
            tail = power[np.abs(freqs) > 0.45 * reference_cfg.M].sum() / power.sum()
            assert tail < 1e-3


class TestRmsBandwidthInvariance:
    def test_fixed_l_and_h(self):
        cfg = WaveformConfig(L=24, h=0.1856)
        values = []
        for seed in range(20):
            phi = random_psk(24, math.inf, seed=seed)
            values.append(rms_bandwidth(synthesize(phi, cfg).samples, cfg.M))
        values = np.array(values)
        assert (values.max() - values.min()) / values.mean() < 0.01


class TestRandomPsk:
    def test_deterministic(self):
        a = random_psk(24, 32, seed=42)
        b = random_psk(24, 32, seed=42)
        assert np.array_equal(a, b)

    def test_on_grid(self):
        phi = random_psk(200, 32, seed=3)
        idx = np.round(phi * 32 / TWO_PI).astype(int)
        assert np.array_equal(phi, TWO_PI * idx / 32)
        assert np.all((0 <= idx) & (idx < 32))

    def test_continuous_range(self):
        phi = random_psk(1000, math.inf, seed=5)
        assert np.all((phi >= 0) & (phi < TWO_PI))

    def test_uniformity_chi_square(self):
        from scipy import stats

        draws = random_psk(100000, 32, seed=7)
        counts = np.bincount(
            np.round(draws * 32 / TWO_PI).astype(int) % 32, minlength=32
        )
        assert stats.chisquare(counts).pvalue > 0.01

    @pytest.mark.parametrize("mpsk", [0, 1, -4, 2.5])
    def test_bad_alphabet(self, mpsk):
        with pytest.raises(ValueError):
            random_psk(8, mpsk, seed=0)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            random_psk(0, 32, seed=0)
