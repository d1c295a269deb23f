import math
import tracemalloc

import numpy as np
import pytest

from ceofdm import (
    TWO_PI,
    GislWeights,
    GradientWorkspace,
    WaveformConfig,
    build_weights,
    compute_acf,
    compute_gisl,
    detect_mainlobe_null,
    random_psk,
    sample_phase,
    synthesize,
)
from ceofdm.metrics import _fft_length
from oracles import (
    brute_force_acf,
    build_dbar,
    central_difference_gradient,
    dense_dft_gisl_gradient,
    harmonic_basis,
    smallest_5_smooth,
)


def make_problem(L, samples, p, seed, h=0.2, region="full"):
    cfg = WaveformConfig(L=L, h=h, samples=samples)
    phi = random_psk(L, math.inf, seed=seed)
    r = compute_acf(synthesize(phi, cfg))
    null = detect_mainlobe_null(r)
    # "sub" ends at a quarter of the pulse; "lo" also starts three lags
    # beyond the null, so no support reads the bins between the two
    lo = (null + 3) / cfg.M if region == "lo" else None
    w = build_weights(null, cfg.M, lo, None if region == "full" else 0.25)
    return cfg, phi, w, GradientWorkspace(cfg, w, p)


class TestBuildDbar:
    def test_zero_phase_selects_sine_basis(self, small_cfg):
        bc, bs = harmonic_basis(small_cfg)
        dbar = build_dbar(np.zeros(small_cfg.L), bc, bs)
        m = small_cfg.M
        assert np.array_equal(dbar[:m], bs)
        assert np.all(dbar[m:] == 0)

    def test_quarter_turn_selects_negative_cosine(self, small_cfg):
        bc, bs = harmonic_basis(small_cfg)
        dbar = build_dbar(np.full(small_cfg.L, np.pi / 2), bc, bs)
        m = small_cfg.M
        assert np.max(np.abs(dbar[:m] + bc)) < 1e-12

    def test_matches_phase_finite_difference(self, small_cfg, rng):
        phi = TWO_PI * rng.random(small_cfg.L)
        dbar = build_dbar(phi, *harmonic_basis(small_cfg))
        eps = 1e-6
        for ell in range(small_cfg.L):
            step = np.zeros(small_cfg.L)
            step[ell] = eps
            fd = (sample_phase(phi + step, small_cfg) - sample_phase(phi - step, small_cfg))
            fd /= 2.0 * eps * TWO_PI * small_cfg.h
            denom = max(np.abs(fd).max(), 1e-12)
            assert np.max(np.abs(dbar[: small_cfg.M, ell] - fd)) / denom < 1e-7


class TestGradientAccuracy:
    @pytest.mark.parametrize("L,samples,p", [(4, 32, 2), (8, 64, 6)])
    def test_matches_finite_differences(self, L, samples, p):
        for seed in range(5):
            cfg, phi, w, ws = make_problem(L, samples, p, seed)
            _, grad = ws.cost_and_gradient(phi)
            fd = central_difference_gradient(ws.cost, phi)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-10 * np.abs(fd).max())
            assert rel.max() < 1e-5

    def test_subregion_weights(self):
        cfg, phi, w, ws = make_problem(8, 64, 6, seed=11, region="sub")
        _, grad = ws.cost_and_gradient(phi)
        fd = central_difference_gradient(ws.cost, phi)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-10 * np.abs(fd).max())
        assert rel.max() < 1e-5

    def test_error_decays_quadratically(self):
        cfg, phi, w, ws = make_problem(6, 48, 6, seed=2)
        _, grad = ws.cost_and_gradient(phi)
        errs = []
        for eps in (1e-3, 1e-4):
            fd = central_difference_gradient(ws.cost, phi, eps=eps)
            errs.append(np.max(np.abs(grad - fd)))
        assert errs[0] / errs[1] > 30.0  # exact O(eps^2) would give 100

    def test_matches_dense_dft_oracle(self):
        # FFT lengths 64 and 144 against the oracle's 2M-1 = 63 and 139; the
        # odd lengths 25 and 27 (M = 13, 14) have no Nyquist bin; M = 9 and 10
        # are 2L+1 and 2L+2, where harmonic L is the highest bin below Nyquist
        for samples in (32, 70, 13, 14, 9, 10):
            for p in (2, 6, 20):
                cfg, phi, w, ws = make_problem(4, samples, p, seed=3)
                _, grad = ws.cost_and_gradient(phi)
                dense = dense_dft_gisl_gradient(phi, cfg, w, p)
                assert np.max(np.abs(grad - dense)) < 1e-9 * np.abs(dense).max()

    def test_subregion_matches_dense_dft_oracle(self):
        # interval supports on the half spectrum, down to a single lag pair +-k
        for samples in (64, 13):
            cfg, phi, w, ws = make_problem(4, samples, 6, seed=3, region="sub")
            lag = w.null_index + 2
            narrow = build_weights(w.null_index, cfg.M, lag / cfg.M, lag / cfg.M)
            assert (narrow.sl_first, narrow.sl_last) == (lag, lag)
            for weights in (w, narrow):
                _, grad = GradientWorkspace(cfg, weights, 6).cost_and_gradient(phi)
                dense = dense_dft_gisl_gradient(phi, cfg, weights, 6)
                assert np.max(np.abs(grad - dense)) < 1e-9 * np.abs(dense).max()

    # 64 + 16 = 80 and 1000 + 152 = 1152 are the lengths picked, so N = M + K
    # sits on the aliasing edge; at K = 17 and 153, M + K - 1 is 5-smooth
    # instead, and 1000 + 125 = 1125 is 5-smooth but not picked
    @pytest.mark.parametrize("L,samples,max_lag", [
        (4, 64, 16), (4, 64, 17), (4, 64, 10), (8, 1000, 125), (8, 1000, 126),
        (8, 1000, 152), (8, 1000, 153),
    ])
    def test_short_kernel_matches_acf_and_dense_dft_oracle(self, L, samples, max_lag):
        # a sub-region support ends at lag K, and the kernel correlates at the
        # smallest 5-smooth N >= M + K instead of N >= 2M - 1
        cfg, phi, _, _ = make_problem(L, samples, 6, seed=3)
        r = compute_acf(synthesize(phi, cfg))
        null = detect_mainlobe_null(r)
        w = build_weights(null, cfg.M, null / cfg.M, max_lag / cfg.M)
        assert w.sl_last == max_lag
        ws = GradientWorkspace(cfg, w, 6)
        assert ws._n == _fft_length(cfg.M, max_lag) < _fft_length(cfg.M)
        expected = compute_gisl(r, w, 6)
        assert abs(ws.cost(phi) - expected) <= 1e-12 * expected
        _, grad = ws.cost_and_gradient(phi)
        dense = dense_dft_gisl_gradient(phi, cfg, w, 6)
        assert np.max(np.abs(grad - dense)) < 1e-9 * np.abs(dense).max()

    @pytest.mark.parametrize("p", [200, 1000])
    def test_large_p_matches_finite_differences(self, p):
        # at p = 1000 every raw sidelobe |r|^p underflows a double; the
        # peak-normalised sums do not
        for region in ("full", "sub"):
            cfg, phi, w, ws = make_problem(8, 64, p, seed=1, region=region)
            _, grad = ws.cost_and_gradient(phi)
            fd = central_difference_gradient(ws.cost, phi)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-10 * np.abs(fd).max())
            assert np.all(np.isfinite(grad))
            assert rel.max() < 1e-5

    def test_zero_modulation_index_gives_zero_gradient(self):
        # h = 0 is the rectangular pulse, whose phase no symbol can move
        cfg = WaveformConfig(L=4, h=0.0, samples=32)
        w = build_weights(3, cfg.M)
        cost, grad = GradientWorkspace(cfg, w, 20).cost_and_gradient(random_psk(4, 8, seed=0))
        assert 0.0 < cost < 1.0
        assert np.all(grad == 0.0)

    def test_p2_matches_isl_ratio_gradient(self):
        # independent route: finite differences of compute_gisl at p = 2 on compute_acf
        cfg, phi, w, ws = make_problem(6, 48, 2, seed=5)
        _, grad = ws.cost_and_gradient(phi)

        def isl_cost(x):
            return compute_gisl(compute_acf(synthesize(x, cfg)), w, 2)

        fd = central_difference_gradient(isl_cost, phi)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-10 * np.abs(fd).max())
        assert rel.max() < 1e-5


class TestPickedFftLengths:
    """Edge cases at sizes where the FFT length rule picks another N than the
    smallest 5-smooth length: at M = 1000 it gives 1152 for 1125 (K = 100)
    and 2048 for 2000 (the full band), and at M = 2L + 1 = 61 it gives 128
    for 125."""

    @staticmethod
    def problem(region, L=8, samples=1000, h=0.2, null=None):
        cfg = WaveformConfig(L=L, h=h, samples=samples)
        phi = random_psk(L, math.inf, seed=2)
        if null is None:
            null = detect_mainlobe_null(compute_acf(synthesize(phi, cfg)))
        hi = {"full": None, "sub": 0.1, "lag": 0.1}[region]
        lo = 0.1 if region == "lag" else None
        return cfg, phi, build_weights(null, cfg.M, lo, hi)

    @pytest.mark.parametrize("region,n", [("sub", 1152), ("full", 2048), ("lag", 1152)])
    @pytest.mark.parametrize("p", [20, 1000])
    def test_matches_compute_gisl_and_dense_dft_oracle(self, region, n, p):
        # "lag" is the one-lag support at lag K = 100
        cfg, phi, w = self.problem(region)
        assert w.sl_last == (999 if region == "full" else 100)
        assert region != "lag" or w.sl_first == 100
        ws = GradientWorkspace(cfg, w, p)
        assert ws._n == n
        expected = compute_gisl(compute_acf(synthesize(phi, cfg)), w, p)
        cost, grad = ws.cost_and_gradient(phi)
        assert abs(cost - expected) <= 1e-12 * expected
        dense = dense_dft_gisl_gradient(phi, cfg, w, p)
        assert np.all(np.isfinite(grad))
        assert np.max(np.abs(grad - dense)) < 1e-9 * np.abs(dense).max()

    @pytest.mark.parametrize("region", ["sub", "full", "lag"])
    def test_zero_modulation_index_gives_zero_gradient(self, region):
        # the rectangular pulse has no null of its own, so the mainlobe ends at lag 9
        cfg, phi, w = self.problem(region, h=0.0, null=9)
        cost, grad = GradientWorkspace(cfg, w, 20).cost_and_gradient(phi)
        assert cost == pytest.approx(compute_gisl(compute_acf(synthesize(phi, cfg)), w, 20), rel=1e-12)
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("p", [20, 1000])
    def test_nyquist_floor_matches_dense_dft_oracle(self, p):
        # M = 2L + 1 puts harmonic L on the last bin below Nyquist
        cfg, phi, w = self.problem("full", L=30, samples=61)
        ws = GradientWorkspace(cfg, w, p)
        assert (ws._n, smallest_5_smooth(2 * cfg.M - 1)) == (128, 125)
        _, grad = ws.cost_and_gradient(phi)
        dense = dense_dft_gisl_gradient(phi, cfg, w, p)
        assert np.max(np.abs(grad - dense)) < 1e-9 * np.abs(dense).max()

    def test_acf_matches_brute_force_oracle(self):
        cfg, phi, _ = self.problem("full")
        assert _fft_length(cfg.M) == 2048
        s = synthesize(phi, cfg)
        assert np.max(np.abs(compute_acf(s).r - brute_force_acf(s.samples))) < 1e-10


class TestGradientStructure:
    def test_output_is_real_vector(self):
        cfg, phi, w, ws = make_problem(8, 64, 6, seed=0)
        _, grad = ws.cost_and_gradient(phi)
        assert grad.dtype == np.float64
        assert grad.shape == (8,)

    def test_periodicity(self):
        cfg, phi, w, ws = make_problem(8, 64, 6, seed=9)
        _, g1 = ws.cost_and_gradient(phi)
        _, g2 = ws.cost_and_gradient(phi + TWO_PI * np.arange(1, 9))
        assert np.max(np.abs(g1 - g2)) < 1e-12

    def test_workspace_reuse_is_bit_identical(self):
        cfg, phi, w, ws = make_problem(8, 64, 6, seed=4)
        _, g1 = ws.cost_and_gradient(phi)
        ws.cost(phi + 0.1)  # disturb the cache
        _, g2 = ws.cost_and_gradient(phi)
        fresh = GradientWorkspace(cfg, w, 6)
        _, g3 = fresh.cost_and_gradient(phi)
        assert np.array_equal(g1, g2)
        assert np.array_equal(g1, g3)


class TestWorkspaceBuffers:
    """Owned buffers and the cached forward pass must not leak between calls."""

    @pytest.mark.parametrize("region", ["full", "sub", "lo"])
    def test_repeated_gradient_is_one_cache_hit(self, region):
        # the half spectrum of the cached pass must outlive the first gradient
        cfg, phi, w, ws = make_problem(8, 64, 6, seed=4, region=region)
        c1, g1 = ws.cost_and_gradient(phi)
        kept = g1.copy()
        c2, g2 = ws.cost_and_gradient(phi)
        assert ws.counts == {"forward_passes": 1, "gradient_passes": 2, "cache_hits": 1}
        assert c1 == c2
        assert np.array_equal(g1, g2)
        assert np.array_equal(g1, kept)  # the second call did not write into the first result

    @pytest.mark.parametrize("region", ["full", "sub", "lo"])
    def test_cost_then_gradient_equals_fresh_workspace(self, region):
        cfg, phi, w, ws = make_problem(8, 64, 20, seed=6, region=region)
        cost = ws.cost(phi)
        c, g = ws.cost_and_gradient(phi)
        assert ws.counts == {"forward_passes": 1, "gradient_passes": 1, "cache_hits": 1}
        fresh_c, fresh_g = GradientWorkspace(cfg, w, 20).cost_and_gradient(phi)
        assert cost == c == fresh_c
        assert np.array_equal(g, fresh_g)

    @pytest.mark.parametrize("edge", ["p=1000", "M=2L+1", "h=0", "single lag"])
    def test_edges_match_compute_gisl_and_dense_dft_oracle(self, edge):
        p, L, samples, h = 6, 4, 32, 0.2
        if edge == "p=1000":
            p = 1000
        elif edge == "M=2L+1":
            samples = 2 * L + 1
        elif edge == "h=0":
            h = 0.0
        cfg = WaveformConfig(L=L, h=h, samples=samples)
        phi = random_psk(L, math.inf, seed=3)
        r = compute_acf(synthesize(phi, cfg))
        # the rectangular pulse (h = 0) has no null before its last lag
        w = build_weights(detect_mainlobe_null(r) if h else 3, cfg.M)
        if edge == "single lag":
            lag = w.null_index + 2
            w = build_weights(w.null_index, cfg.M, lag / cfg.M, lag / cfg.M)
            assert (w.sl_first, w.sl_last) == (lag, lag)
        ws = GradientWorkspace(cfg, w, p)
        expected = compute_gisl(r, w, p)
        assert abs(ws.cost(phi) - expected) <= 1e-12 * expected
        _, grad = ws.cost_and_gradient(phi)
        dense = dense_dft_gisl_gradient(phi, cfg, w, p)
        assert np.all(np.isfinite(grad))
        # at h = 0 both gradients are exactly zero
        assert np.max(np.abs(grad - dense)) <= 1e-9 * np.abs(dense).max()

    def test_cost_allocates_under_three_and_a_half_n_point_arrays(self):
        # M = 20000 on the full band correlates at N = 40000. Every FFT writes
        # into a workspace buffer and F stays in one kept buffer across passes,
        # so a cost call makes no scratch of M or N points; the next test bounds
        # what it does allocate more tightly
        cfg = WaveformConfig(L=24, h=0.2, samples=20000)
        phi = random_psk(24, math.inf, seed=1)
        null = detect_mainlobe_null(compute_acf(synthesize(phi, cfg)))
        ws = GradientWorkspace(cfg, build_weights(null, cfg.M), 20)
        ws.cost(phi)  # warm-up: FFT plans
        tracemalloc.start()
        try:
            ws.cost(phi + 0.1)  # the cached pass now holds traced arrays
            tracemalloc.reset_peak()
            ws.cost(phi + 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 16 * ws._n, f"peak {peak / (16 * ws._n):.2f} complex N-point arrays"

    def test_evaluation_allocates_no_n_point_array(self):
        # every FFT and ufunc of an evaluation writes into a workspace buffer.
        # What is left is small: the key bytes and the L-point gradient. FFTs
        # that return new arrays read 1.5 and 2.75
        cfg = WaveformConfig(L=24, h=0.2, samples=20000)
        phi = random_psk(24, math.inf, seed=1)
        null = detect_mainlobe_null(compute_acf(synthesize(phi, cfg)))
        ws = GradientWorkspace(cfg, build_weights(null, cfg.M), 20)
        ws.cost_and_gradient(phi)  # warm-up: FFT plans
        for name, evaluate in [("cost", ws.cost), ("cost_and_gradient", ws.cost_and_gradient)]:
            tracemalloc.start()
            try:
                evaluate(phi + 0.1)
                tracemalloc.reset_peak()
                evaluate(phi + 0.2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            arrays = peak / (16 * ws._n)
            assert arrays < 0.01, f"{name}: peak {arrays:.2f} complex N-point arrays"

    def test_workspace_holds_five_n_point_arrays(self):
        # M = 20000 on the full band correlates at N = 40960. The buffers
        # are F and ifft(F * P), 1 each; the half spectrum, conj(v), the phasor
        # and |F|^2, 0.5 each; the two harmonic spectra, 0.25 each; and two
        # float arrays over the M support bins, |r|/peak and its (p-2)th
        # power, 0.25 each. Gathered copies of the supports would add 1.25.
        # The rest is views and Python objects
        cfg = WaveformConfig(L=24, h=0.2, samples=20000)
        phi = random_psk(24, math.inf, seed=1)
        w = build_weights(detect_mainlobe_null(compute_acf(synthesize(phi, cfg))), cfg.M)
        tracemalloc.start()
        try:
            ws = GradientWorkspace(cfg, w, 20)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = size / (16 * ws._n)
        assert ws._n == _fft_length(cfg.M)
        assert size <= 5.0 * 16 * ws._n + 8192, f"{arrays:.4f} complex N-point arrays"

    def test_returned_gradient_is_not_a_workspace_buffer(self):
        cfg, phi, w, ws = make_problem(8, 64, 6, seed=7)
        _, g1 = ws.cost_and_gradient(phi)
        kept = g1.copy()
        ws.cost_and_gradient(phi + 0.3)
        ws.cost(phi - 0.2)
        ws.cost_and_gradient(phi - 0.2)
        assert np.array_equal(g1, kept)


class TestGradientValidation:
    def test_empty_sidelobe_support_rejected(self):
        cfg, phi, w, _ = make_problem(8, 64, 6, seed=0)
        empty = GislWeights(w.null_index, w.null_index + 1, w.null_index, w.M)
        with pytest.raises(ValueError, match="sidelobe"):
            GradientWorkspace(cfg, empty, 6)

    def test_length_mismatch_rejected(self):
        cfg, phi, w, _ = make_problem(8, 64, 6, seed=0)
        other = WaveformConfig(L=8, h=0.2, samples=48)
        with pytest.raises(ValueError, match="length"):
            GradientWorkspace(other, w, 6)

    @pytest.mark.parametrize("p", [math.inf, math.nan, None, 3, 2.5])
    def test_bad_p_names_the_rule(self, p):
        cfg, phi, w, _ = make_problem(8, 64, 6, seed=0)
        with pytest.raises(ValueError, match=r"p must be an even integer >= 2, got"):
            GradientWorkspace(cfg, w, p)
