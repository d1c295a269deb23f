import math

import numpy as np
import pytest

from ceofdm import (
    TWO_PI,
    CorrelationResult,
    GislWeights,
    GradientWorkspace,
    WaveformConfig,
    build_weights,
    compute_acf,
    compute_af,
    compute_gisl,
    compute_pslr,
    db,
    detect_mainlobe_null,
    random_psk,
    synthesize,
)
from ceofdm.metrics import _fft_kernel, _fft_length
from oracles import brute_force_acf, direct_af, fft_length_rule, log_domain_gisl, plain_isl

# frozen regression: first null of the reference waveform (seed 1, Mpsk=32);
# null * tbp / M = 1.8, within a factor of two of the LFM null at 1/tbp
REFERENCE_NULL = 9


def rect_waveform(m=64):
    cfg = WaveformConfig(L=1, h=0.0, samples=m)
    return cfg, synthesize(np.zeros(1), cfg)


def synthetic_corr(values, zero_value=1.0):
    """Centered CorrelationResult with given one-sided |r| values, symmetric."""
    m = len(values) + 1
    r = np.zeros(2 * m - 1, dtype=complex)
    r[m - 1] = zero_value
    for k, v in enumerate(values, start=1):
        r[m - 1 + k] = v
        r[m - 1 - k] = np.conj(v)
    return CorrelationResult(r=r)


class TestFftLength:
    # the smallest 2^a 3^b 5^c at or above M + K, or the smallest one with
    # c <= 1 when that is at most 1/32 longer: at M = 10^5, 207360 is more
    # than 1/32 above 200000, and 2160 has one factor 5 already
    def test_follows_the_length_rule_at_or_above_2m_minus_1(self):
        for m in range(2, 2001):
            assert _fft_length(m) == fft_length_rule(2 * m - 1), m

    @pytest.mark.parametrize("m,n", [
        (1000, 2048), (1040, 2160), (70, 144), (10**4, 20480), (10**5, 200000), (10**6, 2000000),
    ])
    def test_spot_values(self, m, n):
        assert _fft_length(m) == n

    def test_follows_the_length_rule_at_or_above_m_plus_max_lag(self):
        for m in (*range(2, 130), 999, 1000, 1001, 2000):
            for max_lag in {0, 1, m // 10, m // 2, m - 2, m - 1}:
                assert _fft_length(m, max_lag) == fft_length_rule(m + max_lag), (m, max_lag)
            assert _fft_length(m, m - 1) == _fft_length(m)

    @pytest.mark.parametrize(
        "m,max_lag,n", [(1000, 100, 1152), (1000, 125, 1152), (1000, 126, 1152), (64, 16, 80)]
    )
    def test_spot_values_with_max_lag(self, m, max_lag, n):
        assert _fft_length(m, max_lag) == n


class TestFftKernel:
    """Each bound pocketfft kernel equals the numpy.fft wrapper bit for bit,
    on the shapes and lengths the package transforms."""

    @staticmethod
    def signal(shape, seed=0, real=False):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape)
        return x if real else x + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("m,n", [(1000, 1125), (1000, 2000), (1040, 2160), (7, 28)])
    def test_zero_padded_fft(self, m, n):
        # the GISL forward pass at N odd and even, compute_acf, and the 4x
        # zero-padded spectrum
        x = self.signal(m)
        fft, scale = _fft_kernel("fft", n)
        got = fft(x, scale, out=np.empty(n, dtype=complex))
        assert np.array_equal(got, np.fft.fft(x, n))

    @pytest.mark.parametrize("n", [1125, 2000, 999, 1000])
    def test_rfft(self, n):
        x = self.signal(n, real=True)
        rfft, scale = _fft_kernel("rfft", n)
        out = np.empty(n // 2 + 1, dtype=complex)
        assert np.array_equal(rfft(x, scale, out=out), np.fft.rfft(x))
        # the workspace's M-point rfft reads the imaginary part of a complex buffer
        z = self.signal(n, seed=1)
        assert np.array_equal(rfft(z.imag, scale, out=out), np.fft.rfft(z.imag))

    @pytest.mark.parametrize("n", [1125, 2000, 1000, 999])
    @pytest.mark.parametrize("norm", [None, "forward"])
    def test_irfft_with_either_scale(self, n, norm):
        spec = self.signal(n // 2 + 1)
        irfft, scale = _fft_kernel("irfft", n, norm)
        assert scale == (1.0 / n if norm is None else 1.0)
        got = irfft(spec, scale, out=np.empty(n))
        assert np.array_equal(got, np.fft.irfft(spec, n, norm=norm))

    @pytest.mark.parametrize("n", [1125, 2000, 2160])
    def test_ifft_in_place(self, n):
        x = self.signal(n)
        expected = np.fft.ifft(x)
        ifft, scale = _fft_kernel("ifft", n)
        assert ifft(x, scale, out=x) is x
        assert np.array_equal(x, expected)

    @pytest.mark.parametrize("rows,m,n", [(7, 104, 208), (1, 1000, 2000)])
    def test_batched_af_rows(self, rows, m, n):
        # compute_af: a block of zero-padded rows, then each row's ifft in place
        x = self.signal((rows, m))
        fft, one = _fft_kernel("fft", n)
        ifft, inv_n = _fft_kernel("ifft", n)
        spec = fft(x, one, out=np.empty((rows, n), dtype=complex))
        assert np.array_equal(spec, np.fft.fft(x, n))
        expected = np.fft.ifft(spec)
        ifft(spec, inv_n, out=spec)
        assert np.array_equal(spec, expected)

    def test_batched_stft_frames_in_place(self):
        # _stft: windowed frames of a strided view, transformed in place
        samples = self.signal(1040)
        frames = np.lib.stride_tricks.sliding_window_view(samples, 128)[::32] * np.hanning(128)
        expected = np.fft.fft(frames, axis=1)
        fft, one = _fft_kernel("fft", 128)
        fft(frames, one, out=frames)
        assert np.array_equal(frames, expected)


class TestComputeAcf:
    def test_zero_delay_is_unity(self, reference_cfg):
        s = synthesize(random_psk(reference_cfg.L, 32, seed=4), reference_cfg)
        r = compute_acf(s)
        assert r.r[r.zero_index] == pytest.approx(1.0, abs=1e-10)
        assert abs(r.r[r.zero_index].imag) < 1e-10

    def test_rectangular_pulse_triangle(self):
        cfg, s = rect_waveform(64)
        r = compute_acf(s)
        u = np.arange(-63, 64)
        expected = (64 - np.abs(u)) / 64.0
        assert np.max(np.abs(np.abs(r.r) - expected)) < 1e-12

    def test_matches_brute_force(self, rng):
        cfg = WaveformConfig(L=4, h=0.2, samples=128)
        phi = TWO_PI * rng.random(4)
        s = synthesize(phi, cfg)
        r = compute_acf(s)
        assert np.max(np.abs(r.r - brute_force_acf(s.samples))) < 1e-10

    def test_conjugate_symmetry(self, small_cfg, rng):
        s = synthesize(TWO_PI * rng.random(small_cfg.L), small_cfg)
        r = compute_acf(s).r
        assert np.max(np.abs(r - np.conj(r[::-1]))) < 1e-10

    def test_padding_beyond_2m_minus_1_changes_nothing(self, small_cfg, rng):
        s = synthesize(TWO_PI * rng.random(small_cfg.L), small_cfg)
        r = compute_acf(s)
        m = small_cfg.M
        wide = np.zeros(2 * (2 * m - 1), dtype=complex)
        wide[:m] = s.samples
        spec = np.fft.fft(wide)
        r_wide = np.fft.ifft(spec * np.conj(spec))
        centered = np.concatenate([r_wide[-(m - 1):], r_wide[:m]])
        assert np.max(np.abs(centered - r.r)) < 1e-12

    def test_delay_axis(self, small_cfg, rng):
        s = synthesize(TWO_PI * rng.random(small_cfg.L), small_cfg)
        r = compute_acf(s)
        assert r.delays[r.zero_index] == 0.0
        assert r.delays[-1] == pytest.approx((small_cfg.M - 1) / small_cfg.M)


class TestComputeAf:
    def test_zero_doppler_row_equals_acf(self, small_cfg, rng):
        s = synthesize(TWO_PI * rng.random(small_cfg.L), small_cfg)
        r = compute_acf(s)
        af = compute_af(s, [-4.0, 0.0, 4.0])
        assert np.array_equal(af[1], np.abs(r.r))

    @pytest.mark.parametrize("m", [25, 64])
    def test_matches_direct_lag_doppler_sum(self, m):
        # zero, -0.0, a duplicate 1.5, an unpaired -3 and 2.5, and |nu| = 12 > L;
        # the largest deviation over M = 25, 40, 64 and seeds 1..7 is 1.4e-15,
        # and the bound is about three times that
        cfg = WaveformConfig(L=8, h=0.15, samples=m)
        s = synthesize(random_psk(cfg.L, 32, seed=1), cfg)
        grid = [0.0, -0.0, 1.5, -1.5, 1.5, -3.0, 2.5, 12.0, -12.0]
        assert np.abs(compute_af(s, grid) - direct_af(s.samples, grid)).max() < 4e-15

    def test_zero_delay_cut_is_dirichlet(self, small_cfg, rng):
        s = synthesize(TWO_PI * rng.random(small_cfg.L), small_cfg)
        grid = np.linspace(-6.0, 6.0, 13)
        af = compute_af(s, grid)
        zero = (af.shape[1] - 1) // 2
        expected = np.array(
            [abs(np.sum(np.abs(s.samples) ** 2 * np.exp(1j * TWO_PI * nu * small_cfg.t))) for nu in grid]
        )
        assert np.max(np.abs(af[:, zero] - expected)) < 1e-12

    def test_thumbtack_shape(self, reference_cfg):
        # frozen seed; measured peak-to-median ratio is about 28 dB
        s = synthesize(random_psk(reference_cfg.L, math.inf, seed=1), reference_cfg)
        af = compute_af(s, np.linspace(-24.0, 24.0, 49))
        ratio = db(af.max() ** 2) - db(np.median(af) ** 2)
        assert ratio > 20.0

    def test_origin_is_unity(self, small_cfg, rng):
        s = synthesize(TWO_PI * rng.random(small_cfg.L), small_cfg)
        af = compute_af(s, [0.0])
        zero = (af.shape[1] - 1) // 2
        assert af[0, zero] == pytest.approx(1.0, abs=1e-10)


class TestDetectMainlobeNull:
    def test_triangle_null_at_edge(self):
        cfg, s = rect_waveform(64)
        assert detect_mainlobe_null(compute_acf(s)) == 63

    def test_immediate_minimum(self):
        r = synthetic_corr([0.2, 0.5, 0.1, 0.05])
        assert detect_mainlobe_null(r) == 1

    def test_no_null_raises(self):
        r = synthetic_corr([1.1, 1.2, 1.3, 1.4], zero_value=1.0)
        with pytest.raises(ValueError, match="no null"):
            detect_mainlobe_null(r)

    def test_reference_waveform_regression(self, reference_cfg):
        phi = random_psk(reference_cfg.L, 32, seed=1)
        r = compute_acf(synthesize(phi, reference_cfg))
        null = detect_mainlobe_null(r)
        assert null == REFERENCE_NULL
        lfm_null_samples = reference_cfg.M / reference_cfg.tbp
        assert lfm_null_samples / 2 <= null <= 2 * lfm_null_samples


def dense_mask_reference(null, region, m):
    """Sidelobe and mainlobe masks over the 2M-1 centered lags, by the dense rule.

    The mainlobe is every |k| <= null; the sidelobe is every |k| beyond the
    null, restricted to samples within 1e-9 M of the interval (lo, hi) when
    the region is one, with lo = None standing for the null.
    """
    offsets = np.abs(np.arange(2 * m - 1) - (m - 1))
    w_sl = offsets > null
    if region != "full":
        lo, hi = region
        lo = null / m if lo is None else lo
        tol = 1e-9 * m
        w_sl &= (offsets >= lo * m - tol) & (offsets <= hi * m + tol)
    return w_sl, offsets <= null


class TestBuildWeights:
    # region: "full" (no bounds) or the bounds (lo, hi)
    @pytest.mark.parametrize("null,region,m", [
        (5, "full", 100),
        (9, (9 / 1000, 0.1), 1000),  # starts exactly at the null
        (9, (0.009, 0.1), 1000),  # the null as a rounded fraction
        (3, (7 / 50, 7 / 50), 50),  # lo == hi on a sample
        (3, (0.2, (10 + 1e-9 * 50) / 50), 50),  # hi one tolerance beyond a sample
        (3, (0.1, (10 - 2e-9 * 50) / 50), 50),  # hi two tolerances short of one
        (2, "full", 9),  # M = 2L + 1 at L = 4
        (8, "full", 9),  # the null at the last lag: empty sidelobe region
        (9, (None, 0.1), 1000),  # lo defaults to the null
        (2, (3 / 9, 5 / 9), 9),
        (8, (None, 1.0), 9),  # the null at the last lag: no lag in any interval
        (3, (1.5, 2.0), 50),  # lo beyond the last lag
        (3, (10.2 / 50, 10.8 / 50), 50),  # between two samples
    ])
    def test_matches_dense_mask_reference(self, null, region, m):
        w = build_weights(null, m, *((None, None) if region == "full" else region))
        w_sl, w_ml = dense_mask_reference(null, region, m)
        offsets = np.abs(np.arange(2 * m - 1) - (m - 1))
        sl_lags = np.arange(w.sl_first, w.sl_last + 1)
        assert np.array_equal(np.isin(offsets, sl_lags), w_sl)
        assert np.array_equal(offsets <= w.null_index, w_ml)
        # so an empty support is the one canonical range sl_last = sl_first - 1
        assert sl_lags.size == w_sl.sum() // 2
        assert w.null_index == null and w.M == m

    def test_full_band_partitions_delay_axis(self):
        w = build_weights(5, 100)
        assert (w.null_index + 1, w.sl_last + 1) == (w.sl_first, 100)

    def test_interval_support_count(self):
        null, m = 9, 1000
        w = build_weights(null, m, null / m, 0.1)
        assert (w.sl_first, w.sl_last) == (null + 1, 100)

    def test_mainlobe_support(self):
        assert build_weights(3, 50) == GislWeights(null_index=3, sl_first=4, sl_last=49, M=50)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlaps the mainlobe"):
            build_weights(9, 1000, 0.0, 0.1)

    def test_interval_ending_inside_mainlobe_names_the_null(self):
        # the region's lo defaults to the detected null, here 9 samples = 0.009 T
        with pytest.raises(ValueError, match=r"ends inside the mainlobe \(first null at 9 samples"):
            build_weights(9, 1000, 0.009, 0.005)
        # an interval that ends on the null touches the mainlobe and selects no lag
        assert build_weights(9, 1000, 0.009, 0.009) == GislWeights(9, 10, 9, 1000)

    @pytest.mark.parametrize("fields,rule", [
        ((-1, 1, 2, 5), "0 <= null_index"),
        ((2, 2, 3, 5), "null_index < sl_first"),
        ((1, 4, 2, 5), "sl_first <= sl_last"),
        ((1, 2, 5, 5), r"sl_last \+ 1 <= M"),
    ])
    def test_hand_built_range_rejected(self, fields, rule):
        # a slice would read a wrong range where a lag array failed to index
        with pytest.raises(ValueError, match=rule):
            GislWeights(*fields)

    @pytest.mark.parametrize("value", [3.5, 10.0])
    @pytest.mark.parametrize("field", ["null_index", "sl_first", "sl_last", "M"])
    def test_non_integer_field_rejected(self, field, value):
        # a float would fail later, as a slice index, with a TypeError
        fields = {"null_index": 2, "sl_first": 3, "sl_last": 10, "M": 32, field: value}
        with pytest.raises(ValueError, match=f"integer {field}"):
            GislWeights(**fields)

    def test_numpy_integers_accepted(self):
        w = GislWeights(*np.array([2, 3, 10, 32]))
        assert w == GislWeights(2, 3, 10, 32)

    def test_bad_null_index(self):
        with pytest.raises(ValueError):
            build_weights(0, 100)

    def test_bad_interval(self):
        with pytest.raises(ValueError, match="invalid region interval"):
            build_weights(5, 100, 0.3, 0.2)

    def test_lo_without_hi_rejected(self):
        with pytest.raises(ValueError, match="needs hi"):
            build_weights(5, 100, lo=0.1)


def single_sample_weights(m, offset):
    """The sidelobe is lag +-offset and the mainlobe lag 0 alone."""
    return GislWeights(null_index=0, sl_first=offset, sl_last=offset, M=m)


class TestComputeGisl:
    @pytest.mark.parametrize("p", [2, 6, 20])
    def test_single_sample_ratio(self, p):
        # the sidelobe lag counts at -3 and +3, so its p-sum is 2 * 0.1^p over
        # a unit mainlobe: (2 * 0.1^p)^(2/p) = 0.01 * 2^(2/p)
        r = synthetic_corr([0.0, 0.0, 0.1, 0.0])
        w = single_sample_weights(5, 3)
        assert compute_gisl(r, w, p) == pytest.approx(0.01 * 2 ** (2 / p), rel=1e-12)
        assert db(compute_gisl(r, w, p)) == pytest.approx(-20.0 + db(2) * 2 / p, abs=1e-9)

    def test_equals_isl_at_p2(self, reference_cfg):
        for seed in range(5):
            phi = random_psk(reference_cfg.L, math.inf, seed=seed)
            r = compute_acf(synthesize(phi, reference_cfg))
            null = detect_mainlobe_null(r)
            w = build_weights(null, reference_cfg.M)
            isl = plain_isl(r.r, w)
            gisl = compute_gisl(r, w, 2)
            assert abs(gisl - isl) <= 1e-12 * abs(isl)

    def test_typical_level_band(self, reference_cfg):
        # typical full-band value around -14.7 dB, seed dependent +-2 dB
        values = [
            db(
                compute_gisl(
                    (r := compute_acf(synthesize(random_psk(24, math.inf, seed=s), reference_cfg))),
                    build_weights(detect_mainlobe_null(r), reference_cfg.M),
                    20,
                )
            )
            for s in range(20)
        ]
        assert -16.7 <= float(np.median(values)) <= -12.7

    @pytest.mark.parametrize("p", [1, 3, 0, 2.5])
    def test_bad_p(self, p):
        r = synthetic_corr([0.1, 0.2])
        w = single_sample_weights(3, 1)
        with pytest.raises(ValueError, match="even integer"):
            compute_gisl(r, w, p)

    def test_empty_sidelobe_support_gives_zero(self):
        r = synthetic_corr([0.1, 0.2])
        silent = GislWeights(null_index=1, sl_first=2, sl_last=1, M=3)
        assert compute_gisl(r, silent, 2) == 0.0
        assert compute_gisl(r, silent, 10000) == 0.0
        assert db(compute_gisl(r, silent, 2)) == float("-inf")


def fold_case(case, cfg):
    """(r, weights) of one fold case: a pulse's ACF on the full band, on the
    last lag alone, or with lag 0 as the whole mainlobe; or a hand-built
    conjugate-symmetric r whose mainlobe peaks at lag 1, not at lag 0."""
    if case == "off-zero peak":
        m = 16
        rng = np.random.default_rng(7)
        half = 0.3 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        half[:2] = 0.5, 0.6 + 0.8j
        r = np.concatenate((np.conj(half[:0:-1]), half))
        return CorrelationResult(r=r), GislWeights(3, 5, m - 1, m)
    r = compute_acf(synthesize(random_psk(cfg.L, math.inf, seed=1), cfg))
    null, m = detect_mainlobe_null(r), cfg.M
    weights = {
        "full": build_weights(null, m),
        "last lag": GislWeights(null, m - 1, m - 1, m),
        "lag-0 mainlobe": GislWeights(0, null, null, m),
    }[case]
    return r, weights


@pytest.mark.parametrize("p", [2, 20, 1000])
@pytest.mark.parametrize("case", ["full", "last lag", "lag-0 mainlobe", "off-zero peak"])
def test_gisl_matches_two_sided_log_domain_oracle(reference_cfg, case, p):
    # compute_gisl reads lags k >= 0 and counts each twice, lag 0 once; the
    # oracle reads both signs of r where they sit
    r, w = fold_case(case, reference_cfg)
    expected = log_domain_gisl(r.r, w, p)
    assert abs(compute_gisl(r, w, p) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("p", [2, 20, 1000])
@pytest.mark.parametrize("case", ["full", "last lag"])
def test_workspace_cost_equals_compute_gisl(reference_cfg, case, p):
    r, w = fold_case(case, reference_cfg)
    ws = GradientWorkspace(reference_cfg, w, p)
    expected = compute_gisl(r, w, p)
    assert abs(ws.cost(random_psk(reference_cfg.L, math.inf, seed=1)) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("metric", [
    lambda r, w: compute_gisl(r, w, 2),
    compute_pslr,
], ids=["gisl", "pslr"])
@pytest.mark.parametrize("values,m", [([0.1, 0.2], 5), ([0.1, 0.2, 0.3, 0.4], 3)])
def test_length_mismatch_rejected(metric, values, m):
    # weights built for another M: a longer r would otherwise be read at the
    # wrong lags without an error
    with pytest.raises(ValueError, match="length"):
        metric(synthetic_corr(values), single_sample_weights(m, 2))


@pytest.mark.parametrize("hi", [None, 0.1], ids=["full", "interval"])
def test_negative_lags_are_never_read(reference_cfg, hi):
    # lag -k is the conjugate of lag +k, so the metrics read lags 0..M-1 only:
    # a negative half ten times too large changes nothing
    r = compute_acf(synthesize(random_psk(reference_cfg.L, math.inf, seed=1), reference_cfg))
    w = build_weights(detect_mainlobe_null(r), reference_cfg.M, None, hi)
    skewed = r.r.copy()
    skewed[: r.zero_index] *= 10.0
    other = CorrelationResult(r=skewed)
    assert detect_mainlobe_null(other) == detect_mainlobe_null(r)
    assert compute_pslr(other, w) == compute_pslr(r, w)
    for p in (2, 20, 1000):
        assert compute_gisl(other, w, p) == compute_gisl(r, w, p)


class TestComputePslr:
    def test_triangle_has_no_sidelobes(self):
        cfg, s = rect_waveform(32)
        r = compute_acf(s)
        assert compute_pslr(r, build_weights(detect_mainlobe_null(r), 32)) == float("-inf")

    def test_synthetic_peak(self):
        r = synthetic_corr([0.0, 0.05, 0.1, 0.02])
        assert compute_pslr(r, build_weights(1, 5)) == pytest.approx(-20.0, abs=1e-9)

    def test_weights_restrict_search(self):
        r = synthetic_corr([0.0, 0.5, 0.1, 0.02])
        w = single_sample_weights(5, 3)  # only the 0.1 sample is selected
        assert compute_pslr(r, w) == pytest.approx(-20.0, abs=1e-9)
        assert compute_pslr(r, build_weights(1, 5)) == pytest.approx(db(0.25), abs=1e-9)

    def test_typical_level_band(self, reference_cfg):
        values = []
        for seed in range(20):
            r = compute_acf(synthesize(random_psk(24, math.inf, seed=seed), reference_cfg))
            w = build_weights(detect_mainlobe_null(r), reference_cfg.M)
            values.append(compute_pslr(r, w))
        assert -17.2 <= float(np.median(values)) <= -13.2


class TestGislApproachesPslr:
    def test_gap_nonincreasing_in_p(self, reference_cfg):
        for seed in range(6):
            r = compute_acf(synthesize(random_psk(24, math.inf, seed=seed), reference_cfg))
            null = detect_mainlobe_null(r)
            w = build_weights(null, reference_cfg.M)
            pslr = compute_pslr(r, w)
            ps = (2, 6, 10, 20, 100, 400, 1000, 10000)
            gaps = [abs(db(compute_gisl(r, w, p)) - pslr) for p in ps]
            assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
            assert gaps[-1] < 0.01
