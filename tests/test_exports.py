"""Byte-for-byte checks of the table writers against per-value formatting.

Each expected file is built the slow way: one value at a time through the
reference formatters in ``oracles``, with the same arithmetic per value as a
scalar loop would do. The writers format whole arrays, so any drift in the
dB encoding, the number format, the column order or the line endings shows
up as a byte difference.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ceofdm import (
    CorrelationResult,
    WaveformConfig,
    compute_acf,
    compute_af,
    db,
    random_psk,
    sample_frequency,
    synthesize,
)
from ceofdm import exports, metrics
from ceofdm.exports import (
    write_acf_csv,
    write_af_csv,
    write_inst_freq_csv,
    write_phi_csv,
    write_quantization_csv,
    write_spectrogram_csv,
    write_spectrum_csv,
    write_trace_csv,
    write_waveform_csv,
)
from ceofdm.optimizer import OptimizationTrace, TraceRow
from ceofdm.quantize import QuantizationRow
from oracles import csv_bytes, fmt_db, fmt_e, full_csv, per_frame_stft, per_row_af

CONFIGS = {
    # ordinary pulse; M = 200
    "psk": WaveformConfig(L=8, tbp=40.0),
    # h = 0 over 24 subcarriers: tbp = 0, so the spectrum's over_df column is 0
    "h0": WaveformConfig(L=24, h=0.0, samples=300),
    # rectangular pulse: exact spectral zeros (-inf -> -999) and a floored AF
    "rect": WaveformConfig(L=1, h=0.0, samples=128),
}


@pytest.fixture(params=sorted(CONFIGS))
def pulse(request):
    cfg = CONFIGS[request.param]
    phi = random_psk(cfg.L, 2, seed=5)
    return cfg, phi, synthesize(phi, cfg)


def test_encode_db_scalar_and_array():
    # the scalar form encodes a dB cell of the quantization report
    x = np.array([-np.inf, -1e4, -200.0, -199.5, -0.0, 3.0, np.inf, np.nan])
    expected = np.array([-999.0, -200.0, -200.0, -199.5, -0.0, 3.0, np.inf, np.nan])
    assert type(exports._db_cell(np.float64(-np.inf))) is float
    assert exports._db_cell(-np.inf) == -999.0
    cells = np.array([exports._db_cell(v) for v in x])
    assert np.array_equal(cells, expected, equal_nan=True)
    assert np.array_equal(np.signbit(cells), np.signbit(expected))  # -0.0 stays -0.0
    # the array form takes powers, in place, and agrees with the scalar form of their dB
    power = np.array([[7.0, 0.0, 1e-30, 10**-19.95, 5e-324, 1.0, np.inf, np.nan]] * 2)
    with np.errstate(divide="ignore"):
        cells = [[exports._db_cell(v) for v in row[1:]] for row in 10.0 * np.log10(power)]
    view = power[:, 1:]  # strided: the dB is taken in place, through the view
    assert exports._power_db(view) is view
    assert np.array_equal(view, cells, equal_nan=True)
    assert view[0, :5].tolist() == [-999.0, -200.0, 10.0 * np.log10(10**-19.95), -200.0, 0.0]
    assert power[:, 0].tolist() == [7.0, 7.0]  # outside the view: untouched


def test_waveform_csv(tmp_path, pulse):
    cfg, _, s = pulse
    rows = [
        [str(i), fmt_e(i / cfg.M), fmt_e(s.samples[i].real), fmt_e(s.samples[i].imag)]
        for i in range(cfg.M)
    ]
    write_waveform_csv(tmp_path / "w.csv", s)
    assert (tmp_path / "w.csv").read_bytes() == csv_bytes("sample_index,t_over_T,real,imag", rows)


def test_inst_freq_csv(tmp_path, pulse):
    cfg, phi, _ = pulse
    freq = sample_frequency(phi, cfg)
    rows = [[str(i), fmt_e(i / cfg.M), fmt_e(freq[i])] for i in range(cfg.M)]
    write_inst_freq_csv(tmp_path / "f.csv", phi, cfg)
    assert (tmp_path / "f.csv").read_bytes() == csv_bytes("sample_index,t_over_T,freq_times_T", rows)


def test_spectrum_csv(tmp_path, pulse):
    cfg, _, s = pulse
    nfft = 4 * cfg.M
    power = np.abs(np.fft.fftshift(np.fft.fft(s.samples, nfft))) ** 2
    power_db = db(power / power.max())
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / cfg.M))
    rows = [
        [fmt_e(freqs[i]), fmt_e(freqs[i] / cfg.tbp if cfg.tbp > 0 else 0.0), fmt_db(power_db[i])]
        for i in range(nfft)
    ]
    write_spectrum_csv(tmp_path / "s.csv", s, cfg)
    assert (tmp_path / "s.csv").read_bytes() == csv_bytes("freq_times_T,freq_over_df,magnitude_db", rows)


def test_spectrogram_csv(tmp_path, pulse):
    cfg, _, s = pulse
    nperseg = min(128, max(8, cfg.M // 8))
    hop = max(1, nperseg // 4)
    frames, centers = per_frame_stft(s.samples, nperseg, hop)
    power = np.abs(frames) ** 2
    power_db = db(power / power.max())
    freqs = np.fft.fftshift(np.fft.fftfreq(nperseg, d=1.0 / cfg.M))
    header = "freq_times_T," + ",".join(fmt_e(c / cfg.M) for c in centers)
    rows = [[fmt_e(freqs[i])] + [fmt_db(v) for v in power_db[i]] for i in range(nperseg)]
    write_spectrogram_csv(tmp_path / "g.csv", s, cfg)
    assert (tmp_path / "g.csv").read_bytes() == csv_bytes(header, rows)


@pytest.mark.parametrize("M", [7, 70, 128, 1040, 25000])
def test_batched_stft_matches_per_frame_loop(M):
    # the frame sizes write_spectrogram_csv uses: one whole-pulse frame at
    # M = 7, hop 2 at M = 70, and 128-sample frames at hop 32 from M = 1024 on
    nperseg = min(128, max(8, M // 8), M)
    hop = max(1, nperseg // 4)
    samples = np.exp(1j * 2 * np.pi * np.random.default_rng(M).random(M))
    mag, centers = exports._stft(samples, nperseg, hop)
    expected_frames, expected_centers = per_frame_stft(samples, nperseg, hop)
    assert np.array_equal(mag, np.abs(expected_frames))
    assert np.array_equal(centers, expected_centers)


def expected_acf(r: CorrelationResult) -> bytes:
    mag_db = db(np.abs(r.r) ** 2)
    m = (len(r.r) + 1) // 2
    rows = []
    for k in range(len(r.r)):
        u = k - r.zero_index
        rows.append([str(u), fmt_e(u / m), fmt_db(mag_db[k])])
    return csv_bytes("delay_samples,delay_over_T,magnitude_db", rows)


def expected_af(values: np.ndarray, dopplers) -> bytes:
    """af.csv of the rows at the Dopplers >= 0, the slow way: the mirrored
    full surface, the -nu of each nu > 0, last first, with its row reversed
    in delay, then the given rows, each value formatted on its own."""
    mirrored = [i for i in range(len(dopplers)) if dopplers[i] > 0][::-1]
    dopplers = [-dopplers[i] for i in mirrored] + list(dopplers)
    values = np.concatenate((values[mirrored, ::-1], values))
    with np.errstate(divide="ignore"):
        values_db = 10.0 * np.log10(values**2)
    m = (values.shape[1] + 1) // 2
    header = "doppler_times_T," + ",".join(fmt_e(u / m) for u in range(1 - m, m))
    rows = [
        [fmt_e(dopplers[i])] + [fmt_db(v) for v in values_db[i]]
        for i in range(len(dopplers))
    ]
    return csv_bytes(header, rows)


def test_acf_csv(tmp_path, pulse):
    cfg, _, s = pulse
    r = compute_acf(s)
    write_acf_csv(tmp_path / "a.csv", r)
    assert (tmp_path / "a.csv").read_bytes() == expected_acf(r)


def test_af_csv(tmp_path, pulse):
    cfg, _, s = pulse
    nu = np.linspace(0.0, cfg.L, 5)
    af = compute_af(s, nu)
    write_af_csv(tmp_path / "af.csv", af, nu)
    assert (tmp_path / "af.csv").read_bytes() == expected_af(af, nu)


def test_interrupted_rewrite_keeps_header_and_first_block(tmp_path, monkeypatch):
    # 8191 lags in blocks of _BLOCK_VALUES // 2 rows: two blocks
    r = compute_acf(synthesize(random_psk(8, 2, seed=5), WaveformConfig(L=8, samples=4096)))
    write_acf_csv(tmp_path / "whole.csv", r)
    lines = (tmp_path / "whole.csv").read_bytes().splitlines(keepends=True)
    path = tmp_path / "acf.csv"
    path.write_bytes(b"x" * 2 * len(b"".join(lines)))
    encode, calls = exports._encode_block, []

    def fail_second_call(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return encode(*args)

    monkeypatch.setattr(exports, "_encode_block", fail_second_call)
    with pytest.raises(RuntimeError, match="interrupted"):
        write_acf_csv(path, r)
    assert len(calls) == 2
    assert path.read_bytes() == b"".join(lines[: 1 + exports._BLOCK_VALUES // 2])


def test_af_csv_with_doppler_fields_longer_than_a_slot(tmp_path):
    # 1e-100 mirrors to -1e-100, which prints 21 bytes with its comma, so
    # every row's Doppler takes two slots; -0.0 and 0.0 are written once, and
    # 1e300 and +inf mirror to -1e300 and -inf
    nu = np.array([1e-100, 1e300, -0.0, np.inf, 0.0])
    rng = np.random.default_rng(8)
    values = rng.random((nu.size, 5)) * [[1e-3], [1.0], [2.0], [1e3], [0.0]]
    write_af_csv(tmp_path / "af.csv", values, nu)
    assert (tmp_path / "af.csv").read_bytes() == expected_af(values, nu)


def test_interrupted_af_rewrite_keeps_only_its_header(tmp_path, monkeypatch, survey_af):
    # each block writes the -nu lines of its rows, which sit before them in
    # the file, and then its rows, at planned offsets: the first write lands
    # past the header, the second fails, and the file is cut back to the header
    cfg, s, nu = survey_af
    af = compute_af(s, nu)
    write_af_csv(tmp_path / "whole.csv", af, nu)
    whole = (tmp_path / "whole.csv").read_bytes()
    path = tmp_path / "af.csv"
    path.write_bytes(b"x" * 2 * len(whole))
    pwrite, calls = exports._pwrite, []

    def fail_second_call(fd, data, offset):
        calls.append(offset)
        if len(calls) == 2:
            raise OSError("interrupted")
        return pwrite(fd, data, offset)

    monkeypatch.setattr(exports, "_pwrite", fail_second_call)
    with pytest.raises(OSError, match="interrupted"):
        write_af_csv(path, af, nu)
    header = whole[: whole.index(b"\n") + 1]
    assert len(calls) == 2 and calls[0] > len(header)
    assert path.read_bytes() == header


def test_af_csv_rejects_unmirrored_rows_and_non_finite_values(tmp_path, survey_af):
    # the writer adds every -nu row itself: a row at a negative or nan
    # Doppler is refused, as is a |chi|^2 that is not finite
    cfg, s, nu = survey_af
    af = compute_af(s, nu)
    path = tmp_path / "af.csv"
    for doppler in (-nu[5], np.nan):
        bad = nu.copy()
        bad[5] = doppler
        with pytest.raises(ValueError, match=f"af Doppler {doppler:g} is not >= 0"):
            write_af_csv(path, af, bad)
    for row in (0, 30):
        for value in (np.inf, np.nan):
            bad = af.copy()
            bad[row, 3] = value
            with pytest.raises(ValueError, match=rf"af row {row} \(doppler {nu[row]:g}\) "):
                write_af_csv(path, bad, nu)
    assert not path.exists()  # every check runs before the file is opened


def test_rectangular_af_reaches_floor(tmp_path):
    cfg = CONFIGS["rect"]
    s = synthesize(np.zeros(1), cfg)
    nu = np.linspace(0.0, 3.0, 7)
    af = compute_af(s, nu)
    write_af_csv(tmp_path / "af.csv", af, nu)
    text = (tmp_path / "af.csv").read_text()
    assert "-2.000000000000e+02" in text
    assert (tmp_path / "af.csv").read_bytes() == expected_af(af, nu)


def test_exact_zeros_and_tiny_values(tmp_path):
    # |r| = 0 is -inf dB (written -999); |r| = 1e-120 is -2400 dB (written -200)
    r = CorrelationResult(r=np.array([0.0, 1e-120, 0.5j, 1.0, -0.5, 1e-120, 0.0]), )
    write_acf_csv(tmp_path / "a.csv", r)
    text = (tmp_path / "a.csv").read_text()
    assert text.count("-9.990000000000e+02") == 2
    assert text.count("-2.000000000000e+02") == 2
    assert (tmp_path / "a.csv").read_bytes() == expected_acf(r)

    # the row at nu = 1 is written twice, the second time at -1 reversed
    values = np.array([[0.0, 1e-120, 1.0], [0.25, 0.0, 1e-150]])
    nu = np.array([0.0, 1.0])
    write_af_csv(tmp_path / "af.csv", values, nu)
    text = (tmp_path / "af.csv").read_text()
    assert text.count("-9.990000000000e+02") == 3
    assert text.count("-2.000000000000e+02") == 3
    assert (tmp_path / "af.csv").read_bytes() == expected_af(values, nu)


def assert_af_matches_per_row_loop(cfg, s, nu):
    """compute_af against per_row_af, every row bit for bit; and the premise
    of write_af_csv, each row reversed in delay against the row at -nu."""
    nu = np.asarray(nu, dtype=float)
    af = compute_af(s, nu)
    assert np.array_equal(af, per_row_af(s.samples, cfg.t, nu))
    # |chi(-tau, -nu)| = |chi(tau, nu)| to rounding: the row at -nu rounds
    # through its own spectrum G at -nu, not through the +nu row's; over the
    # grids below they differ by at most 1.01e-15 (M = 1040, seed 2), and the
    # bound is about twice that
    assert np.abs(af[:, ::-1] - compute_af(s, -nu)).max() <= 2.0e-15


@pytest.mark.parametrize("cfg", [WaveformConfig(L=8, h=0.15, samples=70), WaveformConfig(L=24, tbp=208.0)])
def test_batched_af_matches_per_row_loop(cfg):
    assert cfg.M in (70, 1040)
    s = synthesize(random_psk(cfg.L, 32, seed=2), cfg)
    assert_af_matches_per_row_loop(cfg, s, np.linspace(-cfg.L, cfg.L, 97))


# Doppler grids in units of 1/T, each row correlated on its own
AF_EDGE_GRIDS = {
    "symmetric-even": [-3.0, -1.5, -0.5, 0.5, 1.5, 3.0],  # every row paired, no zero
    "unpaired": [-3.0, 0.5, -0.5, 2.0, -7.0, 4.0],  # -3, 2, -7 and 4 without a mirror
    "duplicate-negative": [-1.0, -1.0, 1.0],  # both -1 rows are correlated
    "negative-zero": [-0.0, -2.0, 0.0, 2.0],
    "zero-only": [0.0],
}


@pytest.mark.parametrize("grid", sorted(AF_EDGE_GRIDS))
def test_paired_af_matches_per_row_loop_on_edge_grids(grid):
    cfg = WaveformConfig(L=8, h=0.15, samples=70)
    s = synthesize(random_psk(cfg.L, 32, seed=3), cfg)
    assert_af_matches_per_row_loop(cfg, s, AF_EDGE_GRIDS[grid])


def test_paired_af_blocks_match_per_row_loop():
    # 17 pairs, zero and an unpaired row in shuffled order at tbp = 208
    # (N = 2160, 7 rows per block): 36 rows, in five blocks of 7 and one of 1
    cfg = WaveformConfig(L=24, tbp=208.0)
    s = synthesize(random_psk(cfg.L, 32, seed=3), cfg)
    half = 0.75 * np.arange(1, 18)
    nu = np.random.default_rng(6).permutation(np.concatenate([-half, [0.0], half, [-20.0]]))
    rows_per_block = metrics._AF_BLOCK_POINTS // metrics._fft_length(cfg.M) // 2
    assert nu.size > 2 * rows_per_block and nu.size % rows_per_block
    assert_af_matches_per_row_loop(cfg, s, nu)


@pytest.fixture(scope="module")
def survey_af():
    """The survey surface's 49 rows at nu >= 0, as synth computes them, at
    tbp = 208 (M = 1040, N = 2160); its af.csv holds 97 rows."""
    cfg = WaveformConfig(L=24, tbp=208.0)
    s = synthesize(random_psk(cfg.L, 32, seed=4), cfg)
    nu = np.arange(49.0) * cfg.L / 48
    return cfg, s, nu


def test_blocked_af_csv_matches_per_value_format(tmp_path, survey_af):
    cfg, s, nu = survey_af
    # several encoder blocks, the last one partial: 3 rows (6240 values) per
    # block, each with its -nu lines. The AF's own blocks are pinned by
    # test_paired_af_blocks_match_per_row_loop
    encoder_rows = exports._BLOCK_VALUES // (2 * cfg.M)
    assert 1 < encoder_rows < len(nu) // 2 and len(nu) % encoder_rows
    af = compute_af(s, nu)
    write_af_csv(tmp_path / "af.csv", af, nu)
    assert (tmp_path / "af.csv").read_bytes() == expected_af(af, nu)


def test_af_transient_memory_is_block_sized(tmp_path, survey_af):
    cfg, s, nu = survey_af
    compute_af(s, nu)  # caches the FFT plans and lag layouts out of the measurement
    tracemalloc.start()
    try:
        af = compute_af(s, nu)
        af_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        write_af_csv(tmp_path / "af.csv", af, nu)
        csv_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    surface = 97 * af.shape[1] * af.itemsize  # the 97-row surface of af.csv, 1.5 MiB
    # compute_af: the 49 rows it returns (0.8 MiB), fft(s), and the scratch of
    # one Doppler block: its shifted copy, one spectrum, inverted in place, and
    # its magnitudes, each at most _AF_BLOCK_POINTS complex values (0.5 MiB).
    # The bound is the 97-row surface and six of them (1.5 MiB is measured);
    # one FFT batch over all 97 rows needs several (97, 2160) complex arrays,
    # 3.2 MiB each, and read 12.6 MiB.
    assert af_peak < surface + 6 * metrics._AF_BLOCK_POINTS * 16
    # write_af_csv: one encoder block in flight, about 80 bytes per value of
    # _BLOCK_VALUES, so 1 MiB: a block of rows and the slots of their -nu
    # lines (0.7 MiB measured; 0.6 through _write_table). It is under one
    # surface-sized array: dB tables of the whole surface read 4.8 MiB.
    assert csv_peak < exports._BLOCK_VALUES * 128 < surface


@pytest.mark.parametrize(
    "writer, bound", [("spectrum", 10.0), ("acf", 3.5), ("waveform", 1.5), ("spectrogram", 3.0)]
)
def test_table_writers_hold_no_whole_table(tmp_path, writer, bound):
    # M = 100k, bounds in complex M-point arrays (1.6 MB). The spectrum's
    # FFT holds its padded input and its output, 4 arrays each, and the
    # writer keeps |X|, the grid and over_df, 2 each: 8.0 is measured. The
    # ACF holds |r| and its delays, 1 each (2.5), and the waveform its time
    # column (1.0). Stacking each whole table first read 16.4, 5.0 and 2.4.
    # The spectrogram keeps its |X| table, 128 rows of M/32 frames (2.0), and
    # one block of frames (2.4); transforming every frame in one batch read 8.0.
    cfg = WaveformConfig(L=256, tbp=20000.0)
    s = synthesize(random_psk(cfg.L, 2, seed=1), cfg)
    r = compute_acf(s)
    write = {
        "spectrum": lambda path: write_spectrum_csv(path, s, cfg),
        "acf": lambda path: write_acf_csv(path, r),
        "waveform": lambda path: write_waveform_csv(path, s),
        "spectrogram": lambda path: write_spectrogram_csv(path, s, cfg),
    }[writer]
    path = tmp_path / f"{writer}.csv"
    write(path)  # caches the FFT plans out of the measurement
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        write(path)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < bound * 16 * cfg.M


def encoder_values() -> np.ndarray:
    """Edge cases of the %.12e block encoder, more of them than one block holds."""
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2**63, 40000, dtype=np.uint64, endpoint=True)
    random = bits.view(np.float64)
    subnormal = rng.integers(1, 2**52, 500, dtype=np.uint64).view(np.float64)
    powers = np.array([float(f"1e{e}") for e in range(-30, 31)])
    neighbours = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    # the fast path's edges: mantissas that carry to 1.000000000000e+(e+1) at
    # each of its exponents, and the neighbours of its limits 1e-10 and 1e13
    carries = np.array([float(f"9.9999999999997e{e}") for e in range(-10, 13)])
    limits = np.array([1e-10, 1e13])
    edges = np.concatenate([carries, np.nextafter(limits, 0.0), np.nextafter(limits, np.inf)])
    # mantissas within rounding of a decimal tie, scaled by every power of ten up to 1e22 either way
    n = rng.integers(10**12, 10**13, 4000) + 0.5
    k = rng.integers(-22, 23, 4000)
    near_ties = np.where(k >= 0, n / 10.0 ** np.abs(k), n * 10.0 ** np.abs(k))
    ties = np.concatenate([[1234567890123.5, 2.5, 0.5, 9.9999999999995], 0.5 * 10.0 ** np.arange(-30, 31)])
    special = [0.0, -0.0, -999.0, -200.0, np.inf, -np.inf, np.nan, -np.nan]
    huge = [1e100, -3.7e150, 1.5e-200, 1.7976931348623157e308, -2.2250738585072014e-308]
    values = np.concatenate([random, subnormal, neighbours, edges, near_ties, ties, special, huge])
    return np.concatenate([values, -values])


def expected_table(header, header_values, table, index) -> bytes:
    head = ",".join([header, *map(fmt_e, header_values)])
    return csv_bytes(head, [[str(i), *map(fmt_e, row)] for i, row in zip(index, table)])


def exact_half_products() -> dict[int, list[float]]:
    """Fast-path values whose product m = fl(|x| * 10**k) is exactly n + 0.5,
    keyed by the sign of the exact product minus m: -1, 0 (a true tie) or +1."""
    rng = np.random.default_rng(9)
    found = {-1: [], 0: [], 1: []}
    for n, k in zip(rng.integers(10**12, 10**13 - 1, 400).tolist(), rng.integers(1, 23, 400).tolist()):
        x0 = (n + 0.5) / 10.0**k
        for x in (np.nextafter(x0, 0.0), x0, np.nextafter(x0, np.inf)):
            if float(x) * 10.0**k == n + 0.5:
                side = Fraction(float(x)) * 10**k - Fraction(2 * n + 1, 2)
                found[(side > 0) - (side < 0)].append(float(x))
    return found


def formatted(table, index=None) -> bytes:
    """One block's bytes, each value formatted on its own."""
    lead = [[] if index is None else [str(i)] for i in ([None] * len(table) if index is None else index)]
    return csv_bytes("", [[*head, *map(fmt_e, row)] for head, row in zip(lead, table)])[1:]


def encoded(table, index=None) -> bytes:
    table = np.asarray(table, dtype=float)
    return bytes(exports._encode_block(table, None if index is None else np.asarray(index, np.int64)))


def test_block_encoder_matches_per_value_format(tmp_path):
    values = encoder_values()
    assert values.size > exports._BLOCK_VALUES
    table = values[: values.size // 7 * 7].reshape(-1, 7)
    index = np.arange(len(table)) - len(table) // 2  # negative, zero and positive
    header_values = values[-50:]
    path = tmp_path / "t.csv"
    header = exports._numeric_header("i,a,b,c,d,e,f,g", header_values)
    exports._write_table(path, header, list(table.T), first_index=index[0])
    expected = expected_table("i,a,b,c,d,e,f,g", header_values, table, index)
    assert path.read_bytes() == expected

    wide = [-(10**18), -(10**15), -10, -1, 0, 7, 10**18]
    assert encoded(values[:7, None], wide) == formatted(values[:7, None], wide)


def test_products_on_a_half_round_like_the_exact_value():
    found = exact_half_products()
    # each side of n + 0.5 is reached, and a true tie breaks to even
    assert min(len(found[-1]), len(found[1])) >= 50
    assert encoded([[1234567890123.5, 9876543210124.5]]) == b"1.234567890124e+12,9.876543210124e+12\n"
    table = np.array(found[-1][:50] + found[1][:50] + found[0][:2]).reshape(-1, 6)
    expected = formatted(table)
    assert encoded(table) == expected
    assert encoded(-table) == formatted(-table)

    # the inputs have power: on each side some m = n + 0.5 rounds half to even,
    # as np.rint alone would, to other digits than %.12e prints
    def digits(x):  # %.12e's 13 digits, and those of rint(m)
        text = f"{x:.12e}"
        m = x * 10.0 ** (12 - int(text[-3:]))
        return text[:14].replace(".", ""), "%d" % np.rint(m)

    for side in (-1, 1):
        assert any(exact != rint for exact, rint in map(digits, found[side][:50]))


# fallbacks of 21 bytes with their separator, first and last in a row
LONG_FIELDS = [-1.5e-300, -2.2250738585072014e-308, -1e100, -np.inf, np.nan]


@pytest.mark.parametrize("column", [0, 1, 2])
def test_fallbacks_longer_than_a_slot(column):
    table = np.full((4, 3), -0.125)
    table[:, column] = LONG_FIELDS[:4]
    table[1] = LONG_FIELDS[1:4]
    assert encoded(table) == formatted(table)
    index = [-(10**18), 3, -7, 2**63 - 1]
    assert encoded(table, index) == formatted(table, index)


@pytest.mark.parametrize(
    "index",
    [
        [-(10**18), -(10**18) + 1, 10**18, -(2**63), 2**63 - 1],  # 21, 20 and 20 bytes with the comma
        [-(10**18)] * 3,  # every field too long
        [10**18 - 1, -999, 0, 10**9, -(10**17)],
    ],
)
def test_index_widths(index):
    table = np.linspace(-1.0, 1.0, 2 * len(index)).reshape(-1, 2)
    assert encoded(table, index) == formatted(table, index)


@pytest.mark.parametrize(
    "values",
    [
        -np.geomspace(1e-9, 1e12, 3000),  # every field fills its slot
        np.geomspace(1e-9, 1e12, 3000),  # one zero byte in every slot
        np.tile([np.nan, np.inf, -np.inf, 0.0, 1e300, -1e-300], 500),  # all fallback, most short
    ],
    ids=["negative", "positive", "fallback"],
)
def test_uniform_blocks(values):
    table = values.reshape(-1, 6)
    assert encoded(table) == formatted(table)
    index = np.arange(len(table))
    assert encoded(table, index) == formatted(table, index)


def test_phi_csv_bytes(tmp_path):
    phi = [-1.25, 5e-324, 1e300, 0.1, -np.pi, 0.0, -2.5e-17]
    write_phi_csv(tmp_path / "phi.csv", np.array(phi))
    expected = full_csv("ell,phi_rad", [(ell, value) for ell, value in enumerate(phi, start=1)])
    assert (tmp_path / "phi.csv").read_bytes() == expected


def test_trace_csv_bytes(tmp_path):
    trace = OptimizationTrace(rows=[
        TraceRow(iteration=1, j=0.01, grad_norm=3.5, mu=1e-3, backtracks=0, reset=False),
        TraceRow(iteration=2, j=0.004, grad_norm=1.2345678901234567e-9, mu=0.1, backtracks=3, reset=True),
    ])
    write_trace_csv(tmp_path / "trace.csv", trace)
    expected = full_csv("iter,J_p_db,grad_norm,mu,backtracks,reset_flag", [
        (1, db(0.01), 3.5, 1e-3, 0, 0),
        (2, db(0.004), 1.2345678901234567e-9, 0.1, 3, 1),
    ])
    assert (tmp_path / "trace.csv").read_bytes() == expected


def test_quantization_csv_bytes(tmp_path):
    rows = (
        QuantizationRow(mpsk=np.inf, max_perturbation=0.0, gisl_before_db=-30.5, gisl_after_db=-30.5,
                        pslr_before_db=-np.inf, pslr_after_db=-np.inf, acf=None),
        QuantizationRow(mpsk=4.0, max_perturbation=np.pi / 4, gisl_before_db=-30.5, gisl_after_db=-18.25,
                        pslr_before_db=-41.0, pslr_after_db=-300.0, acf=None),
    )
    write_quantization_csv(tmp_path / "report.csv", rows)
    header = (
        "mpsk,max_perturbation_rad,gisl_before_db,gisl_after_db,"
        "gisl_degradation_db,pslr_before_db,pslr_after_db"
    )
    # -inf is written as -999, and a dB value below the floor as -200
    expected = full_csv(header, [
        ("inf", 0.0, -30.5, -30.5, 0.0, -999.0, -999.0),
        ("4", np.pi / 4, -30.5, -18.25, 12.25, -41.0, -200.0),
    ])
    assert (tmp_path / "report.csv").read_bytes() == expected
