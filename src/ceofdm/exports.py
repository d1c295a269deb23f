"""Deterministic CSV/text writers for all data products.

Every writer formats numbers explicitly so that identical inputs produce
byte-identical files. Magnitudes are exported in dB floored at -200; an
exact -inf (zero magnitude or empty region) is encoded as -999.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .metrics import AmbiguitySurface, CorrelationResult, db
from .optimizer import OptimizationTrace
from .quantize import QuantizationRow
from .waveform import SampledWaveform, WaveformConfig, sample_frequency

__all__ = [
    "DB_FLOOR",
    "DB_NEG_INF",
    "encode_db",
    "write_phi_csv",
    "read_phi_csv",
    "write_waveform_csv",
    "write_inst_freq_csv",
    "write_spectrum_csv",
    "write_spectrogram_csv",
    "write_acf_csv",
    "write_af_csv",
    "write_trace_csv",
    "write_quantization_csv",
    "write_summary",
]

DB_FLOOR = -200.0
DB_NEG_INF = -999.0


def encode_db(x):
    """Export encoding of dB values, elementwise: -inf -> -999, else floored at -200."""
    x = np.asarray(x, dtype=float)
    out = np.where(x == -np.inf, DB_NEG_INF, np.maximum(x, DB_FLOOR))
    return float(out) if out.ndim == 0 else out


def _fmt_full(x) -> str:
    """A float at full precision (%.17g), anything else as str()."""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.writelines(f"{line}\n" for line in lines)


_BLOCK_VALUES = 1 << 13  # float fields per block: about 80 bytes each in flight, under 1 MB
_E_WIDTH = 20  # the longest %.12e text, e.g. "-1.234567890123e-308"
# One field's slot: its text right-aligned in the first _E_WIDTH bytes, its
# separator next, zero bytes everywhere else; six 4-byte words in all.
_SLOT = 24
_POW10 = 10.0 ** np.arange(23)  # every power of ten up to 1e22 is exact in binary64
# the 13-digit mantissa m is within 2**-10 of exact, so a fractional part
# further than this from 0.5 rounds the way the exact value does
_TIE_BAND = 0.002


def _words(texts) -> np.ndarray:
    """4-character strings as uint32 words in memory order."""
    return np.frombuffer("".join(texts).encode("ascii"), np.uint32)


# "0000" to "9999": the digits of i are its index into a 10 x 10 x 10 x 10 grid
_FOUR_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))
_FOUR_DIGITS = _FOUR_DIGITS.view(np.uint32).ravel()
# padding, sign, first digit and point, at 10 * signbit + first digit
_LEADS = _words(f"\0{sign}{d}." for sign in ("\0", "-") for d in range(10))
_EXPONENTS = _words(f"e{e:+03d}" for e in range(-10, 13))
_COMMA, _NEWLINE = _words(["," + 3 * "\0", "\n" + 3 * "\0"])


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 13-digit mantissa and the exponent that %.12e prints for each value,
    and where they are exact.

    With e = floor(log10 |x|) and k = 12 - e clipped to 0..22, the mantissa
    m = |x| * 10**k is one correctly rounded multiply by an exact power of
    ten. Where 10**12 <= m, rint(m) < 10**13 and frac(m) lies further than
    _TIE_BAND from 0.5, rint(m) is the printed digits and 12 - k the printed
    exponent. Zeros are exact as (0, 0); every other value (near ties, a
    log10 miss next to a power of ten, a mantissa that rounds up to 10**13,
    |x| >= 1e13 or below 1e-10, inf, nan) is not.
    """
    a = np.abs(x)
    # zeros, inf and nan take placeholder exponents here, and fail the range test
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.clip(12 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
        m = a * _POW10[k]
        q = np.rint(m)
        exact = (m >= 1e12) & (q < 1e13) & (np.abs(m - q) < 0.5 - _TIE_BAND)
    return np.where(exact, q, 0.0).astype(np.int64), np.where(exact, 12 - k, 0), exact | (x == 0)


def _e_fields(x: np.ndarray, slots: np.ndarray) -> None:
    """Write each value's %.12e text and a comma into its slot; a value
    without an exact mantissa from _decimal is formatted on its own."""
    q, e, exact = _decimal(x)
    words = slots.view(np.uint32)
    top, mid = q // 10**8, q // 10**4  # the first 5 and the first 9 digits
    lead = top // 10**4
    words[..., 0] = _LEADS[lead + 10 * np.signbit(x)]
    words[..., 1] = _FOUR_DIGITS[top - lead * 10**4]
    words[..., 2] = _FOUR_DIGITS[mid - top * 10**4]
    words[..., 3] = _FOUR_DIGITS[q - mid * 10**4]
    words[..., 4] = _EXPONENTS[e + 10]
    words[..., 5] = _COMMA

    slow = np.nonzero(~exact)
    if len(slow[0]):
        padded = "".join(("%.12e" % v).rjust(_E_WIDTH, "\0") for v in x[slow].tolist())
        text = np.frombuffer(padded.encode("ascii"), np.uint8).reshape(-1, _E_WIDTH)
        slots[slow + (slice(0, _E_WIDTH),)] = text


def _d_fields(index: np.ndarray, slots: np.ndarray) -> None:
    """Write each integer's %d text and a comma into its slot."""
    a = np.abs(index)
    ndigits = np.maximum(1, np.searchsorted(10 ** np.arange(19), a, side="right"))
    words = slots.view(np.uint32)
    for w in range(4, 4 - (ndigits.max() + 3) // 4, -1):
        words[:, w] = _FOUR_DIGITS[a % 10**4]
        a = a // 10**4
    words[:, 5] = _COMMA
    slots[:, :_E_WIDTH][np.arange(_E_WIDTH) < _E_WIDTH - ndigits[:, None]] = 0
    negative = np.flatnonzero(index < 0)
    slots[negative, _E_WIDTH - 1 - ndigits[negative]] = ord("-")


def _encode_block(table: np.ndarray, index=None) -> np.ndarray:
    """CSV bytes of a 2-D float table as %.12e fields, each row led by its
    ``index`` entry as %d when given, every row ending in a newline."""
    rows, cols = table.shape
    lead = 0 if index is None else 1
    slots = np.empty((rows, lead + cols, _SLOT), np.uint8)
    _e_fields(table, slots[:, lead:])
    if index is not None:
        _d_fields(index, slots[:, 0])
    slots.view(np.uint32)[:, -1, 5] = _NEWLINE
    return slots[slots != 0]


def _row_slices(rows: int, cols: int):
    """Consecutive row ranges of a rows x cols table, about _BLOCK_VALUES values each."""
    step = max(1, _BLOCK_VALUES // cols)
    return (slice(start, start + step) for start in range(0, rows, step))


def _table_blocks(table: np.ndarray, index=None):
    """A whole 2-D table as _write_table blocks, each row led by its ``index`` entry when given."""
    for rows in _row_slices(*table.shape):
        yield table[rows], None if index is None else np.asarray(index[rows], dtype=np.int64)


def _write_table(path, header: str, blocks, header_values=None) -> None:
    """Write ``header`` and then a table's rows as %.12e fields, a block at a time.

    ``blocks`` yields (rows, index) pairs in file order: a 2-D float array of
    rows, and None or the integer that leads each row. Each block is encoded
    and written before the next is taken, so neither the table's text nor, for
    a generated table, the table itself is held whole. With
    ``header_values``, the header row goes on with them as %.12e fields.
    """
    with open(path, "wb") as out:
        out.write(header.encode("utf-8"))
        if header_values is None:
            out.write(b"\n")
        else:
            out.write(b",")
            out.write(_encode_block(np.asarray(header_values, dtype=float)[None, :]))
        for rows, index in blocks:
            out.write(_encode_block(rows, index))


def write_phi_csv(path, phi) -> None:
    # full precision so the vector round-trips exactly through read_phi_csv
    lines = ["ell,phi_rad"]
    for i, value in enumerate(np.asarray(phi, float), start=1):
        lines.append(f"{i},{_fmt_full(value)}")
    _write_lines(path, lines)


def read_phi_csv(path) -> np.ndarray:
    """The phases of a write_phi_csv file; a ValueError names the file and the bad line."""
    rows = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not rows or rows[0] != "ell,phi_rad":
        raise ValueError(f"{path}, line 1: expected the header 'ell,phi_rad'")
    phi = []
    for ell, line in enumerate(rows[1:], start=1):
        index, _, text = line.partition(",")
        try:
            value = float(text) if index == str(ell) else math.nan
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{path}, line {ell + 1}: expected '{ell},<finite phase>', got {line!r}")
        phi.append(value)
    return np.array(phi)


def write_waveform_csv(path, s: SampledWaveform) -> None:
    t_norm = s.t * s.fs / len(s.samples)
    table = np.column_stack([t_norm, s.samples.real, s.samples.imag])
    blocks = _table_blocks(table, np.arange(len(table)))
    _write_table(path, "sample_index,t_over_T,real,imag", blocks)


def write_inst_freq_csv(path, phi, cfg: WaveformConfig) -> None:
    freq = sample_frequency(phi, cfg)
    table = np.column_stack([np.arange(cfg.M) / cfg.M, freq * cfg.T])
    _write_table(path, "sample_index,t_over_T,freq_times_T", _table_blocks(table, np.arange(cfg.M)))


def write_spectrum_csv(path, s: SampledWaveform, cfg: WaveformConfig, pad_factor: int = 4) -> None:
    """Peak-normalized power spectrum on a zero-padded grid."""
    nfft = pad_factor * cfg.M
    spec = np.fft.fftshift(np.fft.fft(s.samples, nfft))
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / cfg.fs))
    power = np.abs(spec) ** 2
    power_db = db(power / power.max())
    over_df = freqs / cfg.df if cfg.df > 0 else np.zeros(nfft)
    table = np.column_stack([freqs * cfg.T, over_df, encode_db(power_db)])
    _write_table(path, "freq_times_T,freq_over_df,magnitude_db", _table_blocks(table))


def _stft(samples: np.ndarray, nperseg: int, hop: int) -> tuple[np.ndarray, np.ndarray]:
    window = np.hanning(nperseg)
    starts = np.arange(0, len(samples) - nperseg + 1, hop)
    # every frame in one batch, read through a strided view: the windowed
    # product is the only copy of the frames made before the FFT
    segments = np.lib.stride_tricks.sliding_window_view(samples, nperseg)[::hop]
    frames = np.fft.fftshift(np.fft.fft(segments * window, axis=1), axes=1)
    return frames.T, starts + nperseg / 2.0


def write_spectrogram_csv(path, s: SampledWaveform, cfg: WaveformConfig) -> None:
    """Windowed-FFT power matrix, rows = frequency bins, columns = time frames."""
    nperseg = min(128, max(8, cfg.M // 8), cfg.M)
    hop = max(1, nperseg // 4)
    frames, centers = _stft(s.samples, nperseg, hop)
    freqs = np.fft.fftshift(np.fft.fftfreq(nperseg, d=1.0 / cfg.fs))
    power = np.abs(frames) ** 2
    power_db = db(power / power.max())
    table = np.column_stack([freqs * cfg.T, encode_db(power_db)])
    _write_table(path, "freq_times_T", _table_blocks(table), header_values=centers / cfg.M)


def write_acf_csv(path, r: CorrelationResult, T: float) -> None:
    """Columns: delay_samples, delay_over_T, magnitude_db."""
    mag = r.magnitude()
    u = np.arange(len(mag)) - r.zero_index
    table = np.column_stack([u / (r.fs * T), encode_db(db(mag * mag))])
    _write_table(path, "delay_samples,delay_over_T,magnitude_db", _table_blocks(table, u))


def write_af_csv(path, af: AmbiguitySurface, T: float) -> None:
    """First column Doppler (times T); remaining columns |chi|^2 in dB per delay.

    The dB table is built one encoder block of rows at a time, so no copy of
    the whole surface is made.
    """
    doppler, values = af.dopplers * T, af.values
    blocks = (
        (np.column_stack([doppler[rows], encode_db(db(values[rows] ** 2))]), None)
        for rows in _row_slices(len(values), values.shape[1] + 1)
    )
    _write_table(path, "doppler_times_T", blocks, header_values=af.delays / T)


def write_trace_csv(path, trace: OptimizationTrace) -> None:
    """Columns: iter, J_p_db, grad_norm, mu, backtracks, reset_flag."""
    lines = ["iter,J_p_db,grad_norm,mu,backtracks,reset_flag"]
    for row in trace.rows:
        lines.append(
            f"{row.iteration},{_fmt_full(row.j_db)},{_fmt_full(row.grad_norm)},"
            f"{_fmt_full(row.mu)},{row.backtracks},{int(row.reset)}"
        )
    _write_lines(path, lines)


def write_quantization_csv(path, rows: tuple[QuantizationRow, ...]) -> None:
    lines = [
        "mpsk,max_perturbation_rad,gisl_before_db,gisl_after_db,"
        "gisl_degradation_db,pslr_before_db,pslr_after_db"
    ]
    for row in rows:
        mpsk = "inf" if row.mpsk == math.inf else str(int(row.mpsk))
        lines.append(
            f"{mpsk},{_fmt_full(row.max_perturbation)},"
            f"{_fmt_full(encode_db(row.gisl_before_db))},"
            f"{_fmt_full(encode_db(row.gisl_after_db))},"
            f"{_fmt_full(row.gisl_degradation_db)},"
            f"{_fmt_full(encode_db(row.pslr_before_db))},"
            f"{_fmt_full(encode_db(row.pslr_after_db))}"
        )
    _write_lines(path, lines)


def write_summary(path, entries: dict) -> None:
    """Key-value summary, one ``key = value`` line per entry, full precision."""
    _write_lines(path, [f"{key} = {_fmt_full(value)}" for key, value in entries.items()])
