"""Deterministic CSV/text writers for all data products.

Every writer formats numbers explicitly so that identical inputs produce
byte-identical files. Magnitudes are exported in dB floored at -200; an
exact -inf (zero magnitude or empty region) is encoded as -999.
"""

from __future__ import annotations

import math
from itertools import chain
from pathlib import Path

import numpy as np

from .metrics import AmbiguitySurface, CorrelationResult, db
from .optimizer import OptimizationTrace
from .quantize import QuantizationReport
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


def _fmt_full(x: float) -> str:
    if isinstance(x, float) and x == float("-inf"):
        return "-inf"
    return f"{x:.17g}"


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.writelines(f"{line}\n" for line in lines)


def _write_table(path, header: str, table: np.ndarray, index=None) -> None:
    """Stream ``header`` and each row of a 2-D float table as %.12e fields.

    One ``%`` template serves every row, and rows become Python floats one at
    a time, so a large table is never held as text. With ``index``, each row
    starts with its integer from ``index``.
    """
    template = ",".join(["%.12e"] * table.shape[1])
    if index is None:
        rows = (template % tuple(row.tolist()) for row in table)
    else:
        rows = (f"%d,{template}" % (i, *row.tolist()) for i, row in zip(index, table))
    _write_lines(path, chain([header], rows))


def write_phi_csv(path, phi) -> None:
    # full precision so the vector round-trips exactly through read_phi_csv
    lines = ["ell,phi_rad"]
    for i, value in enumerate(np.asarray(phi, float), start=1):
        lines.append(f"{i},{_fmt_full(value)}")
    _write_lines(path, lines)


def read_phi_csv(path) -> np.ndarray:
    rows = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not rows or rows[0] != "ell,phi_rad":
        raise ValueError(f"{path} is not a phase-vector CSV")
    return np.array([float(line.split(",")[1]) for line in rows[1:]])


def write_waveform_csv(path, s: SampledWaveform) -> None:
    t_norm = s.t * s.fs / len(s.samples)
    table = np.column_stack([t_norm, s.samples.real, s.samples.imag])
    _write_table(path, "sample_index,t_over_T,real,imag", table, range(len(table)))


def write_inst_freq_csv(path, phi, cfg: WaveformConfig) -> None:
    freq = sample_frequency(phi, cfg)
    table = np.column_stack([np.arange(cfg.M) / cfg.M, freq * cfg.T])
    _write_table(path, "sample_index,t_over_T,freq_times_T", table, range(cfg.M))


def write_spectrum_csv(path, s: SampledWaveform, cfg: WaveformConfig, pad_factor: int = 4) -> None:
    """Peak-normalized power spectrum on a zero-padded grid."""
    nfft = pad_factor * cfg.M
    spec = np.fft.fftshift(np.fft.fft(s.samples, nfft))
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / cfg.fs))
    power = np.abs(spec) ** 2
    power_db = db(power / power.max())
    over_df = freqs / cfg.df if cfg.df > 0 else np.zeros(nfft)
    table = np.column_stack([freqs * cfg.T, over_df, encode_db(power_db)])
    _write_table(path, "freq_times_T,freq_over_df,magnitude_db", table)


def _stft(samples: np.ndarray, nperseg: int, hop: int) -> tuple[np.ndarray, np.ndarray]:
    window = np.hanning(nperseg)
    starts = range(0, len(samples) - nperseg + 1, hop)
    frames = np.array([np.fft.fftshift(np.fft.fft(samples[k : k + nperseg] * window)) for k in starts])
    centers = np.array([k + nperseg / 2.0 for k in starts])
    return frames.T, centers


def write_spectrogram_csv(path, s: SampledWaveform, cfg: WaveformConfig) -> None:
    """Windowed-FFT power matrix, rows = frequency bins, columns = time frames."""
    nperseg = min(128, max(8, cfg.M // 8))
    hop = max(1, nperseg // 4)
    frames, centers = _stft(s.samples, nperseg, hop)
    freqs = np.fft.fftshift(np.fft.fftfreq(nperseg, d=1.0 / cfg.fs))
    power = np.abs(frames) ** 2
    power_db = db(power / power.max())
    header = "freq_times_T," + ",".join(map("{:.12e}".format, (centers / cfg.M).tolist()))
    table = np.column_stack([freqs * cfg.T, encode_db(power_db)])
    _write_table(path, header, table)


def write_acf_csv(path, r: CorrelationResult, T: float) -> None:
    """Columns: delay_samples, delay_over_T, magnitude_db."""
    mag = r.magnitude()
    u = np.arange(len(mag)) - r.zero_index
    table = np.column_stack([u / (r.fs * T), encode_db(db(mag * mag))])
    _write_table(path, "delay_samples,delay_over_T,magnitude_db", table, u.tolist())


def write_af_csv(path, af: AmbiguitySurface, T: float) -> None:
    """First column Doppler (times T); remaining columns |chi|^2 in dB per delay."""
    header = "doppler_times_T," + ",".join(map("{:.12e}".format, (af.delays / T).tolist()))
    table = np.column_stack([af.dopplers * T, encode_db(db(af.values**2))])
    _write_table(path, header, table)


def write_trace_csv(path, trace: OptimizationTrace) -> None:
    """Columns: iter, J_p_db, grad_norm, mu, backtracks, reset_flag."""
    lines = ["iter,J_p_db,grad_norm,mu,backtracks,reset_flag"]
    for row in trace.rows:
        lines.append(
            f"{row.iteration},{_fmt_full(row.j_db)},{_fmt_full(row.grad_norm)},"
            f"{_fmt_full(row.mu)},{row.backtracks},{int(row.reset)}"
        )
    _write_lines(path, lines)


def write_quantization_csv(path, report: QuantizationReport) -> None:
    lines = [
        "mpsk,max_perturbation_rad,gisl_before_db,gisl_after_db,"
        "gisl_degradation_db,pslr_before_db,pslr_after_db"
    ]
    for row in report.rows:
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
    lines = []
    for key, value in entries.items():
        if isinstance(value, float):
            lines.append(f"{key} = {_fmt_full(value)}")
        else:
            lines.append(f"{key} = {value}")
    _write_lines(path, lines)
