"""Independent reference implementations used to generate expected test values.

Everything here deliberately avoids the library's computation paths: direct
lag sums instead of FFT correlation, dense DFT matrices instead of FFTs,
numeric quadrature/bisection instead of closed forms, and elementwise finite
differences instead of the analytic gradient.
"""

from __future__ import annotations

import math

import numpy as np

from ceofdm import WaveformConfig, synthesize

TWO_PI = 2.0 * math.pi


def brute_force_acf(samples: np.ndarray) -> np.ndarray:
    """O(M^2) direct lag sum r[u] = sum_m s[m+u] s*[m], centered, length 2M-1."""
    m = len(samples)
    out = np.zeros(2 * m - 1, dtype=complex)
    for u in range(-(m - 1), m):
        acc = 0.0 + 0.0j
        for i in range(m):
            j = i + u
            if 0 <= j < m:
                acc += samples[j] * np.conj(samples[i])
        out[u + m - 1] = acc
    return out


def rms_bandwidth(samples: np.ndarray, fs: float) -> float:
    """RMS bandwidth about the spectral centroid from the unpadded DFT.

    With one exact period per pulse the DFT sees the smooth periodic
    extension, so this converges to the true value up to aliasing.
    """
    spec = np.fft.fft(samples)
    power = np.abs(spec) ** 2
    freqs = np.fft.fftfreq(len(samples), d=1.0 / fs)
    centroid = float(freqs @ power / power.sum())
    return float(np.sqrt(((freqs - centroid) ** 2 @ power) / power.sum()))


def bisect_modulation_index(tbp: float, L: int, oversample: float = 10.0) -> float:
    """Find h such that the measured RMS bandwidth matches an LFM pulse of ``tbp``.

    The LFM reference with bandwidth B = tbp (T = 1) has RMS bandwidth B/sqrt(12).
    The waveform's RMS bandwidth is independent of the symbols, so a fixed
    all-zero symbol vector is used. Pure bisection; no closed forms.
    """
    target = tbp / math.sqrt(12.0)
    phi = np.zeros(L)

    def measured(h: float) -> float:
        cfg = WaveformConfig(L=L, h=h, samples=int(round(oversample * tbp)))
        return rms_bandwidth(synthesize(phi, cfg).samples, cfg.M)

    lo, hi = 1e-9, 2.0
    if not measured(lo) < target < measured(hi):
        raise ValueError(f"the RMS bandwidth at h = {lo} and h = {hi} does not bracket tbp = {tbp}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if measured(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def central_difference_gradient(cost, phi: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(phi)
    for i in range(len(phi)):
        step = np.zeros_like(phi)
        step[i] = eps
        grad[i] = (cost(phi + step) - cost(phi - step)) / (2.0 * eps)
    return grad


def harmonic_basis(cfg) -> tuple[np.ndarray, np.ndarray]:
    """Dense (M, L) bases cos and sin(2*pi*l*t) on the config's sample instants."""
    args = TWO_PI * np.outer(cfg.t, np.arange(1, cfg.L + 1))
    return np.cos(args), np.sin(args)


def build_dbar(phi, bc: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Zero-padded Jacobian of the phase samples w.r.t. each symbol, scaled by 1/(2*pi*h).

    Column l is -bc_l * sin(phi_l) + bs_l * cos(phi_l) in rows 0..M-1 and zero
    in the padding rows M..2M-2.
    """
    m, L = bc.shape
    phi = np.asarray(phi, float)
    dbar = np.zeros((2 * m - 1, L))
    dbar[:m] = -bc * np.sin(phi) + bs * np.cos(phi)
    return dbar


def _log_sum_exp(x: np.ndarray) -> float:
    top = float(x.max())
    return top + math.log(float(np.exp(x - top).sum()))


def dense_dft_gisl_gradient(phi, cfg, weights, p: int) -> np.ndarray:
    """GISL gradient evaluated with explicit DFT matrices and dense products.

    Follows the derivation stage by stage with materialized matrices; shares
    no code with the FFT implementation.
    """
    m = cfg.M
    n = 2 * m - 1
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    bc, bs = harmonic_basis(cfg)
    phi = np.asarray(phi, float)
    theta = TWO_PI * cfg.h * (bc @ np.cos(phi) + bs @ np.sin(phi))
    s_bar = np.zeros(n, dtype=complex)
    s_bar[:m] = np.exp(1j * theta) / math.sqrt(m)
    f_vec = dft @ s_bar
    r = np.conj(dft).T @ (np.abs(f_vec) ** 2) / n
    # dense selectors on the circular lag layout: lag k and -k at k mod n
    w_sl, w_ml = np.zeros(n), np.zeros(n)
    sl_lags = np.arange(weights.sl_first, weights.sl_last + 1)
    ml_lags = np.arange(weights.null_index + 1)
    w_sl[sl_lags] = w_sl[-sl_lags] = 1.0
    w_ml[ml_lags] = w_ml[-ml_lags] = 1.0
    # the p-sums in the log domain, so that |r|^p neither underflows nor
    # overflows at large p; a zero |r| stands in as 1e-300, whose powers
    # vanish for p > 2 and equal 1 for the exponent p - 2 = 0
    log_mags = np.log(np.maximum(np.abs(r), 1e-300))
    log_num = _log_sum_exp(p * log_mags[w_sl > 0])
    log_den = _log_sum_exp(p * log_mags[w_ml > 0])
    cost = math.exp((2.0 / p) * (log_num - log_den))
    # |r|^(p-2) * (w_sl / num - w_ml / den), formed on each support only
    coef = np.zeros(n)
    for w, log_sum, sign in ((w_sl, log_num, 1.0), (w_ml, log_den, -1.0)):
        coef[w > 0] = sign * np.exp((p - 2) * log_mags[w > 0] - log_sum)
    p_vec = np.real(dft @ (coef * r))
    inner = np.conj(dft).T @ ((f_vec) * p_vec) / n
    dbar = build_dbar(phi, bc, bs)
    return 8.0 * np.pi * cfg.h * cost * (dbar.T @ np.imag(np.conj(s_bar) * inner))


def log_domain_gisl(r: np.ndarray, weights, p: int) -> float:
    """GISL of a centred ACF from two-sided masks: sum |r|^p over both signs of
    the sidelobe lags, over sum |r|^p on -null_index..null_index, each lag
    read where it sits, with no fold and no peak normalisation. The p-sums
    are taken in the log domain, as in dense_dft_gisl_gradient, so |r|^p
    neither underflows nor overflows at large p."""
    delay = np.abs(np.arange(len(r)) - (len(r) - 1) // 2)
    w_sl = (delay >= weights.sl_first) & (delay <= weights.sl_last)
    w_ml = delay <= weights.null_index
    log_mags = np.log(np.maximum(np.abs(r), 1e-300))
    log_num = _log_sum_exp(p * log_mags[w_sl])
    log_den = _log_sum_exp(p * log_mags[w_ml])
    return math.exp((2.0 / p) * (log_num - log_den))


def plain_isl(r: np.ndarray, weights) -> float:
    """Sidelobe over mainlobe energy of a centred ACF: sum |r|^2 over both
    signs of the sidelobe lags, over sum |r|^2 on -null_index..null_index,
    with no peak normalisation."""
    zero = (len(r) - 1) // 2
    energy = np.abs(r) ** 2
    sl_lags = np.arange(weights.sl_first, weights.sl_last + 1)
    sidelobe = energy[zero - sl_lags].sum() + energy[zero + sl_lags].sum()
    mainlobe = energy[zero - weights.null_index : zero + weights.null_index + 1].sum()
    return float(sidelobe / mainlobe)


def smallest_5_smooth(target: int) -> int:
    """Smallest n >= target with no prime factor above 5, by trial division."""
    n = target
    while True:
        k = n
        for prime in (2, 3, 5):
            while k % prime == 0:
                k //= prime
        if k == 1:
            return n
        n += 1


def fft_length_rule(target: int) -> int:
    """The FFT length for ``target`` = M + K, by trial division: the smallest
    n >= target with no prime factor above 5 and at most one factor 5, when
    32 n <= 33 smallest_5_smooth(target), and smallest_5_smooth(target)
    otherwise."""
    smooth = smallest_5_smooth(target)
    for n in range(target, 33 * smooth // 32 + 1):
        k = n // 5 if n % 5 == 0 else n
        for prime in (2, 3):
            while k % prime == 0:
                k //= prime
        if k == 1:
            return n
    return smooth


def per_row_af(samples: np.ndarray, t: np.ndarray, nu) -> np.ndarray:
    """|chi| one Doppler row at a time, each row its own 1-D FFT correlation.

    The Doppler split, fft(s) conj(fft(s e^{-j 2 pi nu t})), the phasor
    written as a cosine and a sine, and the FFT length (the smallest
    5-smooth n >= 2M-1) are those of the library, so the batched surface's
    leading rows must match this loop bit for bit; its -nu rows, the +nu
    rows reversed in delay, match it to rounding. direct_af checks the split
    itself without an FFT.
    """
    m = len(samples)
    n = smallest_5_smooth(2 * m - 1)
    lags = np.arange(1 - m, m) % n
    nu = np.asarray(nu, float)
    out = np.empty((nu.size, 2 * m - 1))
    spec = np.fft.fft(samples, n)
    shift = np.empty(m, dtype=complex)
    for i, v in enumerate(nu):
        phase = -2.0 * np.pi * v * t
        np.cos(phase, out=shift.real)
        np.sin(phase, out=shift.imag)
        out[i] = np.abs(np.fft.ifft(spec * np.conj(np.fft.fft(samples * shift, n)))[lags])
    return out


def direct_af(samples: np.ndarray, nu) -> np.ndarray:
    """|chi| by the O(M^2) lag-Doppler sum |sum_m s[m+k] s*[m] e^{j 2 pi nu m / M}|,
    one row per Doppler shift over the lags k = -(M-1)..M-1, with no FFT."""
    m = len(samples)
    nu = np.asarray(nu, float)
    out = np.empty((nu.size, 2 * m - 1))
    for i, v in enumerate(nu):
        weighted = np.conj(samples) * np.exp(2j * np.pi * v * np.arange(m) / m)
        for k in range(1 - m, m):
            lo, hi = max(0, -k), min(m, m - k)
            out[i, k + m - 1] = abs(np.sum(samples[lo + k : hi + k] * weighted[lo:hi]))
    return out


def per_frame_stft(samples: np.ndarray, nperseg: int, hop: int) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed, centred FFT of one frame at a time, frames as columns,
    and the frame centres in samples."""
    window = np.hanning(nperseg)
    starts = range(0, len(samples) - nperseg + 1, hop)
    frames = np.array([np.fft.fftshift(np.fft.fft(samples[k : k + nperseg] * window)) for k in starts])
    return frames.T, np.array([k + nperseg / 2.0 for k in starts])


def fmt_e(x) -> str:
    """One exported value, formatted on its own."""
    return f"{x:.12e}"


def fmt_db(x) -> str:
    """One exported dB value: -inf -> -999, below -200 -> -200, then fmt_e."""
    x = -999.0 if x == float("-inf") else max(float(x), -200.0)
    return fmt_e(x)


def csv_bytes(header: str, rows) -> bytes:
    """File contents for a header and rows of already formatted fields."""
    lines = [header] + [",".join(fields) for fields in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def full_csv(header: str, rows) -> bytes:
    """File contents of a full-precision table: f"{x:.17g}" for floats, str() for the rest."""
    return csv_bytes(header, ([f"{x:.17g}" if isinstance(x, float) else str(x) for x in row] for row in rows))
