"""Autocorrelation, ambiguity surface, and the PSLR / ISL / GISL metric family.

All correlation vectors have length 2M-1 and are centered: index M-1 holds
zero delay, index k holds delay (k - (M-1)) / M in units of the pulse
duration. Sidelobe metrics operate on binary mainlobe and sidelobe supports,
each stored once as a range of non-negative lags, and read lags 0..M-1 only.

This module owns the correlation layout. Every correlation, here and in the
gradient, is an N-point circular FFT correlation with N = _fft_length >= M+K,
where K is the largest lag read: K = M-1 here, so N >= 2M-1, and the largest
weighted lag in the gradient. The circular sum at lag k adds the linear lags
k-N and k+N, which lie outside -(M-1)..M-1 for every |k| <= K once N >= M+K,
so it equals the linear lag sum on those lags. N is 2^a 3^b 5^c, with c <= 1
where that costs at most 1/32 in length: pocketfft runs slower on a factor 5,
and far slower on prime lengths such as 1999. Lag k sits at position k mod N.

This module also owns the FFT kernels. Every transform in the package calls
the pocketfft gufunc that ``_fft_kernel`` returns, with the scale that
numpy.fft's wrapper would pass, so no Python wrapper runs per transform;
``GradientWorkspace`` binds its six once, when it is built. The gufuncs live
in numpy.fft._pocketfft_umath, a module private to numpy (there from numpy
2.0 on), and take the transform length from ``out``, which every call passes.
Every M-sample phasor e^{j theta} in the package is written by ``_phasor``,
from tan(theta/2) by the half-angle rule, with theta as its scratch.
``compute_af`` correlates every Doppler row it is given; the mirror
|chi(-tau, -nu)| = |chi(tau, nu)| is a rule of ``exports.write_af_csv`` alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from numpy.fft import _pocketfft_umath

if TYPE_CHECKING:
    from .waveform import SampledWaveform

__all__ = [
    "CorrelationResult",
    "GislWeights",
    "db",
    "compute_acf",
    "compute_af",
    "detect_mainlobe_null",
    "build_weights",
    "compute_gisl",
    "compute_pslr",
]

def db(x):
    """Power ratio in decibels; an exact zero maps to -inf."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CorrelationResult:
    """Centered ACF samples r (length 2M-1) of a pulse of M samples."""

    r: np.ndarray

    @property
    def zero_index(self) -> int:
        return (len(self.r) - 1) // 2

    @property
    def delays(self) -> np.ndarray:
        """Delay of each sample in fractions of the pulse duration, lag / M."""
        return (np.arange(len(self.r)) - self.zero_index) / (self.zero_index + 1)


@dataclass(frozen=True)
class GislWeights:
    """Binary sidelobe and mainlobe supports of a pulse of M samples.

    Each support is a range of lags k >= 0, each selecting delays -k and +k:
    the mainlobe lags 0..null_index (the null belongs to it), the sidelobe
    lags sl_first..sl_last, with 0 <= null_index < sl_first <= sl_last < M:
    the sidelobe support is never empty (``build_weights`` refuses such a region).
    """

    null_index: int
    sl_first: int
    sl_last: int
    M: int

    def __post_init__(self) -> None:
        for f in fields(self):
            try:
                operator.index(getattr(self, f.name))
            except TypeError:
                raise ValueError(f"GislWeights needs an integer {f.name}, got {self}") from None
        chain = (0, self.null_index, self.sl_first - 1, self.sl_last - 1, self.M - 2)
        rules = ("0 <= null_index", "null_index < sl_first", "sl_first <= sl_last", "sl_last + 1 <= M")
        for rule, low, high in zip(rules, chain, chain[1:]):
            if low > high:
                raise ValueError(f"GislWeights needs {rule}, got {self}")


@lru_cache(maxsize=None)
def _fft_length(m: int, max_lag: int | None = None) -> int:
    """FFT length N >= m + max_lag for correlating m samples: the smallest 2^a 3^b 5^c,
    or the smallest with c <= 1 if that is at most 1/32 longer (1125 -> 1152, 2000 -> 2048).

    An N-point circular correlation of m samples aliases lag k onto k - N,
    and k - N stays below -(m-1) for every k <= max_lag once
    N >= m + max_lag, so lags |k| <= max_lag are exact. The default
    max_lag = m-1 gives N >= 2m-1 and every lag.
    """
    target = m + (m - 1 if max_lag is None else max_lag)
    k = np.arange(int(target).bit_length() + 1)
    lengths = np.multiply.outer(np.multiply.outer(2.0**k, 3.0**k), 5.0**k)
    fits = np.where(lengths >= target, lengths, np.inf)
    smooth, fast = fits.min(), fits[..., :2].min()  # fast: 5^0 or 5^1 only
    return int(fast if 32 * fast <= 33 * smooth else smooth)


def _fft_kernel(kind: str, n: int, norm: str | None = None) -> tuple[np.ufunc, np.ndarray]:
    """The pocketfft gufunc that numpy.fft's ``kind`` ("fft", "ifft", "rfft" or
    "irfft") dispatches to for an n-point transform, and the scale its wrapper
    passes with ``norm`` (None or "forward"), chosen as numpy.fft._raw_fft
    does: 1 for a forward transform and for an inverse with norm="forward",
    1/n for a default inverse.

    Call it as ``kernel(a, scale, out=out)`` along the last axis. ``out``
    holds n points (n // 2 + 1 bins for rfft) and sets the length, so a
    shorter ``a`` is zero-padded. The scale is a 0-d array, which the gufunc
    reads without converting a Python float on every call.
    """
    if kind == "rfft":
        kind = "rfft_n_odd" if n % 2 else "rfft_n_even"
    inverse = kind in ("ifft", "irfft")
    return getattr(_pocketfft_umath, kind), np.array(1.0 / n if inverse and norm != "forward" else 1.0)


def _phasor(theta: np.ndarray, real: np.ndarray, imag: np.ndarray) -> None:
    """exp(j theta) written as cos into ``real`` and sin into ``imag``, the
    two parts of one complex array; ``theta`` is overwritten with tan(theta/2).

    By the half-angle rule: with t = tan(theta/2) and w = 2 / (1 + t^2),
    cos theta = w - 1 and sin theta = t w. numpy's float64 tan runs a SIMD
    kernel where its cos and sin run scalar libm code, so this is cheaper
    than the two at every M, and allocates nothing. The tangent is taken in
    theta's own buffer, which is contiguous where the parts are strided.
    Within 4.1e-16 of exp(j theta), with |s| within 4.5e-16 of 1, at any
    theta; at theta near an odd multiple of pi, t^2 stays far below overflow.
    theta = +-0 gives exactly 1 +- 0j, the zero signed as the sine signs it.
    The last bits follow numpy's float64 tan kernel for the CPU.
    """
    np.multiply(theta, 0.5, out=theta)
    np.tan(theta, out=theta)
    np.square(theta, out=real)
    real += 1.0
    np.divide(2.0, real, out=real)
    np.multiply(theta, real, out=imag)
    real -= 1.0


def compute_acf(s: SampledWaveform) -> CorrelationResult:
    """Discretized ACF over all 2M-1 delays.

    The power spectrum of the zero-padded samples is inverse transformed over
    N >= 2M-1 points, which equals the direct lag sum sum_m s[m+k] s*[m].
    For unit-energy input the zero-delay sample is 1 only to rounding (over
    400 random pulses: real part within 2 ulp of 1, |imaginary part| < 1e-17).
    """
    m = s.samples.size
    n = _fft_length(m)
    (fft, one), (ifft, inv_n) = _fft_kernel("fft", n), _fft_kernel("ifft", n)
    spec = fft(s.samples, one, out=np.empty(n, dtype=complex))
    spec *= np.conj(spec)  # in place: numpy's out-of-place product can round differently
    # into a new array: in place, optimize at M = 10^6 peaked 8 MB higher in RSS
    r = ifft(spec, inv_n, out=np.empty(n, dtype=complex))
    # lag k sits at circular position k mod N: the negative lags at the top
    return CorrelationResult(r=np.concatenate((r[n - m + 1 :], r[:m])))


# complex FFT points per Doppler block of compute_af: a block's few (rows, N)
# arrays stay near the size of a core's cache, and a long pulse gets one row
_AF_BLOCK_POINTS = 1 << 15


def compute_af(s: SampledWaveform, doppler_grid) -> np.ndarray:
    """|chi| over a grid of Doppler shifts (cycles per T): one row per shift,
    each over the 2M-1 centered delays of compute_acf.

    Row nu is |sum_m s[m+k] s*[m] e^{j 2 pi nu t_m}|, the whole Doppler shift
    on the conjugated copy, so the zero-delay cut is the Dirichlet-kernel sum
    |sum_m |s[m]|^2 e^{j 2 pi nu t_m}|. S = fft(s) is taken once per call,
    and each row is |ifft(S conj(G))| with G = fft(s e^{-j 2 pi nu t}): one
    phasor, one forward and one inverse N-point FFT, bit for bit what
    correlating it alone gives. At nu = +-0 the phasor is exactly 1 -+ 0j, so
    G is S and, with the product formed as S * conj(G) in compute_acf's
    operand order, the zero-Doppler row is |r| of compute_acf bit for bit.
    Rows go in blocks of max(1, _AF_BLOCK_POINTS // N // 2), one batch of
    N-point FFTs per block; a row's values do not depend on its block. A
    block's phases are one outer-product temporary that _phasor consumes,
    and |ifft| is written straight into the block's rows of the surface.
    """
    nu = np.asarray(doppler_grid, dtype=float).ravel()
    m = s.samples.size
    t = np.arange(m) / m
    n = _fft_length(m)
    step = max(1, _AF_BLOCK_POINTS // n // 2)
    (fft, one), (ifft, inv_n) = _fft_kernel("fft", n), _fft_kernel("ifft", n)
    spec = fft(s.samples, one, out=np.empty(n, dtype=complex))
    values = np.empty((nu.size, 2 * m - 1))
    for start in range(0, nu.size, step):
        rows = nu[start : start + step]
        shift = np.empty((rows.size, m), dtype=complex)
        _phasor(np.multiply.outer(-2.0 * np.pi * rows, t), shift.real, shift.imag)
        g = np.empty((rows.size, n), dtype=complex)
        fft(np.multiply(s.samples, shift, out=shift), one, out=g)
        del shift
        # S first, as in compute_acf: the operands' order can change the rounding
        np.multiply(spec, np.conjugate(g, out=g), out=g)
        ifft(g, inv_n, out=g)
        # |g| straight into the surface, never into g's own memory, which can
        # round differently; negative lags sit at the top of the circular
        # correlation, as in compute_acf
        block = values[start : start + step]
        np.abs(g[:, n - m + 1 :], out=block[:, : m - 1])
        np.abs(g[:, :m], out=block[:, m - 1 :])
    return values


def detect_mainlobe_null(r: CorrelationResult) -> int:
    """Index (in samples) of the first local minimum of |r| beyond zero delay.

    Scans outward from zero delay; ties resolve toward smaller delay. A
    monotone decay that only bottoms out at the last available lag returns
    that lag (the rectangular-pulse triangle case). Raises if |r| has no
    local minimum at positive delays.
    """
    mag = np.abs(r.r[r.zero_index :])
    n = mag.size
    if n >= 3:
        interior = np.nonzero((mag[1:-1] <= mag[:-2]) & (mag[1:-1] <= mag[2:]))[0]
        if interior.size:
            return int(interior[0]) + 1
    if n >= 2 and mag[-1] <= mag[-2]:
        return n - 1
    raise ValueError("no null found: |r| has no local minimum at positive delays")


class _NoSidelobeLag(ValueError):
    """A sidelobe region that holds no lag, so it has no GISL or PSLR."""


def build_weights(null_index: int, M: int, lo=None, hi=None) -> GislWeights:
    """Sidelobe lag range of a delay region, beyond the mainlobe that ends at null_index.

    Without ``hi`` the region is every lag beyond the first null. Otherwise
    it is the delay magnitudes lo <= |tau|/T <= hi, with ``lo`` defaulting to
    the null; lag k maps to |tau|/T = k / M, and the region takes the lags
    within 1e-9 M samples of it. It may touch the mainlobe edge but must not
    reach inside it; the null itself counts as mainlobe. A region that holds
    no lag raises _NoSidelobeLag.
    """
    if null_index < 1 or null_index > M - 1:
        raise ValueError(f"null_index must be in [1, {M - 1}], got {null_index}")
    if hi is None and lo is not None:
        raise ValueError(f"a region with lo = {lo} needs hi")
    lo, hi = float(null_index / M if lo is None else lo), float(1.0 if hi is None else hi)
    lo_s, hi_s, tol = lo * M, hi * M, 1e-9 * M
    null_text = f"first null at {null_index} samples = {null_index / M:.6g} T"
    if 0.0 <= hi_s < null_index - tol:
        raise ValueError(f"region interval ({lo}, {hi}) ends inside the mainlobe ({null_text})")
    if not (0.0 <= lo <= hi):
        raise ValueError(f"invalid region interval ({lo}, {hi})")
    if lo_s < null_index - tol:
        raise ValueError(f"region interval ({lo}, {hi}) overlaps the mainlobe ({null_text})")
    # lo_s - tol <= k <= hi_s + tol, clamped to null_index + 1 .. M - 1
    first = max(int(np.ceil(min(lo_s - tol, M))), null_index + 1)
    last = int(np.floor(min(hi_s + tol, M - 1)))
    if last < first:
        raise _NoSidelobeLag(
            f"no lag lies in the sidelobe region (first null at lag {null_index}, last lag {M - 1})"
        )
    return GislWeights(null_index, first, last, M)


def _validated_p(p) -> int:
    """p as an int; a ValueError unless it is an even integer >= 2 (not inf, nan or None)."""
    try:
        valid = int(p) == p and int(p) >= 2 and int(p) % 2 == 0
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ValueError(f"p must be an even integer >= 2, got {p!r}")
    return int(p)


def _support_buffers(w: GislWeights, lags: int, buffers: bool = True):
    """Supports of ``w`` as slices of lags 0..M-1, then the two packed
    [sidelobe | mainlobe] buffers that _gisl_ratio reads, each as the triple
    (a, a[:split], a[split:]) of the whole and its two parts: |r| / peak and
    (|r| / peak)^(p-2). Raises unless ``lags`` is 2M-1; with ``buffers``
    false, returns the slices alone.
    """
    if lags != 2 * w.M - 1:
        raise ValueError(
            f"weights built for M={w.M} ({2 * w.M - 1} lags) do not match a length of {lags} lags"
        )
    bins = slice(w.sl_first, w.sl_last + 1), slice(0, w.null_index + 1)
    if not buffers:
        return bins
    split = w.sl_last + 1 - w.sl_first
    return bins, *((a, a[:split], a[split:]) for a in np.empty((2, split + w.null_index + 1)))


def _gisl_ratio(mags, powers, p: int):
    """GISL from |r| on the sidelobe support and on the mainlobe support.

    ``mags`` and ``powers`` are each an array with its sidelobe and mainlobe
    parts, as _support_buffers gives them. With a, b the supports' peaks and
    S, B their peak-normalised p-sums sum (|r|/peak)^p over lags -k and +k,

        (sum_sl |r|^p / sum_ml |r|^p)^(2/p) = (a/b)^2 (S/B)^(2/p),

    and no power of an unnormalised |r| is ever formed: each term lies
    between 0 and 1, so the value stays finite at any even p and does not
    change when r is scaled. Each support holds lags k >= 0, each standing
    for -k and +k, except lag 0, which only the mainlobe holds: S is twice
    its sum, and B twice its sum less its lag-0 term.

    One pass over both supports: each part of ``mags`` is divided in place
    by its peak, (|r|/peak)^(p-2) goes to ``powers`` and ``mags`` is then
    squared in place. Returns the ratio, (a, S) and (b, B); an all-zero
    sidelobe support gives a = S = 0 and a ratio of 0.
    """
    x, sl, ml = mags
    a, b = np.maximum.reduceat(x, (0, sl.size)).tolist()  # both peaks from one call
    if a > 0.0:
        sl /= a
    if b > 0.0:
        ml /= b
    pw, pw_sl, pw_ml = powers
    np.power(x, p - 2, out=pw)
    np.square(x, out=x)
    # vdot is the BLAS dot that @ calls, without matmul's dispatch
    sl_sum = 2.0 * float(np.vdot(pw_sl, sl))
    ml_sum = 2.0 * float(np.vdot(pw_ml, ml)) - float(pw_ml[0] * ml[0])
    if a == 0.0:
        return 0.0, (a, sl_sum), (b, ml_sum)
    return (a / b) ** 2 * (sl_sum / ml_sum) ** (2.0 / p), (a, sl_sum), (b, ml_sum)


def compute_gisl(r: CorrelationResult, w: GislWeights, p) -> float:
    """Generalized integrated sidelobe level (sum_sl |r|^p / sum_ml |r|^p)^(2/p).

    Each sum reads each lag of the support once, at k >= 0, and counts it
    twice, for -k and +k (lag 0 once). Linear (power-ratio) value; convert
    with ``db`` for decibels. At p=2 this is the plain ISL energy ratio; as p
    grows it approaches the PSLR. Each p-sum is normalised by its support's
    peak before powering, so the value is finite at any even p.
    """
    p = _validated_p(p)
    bins, mags, powers = _support_buffers(w, len(r.r))
    lags = r.r[r.zero_index :]
    for part, b in zip(mags[1:], bins):
        np.abs(lags[b], out=part)
    return _gisl_ratio(mags, powers, p)[0]


def compute_pslr(r: CorrelationResult, w: GislWeights) -> float:
    """Peak sidelobe level in dB relative to the unit mainlobe peak.

    The peak is taken over the sidelobe lags of ``w``, read at k >= 0. Returns
    -inf when the support is identically zero.
    """
    sl, _ = _support_buffers(w, len(r.r), buffers=False)
    peak = float(np.abs(r.r[r.zero_index :][sl]).max())
    return db(peak * peak)


def _levels(r: CorrelationResult, w: GislWeights, p) -> tuple[float, float]:
    """A pulse's report numbers: its GISL in dB and its PSLR in dB."""
    return db(compute_gisl(r, w, p)), compute_pslr(r, w)
