"""Constant-envelope OFDM waveform model.

The pulse is a unit-energy FM waveform whose instantaneous phase is a finite
Fourier series over L subcarriers. Each subcarrier carries one PSK phase
symbol; the modulation index h scales the whole series and, together with L,
sets the occupied bandwidth. Because the phase series is smooth and periodic,
the spectrum stays densely concentrated and the envelope is exactly constant
for every choice of symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import _fft_kernel, _phasor

TWO_PI = 2.0 * math.pi

__all__ = [
    "TWO_PI",
    "WaveformConfig",
    "SampledWaveform",
    "compute_modulation_index",
    "lfm_equivalent_tbp",
    "sample_phase",
    "sample_frequency",
    "synthesize",
    "random_psk",
]


def _check_L(L) -> int:
    """L as an int; a ValueError unless it is a positive integer."""
    if L < 1 or int(L) != L:
        raise ValueError("L must be a positive integer")
    return int(L)


def _psk_order(mpsk, key: str = "mpsk") -> int:
    """A finite ``mpsk`` as an int; a ValueError naming ``key`` unless it is an integer >= 2."""
    if not (math.isfinite(mpsk) and mpsk >= 2 and int(mpsk) == mpsk):
        raise ValueError(f"{key} must be an integer >= 2 or inf, got {mpsk!r}")
    return int(mpsk)


def _harmonic_norm(L: int) -> float:
    # sqrt(2L^3 + 3L^2 + L) = sqrt(6 * sum_{l=1..L} l^2)
    return math.sqrt(2.0 * L**3 + 3.0 * L**2 + L)


def compute_modulation_index(tbp: float, L: int) -> float:
    """Modulation index matching the RMS bandwidth of an LFM pulse.

    For fixed L the waveform's RMS bandwidth grows linearly with h, so
    requiring it to equal the RMS bandwidth of a linear-FM pulse with
    time-bandwidth product ``tbp`` gives the closed form

        h = tbp / (2 * pi * sqrt(2 L^3 + 3 L^2 + L))

    Parameters
    ----------
    tbp : float
        Time-bandwidth product of the reference LFM pulse, >= 0.
    L : int
        Number of phase subcarriers, >= 1.

    Returns
    -------
    h : float
        Modulation index.
    """
    L = _check_L(L)
    if tbp < 0:
        raise ValueError("tbp must be nonnegative")
    return tbp / (TWO_PI * _harmonic_norm(L))


def lfm_equivalent_tbp(h: float, L: int) -> float:
    """Time-bandwidth product of the LFM pulse with the same RMS bandwidth."""
    L = _check_L(L)
    if h < 0:
        raise ValueError("h must be nonnegative")
    return h * TWO_PI * _harmonic_norm(L)


@dataclass(frozen=True)
class WaveformConfig:
    """The [waveform] keys, in manifest order, and the derived sample count M.

    Time is in units of the pulse duration T = 1. Give ``h`` or ``tbp`` (or
    both, if mutually consistent); the other follows from the equal-RMS-
    bandwidth relation, and with neither, tbp = 200. ``mpsk`` is the initial
    symbol alphabet. M = round(oversample * tbp), unless ``samples`` pins it,
    as h = 0 pulses need. The grid is t = m / M, so harmonic l sits exactly
    on DFT bin l of the pulse.
    """

    L: int = 24
    tbp: float | None = None
    h: float | None = None
    oversample: float = 5.0
    mpsk: float = 32.0
    samples: int | None = None
    M: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "L", _check_L(self.L))
        if self.mpsk != math.inf:
            _psk_order(self.mpsk)
        for name in ("h", "tbp", "oversample"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.oversample <= 0:
            raise ValueError("oversample must be positive")
        h, tbp = self.h, self.tbp
        if h is not None and h < 0:
            raise ValueError("h must be nonnegative")
        if tbp is not None and tbp < 0:
            raise ValueError("tbp must be nonnegative")
        if h is None:
            tbp = 200.0 if tbp is None else tbp
            h = compute_modulation_index(tbp, self.L)
        elif tbp is None:
            tbp = lfm_equivalent_tbp(h, self.L)
        else:
            ref = compute_modulation_index(tbp, self.L)
            if abs(h - ref) > 1e-9 * max(abs(ref), abs(h)):
                raise ValueError(
                    f"h={h!r} is inconsistent with tbp={tbp!r} (expected h={ref!r})"
                )
        object.__setattr__(self, "h", float(h))
        object.__setattr__(self, "tbp", float(tbp))
        limit = np.iinfo(np.intp).max // 16  # the most samples one complex array can hold
        if self.samples is not None:
            if not 1 <= self.samples <= limit or int(self.samples) != self.samples:
                raise ValueError(f"samples = M must be an integer in [1, {limit}]")
            m = int(self.samples)
        elif self.oversample * tbp <= limit:  # false for inf
            m = int(round(self.oversample * tbp))
        else:
            raise ValueError(f"M = oversample * tbp = {self.oversample!r} * {tbp!r} is above {limit}")
        if m < 2 * self.L + 1:
            raise ValueError(
                f"M={m} samples cannot resolve L={self.L} phase harmonics "
                f"(need M >= {2 * self.L + 1}); raise tbp/oversample or set samples"
            )
        # tbp goes to the manifest, and |frequency| up to 2 pi h L (L+1) / 2 to inst_freq.csv
        if not math.isfinite(max(tbp, TWO_PI * h * (self.L * (self.L + 1) // 2))):
            raise ValueError(f"h={h!r} (tbp={tbp!r}) overflows tbp or the frequency at L={self.L}")
        object.__setattr__(self, "M", m)

    @property
    def t(self) -> np.ndarray:
        """Sample instants m / M, left-aligned on [0, 1)."""
        return np.arange(self.M) / self.M


@dataclass(frozen=True)
class SampledWaveform:
    """Unit-energy complex baseband samples: length M, constant modulus 1/sqrt(M)."""

    samples: np.ndarray


def _phase_vector(phi, L: int) -> np.ndarray:
    """Validate and convert a phase-symbol sequence to a float array of shape (L,)."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (L,):
        raise ValueError(f"phase vector must have shape ({L},), got {phi.shape}")
    return phi


def _harmonic_sum(spec: np.ndarray, m: int, out: np.ndarray | None = None, kernel=None) -> np.ndarray:
    """Samples sum_l Re(c_l exp(j 2 pi l k / m)), k = 0..m-1, of the coefficients
    c_1..c_L on bins 1..L of ``spec``, a half spectrum of m//2 + 1 bins that is
    zero elsewhere.

    On the grid t = k / m harmonic l is DFT bin l, and m >= 2L + 1
    keeps bin L below Nyquist, so the sum is one inverse real FFT, written to
    ``out`` (m doubles) when it is given. ``kernel`` is that irfft as
    ``_fft_kernel("irfft", m)`` returns it, for a caller that bound it once.
    """
    irfft, inv_m = _fft_kernel("irfft", m) if kernel is None else kernel
    y = irfft(spec, inv_m, out=np.empty(m) if out is None else out)
    y *= m / 2
    return y


def _phase_samples(
    phi: np.ndarray,
    cfg: WaveformConfig,
    spec: np.ndarray | None = None,
    out: np.ndarray | None = None,
    kernel=None,
) -> np.ndarray:
    """2*pi*h times the harmonic sum of exp(-j phi_l): the phase at the sample instants.

    exp(-j phi_l) is written straight into bins 1..L of ``spec``, an optional
    reused half spectrum that is zero elsewhere (only those bins are
    written); the phase goes to ``out`` when it is given, and ``kernel`` is
    passed on to ``_harmonic_sum``.
    """
    if spec is None:
        spec = np.zeros(cfg.M // 2 + 1, dtype=complex)
    bins = spec[1 : cfg.L + 1]
    np.multiply(phi, -1j, out=bins)
    np.exp(bins, out=bins)
    theta = _harmonic_sum(spec, cfg.M, out, kernel)
    theta *= TWO_PI * cfg.h
    return theta


def sample_phase(phi, cfg: WaveformConfig) -> np.ndarray:
    """Instantaneous phase of the subcarrier sum at the sample instants.

    Evaluates 2*pi*h * sum_l cos(2*pi*l*t - phi_l) as the real part of the
    harmonic series with coefficients exp(-j phi_l).
    """
    return _phase_samples(_phase_vector(phi, cfg.L), cfg)


def sample_frequency(phi, cfg: WaveformConfig) -> np.ndarray:
    """Instantaneous frequency, the phase derivative divided by 2*pi.

    Equals -(2*pi*h) * sum_l l * sin(2*pi*l*t - phi_l) cycles per pulse, the
    real part of the harmonic series with coefficients j l exp(-j phi_l);
    zero mean over a full pulse for any symbol vector.
    """
    phi = _phase_vector(phi, cfg.L)
    spec = np.zeros(cfg.M // 2 + 1, dtype=complex)
    spec[1 : cfg.L + 1] = 1j * np.arange(1, cfg.L + 1) * np.exp(-1j * phi)
    return (TWO_PI * cfg.h) * _harmonic_sum(spec, cfg.M)


def synthesize(phi, cfg: WaveformConfig) -> SampledWaveform:
    """Sample the pulse e^{j phi(t)} / sqrt(M) on the config grid.

    The 1/sqrt(M) normalization makes the sample energy and the zero-delay
    autocorrelation value 1 to rounding, not exactly (see compute_acf).
    """
    samples = np.empty(cfg.M, dtype=complex)
    _phasor(sample_phase(phi, cfg), samples.real, samples.imag)
    samples.imag += 0.0  # the exported samples read +0, not -0, at theta = -0 (h = 0)
    samples /= math.sqrt(cfg.M)
    return SampledWaveform(samples=samples)


def random_psk(L: int, mpsk, seed: int) -> np.ndarray:
    """Draw L PSK phase symbols, reproducibly for a fixed seed.

    Finite ``mpsk`` draws uniformly from the grid {2*pi*m/mpsk, m=0..mpsk-1};
    ``mpsk=math.inf`` draws uniformly from the continuum [0, 2*pi).
    """
    L = _check_L(L)
    rng = np.random.default_rng(seed)
    if mpsk == math.inf:
        return TWO_PI * rng.random(L)
    m = _psk_order(mpsk)
    return TWO_PI * rng.integers(0, m, size=L) / m
