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

TWO_PI = 2.0 * math.pi

__all__ = [
    "TWO_PI",
    "WaveformConfig",
    "BasisMatrices",
    "SampledWaveform",
    "compute_modulation_index",
    "lfm_equivalent_tbp",
    "as_phase_vector",
    "build_basis",
    "phase_from_basis",
    "sample_phase",
    "sample_frequency",
    "synthesize",
    "random_psk",
]


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
    if L < 1 or int(L) != L:
        raise ValueError("L must be a positive integer")
    if tbp < 0:
        raise ValueError("tbp must be nonnegative")
    return tbp / (TWO_PI * _harmonic_norm(int(L)))


def lfm_equivalent_tbp(h: float, L: int) -> float:
    """Time-bandwidth product of the LFM pulse with the same RMS bandwidth."""
    if L < 1 or int(L) != L:
        raise ValueError("L must be a positive integer")
    if h < 0:
        raise ValueError("h must be nonnegative")
    return h * TWO_PI * _harmonic_norm(int(L))


@dataclass(frozen=True)
class WaveformConfig:
    """Pulse parameters plus the derived sampling grid.

    Provide ``h`` or ``tbp`` (or both, if mutually consistent); the missing
    one is derived from the equal-RMS-bandwidth relation. The sampling rate
    is ``oversample`` times the equivalent LFM bandwidth ``tbp / T`` and the
    sample count is M = round(fs * T). Pass ``samples`` to pin M directly,
    which is required for h = 0 pulses that have no bandwidth to derive a
    rate from; in that case fs = samples / T.
    """

    L: int
    h: float | None = None
    tbp: float | None = None
    T: float = 1.0
    oversample: float = 5.0
    samples: int | None = None
    M: int = field(init=False)
    fs: float = field(init=False)

    def __post_init__(self) -> None:
        if self.L < 1 or int(self.L) != self.L:
            raise ValueError("L must be a positive integer")
        object.__setattr__(self, "L", int(self.L))
        if self.T <= 0:
            raise ValueError("T must be positive")
        for name in ("h", "tbp", "oversample"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.oversample <= 0:
            raise ValueError("oversample must be positive")
        h, tbp = self.h, self.tbp
        if h is None and tbp is None:
            raise ValueError("either h or tbp must be given")
        if h is not None and h < 0:
            raise ValueError("h must be nonnegative")
        if tbp is not None and tbp < 0:
            raise ValueError("tbp must be nonnegative")
        if tbp is None:
            tbp = lfm_equivalent_tbp(h, self.L)
        elif h is None:
            h = compute_modulation_index(tbp, self.L)
        else:
            ref = compute_modulation_index(tbp, self.L)
            if abs(h - ref) > 1e-9 * max(abs(ref), abs(h)):
                raise ValueError(
                    f"h={h!r} is inconsistent with tbp={tbp!r} (expected h={ref!r})"
                )
        object.__setattr__(self, "h", float(h))
        object.__setattr__(self, "tbp", float(tbp))
        if self.samples is not None:
            if self.samples < 1 or int(self.samples) != self.samples:
                raise ValueError("samples must be a positive integer")
            m = int(self.samples)
            fs = m / self.T
        else:
            fs = self.oversample * tbp / self.T
            m = int(round(fs * self.T))
        if m < 2 * self.L + 1:
            raise ValueError(
                f"M={m} samples cannot resolve L={self.L} phase harmonics "
                f"(need M >= {2 * self.L + 1}); raise tbp/oversample or set samples"
            )
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "fs", float(fs))

    @property
    def df(self) -> float:
        """Bandwidth of the equal-RMS LFM reference (tbp / T)."""
        return self.tbp / self.T

    @property
    def t(self) -> np.ndarray:
        """Sample instants m / fs, left-aligned on [0, T)."""
        return np.arange(self.M) / self.fs


@dataclass(frozen=True)
class BasisMatrices:
    """Sampled harmonic bases, shape (M, L); column l-1 is the l-th harmonic of 1/T."""

    bc: np.ndarray
    bs: np.ndarray


@dataclass(frozen=True)
class SampledWaveform:
    """Unit-energy complex baseband samples: length M, constant modulus 1/sqrt(M)."""

    samples: np.ndarray
    t: np.ndarray
    fs: float


def as_phase_vector(phi, L: int) -> np.ndarray:
    """Validate and convert a phase-symbol sequence to a float array of shape (L,)."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (L,):
        raise ValueError(f"phase vector must have shape ({L},), got {phi.shape}")
    return phi


def build_basis(cfg: WaveformConfig) -> BasisMatrices:
    args = np.outer(cfg.t, np.arange(1, cfg.L + 1)) * (TWO_PI / cfg.T)
    return BasisMatrices(bc=np.cos(args), bs=np.sin(args))


def phase_from_basis(phi: np.ndarray, basis: BasisMatrices, h: float) -> np.ndarray:
    """Phase samples 2*pi*h * (Bc cos(phi) + Bs sin(phi)) from a prebuilt basis."""
    return TWO_PI * h * (basis.bc @ np.cos(phi) + basis.bs @ np.sin(phi))


def sample_phase(phi, cfg: WaveformConfig) -> np.ndarray:
    """Instantaneous phase of the subcarrier sum at the sample instants.

    Evaluated in the real Fourier form

        2*pi*h * sum_l [cos(phi_l) cos(2*pi*l*t/T) + sin(phi_l) sin(2*pi*l*t/T)]

    which equals the amplitude/phase form 2*pi*h * sum_l cos(2*pi*l*t/T - phi_l).
    """
    phi = as_phase_vector(phi, cfg.L)
    return phase_from_basis(phi, build_basis(cfg), cfg.h)


def sample_frequency(phi, cfg: WaveformConfig) -> np.ndarray:
    """Instantaneous frequency, the phase derivative divided by 2*pi.

    Equals -(2*pi*h/T) * sum_l l * sin(2*pi*l*t/T - phi_l); zero mean over a
    full pulse for any symbol vector.
    """
    phi = as_phase_vector(phi, cfg.L)
    basis = build_basis(cfg)
    ell = np.arange(1, cfg.L + 1, dtype=float)
    return (-TWO_PI * cfg.h / cfg.T) * (
        (basis.bs * ell) @ np.cos(phi) - (basis.bc * ell) @ np.sin(phi)
    )


def synthesize(phi, cfg: WaveformConfig) -> SampledWaveform:
    """Sample the pulse e^{j phi(t)} / sqrt(M) on the config grid.

    The 1/sqrt(M) normalization makes the sample energy exactly one, so the
    zero-delay autocorrelation value is exactly unity.
    """
    theta = sample_phase(phi, cfg)
    samples = np.exp(1j * theta) / math.sqrt(cfg.M)
    return SampledWaveform(samples=samples, t=cfg.t, fs=cfg.fs)


def random_psk(L: int, mpsk, seed: int) -> np.ndarray:
    """Draw L PSK phase symbols, reproducibly for a fixed seed.

    Finite ``mpsk`` draws uniformly from the grid {2*pi*m/mpsk, m=0..mpsk-1};
    ``mpsk=math.inf`` draws uniformly from the continuum [0, 2*pi).
    """
    if L < 1 or int(L) != L:
        raise ValueError("L must be a positive integer")
    rng = np.random.default_rng(seed)
    if mpsk == math.inf:
        return TWO_PI * rng.random(int(L))
    m = int(mpsk)
    if m != mpsk or m < 2:
        raise ValueError("mpsk must be an integer >= 2 or math.inf")
    return TWO_PI * rng.integers(0, m, size=int(L)) / m
