"""Finite M-ary PSK truncation of optimized phases and the resulting ACF damage."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import CorrelationResult, GislWeights, _levels, compute_acf
from .waveform import TWO_PI, WaveformConfig, _psk_order, synthesize

__all__ = [
    "QuantizationRow",
    "quantize_psk",
    "wrap_to_pi",
    "degradation_sweep",
]


def wrap_to_pi(x) -> np.ndarray:
    """Wrap angles to [-pi, pi)."""
    return np.mod(np.asarray(x, float) + np.pi, TWO_PI) - np.pi


def quantize_psk(phi, mpsk) -> np.ndarray:
    """Round each phase to the nearest point of the grid {2*pi*m/mpsk}.

    Phases are wrapped to [0, 2*pi) first; exact midpoints round toward the
    smaller grid index. ``mpsk=math.inf`` returns the phases unchanged.
    Idempotent, and the wrapped perturbation never exceeds pi/mpsk.
    """
    phi = np.asarray(phi, dtype=float)
    if mpsk == math.inf:
        return phi.copy()
    m = _psk_order(mpsk)
    wrapped = np.mod(phi, TWO_PI)
    # ceil(x - 1/2) rounds halfway cases down, unlike round-half-even
    idx = np.mod(np.ceil(wrapped * m / TWO_PI - 0.5), m)
    return TWO_PI * idx / m


@dataclass(frozen=True)
class QuantizationRow:
    """Damage of one alphabet; ``acf`` is the ACF of the quantized waveform."""

    mpsk: float
    max_perturbation: float
    gisl_before_db: float
    gisl_after_db: float
    pslr_before_db: float
    pslr_after_db: float
    acf: CorrelationResult = field(repr=False, compare=False)

    @property
    def gisl_degradation_db(self) -> float:
        return self.gisl_after_db - self.gisl_before_db

    @property
    def label(self) -> str:
        """The alphabet as report.csv and the acf_mpsk_<label>.csv names write it: inf or an integer."""
        return "inf" if self.mpsk == math.inf else str(int(self.mpsk))


def degradation_sweep(
    phi_opt,
    cfg: WaveformConfig,
    w: GislWeights,
    p,
    alphabet_sizes,
) -> tuple[QuantizationRow, ...]:
    """Requantize optimized phases over each alphabet and remeasure GISL/PSLR.

    Returns one row per alphabet, in the order given.

    Metrics are evaluated over the same frozen weights as the optimization so
    the dB deltas are directly comparable across alphabet sizes.
    """
    gisl0, pslr0 = _levels(compute_acf(synthesize(phi_opt, cfg)), w, p)
    rows = []
    for mpsk in alphabet_sizes:
        phi_q = quantize_psk(phi_opt, mpsk)
        perturbation = float(np.max(np.abs(wrap_to_pi(phi_q - np.asarray(phi_opt, float)))))
        r_q = compute_acf(synthesize(phi_q, cfg))
        gisl_q, pslr_q = _levels(r_q, w, p)
        rows.append(
            QuantizationRow(
                mpsk=float(mpsk),
                max_perturbation=perturbation,
                gisl_before_db=gisl0,
                gisl_after_db=gisl_q,
                pslr_before_db=pslr0,
                pslr_after_db=pslr_q,
                acf=r_q,
            )
        )
    return tuple(rows)
