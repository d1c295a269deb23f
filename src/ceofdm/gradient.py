"""Analytic gradient of the GISL cost with respect to the PSK phase vector.

The cost J_p is a smooth function of the phase symbols through the chain

    phi -> phase samples -> s_bar -> F = fft(s_bar) -> r = ifft(|F|^2) -> J_p

and every linear stage is an N-point DFT, N >= 2M-1 (the FFT length and lag
layout of ``metrics``), so the gradient is evaluated with four FFT
applications and one M x L matrix product:

    grad = 8*pi*h * J_p * Dbar' * Im{ conj(s_bar) * ifft(F * P) }
    P    = Re{ fft(|r|^(p-2) * r * (w_sl / (w_sl'|r|^p) - w_ml / (w_ml'|r|^p))) }

Dbar, the phase-sample Jacobian divided by 2*pi*h, is never materialized:
its action is applied column by column through the cached harmonic bases.
The vector inside the fft of P is conjugate symmetric whenever the weights
are symmetric about zero delay (the ACF itself always is), so P is real up to
rounding; asymmetric weights are rejected because that shortcut would then be
invalid. The 2*pi*h factor is the Jacobian of the
phase samples with respect to each symbol, on top of the 4*J_p factor from the
quotient and modulus stages.
"""

from __future__ import annotations

import math

import numpy as np

from .metrics import (
    GislWeights,
    weights_are_symmetric,
    _fft_length,
    _gisl_ratio,
    _raw_index,
    _validated_p,
)
from .waveform import WaveformConfig, as_phase_vector, build_basis, phase_from_basis

__all__ = ["GradientWorkspace"]


class GradientWorkspace:
    """Cached bases, weight vectors, and intermediates for repeated GISL evaluation.

    One instance serves a fixed (config, weights, p) triple; the optimizer
    reuses it across every cost and gradient call of a run. Reuse never
    changes results. Instances are not safe for concurrent use; give each
    thread its own. A p-sum that underflows to zero or a non-finite gradient
    raises FloatingPointError.
    """

    def __init__(self, cfg: WaveformConfig, weights: GislWeights, p) -> None:
        self.p = _validated_p(p)
        self._n = _fft_length(cfg.M)
        lags = _raw_index(cfg.M, self._n)
        if len(weights.w_sl) != len(lags):
            raise ValueError(
                f"weights length {len(weights.w_sl)} does not match the {len(lags)} lags of M={cfg.M}"
            )
        if not weights_are_symmetric(weights):
            raise ValueError("weights must be symmetric about zero delay")
        if not weights.w_ml.any():
            raise ValueError("mainlobe weight support is empty")
        if not weights.w_sl.any():
            raise ValueError("sidelobe weight support is empty; gradient undefined")
        self.cfg = cfg
        self.weights = weights
        self.basis = build_basis(cfg)
        # weights at the circular lag positions of r
        self._w_sl = np.zeros(self._n)
        self._w_sl[lags] = weights.w_sl
        self._w_ml = np.zeros(self._n)
        self._w_ml[lags] = weights.w_ml
        self._cache: dict | None = None
        self.last_p_imag_ratio: float | None = None

    def _forward(self, phi: np.ndarray) -> dict:
        phi = as_phase_vector(phi, self.cfg.L)
        if self._cache is not None and np.array_equal(self._cache["phi"], phi):
            return self._cache
        theta = phase_from_basis(phi, self.basis, self.cfg.h)
        s = np.exp(1j * theta) / math.sqrt(self.cfg.M)
        big_f = np.fft.fft(s, self._n)
        r = np.fft.ifft(big_f * np.conj(big_f))
        cost, num, den, mags = _gisl_ratio(r, self._w_sl, self._w_ml, self.p)
        self._cache = {
            "phi": phi.copy(),
            "s": s,
            "F": big_f,
            "r": r,
            "mags": mags,
            "num": num,
            "den": den,
            "cost": cost,
        }
        return self._cache

    def cost(self, phi) -> float:
        """GISL value at ``phi`` (linear, not dB)."""
        return self._forward(phi)["cost"]

    def cost_and_gradient(self, phi) -> tuple[float, np.ndarray]:
        """GISL value and its exact gradient with respect to the phase symbols."""
        state = self._forward(phi)
        phi = state["phi"]
        u = self._w_sl / state["num"] - self._w_ml / state["den"]
        v = state["mags"] ** (self.p - 2) * state["r"] * u
        p_spec = np.fft.fft(v)
        re_peak = float(np.max(np.abs(p_spec.real)))
        im_peak = float(np.max(np.abs(p_spec.imag)))
        self.last_p_imag_ratio = im_peak / re_peak if re_peak > 0 else 0.0
        if self.last_p_imag_ratio > 1e-6:
            raise FloatingPointError(
                f"discarded imaginary part too large ({self.last_p_imag_ratio:.3g}); "
                "weights are not effectively symmetric"
            )
        g = np.fft.ifft(state["F"] * p_spec.real)[: self.cfg.M]
        z = (np.conj(state["s"]) * g).imag
        scale = 8.0 * np.pi * self.cfg.h * state["cost"]
        grad = scale * (
            -np.sin(phi) * (self.basis.bc.T @ z) + np.cos(phi) * (self.basis.bs.T @ z)
        )
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"GISL gradient is not finite at p={self.p}")
        return state["cost"], grad
