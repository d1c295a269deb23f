"""Analytic gradient of the GISL cost with respect to the PSK phase vector.

The cost J_p is a smooth function of the phase symbols through the chain

    phi -> phase samples -> s -> F = fft(s) -> r = ifft(|F|^2) -> J_p

and every linear stage is a DFT: M points from the symbols to the phase
samples, N >= M+K points after that, with K the largest lag of the weight
supports (the FFT length and lag layout of ``metrics``).

Forward pass. The phase samples are the harmonic synthesis of ``waveform``,
one M-point irfft. J_p does not change when the pulse is scaled, so the
samples are s = exp(j theta) without the 1/sqrt(M), and the ACF is never
divided by N. |F|^2 is real, so r is conjugate symmetric and its half spectrum
rfft(|F|^2) = N M conj(r[0..N/2]) holds all of it: bin k stands for the
lags +k and -k (it counts once at lag 0). The p-sums of
``metrics._gisl_ratio`` run over the bins of the weight supports only, each
bin counted with that fold count, and each sum is divided by its support's
peak before powering, so no p-sum underflows or overflows at any even p.

Gradient. Three more FFTs:

    grad = 8*pi*h * J_p * Dbar' * z,  z = Im{ conj(s) * ifft(F * P) }
    P    = fft(v),  v = |r|^(p-2) * r * (1_sl / sum_sl |r|^p - 1_ml / sum_ml |r|^p)

v is nonzero on the supports only and is built there in peak-normalised
form. It is zero beyond lag K, so the linear convolution behind
ifft(F * P) lives on -K..M-1+K, and the circular sample m adds the linear
samples m-N and m+N, both outside that range for m = 0..M-1 once N >= M+K.
The weights store each support as lags k >= 0 that select both -k and +k,
so v is conjugate symmetric and P = hfft(v[0..N/2], N) is real by
construction.
With the unnormalised forward pass, v comes out divided by N M and conj(s),
F multiplied by sqrt(M) each, so the gradient's scale carries one factor N.
Dbar, the phase-sample Jacobian divided by 2*pi*h, is never materialized.
Its column l is the harmonic sin(2*pi*l*t/T - phi_l), and on the grid
t = m T / M harmonic l is DFT bin l, so Dbar' z = -Im{exp(j phi) * rfft(z)}
on bins 1..L. The 2*pi*h factor is the Jacobian of the phase samples with
respect to each symbol, on top of the 4*J_p factor from the quotient and
modulus stages.
"""

from __future__ import annotations

import numpy as np

from .metrics import GislWeights, _check_lags, _fft_length, _gisl_ratio, _validated_p
from .waveform import TWO_PI, WaveformConfig, _harmonic_sum, _phase_vector

__all__ = ["GradientWorkspace"]


class GradientWorkspace:
    """Cached weight supports and intermediates for repeated GISL evaluation.

    One instance serves a fixed (config, weights, p) triple; the optimizer
    reuses it across every cost and gradient call of a run. Reuse never
    changes results. Instances are not safe for concurrent use; give each
    thread its own. A non-finite gradient raises FloatingPointError.

    ``counts`` tallies the forward passes, the gradient passes and the calls
    served from the cache of the last forward pass.
    """

    def __init__(self, cfg: WaveformConfig, weights: GislWeights, p) -> None:
        self.p = _validated_p(p)
        _check_lags(weights, 2 * cfg.M - 1)
        if weights.sl_lags.size == 0:
            raise ValueError("sidelobe weight support is empty; gradient undefined")
        self.cfg = cfg
        self.weights = weights
        # lag k >= 0 sits at bin k of the half spectrum and also stands for
        # lag -k, so it counts twice, except lag 0
        sl, ml = weights.sl_lags, weights.ml_lags
        self._sl = sl, np.full(sl.size, 2.0)
        self._ml = ml, np.where(ml == 0, 1.0, 2.0)
        # lags beyond the sidelobe lags, the largest, are never read, so
        # N >= M + K is exact and N > 2K keeps every support bin below the
        # Nyquist bin N/2
        self._n = _fft_length(cfg.M, int(sl[-1]))
        self._cache: dict | None = None
        self.counts = {"forward_passes": 0, "gradient_passes": 0, "cache_hits": 0}

    def _forward(self, phi: np.ndarray) -> dict:
        key = phi.tobytes()
        if self._cache is not None and self._cache["key"] == key:
            self.counts["cache_hits"] += 1
            return self._cache
        self.counts["forward_passes"] += 1
        theta = TWO_PI * self.cfg.h * _harmonic_sum(np.exp(-1j * phi), self.cfg.M)
        s = np.exp(1j * theta)
        big_f = np.fft.fft(s, self._n)
        # N M conj(r) on lags 0..N/2
        r_half = np.fft.rfft(big_f.real**2 + big_f.imag**2)
        (sl_idx, sl_coef), (ml_idx, ml_coef) = self._sl, self._ml
        r_sl, r_ml = r_half[sl_idx], r_half[ml_idx]
        cost, sl, ml = _gisl_ratio(np.abs(r_sl), sl_coef, np.abs(r_ml), ml_coef, self.p)
        self._cache = {
            "key": key,
            "s": s,
            "F": big_f,
            "r": (r_sl, r_ml),
            "psums": (sl, ml),
            "cost": cost,
        }
        return self._cache

    def cost(self, phi) -> float:
        """GISL value at ``phi`` (linear, not dB)."""
        return self._forward(_phase_vector(phi, self.cfg.L))["cost"]

    def cost_and_gradient(self, phi) -> tuple[float, np.ndarray]:
        """GISL value and its exact gradient with respect to the phase symbols."""
        phi = _phase_vector(phi, self.cfg.L)
        state = self._forward(phi)
        self.counts["gradient_passes"] += 1
        (sl_idx, _), (ml_idx, _) = self._sl, self._ml
        (a, sl_sum, sl_pow), (b, ml_sum, ml_pow) = state["psums"]
        r_sl, r_ml = state["r"]
        # |r|^(p-2) r / sum |r|^p on each support in peak-normalised form;
        # conj undoes the conj that rfft put on r
        v = np.zeros(self._n // 2 + 1, dtype=complex)
        v[sl_idx] = (sl_pow / (a * a * sl_sum)) * np.conj(r_sl)
        v[ml_idx] = -(ml_pow / (b * b * ml_sum)) * np.conj(r_ml)
        p_spec = np.fft.hfft(v, self._n)
        g = np.fft.ifft(state["F"] * p_spec)[: self.cfg.M]
        z = (np.conj(state["s"]) * g).imag
        scale = 8.0 * np.pi * self.cfg.h * state["cost"] * self._n
        grad = -scale * (np.exp(1j * phi) * np.fft.rfft(z)[1 : self.cfg.L + 1]).imag
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"GISL gradient is not finite at p={self.p}")
        return state["cost"], grad
