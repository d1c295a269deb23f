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
so v is conjugate symmetric and P is real by construction. The half
spectrum holds conj(r), so its bins times the coefficients are conj(v), and
P = irfft(conj(v), N, norm="forward"), which is hfft(v, N) without
conjugating twice.
With the unnormalised forward pass, v comes out divided by N M and conj(s),
F multiplied by sqrt(M) each, so the gradient's scale carries one factor N.
Dbar, the phase-sample Jacobian divided by 2*pi*h, is never materialized.
Its column l is the harmonic sin(2*pi*l*t/T - phi_l), and on the grid
t = m T / M harmonic l is DFT bin l, so Dbar' z = -Im{exp(j phi) * rfft(z)}
on bins 1..L. The 2*pi*h factor is the Jacobian of the phase samples with
respect to each symbol, on top of the 4*J_p factor from the quotient and
modulus stages.

Cost of one evaluation. The optimizer evaluates the cost about twice per
gradient (rejected Armijo trials), so per-call overhead counts. The
workspace owns every buffer an evaluation fills, and every FFT and ufunc
writes into one with ``out=``, so an evaluation makes no M- or N-point
array. The phase samples go to the first M doubles of the |F|^2 buffer,
which later holds P; F has its own buffer; the half spectrum of |F|^2 goes
to the head of the F * P product buffer, whose first N doubles are also
the forward pass's im^2 scratch and later hold conj(s) * g; ifft(F * P) has
its own buffer, and the gradient's M-point rfft a buffer of M/2+1 bins. The
harmonic bins and v are zeroed once, and only bins 1..L and the support
bins are rewritten. Every view and scale the passes read is made once, in
the constructor. Both supports are gathered at once, as sidelobe bins then
mainlobe bins, and one pass of ``metrics._gisl_ratio`` takes |r|, both peak
normalisations, the powers and one dot product per support.
"""

from __future__ import annotations

import numpy as np

from .metrics import (
    GislWeights,
    _check_lags,
    _fft_length,
    _gisl_ratio,
    _support_views,
    _validated_p,
)
from .waveform import WaveformConfig, _phase_samples, _phase_vector, _phasor

__all__ = ["GradientWorkspace"]


class GradientWorkspace:
    """Cached weight supports, buffers and the last forward pass, for repeated GISL evaluation.

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
        sl, ml = weights.sl_lags, weights.ml_lags
        # both supports in one gather, sidelobe bins first; lag k >= 0 sits at
        # bin k of the half spectrum and also stands for lag -k, so it counts
        # twice, except lag 0
        self._bins = np.concatenate((sl, ml))
        coef = np.concatenate((np.full(sl.size, 2.0), np.where(ml == 0, 1.0, 2.0)))
        # lags beyond the sidelobe lags, the largest, are never read, so
        # N >= M + K is exact and N > 2K keeps every support bin below the
        # Nyquist bin N/2
        n = self._n = _fft_length(cfg.M, int(sl[-1]))
        m, k = cfg.M, self._bins.size
        self._spec = np.zeros(m // 2 + 1, dtype=complex)  # harmonic bins 1..L
        self._s = np.empty(m, dtype=complex)  # phasor exp(j theta)
        self._f = np.empty(n, dtype=complex)  # F of the last forward pass
        self._power = np.empty(n)  # theta, then |F|^2, then P
        self._prod = np.empty(n, dtype=complex)  # F * P, and scratch of both passes
        self._g = np.empty(n, dtype=complex)  # ifft(F * P)
        self._zspec = np.empty(m // 2 + 1, dtype=complex)  # rfft of Im{conj(s) * g}
        self._v = np.zeros(n // 2 + 1, dtype=complex)  # conj(v) on the support bins
        self._r = np.empty(k, dtype=complex)  # N M conj(r) on the support bins
        self._vbins = np.empty(k, dtype=complex)
        # the views and scales both passes read, made once
        self._theta = self._power[:m]
        self._s_parts = self._s.real, self._s.imag
        self._f_parts = self._f.real, self._f.imag
        self._square = self._prod.view(float)[:n]  # im^2 of F
        self._half = self._prod[: n // 2 + 1]  # rfft(|F|^2)
        self._z = self._prod[:m]  # conj(s) * g
        self._z_imag = self._z.imag
        self._g_head = self._g[:m]
        self._zbins = self._zspec[1 : cfg.L + 1]
        self._x = _support_views(np.empty(k), sl.size)  # |r| / peak
        self._pow = _support_views(np.empty(k), sl.size)  # (|r| / peak)^(p-2)
        self._work = _support_views(np.empty(k), sl.size)
        self._coef = _support_views(coef, sl.size)
        self._grad_scale = 8.0 * np.pi * cfg.h
        # the last forward pass: its phase bytes and the cost with its peaks
        # and p-sums; F, the phasor and the gathered values live in the
        # buffers above until the next forward pass
        self._key: bytes | None = None
        self._cost = self._sl = self._ml = None
        self.counts = {"forward_passes": 0, "gradient_passes": 0, "cache_hits": 0}

    def _forward(self, phi: np.ndarray) -> float:
        key = phi.tobytes()
        if key == self._key:
            self.counts["cache_hits"] += 1
            return self._cost
        self.counts["forward_passes"] += 1
        self._key = None  # the buffers no longer hold the cached pass
        theta = _phase_samples(phi, self.cfg, self._spec, self._theta)
        _phasor(theta, *self._s_parts)
        np.fft.fft(self._s, self._n, out=self._f)
        # |F|^2 as re^2 + im^2
        power, square = self._power, self._square
        re, im = self._f_parts
        np.square(re, out=power)
        np.square(im, out=square)
        power += square
        # N M conj(r) on lags 0..N/2, gathered on both supports
        np.fft.rfft(power, out=self._half).take(self._bins, out=self._r, mode="clip")
        np.abs(self._r, out=self._x[0])
        self._cost, self._sl, self._ml = _gisl_ratio(
            self._x, self._coef, self._work, self._pow[0], self.p
        )
        self._key = key
        return self._cost

    def cost(self, phi) -> float:
        """GISL value at ``phi`` (linear, not dB)."""
        return self._forward(_phase_vector(phi, self.cfg.L))

    def cost_and_gradient(self, phi) -> tuple[float, np.ndarray]:
        """GISL value and its exact gradient with respect to the phase symbols."""
        phi = _phase_vector(phi, self.cfg.L)
        cost = self._forward(phi)
        self.counts["gradient_passes"] += 1
        (a, sl_sum), (b, ml_sum) = self._sl, self._ml
        _, pow_sl, pow_ml = self._pow
        work, work_sl, work_ml = self._work
        # |r|^(p-2) / sum |r|^p on each support in peak-normalised form, times
        # the gathered conj(r): conj(v) on the support bins. x / -d is -(x / d)
        # to the bit, since rounding to nearest is symmetric
        np.divide(pow_sl, a * a * sl_sum, out=work_sl)
        np.divide(pow_ml, -(b * b * ml_sum), out=work_ml)
        np.multiply(work, self._r, out=self._vbins)
        self._v[self._bins] = self._vbins
        p_spec = np.fft.irfft(self._v, self._n, norm="forward", out=self._power)
        np.multiply(self._f, p_spec, out=self._prod)
        np.fft.ifft(self._prod, out=self._g)
        # conj(s) * g, in the product buffer, which ifft no longer needs
        z = self._z
        np.conjugate(self._s, out=z)
        np.multiply(z, self._g_head, out=z)
        np.fft.rfft(self._z_imag, out=self._zspec)
        scale = self._grad_scale * cost * self._n
        grad = -scale * (np.exp(1j * phi) * self._zbins).imag
        if not np.isfinite(grad).all():
            raise FloatingPointError(f"GISL gradient is not finite at p={self.p}")
        return cost, grad
