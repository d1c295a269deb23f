"""Analytic gradient of the GISL cost with respect to the PSK phase vector.

The cost J_p is a smooth function of the phase symbols through the chain

    phi -> phase samples -> s -> F = fft(s) -> r = ifft(|F|^2) -> J_p

and every linear stage is a DFT: M points from the symbols to the phase
samples, N >= M+K points after that, with K the largest lag of the weight
supports (the FFT length and lag layout of ``metrics``).

Forward pass. The phase samples are the harmonic synthesis of ``waveform``,
one unscaled M-point irfft of b_l = pi*h*exp(-j phi_l) on bins 1..L. J_p
does not change when the pulse is scaled, so the samples are
s = exp(j theta) without the 1/sqrt(M), and the ACF is never divided by N.
|F|^2 is real, so r is conjugate symmetric and its half spectrum
rfft(|F|^2) = N M conj(r[0..N/2]) holds all of it: bin k stands for the
lags +k and -k (it counts once at lag 0). The peak-normalised p-sums of
``metrics._gisl_ratio`` count each support bin twice, lag 0 once, in the
two buffers that ``metrics._support_buffers`` gives here and to ``compute_gisl``.

Gradient. Three more FFTs:

    grad = 8*pi*h * J_p * Dbar' * z,  z = Im{ conj(s) * ifft(F * P) }
    P    = fft(v),  v = |r|^(p-2) * r * (1_sl / sum_sl |r|^p - 1_ml / sum_ml |r|^p)

v is nonzero on the supports only and is built there in peak-normalised
form. It is zero beyond lag K, so the linear convolution behind
ifft(F * P) lives on -K..M-1+K, and the circular sample m adds the linear
samples m-N and m+N, both outside that range for m = 0..M-1 once N >= M+K.
The weights store each support as a range of lags k >= 0, each selecting
both -k and +k, so v is conjugate symmetric and P is real by construction.
The half spectrum holds conj(r), so its bins times the coefficients are
conj(v), and P = irfft(conj(v), N, norm="forward"), which is hfft(v, N)
without conjugating twice.
With the unnormalised forward pass, v comes out divided by N M and conj(s),
F multiplied by sqrt(M) each, so the gradient's scale carries one factor N.
Dbar, the phase-sample Jacobian divided by 2*pi*h, is never materialized.
Its column l is the harmonic sin(2*pi*l*t/T - phi_l), and on the grid
t = m T / M harmonic l is DFT bin l, so Dbar' z = -Im{exp(j phi) * rfft(z)}
on bins 1..L. The 2*pi*h factor is the Jacobian of the phase samples with
respect to each symbol, on top of the 4*J_p factor from the quotient and
modulus stages. With b = pi*h*exp(-j phi), the bins the forward pass leaves,
and Z = rfft(z), z = s_re g_im - s_im g_re, the gradient is the real
8*J_p*N*(b_im Z_re - b_re Z_im): pi*h moves from its scale into b.

Cost of one evaluation. The optimizer evaluates the cost about twice per
gradient (rejected Armijo trials), so per-call overhead counts. Every FFT
and ufunc writes with ``out=`` into a buffer the workspace owns, and every
view and scale is made in the constructor. So are the six FFT kernels: the
constructor binds each to its pocketfft gufunc and scale through
``metrics._fft_kernel``, and the passes call the gufuncs directly, with no
numpy.fft wrapper in between. The gufuncs come from
numpy.fft._pocketfft_umath, a module private to numpy.

The |F|^2 buffer holds the phase samples first, then P, then z in its head
(the z spectrum's buffer is scratch until Z); the N/2+1 bins of the
half-spectrum buffer hold the im^2 scratch, then rfft(|F|^2), which the next
gradient of a cached pass reads again. F * P and its ifft share one buffer.
Each support is a slice of the half spectrum and of conj(v), written real
and imaginary parts apart; only those bins of v, and bins 1..L of the
harmonic buffer, are ever written. The |r|/peak buffer takes its squares,
then the gradient's powers over their p-sums; the powers are kept for the
next gradient of a cached pass.
"""

from __future__ import annotations

import numpy as np

from .metrics import (
    GislWeights,
    _fft_kernel,
    _fft_length,
    _gisl_ratio,
    _phasor,
    _support_buffers,
    _validated_p,
)
from .waveform import WaveformConfig, _phase_samples, _phase_vector

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
        # lag k >= 0 sits at bin k of the half spectrum and also stands for lag -k
        bins, self._x, self._pow = _support_buffers(weights, 2 * cfg.M - 1)
        if weights.sl_last < weights.sl_first:
            raise ValueError("sidelobe weight support is empty; gradient undefined")
        self.cfg = cfg
        # lags beyond sl_last, the largest, are never read, so N >= M + K is
        # exact and N > 2K keeps every support bin below the Nyquist bin N/2
        n = self._n = _fft_length(cfg.M, weights.sl_last)
        m = cfg.M
        self._spec = np.zeros(m // 2 + 1, dtype=complex)  # pi h exp(-j phi) on bins 1..L
        self._s = np.empty(m, dtype=complex)  # phasor exp(j theta)
        self._f = np.empty(n, dtype=complex)  # F of the last forward pass
        self._power = np.empty(n)  # theta, then |F|^2, then P, then z in its head
        self._half = np.empty(n // 2 + 1, dtype=complex)  # im^2 of F, then rfft(|F|^2)
        self._g = np.empty(n, dtype=complex)  # F * P, then its ifft
        self._zspec = np.empty(m // 2 + 1, dtype=complex)  # scratch for z, then rfft(z)
        self._v = np.zeros(n // 2 + 1, dtype=complex)  # conj(v) on the support bins
        # the views and scales both passes read, made once
        self._theta = self._z = self._power[:m]
        self._s_parts = self._s.real, self._s.imag
        self._f_parts = self._f.real, self._f.imag
        self._g_parts = self._g.real[:m], self._g.imag[:m]
        self._fg_parts = list(zip(self._f_parts, (self._g.real, self._g.imag)))
        self._square = self._half.view(float)[:n]
        self._z_scratch = self._zspec.view(float)[:m]
        self._bins = self._spec[1 : cfg.L + 1].real, self._spec[1 : cfg.L + 1].imag
        self._zbins = self._zspec[1 : cfg.L + 1].real, self._zspec[1 : cfg.L + 1].imag
        # per support: its parts of _x and _pow, and its bins of the half
        # spectrum and of conj(v), also by parts, since a float times a
        # complex would go through numpy's cast buffer
        half, v = self._half, self._v
        self._supports = [
            (x, half[b], powers, half[b].real, half[b].imag, v[b].real, v[b].imag)
            for x, powers, b in zip(self._x[1:], self._pow[1:], bins)
        ]
        # the pocketfft kernels and scales of the six FFTs, bound once: the
        # M-point harmonic irfft, fft(s, N) and rfft(|F|^2), then the irfft
        # of conj(v), the ifft of F * P and the M-point rfft of z
        self._harmonic = _fft_kernel("irfft", m, norm="forward")
        self._fft, self._rfft = _fft_kernel("fft", n), _fft_kernel("rfft", n)
        self._irfft = _fft_kernel("irfft", n, norm="forward")
        self._ifft, self._zrfft = _fft_kernel("ifft", n), _fft_kernel("rfft", m)
        self._grad_scale = 8.0 * n  # 8 pi h N over the harmonic bins' pi h
        # the last forward pass: its phase bytes, cost, peaks and p-sums; F, the
        # phasor and the half spectrum stay in the buffers until the next one
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
        theta = _phase_samples(phi, self.cfg, self._spec, self._theta, self._harmonic)
        _phasor(theta, *self._s_parts)
        fft, one = self._fft
        fft(self._s, one, out=self._f)
        # |F|^2 as re^2 + im^2
        power, square = self._power, self._square
        re, im = self._f_parts
        np.square(re, out=power)
        np.square(im, out=square)
        power += square
        # N M conj(r) on lags 0..N/2, and its magnitude on both supports
        rfft, one = self._rfft
        rfft(power, one, out=self._half)
        for x, half, *_ in self._supports:
            np.abs(half, out=x)
        self._cost, self._sl, self._ml = _gisl_ratio(self._x, self._pow, self.p)
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
        # |r|^(p-2) / sum |r|^p on each support in peak-normalised form, in
        # |r|'s buffer, times the half spectrum's conj(r): conj(v) on the
        # support bins. x / -d is -(x / d) to the bit, since rounding to
        # nearest is symmetric
        scales = a * a * sl_sum, -(b * b * ml_sum)
        for (x, _, powers, re, im, v_re, v_im), scale in zip(self._supports, scales):
            np.divide(powers, scale, out=x)
            np.multiply(x, re, out=v_re)
            np.multiply(x, im, out=v_im)
        irfft, one = self._irfft
        p_spec = irfft(self._v, one, out=self._power)
        for f_part, g_part in self._fg_parts:
            np.multiply(f_part, p_spec, out=g_part)
        ifft, inv_n = self._ifft
        ifft(self._g, inv_n, out=self._g)
        # z = Im{conj(s) * g} in P's head, which nothing reads any more
        (s_re, s_im), (g_re, g_im), z = self._s_parts, self._g_parts, self._z
        np.multiply(s_re, g_im, out=z)
        np.multiply(s_im, g_re, out=self._z_scratch)
        z -= self._z_scratch
        rfft, one = self._zrfft
        rfft(z, one, out=self._zspec)
        # -Im{exp(j phi) Z} = Im{conj(b) Z} / -(pi h), b = pi h exp(-j phi)
        (b_re, b_im), (z_re, z_im) = self._bins, self._zbins
        grad = (self._grad_scale * cost) * (b_im * z_re - b_re * z_im)
        if not np.isfinite(grad).all():
            raise FloatingPointError(f"GISL gradient is not finite at p={self.p}")
        return cost, grad
