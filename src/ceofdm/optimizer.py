"""Heavy-ball gradient descent on the GISL cost with Armijo backtracking.

Each iteration blends the negated gradient with the previous search
direction, resets to plain steepest descent whenever the blend would ascend,
backtracks the step until sufficient decrease holds, then lets the step grow
again for the next iteration. Accepted iterations therefore decrease the
cost strictly; the loop stops at the iteration cap, at a gradient-norm
threshold, or when the line search stalls at machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gradient import GradientWorkspace
from .metrics import GislWeights, _validated_p
from .waveform import WaveformConfig, _phase_vector

__all__ = [
    "OptimizerConfig",
    "TraceRow",
    "OptimizationTrace",
    "run_gd_gisl",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters of the descent loop.

    ``mu`` carries over between iterations: it grows by ``rho_up`` after every
    accepted step (capped at ``mu_cap``) and shrinks by ``rho_down`` inside
    the line search.
    """

    p: int = 20
    beta: float = 0.5
    mu0: float = 1.0
    rho_down: float = 0.5
    rho_up: float = 2.0
    c: float = 1e-4
    max_iters: int = 100
    g_min: float = 1e-6
    max_backtracks: int = 60
    mu_cap: float = 1e3

    def __post_init__(self) -> None:
        _validated_p(self.p)
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if not 0.0 < self.mu0 < math.inf:
            raise ValueError("mu0 must be positive and finite")
        if not 0.0 < self.rho_down < 1.0:
            raise ValueError("rho_down must be in (0, 1)")
        if self.rho_up < 1.0:
            raise ValueError("rho_up must be >= 1")
        if not 0.0 < self.c < 1.0:
            raise ValueError("c must be in (0, 1)")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.g_min < 0.0:
            raise ValueError("g_min must be >= 0")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1")
        if self.mu_cap <= 0.0:
            raise ValueError("mu_cap must be positive")


@dataclass(frozen=True)
class TraceRow:
    """State after one accepted iteration; grad_norm is taken at the new point."""

    iteration: int
    j: float
    grad_norm: float
    mu: float
    backtracks: int
    reset: bool


@dataclass
class OptimizationTrace:
    """Accepted iterations, why the loop stopped, and the run's counts.

    ``counts`` holds the workspace's evaluation counts and, over every line
    search including a stalled one, the step backtracks and momentum resets.
    """

    rows: list[TraceRow] = field(default_factory=list)
    status: str = "iteration_cap"
    initial_j: float = float("nan")
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def final_j(self) -> float:
        return self.rows[-1].j if self.rows else self.initial_j


def _direction(grad: np.ndarray, q_prev: np.ndarray, beta: float) -> tuple[np.ndarray, bool]:
    """Momentum direction -grad + beta * q_prev, reset to -grad (flag True) if it would ascend."""
    q = -grad + beta * q_prev
    if float(q @ grad) > 0.0:
        return -grad, True
    return q, False


def _armijo(cost, phi, q, slope: float, j0: float, mu: float, opt: OptimizerConfig):
    """Shrink the step until J(phi + mu q) <= j0 + c mu slope, with slope = grad'q <= 0.

    Returns the accepted step, the new point, its cost and the number of
    shrinkages, or None after ``opt.max_backtracks`` shrinkages without
    sufficient decrease.
    """
    for k in range(opt.max_backtracks + 1):
        trial = phi + mu * q
        j = cost(trial)
        if j <= j0 + opt.c * mu * slope:
            return mu, trial, j, k
        mu *= opt.rho_down
    return None


def run_gd_gisl(
    phi0,
    cfg: WaveformConfig,
    w: GislWeights,
    opt: OptimizerConfig | None = None,
) -> tuple[np.ndarray, OptimizationTrace]:
    """Minimize the GISL cost over the phase symbols with frozen weights.

    Parameters
    ----------
    phi0 : array_like
        Initial phase symbols, shape (L,).
    cfg : WaveformConfig
        Waveform and sampling parameters.
    w : GislWeights
        Mainlobe and sidelobe supports, built once from the initial waveform
        and held fixed for the whole run.
    opt : OptimizerConfig, optional
        Loop hyperparameters; defaults are used when omitted.

    Returns
    -------
    phi : ndarray
        Final phase symbols.
    trace : OptimizationTrace
        Per-iteration history and the termination status.
    """
    if opt is None:
        opt = OptimizerConfig()
    ws = GradientWorkspace(cfg, w, opt.p)
    phi = _phase_vector(phi0, cfg.L).copy()
    j, grad = ws.cost_and_gradient(phi)
    grad_norm = math.sqrt(float(grad @ grad))
    trace = OptimizationTrace(initial_j=j)
    q = np.zeros(cfg.L)
    mu = float(opt.mu0)
    backtracks = resets = 0
    for i in range(1, opt.max_iters + 1):
        if grad_norm <= opt.g_min:
            trace.status = "gradient_threshold"
            break
        q, reset = _direction(grad, q, opt.beta)
        resets += reset
        slope = float(grad @ q)
        found = _armijo(ws.cost, phi, q, slope, j, mu, opt)
        if found is None:
            backtracks += opt.max_backtracks
            trace.status = "line_search_stall"
            break
        step, phi, j, shrinkages = found
        backtracks += shrinkages
        mu = min(step * opt.rho_up, opt.mu_cap)
        _, grad = ws.cost_and_gradient(phi)
        grad_norm = math.sqrt(float(grad @ grad))
        trace.rows.append(
            TraceRow(
                iteration=i,
                j=j,
                grad_norm=grad_norm,
                mu=step,
                backtracks=shrinkages,
                reset=reset,
            )
        )
    trace.counts = {**ws.counts, "backtracks": backtracks, "momentum_resets": resets}
    return phi, trace
