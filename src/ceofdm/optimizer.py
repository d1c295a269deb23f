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
from typing import Callable, NamedTuple

import numpy as np

from .gradient import GradientWorkspace
from .metrics import GislWeights, _validated_p, db
from .waveform import WaveformConfig, as_phase_vector

__all__ = [
    "OptimizerConfig",
    "TraceRow",
    "OptimizationTrace",
    "LineSearchStall",
    "ArmijoResult",
    "armijo_backtrack",
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
    j_db: float
    grad_norm: float
    mu: float
    backtracks: int
    reset: bool


@dataclass
class OptimizationTrace:
    rows: list[TraceRow] = field(default_factory=list)
    status: str = "iteration_cap"
    initial_j: float = float("nan")
    initial_grad_norm: float = float("nan")

    @property
    def final_j(self) -> float:
        return self.rows[-1].j if self.rows else self.initial_j


class LineSearchStall(RuntimeError):
    """Raised when the backtracking cap is hit without sufficient decrease."""


class ArmijoResult(NamedTuple):
    mu: float
    phi_next: np.ndarray
    j_next: float
    backtracks: int
    mu_next: float


def _direction(grad: np.ndarray, q_prev: np.ndarray, beta: float) -> tuple[np.ndarray, bool]:
    """Momentum direction -grad + beta * q_prev, reset to -grad (flag True) if it would ascend."""
    q = -grad + beta * q_prev
    if float(q @ grad) > 0.0:
        return -grad, True
    return q, False


def armijo_backtrack(
    phi: np.ndarray,
    q: np.ndarray,
    grad: np.ndarray,
    mu_in: float,
    opt: OptimizerConfig,
    cost_fn: Callable[[np.ndarray], float],
    j0: float | None = None,
) -> ArmijoResult:
    """Shrink the step until J(phi + mu q) <= J(phi) + c mu grad'q.

    Returns the accepted step, the new point and cost, the number of
    shrinkages performed, and the grown step seed for the next iteration.
    Raises :class:`LineSearchStall` after ``opt.max_backtracks`` shrinkages.
    """
    slope = float(grad @ q)
    if slope > 0.0:
        raise ValueError("q is not a descent direction (grad'q > 0)")
    if j0 is None:
        j0 = cost_fn(phi)
    mu = float(mu_in)
    for k in range(opt.max_backtracks + 1):
        trial = phi + mu * q
        j = cost_fn(trial)
        if j <= j0 + opt.c * mu * slope:
            return ArmijoResult(mu, trial, j, k, min(mu * opt.rho_up, opt.mu_cap))
        mu *= opt.rho_down
    raise LineSearchStall(
        f"no sufficient decrease after {opt.max_backtracks} backtracks"
    )


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
        Mainlobe/sidelobe selectors, built once from the initial waveform and
        held fixed for the whole run.
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
    phi = as_phase_vector(phi0, cfg.L).copy()
    j, grad = ws.cost_and_gradient(phi)
    trace = OptimizationTrace(
        initial_j=j, initial_grad_norm=float(np.linalg.norm(grad))
    )
    q = np.zeros(cfg.L)
    mu = opt.mu0
    for i in range(1, opt.max_iters + 1):
        if float(np.linalg.norm(grad)) <= opt.g_min:
            trace.status = "gradient_threshold"
            break
        q, reset = _direction(grad, q, opt.beta)
        try:
            res = armijo_backtrack(phi, q, grad, mu, opt, ws.cost, j0=j)
        except LineSearchStall:
            trace.status = "line_search_stall"
            break
        phi, j, mu = res.phi_next, res.j_next, res.mu_next
        _, grad = ws.cost_and_gradient(phi)
        trace.rows.append(
            TraceRow(
                iteration=i,
                j=j,
                j_db=db(j),
                grad_norm=float(np.linalg.norm(grad)),
                mu=res.mu,
                backtracks=res.backtracks,
                reset=reset,
            )
        )
    return phi, trace
