"""Scaled Conjugate Gradient minimizer (Møller's algorithm).

Batch second-order-approximation optimizer with no line search: each cycle
estimates the directional curvature along the current conjugate direction,
regularizes it with a trust-region scale parameter, takes the implied step,
and accepts or rejects it by comparing the actual loss reduction with the
quadratic prediction. See M. Møller, "A scaled conjugate gradient algorithm
for fast supervised learning", Neural Networks 6(4), 1993.

Evaluation economy per cycle: at most two objective evaluations (curvature
probe plus trial point) and at most one gradient evaluation (at an accepted
point: the trial point just evaluated, whose forward pass the fused closures
of ``autoencoder.objective`` reuse, so a training cycle costs two forward
passes and one backward pass). The curvature along p is estimated from
objective values,

    p'Hp  ~=  2 (f(x + sigma*p) - f(x) - sigma * p'g(x)) / sigma^2,

which has the same O(sigma) accuracy as a one-sided gradient difference but
reuses the gradient already in hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autoencoder import AutoencoderModel, flatten_params, objective, unflatten_params
from .series import csv_text

STOP_BUDGET = "budget"
STOP_GRADIENT = "gradient-tolerance"
STOP_NON_FINITE = "non-finite-objective"

# Scale parameter ceiling; beyond this the quadratic model has degenerated
# into vanishing steps and letting lambda grow further only risks overflow.
_LAMBDA_MAX = 1e20


@dataclass(frozen=True)
class ScgConfig:
    max_cycles: int = 100
    sigma0: float = 1e-4
    lambda0: float = 1e-6
    grad_tol: float = 1e-6

    def __post_init__(self):
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be > 0")
        if self.lambda0 < 0 or self.grad_tol < 0:
            raise ValueError("lambda0 and grad_tol must be >= 0")


@dataclass
class TrainReport:
    """Per-cycle accepted-state losses plus how the run ended."""

    loss_history: list[float]
    cycles_run: int
    stop_reason: str

    @property
    def non_finite(self) -> bool:
        return self.stop_reason == STOP_NON_FINITE

    def to_csv(self) -> str:
        cycles = map(str, range(1, len(self.loss_history) + 1))
        return csv_text("cycle,loss", cycles, map(repr, self.loss_history))


def scg_minimize(
    f: Callable[[np.ndarray], float],
    g: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: ScgConfig = ScgConfig(),
) -> tuple[np.ndarray, TrainReport]:
    """Minimize f (with gradient g) from x0; returns the best accepted point.

    Deterministic given the start point. Stops on the cycle budget, on the
    gradient norm falling below ``grad_tol``, or — flagged in the report —
    on f or g producing a non-finite value, in which case the last accepted
    point is returned.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    if not np.all(np.isfinite(x)):
        raise ValueError("start point contains non-finite values")
    dim = x.size

    fx = float(f(x))
    gx = np.asarray(g(x), dtype=np.float64)
    losses: list[float] = []
    if not _finite(fx, gx):
        return x, TrainReport(losses, 0, STOP_NON_FINITE)

    r = -gx
    p = r.copy()
    success = True
    lam = cfg.lambda0
    raw_delta = 0.0  # unscaled directional curvature, reused on rejected cycles
    p_sq = float(p @ p)
    updates_since_restart = 0

    cycles = 0
    stop = STOP_BUDGET
    for _ in range(cfg.max_cycles):
        grad_norm = float(np.linalg.norm(r))
        if grad_norm == 0.0 or grad_norm < cfg.grad_tol:
            stop = STOP_GRADIENT
            break
        cycles += 1

        if success:
            if float(p @ r) <= 0.0:
                # Non-descent direction: restart from steepest descent.
                p = r.copy()
                updates_since_restart = 0
            p_sq = float(p @ p)
            sigma = cfg.sigma0 / math.sqrt(p_sq)
            f_probe = float(f(x + sigma * p))
            if not math.isfinite(f_probe):
                stop = STOP_NON_FINITE
                break
            raw_delta = 2.0 * (f_probe - fx - sigma * float(p @ gx)) / (sigma * sigma)

        # Trust-region scaling; force positive definiteness when needed.
        # (Keeping the raw curvature makes Møller's lambda-bar bookkeeping
        # collapse into recomputing the scaled value from scratch.)
        delta = raw_delta + lam * p_sq
        if delta <= 0.0:
            lam = 2.0 * (lam - delta / p_sq)
            delta = raw_delta + lam * p_sq
        if delta <= 0.0:  # only reachable with lambda == 0 and zero curvature
            delta = cfg.sigma0 * p_sq

        mu = float(p @ r)
        alpha = mu / delta
        x_trial = x + alpha * p
        f_trial = float(f(x_trial))
        if not math.isfinite(f_trial):
            stop = STOP_NON_FINITE
            break
        comparison = 2.0 * delta * (fx - f_trial) / (mu * mu)

        if comparison >= 0.0:
            x = x_trial
            fx = f_trial
            gx_new = np.asarray(g(x), dtype=np.float64)
            if not _finite(0.0, gx_new):
                losses.append(fx)
                stop = STOP_NON_FINITE
                break
            r_new = -gx_new
            success = True
            updates_since_restart += 1
            if updates_since_restart >= dim:
                p = r_new.copy()
                updates_since_restart = 0
            else:
                beta = (float(r_new @ r_new) - float(r_new @ r)) / mu
                p = r_new + beta * p
            r = r_new
            gx = gx_new
            if comparison >= 0.75:
                lam = 0.25 * lam
        else:
            success = False

        if comparison < 0.25:
            lam = min(lam + delta * (1.0 - comparison) / p_sq, _LAMBDA_MAX)

        losses.append(fx)

    return x, TrainReport(losses, cycles, stop)


def train(
    model: AutoencoderModel,
    X: np.ndarray,
    cfg: ScgConfig = ScgConfig(),
) -> tuple[AutoencoderModel, TrainReport]:
    """Fit the autoencoder to the rows of the window matrix X by full-batch SCG.

    Deterministic given (model, X, cfg): the optimizer has no randomness of
    its own. Raises DimensionMismatch or EmptyDataset, as ``objective`` does.
    """
    X = X.astype(np.float64, copy=False)
    best, report = scg_minimize(*objective(model, X), flatten_params(model), cfg)
    return unflatten_params(model, best), report


def _finite(value: float, array: np.ndarray) -> bool:
    return math.isfinite(value) and bool(np.all(np.isfinite(array)))
