"""Scaled Conjugate Gradient minimizer (Møller's algorithm).

Batch second-order-approximation optimizer with no line search: each cycle
takes the directional curvature along the current conjugate direction,
regularizes it with a trust-region scale parameter, takes the implied step,
and accepts or rejects it by comparing the actual loss reduction with the
quadratic prediction. See M. Møller, "A scaled conjugate gradient algorithm
for fast supervised learning", Neural Networks 6(4), 1993.

Evaluation economy per cycle: one objective evaluation (the trial point),
and after an accepted step one gradient and one curvature evaluation at the
new point. The curvature p'Hp is exact, supplied by the caller, instead of
Møller's finite-difference probe ``f(x + sigma*p)``: a probe loses its
accuracy once the loss is evaluated in single precision. For the
autoencoder, ``autoencoder.objective`` fuses the three: its loss pass also
takes the gradient, so the gradient rides on the trial's pass, and an
accepted cycle costs two passes over the data, one forward and backward
(five matrix products a row block), then one forward-mode (three). A
rejected cycle costs one pass, whose backward half goes unused;
``TrainReport.accepted`` records which cycles those were.

A run stops on its caller's cycle budget, on a gradient norm below the
constant ``GRAD_TOL``, or on a non-finite value. The optimizer works in
float64; ``train`` is the one place that runs the autoencoder in float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
# Scaled curvature per unit p'p taken when lambda is 0 and p'Hp is too.
_FLAT_CURVATURE = 1e-4
_LAMBDA0 = 1e-6  # scale parameter of the first cycle, Møller's lambda_1
GRAD_TOL = 1e-6  # a gradient norm below this ends the run as converged


@dataclass
class TrainReport:
    """Per-cycle accepted-state losses, whether each cycle's trial step was accepted, and how the run ended.

    ``accepted`` runs parallel to ``loss_history``: a rejected cycle keeps
    the loss before it, and its trial point's evaluation goes unused. The
    CSV of :meth:`to_csv` holds the losses alone.
    """

    loss_history: list[float]
    cycles_run: int
    stop_reason: str
    accepted: list[bool] = field(default_factory=list)

    @property
    def non_finite(self) -> bool:
        return self.stop_reason == STOP_NON_FINITE

    def to_csv(self) -> str:
        cycles = map(str, range(1, len(self.loss_history) + 1))
        return csv_text("cycle,loss", cycles, map(repr, self.loss_history))


def scg_minimize(
    f: Callable[[np.ndarray], float],
    g: Callable[[np.ndarray], np.ndarray],
    curvature: Callable[[np.ndarray, np.ndarray], float],
    x0: np.ndarray,
    max_cycles: int,
) -> tuple[np.ndarray, TrainReport]:
    """Minimize f (with gradient g) from x0; returns the best accepted point.

    ``curvature(x, p)`` is p'Hp, the second derivative of f at x along p;
    it is only called at a point where g was just evaluated. Deterministic
    given the start point. Stops after ``max_cycles`` cycles (at least 1),
    on the gradient norm falling below the constant ``GRAD_TOL``, or —
    flagged in the report — on f, g or the curvature producing a non-finite
    value, in which case the last accepted point is returned.
    """
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
    x = np.array(x0, dtype=np.float64, copy=True)
    if not np.all(np.isfinite(x)):
        raise ValueError("start point contains non-finite values")
    dim = x.size

    fx = float(f(x))
    r = -np.asarray(g(x), dtype=np.float64)
    losses: list[float] = []
    accepted: list[bool] = []
    if not _finite(fx, r):
        return x, TrainReport(losses, 0, STOP_NON_FINITE, accepted)

    p = r.copy()
    success = True
    lam = _LAMBDA0
    raw_delta = 0.0  # unscaled directional curvature, reused on rejected cycles
    updates_since_restart = 0

    cycles = 0
    stop = STOP_BUDGET
    for _ in range(max_cycles):
        grad_norm = float(np.linalg.norm(r))
        if grad_norm == 0.0 or grad_norm < GRAD_TOL:  # zero stops even at GRAD_TOL 0: p would restart at r = 0
            stop = STOP_GRADIENT
            break
        cycles += 1

        if success:
            if float(p @ r) <= 0.0:
                # Non-descent direction: restart from steepest descent.
                p = r.copy()
                updates_since_restart = 0
            p_sq = float(p @ p)
            raw_delta = float(curvature(x, p))
            if not math.isfinite(raw_delta):
                stop = STOP_NON_FINITE
                break

        # Trust-region scaling; force positive definiteness when needed.
        # (Keeping the raw curvature makes Møller's lambda-bar bookkeeping
        # collapse into recomputing the scaled value from scratch.)
        delta = raw_delta + lam * p_sq
        if delta <= 0.0:
            lam = 2.0 * (lam - delta / p_sq)
            delta = raw_delta + lam * p_sq
        if delta <= 0.0:  # only reachable with lambda == 0 and zero curvature
            delta = _FLAT_CURVATURE * p_sq

        mu = float(p @ r)
        alpha = mu / delta
        x_trial = x + alpha * p
        f_trial = float(f(x_trial))
        if not math.isfinite(f_trial):
            stop = STOP_NON_FINITE
            break
        comparison = 2.0 * delta * (fx - f_trial) / (mu * mu)

        success = comparison >= 0.0
        accepted.append(success)
        if success:
            x = x_trial
            fx = f_trial
            r_new = -np.asarray(g(x), dtype=np.float64)
            if not _finite(0.0, r_new):
                losses.append(fx)
                stop = STOP_NON_FINITE
                break
            updates_since_restart += 1
            if updates_since_restart >= dim:
                p = r_new.copy()
                updates_since_restart = 0
            else:
                beta = (float(r_new @ r_new) - float(r_new @ r)) / mu
                p = r_new + beta * p
            r = r_new
            if comparison >= 0.75:
                lam = 0.25 * lam

        if comparison < 0.25:
            lam = min(lam + delta * (1.0 - comparison) / p_sq, _LAMBDA_MAX)

        losses.append(fx)

    return x, TrainReport(losses, cycles, stop, accepted)


def train(model: AutoencoderModel, X: np.ndarray, max_cycles: int) -> tuple[AutoencoderModel, TrainReport]:
    """Fit the autoencoder to the window matrix X by full-batch SCG, for up to ``max_cycles`` cycles.

    Training runs in float32: X is cast once, which copies nothing when it
    already is float32, and ``autoencoder.objective`` runs its loss,
    gradient and curvature kernels, and the sums within each row block, in
    X's precision; each block's sums are kept, and added over the blocks,
    in float64. The loss and the gradient share one pass over the blocks,
    and the curvature takes another. The SCG vectors, the loss history and
    the returned weights are float64. The objective runs its blocks through
    ``autoencoder._pool``, as scoring does: this thread and up to one
    helper thread per CPU but one take the blocks of a pass, each with one
    set of block buffers, made once in this thread for the whole run.
    With one CPU, and in a pass of one block, no helper takes part; no
    thread outlives the call. Deterministic given (model, X, max_cycles):
    the weights depend on the BLAS build, not on the worker count, and the
    optimizer has no randomness of its own. Raises DimensionMismatch or
    EmptyDataset, as ``objective`` does, and ValueError for a budget below 1.
    """
    X = X.astype(np.float32, copy=False)
    with objective(model, X) as fused:
        best, report = scg_minimize(*fused, flatten_params(model), max_cycles)
    return unflatten_params(model, best), report


def _finite(value: float, array: np.ndarray) -> bool:
    return math.isfinite(value) and bool(np.all(np.isfinite(array)))
