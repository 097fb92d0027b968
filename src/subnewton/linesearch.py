"""Armijo backtracking on a geometric step grid.

Accepts the largest step alpha in {alpha_hat, alpha_hat*shrink, ...} with

    F(x + alpha p) <= F(x) + alpha * beta * p'g,

where g is whichever gradient produced the direction: the full gradient for
full-gradient methods, the sub-sampled one when the gradient is sampled (the
left-hand side always evaluates the full objective).

The search sees F only along the line, as a function of alpha, and takes
F(x) from the caller.  The drivers evaluate that line from the margins A x
and A p, so a trial costs O(n) rather than a pass over the data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import EvaluationError


class LineSearchError(RuntimeError):
    """No step on the grid satisfied the sufficient-decrease test."""

    def __init__(self, message, last_alpha, trials):
        super().__init__(message)
        self.last_alpha = last_alpha
        self.trials = trials


@dataclass(frozen=True)
class LineSearchParams:
    beta: float = 0.25
    alpha_hat: float = 1.0
    shrink: float = 0.5
    max_backtracks: int = 60

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if self.alpha_hat < 1:
            raise ValueError(f"alpha_hat must be >= 1, got {self.alpha_hat}")
        if not 0 < self.shrink < 1:
            raise ValueError(f"shrink must be in (0, 1), got {self.shrink}")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1")


def armijo(line, f0: float, slope: float, params: LineSearchParams) -> tuple[float, int]:
    """Backtrack from alpha_hat until the sufficient-decrease test holds.

    ``line(alpha)`` returns F(x + alpha p), ``f0`` is F(x) and ``slope`` is
    p'g.  Returns (alpha, trials); only trial steps are evaluated.
    Overflowing trial evaluations count as failed trials rather than
    aborting, so the search can back off from wild steps.
    """
    if slope >= 0:
        raise ValueError(f"direction is not a descent direction (p'g = {slope:.3g})")
    alpha = params.alpha_hat
    for trial in range(1, params.max_backtracks + 1):
        try:
            f_trial = line(alpha)
        except EvaluationError:
            f_trial = None
        if f_trial is not None and f_trial <= f0 + alpha * params.beta * slope:
            return alpha, trial
        alpha *= params.shrink
    raise LineSearchError(
        f"no acceptable step in {params.max_backtracks} backtracks "
        f"(slope {slope:.3g}, f0 {f0:.6g})",
        last_alpha=alpha / params.shrink,
        trials=params.max_backtracks,
    )
