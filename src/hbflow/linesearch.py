"""Backtracking line search driven by quadratic and cubic models.

Only the sufficient-decrease (Armijo) condition is enforced:

    phi(alpha) <= phi(0) + sigma1 * alpha * phi'(0)

The first trial is always the unit step alpha = 1. On rejection, the next
trial minimizes the quadratic interpolant through (phi(0), phi'(0), phi(1))
(:func:`quadratic_step`); later trials minimize the cubic interpolant through
phi(0), phi'(0) and the two most recent trials (:func:`cubic_step`). Every
model minimizer is clamped into [0.1, 0.5] times the previous trial, so trial
steps decrease strictly but never collapse too fast (Dennis & Schnabel,
*Numerical Methods for Unconstrained Optimization and Nonlinear Equations*,
1996, section 6.3.2). No curvature condition is evaluated. Like the clamp,
the give-up limits ``MIN_STEP`` and ``MAX_BACKTRACKS`` are fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


MIN_STEP = 1e-12        # give up rather than try a step below this
MAX_BACKTRACKS = 30     # give up after this many rejected backtracks


class LineSearchError(RuntimeError):
    """Misuse (a slope that is not finite and < 0, coincident trial points) or NaN phi."""


@dataclass
class LineSearchResult:
    alpha: float                  # accepted (or last attempted) step
    phi: float                    # phi at that step
    backtracks: int               # rejected trials; what history CSVs report as ls_iters
    status: str                   # "accepted" | "step-too-small"
    trials: list[float]           # every alpha tried, in order

    @property
    def evaluations(self) -> int:
        """Number of phi evaluations, one per trial."""
        return len(self.trials)


def _check_slope(dphi0: float) -> None:
    if not -np.inf < dphi0 < 0.0:       # false for a NaN too
        raise LineSearchError(f"dphi0 must be finite and < 0 (a descent direction), got {dphi0}")


def quadratic_step(phi0: float, dphi0: float, phi1: float) -> float:
    """First-backtrack step from the quadratic model, clamped to [0.1, 0.5].

    Requires a finite descent slope dphi0 < 0 and a rejected unit step, i.e.
    phi1 > phi0 + sigma1 * dphi0 for some sigma1 < 1. An infinite phi1
    makes the model infinitely steep, so the step is the floor.
    """
    _check_slope(dphi0)
    if np.isinf(phi1):
        return 0.1
    denom = phi1 - phi0 - dphi0
    if denom <= 0.0:
        raise LineSearchError(
            "quadratic model has no interior minimum; Armijo cannot have failed here"
        )
    return float(min(max(-dphi0 / (2.0 * denom), 0.1), 0.5))


def cubic_step(
    phi0: float,
    dphi0: float,
    alpha_p: float,
    phi_p: float,
    alpha_2p: float,
    phi_2p: float,
) -> float:
    """Later-backtrack step from the cubic model, clamped to [0.1, 0.5] * alpha_p.

    The model c a^3 + d a^2 + dphi0 a + phi0 interpolates the two most recent
    trials. It is degenerate when c or d is not finite (overflow in the
    sampled phi values), when |c| < 1e-14 (the cubic collapsed to a
    quadratic), when the discriminant is negative, and when it or the
    minimizer is NaN (inf - inf, inf / inf). With sigma1 < 1/4 the
    discriminant is nonnegative for consistent inputs, so these cases are
    roundoff or overflow artifacts, and the step falls back to 0.5 * alpha_p.
    """
    _check_slope(dphi0)
    if alpha_p == alpha_2p:
        raise LineSearchError("cubic model needs distinct trial points")
    r_p = phi_p - phi0 - dphi0 * alpha_p
    r_2p = phi_2p - phi0 - dphi0 * alpha_2p
    s = 1.0 / (alpha_p - alpha_2p)
    c = float(s * (r_p / alpha_p**2 - r_2p / alpha_2p**2))
    d = float(s * (-alpha_2p * r_p / alpha_p**2 + alpha_p * r_2p / alpha_2p**2))
    if not (np.isfinite(c) and np.isfinite(d)) or abs(c) < 1e-14:
        return 0.5 * alpha_p
    # Python floats, which overflow without a warning: inf - inf and inf / inf give NaN
    disc = d * d - 3.0 * c * dphi0
    raw = (-d + math.sqrt(disc)) / (3.0 * c) if disc >= 0.0 else math.nan
    if math.isnan(raw):
        return 0.5 * alpha_p
    return float(min(max(raw, 0.1 * alpha_p), 0.5 * alpha_p))


def backtracking_search(
    phi: Callable[[float], float],
    phi0: float,
    dphi0: float,
    sigma1: float,
) -> LineSearchResult:
    """Armijo backtracking from the unit step with polynomial-model trial steps.

    Parameters
    ----------
    phi : callable
        One-dimensional restriction alpha -> J(u + alpha w). May return
        +inf for overflowing trial states (treated as a rejection); NaN
        raises :class:`LineSearchError`.
    phi0, dphi0 : float
        phi(0) and the directional derivative phi'(0), finite and < 0.
    sigma1 : float
        Armijo slope fraction in (0, 1/4), as ``SolverConfig`` checks it.

    Accepted or given up, the search returns straight after evaluating the
    step it returns: the last ``phi`` call is ``phi(result.alpha)``, which
    gave ``result.phi``; ``solve`` keeps the point and xi that call made.
    """
    _check_slope(dphi0)

    def evaluate(a: float) -> float:
        v = float(phi(a))
        if np.isnan(v):
            raise LineSearchError(f"phi({a}) evaluated to NaN")
        return v

    alpha = 1.0
    val = evaluate(alpha)
    trials = [alpha]
    prev: tuple[float, float] | None = None  # the trial before the most recent one

    while not val <= phi0 + sigma1 * alpha * dphi0:     # Armijo
        if prev is None:
            new_alpha = quadratic_step(phi0, dphi0, val)
        else:
            new_alpha = cubic_step(phi0, dphi0, alpha, val, *prev)
        # all len(trials) trials were rejected, len(trials) - 1 of them backtracks
        if len(trials) > MAX_BACKTRACKS or new_alpha < MIN_STEP:
            return LineSearchResult(alpha, val, len(trials), "step-too-small", trials)
        prev = (alpha, val)
        alpha = new_alpha
        val = evaluate(alpha)
        trials.append(alpha)

    return LineSearchResult(alpha, val, len(trials) - 1, "accepted", trials)
