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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


MIN_STEP = 1e-12        # give up rather than try a step below this
MAX_BACKTRACKS = 30     # give up after this many rejected backtracks


class LineSearchError(RuntimeError):
    """Misuse (non-descent direction, coincident trial points) or NaN phi."""


@dataclass(frozen=True)
class LineSearchConfig:
    sigma1: float = 1e-4          # Armijo slope fraction, must be < 1/4 for the cubic

    def __post_init__(self):
        if not 0.0 < self.sigma1 < 0.25:
            raise ValueError(f"sigma1 must be in (0, 1/4), got {self.sigma1}")


@dataclass
class LineSearchResult:
    alpha: float                  # accepted (or last attempted) step
    phi: float                    # phi at that step
    evaluations: int              # number of phi evaluations
    backtracks: int               # rejected trials; what history CSVs report as ls_iters
    status: str                   # "accepted" | "step-too-small"
    trials: list = field(default_factory=list)   # every alpha tried, in order


def _quadratic_minimizer(phi0: float, dphi0: float, phi1: float) -> float:
    """Unclamped minimizer of the quadratic through (0, phi0), slope dphi0, (1, phi1)."""
    if np.isinf(phi1):
        return 0.0  # infinitely steep model, clamp will raise this to the floor
    denom = phi1 - phi0 - dphi0
    if denom <= 0.0:
        raise LineSearchError(
            "quadratic model has no interior minimum; Armijo cannot have failed here"
        )
    return -dphi0 / (2.0 * denom)


def quadratic_step(phi0: float, dphi0: float, phi1: float) -> float:
    """First-backtrack step from the quadratic model, clamped to [0.1, 0.5].

    Requires a descent slope dphi0 < 0 and a rejected unit step, i.e.
    phi1 > phi0 + sigma1 * dphi0 for some sigma1 < 1.
    """
    if dphi0 >= 0.0:
        raise LineSearchError(f"not a descent direction: dphi0={dphi0}")
    raw = _quadratic_minimizer(phi0, dphi0, phi1)
    return float(min(max(raw, 0.1), 0.5))


def _cubic_coefficients(
    phi0: float,
    dphi0: float,
    alpha_p: float,
    phi_p: float,
    alpha_2p: float,
    phi_2p: float,
) -> tuple[float, float]:
    """Leading coefficients (c, d) of c a^3 + d a^2 + dphi0 a + phi0
    interpolating the two most recent trials."""
    if alpha_p == alpha_2p:
        raise LineSearchError("cubic model needs distinct trial points")
    r_p = phi_p - phi0 - dphi0 * alpha_p
    r_2p = phi_2p - phi0 - dphi0 * alpha_2p
    s = 1.0 / (alpha_p - alpha_2p)
    c = s * (r_p / alpha_p**2 - r_2p / alpha_2p**2)
    d = s * (-alpha_2p * r_p / alpha_p**2 + alpha_p * r_2p / alpha_2p**2)
    return float(c), float(d)


def _cubic_minimizer(c: float, d: float, dphi0: float) -> float | None:
    """Local minimizer of the cubic, or None when degenerate.

    Degenerate means |c| below 1e-14 (the cubic collapsed to a quadratic),
    a negative discriminant, or non-finite coefficients from overflow in
    the sampled phi values. With sigma1 < 1/4 the discriminant is
    nonnegative for consistent inputs, so these cases are roundoff or
    overflow artifacts and the caller falls back to halving.
    """
    if not (np.isfinite(c) and np.isfinite(d)):
        return None
    if abs(c) < 1e-14:
        return None
    disc = d * d - 3.0 * c * dphi0
    if disc < 0.0:
        return None
    return (-d + np.sqrt(disc)) / (3.0 * c)


def cubic_step(
    phi0: float,
    dphi0: float,
    alpha_p: float,
    phi_p: float,
    alpha_2p: float,
    phi_2p: float,
) -> float:
    """Later-backtrack step from the cubic model, clamped to
    [0.1 * alpha_p, 0.5 * alpha_p]; falls back to 0.5 * alpha_p when the
    model is degenerate."""
    if dphi0 >= 0.0:
        raise LineSearchError(f"not a descent direction: dphi0={dphi0}")
    c, d = _cubic_coefficients(phi0, dphi0, alpha_p, phi_p, alpha_2p, phi_2p)
    raw = _cubic_minimizer(c, d, dphi0)
    if raw is None:
        return 0.5 * alpha_p
    return float(min(max(raw, 0.1 * alpha_p), 0.5 * alpha_p))


def backtracking_search(
    phi: Callable[[float], float],
    phi0: float,
    dphi0: float,
    config: LineSearchConfig | None = None,
) -> LineSearchResult:
    """Armijo backtracking from the unit step with polynomial-model trial steps.

    Parameters
    ----------
    phi : callable
        One-dimensional restriction alpha -> J(u + alpha w). May return
        +inf for overflowing trial states (treated as a rejection); NaN
        raises :class:`LineSearchError`.
    phi0, dphi0 : float
        phi(0) and the directional derivative phi'(0), dphi0 < 0.
    config : LineSearchConfig, optional
    """
    cfg = config or LineSearchConfig()
    if dphi0 >= 0.0:
        raise LineSearchError(f"not a descent direction: dphi0={dphi0}")

    def evaluate(a: float) -> float:
        v = float(phi(a))
        if np.isnan(v):
            raise LineSearchError(f"phi({a}) evaluated to NaN")
        return v

    def armijo(a: float, v: float) -> bool:
        return v <= phi0 + cfg.sigma1 * a * dphi0

    alpha = 1.0
    val = evaluate(alpha)
    trials = [alpha]
    prev: tuple[float, float] | None = None  # the trial before the most recent one

    while not armijo(alpha, val):
        if prev is None:
            new_alpha = quadratic_step(phi0, dphi0, val)
        else:
            new_alpha = cubic_step(phi0, dphi0, alpha, val, *prev)
        # all len(trials) trials were rejected, len(trials) - 1 of them backtracks
        if len(trials) > MAX_BACKTRACKS or new_alpha < MIN_STEP:
            return LineSearchResult(alpha, val, len(trials), len(trials),
                                    "step-too-small", trials)
        prev = (alpha, val)
        alpha = new_alpha
        val = evaluate(alpha)
        trials.append(alpha)

    return LineSearchResult(alpha, val, len(trials), len(trials) - 1, "accepted", trials)
