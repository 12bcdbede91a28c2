import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hbflow.linesearch import (
    MAX_BACKTRACKS,
    MIN_STEP,
    LineSearchError,
    backtracking_search,
    cubic_step,
    quadratic_step,
)
from hbflow.solver import SolverConfig


def test_config_validation():
    for bad in (0.25, 0.0, np.nan):
        with pytest.raises(ValueError, match=r"^sigma1 must be in \(0, 1/4\)"):
            SolverConfig(p=2.0, g=0.2, gamma=10.0, sigma1=bad)


def test_quadratic_step_interior():
    # minimizer of the model through (0,0), slope -1, (1, phi1)
    assert quadratic_step(0.0, -1.0, 0.0) == pytest.approx(0.5, rel=1e-15)
    assert quadratic_step(0.0, -1.0, 1.5) == pytest.approx(0.2, rel=1e-15)


def test_quadratic_step_clamps():
    # raw minimizer 1/102 lifts to the floor, 0.9998 drops to the ceiling
    assert quadratic_step(0.0, -1.0, 50.0) == 0.1
    assert quadratic_step(0.0, -1.0, -0.4999) == 0.5


def test_quadratic_step_rejects_misuse():
    with pytest.raises(LineSearchError):
        quadratic_step(0.0, 1.0, 2.0)  # not a descent direction
    with pytest.raises(LineSearchError):
        # phi1 <= phi0 + dphi0 means the unit step satisfied Armijo
        quadratic_step(0.0, -1.0, -1.0)


def test_quadratic_step_inf_means_floor():
    assert quadratic_step(0.0, -1.0, np.inf) == 0.1


@given(t=st.floats(min_value=0.1, max_value=0.5))
def test_quadratic_step_recovers_parabola_minimum(t):
    # phi(a) = (a - t)^2: the model is exact, so the minimizer is t itself
    assert quadratic_step(t * t, -2.0 * t, (1.0 - t) ** 2) == pytest.approx(t, rel=1e-12)


def test_cubic_step_interior():
    # samples of a^3 + (73/60) a^2 - a, whose local minimum sits at a = 0.3
    phi_1 = 73.0 / 60.0
    phi_half = 0.125 + (73.0 / 60.0) * 0.25 - 0.5
    assert cubic_step(0.0, -1.0, 1.0, phi_1, 0.5, phi_half) == pytest.approx(0.3, rel=1e-12)


def test_cubic_step_clamps_to_half_previous():
    # (c, d) = (1, -2): raw minimizer (2 + sqrt(7))/3 > 0.5 * alpha_p
    assert cubic_step(0.0, -1.0, 1.0, -2.0, 0.5, -0.875) == 0.5


def test_cubic_step_degenerate_falls_back_to_halving():
    # samples of a^2 - a: the cubic coefficient vanishes
    assert cubic_step(0.0, -1.0, 1.0, 0.0, 0.5, -0.25) == 0.5
    with pytest.raises(LineSearchError):
        cubic_step(0.0, -1.0, 0.5, 1.0, 0.5, 1.0)  # coincident trials


def test_cubic_step_nan_discriminant_falls_back_to_halving():
    # d*d and 3*c*dphi0 both overflow, so the discriminant is inf - inf = nan
    step = cubic_step(0.04903161584292654, -1.7733050955042326e+149, 0.1,
                      5.640638686167832e+222, 1.0, 1.783726570635005e+224)
    assert step == 0.05


def test_cubic_step_nan_minimizer_falls_back_to_halving():
    # c and d are finite, but d*d and 3*c overflow: the minimizer is inf / inf = nan
    alpha_p = 6.103515625e-05
    assert cubic_step(0.0, -1.0, alpha_p, -1.1160185497872308e+299, 0.5, 0.0) == 0.5 * alpha_p


@pytest.mark.parametrize("dphi0", [-np.inf, np.nan])
def test_a_slope_that_is_not_finite_is_misuse(dphi0):
    match = f"^dphi0 must be finite and < 0 \\(a descent direction\\), got {dphi0}$"
    with pytest.raises(LineSearchError, match=match):
        quadratic_step(0.0, dphi0, 1.0)
    with pytest.raises(LineSearchError, match=match):
        cubic_step(0.0, dphi0, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(LineSearchError, match=match):
        backtracking_search(lambda a: 1.0, phi0=0.0, dphi0=dphi0, sigma1=1e-4)


SLOPES = st.floats(min_value=-1e6, max_value=-1e-12)
STEPS = st.floats(min_value=MIN_STEP, max_value=1.0)
FINITE_PHIS = st.floats(min_value=-1e300, max_value=1e300)
PHIS = FINITE_PHIS | st.just(np.inf)
COEFFICIENTS = st.floats(min_value=-1e6, max_value=1e6)


def bits(step, *args):
    """A model step as float hex, or "misuse" when it raises LineSearchError."""
    try:
        return step(*args).hex()
    except LineSearchError:
        return "misuse"


@st.composite
def quadratic_inputs(draw):
    phi0, dphi0 = draw(FINITE_PHIS), draw(SLOPES)
    if draw(st.booleans()):
        return phi0, dphi0, draw(PHIS)
    # phi1 = phi0 + t * dphi0 puts the raw minimizer 1 / (2 (1 - t)) in and around the clamp
    return phi0, dphi0, phi0 + draw(st.floats(min_value=-5.0, max_value=5.0)) * dphi0


@settings(max_examples=500)
@given(args=quadratic_inputs())
@example(args=(0.0, 0.0, 1.0))          # not a descent direction
@example(args=(0.0, -1.0, -np.inf))
def test_quadratic_step_matches_its_split_oracle(args):
    assert bits(quadratic_step, *args) == bits(oracles.quadratic_step, *args)


@st.composite
def cubic_inputs(draw):
    phi0, dphi0 = draw(FINITE_PHIS), draw(SLOPES)
    alpha_p, alpha_2p = draw(STEPS), draw(STEPS)
    kind = draw(st.sampled_from(["samples", "cubic", "quadratic", "coincident"]))
    if kind == "coincident":
        alpha_2p = alpha_p
    if kind == "samples":
        return phi0, dphi0, alpha_p, draw(PHIS), alpha_2p, draw(PHIS)
    # samples of c a^3 + d a^2 + dphi0 a + phi0: interior minimizers, both clamps and
    # a negative discriminant, and with c = 0 the degenerate cubic
    c = 0.0 if kind == "quadratic" else draw(COEFFICIENTS)
    d = draw(COEFFICIENTS)
    phi_p, phi_2p = (phi0 + dphi0 * a + d * a**2 + c * a**3 for a in (alpha_p, alpha_2p))
    return phi0, dphi0, alpha_p, phi_p, alpha_2p, phi_2p


@settings(max_examples=500)
@given(args=cubic_inputs())
@example(args=(0.0, 0.0, 0.5, 1.0, 1.0, 1.0))          # not a descent direction
@example(args=(0.0, -1.0, 0.5, 1.0, 0.5, 1.0))         # coincident trials
@example(args=(0.0, -1.0, 0.5, np.inf, 1.0, 0.0))      # non-finite c and d
@example(args=(0.0, -1.0, 1.0, 0.0, 0.5, -0.25))       # c = 0
@example(args=(0.0, -1.0, 0.5, -0.625, 1.0, -2.0))     # (c, d) = (-1, 0): disc = -3
@example(args=(0.04903161584292654, -1.7733050955042326e+149, 0.1,
               5.640638686167832e+222, 1.0, 1.783726570635005e+224))   # disc = inf - inf
@example(args=(0.0, -1.0, 6.103515625e-05, -1.1160185497872308e+299, 0.5, 0.0))   # inf / inf
def test_cubic_step_matches_its_split_oracle(args):
    assert bits(cubic_step, *args) == bits(oracles.cubic_step, *args)


def recording(phi):
    """phi, and the list of (alpha, value) pairs it returned, in call order."""
    calls = []

    def recorded(a):
        calls.append((a, phi(a)))
        return calls[-1][1]

    return recorded, calls


def test_search_accepts_quadratic_minimum():
    phi, calls = recording(lambda a: (a - 0.2) ** 2)
    res = backtracking_search(phi, phi0=0.04, dphi0=-0.4, sigma1=1e-4)
    assert res.status == "accepted"
    assert calls[-1] == (res.alpha, res.phi)        # the search ends on the step it returns
    assert res.alpha == pytest.approx(0.2, rel=1e-15)
    assert res.phi == pytest.approx(0.0, abs=1e-30)
    assert res.evaluations == 2
    assert res.backtracks == 1
    assert res.trials == pytest.approx([1.0, 0.2])


def test_search_accepts_unit_step_on_descent():
    res = backtracking_search(lambda a: -a, phi0=0.0, dphi0=-1.0, sigma1=1e-4)
    assert res.status == "accepted"
    assert res.alpha == 1.0
    assert res.backtracks == 0
    assert res.evaluations == 1


def test_search_treats_inf_as_rejection():
    def phi(a):
        return np.inf if a > 0.5 else (a - 0.1) ** 2

    res = backtracking_search(phi, phi0=0.01, dphi0=-0.2, sigma1=1e-4)
    assert res.status == "accepted"
    assert res.alpha == pytest.approx(0.1, rel=1e-15)
    assert res.trials == pytest.approx([1.0, 0.1])


def test_search_raises_on_nan():
    with pytest.raises(LineSearchError):
        backtracking_search(lambda a: np.nan, phi0=0.0, dphi0=-1.0, sigma1=1e-4)


def test_search_rejects_non_descent_slope():
    with pytest.raises(LineSearchError):
        backtracking_search(lambda a: a, phi0=0.0, dphi0=0.0, sigma1=1e-4)
    with pytest.raises(LineSearchError):
        backtracking_search(lambda a: a, phi0=0.0, dphi0=1.0, sigma1=1e-4)


def test_search_gives_up_after_max_backtracks():
    # a flat phi rejects every trial; each step shrinks by at most half, so
    # the cap stops the search before the steps reach MIN_STEP
    phi, calls = recording(lambda a: 1.0)
    res = backtracking_search(phi, phi0=1.0, dphi0=-1.0, sigma1=1e-4)
    assert res.status == "step-too-small"
    assert calls[-1] == (res.alpha, res.phi)
    assert res.evaluations == MAX_BACKTRACKS + 1
    assert res.backtracks == MAX_BACKTRACKS + 1     # every trial, the unit step too
    assert res.alpha == res.trials[-1]              # last trial actually evaluated
    assert MIN_STEP <= res.alpha <= 0.5**MAX_BACKTRACKS
    # the step floor was not what stopped it
    assert cubic_step(1.0, -1.0, res.trials[-1], 1.0, res.trials[-2], 1.0) >= MIN_STEP


def test_search_gives_up_below_min_step():
    # a steep phi shrinks the trial steps fast enough that the next model
    # step falls below MIN_STEP before the backtrack cap is reached
    phi = lambda a: 1.0 + 1e6 * a * a
    recorded, calls = recording(phi)
    res = backtracking_search(recorded, phi0=1.0, dphi0=-1.0, sigma1=1e-4)
    assert res.status == "step-too-small"
    assert calls[-1] == (res.alpha, res.phi)
    assert res.evaluations == 22
    assert res.backtracks == 22
    assert res.alpha == res.trials[-1]              # last trial actually evaluated
    assert MIN_STEP <= res.alpha < 10 * MIN_STEP    # the clamp keeps the next step >= 0.1 alpha
    next_step = cubic_step(1.0, -1.0, res.trials[-1], phi(res.trials[-1]),
                           res.trials[-2], phi(res.trials[-2]))
    assert next_step < MIN_STEP


def test_search_safeguards_trial_ratios():
    # minimum far below the floor: every backtrack must shrink the step by a
    # factor inside the fixed [0.1, 0.5] clamp
    phi, calls = recording(lambda a: (a - 0.01) ** 2)
    res = backtracking_search(phi, phi0=1e-4, dphi0=-0.02, sigma1=1e-4)
    assert res.status == "accepted"
    assert len(res.trials) > 2                      # the quadratic step, then cubic ones
    assert calls[-1] == (res.alpha, res.phi)
    ratios = np.diff(np.log(res.trials))
    assert np.all(ratios <= np.log(0.5) + 1e-12)
    assert np.all(ratios >= np.log(0.1) - 1e-12)
    assert res.phi <= 1e-4 + 1e-4 * res.alpha * (-0.02)

