import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hbflow.linesearch import (
    MAX_BACKTRACKS,
    MIN_STEP,
    LineSearchConfig,
    LineSearchError,
    backtracking_search,
    cubic_step,
    quadratic_step,
)


def test_config_validation():
    with pytest.raises(ValueError):
        LineSearchConfig(sigma1=0.25)


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


def test_search_accepts_quadratic_minimum():
    phi = lambda a: (a - 0.2) ** 2
    res = backtracking_search(phi, phi0=0.04, dphi0=-0.4)
    assert res.status == "accepted"
    assert res.alpha == pytest.approx(0.2, rel=1e-15)
    assert res.phi == pytest.approx(0.0, abs=1e-30)
    assert res.evaluations == 2
    assert res.backtracks == 1
    assert res.trials == pytest.approx([1.0, 0.2])


def test_search_accepts_unit_step_on_descent():
    res = backtracking_search(lambda a: -a, phi0=0.0, dphi0=-1.0)
    assert res.status == "accepted"
    assert res.alpha == 1.0
    assert res.backtracks == 0
    assert res.evaluations == 1


def test_search_treats_inf_as_rejection():
    def phi(a):
        return np.inf if a > 0.5 else (a - 0.1) ** 2

    res = backtracking_search(phi, phi0=0.01, dphi0=-0.2)
    assert res.status == "accepted"
    assert res.alpha == pytest.approx(0.1, rel=1e-15)
    assert res.trials == pytest.approx([1.0, 0.1])


def test_search_raises_on_nan():
    with pytest.raises(LineSearchError):
        backtracking_search(lambda a: np.nan, phi0=0.0, dphi0=-1.0)


def test_search_rejects_non_descent_slope():
    with pytest.raises(LineSearchError):
        backtracking_search(lambda a: a, phi0=0.0, dphi0=0.0)
    with pytest.raises(LineSearchError):
        backtracking_search(lambda a: a, phi0=0.0, dphi0=1.0)


def test_search_gives_up_after_max_backtracks():
    # a flat phi rejects every trial; each step shrinks by at most half, so
    # the cap stops the search before the steps reach MIN_STEP
    res = backtracking_search(lambda a: 1.0, phi0=1.0, dphi0=-1.0)
    assert res.status == "step-too-small"
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
    res = backtracking_search(phi, phi0=1.0, dphi0=-1.0)
    assert res.status == "step-too-small"
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
    phi = lambda a: (a - 0.01) ** 2
    res = backtracking_search(phi, phi0=1e-4, dphi0=-0.02)
    assert res.status == "accepted"
    ratios = np.diff(np.log(res.trials))
    assert np.all(ratios <= np.log(0.5) + 1e-12)
    assert np.all(ratios >= np.log(0.1) - 1e-12)
    assert res.phi <= 1e-4 + 1e-4 * res.alpha * (-0.02)

