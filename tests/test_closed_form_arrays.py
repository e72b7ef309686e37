"""Scalar and array paths of the closed forms that the welfare sweep reads.

Each of these closed forms accepts a numpy array of costs and returns
arrays, while a scalar cost keeps the Python-float path.  Costs are drawn
uniformly on [0, 1] and within a few ulp of 0, 1/2 and 1, where the
branches and range checks sit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from servergame import bayesian, cooperative, full_info
from servergame.payoffs import check_cost

TOL = 1e-15
# each parametrised case runs its own search; 40 draws keep the module fast
PER_CASE = settings(deadline=None, max_examples=40)


def ulp_steps(x: float, k: int) -> float:
    """``x`` moved by ``k`` ulp (down for negative ``k``)."""
    toward = math.copysign(math.inf, k)
    for _ in range(abs(k)):
        x = math.nextafter(x, toward)
    return x


anchored_costs = st.builds(
    lambda anchor, k: min(1.0, max(0.0, ulp_steps(anchor, k))),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.integers(-4, 4),
)
costs = st.floats(0.0, 1.0) | anchored_costs
cost_lists = st.lists(costs, min_size=1, max_size=40)


def _pair(fn):
    return lambda c: tuple(fn(c))


def _welfare_at(thresholds):
    return lambda c: tuple(bayesian.welfare_thresholds(*thresholds(c), c))


CLOSED_FORMS = {
    "check_cost": check_cost,
    "welfare_case1": cooperative.welfare_case1,
    "welfare_case3_max": full_info.welfare_case3_max,
    "welfare_case3_min": full_info.welfare_case3_min,
    "nash_threshold": _pair(bayesian.nash_threshold),
    "nash_threshold_regulated": _pair(lambda c: bayesian.nash_threshold(c, regulated=True)),
    "optimal_thresholds": _pair(bayesian.optimal_thresholds),
    "welfare_thresholds_nash": _welfare_at(bayesian.nash_threshold),
    "welfare_thresholds_optimal": _welfare_at(bayesian.optimal_thresholds),
    "welfare_thresholds_fixed": lambda c: tuple(bayesian.welfare_thresholds(0.3, 0.7, c)),
}


def fields(value):
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("name", CLOSED_FORMS)
@PER_CASE
@given(values=cost_lists)
def test_array_path_matches_scalar_path(name, values):
    fn = CLOSED_FORMS[name]
    array_fields = fields(fn(np.array(values)))
    for i, c in enumerate(values):
        scalar_fields = fields(fn(c))
        assert len(scalar_fields) == len(array_fields)
        for scalar, column in zip(scalar_fields, array_fields):
            assert type(scalar) is float
            assert isinstance(column, np.ndarray) and column.shape == (len(values),)
            assert abs(column[i] - scalar) <= TOL, (name, c)


@settings(deadline=None)
@given(
    t1=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    data=st.data(),
)
def test_welfare_thresholds_arrays_match_scalars(t1, data):
    n = len(t1)
    t2 = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    c = data.draw(st.lists(costs, min_size=n, max_size=n))
    together = bayesian.welfare_thresholds(np.array(t1), np.array(t2), np.array(c))
    for i in range(n):
        alone = bayesian.welfare_thresholds(t1[i], t2[i], c[i])
        for column, scalar in zip(together, alone):
            assert abs(column[i] - scalar) <= TOL


@given(k=st.integers(-8, 8))
def test_case3_min_branches_meet_at_one_half(k):
    # below 1/2 the c < 1/2 polynomial is used, at and above it the other;
    # both have slope -3/4 there, so a few ulp move the value by ~1e-16
    c = ulp_steps(0.5, k)
    assert abs(full_info.welfare_case3_min(c) - full_info.welfare_case3_min(0.5)) <= TOL
    seam = full_info.welfare_case3_min(np.array([ulp_steps(0.5, j) for j in range(-8, 9)]))
    assert np.all(np.abs(seam - full_info.welfare_case3_min(0.5)) <= TOL)


@settings(deadline=None)
@given(t=st.floats(0.0, 1.0), c=costs, k=st.integers(-4, 4).filter(bool))
def test_welfare_thresholds_branches_meet_on_the_diagonal(t, c, k):
    # t2 a few ulp off t1 switches between the t1 < t2 and t1 >= t2
    # polynomials; no field has a slope above 2 in t2
    t2 = min(1.0, max(0.0, ulp_steps(t, k)))
    on = bayesian.welfare_thresholds(t, t, c)
    off = bayesian.welfare_thresholds(t, t2, c)
    mirrored = bayesian.welfare_thresholds(t2, t, c)
    for a, b, m in zip(on, off, mirrored):
        assert abs(a - b) <= 4 * TOL
        assert abs(a - m) <= 4 * TOL
    across = bayesian.welfare_thresholds(t, np.array([t2, t, t2]), np.array([c, c, c]))
    for column, a, b in zip(across, on, off):
        assert abs(column[1] - a) <= TOL
        assert abs(column[0] - b) <= TOL and abs(column[2] - b) <= TOL


bad_costs = st.sampled_from(
    [math.nan, -math.inf, math.inf, -0.5, 1.5, -5e-324, math.nextafter(1.0, 2.0)]
)


@pytest.mark.parametrize("name", CLOSED_FORMS)
@PER_CASE
@given(values=cost_lists, bad=bad_costs, data=st.data())
def test_array_with_a_bad_cost_is_rejected(name, values, bad, data):
    position = data.draw(st.integers(0, len(values)))
    values.insert(position, bad)
    with pytest.raises(ValueError, match=r"cost must lie in \[0, 1\]"):
        CLOSED_FORMS[name](np.array(values))
