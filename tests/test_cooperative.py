import numpy as np
import pytest

from servergame.cooperative import (
    optimal_activity,
    optimal_profile,
    pointwise_welfare,
    welfare_case1,
)
from servergame.full_info import classify_state
from servergame.oracle import mc_welfare, pointwise_strategy
from servergame.payoffs import Profile, State

PURE_PROFILES = [Profile(1, 1), Profile(1, 0), Profile(0, 1), Profile(0, 0)]


@pytest.mark.parametrize(
    "state, c, expected",
    [
        ((0.1, 0.2), 0.5, Profile(0, 0)),
        ((0.9, 0.3), 0.5, Profile(1, 0)),
        ((0.3, 0.9), 0.5, Profile(0, 1)),
        ((0.25, 0.1), 0.5, Profile(0, 0)),  # boundary max == c/2 sits out
        ((0.6, 0.6), 0.5, Profile(1, 0)),  # tie: server 1 serves
    ],
)
def test_optimal_profile(state, c, expected):
    assert optimal_profile(State(*state), c) == expected


def test_pointwise_welfare_examples():
    assert pointwise_welfare(State(0.9, 0.3), Profile(1, 0), 0.5) == pytest.approx(1.3)
    assert pointwise_welfare(State(0.42, 0.9), Profile(0, 0), 0.77) == 0.0
    # pure transfers leave pointwise welfare unchanged
    for variant in ("unregulated", "case3_reg"):
        w = pointwise_welfare(State(0.8, 0.4), Profile(1, 0), 0.6, variant=variant)
        assert w == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("prof", [(1.0, 0.0), [0.25, 0.5], np.array([0.25, 0.5])])
def test_pointwise_welfare_takes_any_sigma_pair(prof):
    # classify_state's mixed profile is a plain tuple; a pair scores as its Profile
    s = State(0.5, 0.4)
    assert pointwise_welfare(s, prof, 0.3) == pointwise_welfare(s, Profile(*prof), 0.3)
    mixed = classify_state(s, 0.3).mixed
    assert pointwise_welfare(s, mixed, 0.3) == pointwise_welfare(s, Profile(*mixed), 0.3)


@pytest.mark.parametrize("prof", [0.5, None, (1.0,), (1.0, 0.0, 0.0)])
def test_pointwise_welfare_rejects_a_non_pair_naming_prof(prof):
    with pytest.raises((TypeError, ValueError), match="prof"):
        pointwise_welfare(State(0.5, 0.4), prof, 0.3)


def test_no_pure_profile_beats_the_optimum():
    grid = np.round(np.linspace(0.0, 1.0, 101), 2)
    p1, p2 = np.meshgrid(grid, grid, indexing="ij")
    p1, p2 = p1.ravel(), p2.ravel()
    best = np.maximum(p1, p2)
    for c in np.arange(0.1, 0.95, 0.1):
        sigma1, sigma2 = optimal_activity(p1, p2, c)
        chosen = (
            sigma1 * sigma2 * (2 * best - 2 * c)
            + sigma1 * (1 - sigma2) * (2 * p1 - c)
            + (1 - sigma1) * sigma2 * (2 * p2 - c)
        )
        alternatives = np.stack(
            [2 * best - 2 * c, 2 * p1 - c, 2 * p2 - c, np.zeros_like(p1)]
        )
        assert np.all(chosen >= alternatives.max(axis=0) - 1e-12)


def test_scalar_profile_agrees_with_vectorised_rule():
    rng = np.random.default_rng(5)
    p1, p2 = rng.random((2, 500))
    wrapped = pointwise_strategy(optimal_profile)
    s1_loop, s2_loop = wrapped(p1, p2, 0.37)
    s1_vec, s2_vec = optimal_activity(p1, p2, 0.37)
    assert np.array_equal(s1_loop, s1_vec)
    assert np.array_equal(s2_loop, s2_vec)


@pytest.mark.parametrize(
    "c, expected",
    [(0.0, 4.0 / 3.0), (0.5, 0.84375), (1.0, 5.0 / 12.0)],
)
def test_welfare_closed_form(c, expected):
    assert welfare_case1(c) == pytest.approx(expected, abs=1e-12)


def test_welfare_strictly_decreasing():
    cs = np.linspace(0.0, 1.0, 201)
    values = np.array([welfare_case1(c) for c in cs])
    assert np.all(np.diff(values) < 0)


def test_monte_carlo_matches_closed_form():
    for c in (0.25, 0.7):
        est = mc_welfare(optimal_activity, c, n=400_000, seed=2024)
        assert abs(est.mean - welfare_case1(c)) <= 3 * est.stderr


def test_welfare_rejects_bad_cost():
    with pytest.raises(ValueError):
        welfare_case1(-0.2)
