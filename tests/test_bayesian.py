import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from servergame.bayesian import (
    FixedPointResult,
    ThresholdPair,
    best_response_fixed_point,
    best_response_threshold,
    nash_threshold,
    nash_threshold_general,
    optimal_thresholds,
    power_distribution,
    uniform_distribution,
    validate_distribution,
    welfare_thresholds,
)
from servergame.bayesian import Distribution
from servergame.oracle import (
    grid_best_response,
    interim_activity_gain,
    threshold_welfare_by_quadrature,
)


@pytest.mark.parametrize(
    "t_opp, c, regulated, expected",
    [
        (0.0, 0.32, False, 0.8),
        (1.0, 0.4, False, 0.4),
        (0.8, 0.25, False, 0.3125),
        (math.sqrt(0.25), 0.25, False, 0.5),  # fixed point
        (1.0, 0.32, True, 0.16),
        (0.0, 0.32, True, math.sqrt(0.32)),
        (math.sqrt(0.16), 0.32, True, 0.4),  # regulated fixed point
    ],
)
def test_best_response_values(t_opp, c, regulated, expected):
    got = best_response_threshold(t_opp, c, regulated=regulated)
    assert got == pytest.approx(expected, abs=1e-12)


def test_best_response_is_clamped_and_validated():
    assert best_response_threshold(0.0, 0.9) == 1.0  # sqrt(1.8) clamps to "never"
    with pytest.raises(ValueError):
        best_response_threshold(1.5, 0.2)
    with pytest.raises(ValueError):
        best_response_threshold(0.5, 1.2)


def test_branches_agree_at_the_seam():
    for c in np.arange(0.05, 1.0, 0.05):
        seam = math.sqrt(c)
        assert math.sqrt(2 * c - seam**2) == pytest.approx(c / seam, abs=1e-12)
        seam = math.sqrt(c / 2)
        assert math.sqrt(c - seam**2) == pytest.approx(c / (2 * seam), abs=1e-12)


def two_branch_best_response(t_opp, c, regulated):
    """The best response as written before the subsidy became a cost
    divisor: one branch pair per regime."""
    if regulated:
        if t_opp <= math.sqrt(c / 2.0):
            value = math.sqrt(c - t_opp**2)
        else:
            value = c / (2.0 * t_opp)
    elif t_opp <= math.sqrt(c):
        value = math.sqrt(2.0 * c - t_opp**2)
    else:
        value = c / t_opp
    return min(1.0, max(0.0, value))


UNIT_OR_TINY = st.floats(0.0, 1.0) | st.floats(0.0, 1e-300) | st.sampled_from([0.0, 5e-324, 1.0])


@settings(max_examples=500, deadline=None)
@given(t_opp=UNIT_OR_TINY, c=UNIT_OR_TINY, regulated=st.booleans())
@example(t_opp=0.5, c=0.25, regulated=False)  # on the seam t = sqrt(c)
@example(t_opp=math.sqrt(0.16), c=0.32, regulated=True)  # on the seam t = sqrt(c/2)
@example(t_opp=5e-324, c=5e-324, regulated=True)
@example(t_opp=math.nextafter(math.sqrt(0.5), 1.0), c=1.0, regulated=True)
def test_one_cost_divisor_matches_the_two_branch_form(t_opp, c, regulated):
    got = best_response_threshold(t_opp, c, regulated=regulated)
    assert got.hex() == two_branch_best_response(t_opp, c, regulated).hex()
    want = math.sqrt(c / 2.0) if regulated else math.sqrt(c)
    assert nash_threshold(c, regulated=regulated).t1.hex() == want.hex()


@pytest.mark.parametrize(
    "c, regulated, expected",
    [
        (0.25, False, (0.5, 0.5)),
        (0.0, False, (0.0, 0.0)),
        (0.0, True, (0.0, 0.0)),
        (0.32, True, (0.4, 0.4)),
    ],
)
def test_nash_threshold(c, regulated, expected):
    pair = nash_threshold(c, regulated=regulated)
    assert pair == pytest.approx(expected)


def test_equilibrium_is_a_fixed_point_of_the_best_response():
    for c in np.arange(0.0, 1.0001, 0.05):
        for regulated in (False, True):
            t = nash_threshold(c, regulated=regulated).t1
            assert best_response_threshold(t, c, regulated=regulated) == pytest.approx(
                t, abs=1e-12
            )


def test_damped_iteration_converges_fast():
    for c in (0.04, 0.25, 0.81):
        for start in (0.0, 0.3, 0.7, 1.0):
            result = best_response_fixed_point(c, start=start)
            assert result.converged
            assert result.iterations <= 100
            assert result.threshold == pytest.approx(math.sqrt(c), abs=1e-9)


def test_raw_iteration_two_cycles():
    # the undamped dynamics bounce between the two branches and close in
    # only algebraically; this pins down why the iterator averages steps
    t = 0.0
    for _ in range(100):
        t, previous = best_response_threshold(t, 0.25), t
    assert abs(t - previous) > 1e-12 and abs(t - 0.5) > 1e-6


@pytest.mark.parametrize("c", [0.0, 0.04, 0.32, 0.5, 0.81, 1.0])
def test_damped_iteration_converges_to_the_subsidised_equilibrium(c):
    want = nash_threshold(c, regulated=True).t1
    for start in (0.0, 0.3, 0.7, 1.0):
        result = best_response_fixed_point(c, start=start, regulated=True)
        assert result.converged
        assert abs(result.threshold - want) <= 1e-9, f"start={start}"


@pytest.mark.parametrize(
    "kwargs, error, match",
    [
        ({"max_iter": 0}, ValueError, "max_iter must be >= 1, got 0"),
        ({"max_iter": -1}, ValueError, "max_iter must be >= 1, got -1"),
        ({"max_iter": 2.0}, TypeError, "max_iter must be an integer"),
        ({"max_iter": True}, TypeError, "max_iter must be an integer"),
    ],
)
def test_fixed_point_rejects_bad_step_counts(kwargs, error, match):
    with pytest.raises(error, match=match):
        best_response_fixed_point(0.3, **kwargs)


def test_fixed_point_reports_a_run_cut_short_by_max_iter():
    # one damped step from 0.5 moves far more than 1e-12: not converged
    assert best_response_fixed_point(0.3, max_iter=1) == FixedPointResult(0.5458039891549809, 1, False)


@pytest.mark.parametrize(
    "pair, c, expected_total",
    [
        ((0.0, 0.0), 0.3, 4.0 / 3.0 - 0.6),
        ((0.5, 0.5), 0.25, 11.0 / 12.0),
        ((0.5, 0.5), 0.5, 2.0 / 3.0),  # optimal pair at c = 0.5
    ],
)
def test_welfare_closed_forms(pair, c, expected_total):
    assert welfare_thresholds(pair[0], pair[1], c).total == pytest.approx(
        expected_total, abs=1e-12
    )


def test_welfare_matches_region_quadrature():
    rng = np.random.default_rng(123)
    for _ in range(10):
        t1, t2 = np.sort(rng.random(2))
        c = rng.random()
        closed = welfare_thresholds(t1, t2, c)
        numeric = threshold_welfare_by_quadrature(t1, t2, c)
        assert numeric.server1 == pytest.approx(closed.server1, abs=1e-10)
        assert numeric.server2 == pytest.approx(closed.server2, abs=1e-10)
        # the same regions evaluated with the roles swapped
        swapped = threshold_welfare_by_quadrature(t2, t1, c)
        assert swapped.total == pytest.approx(
            welfare_thresholds(t2, t1, c).total, abs=1e-10
        )


def test_one_server_permanently_idle_is_a_degenerate_pair():
    # cutoff 1 shuts a server off; welfare reduces to the solo-server form
    for t, c in ((0.2, 0.3), (0.6, 0.5), (0.0, 0.8)):
        total = welfare_thresholds(t, 1.0, c).total
        solo = (1 - t**2) - c * (1 - t)
        assert total == pytest.approx(solo, abs=1e-12)


def test_welfare_accepts_arrays():
    t1 = np.linspace(0, 1, 11)
    t2 = np.linspace(1, 0, 11)
    out = welfare_thresholds(t1, t2, 0.3)
    assert out.total.shape == (11,)
    assert out.total[0] == pytest.approx(welfare_thresholds(0.0, 1.0, 0.3).total)


@pytest.mark.parametrize(
    "t1, t2",
    [
        (math.nan, 0.5),
        (0.5, math.nan),
        (-0.1, 0.5),
        (0.5, 1.5),
        (np.array([0.2, math.nan]), 0.5),
        (0.5, np.array([0.2, math.inf])),
    ],
)
def test_welfare_rejects_nan_and_out_of_range_thresholds(t1, t2):
    with pytest.raises(ValueError, match="thresholds"):
        welfare_thresholds(t1, t2, 0.2)


@pytest.mark.parametrize("k", [math.inf, math.nan, 0.0, -1.0, -math.inf])
def test_power_distribution_rejects_non_finite_or_non_positive_k(k):
    # power_distribution(inf) used to be accepted as "power-inf"
    with pytest.raises(ValueError, match="finite and positive"):
        power_distribution(k)


def test_activity_gain_single_crossing():
    # active-minus-inactive interim payoff is nondecreasing in own type
    for t_opp in (0.0, 0.4, 0.9):
        for c in (0.1, 0.5):
            gains = [
                interim_activity_gain(p, t_opp, c) for p in np.linspace(0, 1, 51)
            ]
            assert np.all(np.diff(gains) >= -1e-12)


@pytest.mark.parametrize("c", [0.0, 0.32, 0.5, 0.98])
def test_optimal_thresholds(c):
    pair = optimal_thresholds(c)
    assert pair.t1 == pair.t2 == pytest.approx(math.sqrt(c / 2), abs=1e-15)


def test_optimal_thresholds_match_grid_argmax():
    c = 0.32
    grid = np.linspace(0.0, 1.0, 501)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    total = welfare_thresholds(t1, t2, c).total
    i, j = np.unravel_index(np.argmax(total), total.shape)
    best = optimal_thresholds(c)
    assert abs(grid[i] - best.t1) <= 2e-3 and abs(grid[j] - best.t2) <= 2e-3


def test_subsidised_cutoffs_dominate_unregulated_equilibrium():
    for c in np.arange(0.01, 1.0001, 0.01):
        ne = nash_threshold(c)
        opt = optimal_thresholds(c)
        gap = (
            welfare_thresholds(opt.t1, opt.t2, c).total
            - welfare_thresholds(ne.t1, ne.t2, c).total
        )
        assert gap > 0.0


def test_builtin_distributions_validate():
    validate_distribution(uniform_distribution(), n=50_000, seed=1)
    validate_distribution(power_distribution(2), n=50_000, seed=2)
    bad = Distribution(
        name="mismatched",
        cdf=lambda x: np.asarray(x, dtype=float),
        uniform_map=lambda u: u**2.0,  # map from another law
    )
    with pytest.raises(ValueError):
        validate_distribution(bad, n=50_000, seed=3)


@pytest.mark.parametrize(
    "uniform_map",
    [lambda u: np.where(u < 0.5, u, np.nan), lambda u: np.full_like(u, np.nan)],
    ids=["half_nan", "all_nan"],
)
def test_validation_rejects_a_map_that_yields_nan(uniform_map):
    # NaN draws made the KS distance NaN, which passed the "> ks_tol" test
    dist = Distribution("nan", cdf=lambda x: np.asarray(x, dtype=float), uniform_map=uniform_map)
    with pytest.raises(ValueError, match="KS distance nan"):
        validate_distribution(dist, n=20_000, seed=3)


def _identity(x):
    return np.asarray(x, dtype=float)


@pytest.mark.parametrize(
    "cdf, uniform_map, match",
    [
        (lambda x: np.where(x < 0.5, 0.6, _identity(x)), _identity, "not nondecreasing"),
        (lambda x: 2.0 * _identity(x) - 1.0, _identity, r"leaves \[0, 1\]"),
        (lambda x: 0.5 * _identity(x), _identity, r"cdf\(1\) != 1"),
        (_identity, lambda u: u[:-1], "returned 999 != 1000 draws"),
    ],
    ids=["decreasing", "outside_unit", "short_of_one", "too_few_draws"],
)
def test_validation_rejects_a_broken_cdf_or_map(cdf, uniform_map, match):
    dist = Distribution("broken", cdf=cdf, uniform_map=uniform_map)
    with pytest.raises(ValueError, match=match):
        validate_distribution(dist, n=1000)


@pytest.mark.parametrize(
    "kwargs, error, match",
    [
        ({"n": 0}, ValueError, "n must be >= 1, got 0"),
        ({"n": -1}, ValueError, "n must be >= 1, got -1"),
        ({"n": 1000.0}, TypeError, "n must be an integer"),
        ({"n": math.nan}, TypeError, "n must be an integer"),
        ({"seed": -1}, ValueError, "seed must be >= 0, got -1"),
        ({"seed": 0.5}, TypeError, "seed must be an integer"),
    ],
)
def test_validation_rejects_bad_counts_and_seeds(kwargs, error, match):
    with pytest.raises(error, match=match):
        validate_distribution(uniform_distribution(), **kwargs)


@pytest.mark.parametrize(
    "dist, c, expected",
    [
        (uniform_distribution(), 0.25, 0.5),
        (uniform_distribution(), 0.0, 0.0),
        (power_distribution(2), 0.125, 0.5),
        (power_distribution(2), 0.7, 0.7 ** (1.0 / 3.0)),
    ],
)
def test_general_fixed_point(dist, c, expected):
    h = nash_threshold_general(dist, c)
    assert h == pytest.approx(expected, abs=1e-9)
    assert abs(h * float(dist.cdf(np.float64(h))) - c) <= 1e-10


def test_general_fixed_point_with_an_atomless_gap():
    # all mass on [1/2, 1]; x*F(x) is flat at zero until 1/2
    dist = Distribution(
        name="upper-half",
        cdf=lambda x: np.clip(2.0 * np.asarray(x, dtype=float) - 1.0, 0.0, 1.0),
        uniform_map=lambda u: 0.5 + 0.5 * u,
    )
    validate_distribution(dist, n=50_000, seed=4)
    assert nash_threshold_general(dist, 0.0) == 0.0
    h = nash_threshold_general(dist, 0.3)
    # h (2h - 1) = 0.3
    assert h == pytest.approx((1 + math.sqrt(1 + 2.4)) / 4, abs=1e-9)


def test_general_fixed_point_rejects_a_skipping_cdf():
    # a point mass makes x*F(x) jump over c; the solve must refuse rather
    # than hand back a point with a large residual
    atom = Distribution(
        name="atom-at-half",
        cdf=lambda x: (np.asarray(x, dtype=float) >= 0.5).astype(float),
        uniform_map=lambda u: np.full_like(u, 0.5),
    )
    with pytest.raises(ArithmeticError):
        nash_threshold_general(atom, 0.3)


def test_general_fixed_point_rejects_a_cost_above_the_reach_of_the_cdf():
    # x * F(x) tops out at 0.5 when cdf(1) = 0.5, outside the contract
    short = Distribution("short", cdf=lambda x: 0.5 * _identity(x), uniform_map=_identity)
    with pytest.raises(ValueError, match="never reaches c = 0.8"):
        nash_threshold_general(short, 0.8)


def test_threshold_pair_is_a_namedtuple():
    pair = ThresholdPair(0.2, 0.7)
    t1, t2 = pair
    assert (t1, t2) == (0.2, 0.7)
