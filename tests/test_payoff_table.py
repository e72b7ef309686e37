"""One payoff table and one rule per concept.

The pure, mixed and oracle payoffs all read ``payoffs.payoff_table``; the
reference functions below write the three tables out case by case, and
every view must reproduce them bit for bit.  The activity
maps share one input check and one region test, so states within a few
ulp of the region boundaries must get the same answer on the scalar and
the array path.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from servergame import oracle
from servergame.bayesian import Distribution
from servergame.cooperative import optimal_activity, optimal_profile, pointwise_welfare
from servergame.full_info import (
    classify_state,
    equilibrium_activity,
    regulated_activity,
    regulated_equilibrium,
    select_equilibrium,
)
from servergame.oracle import grid_best_response, interim_activity_gain, mc_welfare
from servergame.payoffs import (
    ACTIVE,
    INACTIVE,
    PAYOFF_VARIANTS,
    Profile,
    State,
    payoff_mixed,
    payoff_table,
)

PROFILES = ((ACTIVE, ACTIVE), (ACTIVE, INACTIVE), (INACTIVE, ACTIVE), (INACTIVE, INACTIVE))
SETTINGS = settings(deadline=None, max_examples=150)


def reference_payoff(s, a1, a2, c, variant):
    """The three tables written out case by case, server by server."""
    p1, p2 = s.p1, s.p2
    active1, active2 = a1 is ACTIVE, a2 is ACTIVE
    if active1 and active2:
        best = max(p1, p2)
        base = (best - c, best - c)
    elif active1:
        base = (p1 - c, p1)
    elif active2:
        base = (p2, p2 - c)
    else:
        base = (0.0, 0.0)
    lone1, lone2 = active1 and not active2, active2 and not active1
    if variant == "case2_reg":
        if lone1:
            return (base[0] + c / 2.0, base[1] - c / 2.0)
        if lone2:
            return (base[0] - c / 2.0, base[1] + c / 2.0)
    if variant == "case3_reg" and max(p1, p2) >= c / 2.0:
        if lone1:
            return ((p1 - p2) / 2.0, (3.0 * p1 + p2) / 2.0 - c)
        if lone2:
            return ((p1 + 3.0 * p2) / 2.0 - c, (p2 - p1) / 2.0)
    return base


def reference_mixed(s, sigma1, sigma2, c, variant):
    u1 = u2 = 0.0
    for a1, w1 in ((ACTIVE, sigma1), (INACTIVE, 1.0 - sigma1)):
        for a2, w2 in ((ACTIVE, sigma2), (INACTIVE, 1.0 - sigma2)):
            w = w1 * w2
            if w == 0.0:
                continue
            pair = reference_payoff(s, a1, a2, c, variant)
            u1 += w * pair[0]
            u2 += w * pair[1]
    return u1, u2


def bits(values):
    return [float(v).hex() for v in values]


def ulp_steps(x: float, k: int) -> float:
    toward = math.copysign(math.inf, k)
    for _ in range(abs(k)):
        x = math.nextafter(x, toward)
    return x


@st.composite
def boundary_state(draw, c):
    """(p1, p2) within a few ulp of |p1 - p2| = c, max = c or max = c/2."""
    u = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(("gap", "max", "half")))
    if kind == "gap":
        p2 = u * (1.0 - c)
        p1 = p2 + c
    elif kind == "max":
        p1, p2 = c, u * c
    else:
        p1, p2 = c / 2.0, u * c / 2.0
    p1, p2 = (min(1.0, max(0.0, ulp_steps(p, draw(st.integers(-4, 4))))) for p in (p1, p2))
    return (p2, p1) if draw(st.booleans()) else (p1, p2)


@st.composite
def states_at_one_cost(draw, boundary_only=False):
    """A cost and up to 20 states, mostly on its region boundaries."""
    c = draw(st.floats(0.0, 1.0))
    state = boundary_state(c)
    if not boundary_only:
        state = state | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    return c, draw(st.lists(state, min_size=1, max_size=20))


@SETTINGS
@given(states_at_one_cost(), st.sampled_from(sorted(PAYOFF_VARIANTS)))
@example(case=(5e-324, [(5e-324, 0.0)]), variant="case3_reg")  # (p2 - p1) / 2 is -0.0
def test_pure_and_mixed_views_match_the_reference_tables(case, variant):
    c, rows = case
    for p1, p2 in rows:
        s = State(p1, p2)
        for a1, a2 in PROFILES:
            got = PAYOFF_VARIANTS[variant](s, a1, a2, c)
            assert bits(got) == bits(reference_payoff(s, a1, a2, c, variant))
        for sigma1, sigma2 in ((0.0, 1.0), (1.0, 1.0), (0.3, 0.0), (0.25, 0.7)):
            got = payoff_mixed(s, sigma1, sigma2, c, variant)
            assert bits(got) == bits(reference_mixed(s, sigma1, sigma2, c, variant))


@SETTINGS
@given(states_at_one_cost(), st.sampled_from(sorted(PAYOFF_VARIANTS)))
def test_array_and_scalar_tables_agree_exactly(case, variant):
    c, rows = case
    p1 = np.array([r[0] for r in rows])
    p2 = np.array([r[1] for r in rows])
    table = [np.broadcast_to(entry, p1.shape) for entry in payoff_table(p1, p2, c, variant)]
    # AA and AI computed in the caller's rows: the same bits, returned in them
    rows = np.full((2, p1.size), np.nan)
    into = payoff_table(p1, p2, c, variant, out=rows)
    assert np.shares_memory(into[0], rows[0]) and np.shares_memory(into[1], rows[1])
    for i in range(p1.size):
        scalar = payoff_table(float(p1[i]), float(p2[i]), c, variant)
        assert bits(entry[i] for entry in table) == bits(scalar)
        assert bits((rows[0, i], rows[1, i])) == bits(scalar[:2])


@SETTINGS
@given(states_at_one_cost())
def test_transfers_are_welfare_neutral(case):
    c, rows = case
    for s, (a1, a2) in itertools.product((State(*r) for r in rows), PROFILES):
        total = PAYOFF_VARIANTS["unregulated"](s, a1, a2, c).total
        for variant in ("case2_reg", "case3_reg"):
            assert PAYOFF_VARIANTS[variant](s, a1, a2, c).total == pytest.approx(total, abs=1e-14)


def test_unknown_variant_is_rejected_once_for_every_view():
    s = State(0.4, 0.6)
    for call in (
        lambda: payoff_table(0.4, 0.6, 0.2, "case4_reg"),
        lambda: payoff_mixed(s, 0.5, 0.5, 0.2, "case4_reg"),
        lambda: pointwise_welfare(s, Profile(1.0, 0.0), 0.2, "case4_reg"),
        lambda: oracle.epsilon_nash_check(optimal_activity, 0.2, variant="case4_reg"),
    ):
        with pytest.raises(ValueError, match="unknown variant 'case4_reg'"):
            call()


@SETTINGS
@given(states_at_one_cost(boundary_only=True))
def test_equilibrium_selections_are_members_of_the_classified_set(case):
    c, rows = case
    p1 = np.array([r[0] for r in rows])
    p2 = np.array([r[1] for r in rows])
    for policy in ("max_welfare", "min_welfare"):
        sigma1, sigma2 = equilibrium_activity(p1, p2, c, policy)
        for i in range(p1.size):
            s = State(float(p1[i]), float(p2[i]))
            pure = {(a1.sigma, a2.sigma) for a1, a2 in classify_state(s, c).pure_equilibria}
            scalar = tuple(select_equilibrium(s, c, policy))
            assert scalar == (sigma1[i], sigma2[i])
            assert scalar in pure


@st.composite
def gate_state(draw, c):
    """(p1, p2) within 4 ulp of max = c/2, where the strict and weak gates
    differ, or of the tie diagonal p1 = p2."""
    u = draw(st.floats(0.0, 1.0))
    p1, p2 = (c / 2.0, u * c / 2.0) if draw(st.booleans()) else (u, u)
    p1, p2 = (min(1.0, max(0.0, ulp_steps(p, draw(st.integers(-4, 4))))) for p in (p1, p2))
    return (p2, p1) if draw(st.booleans()) else (p1, p2)


@st.composite
def states_near_the_gates(draw):
    """A cost and up to 20 states, mostly near its gates."""
    c = draw(st.floats(0.0, 1.0))
    state = gate_state(c) | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    return c, draw(st.lists(state, min_size=1, max_size=20))


def reference_gate(p1, p2, c, weak):
    """The better server serves where max(p1, p2) > c/2 (>= if ``weak``),
    server 1 on ties, nobody elsewhere."""
    best = max(p1, p2)
    serve = best >= c / 2.0 if weak else best > c / 2.0
    return float(serve and p1 >= p2), float(serve and p2 > p1)


GATED_MAPS = (
    (optimal_activity, optimal_profile, False),
    (regulated_activity, regulated_equilibrium, True),
)


@SETTINGS
@given(states_near_the_gates())
@example(case=(0.5, [(0.25, 0.1), (0.1, 0.25), (0.25, 0.25), (0.3, 0.3), (0.0, 0.0)]))
@example(case=(0.0, [(0.0, 0.0), (5e-324, 0.0), (0.0, 5e-324)]))
def test_gated_maps_agree_with_their_scalar_views(case):
    c, rows = case
    p1 = np.array([r[0] for r in rows])
    p2 = np.array([r[1] for r in rows])
    for array_map, scalar_view, weak in GATED_MAPS:
        sigma1, sigma2 = array_map(p1, p2, c)
        for i, (q1, q2) in enumerate(rows):
            profile = scalar_view(State(q1, q2), c)
            assert type(profile.sigma1) is float and type(profile.sigma2) is float
            expected = bits(reference_gate(q1, q2, c, weak))
            assert bits((profile.sigma1, profile.sigma2)) == expected, (array_map, q1, q2, c)
            assert bits((sigma1[i], sigma2[i])) == expected, (array_map, q1, q2, c)


ACTIVITY_MAPS = (optimal_activity, equilibrium_activity, regulated_activity)
NAN = float("nan")


@pytest.mark.parametrize("activity", ACTIVITY_MAPS)
@pytest.mark.parametrize(
    "p1, p2",
    [
        (NAN, 0.5),  # used to select server 2 in equilibrium_activity
        (0.5, NAN),
        (1.7, 0.5),
        (-3.0, 0.5),
        (0.5, 1.0000000000000002),
        (np.array([0.2, NAN]), np.array([0.3, 0.3])),
        (np.array([0.2, 0.4]), np.array([0.3, -0.1])),
    ],
)
def test_activity_maps_reject_nan_and_out_of_range_states(activity, p1, p2):
    with pytest.raises(ValueError, match=r"p[12] must lie in \[0, 1\]"):
        activity(p1, p2, 0.2)


@pytest.mark.parametrize("activity", ACTIVITY_MAPS)
def test_activity_maps_accept_the_closed_unit_square(activity):
    corners = np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0, 1.0])
    sigma1, sigma2 = activity(*corners, 0.2)
    assert np.all(sigma1 + sigma2 <= 1.0)
    assert activity(1.0, 0.0, 0.2) == (1.0, 0.0)


def test_monte_carlo_rejects_a_sampler_that_yields_nan():
    nan_draws = Distribution("nan", cdf=lambda x: x, sample=lambda rng, n: np.full(n, NAN))
    for activity in ACTIVITY_MAPS:
        with pytest.raises(ValueError, match="p1 must lie"):
            mc_welfare(activity, 0.2, n=10, dist1=nan_draws)


@pytest.mark.parametrize("regulated", [False, True])
@pytest.mark.parametrize("row_slice", [None, 700, 1_999])
def test_blocked_sampled_gains_match_the_whole_matrix(monkeypatch, regulated, row_slice):
    rng = np.random.default_rng(3)
    draws = rng.random(2_000)
    p_grid = np.linspace(0.0, 1.0, 201)
    if row_slice is not None:  # several slices per row, the last one short
        monkeypatch.setattr(oracle, "_ROW_SLICE", row_slice)
    for t_opp, c in ((0.5, 0.25), (0.7, 0.49)):
        # the gain matrix built whole, from server 1's row of the table
        p, q = p_grid[:, np.newaxis], draws[np.newaxis, :]
        idle = p - c + c / 2.0 if regulated else p - c
        opp_payoff = q - c / 2.0 if regulated else q
        gain = np.where(q >= t_opp, np.maximum(p, q) - c - opp_payoff, idle)
        means, ses = oracle._sampled_gain_moments(p_grid, draws, t_opp, c, regulated)
        assert np.array_equal(means, gain.mean(axis=1))
        assert np.array_equal(ses, gain.std(axis=1, ddof=1) / np.sqrt(draws.size))


def linear_scan_best_response(t_opp, c, regulated, step):
    grid = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    for x in grid:
        if interim_activity_gain(float(x), t_opp, c, regulated) >= -1e-12:
            return float(x)
    return 1.0


def linspace_bisection(t_opp, c, regulated, step):
    """The bisection over the whole np.linspace grid, allocated up front."""
    grid = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)

    def dominates(i):
        return interim_activity_gain(float(grid[i]), t_opp, c, regulated) >= -1e-12

    if dominates(0):
        return float(grid[0])
    lo, hi = 0, grid.size - 1
    if not dominates(hi):
        return 1.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if dominates(mid) else (mid, hi)
    return float(grid[hi])


@pytest.mark.parametrize("step", [0.01, 7e-3, 1e-3])
@pytest.mark.parametrize(
    "t_opp, c, regulated",
    [(0.0, 0.32, False), (0.8, 0.25, False), (0.4, 0.5, True), (0.0, 0.9, False), (0.3, 0.0, False)],
)
def test_grid_bisection_matches_a_linear_scan(t_opp, c, regulated, step):
    got = grid_best_response(t_opp, c, regulated=regulated, step=step)
    assert got == linear_scan_best_response(t_opp, c, regulated, step)


@pytest.mark.parametrize("step", [0.01, 7e-3, 1e-3, 1e-4])
def test_grid_points_on_demand_match_the_linspace_grid(step):
    rng = np.random.default_rng(17)
    for t_opp, c, regulated in zip(rng.random(40), rng.random(40), rng.random(40) < 0.5):
        args = float(t_opp), float(c), bool(regulated)
        assert grid_best_response(*args[:2], regulated=args[2], step=step) == linspace_bisection(*args, step)


def test_grid_best_response_fine_step_allocates_no_grid():
    # 10^9 + 1 grid points would take 8 GB; bisection reads about 30
    assert abs(grid_best_response(0.8, 0.25, step=1e-9) - 0.3125) <= 1e-6


@pytest.mark.parametrize("step", [1e-320, 5e-324, 0.0, -1e-3, 0.02, NAN])
def test_grid_best_response_rejects_unusable_steps(step):
    with pytest.raises(ValueError, match="step must lie"):
        grid_best_response(0.8, 0.25, step=step)
