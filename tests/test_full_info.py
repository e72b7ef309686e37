import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from servergame.cooperative import optimal_profile, pointwise_welfare, welfare_case1
from servergame.full_info import (
    BOUNDARY_EPS,
    EquilibriumKind,
    EquilibriumSet,
    _mixed_formula,
    classify_state,
    equilibrium_activity,
    mixed_equilibrium,
    regulated_activity,
    regulated_equilibrium,
    select_equilibrium,
    welfare_case3_max,
    welfare_case3_min,
)
from servergame.oracle import epsilon_nash_check, mc_welfare
from servergame.payoffs import (
    ACTIVE,
    INACTIVE,
    PAYOFF_VARIANTS,
    Profile,
    State,
    as_state,
    check_cost,
    check_states,
    payoff,
    payoff_mixed,
    payoff_table,
)

AI = (ACTIVE, INACTIVE)
IA = (INACTIVE, ACTIVE)
II = (INACTIVE, INACTIVE)
AA = (ACTIVE, ACTIVE)
ALL_PURE = (AA, AI, IA, II)

COST_GRID = (0.2, 0.5, 0.8)
STATE_GRID = np.round(np.linspace(0.0, 1.0, 101), 2)


def brute_force_pure_equilibria(s, c, table=payoff, tol=1e-12):
    """Profiles no unilateral pure switch improves by more than tol."""
    stable = []
    for a1, a2 in ALL_PURE:
        u = table(s, a1, a2, c)
        gain1 = table(s, _other(a1), a2, c).u1 - u.u1
        gain2 = table(s, a1, _other(a2), c).u2 - u.u2
        if gain1 <= tol and gain2 <= tol:
            stable.append((a1, a2))
    return stable


def _other(action):
    return INACTIVE if action is ACTIVE else ACTIVE


@pytest.mark.parametrize(
    "state, c, kind, pure",
    [
        ((0.1, 0.2), 0.3, EquilibriumKind.BOTH_INACTIVE, [II]),
        ((0.2, 0.9), 0.3, EquilibriumKind.ONLY_SERVER_2, [IA]),
        ((0.9, 0.2), 0.3, EquilibriumKind.ONLY_SERVER_1, [AI]),
        ((0.35, 0.9), 0.3, EquilibriumKind.ONLY_SERVER_2, [IA]),  # gap > c
        ((0.6, 0.7), 0.3, EquilibriumKind.CONTENTION, [AI, IA]),
        ((0.3, 0.1), 0.3, EquilibriumKind.BOUNDARY_MIX_1, [II, AI]),
        ((0.25, 0.5), 0.5, EquilibriumKind.BOUNDARY_MIX_2, [II, IA]),
        ((0.5, 0.5), 0.5, EquilibriumKind.BOUNDARY_MIX_1, [II, AI, IA]),
        ((0.5, 0.5), 0.0, EquilibriumKind.CONTENTION, [AI, IA, AA]),  # free second server
        ((0.0, 0.0), 0.0, EquilibriumKind.BOUNDARY_MIX_1, [II, AI, IA, AA]),
    ],
)
def test_classification(state, c, kind, pure):
    result = classify_state(State(*state), c)
    assert result.kind is kind
    assert sorted(map(str, result.pure_equilibria)) == sorted(map(str, pure))


@pytest.mark.parametrize(
    "state, c, expected",
    [
        ((0.8, 0.6), 0.3, (0.5, 5.0 / 6.0)),
        ((0.6, 0.7), 0.3, (2.0 / 3.0, 0.5)),
        ((0.5, 0.5), 0.2, (0.6, 0.6)),
    ],
)
def test_mixed_equilibrium_values(state, c, expected):
    got = mixed_equilibrium(State(*state), c)
    assert got == pytest.approx(expected, abs=1e-12)


def test_mixed_equilibrium_rejected_outside_contention():
    with pytest.raises(ValueError):
        mixed_equilibrium(State(0.1, 0.9), 0.3)


def test_mixed_components_stay_in_range_on_contention_edges():
    # closed-edge states push the formula to a 0/1 component, never beyond
    for state, c in [
        ((0.2, 0.3), 0.2),          # min == c
        ((0.4, 0.6), 0.2),          # gap == c
        ((0.5 + 1e-10, 0.5), 0.0),  # near-diagonal at zero cost
    ]:
        result = classify_state(State(*state), c)
        if result.mixed is not None:
            assert 0.0 <= result.mixed[0] <= 1.0
            assert 0.0 <= result.mixed[1] <= 1.0


def test_mixed_formula_refuses_a_state_far_outside_contention():
    # (0.9, 0.1) at c = 0.5 has one lone equilibrium; its formula gives -4.0
    with pytest.raises(AssertionError, match=r"^mixed profile component -4\.0 outside \[0, 1\]"):
        _mixed_formula(0.9, 0.1, 0.5)


def test_mixed_equilibrium_indifference():
    rng = np.random.default_rng(99)
    found = 0
    while found < 60:
        p1, p2 = rng.random(2)
        c = rng.uniform(0.05, 0.9)
        if classify_state(State(p1, p2), c).kind is not EquilibriumKind.CONTENTION:
            continue
        found += 1
        sigma1, sigma2 = mixed_equilibrium(State(p1, p2), c)
        s = State(p1, p2)
        u1_active = payoff_mixed(s, 1.0, sigma2, c)
        u1_idle = payoff_mixed(s, 0.0, sigma2, c)
        assert u1_active.u1 == pytest.approx(u1_idle.u1, abs=1e-12)
        u2_active = payoff_mixed(s, sigma1, 1.0, c)
        u2_idle = payoff_mixed(s, sigma1, 0.0, c)
        assert u2_active.u2 == pytest.approx(u2_idle.u2, abs=1e-12)


def test_mixed_equilibrium_is_unstable():
    # nudging sigma1 up makes idle strictly better for server 2; down, active
    rng = np.random.default_rng(3)
    found = 0
    while found < 40:
        p1, p2 = rng.random(2)
        c = rng.uniform(0.05, 0.9)
        s = State(p1, p2)
        if classify_state(s, c).kind is not EquilibriumKind.CONTENTION:
            continue
        sigma1, sigma2 = mixed_equilibrium(s, c)
        if not 0.01 <= sigma1 <= 0.99:
            continue
        found += 1
        up = payoff_mixed(s, sigma1 + 0.01, 1.0, c).u2 - payoff_mixed(
            s, sigma1 + 0.01, 0.0, c
        ).u2
        down = payoff_mixed(s, sigma1 - 0.01, 1.0, c).u2 - payoff_mixed(
            s, sigma1 - 0.01, 0.0, c
        ).u2
        assert up < 0.0 < down


def test_classification_matches_deviation_oracle_on_the_grid():
    for c in COST_GRID:
        for p1 in STATE_GRID:
            for p2 in STATE_GRID:
                s = State(p1, p2)
                listed = classify_state(s, c).pure_equilibria
                stable = brute_force_pure_equilibria(s, c)
                assert sorted(map(str, listed)) == sorted(map(str, stable)), (
                    f"mismatch at ({p1}, {p2}), c={c}"
                )


@pytest.mark.parametrize(
    "state, c, policy, expected",
    [
        ((0.8, 0.6), 0.3, "max_welfare", Profile(1, 0)),
        ((0.8, 0.6), 0.3, "min_welfare", Profile(0, 1)),
        ((0.2, 0.9), 0.3, "max_welfare", Profile(0, 1)),
        ((0.2, 0.9), 0.3, "min_welfare", Profile(0, 1)),
        ((0.7, 0.7), 0.3, "max_welfare", Profile(1, 0)),  # tie: server 1
        ((0.7, 0.7), 0.3, "min_welfare", Profile(1, 0)),
        ((0.3, 0.1), 0.3, "max_welfare", Profile(0, 0)),  # knife edge sits out
    ],
)
def test_select_equilibrium(state, c, policy, expected):
    assert select_equilibrium(State(*state), c, policy) == expected


@pytest.mark.parametrize("policy", ["median", "MAX_WELFARE", ""])
def test_unknown_selection_policy_is_rejected(policy):
    with pytest.raises(ValueError, match="unknown policy"):
        equilibrium_activity(0.6, 0.7, 0.3, policy=policy)
    with pytest.raises(ValueError, match="unknown policy"):
        select_equilibrium(State(0.6, 0.7), 0.3, policy)


def test_selected_profiles_are_equilibria():
    rng = np.random.default_rng(17)
    for _ in range(400):
        p1, p2 = rng.random(2)
        c = rng.uniform(0.05, 0.95)
        s = State(p1, p2)
        stable = brute_force_pure_equilibria(s, c, tol=1e-9)
        for policy in ("max_welfare", "min_welfare"):
            prof = select_equilibrium(s, c, policy)
            pure = (
                ACTIVE if prof.sigma1 == 1.0 else INACTIVE,
                ACTIVE if prof.sigma2 == 1.0 else INACTIVE,
            )
            assert pure in stable


@pytest.mark.parametrize(
    "c, expected",
    [(0.0, 4.0 / 3.0), (0.5, 19.0 / 24.0), (1.0, 0.0)],
)
def test_max_welfare_closed_form(c, expected):
    assert welfare_case3_max(c) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "c, expected",
    [(0.0, 4.0 / 3.0), (0.25, 3 * 0.25**3 - 2 * 0.25**2 - 0.25 + 4 / 3), (0.5, 17.0 / 24.0)],
)
def test_min_welfare_closed_form(c, expected):
    assert welfare_case3_min(c) == pytest.approx(expected, abs=1e-12)


def test_min_welfare_branches_agree_at_half():
    low = 3 * 0.5**3 - 2 * 0.5**2 - 0.5 + 4 / 3
    high = 0.5**3 / 3 - 2 * 0.5**2 + 0.5 + 2 / 3
    assert low == pytest.approx(high, abs=1e-12)
    assert welfare_case3_min(0.5) == pytest.approx(high, abs=1e-12)


def test_welfare_ordering_interior():
    for c in np.arange(0.01, 1.0, 0.01):
        assert welfare_case1(c) > welfare_case3_max(c) > welfare_case3_min(c)


def test_equilibrium_welfare_matches_monte_carlo():
    for c, policy, closed in (
        (0.3, "max_welfare", welfare_case3_max(0.3)),
        (0.3, "min_welfare", welfare_case3_min(0.3)),
        (0.7, "min_welfare", welfare_case3_min(0.7)),
    ):
        est = mc_welfare(
            lambda p1, p2, cc: equilibrium_activity(p1, p2, cc, policy),
            c,
            n=400_000,
            seed=314,
        )
        assert abs(est.mean - closed) <= 3 * est.stderr


def mixed_selection(p1, p2, c):
    """The mixed profile in contention, the unique equilibrium elsewhere."""
    sigma1, sigma2 = (np.asarray(s, dtype=float) for s in equilibrium_activity(p1, p2, c))
    low = np.minimum(p1, p2)
    contention = (low > c) & (np.abs(p1 - p2) < c)
    low = np.where(contention, low, 1.0)
    return (
        np.where(contention, (p2 - c) / low, sigma1),
        np.where(contention, (p1 - c) / low, sigma2),
    )


def mixed_selection_welfare(c):
    """Expected welfare of ``mixed_selection`` under uniform states, integrated
    from the payoff expressions outside the package."""
    if c <= 0.5:
        return (
            c**3 * math.log(c) - c**3 * math.log(1 - c) + 19 * c**3 / 6 - c**2
            + c * math.log(1 - c) - c + 4 / 3
        )
    return -5 * c**3 / 6 + c * math.log(c) - c / 2 + 4 / 3


@pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 0.8])
def test_the_mixed_selection_lies_below_the_worst_pure_one(c):
    # welfare_case3_min is the worst *pure* selection: playing the contention
    # band's mixed equilibrium instead gives less welfare still
    est = mc_welfare(mixed_selection, c, n=1_000_000, seed=1)
    assert abs(est.mean - mixed_selection_welfare(c)) <= 3 * est.stderr
    assert est.mean + 3 * est.stderr < welfare_case3_min(c)


@st.composite
def contention_states(draw):
    """A cost and a state of contention's closed band, in either order:
    anywhere in it, or within 4 ulp of its edges min(p1, p2) = c and
    |p1 - p2| = c (the latter lies in the square only for c <= 1/2)."""
    edge = draw(st.sampled_from(("inside", "min", "gap")))
    c = draw(st.floats(0.0, 0.5 if edge == "gap" else 1.0))
    u, v = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    if edge == "gap":
        low = c + u * (1.0 - 2.0 * c)
        high = low + c
    else:
        low = c if edge == "min" else c + u * (1.0 - c)
        high = low + v * min(c, 1.0 - low)
    low, high = (min(1.0, max(0.0, ulp_steps(p, draw(st.integers(-4, 4))))) for p in (low, high))
    return c, *((high, low) if draw(st.booleans()) else (low, high))


@settings(deadline=None, max_examples=200)
@given(contention_states())
@example(case=(0.25, 0.5, 0.25))  # both edges at once: min = c, gap = c
@example(case=(0.3, 0.6, math.nextafter(0.3, 1.0)))
@example(case=(0.0, 0.5, 0.5))  # c = 0: (A, A) is an equilibrium too
@example(case=(0.5, 1.0, 0.5))  # the corner where c = 1/2 meets both edges
def test_the_mixed_equilibrium_never_beats_the_better_pure_one(case):
    # the mixed profile spreads its weight over AA, AI, IA and II, and in
    # contention the better lone server earns at least as much as any of them
    c, p1, p2 = case
    s = State(p1, p2)
    result = classify_state(s, c)
    assume(result.kind is EquilibriumKind.CONTENTION)
    pure = max(pointwise_welfare(s, Profile(*sigma), c) for sigma in ((1, 0), (0, 1)))
    assert pointwise_welfare(s, Profile(*result.mixed), c) <= pure + 1e-12, case


@pytest.mark.parametrize(
    "state, c, expected",
    [
        ((0.8, 0.4), 0.6, Profile(1, 0)),
        ((0.1, 0.1), 0.6, Profile(0, 0)),
        ((0.4, 0.7), 0.6, Profile(0, 1)),
        ((0.5, 0.5), 0.6, Profile(1, 0)),  # diagonal: server 1 serves
    ],
)
def test_regulated_equilibrium(state, c, expected):
    assert regulated_equilibrium(State(*state), c) == expected


def test_regulated_equilibrium_is_the_unique_equilibrium_of_the_regulated_game():
    rng = np.random.default_rng(8)
    table = PAYOFF_VARIANTS["case3_reg"]
    for _ in range(400):
        p1, p2 = rng.random(2)
        c = rng.uniform(0.05, 0.95)
        if abs(p1 - p2) < 1e-6 or abs(max(p1, p2) - c / 2) < 1e-6:
            continue  # the documented measure-zero tie sets
        s = State(p1, p2)
        stable = brute_force_pure_equilibria(s, c, table=table, tol=1e-12)
        prof = regulated_equilibrium(s, c)
        pure = (
            ACTIVE if prof.sigma1 == 1.0 else INACTIVE,
            ACTIVE if prof.sigma2 == 1.0 else INACTIVE,
        )
        assert stable == [pure]


def test_regulation_restores_the_cooperative_optimum():
    # off the tie diagonal the regulated equilibrium is the optimal profile;
    # c chosen so c/2 is off the state grid (at max == c/2 exactly the
    # regulated game still serves while the optimum tie-breaks to idle)
    for c in (0.25, 0.45):
        for p1 in STATE_GRID[::2]:
            for p2 in STATE_GRID[::2]:
                if p1 == p2:
                    continue
                s = State(p1, p2)
                assert regulated_equilibrium(s, c) == optimal_profile(s, c)


def test_regulated_welfare_matches_cooperative_closed_form():
    est = mc_welfare(regulated_activity, 0.45, n=400_000, seed=2718)
    assert abs(est.mean - welfare_case1(0.45)) <= 3 * est.stderr


def test_every_grid_state_gets_exactly_one_kind():
    # classification is a total function; spot-check kinds partition sensibly
    counts = {kind: 0 for kind in EquilibriumKind}
    for c in COST_GRID:
        for p1 in STATE_GRID[::5]:
            for p2 in STATE_GRID[::5]:
                counts[classify_state(State(p1, p2), c).kind] += 1
    assert all(counts[k] > 0 for k in EquilibriumKind)


def test_contention_always_carries_the_mixed_profile():
    rng = np.random.default_rng(21)
    seen = 0
    while seen < 50:
        p1, p2 = rng.random(2)
        c = rng.uniform(0.05, 0.9)
        result = classify_state(State(p1, p2), c)
        if result.kind is EquilibriumKind.CONTENTION:
            seen += 1
            assert result.mixed is not None
            assert 0.0 <= result.mixed[0] <= 1.0 and 0.0 <= result.mixed[1] <= 1.0
        else:
            assert result.mixed is None


def table_stable_profiles(p1, p2, c, tol=1e-12):
    """Pure profiles that no unilateral switch improves by more than tol,
    read straight from the payoff table (each row lists own action first)."""
    rows = (payoff_table(p1, p2, c), payoff_table(p2, p1, c))
    stable = set()
    for a1, a2 in ALL_PURE:
        i, j = int(a1 is INACTIVE), int(a2 is INACTIVE)
        gain1 = rows[0][2 * (1 - i) + j] - rows[0][2 * i + j]
        gain2 = rows[1][2 * (1 - j) + i] - rows[1][2 * j + i]
        if gain1 <= tol and gain2 <= tol:
            stable.add((a1, a2))
    return stable


def ulp_steps(x: float, k: int) -> float:
    toward = math.copysign(math.inf, k)
    for _ in range(abs(k)):
        x = math.nextafter(x, toward)
    return x


@st.composite
def near_case3_boundary(draw):
    """A cost above 1e-9 and a state within 4 ulp of max = c, min = c or
    |p1 - p2| = c, in either order."""
    c = draw(st.floats(1e-9, 1.0))
    u = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(("max", "min", "gap")))
    if kind == "max":
        p1, p2 = c, u * c
    elif kind == "min":
        p1, p2 = c + u * (1.0 - c), c
    else:
        p2 = u * (1.0 - c)
        p1 = p2 + c
    p1, p2 = (min(1.0, max(0.0, ulp_steps(p, draw(st.integers(-4, 4))))) for p in (p1, p2))
    return c, *((p2, p1) if draw(st.booleans()) else (p1, p2))


def playing(profile):
    """Array strategy playing the pure ``profile`` at every state."""
    active1, active2 = (action is ACTIVE for action in profile)
    return lambda p1, p2, c: (np.full(np.shape(p1), active1), np.full(np.shape(p2), active2))


# On a boundary up to rounding the region map lists the closed region's set,
# which a 1e-12 deviation oracle reproduces.  A state on one boundary may lie
# between a few ulp and BOUNDARY_EPS from another, where the map's wider
# equality tolerance decides by convention; those states are skipped.  So
# are costs in that band: both-active is weakly stable at every state where
# c <= 0 (a second active server costs nothing), closed by BOUNDARY_EPS like
# the rest, so c itself is its distance from the boundary.  Drawn costs
# start at 1e-9; c = 0 is pinned by examples.
@settings(deadline=None, max_examples=300)
@given(near_case3_boundary())
@example(case=(0.3, math.nextafter(0.3, 0.0), 0.3))  # double knife edge, p1 < p2
@example(case=(0.3, 0.3, math.nextafter(0.3, 0.0)))
@example(case=(0.25, 0.5, 0.25))  # max = min + c = 2c
@example(case=(0.0, 0.5, 0.5))  # c = 0: (A, A) too
@example(case=(0.0, 0.6, 0.2))
def test_classification_matches_the_table_near_region_boundaries(case):
    c, p1, p2 = case
    gaps = (abs(max(p1, p2) - c), abs(min(p1, p2) - c), abs(abs(p1 - p2) - c), c)
    assume(all(d <= 1e-14 or d > BOUNDARY_EPS for d in gaps))
    listed = classify_state(State(p1, p2), c).pure_equilibria
    assert len(set(listed)) == len(listed)
    assert set(listed) == table_stable_profiles(p1, p2, c), case
    for profile in listed:
        assert epsilon_nash_check(playing(profile), c, states=[(p1, p2)]).passed, (case, profile)


# --------------------------------------------------------------------------
# the region map as it was before classify_state and equilibrium_activity
# read one set of stability masks, kept as a bit-for-bit reference


def reference_lone_server(p1, p2, c):
    eps = BOUNDARY_EPS
    return (p2 < c - eps) | (p1 - p2 > c + eps), (p1 < c - eps) | (p2 - p1 > c + eps)


def reference_classify_state(s, c):
    s = as_state(s)
    c = check_cost(c)
    p1, p2 = s.p1, s.p2
    top = max(p1, p2)
    eps = BOUNDARY_EPS

    if top < c - eps:
        return EquilibriumSet(EquilibriumKind.BOTH_INACTIVE, (II,))

    if top <= c + eps:
        pure = [II]
        if p1 >= c - eps:
            pure.append(AI)
        if p2 >= c - eps:
            pure.append(IA)
        kind = EquilibriumKind.BOUNDARY_MIX_1 if p1 >= p2 else EquilibriumKind.BOUNDARY_MIX_2
        return EquilibriumSet(kind, tuple(pure))

    alone1, alone2 = reference_lone_server(p1, p2, c)
    if alone1:
        return EquilibriumSet(EquilibriumKind.ONLY_SERVER_1, (AI,))
    if alone2:
        return EquilibriumSet(EquilibriumKind.ONLY_SERVER_2, (IA,))
    return EquilibriumSet(EquilibriumKind.CONTENTION, (AI, IA), _mixed_formula(p1, p2, c))


def reference_equilibrium_activity(p1, p2, c, policy):
    c = check_cost(c)
    p1, p2 = check_states(p1, p2)
    nobody = np.maximum(p1, p2) <= c + BOUNDARY_EPS
    alone1, alone2 = reference_lone_server(p1, p2, c)
    only1 = ~nobody & alone1
    only2 = ~nobody & alone2
    contention = ~(nobody | only1 | only2)
    first = p1 >= p2 if policy == "max_welfare" else p1 <= p2
    sigma1 = (only1 | (contention & first)).astype(float)
    sigma2 = (only2 | (contention & ~first)).astype(float)
    return sigma1, sigma2


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def states_near_the_region_edges(draw):
    """A cost, in [0, 1e-9) or [1e-9, 1], and up to 16 states within 4 ulp
    of max = x, min = x, |p1 - p2| = x or p1 = p2, for x = c and the
    BOUNDARY_EPS closures c + eps and c - eps, in either order: one
    coordinate is stepped off the edge, the other stays where it was drawn."""
    c = draw(
        st.floats(0.0, BOUNDARY_EPS, exclude_max=True)
        | st.floats(BOUNDARY_EPS, 1.0)
        | st.sampled_from([0.0, BOUNDARY_EPS, 0.5, 1.0])
    )
    states = []
    for _ in range(draw(st.integers(1, 16))):
        x = draw(st.sampled_from([c, c + BOUNDARY_EPS, c - BOUNDARY_EPS]))
        u = draw(st.floats(0.0, 1.0))
        kind = draw(st.sampled_from(("max", "min", "gap", "tie")))
        if kind == "max":
            edge, other = x, u * x
        elif kind == "min":
            edge, other = x, x + u * (1.0 - x)
        elif kind == "gap":
            other = u * (1.0 - x)
            edge = other + x
        else:
            edge = other = u
        edge, other = (
            min(1.0, max(0.0, p)) for p in (ulp_steps(edge, draw(st.integers(-4, 4))), other)
        )
        states.append((other, edge) if draw(st.booleans()) else (edge, other))
    return c, states


EDGE = 0.3 + BOUNDARY_EPS  # c + eps at c = 0.3; (0.5 + EDGE) - 0.5 == EDGE exactly


# Every weak inequality of the region map is hit exactly by at least one
# pinned example, so turning any of them strict changes some output.
@settings(deadline=None, max_examples=300)
@given(states_near_the_region_edges())
@example(case=(0.3, [(EDGE, 0.1), (0.1, EDGE)]))  # max == c + eps
@example(case=(0.3, [(0.3 - BOUNDARY_EPS, 0.1), (0.1, 0.3 - BOUNDARY_EPS)]))  # max == c - eps
@example(case=(0.3, [(0.5, 0.5 + EDGE), (0.5 + EDGE, 0.5)]))  # |p1 - p2| == c + eps
@example(case=(0.3, [(0.6, 0.3 - BOUNDARY_EPS), (0.3 - BOUNDARY_EPS, 0.6)]))  # min == c - eps
@example(case=(0.3, [(0.3, 0.3), (0.7, 0.7), (0.0, 0.0)]))  # ties
@example(case=(0.0, [(0.0, 0.0), (BOUNDARY_EPS, 0.0), (0.0, BOUNDARY_EPS), (0.5, 0.2)]))
# c < eps with a denormal-scale denominator: the mixed profile's ratio is
# ~4.5e6, so its own rounding exceeds any fixed absolute slack.
@example(case=(3.190669872083154e-10, [(1.3190672092529203e-09, 2.220446046321396e-16)]))
def test_region_map_matches_its_former_definition_bit_for_bit(case):
    c, states = case
    # the one change to the former map: it omitted (A, A) where c <= eps
    both_active = (AA,) if c <= BOUNDARY_EPS else ()
    for p1, p2 in states:
        got, want = classify_state(State(p1, p2), c), reference_classify_state(State(p1, p2), c)
        assert got.kind is want.kind, (p1, p2, c)
        assert got.pure_equilibria == want.pure_equilibria + both_active, (p1, p2, c)
        assert (got.mixed is None) == (want.mixed is None), (p1, p2, c)
        if want.mixed is not None:
            assert bits(got.mixed) == bits(want.mixed), (p1, p2, c)
    p1s = np.array([p for p, _ in states])
    p2s = np.array([q for _, q in states])
    for policy in ("max_welfare", "min_welfare"):
        want = reference_equilibrium_activity(p1s, p2s, c, policy)
        got = equilibrium_activity(p1s, p2s, c, policy)
        assert [bits(g) for g in got] == [bits(w) for w in want], (c, policy)
        for k, (p1, p2) in enumerate(states):
            profile = select_equilibrium(State(p1, p2), c, policy)
            assert bits(profile) == bits([want[0][k], want[1][k]]), (p1, p2, c, policy)
