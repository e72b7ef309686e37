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
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from servergame import oracle
from servergame.bayesian import Distribution
from servergame.cooperative import optimal_activity, optimal_profile, pointwise_welfare
from servergame.full_info import (
    BOUNDARY_EPS,
    EquilibriumKind,
    _mixed_formula,
    _stable_profiles,
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
    u1 = u2 = -0.0  # IEEE's additive identity: a lone term keeps a -0.0 entry's sign
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
    """(p1, p2) within a few ulp of |p1 - p2| = c, max = c or max = c/2,
    the first two also of c + BOUNDARY_EPS and c - BOUNDARY_EPS, where
    case III's masks close."""
    u = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(("gap", "max", "half")))
    edge = c if kind == "half" else c + draw(st.sampled_from((0.0, BOUNDARY_EPS, -BOUNDARY_EPS)))
    if kind == "gap":
        p2 = u * (1.0 - edge)
        p1 = p2 + edge
    elif kind == "max":
        p1, p2 = edge, u * edge
    else:
        p1, p2 = c / 2.0, u * c / 2.0
    # about half the coordinates stay on their edge, where a closed mask
    # differs from an open one
    step = st.just(0) | st.integers(-4, 4)
    p1, p2 = (min(1.0, max(0.0, ulp_steps(p, draw(step)))) for p in (p1, p2))
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
    # AA and AI computed in the caller's rows, which the unregulated and
    # subsidy tables take: the same bits, returned in them
    rows = np.full((2, p1.size), np.nan)
    into = variant != "case3_reg"
    if into:
        got = payoff_table(p1, p2, c, variant, out=rows)
        assert np.shares_memory(got[0], rows[0]) and np.shares_memory(got[1], rows[1])
    else:
        match = "^out= takes the unregulated or case2_reg table, not variant='case3_reg'"
        with pytest.raises(ValueError, match=match):
            payoff_table(p1, p2, c, variant, out=rows)
    for i in range(p1.size):
        scalar = payoff_table(float(p1[i]), float(p2[i]), c, variant)
        assert bits(entry[i] for entry in table) == bits(scalar)
        if into:
            assert bits((rows[0, i], rows[1, i])) == bits(scalar[:2])


unit_floats = st.floats(0.0, 1.0) | st.sampled_from([0.0, 5e-324, 2.2250738585072e-308, 1.0])


@SETTINGS
@given(p=unit_floats, c=unit_floats, variant=st.sampled_from(["unregulated", "case2_reg"]))
@example(p=5e-324, c=0.0, variant="case2_reg")
@example(p=1.0, c=1.0, variant="case2_reg")
def test_an_idle_opponent_scores_as_an_active_one_of_type_0(p, c, variant):
    # the sampled deviation check scores draws below the cutoff at type 0,
    # through the array table computed into its block of rows
    aa, ai, ia, ii = payoff_table(p, 0.0, c, variant)
    idle_gain = (ai - ii).hex()
    assert (aa - ia).hex() == idle_gain
    table = payoff_table(np.array([[p]]), np.zeros(1), c, variant, out=np.empty((2, 1, 1)))
    assert float(table[0][0, 0] - table[2][0]).hex() == idle_gain


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


@st.composite
def one_state_near_an_edge(draw):
    """A cost and one state within 4 ulp of max = c/2, max = c,
    |p1 - p2| = c or p1 = p2, in either order, each coordinate a Python
    float or an ``np.float64``."""
    c = draw(st.floats(0.0, 1.0))
    u = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(("half", "max", "gap", "tie")))
    if kind == "half":
        p1, p2 = c / 2.0, u * c / 2.0
    elif kind == "max":
        p1, p2 = c, u * c
    elif kind == "gap":
        p2 = u * (1.0 - c)
        p1 = p2 + c
    else:
        p1 = p2 = u
    p1, p2 = (min(1.0, max(0.0, ulp_steps(p, draw(st.integers(-4, 4))))) for p in (p1, p2))
    p1, p2 = (draw(st.sampled_from((float, np.float64)))(p) for p in (p1, p2))
    return (c, p2, p1) if draw(st.booleans()) else (c, p1, p2)


MASK_MAPS = (
    optimal_activity,
    regulated_activity,
    partial(equilibrium_activity, policy="max_welfare"),
    partial(equilibrium_activity, policy="min_welfare"),
)


# A float state runs the maps' one body on Python floats: every mask must
# come back a Python bool (``~`` on one gives the int -2, and warns on
# Python >= 3.12) with the value of the same state as a 1-element array.
@SETTINGS
@given(one_state_near_an_edge())
@example(case=(0.5, 0.25, 0.1))  # max == c/2: the strict gate is off, the weak one on
@example(case=(0.5, 0.1, np.float64(0.25)))
@example(case=(0.3, 0.3, 0.3))  # max == c on the tie
@example(case=(0.25, 0.75, 0.5))  # contention: |p1 - p2| == c with both above c
@example(case=(0.0, 0.0, 0.0))
def test_a_float_state_gets_python_bools_equal_to_its_one_element_masks(case):
    c, p1, p2 = case
    for activity in MASK_MAPS:
        scalar = activity(p1, p2, c)
        assert tuple(map(type, scalar)) == (bool, bool), (activity, case)
        arrays = activity(np.array([p1]), np.array([p2]), c)
        assert all(mask.dtype == bool and mask.shape == (1,) for mask in arrays)
        assert scalar == (arrays[0][0], arrays[1][0]), (activity, case)


@pytest.mark.parametrize("c", [0.0, 0.3, 0.5, 1])
@pytest.mark.parametrize("p1, p2", [(0, 0), (1, 0), (0, 1), (1, 1), (1, 0.25), (0.75, 0), (0, 0.5)])
def test_an_int_state_gets_the_python_bools_of_its_float_pair(p1, p2, c):
    for activity in MASK_MAPS:
        got = activity(p1, p2, c)
        assert tuple(map(type, got)) == (bool, bool), (activity, p1, p2)
        assert got == activity(float(p1), float(p2), c), (activity, p1, p2)


def not_ii(p1, p2, c):
    return _stable_profiles(p1, p2, c)[0] ^ True


SERVING_SETS = (
    (optimal_activity, lambda p1, p2, c: (p1 > c / 2.0) | (p2 > c / 2.0)),
    (regulated_activity, lambda p1, p2, c: (p1 >= c / 2.0) | (p2 >= c / 2.0)),
    (MASK_MAPS[2], not_ii),
    (MASK_MAPS[3], not_ii),
)


# Every pure selection hands the task to one server: none of them has both
# active, and one is active exactly where its map serves.  The maps derive
# server 2's mask from server 1's on this identity.
@SETTINGS
@given(states_at_one_cost())
@example(case=(0.5, [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.5, 0.5), (1.0, 1.0)]))
def test_exactly_one_server_serves_where_each_map_serves(case):
    c, rows = case
    p1 = np.array([r[0] for r in rows])
    p2 = np.array([r[1] for r in rows])
    for activity, serving in SERVING_SETS:
        sigma1, sigma2 = activity(p1, p2, c)
        assert not np.any(sigma1 & sigma2), (activity, c)
        assert np.array_equal(sigma1 | sigma2, serving(p1, p2, c)), (activity, c)
        for q1, q2 in rows:
            sigma1, sigma2 = activity(q1, q2, c)
            assert not (sigma1 and sigma2), (activity, q1, q2, c)
            assert (sigma1 or sigma2) == serving(q1, q2, c), (activity, q1, q2, c)


_GATE = 0.3 + BOUNDARY_EPS


# Case III's best selection is the cooperative rule with its gate moved from
# c/2 to c: someone serves once a type exceeds c (closed by BOUNDARY_EPS),
# and the better server serves, server 1 on a tie, as the paper states.
@SETTINGS
@given(states_at_one_cost())
@example(case=(0.3, [(_GATE, 0.1), (0.1, math.nextafter(_GATE, 1.0)), (_GATE, _GATE), (0.6, 0.6)]))
@example(case=(0.0, [(0.0, 0.0), (BOUNDARY_EPS, 0.0), (0.0, math.nextafter(BOUNDARY_EPS, 1.0))]))
def test_case3_best_selection_is_the_cooperative_rule_gated_at_c(case):
    c, rows = case
    p1 = np.array([r[0] for r in rows])
    p2 = np.array([r[1] for r in rows])
    serve = (p1 > c + BOUNDARY_EPS) | (p2 > c + BOUNDARY_EPS)
    sigma1, sigma2 = equilibrium_activity(p1, p2, c, "max_welfare")
    assert np.array_equal(sigma1, serve & (p1 >= p2)) and np.array_equal(sigma2, serve & (p1 < p2))
    for q1, q2 in rows:
        serves = q1 > c + BOUNDARY_EPS or q2 > c + BOUNDARY_EPS
        got = equilibrium_activity(q1, q2, c, "max_welfare")
        assert got == (serves and q1 >= q2, serves and q1 < q2), (q1, q2, c)


def reference_classification(p1, p2, c):
    """classify_state's region label, pure set and mixed profile, branch by
    branch, as it read before its sets were built once at import."""
    ii, ai, ia, aa = _stable_profiles(p1, p2, c)
    both, alone1, alone2, idle = PROFILES
    pure = ((idle,) if ii else ()) + ((alone1,) if ai else ()) + ((alone2,) if ia else ())
    pure += (both,) if aa else ()
    if ii:
        if not (ai or ia):
            return EquilibriumKind.BOTH_INACTIVE, pure, None
        kind = EquilibriumKind.BOUNDARY_MIX_1 if p1 >= p2 else EquilibriumKind.BOUNDARY_MIX_2
        return kind, pure, None
    if not ia:
        return EquilibriumKind.ONLY_SERVER_1, pure, None
    if not ai:
        return EquilibriumKind.ONLY_SERVER_2, pure, None
    return EquilibriumKind.CONTENTION, pure, _mixed_formula(p1, p2, c)


PURE_VIEWS = (
    (optimal_profile, optimal_activity),
    (regulated_equilibrium, regulated_activity),
    (partial(select_equilibrium, policy="max_welfare"), MASK_MAPS[2]),
    (partial(select_equilibrium, policy="min_welfare"), MASK_MAPS[3]),
)


# The one-state views answer from values built once (classify_state's sets
# per flag combination, the four pure Profiles); they must stay those of the
# maps they view, at every flag combination a state can reach.
@SETTINGS
@given(states_at_one_cost())
@example(case=(0.0, [(0.0, 0.0), (1.0, 1.0), (BOUNDARY_EPS, 0.0), (0.0, 5e-324), (0.5, 0.5)]))
@example(case=(BOUNDARY_EPS, [(BOUNDARY_EPS, BOUNDARY_EPS), (2 * BOUNDARY_EPS, 0.0), (0.0, 1.0)]))
@example(case=(5e-324, [(5e-324, 5e-324), (1.0, 5e-324), (0.25, 0.75)]))
@example(case=(0.3, [(0.3, 0.3), (0.3, 0.1), (0.1, 0.3), (0.6, 0.3), (_GATE, _GATE), (0.3, 0.6)]))
def test_shared_one_state_results_match_the_maps(case):
    c, rows = case
    for p1, p2 in rows:
        s = State(p1, p2)
        got = classify_state(s, c)
        kind, pure, mixed = reference_classification(p1, p2, c)
        assert (got.kind, got.pure_equilibria) == (kind, pure), (p1, p2, c)
        assert (got.mixed is None) == (mixed is None), (p1, p2, c)
        if mixed is not None:
            assert bits(got.mixed) == bits(mixed), (p1, p2, c)
        for view, activity in PURE_VIEWS:
            masks = activity(np.array([p1]), np.array([p2]), c)
            assert bits(view(s, c)) == bits(float(m[0]) for m in masks), (view, p1, p2, c)


def test_shared_one_state_results_cannot_be_assigned():
    s = State(0.6, 0.45)
    results = [s, classify_state(State(0.9, 0.1), 0.3), classify_state(s, 0.3)]
    results += [view(s, 0.3) for view, _ in PURE_VIEWS]
    for result in results:
        with pytest.raises(AttributeError):
            setattr(result, next(iter(type(result).__annotations__)), None)
    with pytest.raises(TypeError):
        results[-1][0] = 0.5


def test_monte_carlo_rejects_a_sampler_that_yields_nan():
    nan_draws = Distribution("nan", cdf=lambda x: x, uniform_map=lambda u: np.full_like(u, NAN))
    for activity in ACTIVITY_MAPS:
        with pytest.raises(ValueError, match="p1 must lie"):
            mc_welfare(activity, 0.2, n=10, dist1=nan_draws)


@pytest.mark.parametrize("regulated", [False, True])
# draws a block: 2**14 (one block), 7 (the rows split across many blocks)
# and 1,999 (the last block one draw long)
@pytest.mark.parametrize("block", [None, 7, 1_999])
def test_blocked_sampled_gains_match_the_whole_matrix(monkeypatch, regulated, block):
    rng = np.random.default_rng(3)
    draws = rng.random(2_000)
    if block is not None:
        monkeypatch.setattr(oracle, "_BLOCK", block)
    # no draw below the opponent's cutoff, none at or above it, and one on
    # the >= boundary; own cutoffs at 0, 1, between and on that draw
    cases = (
        (0.3, 0.5, 0.25),
        (1.0, 0.7, 0.49),
        (0.5, 0.0, 0.25),
        (0.0, 1.0, 0.49),
        (float(draws[17]), float(draws[17]), 0.25),
    )
    for t_own, t_opp, c in cases:
        # the four probe types of the pair (t_own, t_opp)
        own = np.array([np.nextafter(t, 0.0) if k else t for t in (t_own, t_opp) for k in (1, 0)])
        # the gain matrix built whole, from server 1's row of the table
        p, q = own[:, np.newaxis], draws[np.newaxis, :]
        idle = p - c + c / 2.0 if regulated else p - c
        opp_payoff = q - c / 2.0 if regulated else q
        gain = np.where(q >= t_opp, np.maximum(p, q) - c - opp_payoff, idle)
        work = np.empty((own.size, min(draws.size, oracle._BLOCK)))
        means, ses = oracle._sampled_gains(own, draws, t_opp, c, regulated, work)
        # each row reduced alone, as numpy's mean and std of that row
        np.testing.assert_allclose(means, gain.mean(axis=1), rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            ses, gain.std(axis=1, ddof=1) / np.sqrt(draws.size), rtol=0, atol=1e-14
        )


def linear_scan_best_response(t_opp, c, regulated, step):
    grid = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    for x in grid:
        if interim_activity_gain(float(x), t_opp, c, regulated) >= -(2.0**-52):
            return float(x)
    return 1.0


def linspace_bisection(t_opp, c, regulated, step):
    """The bisection over the whole np.linspace grid, allocated up front."""
    grid = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)

    def dominates(i):
        return interim_activity_gain(float(grid[i]), t_opp, c, regulated) >= -(2.0**-52)

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


# the eight grid rows of `servergame verify`
VERIFY_GRID_CASES = [
    (t_opp, c, regulated)
    for t_opp, c in ((0.0, 0.32), (0.8, 0.25), (0.4, 0.5), (1.0, 0.4))
    for regulated in (False, True)
]


@SETTINGS
@given(
    t_opp=st.floats(0.0, 1.0),
    c=st.floats(0.0, 1.0),
    regulated=st.booleans(),
    step=st.sampled_from([0.01, 1e-3, 1e-4, 1e-5]) | st.floats(1e-5, 0.01),
)
def test_grid_search_in_rows_matches_the_one_point_bisection(t_opp, c, regulated, step):
    got = grid_best_response(t_opp, c, regulated=regulated, step=step)
    assert got.hex() == linspace_bisection(t_opp, c, regulated, step).hex()


@pytest.mark.parametrize("step", [0.01, 1e-3, 1e-5])
@pytest.mark.parametrize("t_opp, c, regulated", VERIFY_GRID_CASES)
def test_verify_grid_cases_match_the_one_point_bisection(t_opp, c, regulated, step):
    got = grid_best_response(t_opp, c, regulated=regulated, step=step)
    assert got.hex() == linspace_bisection(t_opp, c, regulated, step).hex()


# a search that reads fewer points per call needs more calls: one point a
# call takes 10 at step 1e-3
@pytest.mark.parametrize("step, calls", [(1e-3, {2}), (1e-9, set(range(1, 7)))])
def test_grid_best_response_reads_its_gains_in_a_few_short_rows(monkeypatch, step, calls):
    rows, interim_gains = [], oracle._interim_gains

    def counted(p, *args):
        rows.append(p.size)
        return interim_gains(p, *args)

    monkeypatch.setattr(oracle, "_interim_gains", counted)
    rng = np.random.default_rng(19)
    drawn = zip(rng.random(20).tolist(), rng.random(20).tolist(), (rng.random(20) < 0.5).tolist())
    for t_opp, c, regulated in VERIFY_GRID_CASES + list(drawn):
        rows.clear()
        grid_best_response(t_opp, c, regulated=regulated, step=step)
        assert len(rows) in calls and max(rows) <= 31, (t_opp, c, regulated, rows)


def test_grid_best_response_fine_step_allocates_no_grid():
    # 10^9 + 1 grid points would take 8 GB; the search reads at most 6 x 31
    assert abs(grid_best_response(0.8, 0.25, step=1e-9) - 0.3125) <= 1e-6


@pytest.mark.parametrize("step", [1e-320, 5e-324, 0.0, -1e-3, 0.02, NAN])
def test_grid_best_response_rejects_unusable_steps(step):
    with pytest.raises(ValueError, match="step must lie"):
        grid_best_response(0.8, 0.25, step=step)

