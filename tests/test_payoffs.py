import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from servergame.payoffs import (
    ACTIVE,
    INACTIVE,
    PAYOFF_VARIANTS,
    PayoffPair,
    State,
    as_state,
    _check_unit_array,
    check_states,
    payoff,
    payoff_case2_regulated,
    payoff_case3_regulated,
    payoff_mixed,
    payoff_table,
)

ACTIONS = (ACTIVE, INACTIVE)


@pytest.mark.parametrize(
    "state, a1, a2, c, expected",
    [
        ((0.7, 0.4), ACTIVE, INACTIVE, 0.2, (0.5, 0.7)),
        ((0.3, 0.6), ACTIVE, ACTIVE, 0.2, (0.4, 0.4)),
        ((0.3, 0.6), INACTIVE, INACTIVE, 0.9, (0.0, 0.0)),
        ((0.2, 0.9), INACTIVE, ACTIVE, 0.3, (0.9, 0.6)),
    ],
)
def test_payoff_table(state, a1, a2, c, expected):
    got = payoff(State(*state), a1, a2, c)
    assert got.u1 == pytest.approx(expected[0], abs=1e-12)
    assert got.u2 == pytest.approx(expected[1], abs=1e-12)


@pytest.mark.parametrize(
    "state, a1, a2, c, expected",
    [
        ((0.7, 0.4), ACTIVE, INACTIVE, 0.2, (0.6, 0.6)),
        ((0.7, 0.4), INACTIVE, ACTIVE, 0.2, (0.3, 0.3)),
        ((0.3, 0.6), ACTIVE, ACTIVE, 0.2, (0.4, 0.4)),  # both active: no transfer
        ((0.5, 0.1), INACTIVE, INACTIVE, 0.4, (0.0, 0.0)),
    ],
)
def test_subsidy_payoffs(state, a1, a2, c, expected):
    got = payoff_case2_regulated(State(*state), a1, a2, c)
    assert got.u1 == pytest.approx(expected[0], abs=1e-12)
    assert got.u2 == pytest.approx(expected[1], abs=1e-12)


class TestSidePaymentPayoffs:
    def test_lone_active_above_gate(self):
        # transfer c - (p1+p2)/2 = 0: the side payment happens to vanish here
        got = payoff_case3_regulated(State(0.8, 0.4), ACTIVE, INACTIVE, 0.6)
        assert got.u1 == pytest.approx((0.8 - 0.4) / 2, abs=1e-12)
        assert got.u2 == pytest.approx((3 * 0.8 + 0.4) / 2 - 0.6, abs=1e-12)

    def test_lone_active_other_side(self):
        got = payoff_case3_regulated(State(0.8, 0.4), INACTIVE, ACTIVE, 0.6)
        assert got.u1 == pytest.approx(0.4, abs=1e-12)
        assert got.u2 == pytest.approx(-0.2, abs=1e-12)

    def test_below_gate_unchanged(self):
        for a1, a2 in itertools.product(ACTIONS, repeat=2):
            regulated = payoff_case3_regulated(State(0.1, 0.1), a1, a2, 0.6)
            assert regulated == payoff(State(0.1, 0.1), a1, a2, 0.6)

    def test_both_active_unchanged(self):
        got = payoff_case3_regulated(State(0.9, 0.7), ACTIVE, ACTIVE, 0.6)
        assert got == payoff(State(0.9, 0.7), ACTIVE, ACTIVE, 0.6)


def test_state_validation():
    with pytest.raises(ValueError):
        State(-0.1, 0.5)
    with pytest.raises(ValueError):
        State(0.5, 1.2)
    with pytest.raises(ValueError):
        payoff(State(0.5, 0.5), ACTIVE, ACTIVE, 1.5)
    with pytest.raises(ValueError):
        payoff_mixed(State(0.5, 0.5), 1.1, 0.5, 0.2)


def test_state_errors_name_the_value_as_a_plain_float():
    with pytest.raises(ValueError, match=r"p1 must lie in \[0, 1\], got 1\.5$"):
        State(np.float64(1.5), 0.5)  # not "got np.float64(1.5)"
    with pytest.raises(ValueError, match=r"p2 must lie in \[0, 1\], got nan$"):
        State(0.5, math.nan)
    state = State(np.float64(0.25), np.float64(0.5))
    assert (type(state.p1), type(state.p2)) == (float, float) and state == State(0.25, 0.5)


def test_a_pair_is_coerced_to_a_checked_state():
    state = as_state((np.float64(0.7), 0.4))
    assert state == State(0.7, 0.4) and type(state.p1) is float
    assert payoff((0.7, 0.4), ACTIVE, INACTIVE, 0.2) == payoff(state, ACTIVE, INACTIVE, 0.2)
    with pytest.raises(ValueError, match="p2 must lie in"):
        as_state((0.5, math.nan))


@pytest.mark.parametrize(
    "p1, p2",
    [(0.25, 0.5), (np.float64(0.25), 0.5), (0.25, np.float64(0.5)), (np.float64(0.25), np.float64(0.5))],
    ids=["floats", "float64-float", "float-float64", "float64s"],
)
def test_check_states_keeps_a_float_pair_on_python_floats(p1, p2):
    got = check_states(p1, p2)
    assert tuple(map(type, got)) == (float, float) and got == (0.25, 0.5)


@pytest.mark.parametrize("p1, p2", [(1, 0), (0, 0.5), (0.25, 1)])
def test_check_states_keeps_an_int_pair_on_python_floats(p1, p2):
    got = check_states(p1, p2)
    assert tuple(map(type, got)) == (float, float) and got == (float(p1), float(p2))


@pytest.mark.parametrize(
    "p1, p2, message",
    [
        (math.nan, 0.5, "p1 must lie in [0, 1], got nan"),
        (0.5, math.inf, "p2 must lie in [0, 1], got inf"),
        (-math.inf, 0.5, "p1 must lie in [0, 1], got -inf"),
        (1.5, 0.5, "p1 must lie in [0, 1], got 1.5"),
        (0.5, -0.25, "p2 must lie in [0, 1], got -0.25"),
        (np.float64(1.0000000000000002), 0.5, "p1 must lie in [0, 1], got 1.0000000000000002"),
        (2, 0, "p1 must lie in [0, 1], got 2.0"),  # an int is named as its float
    ],
)
def test_a_bad_float_state_gets_the_array_paths_message(p1, p2, message):
    for pair in ((p1, p2), (np.array([p1]), np.array([p2]))):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_states(*pair)


@pytest.mark.parametrize(
    "p1, p2",
    [
        (np.array(0.25), 0.5),
        (0.25, np.array(0.5)),
        (0.25, np.array([0.5, 0.75])),
        (np.array([0.25]), 0.5),
        (np.int64(1), 0),
        (0, np.int64(1)),
    ],
)
def test_a_0d_array_or_a_float_beside_an_array_takes_the_array_path(p1, p2):
    got = check_states(p1, p2)
    assert all(type(x) is np.ndarray and x.dtype == float for x in got)
    assert [x.shape for x in got] == [np.shape(p1), np.shape(p2)]


def two_reduction_check(x, name):
    """The range check's former rule, kept as the reference: a min and a max
    over the whole array, then the first entry that is NaN or outside."""
    x = x.astype(float, copy=False)
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        bad = float(x[~((x >= 0.0) & (x <= 1.0))][0])
        raise ValueError(f"{name} must lie in [0, 1], got {bad!r}")
    return x


# around the edges of [0, 1] and of the unsigned bit patterns: -0.0 and NaN
# of either sign have bits above 1.0's, 5e-324 and 1.0 are the patterns just
# above 0 and the last one accepted
EDGE_VALUES = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 0.5, -1.0, 2.0,
]


@st.composite
def unit_checked_arrays(draw):
    """An array of edge values and floats, as a whole, a 0-d array, a
    reversed, strided or transposed view; within [-2, 2] it may be cast
    to float32 or int."""
    values = st.sampled_from(EDGE_VALUES) | st.floats(0.0, 1.0) | st.floats(allow_nan=True)
    x = np.array(draw(st.lists(values, max_size=12)), dtype=float)
    shape = draw(st.sampled_from(["whole", "0-d", "reversed", "strided", "transposed"]))
    if shape == "0-d":
        x = np.array(x[0] if x.size else draw(values))
    elif shape == "reversed":
        x = x[::-1]
    elif shape == "strided":
        x = x[draw(st.integers(0, 2)) :: draw(st.integers(2, 3))]
    elif shape == "transposed" and x.size % 2 == 0:
        x = x.reshape(2, -1).T
    dtype = draw(st.sampled_from([float, float, np.float32, int]))
    return x.astype(dtype) if np.all(np.abs(x) <= 2.0) else x  # a cast that cannot overflow


@given(unit_checked_arrays())
@example(np.array([-0.0, 0.5]))  # -0.0 passes only through the min and max
@example(np.array(-0.0))
@example(np.array([0.5, np.copysign(np.nan, -1.0), -1.0]))
@example(np.array([1.0, math.nextafter(1.0, 2.0)])[::-1])
def test_one_pass_range_check_is_the_two_reduction_rule(x):
    # the one unsigned max must accept and reject exactly what the min and
    # max did, naming the same first bad entry, and return the same array
    try:
        want = two_reduction_check(x, "p1")
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            _check_unit_array(x, "p1")
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            check_states(x, 0.5)
    else:
        got = _check_unit_array(x, "p1")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_transfer_neutrality_and_symmetry():
    rng = np.random.default_rng(42)
    for _ in range(300):
        p1, p2, c = rng.random(3)
        s = State(p1, p2)
        for a1, a2 in itertools.product(ACTIONS, repeat=2):
            base = payoff(s, a1, a2, c)
            for table in PAYOFF_VARIANTS.values():
                pair = table(s, a1, a2, c)
                assert pair.total == pytest.approx(base.total, abs=1e-12)
                # swapping state and actions swaps the payoffs
                mirror = table(State(s.p2, s.p1), a2, a1, c)
                assert mirror.u1 == pytest.approx(pair.u2, abs=1e-12)
                assert mirror.u2 == pytest.approx(pair.u1, abs=1e-12)
                # payoffs stay inside the loose bound covering all tables
                assert -1.0 <= pair.u1 <= 2.0 and -1.0 <= pair.u2 <= 2.0


def test_mixed_corners_match_pure_exactly():
    # each corner, and the pure payoff, is the table's entry bit for bit:
    # server 1's row and server 2's mirrored one, its own action first
    states = [((0.0, 5e-324), 0.0), ((5e-324, 0.0), 0.0)]  # case3_reg's lone-server AI is -0.0
    states += [((p1, p2), c) for p1, p2, c in np.random.default_rng(7).random((50, 3)).tolist()]
    for state, c in states:
        s = State(*state)
        for variant, pure in PAYOFF_VARIANTS.items():
            row1 = payoff_table(s.p1, s.p2, c, variant)
            row2 = payoff_table(s.p2, s.p1, c, variant)
            for (i, a1), (j, a2) in itertools.product(enumerate(ACTIONS), repeat=2):
                want = [float.hex(row1[2 * i + j]), float.hex(row2[2 * j + i])]
                got = payoff_mixed(s, a1.sigma, a2.sigma, c, variant)
                assert [float.hex(u) for u in got] == want, (state, c, variant, a1, a2)
                assert [float.hex(u) for u in pure(s, a1, a2, c)] == want, (state, c, variant)


@pytest.mark.parametrize("pure", PAYOFF_VARIANTS.values())
@pytest.mark.parametrize("bad", ["active", True, None, 1.0])
def test_a_pure_payoff_rejects_an_action_that_is_not_an_action(pure, bad):
    s = State(0.7, 0.4)
    with pytest.raises(TypeError, match=f"^a1 must be an Action, got {re.escape(repr(bad))}$"):
        pure(s, bad, INACTIVE, 0.2)
    with pytest.raises(TypeError, match=f"^a2 must be an Action, got {re.escape(repr(bad))}$"):
        pure(s, ACTIVE, bad, 0.2)


def test_mixed_examples():
    # degenerate mix reduces to the pure profile
    s = State(0.63, 0.22)
    assert payoff_mixed(s, 1.0, 0.0, 0.35) == payoff(s, ACTIVE, INACTIVE, 0.35)
    # four-profile enumeration at the full-information indifference point
    got = payoff_mixed(State(0.8, 0.6), 0.5, 5 / 6, 0.3)
    assert got.u1 == pytest.approx(0.5, abs=1e-12)
    assert got.u2 == pytest.approx(0.4, abs=1e-12)
    # all four profiles equally likely at zero cost
    got = payoff_mixed(State(0.5, 0.5), 0.5, 0.5, 0.0)
    assert got == PayoffPair(0.375, 0.375)


def test_mixed_is_affine_in_each_component():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p1, p2, c, sa, sb, fixed = rng.random(6)
        s = State(p1, p2)
        mid = payoff_mixed(s, (sa + sb) / 2, fixed, c)
        ua = payoff_mixed(s, sa, fixed, c)
        ub = payoff_mixed(s, sb, fixed, c)
        assert mid.u1 == pytest.approx((ua.u1 + ub.u1) / 2, abs=1e-12)
        assert mid.u2 == pytest.approx((ua.u2 + ub.u2) / 2, abs=1e-12)
        mid = payoff_mixed(s, fixed, (sa + sb) / 2, c)
        ua = payoff_mixed(s, fixed, sa, c)
        ub = payoff_mixed(s, fixed, sb, c)
        assert mid.u1 == pytest.approx((ua.u1 + ub.u1) / 2, abs=1e-12)
        assert mid.u2 == pytest.approx((ua.u2 + ub.u2) / 2, abs=1e-12)


def test_profile_helpers():
    with pytest.raises(ValueError):
        payoff_mixed(State(0.5, 0.5), 0.5, 0.5, 0.2, variant="bogus")
