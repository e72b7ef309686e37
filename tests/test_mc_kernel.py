"""The blocked Monte Carlo welfare kernel against the plain bilinear form.

``mc_welfare`` draws its states one ``_BLOCK`` at a time, calls the
strategy once per block, writes both servers' payoff-table entries into
one workspace made per call, weights them there by boolean activities'
masks cast to 0.0/1.0 and reduces the block before drawing the next.  Every
estimate must be bit-identical to the bilinear mix of both servers'
payoff-table entries evaluated over whole-run draws at once and summed
one ``_BLOCK`` chunk at a time, which is kept here as the reference; and
the block kernel's welfare must be the reference's state by state.
Sizes of 4095 to 4097 states and 2**14 + 2**12 + 3 keep short and ragged
final blocks among the cases.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from servergame import oracle
from servergame.bayesian import (
    Distribution,
    nash_threshold,
    power_distribution,
    uniform_distribution,
)
from servergame.cli import _MC_COLUMNS, _battery, main
from servergame.cooperative import optimal_activity, optimal_profile
from servergame.full_info import equilibrium_activity, regulated_activity
from servergame.oracle import (
    Estimate,
    _BLOCK,
    _block_tables,
    _block_welfare,
    _draws,
    _estimates,
    _mc_block_sums,
    _resolve_strategy,
    mc_welfare,
    pointwise_strategy,
    threshold_activity,
)
from servergame.payoffs import check_cost, payoff_table


def reference_profile_welfare(p1, p2, sigma1, sigma2, c):
    aa, ai, ia, _ = payoff_table(p1, p2, c)
    aa2, ai2, ia2, _ = payoff_table(p2, p1, c)
    return (
        sigma1 * sigma2 * (aa + aa2)
        + sigma1 * (1.0 - sigma2) * (ai + ia2)
        + (1.0 - sigma1) * sigma2 * (ia + ai2)
    )


def near(x: float):
    """Floats within 4 ulp of ``x``, clipped to [0, 1]."""

    def step(k: int) -> float:
        y = x
        for _ in range(abs(k)):
            y = math.nextafter(y, math.copysign(math.inf, k))
        return min(1.0, max(0.0, y))

    return st.integers(-4, 4).map(step)


@st.composite
def kernel_blocks(draw):
    """A cost, up to 40 states near its kinks and the activities played there.

    Costs of 0 and 1 come up often; each type is uniform, 0 or 1, or within
    a few ulp of c/2 (so max = c/2 is hit from both sides), and a state may
    be a tie p1 == p2.  Each server's activities are boolean, as the pure
    maps return, or numbers in [0, 1] with 0 and 1 among them.
    """
    c = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    p = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]) | near(c / 2.0)
    state = p.flatmap(lambda p1: st.tuples(st.just(p1), p | st.just(p1)))
    p1, p2 = (np.array(col) for col in zip(*draw(st.lists(state, min_size=1, max_size=40))))
    numeric = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    sigmas = [
        np.array(draw(st.lists(value, min_size=p1.size, max_size=p1.size)))
        for value in (draw(st.sampled_from([st.booleans(), numeric])) for _ in range(2))
    ]
    return c, p1, p2, *sigmas


def reference_welfare(strategy, c, n, seed, dist1=None, dist2=None):
    """Per-state welfare, by the bilinear form over all draws at once."""
    c = check_cost(c)
    activity = _resolve_strategy(strategy)
    dist1 = dist1 or uniform_distribution()
    dist2 = dist2 or uniform_distribution()
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    p1 = np.asarray(dist1.uniform_map(rng.random(n)), dtype=float)
    p2 = np.asarray(dist2.uniform_map(rng.random(n)), dtype=float)
    sigma1, sigma2 = activity(p1, p2, c)
    return reference_profile_welfare(p1, p2, np.asarray(sigma1), np.asarray(sigma2), c)


def reference_mc_welfare(strategy, c, n, seed, dist1=None, dist2=None):
    """Bilinear evaluation of all draws at once, reduced per _BLOCK chunk."""
    w = reference_welfare(strategy, c, n, seed, dist1, dist2)
    total = 0.0
    total_sq = 0.0
    for lo in range(0, n, _BLOCK):
        chunk = w[lo : lo + _BLOCK]
        total += float(np.sum(chunk))
        total_sq += float(np.sum(chunk * chunk))
    mean = total / n
    if n > 1:
        variance = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        stderr = float(np.sqrt(variance / n))
    else:
        stderr = 0.0
    return Estimate(mean=mean, stderr=stderr, n=n, seed=seed)


def assert_identical(got, want):
    assert got == want
    # == treats -0.0 and 0.0 as equal; the bit patterns must match too
    assert (got.mean.hex(), got.stderr.hex()) == (want.mean.hex(), want.stderr.hex())


def constant_mix(p1, p2, c):
    return np.full_like(p1, 0.3), np.full_like(p2, 0.3)


def scalar_mix(p1, p2, c):
    return 0.3, 0.7


def rare_mix(p1, p2, c):
    # fractional in a few states only, so some slices are pure and some not
    sigma1, sigma2 = optimal_activity(p1, p2, c)
    return np.where(p1 > 0.9999, 0.5, sigma1), sigma2


def bool_activity(p1, p2, c):
    return p1 >= p2, p2 > p1


STRATEGIES = {
    "cooperative": lambda p1, p2, c: optimal_activity(p1, p2, c),
    "case3_max": lambda p1, p2, c: equilibrium_activity(p1, p2, c, "max_welfare"),
    "case3_min": lambda p1, p2, c: equilibrium_activity(p1, p2, c, "min_welfare"),
    "regulated": lambda p1, p2, c: regulated_activity(p1, p2, c),
    "cutoff_pair_both_active": (0.3, 0.6),
    "nash_cutoffs": nash_threshold(0.25),
    "always_idle": (1.0, 1.0),
    "constant_mix": constant_mix,
    "scalar_mix": scalar_mix,
    "rare_mix": rare_mix,
    "bool_activity": bool_activity,
}

SIZES = {
    "one_state": 1,
    "below_one_block": 1_000,
    "one_block": _BLOCK,
    "several_blocks": 3 * _BLOCK,
    "not_a_block_multiple": 3 * _BLOCK + 17,
    "below_one_slice": 4095,
    "one_slice": 4096,
    "one_slice_and_one": 4097,
    "block_slice_and_three": 2**14 + 2**12 + 3,
}


@pytest.mark.parametrize("n", SIZES.values(), ids=SIZES.keys())
@pytest.mark.parametrize("name", STRATEGIES)
def test_blocked_kernel_is_bit_identical(name, n):
    strategy = STRATEGIES[name]
    for c, seed in ((0.1, 3), (0.63, 11)):
        assert_identical(
            mc_welfare(strategy, c, n=n, seed=seed),
            reference_mc_welfare(strategy, c, n=n, seed=seed),
        )


@settings(deadline=None, max_examples=300)
@given(kernel_blocks())
@example(
    (0.0, np.array([0.0, 1.0, 0.0, 0.5]), np.array([0.0, 1.0, 1.0, 0.5]),
     np.array([True, True, False, True]), np.array([True, False, True, True]))
)
@example(
    (1.0, np.array([0.5, 0.0, 1.0]), np.array([0.5, 1.0, 0.0]),
     np.array([0.0, 0.25, 1.0]), np.array([1.0, 0.5, 0.0]))
)
def test_block_kernel_matches_the_reference_state_by_state(case):
    # the sums above could hide offsetting differences; each state's welfare,
    # signed zeros included, must be the reference's, and the three table
    # sums must come back bit for bit for the block's next row
    c, p1, p2, sigma1, sigma2 = case
    want = [float(w).hex() for w in reference_profile_welfare(p1, p2, sigma1, sigma2, c)]
    work = np.full((5, p1.size), np.nan)
    tables = _block_tables(p1, p2, c, work[:4])
    sums = [row.tobytes() for row in tables[:3]]
    out = work[4]
    got = _block_welfare(lambda *_: (sigma1, sigma2), p1, p2, c, tables, out, np.empty(p1.size, bool))
    assert got is out
    assert [float(w).hex() for w in got] == want
    assert [row.tobytes() for row in tables[:3]] == sums


# states where both servers serve: the kernel adds the both-active product
# and takes disjoint lone-server masks if there are any, the servers' own if none
BOTH_ACTIVE = {"nowhere": [], "first": [0], "last": [-1], "everywhere": slice(None)}


@pytest.mark.parametrize("after", [False, True], ids=["own_row", "after_another_row"])
@pytest.mark.parametrize("n", [_BLOCK, _BLOCK + 5])
@pytest.mark.parametrize("where", BOTH_ACTIVE.values(), ids=BOTH_ACTIVE.keys())
def test_boolean_rows_take_the_both_active_sum_wherever_both_serve(where, n, after):
    rng = np.random.default_rng(5)
    p1, p2, c = rng.random(n), rng.random(n), 0.3
    sigma1 = p1 >= p2
    sigma2 = ~sigma1
    sigma1[where] = sigma2[where] = True
    assert np.flatnonzero(sigma1 & sigma2).tolist() == np.arange(n)[where].tolist()
    want = reference_profile_welfare(p1, p2, sigma1, sigma2, c)
    work = np.full((6, n), np.nan)
    tables = _block_tables(p1, p2, c, work[:4])
    sums = [row.tobytes() for row in tables[:3]]
    both_active = np.empty(n, bool)
    if after:
        # the rows of one block share its table sums and both_active, as in
        # _mc_block_sums: a row with both servers active everywhere goes first
        everywhere = np.ones(n, bool)
        _block_welfare(lambda *_: (everywhere, everywhere), p1, p2, c, tables, work[5], both_active)
        assert [row.tobytes() for row in tables[:3]] == sums
    out = work[4]
    got = _block_welfare(lambda *_: (sigma1, sigma2), p1, p2, c, tables, out, both_active)
    assert got is out
    assert got.tobytes() == want.tobytes()
    assert [row.tobytes() for row in tables[:3]] == sums


def signed_zero_block(n, c, where):
    """A block of n states at cost c whose types are mostly -0.0, 0.0 and
    5e-324, so that the table sums hold -0.0 entries at c = 0, and boolean
    activities with both servers active at ``where`` and nowhere else."""
    rng = np.random.default_rng(9)
    types = np.array([-0.0, 0.0, 5e-324, c / 2.0, 0.7])
    p1, p2 = (rng.choice(types, n, p=[0.3, 0.2, 0.1, 0.2, 0.2]) for _ in range(2))
    sigma1 = rng.random(n) < 0.4
    sigma2 = (rng.random(n) < 0.5) & ~sigma1  # some states have neither server
    sigma1[where] = sigma2[where] = True
    return p1, p2, sigma1, sigma2


@pytest.mark.parametrize("c", [0.0, -0.0, 0.3])
@pytest.mark.parametrize("where", [[], [7], slice(None)], ids=["no_state", "one_state", "every_state"])
def test_boolean_rows_are_the_bilinear_mix_with_signed_zeros(where, c):
    # the disjoint masks' two products and the three of a block where both
    # serve must both give the bilinear form's bits, -0.0 entries included
    n = 200
    p1, p2, sigma1, sigma2 = signed_zero_block(n, c, where)
    assert np.flatnonzero(sigma1 & sigma2).tolist() == np.arange(n)[where].tolist()
    work = np.full((5, n), np.nan)
    tables = _block_tables(p1, p2, c, work[:4])
    if c == 0.0 and math.copysign(1.0, c) > 0:
        # at p = c = 0 every table sum holds -0.0 entries
        assert all(np.signbit(row[row == 0.0]).any() for row in tables[:3])
    want = reference_profile_welfare(p1, p2, sigma1, sigma2, c)
    got = _block_welfare(lambda *_: (sigma1, sigma2), p1, p2, c, tables, work[4], np.empty(n, bool))
    assert [float(w).hex() for w in got] == [float(w).hex() for w in want]


@pytest.mark.parametrize("where", [[], [7], slice(None)], ids=["no_state", "one_state", "every_state"])
def test_a_boolean_row_allocates_nothing(where):
    # no block-sized temporary: a bool one (2**14 bytes) or a float one
    # would show in the traced peak of three calls on a full block
    p1, p2, sigma1, sigma2 = signed_zero_block(_BLOCK, 0.3, where)
    work = np.empty((5, _BLOCK))
    mask = np.empty(_BLOCK, bool)
    tables = _block_tables(p1, p2, 0.3, work[:4])

    def activity(*_):
        return sigma1, sigma2

    _block_welfare(activity, p1, p2, 0.3, tables, work[4], mask)
    tracemalloc.start()
    try:
        for _ in range(3):
            _block_welfare(activity, p1, p2, 0.3, tables, work[4], mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**12


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
def test_blocked_kernel_at_cost_extremes(c):
    for strategy in (STRATEGIES["cooperative"], STRATEGIES["case3_min"], (0.2, 0.7)):
        assert_identical(
            mc_welfare(strategy, c, n=2 * _BLOCK + 5, seed=1),
            reference_mc_welfare(strategy, c, n=2 * _BLOCK + 5, seed=1),
        )


def test_scalar_map_wrapper_is_bit_identical():
    strategy = pointwise_strategy(optimal_profile)
    n = _BLOCK + 5
    assert_identical(
        mc_welfare(strategy, 0.5, n=n, seed=11),
        reference_mc_welfare(strategy, 0.5, n=n, seed=11),
    )


# verify's Monte Carlo strategies by cost, as its table lists them
BATTERY_STRATEGIES = {}
for _, _, run, _ in _battery():
    if isinstance(run, tuple) and len(run) == 2:
        BATTERY_STRATEGIES.setdefault(run[0], []).append(_MC_COLUMNS[run[1]][1](run[0]))


@st.composite
def battery_jobs(draw):
    """A cost of verify's battery, a nonempty subset of its strategies
    there in any order, up to three pairs of their positions (a position
    paired with itself among them), a run size
    about one block, with or without power_distribution(2), and a seed."""
    c = draw(st.sampled_from(sorted(BATTERY_STRATEGIES)))
    order = draw(st.permutations(BATTERY_STRATEGIES[c]))
    strategies = order[: draw(st.integers(1, len(order)))]
    position = st.integers(0, len(strategies) - 1)
    pairs = draw(st.lists(st.tuples(position, position), max_size=3))
    pairs += [(i, i) for i in draw(st.lists(position, max_size=1))]
    n = draw(st.sampled_from([2, _BLOCK - 1, _BLOCK, _BLOCK + 5]))
    dist = draw(st.sampled_from([None, power_distribution(2)]))
    return c, strategies, pairs, n, dist, draw(st.integers(0, 2**32))


@settings(deadline=None, max_examples=40)
@given(battery_jobs())
def test_rows_on_one_draw_stream_are_mc_welfare_and_pairs_their_difference(job):
    c, strategies, pairs, n, dist, seed = job
    estimates = _estimates(_mc_block_sums([(c, strategies, pairs)], n, seed, 0, n, dist, dist), n, seed)
    assert len(estimates) == len(strategies) + len(pairs)
    for strategy, got in zip(strategies, estimates):
        assert_identical(got, mc_welfare(strategy, c, n=n, seed=seed, dist1=dist, dist2=dist))
    rows = [reference_welfare(strategy, c, n, seed, dist, dist) for strategy in strategies]
    for (i, j), gap in zip(pairs, estimates[len(strategies):]):
        d = rows[i] - rows[j]
        assert (gap.n, gap.seed) == (n, seed)
        assert gap.mean == pytest.approx(np.mean(d), rel=1e-12, abs=1e-15)
        assert gap.stderr == pytest.approx(np.std(d, ddof=1) / math.sqrt(n), rel=1e-9, abs=1e-15)
        # verify's identity rule: exactly 0 iff no state's difference is other than 0
        assert (math.hypot(gap.mean, gap.stderr) == 0.0) == bool(np.all(d == 0.0))


def test_no_welfare_row_is_written_over_the_table_sums(monkeypatch):
    # _block_tables gets one contiguous slice of the workspace, and every row
    # _block_welfare writes lies outside it, so the sums hold for each strategy
    seen = []

    def tables(p1, p2, c, rows):
        seen.append((rows, []))
        assert isinstance(rows, np.ndarray) and rows.shape == (4, p1.size)
        assert rows.strides == rows.base.strides  # four neighbouring rows of the workspace
        return _block_tables(p1, p2, c, rows)

    def welfare(activity, p1, p2, c, tables, out, both_active):
        seen[-1][1].append(out)
        assert not np.shares_memory(out, seen[-1][0])
        return _block_welfare(activity, p1, p2, c, tables, out, both_active)

    monkeypatch.setattr(oracle, "_block_tables", tables)
    monkeypatch.setattr(oracle, "_block_welfare", welfare)
    strategies = [STRATEGIES[name] for name in ("cooperative", "case3_max", "constant_mix")]
    jobs = [(0.25, strategies, [(0, 1)]), (0.6, strategies[::-1], [])]
    n = _BLOCK + 5
    got = _estimates(_mc_block_sums(jobs, n, 4, 0, n), n, 4)
    assert len(seen) == 4 and all(len(outs) == 3 for _, outs in seen)
    for (c, order, _), estimates in zip(jobs, (got[:3], got[4:])):
        for strategy, estimate in zip(order, estimates):
            assert_identical(estimate, mc_welfare(strategy, c, n=n, seed=4))


def looped_estimates(sums, n, seed):
    """``_estimates`` with its block sums added by a Python float ``+=``
    loop from 0.0 in block order, the reference for its summation bits."""
    totals = [0.0] * (2 * sums.shape[1])
    for block in sums.reshape(len(sums), -1).tolist():
        totals = [total + x for total, x in zip(totals, block)]
    estimates = []
    for total, total_sq in zip(totals[::2], totals[1::2]):
        mean = total / n
        variance = max(0.0, (total_sq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
        estimates.append(Estimate(mean=mean, stderr=float(np.sqrt(variance / n)), n=n, seed=seed))
    return estimates


@st.composite
def block_sums(draw):
    """A (blocks, rows, 2) array of block sums, 1 to 70 blocks: signed
    values of a drawn scale, some of them, or all, replaced by signed zeros,
    a subnormal or values of magnitude 1e300."""
    shape = draw(st.integers(1, 70)), draw(st.integers(1, 6)), 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    sums = rng.normal(0.0, 10.0 ** draw(st.integers(-3, 6)), shape)
    special = rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    sums[special] = rng.choice([0.0, -0.0, 5e-324, -1e300, 1e300], special.sum())
    return sums


@settings(deadline=None, max_examples=100)
@given(block_sums(), st.sampled_from([1, 2, 10**6, 2**40]) | st.integers(1, 2**40), st.integers(0, 2**32))
@example(np.full((70, 3, 2), -0.0), 1, 0)
@example(np.full((70, 1, 2), 0.1), 2, 0)
def test_estimates_add_the_blocks_as_a_float_loop_in_block_order(sums, n, seed):
    got, want = _estimates(sums, n, seed), looped_estimates(sums, n, seed)
    assert [(e.mean.hex(), e.stderr.hex(), e.n, e.seed, e.algorithm) for e in got] == [
        (e.mean.hex(), e.stderr.hex(), e.n, e.seed, e.algorithm) for e in want
    ]


@st.composite
def block_ranges(draw):
    """A run size n, a range [start, stop) of it that starts on a block
    boundary and stops on one or at n, with or without a mapped law, and a seed."""
    n = draw(st.integers(1, 3 * _BLOCK + 7))
    blocks = -(-n // _BLOCK)
    first = draw(st.integers(0, blocks - 1))
    stop = min(draw(st.integers(first + 1, blocks)) * _BLOCK, n)
    dist = draw(st.sampled_from([None, power_distribution(2)]))
    return n, first * _BLOCK, stop, dist, draw(st.integers(0, 2**32))


def drawn(dist, n, seed, start, stop):
    """Copies of the (p1, p2) blocks ``_draws`` yields for [start, stop), run end to end."""
    u1, u2 = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK))
    blocks = [(p1.copy(), p2.copy()) for p1, p2 in _draws(dist, dist, n, seed, u1, u2, start, stop)]
    return [np.concatenate(column) for column in zip(*blocks)]


@settings(deadline=None, max_examples=40)
@given(block_ranges())
@example((3 * _BLOCK + 7, _BLOCK, 3 * _BLOCK, power_distribution(2), 42))
@example((2 * _BLOCK + 5, 2 * _BLOCK, 2 * _BLOCK + 5, None, 0))
def test_a_block_range_reproduces_the_whole_stream(case):
    # a worker that runs blocks [start, stop) alone must draw, and map, the
    # very states a run over all n draws there
    n, start, stop, dist, seed = case
    whole = drawn(dist, n, seed, 0, n)
    part = drawn(dist, n, seed, start, stop)
    assert len(part) == len(whole) == 2
    for got, want in zip(part, whole):
        assert got.tobytes() == want[start:stop].tobytes()


# the law of power_distribution(0.5), through a map of its own
CUSTOM = Distribution("squared", cdf=lambda x: x**0.5, uniform_map=lambda u: u**2.0)

DISTRIBUTIONS = {
    "power_2": (power_distribution(2), power_distribution(2)),
    "power_mixed": (power_distribution(0.5), power_distribution(3)),
    "custom": (CUSTOM, CUSTOM),
    "custom_and_uniform": (uniform_distribution(), CUSTOM),
}


@pytest.mark.parametrize("n", [1, 4097, 2**14 + 2**12 + 3, 2 * _BLOCK + 9])
@pytest.mark.parametrize(
    "name", ["cooperative", "case3_max", "case3_min", "cutoff_pair_both_active", "rare_mix"]
)
@pytest.mark.parametrize("dists", DISTRIBUTIONS.values(), ids=DISTRIBUTIONS.keys())
def test_distributions_are_bit_identical(dists, name, n):
    strategy = STRATEGIES[name]
    dist1, dist2 = dists
    assert_identical(
        mc_welfare(strategy, 0.2, n=n, seed=6, dist1=dist1, dist2=dist2),
        reference_mc_welfare(strategy, 0.2, n=n, seed=6, dist1=dist1, dist2=dist2),
    )


def test_uniform_map_sees_each_block_once_and_never_the_whole_run():
    n = 2 * _BLOCK + 7
    # the reference maps the whole run at once; the recording maps below
    # stand in for uniform_map and see only mc_welfare's blocks
    want = reference_mc_welfare((0.3, 0.6), 0.2, n=n, seed=8)
    blocks = {"p1": [], "p2": []}

    def recorded(name):
        def uniform_map(u):
            blocks[name].append(u.size)
            return u

        return Distribution(name, cdf=lambda x: x, uniform_map=uniform_map)

    assert_identical(
        mc_welfare((0.3, 0.6), 0.2, n=n, seed=8, dist1=recorded("p1"), dist2=recorded("p2")),
        want,
    )
    assert blocks == {"p1": [_BLOCK, _BLOCK, 7], "p2": [_BLOCK, _BLOCK, 7]}


@pytest.mark.parametrize(
    "samples, seed, digest",
    [
        # all three recorded when every Monte Carlo row came to draw at the
        # seed itself, one draw stream per cost, with the paired gap rows
        ("20000", "42", "72a1cfa52b4156b8d01e84b1346976e39ea603e7f3adaa5b3881f8d819e3b0d4"),
        # about a dozen blocks per cost, the last one ragged
        ("200000", "3", "b916027e09270ed204ba85d47c4ae0bde5507195a62d042897d6d82fc3e49181"),
        # the benchmark's own input; the only pin whose p2 generator is
        # advanced by 10**6
        ("1000000", "42", "9a4479709e55a5802dcd3845a6601886e5898008bcfb3fc888d5aff945e39a8f"),
    ],
    ids=["20000-42", "200000-3", "1000000-42"],
)
def test_verify_stdout_is_pinned(capsys, samples, seed, digest):
    # SHA-256 of `servergame verify --samples <samples> --seed <seed>`: any
    # change to the RNG stream, the per-state welfare or the summation
    # order that reaches the printed digits shows here
    assert main(["verify", "--samples", samples, "--seed", seed]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_peak_memory_is_the_draws_plus_one_slice():
    # no run-sized array at all: the six-row workspace of draws and table
    # entries (0.75 MiB) and the strategy's temporaries for one block come
    # to about 0.9 MiB; one 10**6-state array of draws would add 7.6 MiB
    mc_welfare(optimal_activity, 0.3, n=1_000)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        mc_welfare(optimal_activity, 0.3, n=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 * 2**20


FAULT_SCRIPT = textwrap.dedent(
    """
    import json
    import resource
    from functools import partial

    from servergame.bayesian import nash_threshold
    from servergame.cooperative import optimal_activity
    from servergame.full_info import equilibrium_activity, regulated_activity
    from servergame.oracle import mc_welfare

    # every kind of strategy that `servergame verify` runs
    strategies = {
        "optimal_activity": optimal_activity,
        "max_welfare": partial(equilibrium_activity, policy="max_welfare"),
        "min_welfare": partial(equilibrium_activity, policy="min_welfare"),
        "regulated_activity": regulated_activity,
        "cutoff_pair": nash_threshold(0.3),
    }
    faults = {}
    for name, strategy in strategies.items():
        mc_welfare(strategy, 0.3, n=10**6)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        mc_welfare(strategy, 0.3, n=10**6)
        faults[name] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(json.dumps(faults))
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap and minor faults")
def test_repeat_run_reuses_the_heap_without_page_faults():
    # block temporaries above glibc's trim threshold would be handed back to
    # the system and faulted in again on every block, about 12k-16k minor
    # faults per 10**6 states; written into the per-call workspace, only
    # that workspace is mapped anew, once per call.  A fresh interpreter,
    # because the faults depend on the heap's history, with the allocator's
    # default thresholds.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_SCRIPT], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert len(faults) == 5
    assert all(count < 500 for count in faults.values()), faults


class TestActivityContract:
    @pytest.mark.parametrize("value", [2.0, -0.5, np.nan, np.inf])
    def test_constant_activity_out_of_range(self, value):
        with pytest.raises(ValueError, match="sigma"):
            mc_welfare(lambda p1, p2, c: (np.full_like(p1, value), p2 >= 0.5), 0.3, n=100)
        with pytest.raises(ValueError, match="sigma"):
            mc_welfare(lambda p1, p2, c: (p1 >= 0.5, np.full_like(p2, value)), 0.3, n=100)

    def test_single_bad_state_in_a_later_slice(self):
        calls = []

        def activity(p1, p2, c):
            calls.append(p1.size)
            sigma1 = np.full_like(p1, 0.5)
            if len(calls) == 4:
                sigma1[7] = np.nan
            return sigma1, np.zeros_like(p2)

        with pytest.raises(ValueError, match="sigma"):
            mc_welfare(activity, 0.3, n=4 * _BLOCK, seed=2)
        assert calls == [_BLOCK] * 4

    def test_boundary_activities_are_accepted(self):
        est = mc_welfare(lambda p1, p2, c: (0.0, 1.0), 0.3, n=1_000, seed=2)
        assert est.mean == pytest.approx(2 * 0.5 - 0.3, abs=0.1)

    @pytest.mark.parametrize("pair", [(np.nan, 0.5), (0.5, np.nan), (1.5, 0.2), (0.2, -0.1)])
    def test_cutoffs_out_of_range(self, pair):
        with pytest.raises(ValueError, match="cutoff"):
            threshold_activity(pair)
        with pytest.raises(ValueError, match="cutoff"):
            mc_welfare(pair, 0.2, n=100)
